//! Fixed-count micro-probes of the layers underneath the engines, run once
//! at the end of a traced run. Each probe times `OPS` back-to-back calls of
//! one public function, `ROUNDS` times; the reported value is the median
//! round's mean cost per call.

use crate::report::Samples;
use data_store::{ElemTy, FieldTy, PagePool, Rec, Store};
use metrics::report::Backend;
use std::hint::black_box;
use std::time::Instant;

const ROUNDS: usize = 7;
const OPS: usize = 10_000;
/// Elements of the probed array: 16 KiB of `i64`, inside one 32 KiB page.
const ARRAY_LEN: usize = 2_048;
/// Bytes per probed byte array: a corpus word.
const WORD_BYTES: usize = 12;

/// Mean ns per call of `OPS` calls.
fn per_call_ns(body: impl FnOnce()) -> f64 {
    let started = Instant::now();
    body();
    started.elapsed().as_nanos() as f64 / OPS as f64
}

/// The `data_store.*` probes: the six `Store` operations the engines' data
/// paths are made of, against a facade store and (prefix `heap_`) a heap
/// store. Budgets are sized so that no collection runs inside a probe.
pub fn data_store(samples: &mut Samples) {
    const NAMES: [[&str; 6]; 2] = [
        [
            "data_store.record_alloc_ns",
            "data_store.field_get_ns",
            "data_store.field_set_ns",
            "data_store.array_get_ns",
            "data_store.array_set_ns",
            "data_store.bytes_alloc_ns",
        ],
        [
            "data_store.heap_record_alloc_ns",
            "data_store.heap_field_get_ns",
            "data_store.heap_field_set_ns",
            "data_store.heap_array_get_ns",
            "data_store.heap_array_set_ns",
            "data_store.heap_bytes_alloc_ns",
        ],
    ];
    let word = [b'w'; WORD_BYTES];
    for (backend, names) in [Backend::Facade, Backend::Heap].into_iter().zip(NAMES) {
        for _ in 0..ROUNDS {
            let mut store = Store::builder().backend(backend).budget(32 << 20).build();
            let class = store.register_class(
                "Probe",
                &[FieldTy::I32, FieldTy::I64, FieldTy::F64, FieldTy::Ref],
            );
            let scope = store.iteration_start();
            let mut records: Vec<Rec> = Vec::with_capacity(OPS);
            samples.push(
                names[0],
                per_call_ns(|| {
                    for _ in 0..OPS {
                        records.push(store.alloc(class).expect("probe fits its budget"));
                    }
                }),
            );
            samples.push(
                names[2],
                per_call_ns(|| {
                    for (i, r) in records.iter().enumerate() {
                        store.set_f64(*r, 2, i as f64);
                    }
                }),
            );
            samples.push(
                names[1],
                per_call_ns(|| {
                    let mut sum = 0.0;
                    for r in &records {
                        sum += store.get_f64(*r, 2);
                    }
                    black_box(sum);
                }),
            );
            let array = store
                .alloc_array(ElemTy::I64, ARRAY_LEN)
                .expect("probe fits its budget");
            samples.push(
                names[4],
                per_call_ns(|| {
                    for i in 0..OPS {
                        store.array_set_f64(array, i % ARRAY_LEN, i as f64);
                    }
                }),
            );
            samples.push(
                names[3],
                per_call_ns(|| {
                    let mut sum = 0.0;
                    for i in 0..OPS {
                        sum += store.array_get_f64(array, i % ARRAY_LEN);
                    }
                    black_box(sum);
                }),
            );
            samples.push(
                names[5],
                per_call_ns(|| {
                    for _ in 0..OPS {
                        let bytes = store
                            .alloc_array(ElemTy::U8, WORD_BYTES)
                            .expect("probe fits its budget");
                        store.array_write_bytes(bytes, &word);
                    }
                }),
            );
            store.iteration_end(scope);
        }
    }
}

/// The `facade_runtime.*` probes that no engine report carries: the cost
/// of ending an iteration that owns `OPS` records, and of minting and
/// retiring one pool epoch.
pub fn page_runtime(samples: &mut Samples) {
    for _ in 0..ROUNDS {
        let mut store = Store::builder().budget(32 << 20).build();
        let class = store.register_class("Probe", &[FieldTy::I64, FieldTy::I64, FieldTy::Ref]);
        let scope = store.iteration_start();
        for _ in 0..OPS {
            black_box(store.alloc(class).expect("probe fits its budget"));
        }
        let started = Instant::now();
        store.iteration_end(scope);
        samples.push(
            "facade_runtime.iteration_end_us",
            started.elapsed().as_nanos() as f64 / 1e3,
        );

        let pool = PagePool::with_default_config();
        samples.push(
            "facade_runtime.epoch_mint_retire_us",
            per_call_ns(|| {
                for _ in 0..OPS {
                    let epoch = pool.begin_epoch();
                    black_box(pool.retire_epoch(epoch));
                }
            }) / 1e3,
        );
    }
}
