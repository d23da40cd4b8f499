//! **E10 — §2.4 microbenchmarks**: the per-operation costs behind the
//! paper's performance-benefit claims.
//!
//! - `record_alloc`: allocating small data records — heap objects (with the
//!   collector absorbing the garbage) vs paged records (with iteration
//!   resets absorbing them), on pristine pages (`facade`, a million records
//!   an iteration) and on recycled ones (`facade_recycled`, 500).
//! - `field_access`: reading/writing record fields on both backends.
//! - `array_access`: i64 array element access on both backends, and bulk
//!   against per-element fill / fold of a 64-double array.
//! - `reclamation`: reclaiming one iteration's worth of records — a full
//!   GC cycle vs an `iteration_end` page recycle.
//! - `pool_contention`: the shared page supply under N-thread
//!   acquire/release hammering on its one lock, one page per acquire as a
//!   heap takes them. Reported straight from the pool's own `PoolCounters`
//!   latency accounting (per-call means across all threads).
//! - `conversion`: §3.5 data conversion (heap object graph → paged records).
//! - `interpreter`: `facade-vm`'s cost per interpreted step of the
//!   `compile_run` benchmark's allocation loop, `P'` on pages and `P` on the
//!   managed heap: `churn` with the VM's setup, `churn_run` without it.
//!
//! Measured with a small in-tree harness (best-of-N batch timing) so the
//! workspace needs no external benchmark framework; run with
//! `cargo bench -p facade-bench`.

use data_store::{Backend, ElemTy, FieldTy, Store};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Times `f` over `batch`-sized batches, reporting the best per-call time of
/// `rounds` rounds (the low-noise end of the distribution, like a
/// min-of-samples benchmark).
fn bench(name: &str, batch: u64, rounds: u32, mut f: impl FnMut()) {
    // Warm-up round.
    for _ in 0..batch {
        f();
    }
    let mut best = Duration::MAX;
    for _ in 0..rounds {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        best = best.min(t0.elapsed());
    }
    let per_call = best.as_nanos() as f64 / batch as f64;
    println!("{name:<45} {per_call:>12.1} ns/op");
}

fn record_alloc() {
    {
        let mut store = Store::builder()
            .backend(Backend::Heap)
            .budget(64 << 20)
            .build();
        let class = store.register_class("T", &[FieldTy::I32, FieldTy::I64]);
        bench("record_alloc/heap", 100_000, 5, || {
            let r = store.alloc(class).unwrap();
            black_box(r);
        });
    }
    {
        let mut store = Store::builder().build();
        let class = store.register_class("T", &[FieldTy::I32, FieldTy::I64]);
        let mut it = store.iteration_start();
        let mut n = 0u32;
        bench("record_alloc/facade", 100_000, 5, || {
            let r = store.alloc(class).unwrap();
            black_box(r);
            n += 1;
            if n == 1_000_000 {
                store.iteration_end(it);
                it = store.iteration_start();
                n = 0;
            }
        });
    }
    {
        // Short iterations, as `compile_run`'s loop runs them: after the
        // first, every record lands on a recycled page below its dirty
        // watermark, so each allocation zeroes stale bytes.
        let mut store = Store::builder().build();
        let class = store.register_class("T", &[FieldTy::I32, FieldTy::I64]);
        let mut it = store.iteration_start();
        let mut n = 0u32;
        bench("record_alloc/facade_recycled", 100_000, 5, || {
            let r = store.alloc(class).unwrap();
            black_box(r);
            n += 1;
            if n == 500 {
                store.iteration_end(it);
                it = store.iteration_start();
                n = 0;
            }
        });
    }
}

fn field_access() {
    for (name, mut store) in [
        (
            "heap",
            Store::builder()
                .backend(Backend::Heap)
                .budget(16 << 20)
                .build(),
        ),
        ("facade", Store::builder().build()),
    ] {
        let class = store.register_class("T", &[FieldTy::I64, FieldTy::F64]);
        let r = store.alloc(class).unwrap();
        store.add_root(r);
        let mut x = 0.0f64;
        bench(
            &format!("field_access/{name}/write_read"),
            100_000,
            5,
            || {
                store.set_f64(r, 1, x);
                x = store.get_f64(r, 1) + 1.0;
                black_box(x);
            },
        );
    }
}

fn array_access() {
    for (name, mut store) in [
        (
            "heap",
            Store::builder()
                .backend(Backend::Heap)
                .budget(16 << 20)
                .build(),
        ),
        ("facade", Store::builder().build()),
    ] {
        let arr = store.alloc_array(ElemTy::I64, 1024).unwrap();
        store.add_root(arr);
        bench(&format!("array_access/{name}/sweep"), 1_000, 5, || {
            let mut acc = 0i64;
            for i in 0..1024 {
                store.array_set_i64(arr, i, i as i64);
                acc = acc.wrapping_add(store.array_get_i64(arr, i));
            }
            black_box(acc);
        });

        // Bulk vs per-element on an edge-array-sized run: the bulk calls
        // resolve the record and check bounds once per 64 doubles.
        let arr = store.alloc_array(ElemTy::I64, 64).unwrap();
        store.add_root(arr);
        let data: Vec<f64> = (0..64).map(f64::from).collect();
        let batch = 10_000;
        bench(
            &format!("array_access/{name}/fill_64_f64/per_element"),
            batch,
            5,
            || {
                for (i, &v) in black_box(&data).iter().enumerate() {
                    store.array_set_f64(arr, i, v);
                }
            },
        );
        bench(
            &format!("array_access/{name}/fill_64_f64/bulk"),
            batch,
            5,
            || store.array_write_f64s(arr, 0, black_box(&data)),
        );
        bench(
            &format!("array_access/{name}/fold_64_f64/per_element"),
            batch,
            5,
            || {
                let mut sum = 0.0;
                for i in 0..64 {
                    sum += store.array_get_f64(black_box(arr), i);
                }
                black_box(sum);
            },
        );
        bench(
            &format!("array_access/{name}/fold_64_f64/bulk"),
            batch,
            5,
            || {
                black_box(store.array_f64s(black_box(arr)).fold(0.0, |sum, x| sum + x));
            },
        );
    }
}

fn reclamation() {
    // §2.4's claim: reclamation cost. The heap pays a trace of every live
    // record on each full collection; the facade backend recycles an
    // iteration's pages without visiting records at all.
    const N: usize = 50_000;
    {
        let mut store = Store::builder()
            .backend(Backend::Heap)
            .budget(64 << 20)
            .build();
        let class = store.register_class("T", &[FieldTy::I64, FieldTy::I64]);
        let arr = store.alloc_array(ElemTy::Ref, N).unwrap();
        store.add_root(arr);
        for i in 0..N {
            let r = store.alloc(class).unwrap();
            store.array_set_rec(arr, i, r);
        }
        bench("reclamation/heap/full_gc_traces_50k_live", 20, 3, || {
            store.collect()
        });
    }
    {
        // Time only the `iteration_end` page recycle; the allocation filler
        // runs outside the timed region via a manual best-of-rounds loop.
        let mut store = Store::builder().build();
        let class = store.register_class("T", &[FieldTy::I64, FieldTy::I64]);
        let mut best = Duration::MAX;
        for _ in 0..20 {
            let it = store.iteration_start();
            for _ in 0..N {
                black_box(store.alloc(class).unwrap());
            }
            let t0 = Instant::now();
            store.iteration_end(it);
            best = best.min(t0.elapsed());
        }
        println!(
            "{:<45} {:>12.1} ns/op",
            "reclamation/facade/iteration_end_recycles_50k",
            best.as_nanos() as f64
        );
    }
}

fn pool_contention() {
    use facade_runtime::{NO_EPOCH, PagePool, PooledPage};

    // §3.6 runs per-thread page managers over one shared page supply, so
    // every worker's page adoption and retirement meets every other's on
    // this structure. Each thread takes a page and immediately hands it
    // back, the worst-case ping-pong; the pool's own latency counters then
    // give the mean per-call cost across all threads, pre-aggregated
    // exactly as the bench reports' `pool` section records it.
    const OPS_PER_THREAD: usize = 20_000;
    for threads in [1usize, 2, 4, 8] {
        let pool = PagePool::with_default_config();
        // Seed a page per thread so acquires mostly find one instead of
        // coming back empty.
        pool.release_batch((0..threads).map(|_| PooledPage::new()).collect(), NO_EPOCH);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    for _ in 0..OPS_PER_THREAD {
                        // An empty pool means a racing sibling holds the
                        // supply; hand a fresh page back to keep the churn
                        // honest.
                        let page = pool.acquire(NO_EPOCH).unwrap_or_default();
                        pool.release_batch(vec![page], NO_EPOCH);
                    }
                });
            }
        });
        let counters = pool.counters();
        println!(
            "{:<45} {:>12.1} ns/op",
            format!("pool_contention/{threads}_threads/acquire"),
            counters.mean_acquire_ns() as f64
        );
        println!(
            "{:<45} {:>12.1} ns/op",
            format!("pool_contention/{threads}_threads/release_batch"),
            counters.mean_release_ns() as f64
        );
    }
}

fn conversion() {
    use facade_compiler::{DataSpec, transform};
    use facade_ir::{CmpOp, ProgramBuilder, Ty};
    use facade_vm::Vm;

    // A program whose control path hands a 64-node list into the data path
    // every call: each run exercises convertFromA (§3.5).
    let mut pb = ProgramBuilder::new();
    let mut node_cb = pb.class("Node").field("v", Ty::I32);
    let node = node_cb.id();
    node_cb = node_cb.field("next", Ty::Ref(node));
    let node = node_cb.build();
    let mut len = pb
        .method(node, "len")
        .param(Ty::Ref(node))
        .returns(Ty::I32)
        .static_();
    let head = len.param_local(0);
    let cur = len.local(Ty::Ref(node));
    len.move_(cur, head);
    let n = len.local(Ty::I32);
    let zero = len.const_i32(0);
    len.move_(n, zero);
    let null = len.const_null(Ty::Ref(node));
    let hb = len.block();
    let bb = len.block();
    let db = len.block();
    len.jump(hb);
    len.switch_to(hb);
    let more = len.cmp(CmpOp::Ne, cur, null);
    len.branch(more, bb, db);
    len.switch_to(bb);
    let one = len.const_i32(1);
    let n2 = len.bin(facade_ir::BinOp::Add, n, one);
    len.move_(n, n2);
    let nx = len.get_field(cur, "next");
    len.move_(cur, nx);
    len.jump(hb);
    len.switch_to(db);
    len.ret(Some(n));
    let len_m = len.finish();

    let main_class = pb.class("Main").build();
    let mut main = pb.method(main_class, "main").static_();
    let first = main.new_object(node);
    let prev = main.local(Ty::Ref(node));
    main.move_(prev, first);
    for _ in 0..63 {
        let nd = main.new_object(node);
        main.set_field(prev, "next", nd);
        main.move_(prev, nd);
    }
    let l = main.call_static(len_m, vec![first]).unwrap();
    main.print(l);
    main.ret(None);
    let main_m = main.finish();
    let mut program = pb.finish();
    program.set_entry(main_m);
    let out = transform(&program, &DataSpec::new(["Node"])).expect("transforms");

    // Small spaces so VM setup does not dominate the measurement.
    let config = facade_vm::VmConfig {
        heap: managed_heap::HeapConfig::with_capacity(1 << 20),
        ..facade_vm::VmConfig::default()
    };
    bench("conversion/64_node_list_into_data_path", 200, 5, || {
        let mut vm = Vm::with_config(&out.program, Some(&out.meta), config.clone());
        vm.run().unwrap();
        black_box(vm.output().len());
    });
}

fn interpreter() {
    use facade_compiler::{DataSpec, PassConfig, compile_text};
    use facade_vm::{Vm, VmConfig};

    // One class of the `compile_run` program and a `main` making one of its
    // `churn` calls: a nested loop allocating 100 × 300 records. The time of
    // a whole run (VM setup included, as in the benchmark) is divided by its
    // steps, so a change to the dispatch loop reads directly.
    let class = include_str!("../../../benchmark/programs/temp_class.ir").replace('@', "0");
    let text = format!(
        "{class}class Main {{\n  static void main() {{\n   locals: i32, i32, i64\n   bb0:
     v0 = 100\n     v1 = 300\n     v2 = static Temp0::churn(v0, v1)\n     print v2
     return\n  }}\n}}\nentry Main::main\n"
    );
    let compiled =
        compile_text(&text, &DataSpec::new(["Temp0"]), &PassConfig::all()).expect("compiles");
    let config = VmConfig {
        heap: managed_heap::HeapConfig::with_capacity(4 << 20),
        ..VmConfig::default()
    };
    for (name, meta) in [("paged", Some(&compiled.meta)), ("heap", None)] {
        let program = if meta.is_some() {
            &compiled.transformed
        } else {
            &compiled.source
        };
        // `churn` times setup and run together; `churn_run` times `run()`
        // alone, on a VM built outside the timer.
        let (mut best, mut best_run) = (Duration::MAX, Duration::MAX);
        let mut steps = 0;
        for _ in 0..20 {
            let t0 = Instant::now();
            let mut vm = Vm::with_config(program, meta, config.clone());
            vm.run().unwrap();
            best = best.min(t0.elapsed());
            steps = black_box(vm.steps());

            let mut vm = Vm::with_config(program, meta, config.clone());
            let t0 = Instant::now();
            vm.run().unwrap();
            best_run = best_run.min(t0.elapsed());
            assert_eq!(vm.steps(), steps);
        }
        for (row, time) in [("churn", best), ("churn_run", best_run)] {
            println!(
                "{:<45} {:>12.2} ns/step",
                format!("interpreter/{name}/{row}"),
                time.as_nanos() as f64 / steps as f64
            );
        }
    }
}

fn main() {
    record_alloc();
    field_access();
    array_access();
    reclamation();
    pool_contention();
    conversion();
    interpreter();
}
