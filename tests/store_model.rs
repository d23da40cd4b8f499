//! Randomized-but-deterministic tests: both record-store backends against
//! simple reference models, under seeded operation sequences with
//! collections forced at arbitrary points.

use data_store::{Backend, ElemTy, FaultPlan, Field, FieldRef, FieldTy, Rec, Store};
use datagen::SplitMix64;

/// Operations over a set of rooted records with one i64 and one ref field.
#[derive(Debug, Clone)]
enum Op {
    Alloc,
    SetVal { rec: usize, v: i64 },
    Link { from: usize, to: usize },
    Collect,
}

fn random_ops(rng: &mut SplitMix64, len: usize) -> Vec<Op> {
    (0..len)
        .map(|_| match rng.next_below(10) {
            0..=2 => Op::Alloc,
            3..=6 => Op::SetVal {
                rec: rng.next_below(64) as usize,
                v: rng.next_u64() as i64,
            },
            7..=8 => Op::Link {
                from: rng.next_below(64) as usize,
                to: rng.next_below(64) as usize,
            },
            _ => Op::Collect,
        })
        .collect()
}

#[derive(Debug, Default, Clone)]
struct ModelRec {
    val: i64,
    next: Option<usize>,
}

fn run_against_model(mut store: Store, ops: &[Op]) {
    let class = store.register_class("Node", &[FieldTy::I64, FieldTy::Ref]);
    let mut recs: Vec<Rec> = Vec::new();
    let mut model: Vec<ModelRec> = Vec::new();
    for op in ops {
        match op {
            Op::Alloc => {
                let r = store.alloc(class).expect("budget is generous");
                store.add_root(r);
                recs.push(r);
                model.push(ModelRec::default());
            }
            Op::SetVal { rec, v } => {
                if recs.is_empty() {
                    continue;
                }
                let i = rec % recs.len();
                store.set_i64(recs[i], 0, *v);
                model[i].val = *v;
            }
            Op::Link { from, to } => {
                if recs.is_empty() {
                    continue;
                }
                let (f, t) = (from % recs.len(), to % recs.len());
                store.set_rec(recs[f], 1, recs[t]);
                model[f].next = Some(t);
            }
            Op::Collect => store.collect(),
        }
    }
    // Verify the full state survives.
    for (i, m) in model.iter().enumerate() {
        assert_eq!(store.get_i64(recs[i], 0), m.val, "value of rec {i}");
        let linked = store.get_rec(recs[i], 1);
        match m.next {
            None => assert!(linked.is_null()),
            Some(t) => assert_eq!(linked, recs[t], "link of rec {i}"),
        }
    }
}

#[test]
fn heap_store_matches_model() {
    for case in 0..64u64 {
        let mut rng = SplitMix64::new(0x57_0BE1 + case);
        let len = 1 + rng.next_below(200) as usize;
        let ops = random_ops(&mut rng, len);
        run_against_model(
            Store::builder()
                .backend(Backend::Heap)
                .budget(64 << 20)
                .build(),
            &ops,
        );
    }
}

#[test]
fn facade_store_matches_model() {
    for case in 0..64u64 {
        let mut rng = SplitMix64::new(0xFAC_ADE0 + case);
        let len = 1 + rng.next_below(200) as usize;
        let ops = random_ops(&mut rng, len);
        run_against_model(Store::builder().budget(64 << 20).build(), &ops);
    }
}

#[test]
fn i64_arrays_match_vec_model() {
    for case in 0..64u64 {
        let mut rng = SplitMix64::new(0xA88A0 + case);
        let len = 1 + rng.next_below(199) as usize;
        let writes: Vec<(usize, i64)> = (0..1 + rng.next_below(99))
            .map(|_| (rng.next_below(len as u64) as usize, rng.next_u64() as i64))
            .collect();
        for mut store in [
            Store::builder()
                .backend(Backend::Heap)
                .budget(16 << 20)
                .build(),
            Store::builder().budget(16 << 20).build(),
        ] {
            let arr = store.alloc_array(ElemTy::I64, len).unwrap();
            store.add_root(arr);
            let mut model = vec![0i64; len];
            for &(i, v) in &writes {
                store.array_set_i64(arr, i, v);
                model[i] = v;
            }
            store.collect();
            for (i, &m) in model.iter().enumerate() {
                assert_eq!(store.array_get_i64(arr, i), m, "case {case}");
            }
        }
    }
}

#[test]
fn byte_arrays_roundtrip() {
    for case in 0..64u64 {
        let mut rng = SplitMix64::new(0xB17E0 + case);
        let data: Vec<u8> = (0..rng.next_below(500))
            .map(|_| rng.next_u64() as u8)
            .collect();
        for mut store in [
            Store::builder()
                .backend(Backend::Heap)
                .budget(16 << 20)
                .build(),
            Store::builder().budget(16 << 20).build(),
        ] {
            let arr = store.alloc_array(ElemTy::U8, data.len()).unwrap();
            store.add_root(arr);
            store.array_write_bytes(arr, &data);
            store.collect();
            assert_eq!(store.array_bytes(arr), data, "case {case}");
        }
    }
}

/// Memory a store's arrays are born on.
#[derive(Debug, Clone, Copy)]
enum Ground {
    /// Never used before.
    Fresh,
    /// Holding stale bytes: recycled pages (facade) or a space a
    /// collection emptied (heap).
    Stale,
    /// Recycled pages a `FaultPlan` filled with `0xDB` (facade; the heap
    /// backend has no pages to poison, so there it is `Stale`).
    Poisoned,
}

/// A 16 MiB store whose next arrays land on `ground`.
fn store_on(backend: Backend, ground: Ground) -> Store {
    let mut builder = Store::builder().backend(backend).budget(16 << 20);
    if let Ground::Poisoned = ground {
        builder = builder.fault_plan(FaultPlan::builder(7).poison_recycled_pages().build());
    }
    let mut store = builder.build();
    if let Ground::Stale | Ground::Poisoned = ground {
        // Sixteen 16 000-byte arrays of 0xEE: eight pages, or the first
        // 256 KiB of the young space. Two collections bring the heap's
        // allocation space back round to the dirtied semispace.
        let it = store.iteration_start();
        for _ in 0..16 {
            let junk = store.alloc_array(ElemTy::U8, 16_000).unwrap();
            store.array_write_bytes(junk, &[0xEE; 16_000]);
        }
        store.iteration_end(it);
        store.collect();
        store.collect();
    }
    store
}

/// Seeded bulk-array operations — write a run at an offset, stream the
/// elements back, map in place, borrow the bytes — mirrored in `Vec` models,
/// with a collection forced after every operation (a no-op on the facade
/// backend; on the heap backend it moves the arrays under the next call).
/// With `born` the three arrays start from random contents through
/// `alloc_f64s` / `alloc_i32s` / `alloc_bytes`, else zeroed from
/// `alloc_array`.
fn bulk_ops_match_model(mut store: Store, len: usize, born: bool, rng: &mut SplitMix64) {
    // Doubles are modelled by bit pattern, so NaNs compare too.
    let mut doubles_model = vec![0u64; len];
    let mut ints_model = vec![0i32; len];
    let mut bytes_model = vec![0u8; len];
    let (doubles, ints, bytes) = if born {
        doubles_model.fill_with(|| rng.next_u64());
        ints_model.fill_with(|| rng.next_u64() as i32);
        bytes_model.fill_with(|| rng.next_u64() as u8);
        let data: Vec<f64> = doubles_model.iter().copied().map(f64::from_bits).collect();
        let doubles = store.alloc_f64s(&data).unwrap();
        store.add_root(doubles);
        let ints = store.alloc_i32s(&ints_model).unwrap();
        store.add_root(ints);
        (doubles, ints, store.alloc_bytes(&bytes_model).unwrap())
    } else {
        let doubles = store.alloc_array(ElemTy::I64, len).unwrap();
        store.add_root(doubles);
        let ints = store.alloc_array(ElemTy::I32, len).unwrap();
        store.add_root(ints);
        (doubles, ints, store.alloc_array(ElemTy::U8, len).unwrap())
    };
    store.add_root(bytes);

    for step in 0..25 {
        if step > 0 {
            bulk_op(
                &mut store,
                [doubles, ints, bytes],
                rng,
                &mut doubles_model,
                &mut ints_model,
                &mut bytes_model,
            );
        }
        store.collect();

        let streamed = store.array_f64s(doubles);
        assert_eq!(streamed.len(), len);
        assert!(streamed.map(f64::to_bits).eq(doubles_model.iter().copied()));
        assert!(store.array_i32s(ints).eq(ints_model.iter().copied()));
        assert_eq!(store.array_bytes(bytes), bytes_model);
    }
    for i in 0..len {
        assert_eq!(store.array_get_i64(doubles, i) as u64, doubles_model[i]);
        assert_eq!(store.array_get_i32(ints, i), ints_model[i]);
    }
    assert_eq!(store.array_bytes(bytes), bytes_model);
}

/// One seeded operation of [`bulk_ops_match_model`], applied to the store
/// and to the models.
fn bulk_op(
    store: &mut Store,
    [doubles, ints, bytes]: [Rec; 3],
    rng: &mut SplitMix64,
    doubles_model: &mut [u64],
    ints_model: &mut [i32],
    bytes_model: &mut [u8],
) {
    let len = doubles_model.len();
    let start = rng.next_below(len as u64 + 1) as usize;
    let run = rng.next_below((len - start) as u64 + 1) as usize;
    match rng.next_below(6) {
        0 => {
            let data: Vec<f64> = (0..run).map(|_| rng.next_u64() as f64 / 7.0).collect();
            store.array_write_f64s(doubles, start, &data);
            for (m, v) in doubles_model[start..].iter_mut().zip(&data) {
                *m = v.to_bits();
            }
        }
        1 => {
            let data: Vec<i64> = (0..run).map(|_| rng.next_u64() as i64).collect();
            store.array_write_i64s(doubles, start, &data);
            for (m, &v) in doubles_model[start..].iter_mut().zip(&data) {
                *m = v as u64;
            }
        }
        2 => {
            let data: Vec<i32> = (0..run).map(|_| rng.next_u64() as i32).collect();
            store.array_write_i32s(ints, start, &data);
            ints_model[start..start + run].copy_from_slice(&data);
        }
        3 => {
            let f = |x: f64| x * 0.5 + 1.0;
            store.array_map_f64s(doubles, f);
            for m in doubles_model {
                *m = f(f64::from_bits(*m)).to_bits();
            }
        }
        4 => {
            let data: Vec<u8> = (0..start).map(|_| rng.next_u64() as u8).collect();
            store.array_write_bytes(bytes, &data);
            bytes_model[..start].copy_from_slice(&data);
        }
        _ => {
            // A single element through the random-access API: both
            // APIs address the same storage.
            if len > 0 {
                let i = start.min(len - 1);
                store.array_set_f64(doubles, i, 0.25);
                doubles_model[i] = 0.25f64.to_bits();
                store.array_set_i32(ints, i, -7);
                ints_model[i] = -7;
            }
        }
    }
}

#[test]
fn bulk_array_ops_match_vec_model() {
    let page = facade_runtime::PAGE_CAPACITY;
    // Record sizes on the facade backend are `8 + len × element size`:
    // empty, small, odd (an `I32` array with padding after it), the last
    // `I64` length below the large-record threshold (half a page) and the
    // first one on it, and one no page can hold.
    let fixed = [
        0,
        1,
        2,
        7,
        (page / 2 - 8) / 8,
        (page / 2 - 8) / 8 + 1,
        page / 8 + 1,
    ];
    for case in 0..24u64 {
        let mut rng = SplitMix64::new(0xB01C + case);
        let len = match fixed.get(case as usize) {
            Some(&len) => len,
            None => 1 + rng.next_below(300) as usize,
        };
        for backend in [Backend::Heap, Backend::Facade] {
            for ground in [Ground::Fresh, Ground::Stale, Ground::Poisoned] {
                for born in [false, true] {
                    let store = store_on(backend, ground);
                    bulk_ops_match_model(store, len, born, &mut rng.clone());
                }
            }
        }
    }

    // A constructor the fault plan fails returns a typed error and leaves
    // the store as it was: the retry succeeds and holds its contents.
    let plan = FaultPlan::builder(7).fail_nth_allocation(2).build();
    let mut store = Store::builder()
        .budget(1 << 20)
        .fault_plan(plan.clone())
        .build();
    let first = store.alloc_i32s(&[1, 2, 3]).unwrap();
    let err = store.alloc_f64s(&[0.5; 9]).unwrap_err();
    assert!(err.is_injected(), "{err}");
    assert_eq!(store.stats().records_allocated, 1);
    let doubles = store.alloc_f64s(&[0.5; 9]).unwrap();
    let bytes = store.alloc_bytes(b"born").unwrap();
    assert!(store.array_i32s(first).eq([1, 2, 3]));
    assert!(store.array_f64s(doubles).eq([0.5; 9]));
    assert_eq!(store.array_bytes(bytes), b"born");
    assert_eq!(plan.faults_injected(), 1);

    // Past the budget both backends refuse with a typed error too, and
    // the next array that fits is born whole.
    for backend in [Backend::Heap, Backend::Facade] {
        let mut store = Store::builder().backend(backend).budget(1 << 20).build();
        assert!(store.alloc_bytes(&vec![1; 2 << 20]).is_err(), "{backend:?}");
        let ints = store.alloc_i32s(&[-1, 5]).unwrap();
        assert!(store.array_i32s(ints).eq([-1, 5]), "{backend:?}");
    }
}

fn bulk_write_past_the_end(backend: Backend) {
    let mut store = Store::builder().backend(backend).budget(1 << 20).build();
    let arr = store.alloc_array(ElemTy::I64, 8).unwrap();
    store.array_write_f64s(arr, 7, &[1.0, 2.0]);
}

#[test]
#[should_panic(expected = "out of bounds")]
fn heap_bulk_write_past_the_end_panics() {
    bulk_write_past_the_end(Backend::Heap);
}

#[test]
#[should_panic(expected = "out of bounds")]
fn facade_bulk_write_past_the_end_panics() {
    bulk_write_past_the_end(Backend::Facade);
}

/// Raw bytes written into a `Ref` array would forge references.
fn bytes_into_a_ref_array(backend: Backend) {
    let mut store = Store::builder().backend(backend).budget(1 << 20).build();
    let refs = store.alloc_array(ElemTy::Ref, 2).unwrap();
    store.array_write_bytes(refs, &[1, 0]);
}

#[test]
#[should_panic(expected = "primitive array")]
fn heap_bytes_into_a_ref_array_panic() {
    bytes_into_a_ref_array(Backend::Heap);
}

#[test]
#[should_panic(expected = "primitive array")]
fn facade_bytes_into_a_ref_array_panic() {
    bytes_into_a_ref_array(Backend::Facade);
}

/// A field value of the [`field_handles_match_vec_model`] model; doubles by
/// bit pattern, so NaNs compare too.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Val {
    I32(i32),
    I64(i64),
    F64(u64),
    Ref(Rec),
}

impl Val {
    fn zero(ty: FieldTy) -> Self {
        match ty {
            FieldTy::I32 => Val::I32(0),
            FieldTy::I64 => Val::I64(0),
            FieldTy::F64 => Val::F64(0),
            FieldTy::Ref => Val::Ref(Rec::NULL),
        }
    }

    fn random(ty: FieldTy, rng: &mut SplitMix64, targets: &[Rec]) -> Self {
        match ty {
            FieldTy::I32 => Val::I32(rng.next_u64() as i32),
            FieldTy::I64 => Val::I64(rng.next_u64() as i64),
            FieldTy::F64 => Val::F64(rng.next_u64()),
            FieldTy::Ref => match rng.next_below(targets.len() as u64 + 1) as usize {
                0 => Val::Ref(Rec::NULL),
                i => Val::Ref(targets[i - 1]),
            },
        }
    }

    fn write(self, store: &mut Store, r: Rec, field: impl FieldRef) {
        match self {
            Val::I32(v) => store.set_i32(r, field, v),
            Val::I64(v) => store.set_i64(r, field, v),
            Val::F64(bits) => store.set_f64(r, field, f64::from_bits(bits)),
            Val::Ref(v) => store.set_rec(r, field, v),
        }
    }

    fn read(ty: FieldTy, store: &Store, r: Rec, field: impl FieldRef) -> Self {
        match ty {
            FieldTy::I32 => Val::I32(store.get_i32(r, field)),
            FieldTy::I64 => Val::I64(store.get_i64(r, field)),
            FieldTy::F64 => Val::F64(store.get_f64(r, field).to_bits()),
            FieldTy::Ref => Val::Ref(store.get_rec(r, field)),
        }
    }
}

/// Registers a one-field class, then `shape` (so the class under test is
/// not the first), and resolves every field of `shape`.
fn register_shape(store: &mut Store, shape: &[FieldTy]) -> (data_store::ClassTag, Vec<Field>) {
    store.register_class("Before", &[FieldTy::I32]);
    let class = store.register_class("Shape", shape);
    let fields = (0..shape.len()).map(|i| store.field(class, i)).collect();
    (class, fields)
}

/// Field handles against a `Vec` model: random class shapes of 1–12 fields
/// over every field type (so `I32`s pack and 8-byte fields align), on both
/// backends and every ground. Each field is written through its `Field`
/// and read back by index, then written by index and read back through its
/// `Field` — with the store's own handles, and with handles resolved on
/// another store that registered the same classes in the same order (the
/// per-worker pattern of the engines). Beside the records a `Ref` array of
/// random length takes random elements, checked against a `Vec<Rec>`.
/// References, in fields and elements, are null, records of the class,
/// arrays on two further pages, or an oversize array. A collection runs
/// before every read pass, moving the heap backend's records under the
/// handles.
#[test]
fn field_handles_match_vec_model() {
    const TYS: [FieldTy; 4] = [FieldTy::I32, FieldTy::I64, FieldTy::F64, FieldTy::Ref];
    for case in 0..16u64 {
        let mut rng = SplitMix64::new(0xF1E1D + case);
        let shape: Vec<FieldTy> = (0..1 + rng.next_below(12))
            .map(|_| TYS[rng.next_below(4) as usize])
            .collect();
        for backend in [Backend::Heap, Backend::Facade] {
            for ground in [Ground::Fresh, Ground::Stale, Ground::Poisoned] {
                let mut store = store_on(backend, ground);
                let (class, own) = register_shape(&mut store, &shape);
                let mut other = Store::builder().backend(backend).build();
                let (_, borrowed) = register_shape(&mut other, &shape);
                drop(other);
                for fields in [own, borrowed] {
                    let ctx = format!("case {case} {backend:?} {ground:?} {shape:?}");
                    // On the facade backend a 20 000-byte array is a large
                    // record, so each starts a page of its own; 40 000 bytes
                    // do not fit a page at all.
                    let mut targets: Vec<Rec> =
                        (0..3).map(|_| store.alloc(class).unwrap()).collect();
                    targets.extend(
                        [20_000, 20_000, 40_000]
                            .map(|len| store.alloc_array(ElemTy::U8, len).unwrap()),
                    );
                    for &t in &targets {
                        store.add_root(t);
                    }
                    let refs = store
                        .alloc_array(ElemTy::Ref, 1 + rng.next_below(40) as usize)
                        .unwrap();
                    store.add_root(refs);
                    let mut ref_model = vec![Rec::NULL; store.array_len(refs)];
                    let recs: Vec<Rec> = (0..4)
                        .map(|_| {
                            let r = store.alloc(class).unwrap();
                            store.add_root(r);
                            r
                        })
                        .collect();
                    let mut model: Vec<Vec<Val>> =
                        vec![shape.iter().map(|&ty| Val::zero(ty)).collect(); recs.len()];
                    for round in 0..6 {
                        // Even rounds write through the handles and read
                        // by index; odd rounds the other way round.
                        let by_handle = round % 2 == 0;
                        for (r, vals) in recs.iter().zip(&mut model) {
                            for (i, (&ty, val)) in shape.iter().zip(vals.iter_mut()).enumerate() {
                                if rng.next_below(4) == 0 {
                                    continue;
                                }
                                *val = Val::random(ty, &mut rng, &targets);
                                if by_handle {
                                    val.write(&mut store, *r, fields[i]);
                                } else {
                                    val.write(&mut store, *r, i);
                                }
                            }
                        }
                        for (i, elem) in ref_model.iter_mut().enumerate() {
                            if rng.next_below(4) == 0 {
                                continue;
                            }
                            let Val::Ref(v) = Val::random(FieldTy::Ref, &mut rng, &targets) else {
                                unreachable!("a Ref value");
                            };
                            store.array_set_rec(refs, i, v);
                            *elem = v;
                        }
                        store.collect();
                        for (i, &want) in ref_model.iter().enumerate() {
                            let got = store.array_get_rec(refs, i);
                            assert_eq!(got, want, "{ctx} round {round} element {i}");
                        }
                        for (r, vals) in recs.iter().zip(&model) {
                            for (i, (&ty, &val)) in shape.iter().zip(vals).enumerate() {
                                let got = if by_handle {
                                    Val::read(ty, &store, *r, i)
                                } else {
                                    Val::read(ty, &store, *r, fields[i])
                                };
                                assert_eq!(got, val, "{ctx} round {round} field {i}");
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Reads a field of one class through a record of another.
#[cfg(debug_assertions)]
fn field_of_another_class(backend: Backend) {
    let mut store = Store::builder().backend(backend).budget(1 << 20).build();
    let alpha = store.register_class("Alpha", &[FieldTy::I64]);
    let beta = store.register_class("Beta", &[FieldTy::I64, FieldTy::I64]);
    let second = store.field(beta, 1);
    let r = store.alloc(alpha).unwrap();
    store.get_i64(r, second);
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "a field of class Beta used on a record of class Alpha")]
fn heap_field_of_another_class_panics_in_debug() {
    field_of_another_class(Backend::Heap);
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "a field of class Beta used on a record of class Alpha")]
fn facade_field_of_another_class_panics_in_debug() {
    field_of_another_class(Backend::Facade);
}

#[test]
fn facade_iterations_isolate_allocations() {
    for case in 0..32u64 {
        let mut rng = SplitMix64::new(0x150_1A7E + case);
        let per_iter = 1 + rng.next_below(199) as usize;
        let iters = 1 + rng.next_below(9) as usize;
        let mut store = Store::builder().budget(64 << 20).build();
        let class = store.register_class("T", &[FieldTy::I64]);
        // Survivor allocated before any iteration.
        let keep = store.alloc(class).unwrap();
        store.set_i64(keep, 0, 77);
        for k in 0..iters {
            let it = store.iteration_start();
            for j in 0..per_iter {
                let r = store.alloc(class).unwrap();
                store.set_i64(r, 0, (k * per_iter + j) as i64);
            }
            store.iteration_end(it);
        }
        assert_eq!(store.get_i64(keep, 0), 77, "case {case}");
        assert_eq!(
            store.stats().records_allocated,
            (per_iter * iters + 1) as u64,
            "case {case}"
        );
    }
}

/// The shared `PagePool`'s job-epoch accounting against a reference ledger:
/// seeded interleavings of epoch begin/retire and of facade stores built,
/// filled, recycled, released and dropped under those epochs.
mod pool_epoch_model {
    use data_store::{ClassTag, EpochLedger, FieldTy, Iteration, PagePool, Store, StoreStats};
    use datagen::SplitMix64;
    use facade_runtime::PAGE_BYTES;
    use std::sync::Arc;

    /// One live facade store and the stats the model has already booked.
    struct LiveStore {
        store: Store,
        epoch: u64,
        class: ClassTag,
        open: Option<Iteration>,
        booked: StoreStats,
    }

    /// One live epoch: its expected ledger, the pages its dropped stores
    /// created, and the pages it has released so far.
    struct LiveEpoch {
        id: u64,
        ledger: EpochLedger,
        created: u64,
        released: u64,
    }

    /// What the pool must report, derived from the stores' own counters.
    #[derive(Default)]
    struct Model {
        epochs: Vec<LiveEpoch>,
        handed_out: u64,
        returned: u64,
        /// Pages released by epochs already retired.
        retired_released: u64,
        /// Acquires larger than the pages the epoch itself or a retired one
        /// could have left in the pool: they drew another live epoch's.
        cross_epoch_acquires: u64,
        /// Pages created by stores already dropped.
        dropped_created: u64,
    }

    impl Model {
        /// Books pool traffic of `epoch`: `out` pages acquired, then `back`
        /// pages released.
        fn book(&mut self, epoch: u64, out: u64, back: u64) {
            let supply = self.returned - self.handed_out;
            let e = self.epochs.iter_mut().find(|e| e.id == epoch).unwrap();
            if out > (e.released + self.retired_released).min(supply) {
                self.cross_epoch_acquires += 1;
            }
            e.ledger.pages_out += out;
            e.ledger.pages_in += back;
            e.released += back;
            self.handed_out += out;
            self.returned += back;
        }

        /// Books whatever `s` moved through the pool since the last call.
        fn sync(&mut self, s: &mut LiveStore) {
            let now = s.store.stats();
            let out = now.pages_from_pool - s.booked.pages_from_pool;
            let back = now.pages_to_pool - s.booked.pages_to_pool;
            self.book(s.epoch, out, back);
            s.booked = now;
        }

        fn check(&self, pool: &PagePool, stores: &[LiveStore], ctx: &str) {
            assert_eq!(pool.live_epochs(), self.epochs.len(), "{ctx}");
            for e in &self.epochs {
                assert_eq!(pool.epoch_ledger(e.id), Some(e.ledger), "{ctx}: {}", e.id);
            }
            assert_eq!(pool.pages_handed_out(), self.handed_out, "{ctx}");
            assert_eq!(pool.pages_returned(), self.returned, "{ctx}");
            let supply = self.returned - self.handed_out;
            assert_eq!(pool.available() as u64, supply, "{ctx}");
            // Conservation: every page ever created sits in a live store's
            // slot or in the pool, at every step, not only at retirement.
            let (held, created) = stores.iter().fold((0, self.dropped_created), |(h, c), s| {
                let now = s.store.stats();
                (
                    h + now.current_bytes / PAGE_BYTES as u64,
                    c + now.pages_created,
                )
            });
            assert_eq!(
                pool.available() as u64 + held,
                created,
                "{ctx}: a page is neither in a store nor in the pool"
            );
        }

        /// Drops a store after ending its iteration: every page it holds,
        /// recycled by that end, goes back tagged.
        fn drop_store(&mut self, pool: &PagePool, mut s: LiveStore, ctx: &str) {
            if let Some(it) = s.open.take() {
                s.store.iteration_end(it);
            }
            self.sync(&mut s);
            let b = &s.booked;
            let held = b.pages_created + b.pages_from_pool - b.pages_to_pool;
            let returned = pool.pages_returned();
            drop(s.store);
            assert_eq!(pool.pages_returned() - returned, held, "{ctx}: drop");
            self.book(s.epoch, 0, held);
            let e = self.epochs.iter_mut().find(|e| e.id == s.epoch).unwrap();
            e.created += b.pages_created;
            self.dropped_created += b.pages_created;
        }

        /// Retires a live epoch whose stores are all gone.
        fn retire(&mut self, pool: &PagePool, idx: usize, ctx: &str) {
            let e = self.epochs.swap_remove(idx);
            self.retired_released += e.released;
            let ledger = pool.retire_epoch(e.id).expect("epoch was live");
            assert_eq!(ledger, e.ledger, "{ctx}: retired ledger");
            assert_eq!(ledger.pages_in, ledger.pages_out + e.created, "{ctx}");
            assert_eq!(pool.epoch_ledger(e.id), None, "{ctx}");
            let supply = pool.pages_returned() - pool.pages_handed_out();
            assert_eq!(pool.available() as u64, supply, "{ctx}: after retiring");
        }
    }

    /// Runs one seeded interleaving with at most `max_epochs` epochs live at
    /// once; returns how many acquires provably drew another live epoch's
    /// pages.
    fn run(seed: u64, max_epochs: usize) -> u64 {
        let mut rng = SplitMix64::new(seed);
        let pool = Arc::new(PagePool::with_default_config());
        let mut model = Model::default();
        let mut stores: Vec<LiveStore> = Vec::new();
        for step in 0..40 + rng.next_below(60) {
            let ctx = format!("seed {seed:#x} step {step}");
            let pick = |rng: &mut SplitMix64, n: usize| rng.next_below(n as u64) as usize;
            let si = pick(&mut rng, stores.len().max(1));
            match rng.next_below(7) {
                0 if model.epochs.len() < max_epochs => model.epochs.push(LiveEpoch {
                    id: pool.begin_epoch(),
                    ledger: EpochLedger::default(),
                    created: 0,
                    released: 0,
                }),
                1 if !model.epochs.is_empty() && stores.len() < 4 => {
                    let epoch = model.epochs[pick(&mut rng, model.epochs.len())].id;
                    let mut store = Store::builder()
                        .budget(16 << 20)
                        .pool(Arc::clone(&pool))
                        .job_epoch(epoch)
                        .build();
                    let class = store.register_class("T", &[FieldTy::I64; 4]);
                    stores.push(LiveStore {
                        store,
                        epoch,
                        class,
                        open: None,
                        booked: StoreStats::default(),
                    });
                }
                2 | 3 if !stores.is_empty() => {
                    let s = &mut stores[si];
                    if s.open.is_none() {
                        s.open = Some(s.store.iteration_start());
                    }
                    for _ in 0..rng.next_below(3000) {
                        s.store.alloc(s.class).expect("budget is generous");
                    }
                    model.sync(s);
                }
                4 if !stores.is_empty() => {
                    let s = &mut stores[si];
                    if let Some(it) = s.open.take() {
                        s.store.iteration_end(it);
                    }
                    let released = match rng.next_below(2) {
                        0 => s.store.release_pages() as u64,
                        _ => 0,
                    };
                    let before = s.booked.pages_to_pool;
                    model.sync(s);
                    assert_eq!(s.booked.pages_to_pool - before, released, "{ctx}");
                }
                5 if !stores.is_empty() => {
                    model.drop_store(&pool, stores.swap_remove(si), &ctx);
                }
                6 => {
                    let retirable: Vec<usize> = (0..model.epochs.len())
                        .filter(|&i| stores.iter().all(|s| s.epoch != model.epochs[i].id))
                        .collect();
                    if !retirable.is_empty() {
                        let idx = retirable[pick(&mut rng, retirable.len())];
                        model.retire(&pool, idx, &ctx);
                    }
                }
                _ => {}
            }
            model.check(&pool, &stores, &ctx);
        }
        // Drain: every store goes, then every epoch retires.
        let ctx = format!("seed {seed:#x} drain");
        for s in std::mem::take(&mut stores) {
            model.drop_store(&pool, s, &ctx);
        }
        while !model.epochs.is_empty() {
            model.retire(&pool, 0, &ctx);
        }
        model.check(&pool, &stores, &ctx);
        model.cross_epoch_acquires
    }

    #[test]
    fn one_epoch_at_a_time_reconciles_against_the_ledger_model() {
        for case in 0..48u64 {
            run(0xE90C_1000 + case, 1);
        }
    }

    #[test]
    fn two_interleaved_epochs_trade_pages_and_still_reconcile() {
        let cross: u64 = (0..48u64).map(|case| run(0xE90C_2000 + case, 2)).sum();
        assert!(
            cross > 0,
            "no acquire drew pages another live epoch donated"
        );
    }
}
