//! Randomized-but-deterministic tests: both record-store backends against
//! simple reference models, under seeded operation sequences with
//! collections forced at arbitrary points.

use data_store::{Backend, ElemTy, FieldTy, Rec, Store};
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
            assert_eq!(store.array_read_bytes(arr), data, "case {case}");
        }
    }
}

/// Seeded bulk-array operations — write a run at an offset, stream the
/// elements back, map in place, borrow the bytes — mirrored in `Vec` models,
/// with a collection forced after every operation (a no-op on the facade
/// backend; on the heap backend it moves the arrays under the next call).
fn bulk_ops_match_model(mut store: Store, len: usize, rng: &mut SplitMix64) {
    let doubles = store.alloc_array(ElemTy::I64, len).unwrap();
    store.add_root(doubles);
    let ints = store.alloc_array(ElemTy::I32, len).unwrap();
    store.add_root(ints);
    let bytes = store.alloc_array(ElemTy::U8, len).unwrap();
    store.add_root(bytes);
    // Doubles are modelled by bit pattern, so NaNs compare too.
    let mut doubles_model = vec![0u64; len];
    let mut ints_model = vec![0i32; len];
    let mut bytes_model = vec![0u8; len];

    for _ in 0..24 {
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
                for m in &mut doubles_model {
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
    assert_eq!(store.array_read_bytes(bytes), bytes_model);
}

#[test]
fn bulk_array_ops_match_vec_model() {
    let page = facade_runtime::PAGE_CAPACITY;
    // Record sizes on the facade backend are `8 + len × element size`:
    // empty, small, the last `I64` length below the large-record threshold
    // (half a page) and the first one on it, and one no page can hold.
    let fixed = [
        0,
        1,
        2,
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
            let store = Store::builder().backend(backend).budget(16 << 20).build();
            bulk_ops_match_model(store, len, &mut rng.clone());
        }
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

mod collections_model {
    use data_store::collections::{BytesMap, RecDeque, RecList};
    use data_store::{Backend, FieldTy, Rec, Store};
    use datagen::SplitMix64;
    use std::collections::VecDeque;

    /// Operations over one list + one deque + one map, mirrored against std
    /// models. Values are records tagged with their creation index.
    #[derive(Debug, Clone)]
    enum ColOp {
        ListPush,
        ListPop,
        DequePushBack,
        DequePopFront,
        MapInsert(u16),
        MapLookup(u16),
    }

    fn random_ops(rng: &mut SplitMix64, len: usize) -> Vec<ColOp> {
        (0..len)
            .map(|_| match rng.next_below(14) {
                0..=2 => ColOp::ListPush,
                3 => ColOp::ListPop,
                4..=6 => ColOp::DequePushBack,
                7..=8 => ColOp::DequePopFront,
                9..=11 => ColOp::MapInsert(rng.next_below(512) as u16),
                _ => ColOp::MapLookup(rng.next_below(512) as u16),
            })
            .collect()
    }

    fn run_model(mut store: Store, ops: &[ColOp]) {
        let entry = BytesMap::register_class(&mut store);
        let class = store.register_class("V", &[FieldTy::I64]);
        let mut list = RecList::new(&mut store, 4).unwrap();
        let mut deque = RecDeque::new(&mut store, 4).unwrap();
        let mut map = BytesMap::new(&mut store, entry, 16).unwrap();
        let mut list_model: Vec<i64> = Vec::new();
        let mut deque_model: VecDeque<i64> = VecDeque::new();
        let mut map_model: std::collections::HashMap<u16, i64> = Default::default();
        let mut counter = 0i64;
        let mut fresh = |store: &mut Store| -> Rec {
            counter += 1;
            let r = store.alloc(class).unwrap();
            store.set_i64(r, 0, counter);
            r
        };
        let tag = |store: &Store, r: Rec| store.get_i64(r, 0);
        for op in ops {
            match op {
                ColOp::ListPush => {
                    let r = fresh(&mut store);
                    let t = tag(&store, r);
                    list.push(&mut store, r).unwrap();
                    list_model.push(t);
                }
                ColOp::ListPop => {
                    let got = list.pop(&store).map(|r| tag(&store, r));
                    assert_eq!(got, list_model.pop());
                }
                ColOp::DequePushBack => {
                    let r = fresh(&mut store);
                    let t = tag(&store, r);
                    deque.push_back(&mut store, r).unwrap();
                    deque_model.push_back(t);
                }
                ColOp::DequePopFront => {
                    let got = deque.pop_front(&store).map(|r| tag(&store, r));
                    assert_eq!(got, deque_model.pop_front());
                }
                ColOp::MapInsert(k) => {
                    let r = fresh(&mut store);
                    let t = tag(&store, r);
                    map.insert(&mut store, format!("k{k}").as_bytes(), r)
                        .unwrap();
                    map_model.insert(*k, t);
                }
                ColOp::MapLookup(k) => {
                    let got = map
                        .get(&store, format!("k{k}").as_bytes())
                        .map(|r| tag(&store, r));
                    assert_eq!(got, map_model.get(k).copied(), "key {k}");
                }
            }
        }
        // Final full comparison.
        assert_eq!(list.len(), list_model.len());
        for (i, &t) in list_model.iter().enumerate() {
            assert_eq!(tag(&store, list.get(&store, i)), t);
        }
        assert_eq!(map.len(), map_model.len());
        for (k, &t) in &map_model {
            let got = map.get(&store, format!("k{k}").as_bytes()).unwrap();
            assert_eq!(tag(&store, got), t);
        }
    }

    #[test]
    fn heap_collections_match_std_models() {
        for case in 0..32u64 {
            let mut rng = SplitMix64::new(0xC011_0001 + case);
            let len = 1 + rng.next_below(300) as usize;
            let ops = random_ops(&mut rng, len);
            run_model(
                Store::builder()
                    .backend(Backend::Heap)
                    .budget(64 << 20)
                    .build(),
                &ops,
            );
        }
    }

    #[test]
    fn facade_collections_match_std_models() {
        for case in 0..32u64 {
            let mut rng = SplitMix64::new(0xC011_0002 + case);
            let len = 1 + rng.next_below(300) as usize;
            let ops = random_ops(&mut rng, len);
            run_model(Store::builder().budget(64 << 20).build(), &ops);
        }
    }
}
