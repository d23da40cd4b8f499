//! Randomized-but-deterministic tests of the paged runtime's invariants
//! under allocation sequences with nested iterations. Sequences are drawn
//! from a seeded PRNG, one seed per case, so failures reproduce exactly.

use facade_runtime::{ElemKind, FieldKind, PAGE_BYTES, PageRef, PagedHeap};
use managed_heap::{elem, set_elem};

/// A SplitMix64 stream; local so this crate stays dependency-free.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Allocate a record with this many i64 fields (mod table).
    Alloc(u8),
    /// Allocate an array of this many i64 elements (can reach oversize).
    AllocArray(u16),
    /// Start a nested iteration.
    Start,
    /// End the innermost iteration (no-op at depth 0).
    End,
}

fn random_ops(rng: &mut Rng, len: usize) -> Vec<Op> {
    (0..len)
        .map(|_| match rng.below(9) {
            0..=4 => Op::Alloc(rng.next_u64() as u8),
            5..=6 => Op::AllocArray(rng.next_u64() as u16),
            7 => Op::Start,
            _ => Op::End,
        })
        .collect()
}

#[test]
fn alloc_iteration_invariants_hold() {
    for case in 0..64u64 {
        let mut rng = Rng(0xA110_C000 + case);
        let len = 1 + rng.below(300) as usize;
        let ops = random_ops(&mut rng, len);
        let mut heap = PagedHeap::new();
        let classes: Vec<_> = (0..4)
            .map(|i| heap.register_type(&format!("T{i}"), &vec![FieldKind::I64; i + 1]))
            .collect();
        // Field 0 opens the body in every type.
        let f0 = heap.layout(classes[0]).offset(0);
        let mut depth = 0usize;
        let mut stack = Vec::new();
        let mut live: Vec<(PageRef, i64)> = Vec::new(); // current scope's records
        let mut allocated = 0u64;
        for (k, op) in ops.iter().enumerate() {
            match op {
                Op::Alloc(c) => {
                    let ty = classes[*c as usize % classes.len()];
                    let r = heap.alloc(ty).unwrap();
                    heap.write_body(r, f0, (k as i64).to_le_bytes());
                    live.push((r, k as i64));
                    allocated += 1;
                }
                Op::AllocArray(n) => {
                    let len = *n as usize % 8192;
                    let r = heap.alloc_array(ElemKind::I64, len).unwrap();
                    if len > 0 {
                        set_elem(heap.body_mut(r), len - 1, (k as i64).to_le_bytes());
                        assert_eq!(elem(heap.body(r), len - 1), (k as i64).to_le_bytes());
                    }
                    assert_eq!(heap.array_len(r), len);
                    allocated += 1;
                }
                Op::Start => {
                    stack.push((heap.iteration_start(), std::mem::take(&mut live)));
                    depth += 1;
                }
                Op::End => {
                    if let Some((it, outer_live)) = stack.pop() {
                        heap.iteration_end(it);
                        live = outer_live;
                        depth -= 1;
                    }
                }
            }
            assert_eq!(heap.iteration_depth(), depth, "case {case}");
            // Records of the *current* scope stay readable with their data.
            for &(r, v) in &live {
                assert_eq!(i64::from_le_bytes(heap.read_body(r, f0)), v, "case {case}");
            }
        }
        assert_eq!(heap.stats().records_allocated, allocated, "case {case}");
        // Accounting: held bytes are at least the page population.
        let pages = heap.page_objects() as u64 * PAGE_BYTES as u64;
        assert!(heap.bytes_held() >= pages, "case {case}");
        // Ending every open iteration succeeds (nesting discipline held).
        while let Some((it, _)) = stack.pop() {
            heap.iteration_end(it);
        }
        assert_eq!(heap.iteration_depth(), 0, "case {case}");
    }
}

#[test]
fn recycled_pages_are_reused_not_leaked() {
    for case in 0..64u64 {
        let mut rng = Rng(0x9EC7_C1E0 + case);
        let rounds = 1 + rng.below(11) as usize;
        let per_round = 1 + rng.below(499) as usize;
        let mut heap = PagedHeap::new();
        let t = heap.register_type("T", &[FieldKind::I64; 4]);
        let mut max_pages = 0;
        for _ in 0..rounds {
            let it = heap.iteration_start();
            for _ in 0..per_round {
                heap.alloc(t).unwrap();
            }
            heap.iteration_end(it);
            max_pages = max_pages.max(heap.page_objects());
        }
        // Page population equals one round's worth: later rounds reuse.
        assert_eq!(heap.page_objects(), max_pages, "case {case}");
        assert_eq!(
            heap.stats().records_allocated,
            (rounds * per_round) as u64,
            "case {case}"
        );
    }
}
