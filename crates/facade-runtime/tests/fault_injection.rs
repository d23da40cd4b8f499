//! Integration tests for the seeded fault-injection harness: every fault
//! mode, driven through the public `PagedHeap`/`PagePool` API.

use facade_runtime::{
    ElemKind, FaultPlan, FieldKind, PagePool, PagedHeap, PagedHeapConfig, TypeId,
};
use std::sync::Arc;

fn counter_type(heap: &mut PagedHeap) -> TypeId {
    heap.register_type("Counter", &[FieldKind::I64, FieldKind::I64])
}

#[test]
fn nth_allocation_fault_is_survivable_and_marked_injected() {
    let plan = FaultPlan::builder(3).fail_nth_allocation(5).build();
    let mut heap = PagedHeap::new();
    heap.set_fault_plan(plan.clone());
    let ty = counter_type(&mut heap);

    for _ in 0..4 {
        heap.alloc(ty).expect("allocations before the N-th succeed");
    }
    let err = heap.alloc(ty).expect_err("the 5th allocation fails");
    assert!(err.is_injected(), "{err}");
    assert!(err.to_string().contains("fault-injection"), "{err}");

    // The fault fires exactly once: the heap is fully usable afterwards,
    // which is what lets engines treat injected OOMs as transient.
    for _ in 0..100 {
        heap.alloc(ty).expect("allocations after the N-th succeed");
    }
    assert_eq!(plan.faults_injected(), 1);
}

#[test]
fn nth_allocation_counts_across_heaps_sharing_the_plan() {
    let plan = FaultPlan::builder(0).fail_nth_allocation(4).build();
    let mut a = PagedHeap::new();
    let mut b = PagedHeap::new();
    a.set_fault_plan(plan.clone());
    b.set_fault_plan(plan.clone());
    let ta = counter_type(&mut a);
    let tb = counter_type(&mut b);

    // Alternate heaps: the process-wide 4th allocation is b's 2nd.
    assert!(a.alloc(ta).is_ok());
    assert!(b.alloc(tb).is_ok());
    assert!(a.alloc(ta).is_ok());
    let err = b.alloc(tb).expect_err("4th allocation across the plan");
    assert!(err.is_injected());
    assert_eq!(plan.faults_injected(), 1);
}

#[test]
fn failed_pool_acquire_falls_back_to_fresh_pages() {
    let pool = Arc::new(PagePool::with_default_config());

    // A donor heap stocks the pool.
    let mut donor = PagedHeap::with_pool(PagedHeapConfig::default(), Arc::clone(&pool));
    let ty = counter_type(&mut donor);
    let it = donor.iteration_start();
    for _ in 0..10_000 {
        donor.alloc(ty).unwrap();
    }
    donor.iteration_end(it);
    donor.release_pages_to_pool();
    assert!(pool.available() > 0, "donor stocked the pool");

    // Every acquire fails: the consumer must fall back to fresh pages and
    // still complete its workload.
    let plan = FaultPlan::builder(9)
        .pool_acquire_failure_ppm(1_000_000)
        .build();
    pool.set_fault_plan(plan.clone());
    let handed_out_before = pool.pages_handed_out();
    let mut consumer = PagedHeap::with_pool(PagedHeapConfig::default(), Arc::clone(&pool));
    let ty = counter_type(&mut consumer);
    let f0 = consumer.field_offset(ty, 0);
    for i in 0..10_000u64 {
        let r = consumer.alloc(ty).expect("fresh-page fallback");
        consumer.set_i64_at(r, f0, i as i64);
    }
    assert_eq!(
        pool.pages_handed_out(),
        handed_out_before,
        "no page left the pool under an always-fail plan"
    );
    assert!(plan.faults_injected() > 0, "acquire attempts were injected");
    assert!(consumer.stats().pages_created > 0, "fallback created pages");
}

#[test]
fn poisoned_recycled_pages_are_rezeroed_before_reuse() {
    let plan = FaultPlan::builder(17).poison_recycled_pages().build();
    let mut heap = PagedHeap::new();
    heap.set_fault_plan(plan.clone());
    let ty = counter_type(&mut heap);
    let (f0, f1) = (heap.field_offset(ty, 0), heap.field_offset(ty, 1));

    // Fill records with non-zero bytes, then reclaim them all.
    let it = heap.iteration_start();
    for _ in 0..5_000 {
        let r = heap.alloc(ty).unwrap();
        heap.set_i64_at(r, f0, -1);
        heap.set_i64_at(r, f1, i64::MIN);
    }
    heap.iteration_end(it);
    assert!(
        plan.pages_poisoned() > 0,
        "reclaim poisoned the stale region"
    );

    // Reuse the recycled (now 0xDB-filled) pages: the bump allocator's
    // lazy re-zeroing must hand out all-zero records regardless.
    let pages_before_reuse = heap.stats().pages_created;
    let it = heap.iteration_start();
    for _ in 0..5_000 {
        let r = heap.alloc(ty).unwrap();
        assert_eq!(
            heap.get_i64_at(r, f0),
            0,
            "field 0 must be zeroed, not 0xDB"
        );
        assert_eq!(
            heap.get_i64_at(r, f1),
            0,
            "field 1 must be zeroed, not 0xDB"
        );
    }
    heap.iteration_end(it);
    // No growth on reuse: the second wave ran entirely on poisoned recycled
    // pages, so the zeros above really came from re-zeroed poison.
    assert_eq!(heap.stats().pages_created, pages_before_reuse);
}

#[test]
fn poisoned_arrays_are_rezeroed_too() {
    let plan = FaultPlan::builder(21).poison_recycled_pages().build();
    let mut heap = PagedHeap::new();
    heap.set_fault_plan(plan.clone());

    let it = heap.iteration_start();
    for _ in 0..200 {
        let a = heap.alloc_array(ElemKind::I32, 500).unwrap();
        for i in 0..500 {
            heap.array_set_i32(a, i, i32::from_le_bytes([0xDB; 4]));
        }
    }
    heap.iteration_end(it);
    assert!(plan.pages_poisoned() > 0);

    let it = heap.iteration_start();
    for _ in 0..200 {
        let a = heap.alloc_array(ElemKind::I32, 500).unwrap();
        for i in 0..500 {
            assert_eq!(heap.array_get_i32(a, i), 0, "array slot {i} not zeroed");
        }
    }
    heap.iteration_end(it);
}

#[test]
fn all_modes_compose_in_one_plan() {
    let plan = FaultPlan::builder(31)
        .fail_nth_allocation(100)
        .pool_acquire_failure_ppm(250_000)
        .poison_recycled_pages()
        .build();
    let pool = Arc::new(PagePool::with_default_config());
    pool.set_fault_plan(plan.clone());
    let mut heap = PagedHeap::with_pool(PagedHeapConfig::default(), Arc::clone(&pool));
    heap.set_fault_plan(plan.clone());
    let ty = counter_type(&mut heap);
    let f0 = heap.field_offset(ty, 0);

    let mut injected = 0u64;
    for round in 0..4 {
        let it = heap.iteration_start();
        for i in 0..2_000u64 {
            match heap.alloc(ty) {
                Ok(r) => heap.set_i64_at(r, f0, (round * 10_000 + i) as i64),
                Err(e) => {
                    assert!(e.is_injected(), "only injected faults at this budget: {e}");
                    injected += 1;
                }
            }
        }
        heap.iteration_end(it);
        heap.release_pages_to_pool();
    }
    assert_eq!(injected, 1, "exactly the N-th allocation failed");
    assert!(plan.faults_injected() >= 1);
    assert!(plan.pages_poisoned() > 0);
}
