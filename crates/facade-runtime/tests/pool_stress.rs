//! Multi-thread stress over the shared page pool: however acquires and
//! releases interleave, a page must never be held by two live owners.

use facade_runtime::{
    FieldKind, NO_EPOCH, NativeStats, PagePool, PagedHeap, PagedHeapConfig, PooledPage,
};
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

#[test]
fn concurrent_acquire_release_never_double_hands_a_page() {
    const SEED_PAGES: usize = 16;
    let pool = Arc::new(PagePool::with_default_config());
    // Seed with a small set so the threads genuinely contend for the same
    // buffers rather than each settling on a private supply.
    pool.release_batch(
        (0..SEED_PAGES).map(|_| PooledPage::new()).collect(),
        NO_EPOCH,
    );

    // Every page an *live* owner holds, by buffer address. Insert must
    // never collide; remove must always find its entry.
    let live: Arc<Mutex<HashSet<usize>>> = Arc::new(Mutex::new(HashSet::new()));
    // Sixteen threads on the pool's one lock, so the lock is contended as
    // well as the page supply.
    let workers: Vec<_> = (0..16)
        .map(|t| {
            let pool = Arc::clone(&pool);
            let live = Arc::clone(&live);
            std::thread::spawn(move || {
                for round in 0..200 {
                    let batch: Vec<PooledPage> = (0..1 + (t + round) % 4)
                        .filter_map(|_| pool.acquire(NO_EPOCH))
                        .collect();
                    {
                        let mut live = live.lock().unwrap();
                        for p in &batch {
                            assert!(live.insert(p.addr()), "page handed to two live owners");
                        }
                    }
                    {
                        let mut live = live.lock().unwrap();
                        for p in &batch {
                            assert!(live.remove(&p.addr()), "released a page never acquired");
                        }
                    }
                    pool.release_batch(batch, NO_EPOCH);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }

    assert!(live.lock().unwrap().is_empty());
    assert_eq!(pool.available(), SEED_PAGES, "every page came home");
    assert_eq!(
        pool.pages_returned(),
        pool.pages_handed_out() + SEED_PAGES as u64
    );
}

#[test]
fn shared_heaps_stress_the_pool_concurrently() {
    const THREADS: u64 = 4;
    const ROUNDS: u64 = 50;
    const RECORDS: u64 = 2_000;
    let pool = Arc::new(PagePool::with_default_config());
    let workers: Vec<_> = (0..THREADS)
        .map(|_| {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                let mut heap = PagedHeap::with_pool(
                    PagedHeapConfig {
                        budget_bytes: Some(8 << 20),
                        ..PagedHeapConfig::default()
                    },
                    pool,
                );
                let ty = heap.register_type("T", &[FieldKind::I64, FieldKind::I64]);
                let (f0, f1) = (heap.layout(ty).offset(0), heap.layout(ty).offset(1));
                for _ in 0..ROUNDS {
                    let it = heap.iteration_start();
                    for _ in 0..RECORDS {
                        let r = heap.alloc(ty).unwrap();
                        heap.write_body(r, f0, 42i64.to_le_bytes());
                        assert_eq!(heap.read_body(r, f1), [0; 8], "records start zeroed");
                    }
                    heap.iteration_end(it);
                    heap.release_pages_to_pool();
                }
                heap.stats().clone()
            })
        })
        .collect();

    let mut total = NativeStats::default();
    for w in workers {
        total.merge(&w.join().unwrap());
    }
    assert_eq!(total.records_allocated, THREADS * ROUNDS * RECORDS);
    assert!(total.pages_to_pool > 0, "heaps surrender pages");
    assert!(total.pages_from_pool > 0, "heaps adopt each other's pages");
    assert_eq!(pool.pages_handed_out(), total.pages_from_pool);
    assert_eq!(pool.pages_returned(), total.pages_to_pool);
}
