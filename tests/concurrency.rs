//! The paper's Figure 3 structure: each thread owns its page manager tree
//! and facade pools, and threads share only the page pool (§3.6). Monitors
//! on data records run §3.4's lock-ID protocol in the VM, which executes
//! `P'` single-threaded.

use facade_compiler::{DataSpec, PassConfig, compile_text};
use facade_runtime::{
    FacadePools, FieldKind, MAX_LOCK_IDS, PagePool, PagedHeap, PagedHeapConfig, PoolBounds, TypeId,
};
use facade_vm::{DualRunError, VmConfig, VmError, run_dual};
use std::sync::Arc;

#[test]
fn per_thread_heaps_share_only_the_page_pool() {
    const THREADS: usize = 6;
    const ROUNDS: usize = 400;

    let pool = Arc::new(PagePool::with_default_config());
    let bounds = PoolBounds::uniform(5, 2);
    let per_thread: Vec<(u64, usize, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let pool = Arc::clone(&pool);
                let bounds = bounds.clone();
                scope.spawn(move || {
                    // Thread-local: page manager tree + facade pools
                    // (Figure 3's per-thread boxes).
                    let mut heap = PagedHeap::with_pool(PagedHeapConfig::default(), pool);
                    let ty = heap.register_type("T", &[FieldKind::I64, FieldKind::I64]);
                    let (f0, f1) = (heap.layout(ty).offset(0), heap.layout(ty).offset(1));
                    let mut pools = FacadePools::new(&bounds);
                    let mut allocated = 0u64;
                    for round in 0..ROUNDS {
                        let it = heap.iteration_start();
                        // Data-path churn in this thread's own pages.
                        for k in 0..20 {
                            let r = heap.alloc(ty).expect("unbounded");
                            let v = (t * 1000 + round + k) as i64;
                            heap.write_body(r, f0, v.to_le_bytes());
                            assert_eq!(heap.read_body(r, f1), [0; 8], "records start zeroed");
                            // Exercise the bind/release discipline.
                            pools.param(TypeId(4), k % 2).bind(r);
                            let back = pools.param(TypeId(4), k % 2).release();
                            assert_eq!(back, r);
                            allocated += 1;
                        }
                        heap.iteration_end(it);
                        // Hand the recycled page to the other threads.
                        heap.release_pages_to_pool();
                    }
                    (allocated, pools.facade_count(), heap.stats().pages_created)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Per-thread object accounting: facades bounded per thread (the `t*n`
    // term), pages few and shared (the `p` term).
    let mut created = 0;
    for (allocated, facades, pages) in per_thread {
        assert_eq!(allocated, (ROUNDS * 20) as u64);
        assert_eq!(facades, bounds.facades_per_thread());
        created += pages;
    }
    // Every page came home, and the pool's traffic reconciles.
    assert_eq!(pool.available() as u64, created);
    assert_eq!(pool.pages_returned(), pool.pages_handed_out() + created);
}

/// `n` fresh `L` records, each entered twice and exited once, so all `n`
/// stay held; every entry nests inside a re-entry of one outer record,
/// whose field sums `1 + 2 + … + n`.
fn hold_monitors(n: u32) -> Result<Vec<String>, DualRunError> {
    let text = format!(
        "class L {{
  i32 x;
  static i32 hold(i32) {{
   locals: i32, i32, i32, L, i32, L
   bb0:
     v5 = new L
     monitorenter v5
     v1 = 0
     goto bb1
   bb1:
     v2 = v1 Lt v0
     if v2 then bb2 else bb3
   bb2:
     v3 = new L
     monitorenter v5
     monitorenter v3
     monitorenter v3
     v4 = 1
     v1 = v1 Add v4
     v4 = v5.f0
     v4 = v4 Add v1
     v5.f0 = v4
     monitorexit v3
     monitorexit v5
     goto bb1
   bb3:
     monitorexit v5
     v4 = v5.f0
     return v4
  }}
}}
class Main {{
  static void main() {{
   locals: i32, i32
   bb0:
     v0 = {n}
     v1 = static L::hold(v0)
     print v1
     return
  }}
}}
entry Main::main
"
    );
    let compiled = compile_text(&text, &DataSpec::new(["L"]), &PassConfig::all()).unwrap();
    let run = run_dual(
        &compiled.source,
        &compiled.transformed,
        &compiled.meta,
        &VmConfig::default(),
    )?;
    Ok(run.output)
}

#[test]
fn record_monitors_nest_and_lock_ids_stop_at_fifteen_bits() {
    // The outer record takes one lock ID and each held record one more:
    // with every ID in use P' still prints what P prints.
    let n = u32::from(MAX_LOCK_IDS) - 1;
    let sum = u64::from(n) * u64::from(n + 1) / 2;
    assert_eq!(hold_monitors(n).unwrap(), [sum.to_string()]);
    // 2^15 monitors held at once is one too many: a typed error in P'
    // (P has no lock IDs and runs to the end).
    match hold_monitors(n + 1) {
        Err(DualRunError::Transformed(VmError::LockIdsExhausted)) => {}
        other => panic!("expected LockIdsExhausted in P', got {other:?}"),
    }
}
