//! `StoreBuilder` knobs that no other test drives end to end: an explicit
//! `heap_config`, a private file-backed pool from `pool_backing`, and
//! (under `fault-injection`) a fault plan installed at construction.

use data_store::{Backend, FieldTy, HeapConfig, Store};

#[test]
fn heap_config_overrides_the_budget_on_the_heap_backend() {
    let tight = || Store::builder().backend(Backend::Heap).budget(64 << 10);
    // 4 000 rooted 3-field records outgrow a 64 KiB heap but not an 8 MiB one.
    let survives = |store: &mut Store| {
        let class = store.register_class("Kept", &[FieldTy::I64; 3]);
        (0..4_000).all(|_| store.alloc(class).map(|r| store.add_root(r)).is_ok())
    };
    assert!(
        !survives(&mut tight().build()),
        "the budget alone must bind"
    );
    let mut roomy = tight()
        .heap_config(HeapConfig::with_capacity(8 << 20))
        .build();
    assert!(!roomy.is_facade());
    assert!(survives(&mut roomy), "heap_config replaces the budget");
}

#[cfg(feature = "fault-injection")]
#[test]
fn builder_fault_plan_fires_and_every_failure_is_an_injection() {
    let plan = data_store::FaultPlan::builder(41)
        .fail_nth_allocation(100)
        .build();
    let mut store = Store::builder()
        .budget(16 << 20)
        .fault_plan(plan.clone())
        .build();
    let class = store.register_class("Injected", &[FieldTy::I64]);
    let mut failures = 0u32;
    for _ in 0..300 {
        if store.alloc(class).is_err() {
            failures += 1;
        }
    }
    assert!(failures >= 1, "the plan must fire");
    assert_eq!(
        u64::from(failures),
        plan.faults_injected(),
        "every failure is an injection"
    );
}

#[test]
fn pool_backing_builds_a_file_backed_private_pool() {
    use data_store::PoolBacking;
    use facade_runtime::test_support::TempDir;

    let dir = TempDir::new("store_backing");
    let mut store = Store::builder()
        .budget(16 << 20)
        .pool_backing(PoolBacking::File {
            path: dir.path().join("store.pool"),
            mem_pages: 0,
        })
        .build();
    let class = store.register_class("Spill", &[FieldTy::I64; 8]);
    let it = store.iteration_start();
    for _ in 0..5_000 {
        store.alloc(class).expect("budget is generous");
    }
    store.iteration_end(it);
    let released = store.release_pages();
    assert!(released > 0, "retirement must flush pages to the pool");
    let counters = store.pool_counters().expect("backing implies a pool");
    assert_eq!(
        counters.pages_spilled, counters.pages_returned,
        "mem_pages = 0: every returned page spills to the file"
    );
    drop(store);
    assert!(dir.leaked_pool_files().is_empty(), "pool file cleaned up");
}
