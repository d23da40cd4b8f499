//! The one run-environment policy, asserted where it lives: which pool a
//! run draws from, how its worker stores are tagged, who sees the cancel
//! flag, and which pool a fault plan may touch.

use data_store::{Backend, EpochLedger, FieldTy, NO_EPOCH, PagePool, RunEnv, Store};
use std::sync::Arc;
use std::sync::atomic::Ordering;

/// Two iterations of records, each retired to the pool: the first round's
/// pages are created and returned, the second's drawn back out.
fn churn(store: &mut Store) {
    let class = store.register_class("Churn", &[FieldTy::I64; 4]);
    for _ in 0..2 {
        let it = store.iteration_start();
        for _ in 0..20_000 {
            store.alloc(class).expect("budget is generous");
        }
        store.iteration_end(it);
        store.release_pages();
    }
}

fn lent(host: &Arc<PagePool>) -> RunEnv {
    RunEnv {
        pool: Some(Arc::clone(host)),
        ..RunEnv::default()
    }
}

#[test]
fn page_pool_is_private_per_call_unless_the_host_lends_one() {
    let env = RunEnv::default();
    let a = env.page_pool(Backend::Facade).expect("facade runs pool");
    let b = env.page_pool(Backend::Facade).expect("facade runs pool");
    assert!(!Arc::ptr_eq(&a, &b), "a fresh private pool per call");
    assert!(env.page_pool(Backend::Heap).is_none(), "no pages, no pool");

    let host = Arc::new(PagePool::with_default_config());
    let got = lent(&host).page_pool(Backend::Facade).expect("pool");
    assert!(Arc::ptr_eq(&got, &host), "the host's pool comes back as-is");
    assert!(lent(&host).page_pool(Backend::Heap).is_none());
}

#[test]
fn stores_tag_their_traffic_with_the_environment_epoch() {
    let host = Arc::new(PagePool::with_default_config());
    let epoch = host.begin_epoch();
    let tagged = RunEnv {
        epoch,
        ..lent(&host)
    };
    churn(&mut tagged.store(Backend::Facade, 16 << 20, Some(&host)));
    let ledger = host.epoch_ledger(epoch).expect("epoch is live");
    assert!(ledger.pages_in > 0 && ledger.pages_out > 0, "{ledger:?}");

    // The default epoch keeps the same traffic off every ledger.
    let watcher = host.begin_epoch();
    assert_eq!(lent(&host).epoch, NO_EPOCH);
    churn(&mut lent(&host).store(Backend::Facade, 16 << 20, Some(&host)));
    assert_eq!(host.epoch_ledger(epoch), Some(ledger), "nothing new tagged");
    assert_eq!(host.epoch_ledger(watcher), Some(EpochLedger::default()));
}

#[test]
fn canceled_follows_the_flag_across_clones() {
    let env = RunEnv::default();
    let engine_side = env.clone();
    assert!(!env.canceled() && !engine_side.canceled());
    env.cancel.store(true, Ordering::Release);
    assert!(engine_side.canceled(), "clones share one flag");
    assert!(!RunEnv::default().canceled(), "a fresh flag is never set");
}

#[test]
fn a_fault_plan_fires_in_every_store_and_every_failure_is_an_injection() {
    let plan = data_store::FaultPlan::builder(41)
        .fail_nth_allocation(100)
        .build();
    let env = RunEnv {
        fault_plan: Some(plan.clone()),
        ..RunEnv::default()
    };
    let mut store = env.store(Backend::Facade, 16 << 20, None);
    let class = store.register_class("Injected", &[FieldTy::I64]);
    let failures = (0..300).filter(|_| store.alloc(class).is_err()).count() as u64;
    assert!(failures >= 1, "the plan must fire");
    assert_eq!(failures, plan.faults_injected(), "all of them injected");
}

#[test]
fn a_fault_plan_sabotages_a_private_pool_but_never_the_hosts() {
    // A plan under which every pool acquire fails, on a stocked pool:
    // what the run's store then draws shows whether its pool carried it.
    let drawn = |host: Option<&Arc<PagePool>>| {
        let env = RunEnv {
            pool: host.cloned(),
            fault_plan: Some(
                data_store::FaultPlan::builder(3)
                    .pool_acquire_failure_ppm(1_000_000)
                    .build(),
            ),
            ..RunEnv::default()
        };
        let pool = env.page_pool(Backend::Facade).expect("facade runs pool");
        churn(&mut Store::builder().pool(Arc::clone(&pool)).build());
        assert!(pool.available() > 0, "the supply is there");
        let before = pool.counters().pages_handed_out;
        churn(&mut env.store(Backend::Facade, 16 << 20, Some(&pool)));
        pool.counters().pages_handed_out - before
    };
    assert_eq!(drawn(None), 0, "a private pool carries the plan");
    let host = Arc::new(PagePool::with_default_config());
    assert!(drawn(Some(&host)) > 0, "not this run's to sabotage");
}
