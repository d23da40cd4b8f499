//! End-to-end resilience: graceful degradation under genuine memory
//! pressure, and survival of every seeded fault-injection mode, on both
//! engines. The key property throughout is the PR 1 invariant carried into
//! the failure paths: a degraded or retried run commits *bit-identical*
//! output, because only interval (GraphChi) / job (Hyracks) boundaries are
//! semantically visible.

use facade::datagen::{Graph, GraphSpec};
use facade::graphchi::{Backend, Engine, EngineConfig, PageRank, RunOutcome};

fn pressure_graph() -> Graph {
    Graph::generate(&GraphSpec::new(3_000, 60_000, 77))
}

fn pagerank(config: EngineConfig) -> RunOutcome {
    Engine::new(&pressure_graph(), config)
        .execute(&PageRank::new(3))
        .expect("run completes (possibly degraded)")
}

/// The issue's acceptance scenario: a PageRank run whose budget is
/// exhausted mid-run must complete via the degradation ladder — fewer
/// threads, then smaller subintervals — with output bit-identical to an
/// unconstrained run, and the report must record the degradation.
#[test]
fn pagerank_degrades_under_pressure_with_bit_identical_output() {
    let reference = pagerank(EngineConfig {
        backend: Backend::Facade,
        budget_bytes: 64 << 20,
        intervals: 4,
        threads: 4,
        ..EngineConfig::default()
    });
    assert!(reference.resilience.is_clean(), "64 MiB is unconstrained");

    // `bytes_per_edge: 4` badly underestimates the real per-edge footprint,
    // so 4 workers' subintervals overcommit the 1 MiB budget and some
    // worker OOMs mid-interval. The ladder must carry the run to
    // completion anyway.
    let squeezed = pagerank(EngineConfig {
        backend: Backend::Facade,
        budget_bytes: 1 << 20,
        intervals: 4,
        threads: 4,
        bytes_per_edge: 4,
        ..EngineConfig::default()
    });
    assert!(
        squeezed.resilience.degradations >= 1,
        "the budget must actually force the ladder: {}",
        squeezed.resilience
    );
    assert_eq!(
        reference.values, squeezed.values,
        "degraded run must be bit-identical to the unconstrained run"
    );
    assert_eq!(reference.passes, squeezed.passes);
    assert_eq!(reference.edges_processed, squeezed.edges_processed);
    assert!(
        !squeezed.resilience.events.is_empty(),
        "events must narrate the recovery"
    );
}

/// Same scenario on the heap backend: the ladder is backend-agnostic.
#[test]
fn heap_backend_degrades_too_and_both_backends_agree() {
    let facade = pagerank(EngineConfig {
        backend: Backend::Facade,
        budget_bytes: 64 << 20,
        intervals: 4,
        threads: 4,
        ..EngineConfig::default()
    });
    let heap = pagerank(EngineConfig {
        backend: Backend::Heap,
        budget_bytes: 1 << 20,
        intervals: 4,
        threads: 4,
        bytes_per_edge: 4,
        ..EngineConfig::default()
    });
    assert!(heap.resilience.degradations >= 1, "{}", heap.resilience);
    assert_eq!(facade.values, heap.values);
}

mod fault_injection {
    use super::*;
    use facade::datagen::{CorpusSpec, corpus};
    use facade::hyracks::{Cluster, ClusterConfig};
    use facade::store::FaultPlan;

    /// Cycles every `FaultPlan` mode through the GraphChi engine: the run
    /// must complete, the output must stay bit-identical to a fault-free
    /// run, and the report must account for the faults. Facade backend —
    /// the fault hooks live in the paged runtime, which is the regime under
    /// test (the heap backend's stores ignore the plan by design).
    #[test]
    fn graphchi_survives_every_fault_mode_bit_identically() {
        let mk = |backend| EngineConfig {
            backend,
            budget_bytes: 16 << 20,
            intervals: 4,
            threads: 4,
            ..EngineConfig::default()
        };
        {
            let backend = Backend::Facade;
            let reference = pagerank(mk(backend));
            let plans: Vec<(&str, FaultPlan)> = vec![
                (
                    "fail-nth",
                    FaultPlan::builder(5).fail_nth_allocation(10_000).build(),
                ),
                (
                    "pool-ppm",
                    FaultPlan::builder(6)
                        .pool_acquire_failure_ppm(200_000)
                        .build(),
                ),
                (
                    "poison",
                    FaultPlan::builder(7).poison_recycled_pages().build(),
                ),
                (
                    "all-modes",
                    FaultPlan::builder(8)
                        .fail_nth_allocation(10_000)
                        .pool_acquire_failure_ppm(200_000)
                        .poison_recycled_pages()
                        .build(),
                ),
            ];
            for (name, plan) in plans {
                let mut config = mk(backend);
                config.env.fault_plan = Some(plan.clone());
                let out = pagerank(config);
                assert_eq!(
                    reference.values, out.values,
                    "{backend:?}/{name}: faults must not perturb the output"
                );
                assert_eq!(
                    out.resilience.faults_injected,
                    plan.faults_injected(),
                    "{backend:?}/{name}: the report must carry the plan's count"
                );
                if name == "fail-nth" || name == "all-modes" {
                    assert!(
                        plan.faults_injected() >= 1,
                        "{backend:?}/{name}: the N-th allocation fault must fire"
                    );
                    assert!(
                        out.resilience.retries >= 1,
                        "{backend:?}/{name}: an injected OOM is retried, not degraded"
                    );
                }
            }
        }
    }

    /// The worker round under fire: at every thread count workers claim
    /// subintervals and each loads, updates and writes back its own, and a
    /// seeded fault plan provokes mid-interval retries on top. The committed
    /// values must still be bit-identical to a fault-free serial run — a
    /// subinterval's window is a pure snapshot, so neither which worker ran
    /// it nor when a retry discarded it can show in the output.
    #[test]
    fn graphchi_thread_sweep_is_bit_identical_under_seeded_faults() {
        let mk = |threads| EngineConfig {
            backend: Backend::Facade,
            budget_bytes: 16 << 20,
            intervals: 4,
            threads,
            ..EngineConfig::default()
        };
        let reference = pagerank(mk(1));
        for threads in [2, 4, 8] {
            let clean = pagerank(mk(threads));
            assert_eq!(
                reference.values, clean.values,
                "run at {threads} threads must match serial"
            );
            let plan = FaultPlan::builder(23)
                .fail_nth_allocation(15_000)
                .pool_acquire_failure_ppm(150_000)
                .build();
            let mut config = mk(threads);
            config.env.fault_plan = Some(plan.clone());
            let faulty = pagerank(config);
            assert_eq!(
                reference.values, faulty.values,
                "faulted run at {threads} threads must match serial"
            );
            assert_eq!(reference.passes, faulty.passes);
            assert!(
                plan.faults_injected() >= 1,
                "the plan must actually fire at {threads} threads"
            );
        }
    }

    /// The same sweep through both Hyracks jobs: WC counts and the ES
    /// checksum must match fault-free runs.
    #[test]
    fn hyracks_jobs_survive_every_fault_mode() {
        let words = corpus(&CorpusSpec::new(60_000, 55));
        let mk = |backend| ClusterConfig {
            workers: 4,
            backend,
            per_worker_budget: 16 << 20,
            frame_bytes: 4 << 10,
            ..ClusterConfig::default()
        };
        {
            let backend = Backend::Facade;
            let wc_ref = Cluster::new(&mk(backend)).word_count(&words).unwrap();
            let es_ref = Cluster::new(&mk(backend)).external_sort(&words).unwrap();
            for seed in [11u64, 12, 13] {
                let plan = FaultPlan::builder(seed)
                    .fail_nth_allocation(20_000)
                    .pool_acquire_failure_ppm(150_000)
                    .poison_recycled_pages()
                    .build();
                let mut config = mk(backend);
                config.env.fault_plan = Some(plan.clone());
                let wc = Cluster::new(&config)
                    .word_count(&words)
                    .expect("WC survives the plan");
                assert_eq!(
                    wc.distinct_words, wc_ref.distinct_words,
                    "{backend:?}/{seed}"
                );
                assert_eq!(wc.total_count, wc_ref.total_count, "{backend:?}/{seed}");
                let es = Cluster::new(&config)
                    .external_sort(&words)
                    .expect("ES survives the plan");
                assert_eq!(es.payload(), es_ref.payload(), "{backend:?}/{seed}");
                assert!(
                    plan.faults_injected() >= 1,
                    "{backend:?}/{seed}: the fail-nth fault must fire across the jobs"
                );
            }
        }
    }
}
