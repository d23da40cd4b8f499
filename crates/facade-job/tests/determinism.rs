//! Satellite of the server work: the dispatcher must not let concurrency
//! (or injected faults) leak into job outputs. N parallel clients
//! submitting mixed WC/PR jobs get bit-identical per-job results to the
//! same specs run serially, and an installed plan that injects nothing
//! changes nothing.

use facade_job::{Dataset, Dispatcher, DispatcherConfig, JobSpec, Workload};
use std::sync::Arc;

fn dataset() -> Dataset {
    Dataset::synthetic(250, 1_000, 18_000, 13)
}

/// The mixed workload: 4 PageRank + 4 WordCount submissions.
fn specs() -> Vec<JobSpec> {
    (0..8)
        .map(|i| JobSpec {
            workload: if i % 2 == 0 {
                Workload::PageRank { iterations: 3 }
            } else {
                Workload::WordCount
            },
            budget_bytes: 4 << 20,
            threads: 2,
            workers: 3,
            ..JobSpec::default()
        })
        .collect()
}

/// Runs every spec one at a time on a single executor; returns the
/// per-spec fingerprints — the ground truth.
fn serial_fingerprints(specs: &[JobSpec]) -> Vec<u64> {
    let mut config = DispatcherConfig::new(1, dataset());
    config.queue_depth = specs.len();
    let dispatcher = Dispatcher::new(config);
    let prints = specs
        .iter()
        .map(|spec| {
            dispatcher
                .submit(spec.clone())
                .expect("serial submission")
                .wait()
                .expect("serial job completes")
                .output
                .fingerprint()
        })
        .collect();
    dispatcher.shutdown();
    prints
}

fn parallel_fingerprints(specs: &[JobSpec], executors: usize) -> Vec<u64> {
    let mut config = DispatcherConfig::new(executors, dataset());
    config.queue_depth = specs.len();
    config.pool = Some(Arc::new(data_store::PagePool::with_default_config()));
    let dispatcher = Arc::new(Dispatcher::new(config));
    // One client thread per spec, all submitting at once.
    let handles: Vec<_> = std::thread::scope(|scope| {
        let tasks: Vec<_> = specs
            .iter()
            .map(|spec| {
                let dispatcher = Arc::clone(&dispatcher);
                let spec = spec.clone();
                scope.spawn(move || dispatcher.submit(spec).expect("parallel submission"))
            })
            .collect();
        tasks.into_iter().map(|t| t.join().unwrap()).collect()
    });
    let prints = handles
        .iter()
        .map(|h| {
            h.wait()
                .expect("parallel job completes")
                .output
                .fingerprint()
        })
        .collect();
    Arc::try_unwrap(dispatcher)
        .unwrap_or_else(|_| panic!("all handles joined"))
        .shutdown();
    prints
}

#[test]
fn parallel_mixed_jobs_match_serial_bit_for_bit() {
    let specs = specs();
    let truth = serial_fingerprints(&specs);
    for executors in [2, 4] {
        let parallel = parallel_fingerprints(&specs, executors);
        assert_eq!(
            parallel, truth,
            "{executors}-way concurrent execution changed some job's output bits"
        );
    }
}

/// The fault leg: the same mixed workload with a seeded fault plan on
/// every job. The engines absorb the faults (retries, degradation); the
/// outputs must still match the clean serial run bit for bit.
#[test]
fn faulted_parallel_jobs_still_match_the_clean_serial_run() {
    use data_store::FaultPlan;

    let clean_specs = specs();
    let truth = serial_fingerprints(&clean_specs);

    let faulted: Vec<JobSpec> = clean_specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let mut spec = spec.clone();
            spec.fault_plan = Some(
                FaultPlan::builder(100 + i as u64)
                    .pool_acquire_failure_ppm(40_000)
                    .poison_recycled_pages()
                    .build(),
            );
            spec
        })
        .collect();
    let survived = parallel_fingerprints(&faulted, 4);
    assert_eq!(
        survived, truth,
        "surviving injected faults must not change output bits"
    );
}

/// The fault hooks are always compiled in, so an installed plan with every
/// mode off must be indistinguishable from no plan: same output bits, same
/// page traffic, nothing for the resilience report to record.
#[test]
fn an_inert_fault_plan_changes_nothing() {
    use data_store::{Backend, FaultPlan};
    use facade_job::{ExecContext, default_runners};

    let data = dataset();
    let runners = default_runners();
    let workloads = [
        Workload::PageRank { iterations: 3 },
        Workload::ConnectedComponents { max_iterations: 5 },
        Workload::WordCount,
        Workload::ExternalSort,
    ];
    for workload in workloads {
        for backend in [Backend::Heap, Backend::Facade] {
            let run = |fault_plan| {
                // One thread: with more, which worker adopts a pooled page
                // is a race, so page counts vary even without a plan.
                let spec = JobSpec {
                    workload: workload.clone(),
                    backend,
                    threads: 1,
                    fault_plan,
                    ..JobSpec::default()
                };
                let runner = runners
                    .iter()
                    .find(|r| r.supports(&spec.workload))
                    .expect("every workload has a runner");
                runner
                    .execute(&spec, &data, &ExecContext::default())
                    .unwrap_or_else(|e| panic!("{workload} on {backend}: {e}"))
            };
            let clean = run(None);
            let inert = run(Some(FaultPlan::builder(7).build()));
            assert_eq!(
                inert.output.fingerprint(),
                clean.output.fingerprint(),
                "{workload} on {backend}: output bits moved"
            );
            assert_eq!(
                inert.pages_created, clean.pages_created,
                "{workload} on {backend}: page traffic moved"
            );
            assert!(
                inert.resilience.is_clean(),
                "{workload} on {backend}: {}",
                inert.resilience
            );
        }
    }
}
