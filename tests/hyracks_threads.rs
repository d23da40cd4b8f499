//! The Hyracks cluster's thread-pool determinism guarantee, end to end:
//! `ClusterConfig::workers` fixes the data decomposition and therefore the
//! output, so any `ClusterConfig::threads` value — and any retry
//! interleaving the fault injector can provoke — must produce bit-identical
//! job results. The ES checksum is order-sensitive, so it catches any
//! reordering of partition payloads, not just lost or duplicated work.

use facade::datagen::{CorpusSpec, corpus};
use facade::hyracks::{Cluster, ClusterConfig};
use facade::metrics::report::Backend;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn config(backend: Backend, threads: usize) -> ClusterConfig {
    ClusterConfig {
        workers: 6,
        threads,
        backend,
        per_worker_budget: 16 << 20,
        frame_bytes: 8 << 10,
        ..ClusterConfig::default()
    }
}

#[test]
fn wordcount_is_bit_identical_across_thread_counts() {
    let words = corpus(&CorpusSpec::new(50_000, 17));
    for backend in [Backend::Heap, Backend::Facade] {
        let reference = Cluster::new(&config(backend, 1))
            .word_count(&words)
            .unwrap();
        for &threads in &THREAD_COUNTS[1..] {
            let out = Cluster::new(&config(backend, threads))
                .word_count(&words)
                .unwrap();
            assert_eq!(
                (reference.distinct_words, reference.total_count),
                (out.distinct_words, out.total_count),
                "{backend:?} at {threads} threads"
            );
            assert_eq!(
                out.stats.per_worker.len(),
                threads.min(6),
                "one report per pool thread actually used"
            );
        }
    }
}

#[test]
fn external_sort_is_bit_identical_across_thread_counts() {
    let words = corpus(&CorpusSpec::new(50_000, 19));
    for backend in [Backend::Heap, Backend::Facade] {
        let reference = Cluster::new(&config(backend, 1))
            .external_sort(&words)
            .unwrap();
        for &threads in &THREAD_COUNTS[1..] {
            let out = Cluster::new(&config(backend, threads))
                .external_sort(&words)
                .unwrap();
            assert_eq!(
                reference.payload(),
                out.payload(),
                "{backend:?} at {threads} threads: the order-sensitive \
                 checksum must not move"
            );
        }
    }
}

/// Runs of each thread count a page bound is checked over.
const BOUND_RUNS: usize = 5;

/// Every page is in one store's slot or in the shared pool, so a store can
/// always take a page another store released: `N` stores at once never
/// need more fresh pages than `N` one-thread runs. Which store claims which
/// partition still varies run to run, so the bound is checked over
/// [`BOUND_RUNS`] runs of each thread count.
fn assert_pages_bounded(job: &str, run: impl Fn(&ClusterConfig) -> u64) {
    let cfg = config(Backend::Facade, 1);
    let one_thread = run(&cfg);
    assert!(one_thread > 0, "{job}: a facade run creates pages");
    for &threads in &THREAD_COUNTS[1..] {
        let cfg = config(Backend::Facade, threads);
        let bound = threads.min(cfg.workers) as u64 * one_thread;
        for attempt in 0..BOUND_RUNS {
            let pages = run(&cfg);
            assert!(
                pages <= bound,
                "{job} at {threads} threads, run {attempt}: {pages} pages created > \
                 {bound} = min({threads}, {}) x {one_thread} at one thread",
                cfg.workers
            );
        }
    }
}

#[test]
fn pages_created_stay_within_threads_times_one_thread() {
    let words = corpus(&CorpusSpec::new(50_000, 17));
    assert_pages_bounded("WC", |cfg| {
        Cluster::new(cfg)
            .word_count(&words)
            .unwrap()
            .stats
            .pages_created
    });
    let words = corpus(&CorpusSpec::new(50_000, 19));
    assert_pages_bounded("ES", |cfg| {
        Cluster::new(cfg)
            .external_sort(&words)
            .unwrap()
            .stats
            .pages_created
    });
}

#[test]
fn per_worker_breakdown_sums_to_job_totals() {
    let words = corpus(&CorpusSpec::new(40_000, 23));
    let out = Cluster::new(&config(Backend::Facade, 4))
        .word_count(&words)
        .unwrap();
    let per_worker_records: u64 = out
        .stats
        .per_worker
        .iter()
        .map(|w| w.stats.records_allocated)
        .sum();
    assert_eq!(per_worker_records, out.stats.records_allocated);
    let per_worker_peak: u64 = out
        .stats
        .per_worker
        .iter()
        .map(|w| w.stats.peak_bytes)
        .sum();
    assert_eq!(per_worker_peak, out.stats.peak_bytes);
    // Every partition executed exactly once per phase (map + reduce);
    // threads claim from one cursor, so one may end a round empty-handed:
    // the guarantee is on the sum, not on each thread.
    let partitions: u64 = out.stats.per_worker.iter().map(|w| w.partitions).sum();
    assert_eq!(partitions, 12, "6 map + 6 reduce partitions, each once");
    // The shared pool's counters made it into the stats (facade run).
    assert!(out.stats.pool.is_some(), "pool counters recorded");
}

mod fault_injection {
    use super::*;
    use facade::store::FaultPlan;

    /// Injected faults trigger mid-round retries — the store-retirement and
    /// rebuild path — on every thread-pool width; the output must not move.
    #[test]
    fn thread_sweep_is_bit_identical_under_seeded_faults() {
        let words = corpus(&CorpusSpec::new(50_000, 29));
        let wc_ref = Cluster::new(&config(Backend::Facade, 1))
            .word_count(&words)
            .unwrap();
        let es_ref = Cluster::new(&config(Backend::Facade, 1))
            .external_sort(&words)
            .unwrap();
        for &threads in &THREAD_COUNTS {
            let plan = FaultPlan::builder(31)
                .fail_nth_allocation(20_000)
                .pool_acquire_failure_ppm(150_000)
                .build();
            let mut cfg = config(Backend::Facade, threads);
            cfg.env.fault_plan = Some(plan.clone());
            let wc = Cluster::new(&cfg)
                .word_count(&words)
                .expect("WC survives the plan");
            let es = Cluster::new(&cfg)
                .external_sort(&words)
                .expect("ES survives the plan");
            assert_eq!(
                (wc_ref.distinct_words, wc_ref.total_count),
                (wc.distinct_words, wc.total_count),
                "WC at {threads} threads under faults"
            );
            assert_eq!(
                es_ref.payload(),
                es.payload(),
                "ES at {threads} threads under faults"
            );
            assert!(
                plan.faults_injected() >= 1,
                "the plan must actually fire at {threads} threads"
            );
        }
    }
}
