//! The simulated shared-nothing cluster.
//!
//! Data decomposition and execution parallelism are separate knobs:
//! [`ClusterConfig::workers`] fixes how the input is partitioned (and so
//! the job's output, bit for bit), while [`ClusterConfig::threads`] sizes
//! the pool of OS threads a phase runs those partitions on. Each pool
//! thread owns one long-lived [`Store`] built by [`RunEnv::store`] — on the
//! facade backend all of them draw pages from the job's one [`PagePool`]
//! ([`RunEnv::page_pool`]: the host's, else a private one, so the reduce
//! phase reuses the map phase's pages) — and claims partitions from the
//! shared cursor of a [`recovery::round`](data_store::recovery::round), the
//! same worker round the GraphChi engine runs its subintervals on. Results
//! land in slots indexed by partition id, so any `threads` value (and any
//! retry interleaving) reassembles the same output.

use data_store::RecoveryError;
use data_store::checkpoint::Checkpointer;
use data_store::recovery::{Ladder, round};
use data_store::{FaultPlan, PagePool, PauseRecord, PoolCounters, RunEnv, Store, StoreStats};
use metrics::report::Backend;
use metrics::{DegradationAction, JobFailure, OutOfMemory, ResilienceReport};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use metrics::FailureCause;

/// Degradation rungs of a job phase: each halves the phase's working
/// granularity (frame bytes for WC, run length for ES) for the retried
/// partitions. A constant because no caller ever chose another cap: six
/// rungs is 64× finer than configured, and a partition that still does not
/// fit there is out of memory for a reason shrinking does not address.
pub(crate) const MAX_DEGRADE_LEVELS: u32 = 6;

/// Cluster and per-node sizing.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of workers (the paper runs 80 across 10 nodes; scale down).
    /// This is the *data* decomposition: it fixes the partitioning and
    /// therefore the job's output, independent of [`threads`](Self::threads).
    pub workers: usize,
    /// OS threads executing partitions concurrently. Each thread holds one
    /// store for the whole scheduling round and claims partitions one at a
    /// time; `1` serializes the job on a single store. Output is
    /// bit-identical for every value. Defaults to the machine's available
    /// parallelism.
    pub threads: usize,
    /// Storage backend for every worker's data path.
    pub backend: Backend,
    /// Per-worker memory budget in bytes (a Hyracks node's `-Xmx`; under
    /// the facade backend the same budget bounds native pages, §4.2's
    /// fair-comparison rule).
    pub per_worker_budget: usize,
    /// Frame granularity in input bytes; each frame is one sub-iteration.
    pub frame_bytes: usize,
    /// What the host lends the job: page pool and epoch, cancellation flag,
    /// checkpoint directory, fault plan. The job polls
    /// [`RunEnv::canceled`] whenever a pool thread is about to claim a
    /// partition and between phases, stopping with
    /// [`FailureCause::Canceled`]; with [`RunEnv::checkpoint_dir`] set it
    /// commits its expensive first phase's output (WC map output, ES sorted
    /// partitions) there and removes it on completion, and a job that
    /// finds a verified checkpoint of itself (same job, partitioning and
    /// corpus) skips the committed phase — the output is bit-identical to
    /// an uninterrupted run either way.
    pub env: RunEnv,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            workers: 8,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            backend: Backend::Heap,
            per_worker_budget: 16 << 20,
            frame_bytes: 32 << 10,
            env: RunEnv::default(),
        }
    }
}

impl ClusterConfig {
    /// The checkpoint file the named job (`"wc"`, `"es"`) reads and writes,
    /// or `None` when durability is not configured.
    pub fn checkpoint_path(&self, job: &str) -> Option<PathBuf> {
        let dir = self.env.checkpoint_dir.as_ref()?;
        Some(dir.join(checkpoint_file(job)))
    }
}

fn checkpoint_file(job: &str) -> String {
    format!("{job}.fckp")
}

/// The checkpoint policy of the named job over `corpus`, when durability is
/// configured. The fingerprint binds a checkpoint to the job shape that
/// produced it: the job name, the data decomposition (`workers`, which
/// fixes partition contents), and the corpus itself. It deliberately
/// excludes `threads`, budgets, and frame sizes — output is bit-identical
/// across those, so a resumed job may finish under a different execution
/// configuration.
pub(crate) fn job_checkpointer(
    config: &ClusterConfig,
    job: &str,
    corpus: &[String],
) -> Option<Checkpointer> {
    config.env.checkpointer(&checkpoint_file(job), || {
        crate::checkpoint::job_fingerprint(job, config.workers, corpus)
    })
}

/// The simulated cluster as a resident object: configure once, submit jobs.
///
/// This is the one entry point to both jobs; the job API (the `facade-job`
/// runners) and the serving daemon build on it. The struct holds only
/// configuration — worker stores live for one job phase — so one `Cluster`
/// can execute any number of jobs, and a host lending its
/// [`RunEnv::pool`] to several clusters multiplexes them over one page
/// economy.
#[derive(Debug, Clone)]
pub struct Cluster {
    config: ClusterConfig,
}

impl Cluster {
    /// A cluster with the given sizing.
    pub fn new(config: &ClusterConfig) -> Cluster {
        let mut config = config.clone();
        // Partitioning, shuffle and checkpoint sections all divide by the
        // worker count: a cluster of none runs as a cluster of one.
        config.workers = config.workers.max(1);
        Cluster { config }
    }

    /// The configuration every submitted job runs under.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Runs the word-count job over `corpus`: map phase (tokenize + local
    /// aggregation), hash shuffle, reduce phase — exact counts on both
    /// backends.
    ///
    /// # Errors
    ///
    /// [`JobFailure`] when a worker failure survives the retry ladder.
    pub fn word_count(&self, corpus: &[String]) -> Result<crate::WcOutput, JobFailure> {
        crate::wordcount::wordcount_job(corpus, &self.config)
    }

    /// Runs the external-sort job over `corpus`: per-partition run sort,
    /// k-way merge, order-sensitive checksum.
    ///
    /// # Errors
    ///
    /// [`JobFailure`] when a worker failure survives the retry ladder.
    pub fn external_sort(&self, corpus: &[String]) -> Result<crate::EsOutput, JobFailure> {
        crate::extsort::external_sort_job(corpus, &self.config)
    }
}

/// One pool thread's share of a job: how many partitions it executed and
/// the costs of the stores it held, merged across phases and retry rounds.
///
/// The per-worker breakdown behind the cluster-level sums in [`JobStats`]:
/// it shows whether work (and memory) spread evenly over the thread pool or
/// one store carried the job.
#[derive(Debug, Clone, Default)]
pub struct WorkerReport {
    /// Pool-thread index (`0..threads`), stable across rounds and phases.
    pub worker: usize,
    /// Partition executions this thread performed (retries count again).
    pub partitions: u64,
    /// Summed costs of every store this thread retired.
    pub stats: StoreStats,
    /// GC pauses this thread's heap-backed stores served.
    pub pauses: Vec<PauseRecord>,
}

/// Aggregate statistics over all workers of a completed job.
#[derive(Debug, Clone, Default)]
pub struct JobStats {
    /// Wall-clock job time.
    pub elapsed: Duration,
    /// Summed GC time across workers (`GT`).
    pub gc_time: Duration,
    /// Summed GC count.
    pub gc_count: u64,
    /// Summed records allocated.
    pub records_allocated: u64,
    /// Summed peak memory across workers (cluster peak, Figure 4(b)/(c)).
    pub peak_bytes: u64,
    /// Summed pages created (facade runs).
    pub pages_created: u64,
    /// Failure-handling record: retries, degradations, and injected faults
    /// the job survived.
    pub resilience: ResilienceReport,
    /// Per-pool-thread breakdown of the sums above (store costs, GC
    /// pauses), indexed by thread and merged across phases and rounds.
    pub per_worker: Vec<WorkerReport>,
    /// End-of-job counters of the shared page pool (facade runs; `None` on
    /// the heap backend, which has no pool).
    pub pool: Option<PoolCounters>,
}

impl JobStats {
    pub(crate) fn absorb(&mut self, s: &StoreStats) {
        self.gc_time += s.gc_time;
        self.gc_count += s.gc_count;
        self.records_allocated += s.records_allocated;
        self.peak_bytes += s.peak_bytes;
        self.pages_created += s.pages_created;
    }

    /// Folds one round's per-thread accumulation into the stable
    /// [`WorkerReport`] for that thread index.
    fn fold_worker(&mut self, report: WorkerReport) {
        while self.per_worker.len() <= report.worker {
            let worker = self.per_worker.len();
            self.per_worker.push(WorkerReport {
                worker,
                ..WorkerReport::default()
            });
        }
        let slot = &mut self.per_worker[report.worker];
        slot.partitions += report.partitions;
        slot.stats.merge(&report.stats);
        slot.pauses.extend(report.pauses);
    }
}

/// Splits `items` round-robin into `n` partitions (the paper partitions the
/// dataset "among the slaves in a round-robin manner"). A partition borrows
/// its items: splitting allocates one vector per partition, never one per
/// item.
pub(crate) fn round_robin<T>(items: &[T], n: usize) -> Vec<Vec<&T>> {
    let mut parts: Vec<Vec<&T>> = (0..n)
        .map(|_| Vec::with_capacity(items.len() / n + 1))
        .collect();
    for (i, item) in items.iter().enumerate() {
        parts[i % n].push(item);
    }
    parts
}

/// Folds a finished (or poisoned) store into a thread's accumulation. Only
/// healthy stores release pages here (a failed store may hold open
/// iterations), but dropping an unhealthy store is still leak-free: the
/// paged heap's drop salvages its recycled pages back to the pool.
fn retire_store(store: &mut Store, healthy: bool, acc: &mut WorkerReport) {
    if healthy {
        store.release_pages();
    }
    acc.stats.merge(&store.stats());
    acc.pauses.extend(store.pause_records());
}

/// Runs one phase: every partition through `worker`, one
/// [`recovery::round`](data_store::recovery::round) per scheduling round,
/// its `config.threads` pool threads claiming partitions from one cursor.
/// Each thread builds one store (schema installed once by `init`) and keeps
/// it across the partitions it claims; a failing partition retires that
/// thread's store and the thread continues on a fresh one, so siblings are
/// never poisoned. The worker borrows its partition, so a retry re-reads
/// the phase's input rather than a copy of it.
/// The closure's last argument is the degrade level — 0 on the first
/// attempt, incremented each time the phase steps down the ladder; workers
/// shrink their working granularity by `2^level` (frame bytes for WC, run
/// length for ES), which is output-neutral for both jobs.
///
/// Only the *failed* partitions are retried: completed partitions'
/// payloads are kept (real cluster schedulers reschedule the failed task,
/// not the job). Payloads come back in partition order regardless of
/// thread count or retries, so order-sensitive consumers (the ES checksum)
/// see deterministic output at every `threads` value.
///
/// # Errors
///
/// If a worker failure survives the transient retries and every degrade
/// rung, the phase fails with [`JobFailure`]; a partition claimed after the
/// host's cancel flag rose ends it with [`FailureCause::Canceled`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_phase<I, S, R, N, F>(
    config: &ClusterConfig,
    phase: &'static str,
    started: Instant,
    partitions: Vec<I>,
    stats: &mut JobStats,
    pool: Option<&Arc<PagePool>>,
    init: N,
    worker: F,
) -> Result<Vec<R>, JobFailure>
where
    I: Sync,
    S: Send,
    R: Send,
    N: Fn(&mut Store) -> S + Sync,
    F: Fn(usize, &mut Store, &S, &I, u32) -> Result<R, OutOfMemory> + Sync,
{
    let mut ladder = Ladder::default();
    let mut level = 0u32;
    let mut slots: Vec<Option<R>> = partitions.iter().map(|_| None).collect();
    let mut pending: Vec<usize> = (0..partitions.len()).collect();
    let fresh_store = || {
        let mut store = config
            .env
            .store(config.backend, config.per_worker_budget, pool);
        let schema = init(&mut store);
        (store, schema)
    };

    while !pending.is_empty() {
        let nthreads = config.threads.max(1).min(pending.len());
        // One span per scheduling round: the first covers every partition,
        // retry rounds cover only the failed ones (visible as shorter spans
        // with a smaller `partitions` arg and a higher `level`).
        let span = facade_trace::span!(
            "job_phase",
            name = phase,
            partitions = pending.len(),
            threads = nthreads,
            level = level,
        );
        // The round's units are positions into `pending`; results key by
        // partition id, so who claimed what never shows in the output.
        let outcome = round(0..nthreads, pending.len(), |w, claims| {
            let mut acc = WorkerReport {
                worker: w,
                ..WorkerReport::default()
            };
            let (mut store, mut schema) = fresh_store();
            loop {
                // A canceled job runs nothing further: this thread's next
                // claim is answered `Canceled` — which is what makes the
                // round say so — and it claims no more. A partition already
                // running finishes and its store retires normally.
                let canceled = config.env.canceled();
                let ran = claims.run_next(|pos| {
                    if canceled {
                        return Err(FailureCause::Canceled);
                    }
                    let id = pending[pos];
                    let _span = facade_trace::span!(
                        "partition_run",
                        phase = phase,
                        partition = id,
                        worker = w,
                    );
                    acc.partitions += 1;
                    Ok(worker(id, &mut store, &schema, &partitions[id], level)?)
                });
                match ran {
                    None => break,
                    Some(true) => {}
                    Some(false) if canceled => break,
                    Some(false) => {
                        // Retire the possibly-poisoned store and give the
                        // thread's remaining claims a fresh one: one
                        // failure never poisons siblings.
                        retire_store(&mut store, false, &mut acc);
                        (store, schema) = fresh_store();
                    }
                }
            }
            // Any failure already swapped in a fresh store, so the one
            // retired here is always healthy.
            retire_store(&mut store, true, &mut acc);
            acc
        });
        drop(span);

        for report in outcome.workers {
            stats.absorb(&report.stats);
            stats.fold_worker(report);
        }
        for (pos, payload) in outcome.payloads.into_iter().enumerate() {
            slots[pending[pos]] = payload;
        }
        let failed = outcome.failure.map(|f| (pending[f.unit], f.cause));
        pending.retain(|id| slots[*id].is_none());
        let Some((id, cause)) = failed else {
            continue;
        };
        ladder
            .respond(
                &format!("{phase} partition {id}"),
                cause,
                &mut stats.resilience,
                || {
                    (level < MAX_DEGRADE_LEVELS).then(|| {
                        level += 1;
                        DegradationAction::ShrinkBudget { shrink: level }
                    })
                },
            )
            .map_err(|cause| JobFailure {
                after: started.elapsed(),
                cause,
            })?;
    }

    Ok(slots
        .into_iter()
        .map(|s| s.expect("loop exits only when no partition is pending"))
        .collect())
}

/// How one partition's payload goes into a checkpoint section and back.
type SectionCodec<P> = (fn(&P) -> Vec<u8>, fn(&[u8]) -> Result<P, RecoveryError>);

/// A job's durable first phase, shared by both jobs. A verified checkpoint's
/// `{section}{i}` payloads replace the phase entirely — the decode is
/// lossless and in partition order, so nothing downstream can tell them
/// from the live phase's output; otherwise `run` executes the phase, its
/// output is committed the moment it completes, and the `crash_in_phase(0)`
/// fault fires. Either way the host's cancel flag is polled once more before
/// the job moves on to what follows.
pub(crate) fn first_phase<P>(
    config: &ClusterConfig,
    checkpointer: Option<&Checkpointer>,
    stats: &mut JobStats,
    started: Instant,
    (phase, section): (&str, &str),
    (encode, decode): SectionCodec<P>,
    run: impl FnOnce(&mut JobStats) -> Result<Vec<P>, JobFailure>,
) -> Result<Vec<P>, JobFailure> {
    let name = |i: usize| format!("{section}{i}");
    let resumed = checkpointer.and_then(|c| {
        c.restore(&mut stats.resilience, |m| {
            (0..config.workers)
                .map(|i| decode(m.require(&name(i))?))
                .collect()
        })
    });
    let out = match resumed {
        Some(parts) => parts,
        None => {
            let out = run(stats)?;
            if let Some(c) = checkpointer {
                let sections = out.iter().enumerate().map(|(i, r)| (name(i), encode(r)));
                c.commit([1, 0], sections.collect(), &mut stats.resilience);
            }
            crate::checkpoint::maybe_crash(config, 0, phase, started)?;
            out
        }
    };
    if config.env.canceled() {
        return Err(JobFailure {
            after: started.elapsed(),
            cause: FailureCause::Canceled,
        });
    }
    Ok(out)
}

/// End-of-job accounting, shared by both jobs: wall time; the shared
/// pool's counters into [`JobStats::pool`] (a host that serves `/metrics`
/// publishes gauges from its own pool handle; the engine publishes
/// nothing); the now-obsolete checkpoint retired; and the fault plan's
/// injection count (0 without a plan).
pub(crate) fn finish_job(
    config: &ClusterConfig,
    stats: &mut JobStats,
    started: Instant,
    pool: Option<&Arc<PagePool>>,
    checkpointer: Option<&Checkpointer>,
) {
    stats.elapsed = started.elapsed();
    if let Some(pool) = pool {
        stats.pool = Some(pool.counters());
    }
    if let Some(c) = checkpointer {
        c.finish();
    }
    stats.resilience.faults_injected = config
        .env
        .fault_plan
        .as_ref()
        .map_or(0, FaultPlan::faults_injected);
}

#[cfg(test)]
mod tests {
    use super::*;
    use data_store::FieldTy;
    use std::sync::atomic::Ordering;

    #[test]
    fn round_robin_balances() {
        let items: Vec<i32> = (0..10).collect();
        let parts = round_robin(&items, 3);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0], [&0, &3, &6, &9]);
        assert_eq!(parts[1], [&1, &4, &7]);
        assert_eq!(parts[2], [&2, &5, &8]);
    }

    #[test]
    fn a_cluster_of_no_workers_runs_as_a_cluster_of_one() {
        let corpus: Vec<String> = ["b", "a", "a", "c", "a"].map(String::from).to_vec();
        let sized = |workers| {
            Cluster::new(&ClusterConfig {
                workers,
                ..ClusterConfig::default()
            })
        };
        let (none, one) = (sized(0), sized(1));
        let wc = none.word_count(&corpus).expect("no division by zero");
        assert_eq!(wc.counts, one.word_count(&corpus).unwrap().counts);
        assert_eq!(wc.total_count, 5);
        let es = none.external_sort(&corpus).expect("no division by zero");
        assert_eq!(es.checksum, one.external_sort(&corpus).unwrap().checksum);
    }

    #[test]
    fn run_phase_aggregates_results_and_stats() {
        let config = ClusterConfig {
            workers: 4,
            ..ClusterConfig::default()
        };
        let mut stats = JobStats::default();
        let items: Vec<i32> = (0..100).collect();
        let parts = round_robin(&items, 4);
        let out = run_phase(
            &config,
            "test",
            Instant::now(),
            parts,
            &mut stats,
            None,
            |store| store.register_class("T", &[FieldTy::I64]),
            |_, store, c, xs, _| {
                for _ in xs {
                    store.alloc(*c)?;
                }
                Ok(xs.len())
            },
        )
        .unwrap();
        assert_eq!(out.iter().sum::<usize>(), 100);
        assert_eq!(stats.records_allocated, 100);
        // The per-thread breakdown carries the same totals.
        let spread: u64 = stats.per_worker.iter().map(|w| w.partitions).sum();
        assert_eq!(spread, 4, "each partition executed once");
        let per_worker_records: u64 = stats
            .per_worker
            .iter()
            .map(|w| w.stats.records_allocated)
            .sum();
        assert_eq!(per_worker_records, 100);
    }

    #[test]
    fn run_phase_reports_worker_oom_as_failure() {
        let config = ClusterConfig {
            workers: 2,
            per_worker_budget: 64 << 10,
            ..ClusterConfig::default()
        };
        let mut stats = JobStats::default();
        let items: Vec<i32> = (0..2).collect();
        let parts = round_robin(&items, 2);
        let result: Result<Vec<()>, _> = run_phase(
            &config,
            "test",
            Instant::now(),
            parts,
            &mut stats,
            None,
            |store| store.register_class("T", &[FieldTy::I64; 8]),
            |_, store, c, _, _| loop {
                let r = store.alloc(*c)?;
                store.add_root(r);
            },
        );
        let failure = result.unwrap_err();
        assert!(failure.to_string().starts_with("OME("), "{failure}");
        // Deterministic OOM: the phase walked every degrade rung first.
        assert_eq!(stats.resilience.degradations, u64::from(MAX_DEGRADE_LEVELS));
    }

    #[test]
    fn run_phase_retries_only_failed_partitions_and_degrades() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let config = ClusterConfig {
            workers: 3,
            ..ClusterConfig::default()
        };
        let mut stats = JobStats::default();
        let items: Vec<i32> = (0..9).collect();
        let parts = round_robin(&items, 3);
        let attempts = AtomicU32::new(0);
        // Partition 1 needs the phase degraded twice before it succeeds.
        let out = run_phase(
            &config,
            "test",
            Instant::now(),
            parts,
            &mut stats,
            None,
            |_| (),
            |id, _store, _, xs, level| {
                attempts.fetch_add(1, Ordering::SeqCst);
                if id == 1 && level < 2 {
                    return Err(OutOfMemory::new(2, 1));
                }
                Ok((id, xs.len(), level))
            },
        )
        .unwrap();
        assert_eq!(out.len(), 3);
        // Survivors keep their first-attempt payloads, in partition order.
        assert_eq!(out[0], (0, 3, 0));
        assert_eq!(out[1], (1, 3, 2));
        assert_eq!(out[2], (2, 3, 0));
        assert_eq!(stats.resilience.degradations, 2);
        // 3 first-round workers + 2 solo retries of partition 1.
        assert_eq!(attempts.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn failing_partition_does_not_poison_thread_siblings() {
        use std::sync::atomic::{AtomicU32, Ordering};
        // One pool thread runs all 4 partitions on one store; partition 1
        // fails once. Siblings 0, 2, 3 must keep their first-attempt
        // results, and partition 1 must succeed on the retry round.
        let config = ClusterConfig {
            workers: 4,
            threads: 1,
            ..ClusterConfig::default()
        };
        let mut stats = JobStats::default();
        let items: Vec<i32> = (0..8).collect();
        let parts = round_robin(&items, 4);
        let attempts = AtomicU32::new(0);
        let out = run_phase(
            &config,
            "test",
            Instant::now(),
            parts,
            &mut stats,
            None,
            |store| store.register_class("T", &[FieldTy::I64]),
            |id, store, c, xs, level| {
                attempts.fetch_add(1, Ordering::SeqCst);
                store.alloc(*c)?;
                if id == 1 && level == 0 {
                    return Err(OutOfMemory::new(2, 1));
                }
                Ok((id, xs.len()))
            },
        )
        .unwrap();
        assert_eq!(out, vec![(0, 2), (1, 2), (2, 2), (3, 2)]);
        // 4 first-round executions + 1 retry of partition 1.
        assert_eq!(attempts.load(Ordering::SeqCst), 5);
        assert_eq!(stats.resilience.degradations, 1);
        assert_eq!(stats.per_worker.len(), 1, "single pool thread");
    }

    #[test]
    fn run_phase_catches_worker_panics() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let config = ClusterConfig {
            workers: 2,
            ..ClusterConfig::default()
        };
        let mut stats = JobStats::default();
        let items: Vec<i32> = (0..4).collect();
        let parts = round_robin(&items, 2);
        let armed = AtomicBool::new(true);
        let out = run_phase(
            &config,
            "test",
            Instant::now(),
            parts,
            &mut stats,
            None,
            |_| (),
            |_, _store, _, xs: &Vec<&i32>, _| {
                if armed.swap(false, Ordering::SeqCst) {
                    panic!("injected worker panic");
                }
                Ok(xs.len())
            },
        )
        .unwrap();
        assert_eq!(out.iter().sum::<usize>(), 4);
        assert!(stats.resilience.retries >= 1, "panic recorded as retry");
    }

    #[test]
    fn store_retirement_mid_round_leaks_no_pages() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let config = ClusterConfig {
            workers: 8,
            threads: 2,
            backend: Backend::Facade,
            ..ClusterConfig::default()
        };
        let pool = config
            .env
            .page_pool(config.backend)
            .expect("facade jobs share a pool");
        let mut stats = JobStats::default();
        let items: Vec<i32> = (0..64).collect();
        let parts = round_robin(&items, 8);
        let armed = AtomicBool::new(true);
        let out = run_phase(
            &config,
            "test",
            Instant::now(),
            parts,
            &mut stats,
            Some(&pool),
            |store| store.register_class("T", &[FieldTy::I64]),
            |id, store, c, xs: &Vec<&i32>, _| {
                if id == 1 && armed.swap(false, Ordering::SeqCst) {
                    // Whichever thread claims partition 1 panics
                    // mid-round; its store — possibly laden with pages
                    // from earlier claims — is retired unhealthy and
                    // dropped while the sibling keeps claiming. The drop
                    // must salvage every recycled page, or the
                    // reconciliation below fails.
                    panic!("injected mid-round failure");
                }
                let it = store.iteration_start();
                for _ in xs {
                    store.alloc(*c)?;
                }
                store.iteration_end(it);
                Ok(xs.len())
            },
        )
        .unwrap();
        assert_eq!(out.iter().sum::<usize>(), 64);
        assert!(stats.resilience.retries >= 1, "panic recorded as retry");
        // Reconciliation: every page ever handed out came back, and the
        // pool now holds exactly the fresh pages the worker heaps donated
        // at retirement — nothing leaked across the retirement.
        let c = pool.counters();
        assert_eq!(c.pages_returned, c.pages_handed_out + stats.pages_created);
        assert_eq!(pool.available() as u64, stats.pages_created);
    }

    #[test]
    fn cancel_mid_phase_stops_claiming_and_the_epoch_reconciles() {
        // One pool thread, eight partitions; partition 2's worker raises
        // the host's cancel flag mid-phase. Nothing after it runs, the
        // phase reports `Canceled` (not a ladder failure), and every page
        // the job's epoch touched is back in the shared pool.
        let pool = Arc::new(PagePool::with_default_config());
        let epoch = pool.begin_epoch();
        let config = ClusterConfig {
            workers: 8,
            threads: 1,
            backend: Backend::Facade,
            env: RunEnv {
                pool: Some(Arc::clone(&pool)),
                epoch,
                ..RunEnv::default()
            },
            ..ClusterConfig::default()
        };
        let mut stats = JobStats::default();
        let items: Vec<i32> = (0..64).collect();
        let parts = round_robin(&items, 8);
        let failure = run_phase(
            &config,
            "map",
            Instant::now(),
            parts,
            &mut stats,
            Some(&pool),
            |store| store.register_class("T", &[FieldTy::I64]),
            |id, store, c, xs: &Vec<&i32>, _| {
                let it = store.iteration_start();
                for _ in xs {
                    store.alloc(*c)?;
                }
                store.iteration_end(it);
                if id == 2 {
                    config.env.cancel.store(true, Ordering::Release);
                }
                Ok(xs.len())
            },
        )
        .unwrap_err();
        assert!(matches!(failure.cause, FailureCause::Canceled), "{failure}");
        assert!(failure.to_string().starts_with("CANCELED("), "{failure}");
        let ran: u64 = stats.per_worker.iter().map(|w| w.partitions).sum();
        assert_eq!(ran, 3, "partitions 0..=2 ran, the other five never did");
        assert!(stats.resilience.is_clean(), "a cancel is not a failure");
        let ledger = pool.retire_epoch(epoch).expect("epoch was live");
        assert!(stats.pages_created > 0);
        assert_eq!(ledger.pages_in, ledger.pages_out + stats.pages_created);
    }

    #[test]
    fn cancel_landing_with_the_last_partition_keeps_the_finished_phase() {
        let config = ClusterConfig {
            workers: 4,
            threads: 1,
            ..ClusterConfig::default()
        };
        let mut stats = JobStats::default();
        let items: Vec<i32> = (0..8).collect();
        let parts = round_robin(&items, 4);
        let ran = std::sync::atomic::AtomicUsize::new(0);
        let out = run_phase(
            &config,
            "map",
            Instant::now(),
            parts,
            &mut stats,
            None,
            |_| (),
            |_, _store, _, xs: &Vec<&i32>, _| {
                if ran.fetch_add(1, Ordering::SeqCst) == 3 {
                    config.env.cancel.store(true, Ordering::Release);
                }
                Ok(xs.len())
            },
        )
        .expect("nothing was left to cancel");
        assert_eq!(out, vec![2; 4]);
    }

    #[test]
    fn persistent_panic_walks_the_ladder_and_ends_as_failed() {
        let config = ClusterConfig {
            workers: 2,
            ..ClusterConfig::default()
        };
        let mut stats = JobStats::default();
        let items: Vec<i32> = (0..2).collect();
        let parts = round_robin(&items, 2);
        let result: Result<Vec<()>, _> = run_phase(
            &config,
            "test",
            Instant::now(),
            parts,
            &mut stats,
            None,
            |_| (),
            |_, _store, _, _, _| panic!("boom"),
        );
        let failure = result.unwrap_err();
        assert!(failure.to_string().starts_with("FAILED("), "{failure}");
        assert!(failure.to_string().contains("boom"));
        assert_eq!(stats.resilience.degradations, u64::from(MAX_DEGRADE_LEVELS));
    }
}
