//! The multi-job dispatcher: bounded queue, executor pool, per-job epochs.

use crate::{
    Dataset, EpochSummary, ExecContext, JobError, JobReport, JobRunner, JobSpec, default_runners,
};
use data_store::{NO_EPOCH, PagePool};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Dispatcher sizing and residency.
#[derive(Debug, Clone)]
pub struct DispatcherConfig {
    /// Executor threads running jobs concurrently.
    pub executors: usize,
    /// Jobs allowed to wait; a submission beyond this is
    /// [`JobError::Rejected`] — the backpressure signal the server turns
    /// into `429 Too Many Requests`.
    pub queue_depth: usize,
    /// Shared page pool facade jobs draw from, with one epoch minted per
    /// job; `None` gives every job a private pool (no cross-job reuse, no
    /// epoch accounting).
    pub pool: Option<Arc<PagePool>>,
    /// The resident inputs every job runs against.
    pub dataset: Dataset,
}

impl DispatcherConfig {
    /// A dispatcher over `dataset` with `executors` threads, a queue twice
    /// that deep, and no shared pool.
    pub fn new(executors: usize, dataset: Dataset) -> DispatcherConfig {
        DispatcherConfig {
            executors: executors.max(1),
            queue_depth: executors.max(1) * 2,
            pool: None,
            dataset,
        }
    }
}

/// Where a job is in its life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Accepted, waiting for an executor.
    Queued,
    /// On an executor now.
    Running,
    /// Finished with a report.
    Completed,
    /// Finished with an error.
    Failed,
    /// Canceled — either before an executor picked it up, or (for
    /// iterative graph jobs) at the next interval boundary mid-run.
    Canceled,
}

impl JobStatus {
    /// Wire name for JSON status responses.
    pub fn name(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Completed => "completed",
            JobStatus::Failed => "failed",
            JobStatus::Canceled => "canceled",
        }
    }

    /// Whether the job can still change state.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobStatus::Completed | JobStatus::Failed | JobStatus::Canceled
        )
    }
}

/// Shared per-job state behind a [`JobHandle`].
struct JobState {
    status: Mutex<(JobStatus, Option<Result<JobReport, JobError>>)>,
    done: Condvar,
    /// Shared with the job's [`ExecContext`] so iterative engines can poll
    /// it at interval boundaries while the job is running.
    cancel: Arc<AtomicBool>,
}

impl JobState {
    fn new() -> Arc<JobState> {
        Arc::new(JobState {
            status: Mutex::new((JobStatus::Queued, None)),
            done: Condvar::new(),
            cancel: Arc::new(AtomicBool::new(false)),
        })
    }

    fn set(&self, status: JobStatus, result: Option<Result<JobReport, JobError>>) {
        let mut guard = self.status.lock().unwrap_or_else(|p| p.into_inner());
        guard.0 = status;
        if result.is_some() {
            guard.1 = result;
        }
        self.done.notify_all();
    }
}

/// A submitted job: poll it, wait on it, cancel it, read its report.
/// Dropping the handle does not affect the job.
#[derive(Clone)]
pub struct JobHandle {
    id: u64,
    state: Arc<JobState>,
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.id)
            .field("status", &self.status())
            .finish()
    }
}

impl JobHandle {
    /// The dispatcher-assigned job id (unique per dispatcher, dense from 1).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The job's current status.
    pub fn status(&self) -> JobStatus {
        self.state
            .status
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .0
    }

    /// Requests cancellation. Queued jobs are dropped before execution;
    /// running graph jobs (PR/CC) stop at the next interval boundary —
    /// the unit of consistency, so nothing half-committed survives;
    /// single-pass cluster jobs (WC/ES) are bounded and run to
    /// completion. Returns whether the request could still matter.
    pub fn cancel(&self) -> bool {
        self.cancel_inner()
    }

    fn cancel_inner(&self) -> bool {
        self.state.cancel.store(true, Ordering::Release);
        !self.status().is_terminal()
    }

    /// Blocks until the job reaches a terminal state; returns its report.
    ///
    /// # Errors
    ///
    /// The job's own [`JobError`] if it failed, was rejected, or canceled.
    pub fn wait(&self) -> Result<JobReport, JobError> {
        let mut guard = self.state.status.lock().unwrap_or_else(|p| p.into_inner());
        while !guard.0.is_terminal() {
            guard = self
                .state
                .done
                .wait(guard)
                .unwrap_or_else(|p| p.into_inner());
        }
        guard
            .1
            .clone()
            .unwrap_or(Err(JobError::Failed("job ended without a result".into())))
    }

    /// Like [`wait`](JobHandle::wait) with a deadline; `None` on timeout.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<JobReport, JobError>> {
        let mut guard = self.state.status.lock().unwrap_or_else(|p| p.into_inner());
        while !guard.0.is_terminal() {
            let (g, res) = self
                .state
                .done
                .wait_timeout(guard, timeout)
                .unwrap_or_else(|p| p.into_inner());
            guard = g;
            if res.timed_out() && !guard.0.is_terminal() {
                return None;
            }
        }
        Some(
            guard
                .1
                .clone()
                .unwrap_or(Err(JobError::Failed("job ended without a result".into()))),
        )
    }

    /// The terminal result, if the job has one yet (non-blocking).
    pub fn report(&self) -> Option<Result<JobReport, JobError>> {
        self.state
            .status
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .1
            .clone()
    }
}

type Callback = Box<dyn FnOnce(u64, &Result<JobReport, JobError>) + Send>;

struct QueuedJob {
    id: u64,
    spec: JobSpec,
    state: Arc<JobState>,
    callback: Option<Callback>,
}

struct Shared {
    queue: Mutex<VecDeque<QueuedJob>>,
    work: Condvar,
    shutdown: AtomicBool,
    next_id: AtomicU64,
    running: AtomicU64,
    pool: Option<Arc<PagePool>>,
    dataset: Dataset,
    runners: Vec<Box<dyn JobRunner>>,
    queue_depth: usize,
}

/// The resident multi-job scheduler: submissions enter a bounded queue, a
/// fixed pool of executor threads drains it, every facade job runs under
/// its own pool epoch, and retirement reconciles the epoch's ledger. This
/// is the engine room of the `facade-server` daemon, usable directly from
/// Rust for embedded multi-job hosts.
pub struct Dispatcher {
    shared: Arc<Shared>,
    executors: Vec<std::thread::JoinHandle<()>>,
}

impl Dispatcher {
    /// Starts the executor pool.
    pub fn new(config: DispatcherConfig) -> Dispatcher {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            work: Condvar::new(),
            shutdown: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            running: AtomicU64::new(0),
            pool: config.pool,
            dataset: config.dataset,
            runners: default_runners(),
            queue_depth: config.queue_depth.max(1),
        });
        let executors = (0..config.executors.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("job-executor-{i}"))
                    .spawn(move || executor_loop(&shared))
                    .expect("spawn job executor")
            })
            .collect();
        Dispatcher { shared, executors }
    }

    /// Jobs currently on executors.
    pub fn running(&self) -> u64 {
        self.shared.running.load(Ordering::Relaxed)
    }

    /// Jobs waiting in the queue.
    pub fn queued(&self) -> usize {
        self.shared
            .queue
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .len()
    }

    /// Submits a job.
    ///
    /// # Errors
    ///
    /// [`JobError::Invalid`] for an unrunnable spec, [`JobError::Rejected`]
    /// when the queue is full or the dispatcher is shutting down.
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, JobError> {
        self.submit_inner(spec, None)
    }

    /// Submits a job with a completion callback, invoked on the executor
    /// thread with the terminal result (including cancellation) *before*
    /// the handle observes the terminal state — how the server publishes
    /// results into its resident caches without polling, with the
    /// guarantee that a completed `wait()` sees the published result.
    pub fn submit_with(
        &self,
        spec: JobSpec,
        callback: impl FnOnce(u64, &Result<JobReport, JobError>) + Send + 'static,
    ) -> Result<JobHandle, JobError> {
        self.submit_inner(spec, Some(Box::new(callback)))
    }

    fn submit_inner(
        &self,
        spec: JobSpec,
        callback: Option<Callback>,
    ) -> Result<JobHandle, JobError> {
        let spec = spec.validated().map_err(|e| JobError::Invalid(e.0))?;
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(JobError::Rejected("dispatcher is shutting down".into()));
        }
        let mut queue = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
        if queue.len() >= self.shared.queue_depth {
            return Err(JobError::Rejected(format!(
                "queue full ({} jobs waiting)",
                queue.len()
            )));
        }
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        let state = JobState::new();
        queue.push_back(QueuedJob {
            id,
            spec,
            state: Arc::clone(&state),
            callback,
        });
        drop(queue);
        self.shared.work.notify_one();
        Ok(JobHandle { id, state })
    }

    /// Drains the queue (queued jobs finish; new submissions are rejected)
    /// and joins the executor pool.
    pub fn shutdown(self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.work.notify_all();
        for t in self.executors {
            let _ = t.join();
        }
    }
}

fn executor_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                queue = shared.work.wait(queue).unwrap_or_else(|p| p.into_inner());
            }
        };
        let Some(job) = job else { return };
        run_one(shared, job);
    }
}

/// Executes one queued job end to end: cancellation check, epoch mint,
/// runner dispatch, epoch retirement + reconciliation, callback, state
/// publication. The callback runs *before* the handle observes the
/// terminal state, so a waiter that wakes from [`JobHandle::wait`] sees
/// everything the callback published (e.g. the server's result caches).
fn run_one(shared: &Shared, job: QueuedJob) {
    let QueuedJob {
        id,
        spec,
        state,
        callback,
    } = job;
    if state.cancel.load(Ordering::Acquire) {
        let result = Err(JobError::Canceled);
        if let Some(cb) = callback {
            cb(id, &result);
        }
        state.set(JobStatus::Canceled, Some(result));
        return;
    }
    state.set(JobStatus::Running, None);
    shared.running.fetch_add(1, Ordering::Relaxed);

    // Facade jobs on the shared pool get their own epoch; everything else
    // runs untagged (heap jobs never touch the pool, and a private pool
    // dies with the job).
    let uses_shared_pool =
        shared.pool.is_some() && spec.backend == metrics::report::Backend::Facade;
    let epoch = match (&shared.pool, uses_shared_pool) {
        (Some(pool), true) => pool.begin_epoch(),
        _ => NO_EPOCH,
    };
    let ctx = ExecContext {
        pool: uses_shared_pool.then(|| Arc::clone(shared.pool.as_ref().expect("checked"))),
        epoch,
        cancel: Arc::clone(&state.cancel),
        ..ExecContext::default()
    };

    let runner = shared.runners.iter().find(|r| r.supports(&spec.workload));
    let mut result = match runner {
        Some(runner) => runner.execute(&spec, &shared.dataset, &ctx),
        None => Err(JobError::Invalid(format!(
            "no engine runs `{}`",
            spec.workload
        ))),
    };

    // Retire the job's epoch whatever the outcome: success must reconcile
    // exactly; a failed run still returns its ledger for diagnosis.
    if let (Some(pool), true) = (&shared.pool, uses_shared_pool) {
        let ledger = pool.retire_epoch(epoch).unwrap_or_default();
        if let Ok(report) = &mut result {
            let summary = EpochSummary {
                epoch,
                ledger,
                pages_created: report.pages_created,
                reconciled: ledger.pages_in == ledger.pages_out + report.pages_created,
            };
            report.epoch = Some(summary);
        }
    }

    shared.running.fetch_sub(1, Ordering::Relaxed);
    let status = match &result {
        Ok(_) => JobStatus::Completed,
        Err(JobError::Canceled) => JobStatus::Canceled,
        Err(_) => JobStatus::Failed,
    };
    if let Some(cb) = callback {
        cb(id, &result);
    }
    state.set(status, Some(result));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;

    fn dispatcher(executors: usize, pool: Option<Arc<PagePool>>) -> Dispatcher {
        let mut config = DispatcherConfig::new(executors, Dataset::synthetic(200, 800, 15_000, 3));
        config.pool = pool;
        config.queue_depth = 64;
        Dispatcher::new(config)
    }

    fn quick_spec(workload: Workload) -> JobSpec {
        JobSpec {
            workload,
            budget_bytes: 4 << 20,
            threads: 1,
            workers: 2,
            intervals: 4,
            ..JobSpec::default()
        }
    }

    #[test]
    fn jobs_run_to_completion_and_report() {
        let d = dispatcher(2, None);
        let h = d
            .submit(quick_spec(Workload::PageRank { iterations: 2 }))
            .unwrap();
        let report = h.wait().expect("job completes");
        assert_eq!(h.status(), JobStatus::Completed);
        assert!(matches!(
            report.output,
            crate::JobOutput::Vertices { ref values } if values.len() == 200
        ));
        assert!(report.epoch.is_none(), "no shared pool, no epoch");
        d.shutdown();
    }

    #[test]
    fn shared_pool_jobs_get_reconciled_epochs() {
        let pool = Arc::new(PagePool::with_default_config());
        let d = dispatcher(2, Some(Arc::clone(&pool)));
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let w = if i % 2 == 0 {
                    Workload::WordCount
                } else {
                    Workload::PageRank { iterations: 2 }
                };
                d.submit(quick_spec(w)).unwrap()
            })
            .collect();
        for h in &handles {
            let report = h.wait().expect("job completes");
            let epoch = report.epoch.expect("shared-pool jobs carry an epoch");
            assert!(epoch.epoch != NO_EPOCH);
            assert!(
                epoch.reconciled,
                "job {} leaked pages: {:?} created={}",
                h.id(),
                epoch.ledger,
                epoch.pages_created
            );
        }
        assert_eq!(pool.live_epochs(), 0, "every epoch retired");
        d.shutdown();
    }

    #[test]
    fn concurrent_graph_jobs_share_one_csr_and_match_serial_runs() {
        use crate::{ExecContext, GraphChiRunner, JobRunner};
        use metrics::report::Backend;

        // Two executors, PR and CC interleaved on both backends: the jobs
        // race for the dataset's first CSR build and then run side by side
        // on the one CSR it leaves.
        let pool = Arc::new(PagePool::with_default_config());
        let d = dispatcher(2, Some(Arc::clone(&pool)));
        let specs: Vec<JobSpec> = (0..2)
            .flat_map(|_| [Backend::Facade, Backend::Heap])
            .flat_map(|backend| {
                [
                    Workload::PageRank { iterations: 3 },
                    Workload::ConnectedComponents { max_iterations: 20 },
                ]
                .map(|workload| JobSpec {
                    backend,
                    ..quick_spec(workload)
                })
            })
            .collect();
        let handles: Vec<_> = specs.iter().map(|s| d.submit(s.clone()).unwrap()).collect();
        // The same jobs one at a time, on a dataset of their own.
        let serial = Dataset::synthetic(200, 800, 15_000, 3);
        for (spec, h) in specs.iter().zip(&handles) {
            let want = GraphChiRunner
                .execute(spec, &serial, &ExecContext::default())
                .unwrap();
            let got = h.wait().expect("job completes");
            assert_eq!(
                got.output.fingerprint(),
                want.output.fingerprint(),
                "{} on {:?}",
                spec.workload,
                spec.backend
            );
            assert!(got.epoch.is_none_or(|e| e.reconciled));
        }
        d.shutdown();
    }

    #[test]
    fn canceled_queued_jobs_never_run() {
        // One executor, held by a job whose completion callback waits for
        // the test's go-ahead: whatever the timing, the executor cannot
        // pick up the job queued behind it before that job is canceled.
        use std::sync::mpsc::channel;
        let d = dispatcher(1, None);
        let (release, gate) = channel::<()>();
        let slow = d
            .submit_with(
                quick_spec(Workload::PageRank { iterations: 4 }),
                move |_, _| {
                    gate.recv().expect("the test releases the executor");
                },
            )
            .unwrap();
        let victim = d.submit(quick_spec(Workload::WordCount)).unwrap();
        assert!(victim.cancel());
        release.send(()).unwrap();
        assert_eq!(victim.wait().unwrap_err(), JobError::Canceled);
        assert_eq!(victim.status(), JobStatus::Canceled);
        slow.wait().expect("the running job is unaffected");
        d.shutdown();
    }

    #[test]
    fn running_graph_jobs_stop_at_the_next_interval_boundary() {
        // A graph big enough that thousands of PageRank passes take far
        // longer than the cancel round trip; if mid-run cancellation
        // regressed, the test still terminates (iterations are capped) —
        // it just fails on the status assertions below.
        let mut config = DispatcherConfig::new(1, Dataset::synthetic(2_000, 20_000, 8_000, 3));
        config.queue_depth = 4;
        let d = Dispatcher::new(config);
        let h = d
            .submit(quick_spec(Workload::PageRank { iterations: 10_000 }))
            .unwrap();
        while h.status() == JobStatus::Queued {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(h.cancel(), "the job is still running");
        assert_eq!(h.wait().unwrap_err(), JobError::Canceled);
        assert_eq!(h.status(), JobStatus::Canceled);
        d.shutdown();
    }

    #[test]
    fn running_cluster_jobs_stop_at_the_next_partition_claim() {
        // Many small partitions on one thread, on a shared pool: the map
        // phase takes far longer than the cancel round trip, and if WC
        // ignored the flag the job would complete and the status
        // assertions below fail. The canceled job's epoch must still hand
        // every page back.
        let pool = Arc::new(PagePool::with_default_config());
        let mut config = DispatcherConfig::new(1, Dataset::synthetic(100, 400, 2_000_000, 3));
        config.pool = Some(Arc::clone(&pool));
        let d = Dispatcher::new(config);
        let h = d
            .submit(JobSpec {
                workers: 512,
                ..quick_spec(Workload::WordCount)
            })
            .unwrap();
        while h.status() == JobStatus::Queued {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(h.cancel(), "the job is still running");
        assert_eq!(h.wait().unwrap_err(), JobError::Canceled);
        assert_eq!(h.status(), JobStatus::Canceled);
        d.shutdown();
        assert_eq!(pool.live_epochs(), 0, "the canceled job's epoch retired");
        // Every page handed out came back, plus the fresh pages the job's
        // heaps created and donated (all the idle pool now holds).
        let c = pool.counters();
        assert_eq!(
            c.pages_returned,
            c.pages_handed_out + pool.available() as u64
        );
    }

    #[test]
    fn full_queue_rejects_and_invalid_specs_bounce() {
        let d = Dispatcher::new(DispatcherConfig {
            executors: 1,
            queue_depth: 1,
            pool: None,
            dataset: Dataset::synthetic(100, 400, 8_000, 5),
        });
        // Occupy the executor, fill the queue, then overflow it.
        let _a = d
            .submit(quick_spec(Workload::PageRank { iterations: 3 }))
            .unwrap();
        let mut rejected = false;
        for _ in 0..8 {
            if let Err(JobError::Rejected(_)) = d.submit(quick_spec(Workload::WordCount)) {
                rejected = true;
                break;
            }
        }
        assert!(rejected, "a 1-deep queue must eventually reject");
        let err = d
            .submit(JobSpec {
                workers: 0,
                ..quick_spec(Workload::WordCount)
            })
            .unwrap_err();
        assert!(matches!(err, JobError::Invalid(_)));
        d.shutdown();
    }

    #[test]
    fn callbacks_fire_on_completion() {
        use std::sync::mpsc::channel;
        let d = dispatcher(1, None);
        let (tx, rx) = channel();
        let h = d
            .submit_with(quick_spec(Workload::ExternalSort), move |id, result| {
                tx.send((id, result.is_ok())).unwrap();
            })
            .unwrap();
        let (id, ok) = rx.recv_timeout(Duration::from_secs(60)).unwrap();
        assert_eq!(id, h.id());
        assert!(ok);
        d.shutdown();
    }
}
