//! The daemon: resident state, lifecycle, and shutdown reconciliation.

use crate::admission::{Admission, AdmissionController};
use crate::router::Router;
use data_store::PagePool;
use facade_job::{
    Dataset, Dispatcher, DispatcherConfig, JobError, JobHandle, JobReport, JobSpec, Workload,
};
use metrics::{HttpServer, HttpServerHandle, Registry};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};

/// The synthetic dataset the daemon loads at boot and keeps resident.
#[derive(Debug, Clone)]
pub struct DatasetConfig {
    /// Graph vertices (PR/CC).
    pub vertices: u32,
    /// Graph edges (PR/CC).
    pub edges: u64,
    /// Corpus size in bytes (WC/ES).
    pub corpus_bytes: usize,
    /// Generator seed — two daemons booted with the same `DatasetConfig`
    /// serve bit-identical jobs.
    pub seed: u64,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        DatasetConfig {
            vertices: 2_000,
            edges: 10_000,
            corpus_bytes: 256 << 10,
            seed: 42,
        }
    }
}

/// Daemon configuration: where to listen and how much to multiplex.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; port `0` picks a free port.
    pub addr: String,
    /// HTTP acceptor threads.
    pub acceptors: usize,
    /// Job executor threads.
    pub executors: usize,
    /// Bounded submission queue depth (beyond it: `429`).
    pub queue_depth: usize,
    /// Total memory budget admission control multiplexes across in-flight
    /// jobs.
    pub admission_budget_bytes: usize,
    /// The resident dataset.
    pub dataset: DatasetConfig,
    /// Run one job of each workload at boot so the query endpoints are
    /// warm before the first client arrives.
    pub warm_boot: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            acceptors: 4,
            executors: 4,
            queue_depth: 32,
            admission_budget_bytes: 256 << 20,
            dataset: DatasetConfig::default(),
            warm_boot: true,
        }
    }
}

/// Most *terminal* (completed/failed/canceled) jobs the daemon keeps in
/// its jobs map. Every entry retains the job's full report for `GET
/// /jobs/<id>`, so without a bound a resident server leaks one report per
/// submission for its whole life; beyond the cap the oldest terminal
/// entries are evicted (their ids then answer 404). Queued and running
/// jobs are never evicted.
pub(crate) const MAX_TERMINAL_JOBS: usize = 256;

/// One tracked submission.
pub(crate) struct JobEntry {
    pub(crate) handle: JobHandle,
    /// The spec as admitted (post-degradation) — what actually ran.
    pub(crate) spec: JobSpec,
    /// Admission shrink rungs this job was walked down.
    pub(crate) admission_shrinks: u64,
}

/// Everything the daemon keeps resident, shared between the HTTP router,
/// the dispatcher callbacks, and the lifecycle handle.
pub(crate) struct ServerState {
    pub(crate) dispatcher: Mutex<Option<Dispatcher>>,
    pub(crate) admission: AdmissionController,
    pub(crate) pool: Arc<PagePool>,
    pub(crate) dataset: Dataset,
    pub(crate) jobs: Mutex<BTreeMap<u64, JobEntry>>,
    /// Latest completed report per workload kind, with its output's
    /// fingerprint hashed once at insert — what the `/query/*` endpoints
    /// read. A query clones the `Arc`, never the report.
    pub(crate) results: Mutex<BTreeMap<&'static str, (Arc<JobReport>, u64)>>,
    pub(crate) registry: Arc<Registry>,
    pub(crate) shutdown_requested: (Mutex<bool>, Condvar),
    pub(crate) draining: AtomicBool,
}

impl ServerState {
    /// Submits through admission control; the callback releases the
    /// commitment and publishes the result.
    pub(crate) fn submit(self: &Arc<Self>, spec: JobSpec) -> Result<(u64, u64), JobError> {
        if self.draining.load(Ordering::Acquire) {
            return Err(JobError::Rejected("server is shutting down".into()));
        }
        let spec = spec.validated().map_err(|e| JobError::Invalid(e.0))?;
        let (spec, shrinks) = match self.admission.admit(&spec) {
            Admission::AsSubmitted => (spec, 0),
            Admission::Degraded { spec, shrinks } => (spec, u64::from(shrinks)),
            Admission::Rejected { reason } => {
                self.registry.counter("server_jobs_rejected").inc();
                return Err(JobError::Rejected(reason));
            }
        };
        if shrinks > 0 {
            self.registry
                .counter("server_admission_shrinks")
                .add(shrinks);
        }
        let kind = workload_key(&spec.workload);
        let released_spec = spec.clone();
        let weak: Weak<ServerState> = Arc::downgrade(self);
        let submitted = {
            let guard = self.dispatcher.lock().unwrap_or_else(|p| p.into_inner());
            let Some(dispatcher) = guard.as_ref() else {
                return Err(JobError::Rejected("server is shutting down".into()));
            };
            dispatcher.submit_with(spec.clone(), move |_id, result| {
                let Some(state) = weak.upgrade() else { return };
                state.admission.release(&released_spec);
                match result {
                    Ok(report) => {
                        state.registry.counter("server_jobs_completed").inc();
                        let cached = (Arc::new(report.clone()), report.output.fingerprint());
                        let mut results = state.results.lock().unwrap_or_else(|p| p.into_inner());
                        results.insert(kind, cached);
                    }
                    Err(JobError::Canceled) => {
                        state.registry.counter("server_jobs_canceled").inc();
                    }
                    Err(_) => {
                        state.registry.counter("server_jobs_failed").inc();
                    }
                }
            })
        };
        let handle = match submitted {
            Ok(handle) => handle,
            Err(e) => {
                // The dispatcher refused (queue full): hand back the
                // admission commitment the callback will never release.
                self.admission.release(&spec);
                if matches!(e, JobError::Rejected(_)) {
                    self.registry.counter("server_jobs_rejected").inc();
                }
                return Err(e);
            }
        };
        self.registry.counter("server_jobs_submitted").inc();
        let id = handle.id();
        let mut jobs = self.jobs.lock().unwrap_or_else(|p| p.into_inner());
        jobs.insert(
            id,
            JobEntry {
                handle,
                spec,
                admission_shrinks: shrinks,
            },
        );
        evict_terminal(&mut jobs, MAX_TERMINAL_JOBS);
        Ok((id, shrinks))
    }

    /// Refreshes the pool/queue gauges (called before rendering `/metrics`
    /// or `/stats`).
    pub(crate) fn refresh_gauges(&self) {
        self.pool.publish_gauges(&self.registry, "facade_pool");
        self.registry
            .gauge("server_pool_live_epochs")
            .set(self.pool.live_epochs() as i64);
        self.registry
            .gauge("server_admission_committed_bytes")
            .set(self.admission.committed_bytes() as i64);
        let guard = self.dispatcher.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(d) = guard.as_ref() {
            self.registry
                .gauge("server_jobs_running")
                .set(d.running() as i64);
            self.registry
                .gauge("server_jobs_queued")
                .set(d.queued() as i64);
        }
    }

    /// Flags the daemon for shutdown (the `POST /shutdown` endpoint).
    pub(crate) fn request_shutdown(&self) {
        let (lock, cvar) = &self.shutdown_requested;
        *lock.lock().unwrap_or_else(|p| p.into_inner()) = true;
        cvar.notify_all();
    }
}

/// The workload's stable key into the results cache.
pub(crate) fn workload_key(workload: &Workload) -> &'static str {
    workload.kind()
}

/// Bounds the jobs map for a resident daemon: evicts the oldest terminal
/// entries (ascending id = submission order) until at most `cap` entries
/// remain. Queued and running jobs never count as evictable, so the map
/// may transiently exceed `cap` by the in-flight job count (itself
/// bounded by the dispatcher's queue depth plus its executors).
pub(crate) fn evict_terminal(jobs: &mut BTreeMap<u64, JobEntry>, cap: usize) {
    let excess = jobs.len().saturating_sub(cap);
    if excess == 0 {
        return;
    }
    let evict: Vec<u64> = jobs
        .iter()
        .filter(|(_, e)| e.handle.status().is_terminal())
        .map(|(id, _)| *id)
        .take(excess)
        .collect();
    for id in evict {
        jobs.remove(&id);
    }
}

/// What the daemon found when it drained and reconciled at shutdown. The
/// daemon's exit code is [`ShutdownReport::clean`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShutdownReport {
    /// Epochs still live after the drain — must be 0; anything else means
    /// a job's pages were never reconciled.
    pub live_epochs: usize,
    /// Admission bytes still committed after the drain — must be 0.
    pub committed_bytes: usize,
    /// Total pages the pool ever handed out.
    pub pages_handed_out: u64,
    /// Total pages the pool ever received back (≥ handed out: worker heaps
    /// donate the fresh pages they create).
    pub pages_returned: u64,
    /// HTTP requests the front end served over the daemon's life.
    pub requests_served: u64,
}

impl ShutdownReport {
    /// No epoch leaked, no commitment leaked, and no page is still out.
    pub fn clean(&self) -> bool {
        self.live_epochs == 0
            && self.committed_bytes == 0
            && self.pages_returned >= self.pages_handed_out
    }
}

impl fmt::Display for ShutdownReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shutdown: {} ({} live epochs, {} committed bytes, {} pages out / {} in, {} requests)",
            if self.clean() { "clean" } else { "LEAKED" },
            self.live_epochs,
            self.committed_bytes,
            self.pages_handed_out,
            self.pages_returned,
            self.requests_served,
        )
    }
}

/// A running daemon. Dropping the handle abandons the threads; call
/// [`shutdown`](FacadeServer::shutdown) for the drained, reconciled exit.
pub struct FacadeServer {
    state: Arc<ServerState>,
    http: HttpServerHandle,
}

impl FacadeServer {
    /// Boots the daemon: loads the dataset, starts the shared pool, the
    /// dispatcher, and the HTTP front end; runs the warm-boot jobs if
    /// configured (one per workload, so `/query/*` answers immediately).
    ///
    /// # Errors
    ///
    /// An [`std::io::Error`] when the listen address cannot be bound.
    pub fn start(config: ServerConfig) -> std::io::Result<FacadeServer> {
        let registry = Arc::new(Registry::new());
        let pool = Arc::new(PagePool::with_default_config());
        let dataset = Dataset::synthetic(
            config.dataset.vertices,
            config.dataset.edges,
            config.dataset.corpus_bytes,
            config.dataset.seed,
        );
        let mut dispatcher_config = DispatcherConfig::new(config.executors, dataset.clone());
        dispatcher_config.queue_depth = config.queue_depth;
        dispatcher_config.pool = Some(Arc::clone(&pool));
        let state = Arc::new(ServerState {
            dispatcher: Mutex::new(Some(Dispatcher::new(dispatcher_config))),
            admission: AdmissionController::new(config.admission_budget_bytes),
            pool,
            dataset,
            jobs: Mutex::new(BTreeMap::new()),
            results: Mutex::new(BTreeMap::new()),
            registry,
            shutdown_requested: (Mutex::new(false), Condvar::new()),
            draining: AtomicBool::new(false),
        });
        if config.warm_boot {
            warm_boot(&state);
        }
        let router = Arc::new(Router {
            state: Arc::clone(&state),
        });
        let http = HttpServer::bind(&config.addr, router)?.start(config.acceptors.max(1));
        Ok(FacadeServer { state, http })
    }

    /// The bound listen address (resolves port `0`).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.http.local_addr()
    }

    /// Blocks until a client asks the daemon to stop (`POST /shutdown`).
    pub fn wait_for_shutdown_request(&self) {
        let (lock, cvar) = &self.state.shutdown_requested;
        let mut requested = lock.lock().unwrap_or_else(|p| p.into_inner());
        while !*requested {
            requested = cvar.wait(requested).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Stops the front end, drains the dispatcher (queued jobs finish,
    /// new submissions are rejected), and reconciles the pool: every job
    /// epoch must be retired and every admission commitment released.
    pub fn shutdown(self) -> ShutdownReport {
        self.state.draining.store(true, Ordering::Release);
        let requests_served = self.http.requests_served();
        self.http.shutdown();
        let dispatcher = self
            .state
            .dispatcher
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .take();
        if let Some(dispatcher) = dispatcher {
            dispatcher.shutdown();
        }
        ShutdownReport {
            live_epochs: self.state.pool.live_epochs(),
            committed_bytes: self.state.admission.committed_bytes(),
            pages_handed_out: self.state.pool.pages_handed_out(),
            pages_returned: self.state.pool.pages_returned(),
            requests_served,
        }
    }
}

/// Runs one small job per workload through the normal submission path so
/// every `/query/*` endpoint has a result to serve from the first request.
fn warm_boot(state: &Arc<ServerState>) {
    let specs = [
        Workload::PageRank { iterations: 5 },
        Workload::ConnectedComponents { max_iterations: 30 },
        Workload::WordCount,
        Workload::ExternalSort,
    ]
    .map(|workload| JobSpec {
        workload,
        tag: "warm-boot".into(),
        ..JobSpec::default()
    });
    let handles: Vec<_> = specs
        .into_iter()
        .filter_map(|spec| {
            let id = state.submit(spec).ok()?.0;
            let jobs = state.jobs.lock().unwrap_or_else(|p| p.into_inner());
            Some(jobs.get(&id)?.handle.clone())
        })
        .collect();
    for handle in handles {
        let _ = handle.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oldest_terminal_jobs_are_evicted_beyond_the_cap() {
        let dataset = Dataset::synthetic(100, 400, 8_000, 5);
        let d = Dispatcher::new(DispatcherConfig::new(2, dataset));
        let mut jobs = BTreeMap::new();
        let mut last = None;
        for _ in 0..6 {
            let h = d
                .submit(JobSpec {
                    workload: Workload::WordCount,
                    budget_bytes: 4 << 20,
                    ..JobSpec::default()
                })
                .unwrap();
            h.wait().expect("tiny WC job completes");
            last = Some(h.id());
            jobs.insert(
                h.id(),
                JobEntry {
                    handle: h,
                    spec: JobSpec::default(),
                    admission_shrinks: 0,
                },
            );
        }
        evict_terminal(&mut jobs, 4);
        assert_eq!(jobs.len(), 4, "bounded at the cap");
        assert_eq!(
            jobs.keys().next().copied(),
            Some(3),
            "the two oldest entries went first"
        );
        assert!(
            jobs.contains_key(&last.unwrap()),
            "the newest entry survives"
        );
        evict_terminal(&mut jobs, 4);
        assert_eq!(jobs.len(), 4, "at the cap nothing more is evicted");
        d.shutdown();
    }
}
