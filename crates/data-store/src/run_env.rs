//! What a host lends a run: [`RunEnv`].

use crate::{Backend, NO_EPOCH, PagePool, Store, checkpoint::Checkpointer};
use std::path::PathBuf;
use std::sync::Arc;
use std::sync::atomic::{AtomicBool, Ordering};

/// The run environment: everything a *host* (a test, a bench binary, the
/// `facade-job` dispatcher behind the `facade-server` daemon) lends one
/// run, as opposed to the sizing the engine configs carry. Both engines,
/// `gps-rs` and the job API hold exactly one of these, and the policies
/// that go with the fields — which pool a run draws from, how its worker
/// stores are built, where its checkpoints go — are this type's methods
/// and nobody else's.
///
/// The default is a self-contained run: a private pool, untagged traffic,
/// a flag nobody sets, no durability. See the crate docs for an example.
#[derive(Debug, Clone)]
pub struct RunEnv {
    /// The host's resident [`PagePool`], shared by every run it serves so
    /// concurrent jobs converge on one page economy. `None` (the default)
    /// gives each run a private pool. Ignored under [`Backend::Heap`].
    pub pool: Option<Arc<PagePool>>,
    /// Epoch tag stamped on every pool page the run acquires or releases
    /// (see [`PagePool::begin_epoch`]), so the host can reconcile the run's
    /// pages at retirement. Meaningful only with a host [`pool`](Self::pool);
    /// the default [`NO_EPOCH`] leaves traffic untagged.
    pub epoch: u64,
    /// Host-requested cancellation, polled by the engines at their unit of
    /// consistency (GraphChi interval boundaries, Hyracks partition claims
    /// and phase boundaries): a run that sees it set stops with its
    /// engine's `Canceled` error instead of finishing. The default flag is
    /// never set.
    pub cancel: Arc<AtomicBool>,
    /// Directory for the run's checkpoints. When set, the engine commits
    /// its consistent state there (atomic tmp-file-then-rename) as it goes
    /// and removes it on completion, and a run that finds a verified
    /// checkpoint of the same job there resumes from it; a damaged or
    /// foreign one is discarded and counted. `None` (the default) adds no
    /// I/O.
    pub checkpoint_dir: Option<PathBuf>,
    /// Deterministic fault schedule for robustness testing, installed on
    /// every worker store, the checkpoint writer and a *private* pool —
    /// never on a host pool, which serves other runs too and is not this
    /// run's to sabotage.
    pub fault_plan: Option<crate::FaultPlan>,
}

impl Default for RunEnv {
    fn default() -> Self {
        Self {
            pool: None,
            epoch: NO_EPOCH,
            cancel: Arc::new(AtomicBool::new(false)),
            checkpoint_dir: None,
            fault_plan: None,
        }
    }
}

impl RunEnv {
    /// The page supply for one run (or one retry of it) on `backend`: the
    /// host's pool as-is, else a fresh private one carrying the fault plan;
    /// `None` under [`Backend::Heap`], which has no pages. Every facade run
    /// accounts its pages through a pool — single-threaded ones included —
    /// so pool counters are comparable across thread counts.
    pub fn page_pool(&self, backend: Backend) -> Option<Arc<PagePool>> {
        (backend == Backend::Facade).then(|| {
            self.pool.clone().unwrap_or_else(|| {
                let pool = Arc::new(PagePool::with_default_config());
                if let Some(plan) = &self.fault_plan {
                    pool.set_fault_plan(plan.clone());
                }
                pool
            })
        })
    }

    /// One worker store capped at `budget_bytes`, drawing from `pool` (what
    /// [`page_pool`](Self::page_pool) returned for this run), its traffic
    /// tagged with [`epoch`](Self::epoch) and the fault plan installed.
    pub fn store(
        &self,
        backend: Backend,
        budget_bytes: usize,
        pool: Option<&Arc<PagePool>>,
    ) -> Store {
        let mut builder = Store::builder()
            .backend(backend)
            .budget(budget_bytes)
            .job_epoch(self.epoch);
        if let Some(pool) = pool {
            builder = builder.pool(Arc::clone(pool));
        }
        if let Some(plan) = &self.fault_plan {
            builder = builder.fault_plan(plan.clone());
        }
        builder.build()
    }

    /// The checkpoint policy for the job whose state lives in `file` under
    /// [`checkpoint_dir`](Self::checkpoint_dir); `None` — without calling
    /// `fingerprint`, which typically hashes the whole input — when
    /// durability is off. The fingerprint is all that keeps a foreign job's
    /// state from being resumed.
    pub fn checkpointer(
        &self,
        file: &str,
        fingerprint: impl FnOnce() -> u64,
    ) -> Option<Checkpointer> {
        let dir = self.checkpoint_dir.as_deref()?;
        Some(Checkpointer::new(dir.join(file), fingerprint()).fault_plan(self.fault_plan.clone()))
    }

    /// Whether the host has asked the run to stop.
    pub fn canceled(&self) -> bool {
        self.cancel.load(Ordering::Acquire)
    }
}
