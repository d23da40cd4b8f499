//! The [`JobRunner`] trait and its two engine adapters.

use crate::{Dataset, JobError, JobOutput, JobSpec, Workload};
use data_store::{EpochLedger, PoolCounters};
use graphchi_rs::{ConnectedComponents, Engine, EngineConfig, PageRank};
use hyracks_rs::{Cluster, ClusterConfig};
use metrics::ResilienceReport;
use std::time::{Duration, Instant};

/// Execution-time context a host threads into a run: [`data_store::RunEnv`]
/// under the name the job API has always used. The dispatcher lends its
/// shared pool, mints one epoch per admitted job — so the pool can
/// attribute, and bulk-reconcile, every page the job touches — and shares
/// the job's cancellation flag ([`JobHandle::cancel`](crate::JobHandle)
/// sets it); the runners add the spec's `checkpoint_dir` and fault plan.
pub use data_store::RunEnv as ExecContext;

/// Per-epoch page accounting at job retirement, with the reconciliation
/// verdict: a retired job must have returned every page it drew *plus*
/// every page its worker heaps created and donated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochSummary {
    /// The epoch the dispatcher minted for this job.
    pub epoch: u64,
    /// The final ledger [`data_store::PagePool::retire_epoch`] returned.
    pub ledger: EpochLedger,
    /// Fresh pages the job's heaps created (the expected donation surplus).
    pub pages_created: u64,
    /// `pages_in == pages_out + pages_created` — no page of this job's
    /// epoch leaked or was double-returned.
    pub reconciled: bool,
}

/// Everything a completed job reports back through a
/// [`JobHandle`](crate::JobHandle).
#[derive(Debug, Clone)]
pub struct JobReport {
    /// The spec as executed.
    pub spec: JobSpec,
    /// The semantically visible output (fingerprintable).
    pub output: JobOutput,
    /// Wall-clock execution time, excluding queueing.
    pub elapsed: Duration,
    /// Retries, degradation-ladder rungs, checkpoints, injected faults.
    pub resilience: ResilienceReport,
    /// Page-pool counters visible at job end (facade runs).
    pub pool: Option<PoolCounters>,
    /// Fresh pages the job's worker heaps created.
    pub pages_created: u64,
    /// Engine-reported work volume — edges processed for graph jobs,
    /// records allocated for cluster jobs; the throughput numerator
    /// (Figure 4(a) divides this by `elapsed`).
    pub work_units: u64,
    /// Per-job epoch accounting; `None` when the job ran without a shared
    /// pool (nothing to reconcile against). Filled by the dispatcher at
    /// retirement, after the runner returns.
    pub epoch: Option<EpochSummary>,
}

/// An engine adapter: executes the specs it [`supports`](JobRunner::supports).
/// Implementations are shared across dispatcher executor threads.
pub trait JobRunner: Send + Sync {
    /// Engine name for listings and error messages.
    fn name(&self) -> &'static str;

    /// Whether this runner executes the given workload.
    fn supports(&self, workload: &Workload) -> bool;

    /// Runs the job synchronously on the calling thread.
    ///
    /// # Errors
    ///
    /// [`JobError::Failed`] when the engine exhausts its retry/degradation
    /// ladder; [`JobError::Invalid`] when the spec is outside what the
    /// engine can express.
    fn execute(
        &self,
        spec: &JobSpec,
        data: &Dataset,
        ctx: &ExecContext,
    ) -> Result<JobReport, JobError>;
}

/// The environment one job runs in: what the host lent (`ctx`) plus what
/// the submission asked for.
fn run_env(spec: &JobSpec, ctx: &ExecContext) -> ExecContext {
    ExecContext {
        checkpoint_dir: spec.checkpoint_dir.clone(),
        fault_plan: spec.fault_plan.clone(),
        ..ctx.clone()
    }
}

/// Routes graph workloads (PR/CC) to the GraphChi-style engine, on the
/// dataset's shared CSR ([`Dataset::csr`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct GraphChiRunner;

impl JobRunner for GraphChiRunner {
    fn name(&self) -> &'static str {
        "graphchi"
    }

    fn supports(&self, workload: &Workload) -> bool {
        !workload.uses_corpus()
    }

    fn execute(
        &self,
        spec: &JobSpec,
        data: &Dataset,
        ctx: &ExecContext,
    ) -> Result<JobReport, JobError> {
        let config = EngineConfig {
            backend: spec.backend,
            budget_bytes: spec.budget_bytes,
            intervals: spec.intervals,
            threads: if spec.threads == 0 {
                EngineConfig::default().threads
            } else {
                spec.threads
            },
            env: run_env(spec, ctx),
            ..EngineConfig::default()
        };
        let started = Instant::now();
        let mut engine = Engine::with_csr(data.csr(), config);
        let outcome = match &spec.workload {
            Workload::PageRank { iterations } => engine.execute(&PageRank::new(*iterations)),
            Workload::ConnectedComponents { max_iterations } => {
                engine.execute(&ConnectedComponents::new(*max_iterations))
            }
            other => {
                return Err(JobError::Invalid(format!(
                    "{} does not run `{other}`",
                    self.name()
                )));
            }
        }?;
        Ok(JobReport {
            spec: spec.clone(),
            output: JobOutput::Vertices {
                values: outcome.values,
            },
            elapsed: started.elapsed(),
            resilience: outcome.resilience,
            pool: outcome.pool,
            pages_created: outcome.stats.pages_created,
            work_units: outcome.edges_processed,
            epoch: None,
        })
    }
}

/// Routes cluster workloads (WC/ES) to the Hyracks-style cluster.
#[derive(Debug, Clone, Copy, Default)]
pub struct HyracksRunner;

impl JobRunner for HyracksRunner {
    fn name(&self) -> &'static str {
        "hyracks"
    }

    fn supports(&self, workload: &Workload) -> bool {
        workload.uses_corpus()
    }

    fn execute(
        &self,
        spec: &JobSpec,
        data: &Dataset,
        ctx: &ExecContext,
    ) -> Result<JobReport, JobError> {
        let config = ClusterConfig {
            workers: spec.workers,
            threads: if spec.threads == 0 {
                ClusterConfig::default().threads
            } else {
                spec.threads
            },
            backend: spec.backend,
            // The spec's budget is per worker here: a cluster node's -Xmx.
            per_worker_budget: spec.budget_bytes,
            frame_bytes: spec.frame_bytes,
            env: run_env(spec, ctx),
        };
        let started = Instant::now();
        let cluster = Cluster::new(&config);
        let (output, stats) = match &spec.workload {
            Workload::WordCount => {
                let wc = cluster.word_count(&data.corpus)?;
                (
                    JobOutput::WordCount {
                        distinct: wc.distinct_words,
                        total: wc.total_count,
                        counts: wc.counts,
                    },
                    wc.stats,
                )
            }
            Workload::ExternalSort => {
                let es = cluster.external_sort(&data.corpus)?;
                (
                    JobOutput::ExternalSort {
                        rows: es.total_records,
                        checksum: es.checksum,
                    },
                    es.stats,
                )
            }
            other => {
                return Err(JobError::Invalid(format!(
                    "{} does not run `{other}`",
                    self.name()
                )));
            }
        };
        Ok(JobReport {
            spec: spec.clone(),
            output,
            elapsed: started.elapsed(),
            resilience: stats.resilience.clone(),
            pool: stats.pool,
            pages_created: stats.pages_created,
            work_units: stats.records_allocated,
            epoch: None,
        })
    }
}

/// The default runner set: both engines, every [`Workload`] covered.
pub fn default_runners() -> Vec<Box<dyn JobRunner>> {
    vec![Box::new(GraphChiRunner), Box::new(HyracksRunner)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphchi_rs::VertexProgram;
    use metrics::report::Backend;

    fn dataset() -> Dataset {
        Dataset::synthetic(300, 1_200, 20_000, 7)
    }

    fn spec(workload: Workload) -> JobSpec {
        JobSpec {
            workload,
            budget_bytes: 8 << 20,
            threads: 2,
            ..JobSpec::default()
        }
    }

    #[test]
    fn runners_cover_every_workload_exactly_once() {
        let runners = default_runners();
        for w in [
            Workload::WordCount,
            Workload::ExternalSort,
            Workload::PageRank { iterations: 2 },
            Workload::ConnectedComponents { max_iterations: 4 },
        ] {
            assert_eq!(
                runners.iter().filter(|r| r.supports(&w)).count(),
                1,
                "exactly one engine claims {w}"
            );
        }
    }

    #[test]
    fn runner_outputs_match_direct_engine_runs() {
        let data = dataset();
        let ctx = ExecContext::default();
        // PageRank and CC through the unified API vs. the engine called
        // directly on a CSR of its own. Every job after the first reuses
        // the dataset's CSR; each runs twice in a row, so a job that left
        // anything behind in the shared CSR would show in the second.
        let jobs: [(Workload, Box<dyn VertexProgram>); 2] = [
            (
                Workload::PageRank { iterations: 3 },
                Box::new(PageRank::new(3)),
            ),
            (
                Workload::ConnectedComponents { max_iterations: 30 },
                Box::new(ConnectedComponents::new(30)),
            ),
        ];
        for backend in [Backend::Heap, Backend::Facade] {
            for threads in [1, 2] {
                for (workload, app) in &jobs {
                    let direct = Engine::new(
                        &data.graph,
                        EngineConfig {
                            backend,
                            budget_bytes: 8 << 20,
                            intervals: 8,
                            threads,
                            ..EngineConfig::default()
                        },
                    )
                    .execute(app.as_ref())
                    .unwrap();
                    let want = JobOutput::Vertices {
                        values: direct.values,
                    }
                    .fingerprint();
                    let spec = JobSpec {
                        backend,
                        threads,
                        ..spec(workload.clone())
                    };
                    for round in 0..2 {
                        let report = GraphChiRunner.execute(&spec, &data, &ctx).unwrap();
                        assert_eq!(
                            report.output.fingerprint(),
                            want,
                            "{workload} on {backend:?} at {threads} threads, job {round}: \
                             unified API output is bit-identical to the direct engine run"
                        );
                    }
                }
            }
        }
        // WordCount likewise.
        let report = HyracksRunner
            .execute(&spec(Workload::WordCount), &data, &ctx)
            .unwrap();
        let direct = Cluster::new(&ClusterConfig {
            workers: 4,
            threads: 2,
            backend: Backend::Facade,
            per_worker_budget: 8 << 20,
            frame_bytes: 16 << 10,
            ..ClusterConfig::default()
        })
        .word_count(&data.corpus)
        .unwrap();
        assert_eq!(
            report.output.fingerprint(),
            JobOutput::WordCount {
                distinct: direct.distinct_words,
                total: direct.total_count,
                counts: direct.counts
            }
            .fingerprint()
        );
    }

    #[test]
    fn wrong_engine_rejects_the_workload() {
        let data = dataset();
        let ctx = ExecContext::default();
        let err = GraphChiRunner
            .execute(&spec(Workload::WordCount), &data, &ctx)
            .unwrap_err();
        assert!(matches!(err, JobError::Invalid(_)), "{err}");
        let err = HyracksRunner
            .execute(&spec(Workload::PageRank { iterations: 1 }), &data, &ctx)
            .unwrap_err();
        assert!(matches!(err, JobError::Invalid(_)), "{err}");
    }
}
