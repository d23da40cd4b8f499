//! Budget-based admission control over the shared pool.
//!
//! The daemon multiplexes many jobs over one memory budget. Admission
//! reuses the engines' degradation-ladder vocabulary instead of inventing
//! a second failure model: a job that does not fit as submitted is walked
//! down [`ShrinkBudget`](metrics::DegradationAction::ShrinkBudget) rungs — its budget halved,
//! deterministically, never randomly — until it fits or hits the floor.
//! Only a job that cannot fit even at the floor is rejected (the HTTP
//! layer turns that into `429`). The server never panics on overload.

use facade_job::JobSpec;
use std::sync::Mutex;

/// The smallest budget admission will shrink a job to — matches the
/// validation floor in [`JobSpec::validated`].
pub const BUDGET_FLOOR_BYTES: usize = 64 << 10;

/// The verdict for one submission.
#[derive(Debug, Clone, PartialEq)]
pub enum Admission {
    /// The job fits as submitted.
    AsSubmitted,
    /// The job fits after walking `shrinks` rungs; `spec` is the degraded
    /// spec actually run.
    Degraded {
        /// The spec after shrinking.
        spec: JobSpec,
        /// Rungs walked, each halving the budget. The server reports them
        /// as the job's `admission_shrinks` and adds them to its
        /// `server_admission_shrinks` counter.
        shrinks: u32,
    },
    /// The job cannot fit even at the budget floor.
    Rejected {
        /// Human-readable refusal for the 429 body.
        reason: String,
    },
}

/// Tracks the memory the server has committed to in-flight jobs and
/// decides — deterministically — what each new submission gets.
#[derive(Debug)]
pub struct AdmissionController {
    capacity_bytes: usize,
    committed_bytes: Mutex<usize>,
}

/// A job's whole-server memory footprint: cluster budgets are per worker,
/// graph budgets cover the job.
pub fn effective_bytes(spec: &JobSpec) -> usize {
    if spec.workload.uses_corpus() {
        spec.budget_bytes.saturating_mul(spec.workers)
    } else {
        spec.budget_bytes
    }
}

impl AdmissionController {
    /// A controller willing to commit `capacity_bytes` across all running
    /// and queued jobs at once.
    pub fn new(capacity_bytes: usize) -> AdmissionController {
        AdmissionController {
            capacity_bytes: capacity_bytes.max(BUDGET_FLOOR_BYTES),
            committed_bytes: Mutex::new(0),
        }
    }

    /// Total capacity the controller multiplexes.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Bytes currently committed to admitted jobs.
    pub fn committed_bytes(&self) -> usize {
        *self
            .committed_bytes
            .lock()
            .unwrap_or_else(|p| p.into_inner())
    }

    /// Decides the submission. On admission (plain or degraded) the job's
    /// effective bytes are committed; the caller must pair every
    /// non-rejected verdict with a [`release`](AdmissionController::release)
    /// when the job reaches a terminal state.
    pub fn admit(&self, spec: &JobSpec) -> Admission {
        let mut committed = self
            .committed_bytes
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        let free = self.capacity_bytes.saturating_sub(*committed);
        if effective_bytes(spec) <= free {
            *committed += effective_bytes(spec);
            return Admission::AsSubmitted;
        }
        // Walk ShrinkBudget rungs: halve until it fits or floors out.
        let mut degraded = spec.clone();
        let mut shrinks = 0;
        while effective_bytes(&degraded) > free && degraded.budget_bytes / 2 >= BUDGET_FLOOR_BYTES {
            degraded.budget_bytes /= 2;
            shrinks += 1;
        }
        if effective_bytes(&degraded) > free {
            return Admission::Rejected {
                reason: format!(
                    "job needs {} bytes even at the {} KiB floor; {} of {} free",
                    effective_bytes(&degraded),
                    BUDGET_FLOOR_BYTES >> 10,
                    free,
                    self.capacity_bytes
                ),
            };
        }
        *committed += effective_bytes(&degraded);
        Admission::Degraded {
            spec: degraded,
            shrinks,
        }
    }

    /// Returns a terminal job's commitment. `spec` must be the spec as
    /// admitted (post-degradation).
    pub fn release(&self, spec: &JobSpec) {
        let mut committed = self
            .committed_bytes
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        *committed = committed.saturating_sub(effective_bytes(spec));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use facade_job::Workload;

    fn graph_spec(budget: usize) -> JobSpec {
        JobSpec {
            workload: Workload::PageRank { iterations: 2 },
            budget_bytes: budget,
            ..JobSpec::default()
        }
    }

    #[test]
    fn fits_admit_as_submitted_and_release_frees_capacity() {
        let ctl = AdmissionController::new(8 << 20);
        let spec = graph_spec(4 << 20);
        assert_eq!(ctl.admit(&spec), Admission::AsSubmitted);
        assert_eq!(ctl.committed_bytes(), 4 << 20);
        ctl.release(&spec);
        assert_eq!(ctl.committed_bytes(), 0);
    }

    #[test]
    fn oversized_jobs_walk_shrink_rungs_deterministically() {
        let ctl = AdmissionController::new(2 << 20);
        let verdict = ctl.admit(&graph_spec(8 << 20));
        let Admission::Degraded { spec, shrinks } = verdict else {
            panic!("expected degradation, got {verdict:?}");
        };
        assert_eq!(spec.budget_bytes, 2 << 20, "8 MiB halved twice fits 2 MiB");
        assert_eq!(shrinks, 2);
        // Deterministic: the same submission against the same state gets
        // the same verdict.
        ctl.release(&spec);
        let again = ctl.admit(&graph_spec(8 << 20));
        let Admission::Degraded { spec: spec2, .. } = again else {
            panic!("replay must degrade identically");
        };
        assert_eq!(spec2.budget_bytes, spec.budget_bytes);
    }

    #[test]
    fn unplaceable_jobs_are_rejected_not_panicked() {
        let ctl = AdmissionController::new(1 << 20);
        // Fill capacity.
        assert_eq!(ctl.admit(&graph_spec(1 << 20)), Admission::AsSubmitted);
        // Nothing is free: even the floor cannot fit.
        let verdict = ctl.admit(&graph_spec(1 << 20));
        assert!(matches!(verdict, Admission::Rejected { .. }), "{verdict:?}");
    }

    #[test]
    fn cluster_budgets_count_per_worker() {
        let spec = JobSpec {
            workload: Workload::WordCount,
            workers: 4,
            budget_bytes: 1 << 20,
            ..JobSpec::default()
        };
        assert_eq!(effective_bytes(&spec), 4 << 20);
        let ctl = AdmissionController::new(2 << 20);
        let Admission::Degraded { spec, shrinks } = ctl.admit(&spec) else {
            panic!("4 MiB effective into 2 MiB capacity must degrade");
        };
        assert_eq!(effective_bytes(&spec), 2 << 20);
        assert_eq!(shrinks, 1);
    }
}
