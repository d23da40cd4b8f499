//! Failure observability: retries, degradations, and survived faults.
//!
//! The engines degrade instead of dying under memory pressure (fewer
//! threads, smaller per-worker budgets, serial fallback). This module makes
//! that behaviour observable: every retry and every rung of the degradation
//! ladder is recorded as a [`DegradationEvent`], and the aggregate counts
//! travel with the run's [`ResilienceReport`] so robustness shows up in
//! reports rather than vanishing into a successful exit code.

use std::fmt;

/// What the runtime did in response to one failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DegradationAction {
    /// The failed unit was retried at the same configuration (transient
    /// failures: worker panics, injected faults).
    Retry,
    /// The engine dropped to fewer worker threads.
    ReduceThreads {
        /// Thread count before the reduction.
        from: usize,
        /// Thread count after the reduction.
        to: usize,
    },
    /// The engine shrank the per-worker work budget (subinterval size,
    /// frame bytes, run length) by `2^shrink`.
    ShrinkBudget {
        /// Cumulative right-shift applied to the budget.
        shrink: u32,
    },
}

impl fmt::Display for DegradationAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradationAction::Retry => write!(f, "retry"),
            DegradationAction::ReduceThreads { from, to } => {
                write!(f, "reduce threads {from} -> {to}")
            }
            DegradationAction::ShrinkBudget { shrink } => {
                write!(f, "shrink budget by 2^{shrink}")
            }
        }
    }
}

/// One recorded failure response: where it happened, what failed, and what
/// the runtime did about it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradationEvent {
    /// The failing unit of work, e.g. `"interval 3"` or `"map partition 1"`.
    pub phase: String,
    /// The action taken in response.
    pub action: DegradationAction,
    /// Human-readable cause (the rendered error).
    pub cause: String,
}

impl fmt::Display for DegradationEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} ({})", self.phase, self.action, self.cause)
    }
}

/// Aggregate failure-handling record for one run.
///
/// A clean run has all counters at zero; a run that survived pressure shows
/// how much ladder it consumed. Merging combines reports from phases of the
/// same job.
///
/// The event log is bounded: only the most recent
/// [`ResilienceReport::MAX_EVENTS`] events are kept (the counters always
/// count everything), so a long fault-injection sweep cannot grow a report
/// without bound. [`ResilienceReport::events_dropped`] says how many
/// older events the cap evicted.
///
/// ```
/// use metrics::ResilienceReport;
///
/// let mut report = ResilienceReport::default();
/// for i in 0..1_000u32 {
///     report.record_retry(format!("interval {i}"), "injected fault");
/// }
/// assert_eq!(report.retries, 1_000);
/// assert_eq!(report.events.len(), ResilienceReport::MAX_EVENTS);
/// assert_eq!(report.events_dropped, 1_000 - ResilienceReport::MAX_EVENTS as u64);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResilienceReport {
    /// Same-configuration retries (transient failures).
    pub retries: u64,
    /// Ladder steps taken (thread reductions + budget shrinks).
    pub degradations: u64,
    /// Faults the harness injected that the run nonetheless survived.
    pub faults_injected: u64,
    /// Checkpoint manifests durably committed at interval/phase
    /// boundaries. Writing checkpoints is normal operation, so this
    /// counter alone does not make a run "unclean".
    pub checkpoints_written: u64,
    /// Runs resumed from a verified checkpoint instead of cold-starting.
    pub recoveries: u64,
    /// Checkpoints that failed verification (torn write, corruption) and
    /// were discarded, forcing a cold start.
    pub torn_checkpoints_discarded: u64,
    /// The most recent events, in order of occurrence, capped at
    /// [`ResilienceReport::MAX_EVENTS`].
    pub events: Vec<DegradationEvent>,
    /// Events evicted by the cap (oldest first). `0` means `events` is the
    /// complete log.
    pub events_dropped: u64,
}

impl ResilienceReport {
    /// Upper bound on the retained event log. Old events rotate out
    /// first; the `retries`/`degradations` counters are unaffected.
    pub const MAX_EVENTS: usize = 256;

    fn push_event(&mut self, event: DegradationEvent) {
        if self.events.len() >= Self::MAX_EVENTS {
            self.events.remove(0);
            self.events_dropped += 1;
        }
        self.events.push(event);
    }

    /// Records a same-rung retry.
    pub fn record_retry(&mut self, phase: impl Into<String>, cause: impl fmt::Display) {
        self.retries += 1;
        self.push_event(DegradationEvent {
            phase: phase.into(),
            action: DegradationAction::Retry,
            cause: cause.to_string(),
        });
    }

    /// Records a ladder step.
    pub fn record_degradation(
        &mut self,
        phase: impl Into<String>,
        action: DegradationAction,
        cause: impl fmt::Display,
    ) {
        self.degradations += 1;
        self.push_event(DegradationEvent {
            phase: phase.into(),
            action,
            cause: cause.to_string(),
        });
    }

    /// Folds another report into this one (e.g. per-phase reports of a job).
    /// The merged log keeps the newest [`ResilienceReport::MAX_EVENTS`]
    /// events across both reports.
    pub fn merge(&mut self, other: &ResilienceReport) {
        self.retries += other.retries;
        self.degradations += other.degradations;
        self.faults_injected += other.faults_injected;
        self.checkpoints_written += other.checkpoints_written;
        self.recoveries += other.recoveries;
        self.torn_checkpoints_discarded += other.torn_checkpoints_discarded;
        self.events_dropped += other.events_dropped;
        for event in &other.events {
            self.push_event(event.clone());
        }
    }

    /// Whether the run needed any failure handling at all. Checkpoint
    /// *writes* are routine and don't count; resuming from one (or
    /// discarding a damaged one) does.
    pub fn is_clean(&self) -> bool {
        self.retries == 0
            && self.degradations == 0
            && self.faults_injected == 0
            && self.recoveries == 0
            && self.torn_checkpoints_discarded == 0
    }
}

impl fmt::Display for ResilienceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "retries {}, degradations {}, faults injected {}",
            self.retries, self.degradations, self.faults_injected
        )?;
        if self.checkpoints_written + self.recoveries + self.torn_checkpoints_discarded > 0 {
            write!(
                f,
                ", checkpoints {}, recoveries {}, torn discarded {}",
                self.checkpoints_written, self.recoveries, self.torn_checkpoints_discarded
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_report_is_clean() {
        assert!(ResilienceReport::default().is_clean());
    }

    #[test]
    fn recording_updates_counters_and_events() {
        let mut r = ResilienceReport::default();
        r.record_retry("interval 0", "worker panicked");
        r.record_degradation(
            "interval 0",
            DegradationAction::ReduceThreads { from: 4, to: 1 },
            "out of memory",
        );
        r.record_degradation(
            "interval 0",
            DegradationAction::ShrinkBudget { shrink: 2 },
            "out of memory",
        );
        assert_eq!(r.retries, 1);
        assert_eq!(r.degradations, 2);
        assert_eq!(r.events.len(), 3);
        assert!(!r.is_clean());
        let text = r.events[1].to_string();
        assert!(text.contains("reduce threads 4 -> 1"), "{text}");
    }

    #[test]
    fn merge_sums_counts_and_concatenates_events() {
        let mut a = ResilienceReport::default();
        a.record_retry("map partition 0", "injected fault");
        a.faults_injected = 3;
        let mut b = ResilienceReport::default();
        b.record_degradation(
            "interval 1",
            DegradationAction::ShrinkBudget { shrink: 1 },
            "oom",
        );
        a.merge(&b);
        assert_eq!(a.retries, 1);
        assert_eq!(a.degradations, 1);
        assert_eq!(a.faults_injected, 3);
        assert_eq!(a.events.len(), 2);
        assert_eq!(a.events_dropped, 0, "under the cap nothing is dropped");
    }

    #[test]
    fn event_log_is_bounded_under_a_long_fault_sweep() {
        // Regression: the event log used to grow one entry per retry
        // forever, so a long fault-injection sweep grew memory linearly
        // with the fault count.
        let mut r = ResilienceReport::default();
        let total = 10 * ResilienceReport::MAX_EVENTS as u64;
        for i in 0..total {
            r.record_retry(format!("interval {i}"), "injected fault");
        }
        assert_eq!(r.retries, total, "counters still count everything");
        assert_eq!(r.events.len(), ResilienceReport::MAX_EVENTS);
        assert_eq!(
            r.events_dropped,
            total - ResilienceReport::MAX_EVENTS as u64
        );
        // The retained window is the newest events, oldest evicted first.
        assert_eq!(r.events[0].phase, format!("interval {}", r.events_dropped));
        assert_eq!(
            r.events.last().unwrap().phase,
            format!("interval {}", total - 1)
        );
    }

    #[test]
    fn checkpoint_counters_merge_and_shape_cleanliness() {
        let mut a = ResilienceReport {
            checkpoints_written: 4,
            ..ResilienceReport::default()
        };
        assert!(a.is_clean(), "writing checkpoints is routine");
        let b = ResilienceReport {
            recoveries: 1,
            torn_checkpoints_discarded: 2,
            ..ResilienceReport::default()
        };
        assert!(!b.is_clean(), "a resumed run is not a clean run");
        a.merge(&b);
        assert_eq!(
            (
                a.checkpoints_written,
                a.recoveries,
                a.torn_checkpoints_discarded
            ),
            (4, 1, 2)
        );
        let text = a.to_string();
        assert!(text.contains("checkpoints 4"), "{text}");
    }

    #[test]
    fn merge_respects_the_cap() {
        let mut a = ResilienceReport::default();
        let mut b = ResilienceReport::default();
        for i in 0..200 {
            a.record_retry(format!("a {i}"), "fault");
            b.record_retry(format!("b {i}"), "fault");
        }
        a.merge(&b);
        assert_eq!(a.retries, 400);
        assert_eq!(a.events.len(), ResilienceReport::MAX_EVENTS);
        assert_eq!(a.events_dropped, 400 - ResilienceReport::MAX_EVENTS as u64);
        assert_eq!(a.events.last().unwrap().phase, "b 199");
    }
}
