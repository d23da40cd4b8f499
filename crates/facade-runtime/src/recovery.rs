//! The failure-response kit every engine shares: catch a unit's failure
//! ([`guarded`]), decide what to do about it ([`Ladder`]), and fork-join a
//! round of workers without losing a panic ([`scoped_each`]).
//!
//! It lives beside the `fault` module that injects the failures it responds
//! to. An engine contributes exactly one thing: its `step_down` — what "one
//! rung lower" means for it (GraphChi halves threads, then the edge budget;
//! Hyracks halves frame bytes / run length). When to retry, how long to
//! back off, what to record and trace are decided here, once.

use metrics::{DegradationAction, FailureCause, OutOfMemory, ResilienceReport, panic_message};
use std::panic::{AssertUnwindSafe, catch_unwind};
use std::time::Duration;

/// Same-rung retries granted to transient failures (worker panics, injected
/// faults) before the ladder steps down. Two, because a transient fault
/// that survives two identical replays is indistinguishable from a
/// deterministic one.
pub const TRANSIENT_RETRIES: u32 = 2;
/// Sleep before the first retry; doubles per response.
pub const BASE_BACKOFF: Duration = Duration::from_millis(1);
/// Backoff ceiling: the whole ladder then sleeps well under a second.
pub const MAX_BACKOFF: Duration = Duration::from_millis(50);

/// Runs one unit of work with both failure modes caught: an `Err` from the
/// work itself becomes [`FailureCause::OutOfMemory`], a panic becomes
/// [`FailureCause::WorkerPanic`]. `AssertUnwindSafe` is sound because every
/// caller discards (and rebuilds) the stores the closure touched whenever
/// it reports a failure.
pub fn guarded<T>(work: impl FnOnce() -> Result<T, OutOfMemory>) -> Result<T, FailureCause> {
    match catch_unwind(AssertUnwindSafe(work)) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(oom)) => Err(FailureCause::OutOfMemory(oom)),
        Err(payload) => Err(FailureCause::WorkerPanic(panic_message(payload.as_ref()))),
    }
}

/// Retry bookkeeping for one run. Rungs are sticky — the engine keeps
/// whatever `step_down` changed for the rest of the run — so a budget that
/// proved too optimistic is not re-trusted every interval.
#[derive(Debug, Default)]
pub struct Ladder {
    rung_retries: u32,
    backoff_step: u32,
}

impl Ladder {
    /// Decides how to respond to `cause`, the failure of `unit` (e.g.
    /// `"interval 3"`, `"map partition 1"`): retry at the same rung
    /// (transient failures, up to [`TRANSIENT_RETRIES`] per rung), or call
    /// `step_down` to move one rung lower. The decision is recorded in
    /// `report`, traced as a `ladder_retry` / `ladder_degrade` instant, and
    /// followed by the backoff sleep.
    ///
    /// # Errors
    ///
    /// Hands `cause` back when `step_down` returns `None` (no rung left):
    /// the run's error — for a memory failure, Table 3's `OME(n)`.
    pub fn respond(
        &mut self,
        unit: &str,
        cause: FailureCause,
        report: &mut ResilienceReport,
        step_down: impl FnOnce() -> Option<DegradationAction>,
    ) -> Result<(), FailureCause> {
        if cause.is_transient() && self.rung_retries < TRANSIENT_RETRIES {
            self.rung_retries += 1;
            report.record_retry(unit, &cause);
            facade_trace::instant(
                "ladder_retry",
                &[
                    ("unit", unit.to_string().into()),
                    ("attempt", self.rung_retries.into()),
                ],
            );
        } else if let Some(action) = step_down() {
            self.rung_retries = 0;
            facade_trace::instant(
                "ladder_degrade",
                &[
                    ("unit", unit.to_string().into()),
                    ("action", action.to_string().into()),
                ],
            );
            report.record_degradation(unit, action, &cause);
        } else {
            return Err(cause);
        }
        std::thread::sleep(self.next_backoff());
        Ok(())
    }

    fn next_backoff(&mut self) -> Duration {
        let factor = 1u32 << self.backoff_step.min(16);
        self.backoff_step += 1;
        BASE_BACKOFF.saturating_mul(factor).min(MAX_BACKOFF)
    }
}

/// Fork-join over scoped threads: one thread per item running
/// `f(index, item)`, joined in item order. A panic that escaped the
/// per-unit [`guarded`] call (e.g. while retiring a store) comes back as
/// its rendered message instead of tearing down the caller.
pub fn scoped_each<I, T, F>(items: I, f: F) -> Vec<Result<T, String>>
where
    I: IntoIterator,
    I::Item: Send,
    T: Send,
    F: Fn(usize, I::Item) -> T + Sync,
{
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = items
            .into_iter()
            .enumerate()
            .map(|(i, item)| scope.spawn(move || f(i, item)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|p| panic_message(p.as_ref())))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oom() -> FailureCause {
        FailureCause::OutOfMemory(OutOfMemory::new(2, 1))
    }

    fn panic() -> FailureCause {
        FailureCause::WorkerPanic("boom".into())
    }

    fn shrink(level: &mut u32) -> Option<DegradationAction> {
        *level += 1;
        Some(DegradationAction::ShrinkBudget { shrink: *level })
    }

    #[test]
    fn transient_budget_resets_per_rung() {
        let mut ladder = Ladder::default();
        let mut report = ResilienceReport::default();
        let mut level = 0;
        // Two retries, then the third transient failure steps down; the new
        // rung gets a fresh budget of two.
        for expected in [(1, 0), (2, 0), (2, 1), (3, 1), (4, 1), (4, 2)] {
            ladder
                .respond("unit", panic(), &mut report, || shrink(&mut level))
                .expect("rungs left");
            assert_eq!((report.retries, report.degradations), expected);
        }
        // A deterministic failure never spends the retry budget.
        ladder
            .respond("unit", oom(), &mut report, || shrink(&mut level))
            .expect("rungs left");
        assert_eq!((report.retries, report.degradations), (4, 3));
        assert_eq!(report.events.last().unwrap().phase, "unit");
    }

    #[test]
    fn backoff_doubles_and_is_capped() {
        let mut ladder = Ladder::default();
        let delays: Vec<Duration> = (0..40).map(|_| ladder.next_backoff()).collect();
        assert_eq!(delays[0], BASE_BACKOFF);
        assert_eq!(delays[1], BASE_BACKOFF * 2);
        assert!(delays.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(delays[39], MAX_BACKOFF, "no overflow past the shift cap");
        assert!(delays.iter().all(|&d| d <= MAX_BACKOFF));
    }

    #[test]
    fn exhausted_step_down_returns_the_original_cause() {
        let mut report = ResilienceReport::default();
        let err = Ladder::default()
            .respond("unit", oom(), &mut report, || None)
            .unwrap_err();
        assert!(matches!(err, FailureCause::OutOfMemory(_)), "{err}");
        assert_eq!(report.degradations, 0);
    }
}
