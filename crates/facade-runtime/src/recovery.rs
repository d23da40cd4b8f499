//! The failure-response kit every engine shares: catch a unit's failure
//! ([`guarded`]), decide what to do about it ([`Ladder`]), fork-join
//! without losing a panic ([`scoped_each`]), and run a round of units over
//! a pool of workers with one deterministic verdict ([`round`]).
//!
//! It lives beside the `fault` module that injects the failures it responds
//! to. An engine contributes exactly one thing: its `step_down` — what "one
//! rung lower" means for it (GraphChi halves threads, then the edge budget;
//! Hyracks halves frame bytes / run length). When to retry, how long to
//! back off, what to record and trace are decided here, once.

use metrics::{DegradationAction, FailureCause, ResilienceReport, panic_message};
use std::any::Any;
use std::panic::{AssertUnwindSafe, catch_unwind};
use std::sync::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
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
/// work itself becomes its [`FailureCause`] (an [`OutOfMemory`] becomes
/// [`FailureCause::OutOfMemory`]), a panic becomes
/// [`FailureCause::WorkerPanic`]. `AssertUnwindSafe` is sound because every
/// caller discards (and rebuilds) the stores the closure touched whenever
/// it reports a failure.
///
/// [`OutOfMemory`]: metrics::OutOfMemory
pub fn guarded<T, E: Into<FailureCause>>(
    work: impl FnOnce() -> Result<T, E>,
) -> Result<T, FailureCause> {
    match catch_unwind(AssertUnwindSafe(work)) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err(e.into()),
        Err(payload) => Err(FailureCause::WorkerPanic(escaped(payload))),
    }
}

fn escaped(payload: Box<dyn Any + Send>) -> String {
    panic_message(payload.as_ref())
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
    /// the run's error — for a memory failure, Table 3's `OME(n)`. A
    /// [`FailureCause::Canceled`] comes straight back, unrecorded: the host
    /// asked for it, so there is nothing to retry or degrade.
    pub fn respond(
        &mut self,
        unit: &str,
        cause: FailureCause,
        report: &mut ResilienceReport,
        step_down: impl FnOnce() -> Option<DegradationAction>,
    ) -> Result<(), FailureCause> {
        if matches!(cause, FailureCause::Canceled) {
            return Err(cause);
        }
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

/// Fork-join over scoped threads, one item per thread, running
/// `f(index, item)` and returning the results in item order. The first
/// item runs on the calling thread — which would otherwise only wait — so
/// a single item spawns nothing. A panic that escaped the per-unit
/// [`guarded`] call (e.g. while retiring a store) comes back as its
/// rendered message instead of tearing down the caller.
pub fn scoped_each<I, T, F>(items: I, f: F) -> Vec<Result<T, String>>
where
    I: IntoIterator,
    I::Item: Send,
    T: Send,
    F: Fn(usize, I::Item) -> T + Sync,
{
    std::thread::scope(|scope| {
        let f = &f;
        let mut items = items.into_iter().enumerate();
        let first = items.next();
        let handles: Vec<_> = items
            .map(|(i, item)| scope.spawn(move || f(i, item)))
            .collect();
        let first = first.map(|(i, item)| catch_unwind(AssertUnwindSafe(|| f(i, item))));
        first
            .into_iter()
            .chain(handles.into_iter().map(|h| h.join()))
            .map(|joined| joined.map_err(escaped))
            .collect()
    })
}

/// The failure a [`round`] reports: which unit, and why.
#[derive(Debug)]
pub struct UnitFailure {
    /// The failing unit's id.
    pub unit: usize,
    /// What went wrong.
    pub cause: FailureCause,
}

/// What a [`round`] produced.
#[derive(Debug)]
pub struct Round<R, T> {
    /// What each worker's closure returned, in worker order; a worker lost
    /// to a panic outside [`Claims::run_next`] has no entry.
    pub workers: Vec<R>,
    /// `payloads[unit]` is the unit's result if it succeeded.
    pub payloads: Vec<Option<T>>,
    /// The round's one verdict: the failure of the *lowest* failing unit
    /// id, whichever worker hit it and whenever — so the error a run
    /// reports does not depend on the thread count. `None` means every
    /// unit has a payload.
    pub failure: Option<UnitFailure>,
}

/// A unit's slot: how it ended. Written once, whole, under its lock, so
/// even a poisoned lock guards a valid value.
type Slot<T> = Mutex<Option<Result<T, FailureCause>>>;

/// What every worker of a [`round`] shares: the claim cursor and the
/// unit-indexed outcome slots.
#[derive(Debug)]
pub struct Claims<'a, T> {
    cursor: &'a AtomicUsize,
    slots: &'a [Slot<T>],
}

impl<T> Claims<'_, T> {
    /// Claims the next unit id and runs `work(unit)` under [`guarded`],
    /// filing the outcome in the unit's slot — a claim is never dropped
    /// unanswered. `None` once every unit has been claimed; otherwise
    /// whether the unit succeeded, so the worker can decide what a failure
    /// means for the state it ran on.
    pub fn run_next<E: Into<FailureCause>>(
        &self,
        work: impl FnOnce(usize) -> Result<T, E>,
    ) -> Option<bool> {
        // A ticket counter: it publishes nothing (outcomes go through the
        // slot locks, the join orders the rest), so `Relaxed` suffices.
        let unit = self.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = self.slots.get(unit)?;
        let outcome = guarded(|| work(unit));
        let ok = outcome.is_ok();
        *slot.lock().unwrap_or_else(|p| p.into_inner()) = Some(outcome);
        Some(ok)
    }
}

/// Runs units `0..units` over a pool of workers, one per item of `workers`
/// (forked by [`scoped_each`], so one worker runs on the calling thread).
/// `work(item, claims)` is a worker's whole life: it owns `item` — for the
/// engines, its store — exclusively, drains [`Claims::run_next`] until it
/// answers `None` (or the worker gives up), and tears down. Every unit is
/// claimed at most once, in id order, and its outcome lands in the slot
/// its id indexes, so neither who ran a unit nor when can show in the
/// result.
///
/// A worker that panics *outside* `run_next` is lost: the outcomes it
/// already filed stand, but the round fails with its panic message,
/// charged to the lowest unit left with no outcome (or to the last unit,
/// if it died tearing down after all of them).
pub fn round<I, R, T, F>(workers: I, units: usize, work: F) -> Round<R, T>
where
    I: IntoIterator,
    I::Item: Send,
    R: Send,
    T: Send,
    F: Fn(I::Item, &Claims<'_, T>) -> R + Sync,
{
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Slot<T>> = (0..units).map(|_| Mutex::new(None)).collect();
    let claims = Claims {
        cursor: &cursor,
        slots: &slots,
    };
    let joined = scoped_each(workers, |_, item| work(item, &claims));

    let mut lost: Option<String> = None;
    let mut returned = Vec::with_capacity(joined.len());
    for result in joined {
        match result {
            Ok(r) => returned.push(r),
            Err(message) => lost = lost.or(Some(message)),
        }
    }
    // What a unit nobody answered for is charged with. With no lost worker
    // every worker gave up early, which the engines do only behind a
    // failure of their own — a lower unit, so this one is not the verdict.
    let unanswered = |unit| UnitFailure {
        unit,
        cause: FailureCause::WorkerPanic(
            lost.clone()
                .unwrap_or_else(|| "unit produced no result".to_string()),
        ),
    };
    let mut failure: Option<UnitFailure> = None;
    let payloads = slots
        .into_iter()
        .enumerate()
        .map(|(unit, slot)| {
            match slot.into_inner().unwrap_or_else(|p| p.into_inner()) {
                Some(Ok(payload)) => return Some(payload),
                Some(Err(cause)) => failure.get_or_insert(UnitFailure { unit, cause }),
                None => failure.get_or_insert_with(|| unanswered(unit)),
            };
            None
        })
        .collect();
    if failure.is_none() && lost.is_some() {
        failure = Some(unanswered(units.saturating_sub(1)));
    }
    Round {
        workers: returned,
        payloads,
        failure,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::OutOfMemory;

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
    fn message(failure: &UnitFailure) -> &str {
        match &failure.cause {
            FailureCause::WorkerPanic(message) => message,
            other => panic!("expected a worker panic, got {other}"),
        }
    }

    /// A unit body for rounds whose payload is the unit id.
    fn id(unit: usize) -> Result<usize, FailureCause> {
        Ok(unit)
    }

    #[test]
    fn every_unit_is_claimed_exactly_once_by_eight_workers() {
        let runs: Vec<AtomicUsize> = (0..1_000).map(|_| AtomicUsize::new(0)).collect();
        let out = round(0..8, runs.len(), |_, claims| {
            let mut mine = 0usize;
            while claims
                .run_next(|unit| {
                    runs[unit].fetch_add(1, Ordering::Relaxed);
                    id(unit)
                })
                .is_some()
            {
                mine += 1;
            }
            mine
        });
        assert!(out.failure.is_none(), "{:?}", out.failure);
        assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1));
        assert_eq!(out.workers.iter().sum::<usize>(), 1_000);
        let payloads: Vec<usize> = out.payloads.into_iter().flatten().collect();
        assert_eq!(payloads, (0..1_000).collect::<Vec<_>>(), "slots key by id");
    }

    #[test]
    fn one_worker_runs_in_unit_order_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let out = round(0..1, 10, |_, claims| {
            let mut order = Vec::new();
            while claims
                .run_next(|unit| {
                    order.push(unit);
                    id(unit)
                })
                .is_some()
            {}
            (std::thread::current().id(), order)
        });
        assert_eq!(out.workers, vec![(caller, (0..10).collect::<Vec<_>>())]);
        assert!(out.failure.is_none());
    }

    #[test]
    fn a_failed_unit_is_answered_and_the_worker_decides_what_follows() {
        // Panic and error are both filed against the unit; the worker sees
        // `Some(false)` and here carries on, so the tail still runs.
        let out = round(0..1, 4, |_, claims| {
            let mut seen = Vec::new();
            while let Some(ok) = claims.run_next(|unit| match unit {
                1 => Err(oom()),
                2 => panic!("unit two"),
                _ => Ok(unit),
            }) {
                seen.push(ok);
            }
            seen
        });
        assert_eq!(out.workers, vec![vec![true, false, false, true]]);
        assert_eq!(out.payloads, vec![Some(0), None, None, Some(3)]);
        let failure = out.failure.expect("two units failed");
        assert_eq!(failure.unit, 1);
        assert!(matches!(failure.cause, FailureCause::OutOfMemory(_)));
    }

    #[test]
    fn the_verdict_is_the_lowest_failing_unit_whoever_failed_first() {
        use std::sync::mpsc;
        // Unit 1 cannot fail until unit 3 has: whichever worker holds it
        // blocks while the other runs ahead. The verdict is unit 1 anyway.
        let (failed_first, gate) = mpsc::channel::<()>();
        let (failed_first, gate) = (Mutex::new(failed_first), Mutex::new(gate));
        let out = round(0..2, 5, |_, claims| {
            while claims
                .run_next(|unit| match unit {
                    1 => {
                        gate.lock().unwrap().recv().expect("unit 3 signals");
                        Err(FailureCause::WorkerPanic("late, low".into()))
                    }
                    3 => {
                        failed_first.lock().unwrap().send(()).expect("unit 1 waits");
                        Err(FailureCause::WorkerPanic("early, high".into()))
                    }
                    _ => Ok(unit),
                })
                .is_some()
            {}
        });
        assert_eq!(out.payloads, vec![Some(0), None, Some(2), None, Some(4)]);
        let failure = out.failure.expect("two units failed");
        assert_eq!(failure.unit, 1);
        assert_eq!(message(&failure), "late, low");
    }

    #[test]
    fn a_lost_worker_keeps_what_it_filed_and_the_sweep_names_its_message() {
        // Alone: unit 0 is filed, then the worker dies outside the per-unit
        // catch. Everything it never claimed is charged to its message,
        // lowest unit first — and the caller is not torn down with it.
        let out = round(0..1, 3, |_, claims| {
            claims.run_next(id);
            panic!("died retiring");
        });
        assert!(out.workers.is_empty());
        assert_eq!(out.payloads, vec![Some(0), None, None]);
        let failure = out.failure.expect("the worker was lost");
        assert_eq!(failure.unit, 1);
        assert_eq!(message(&failure), "died retiring");

        // With a sibling: the sibling drains the cursor, so every unit has
        // a payload, and the loss still fails the round.
        let out = round(0..2, 50, |w, claims| {
            if w == 1 {
                claims.run_next(id);
                panic!("died retiring");
            }
            while claims.run_next(id).is_some() {}
        });
        assert_eq!(out.workers.len(), 1);
        let payloads: Vec<usize> = out.payloads.into_iter().flatten().collect();
        assert_eq!(payloads, (0..50).collect::<Vec<_>>());
        let failure = out.failure.expect("the worker was lost");
        assert_eq!(failure.unit, 49);
        assert_eq!(message(&failure), "died retiring");
    }

    #[test]
    fn a_cancel_is_handed_back_unrecorded() {
        let mut report = ResilienceReport::default();
        let mut level = 0;
        let err = Ladder::default()
            .respond("unit", FailureCause::Canceled, &mut report, || {
                shrink(&mut level)
            })
            .unwrap_err();
        assert!(matches!(err, FailureCause::Canceled));
        assert!(report.is_clean() && level == 0);
    }
}
