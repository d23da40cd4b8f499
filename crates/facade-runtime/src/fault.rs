//! Deterministic, seeded fault injection for the paged heap and page pool.
//!
//! Always compiled, never armed by default: every hook is behind a runtime
//! check for an installed plan (an `Option` on [`crate::PagedHeap`], a
//! lock-free flag on [`crate::PagePool`]). A [`FaultPlan`] describes which
//! faults to inject; cloning it shares the underlying counters, so one plan
//! threaded through many per-thread heaps injects faults against the
//! *process-wide* allocation sequence:
//!
//! - **Fail the N-th allocation** — the N-th `alloc`/`alloc_array` across
//!   every heap sharing the plan returns an [`metrics::OutOfMemory`] whose
//!   site is `"fault-injection"`. It fires exactly once, so a retrying
//!   engine survives it.
//! - **Fail pool acquisition with probability p** — each
//!   [`crate::PagePool`] acquire is failed (takes no page and returns
//!   `None`) with the given probability, driven by a seeded counter-based
//!   PRNG, so runs are reproducible. Heaps fall back to fresh pages,
//!   exercising the pool-miss path.
//! - **Poison recycled pages** — every recycled page has its stale region
//!   (`[PAGE_RESERVED, dirty)`) filled with `0xDB`, so any reader of
//!   reclaimed memory sees garbage instead of plausible stale values. The
//!   bump allocator's lazy re-zeroing must erase the poison before reuse;
//!   if it does not, tests fail loudly.
//!
//! # Examples
//!
//! ```
//! use facade_runtime::{FaultPlan, FieldKind, PagedHeap};
//!
//! let plan = FaultPlan::builder(42).fail_nth_allocation(2).build();
//! let mut heap = PagedHeap::new();
//! heap.set_fault_plan(plan.clone());
//! let t = heap.register_type("T", &[FieldKind::I32]);
//! assert!(heap.alloc(t).is_ok());
//! let err = heap.alloc(t).unwrap_err();
//! assert!(err.is_injected());
//! assert!(heap.alloc(t).is_ok(), "the fault fires exactly once");
//! assert_eq!(plan.faults_injected(), 1);
//! ```

use std::sync::Arc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// SplitMix64: a tiny, high-quality mixing function. Used counter-based
/// (`mix(seed ^ draw_index)`) so probabilistic faults are a pure function
/// of the seed and the draw sequence — fully reproducible.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[derive(Debug)]
struct Inner {
    seed: u64,
    fail_nth_allocation: Option<u64>,
    pool_acquire_failure_ppm: u32,
    poison_recycled_pages: bool,
    crash_at_interval: Option<u64>,
    crash_in_phase: Option<u64>,
    torn_checkpoint_writes: bool,
    allocations: AtomicU64,
    draws: AtomicU64,
    injected: AtomicU64,
    poisoned: AtomicU64,
    interval_crash_fired: AtomicBool,
    phase_crash_fired: AtomicBool,
}

/// A deterministic fault schedule, shared (via clone) across every heap and
/// pool of a run. See the `fault` module docs for the fault modes.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    inner: Arc<Inner>,
}

impl FaultPlan {
    /// Starts building a plan seeded with `seed` (the seed only matters for
    /// probabilistic faults).
    pub fn builder(seed: u64) -> FaultPlanBuilder {
        FaultPlanBuilder {
            seed,
            fail_nth_allocation: None,
            pool_acquire_failure_ppm: 0,
            poison_recycled_pages: false,
            crash_at_interval: None,
            crash_in_phase: None,
            torn_checkpoint_writes: false,
        }
    }

    /// Decides whether the current allocation should fail. Counts one
    /// allocation per call; the configured N-th one (across all sharers of
    /// this plan) fails, exactly once.
    pub fn should_fail_allocation(&self) -> bool {
        let Some(n) = self.inner.fail_nth_allocation else {
            // Still count, so interleaved plans observe a consistent stream.
            self.inner.allocations.fetch_add(1, Ordering::Relaxed);
            return false;
        };
        let this = self.inner.allocations.fetch_add(1, Ordering::Relaxed) + 1;
        if this == n {
            self.inner.injected.fetch_add(1, Ordering::Relaxed);
            facade_trace::instant(
                "fault_injected",
                &[("kind", "allocation".into()), ("nth", this.into())],
            );
            true
        } else {
            false
        }
    }

    /// Decides whether the current one-page pool acquire should fail
    /// (return `None`). Deterministic in (seed, draw index).
    pub fn should_fail_pool_acquire(&self) -> bool {
        let ppm = self.inner.pool_acquire_failure_ppm;
        if ppm == 0 {
            return false;
        }
        let draw = self.inner.draws.fetch_add(1, Ordering::Relaxed);
        if splitmix64(self.inner.seed ^ draw) % 1_000_000 < u64::from(ppm) {
            self.inner.injected.fetch_add(1, Ordering::Relaxed);
            facade_trace::instant(
                "fault_injected",
                &[("kind", "pool_acquire".into()), ("draw", draw.into())],
            );
            true
        } else {
            false
        }
    }

    /// Whether recycled pages should have their stale region poisoned.
    pub fn poison_recycled_pages(&self) -> bool {
        self.inner.poison_recycled_pages
    }

    /// Records one poisoned page.
    pub(crate) fn note_poisoned(&self) {
        self.inner.poisoned.fetch_add(1, Ordering::Relaxed);
    }

    /// Total faults injected so far (failed allocations + failed pool
    /// acquires; poisoning is counted separately by
    /// [`FaultPlan::pages_poisoned`]).
    pub fn faults_injected(&self) -> u64 {
        self.inner.injected.load(Ordering::Relaxed)
    }

    /// Total pages whose stale region was poisoned.
    pub fn pages_poisoned(&self) -> u64 {
        self.inner.poisoned.load(Ordering::Relaxed)
    }

    /// Decides whether the process should crash now, `committed` being the
    /// number of intervals committed so far in this run (1-based: the
    /// first commit reports `1`). Fires exactly once — the restarted run
    /// shares no counters with the crashed one, and a fresh plan is
    /// normally not configured to crash again.
    pub fn should_crash_at_interval(&self, committed: u64) -> bool {
        let Some(n) = self.inner.crash_at_interval else {
            return false;
        };
        if committed >= n
            && !self
                .inner
                .interval_crash_fired
                .swap(true, Ordering::Relaxed)
        {
            self.inner.injected.fetch_add(1, Ordering::Relaxed);
            facade_trace::instant(
                "fault_injected",
                &[("kind", "crash_interval".into()), ("at", committed.into())],
            );
            return true;
        }
        false
    }

    /// Decides whether the process should crash entering job phase
    /// `phase` (0-based). Fires exactly once.
    pub fn should_crash_in_phase(&self, phase: u64) -> bool {
        let Some(p) = self.inner.crash_in_phase else {
            return false;
        };
        if phase == p && !self.inner.phase_crash_fired.swap(true, Ordering::Relaxed) {
            self.inner.injected.fetch_add(1, Ordering::Relaxed);
            facade_trace::instant(
                "fault_injected",
                &[("kind", "crash_phase".into()), ("phase", phase.into())],
            );
            return true;
        }
        false
    }

    /// Whether checkpoint writes should be torn (truncated, bypassing the
    /// atomic-rename protocol). Unlike the crash faults this applies to
    /// *every* write while armed, so whatever checkpoint a crashed run
    /// leaves behind is guaranteed damaged. Counts one injected fault per
    /// call that returns `true`.
    pub fn tear_checkpoint_write(&self) -> bool {
        if !self.inner.torn_checkpoint_writes {
            return false;
        }
        self.inner.injected.fetch_add(1, Ordering::Relaxed);
        facade_trace::instant("fault_injected", &[("kind", "torn_checkpoint".into())]);
        true
    }
}

/// Builder for [`FaultPlan`].
#[derive(Debug, Clone)]
pub struct FaultPlanBuilder {
    seed: u64,
    fail_nth_allocation: Option<u64>,
    pool_acquire_failure_ppm: u32,
    poison_recycled_pages: bool,
    crash_at_interval: Option<u64>,
    crash_in_phase: Option<u64>,
    torn_checkpoint_writes: bool,
}

impl FaultPlanBuilder {
    /// Fail the `n`-th allocation (1-based) across all sharers of the plan.
    #[must_use]
    pub fn fail_nth_allocation(mut self, n: u64) -> Self {
        self.fail_nth_allocation = Some(n);
        self
    }

    /// Fail each one-page pool acquire (it returns `None`) with
    /// probability `ppm` parts per million (1_000_000 = always fail).
    #[must_use]
    pub fn pool_acquire_failure_ppm(mut self, ppm: u32) -> Self {
        self.pool_acquire_failure_ppm = ppm.min(1_000_000);
        self
    }

    /// Poison the stale region of every recycled page with `0xDB`.
    #[must_use]
    pub fn poison_recycled_pages(mut self) -> Self {
        self.poison_recycled_pages = true;
        self
    }

    /// Abort the run after the `n`-th committed interval (1-based) — the
    /// GraphChi process-crash fault. The checkpoint for that interval is
    /// written first, so a restart has a durable boundary to resume from.
    #[must_use]
    pub fn crash_at_interval(mut self, n: u64) -> Self {
        self.crash_at_interval = Some(n);
        self
    }

    /// Abort the run entering job phase `p` (0-based) — the Hyracks
    /// process-crash fault.
    #[must_use]
    pub fn crash_in_phase(mut self, p: u64) -> Self {
        self.crash_in_phase = Some(p);
        self
    }

    /// Tear every checkpoint write: truncate the manifest mid-encoding and
    /// skip the atomic rename, so recovery must detect the damage and fall
    /// back to a cold start.
    #[must_use]
    pub fn torn_checkpoint_writes(mut self) -> Self {
        self.torn_checkpoint_writes = true;
        self
    }

    /// Finalizes the plan.
    pub fn build(self) -> FaultPlan {
        FaultPlan {
            inner: Arc::new(Inner {
                seed: self.seed,
                fail_nth_allocation: self.fail_nth_allocation,
                pool_acquire_failure_ppm: self.pool_acquire_failure_ppm,
                poison_recycled_pages: self.poison_recycled_pages,
                crash_at_interval: self.crash_at_interval,
                crash_in_phase: self.crash_in_phase,
                torn_checkpoint_writes: self.torn_checkpoint_writes,
                allocations: AtomicU64::new(0),
                draws: AtomicU64::new(0),
                injected: AtomicU64::new(0),
                poisoned: AtomicU64::new(0),
                interval_crash_fired: AtomicBool::new(false),
                phase_crash_fired: AtomicBool::new(false),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nth_allocation_fails_exactly_once_across_clones() {
        let plan = FaultPlan::builder(0).fail_nth_allocation(3).build();
        let clone = plan.clone();
        assert!(!plan.should_fail_allocation());
        assert!(!clone.should_fail_allocation());
        assert!(plan.should_fail_allocation(), "third allocation fails");
        assert!(!clone.should_fail_allocation());
        assert_eq!(plan.faults_injected(), 1);
    }

    #[test]
    fn pool_failures_are_deterministic_in_the_seed() {
        let draw = |seed: u64| -> Vec<bool> {
            let plan = FaultPlan::builder(seed)
                .pool_acquire_failure_ppm(300_000)
                .build();
            (0..64).map(|_| plan.should_fail_pool_acquire()).collect()
        };
        assert_eq!(draw(7), draw(7), "same seed, same schedule");
        assert_ne!(draw(7), draw(8), "different seed, different schedule");
        let hits = draw(7).iter().filter(|&&b| b).count();
        assert!(hits > 0 && hits < 64, "p=0.3 is neither never nor always");
    }

    #[test]
    fn crash_faults_fire_exactly_once() {
        let plan = FaultPlan::builder(0).crash_at_interval(2).build();
        assert!(!plan.should_crash_at_interval(1));
        assert!(plan.should_crash_at_interval(2), "second commit crashes");
        assert!(!plan.should_crash_at_interval(3), "fires exactly once");
        assert_eq!(plan.faults_injected(), 1);

        let plan = FaultPlan::builder(0).crash_in_phase(1).build();
        assert!(!plan.should_crash_in_phase(0));
        assert!(plan.should_crash_in_phase(1));
        assert!(!plan.should_crash_in_phase(1), "fires exactly once");
    }

    #[test]
    fn torn_mode_tears_every_write() {
        let plan = FaultPlan::builder(0).torn_checkpoint_writes().build();
        assert!(plan.tear_checkpoint_write());
        assert!(plan.tear_checkpoint_write());
        let clean = FaultPlan::builder(0).build();
        assert!(!clean.tear_checkpoint_write());
        assert!(!clean.should_crash_at_interval(5));
        assert!(!clean.should_crash_in_phase(0));
    }

    #[test]
    fn always_fail_ppm_saturates() {
        let plan = FaultPlan::builder(1)
            .pool_acquire_failure_ppm(2_000_000)
            .build();
        assert!((0..32).all(|_| plan.should_fail_pool_acquire()));
    }
}
