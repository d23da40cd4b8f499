//! Wall-clock accumulation for run phases.

use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Well-known phase names matching the columns of Table 2 in the paper.
pub mod phases {
    /// Data load time (`LT`).
    pub const LOAD: &str = "load";
    /// Engine update time (`UT`).
    pub const UPDATE: &str = "update";
    /// Garbage collection time (`GT`).
    pub const GC: &str = "gc";
}

/// Accumulates wall-clock time under named phases.
///
/// A run's total is tracked independently of the phases, so phases may
/// overlap or leave gaps; `total()` is the time since construction (or the
/// explicitly set total), matching how the paper reports `ET` alongside
/// `UT`/`LT`/`GT` that do not necessarily sum to it.
///
/// # Examples
///
/// ```
/// use metrics::{PhaseTimer, phases};
///
/// let mut t = PhaseTimer::new();
/// let answer = t.time(phases::UPDATE, || 6 * 7);
/// assert_eq!(answer, 42);
/// assert!(t.phase(phases::UPDATE).as_nanos() > 0);
/// assert_eq!(t.phase("nonexistent").as_nanos(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct PhaseTimer {
    origin: Instant,
    phases: HashMap<&'static str, Duration>,
    total_override: Option<Duration>,
}

impl PhaseTimer {
    /// Creates a timer whose total starts accumulating now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            phases: HashMap::new(),
            total_override: None,
        }
    }

    /// Runs `f`, attributing its wall-clock time to `phase`, and returns its
    /// result.
    pub fn time<R>(&mut self, phase: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.add(phase, start.elapsed());
        out
    }

    /// Adds an externally measured duration to `phase`.
    pub fn add(&mut self, phase: &'static str, d: Duration) {
        *self.phases.entry(phase).or_default() += d;
    }

    /// Accumulated time for `phase`; zero if the phase was never timed.
    pub fn phase(&self, phase: &str) -> Duration {
        self.phases.get(phase).copied().unwrap_or(Duration::ZERO)
    }

    /// Total run time: wall clock since construction unless frozen by
    /// [`PhaseTimer::freeze_total`].
    pub fn total(&self) -> Duration {
        self.total_override.unwrap_or_else(|| self.origin.elapsed())
    }

    /// Freezes the total at the current elapsed time, so later reporting does
    /// not keep counting.
    pub fn freeze_total(&mut self) {
        if self.total_override.is_none() {
            self.total_override = Some(self.origin.elapsed());
        }
    }

    /// Folds another timer's phases (and total, summed) into this one. Useful
    /// for aggregating per-worker timers into a run-level report.
    pub fn merge(&mut self, other: &PhaseTimer) {
        for (phase, d) in &other.phases {
            *self.phases.entry(phase).or_default() += *d;
        }
    }

    /// Iterates over `(phase, duration)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, Duration)> + '_ {
        self.phases.iter().map(|(k, v)| (*k, *v))
    }
}

impl Default for PhaseTimer {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::sleep;

    #[test]
    fn phase_timer_attributes_time() {
        let mut t = PhaseTimer::new();
        t.time(phases::LOAD, || sleep(Duration::from_millis(2)));
        t.time(phases::GC, || sleep(Duration::from_millis(1)));
        assert!(t.phase(phases::LOAD) >= Duration::from_millis(2));
        assert!(t.phase(phases::GC) >= Duration::from_millis(1));
        assert!(t.total() >= t.phase(phases::LOAD));
    }

    #[test]
    fn phase_timer_merge_sums_phases() {
        let mut a = PhaseTimer::new();
        a.add(phases::GC, Duration::from_secs(1));
        let mut b = PhaseTimer::new();
        b.add(phases::GC, Duration::from_secs(2));
        b.add(phases::LOAD, Duration::from_secs(1));
        a.merge(&b);
        assert_eq!(a.phase(phases::GC), Duration::from_secs(3));
        assert_eq!(a.phase(phases::LOAD), Duration::from_secs(1));
    }

    #[test]
    fn phase_timer_freeze_total_is_stable() {
        let mut t = PhaseTimer::new();
        sleep(Duration::from_millis(1));
        t.freeze_total();
        let frozen = t.total();
        sleep(Duration::from_millis(2));
        assert_eq!(t.total(), frozen);
    }
}
