//! Scaling-bottleneck analysis over facade-trace timelines.
//!
//! facade-trace records *what happened*; this crate answers *why threading
//! does or does not pay*. [`Profile::build`] consumes a drained timeline
//! and produces:
//!
//! - **per-thread lanes** — busy/idle accounting per recorder tid;
//! - **per-phase concurrency histograms** — how many workers were actually
//!   inside `sub_load` / `job_phase` / ... at once, not how many were hired;
//! - **self-time vs. child-time attribution** — each span name's leaf time
//!   (innermost owner) next to its inclusive total;
//! - **critical-path extraction** — a backward sweep from the last event
//!   through same-lane activity, falling over to the last-active lane when
//!   a lane runs dry, attributing every nanosecond of the window to a span
//!   name or to `(wait)`;
//! - an **Amdahl serial-fraction estimate** — the measured fraction of the
//!   window with ≤ 1 busy worker, plus the speedup ceiling it implies
//!   ([`Profile::projected_speedup`]) and the phase dominating that serial
//!   time.
//!
//! The input type [`ProfEvent`] differs from [`facade_trace::TraceEvent`]
//! only in owning its name, so the `facadeprof` CLI can rebuild events
//! from an exported Chrome trace as easily as from a live drain;
//! [`from_trace`] converts a drain wholesale.
//!
//! ```
//! facade_trace::set_enabled(true);
//! let _span = facade_trace::span!("doc_phase");
//! drop(_span);
//! let events = facade_prof::from_trace(&facade_trace::drain());
//! assert!(events.iter().any(|e| e.name == "doc_phase"
//!     && matches!(e.kind, facade_prof::EventKind::Span { .. })));
//! let profile = facade_prof::Profile::build(&events);
//! assert!(profile.serial_fraction <= 1.0);
//! let json = profile.to_json();
//! assert!(json.starts_with('{') && json.ends_with('}'));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod analyze;
mod report;

use std::collections::BTreeMap;

pub use facade_trace::{EventKind, TraceEvent};

/// One event to profile. Built from a live drain ([`from_trace`]) or parsed
/// back out of a Chrome trace export.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfEvent {
    /// Event name (span or instant name).
    pub name: String,
    /// Dense recorder thread id (one profiling lane per tid).
    pub tid: u64,
    /// Start time in nanoseconds since the trace epoch.
    pub ts_ns: u64,
    /// Span or instant payload.
    pub kind: EventKind,
}

impl From<&TraceEvent> for ProfEvent {
    fn from(e: &TraceEvent) -> Self {
        ProfEvent {
            name: e.name.to_string(),
            tid: e.tid,
            ts_ns: e.ts_ns,
            kind: e.kind,
        }
    }
}

/// Converts a drained facade-trace timeline into profiler events.
pub fn from_trace(events: &[TraceEvent]) -> Vec<ProfEvent> {
    events.iter().map(ProfEvent::from).collect()
}

/// Critical-path label for time where the chain was stalled: a gap between
/// the previous activity and the next span on the path.
pub const WAIT_LABEL: &str = "(wait)";

/// Busy/idle accounting for one recorder thread over its own active window
/// (first event to last span end on that tid).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneStat {
    /// The recorder tid this lane aggregates.
    pub tid: u64,
    /// Lane window length: last event end − first event start, ns.
    pub window_ns: u64,
    /// Time with at least one span open on this lane, ns.
    pub busy_ns: u64,
    /// `window_ns − busy_ns`.
    pub idle_ns: u64,
    /// Total events recorded on this lane.
    pub events: u64,
}

/// Inclusive vs. leaf time for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Number of completed spans.
    pub count: u64,
    /// Sum of span durations (children double-count into their parents), ns.
    pub total_ns: u64,
    /// Leaf self time: nanoseconds where a span of this name was the
    /// innermost open span on its lane. Child time = `total_ns − self_ns`.
    pub self_ns: u64,
}

/// How many threads were concurrently inside spans of one name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConcurrencyStat {
    /// Nanoseconds spent at each concurrency level ≥ 1 (threads inside).
    pub hist: BTreeMap<u32, u64>,
    /// Time-weighted mean concurrency while the phase was active.
    pub mean: f64,
    /// Peak concurrency observed.
    pub max: u32,
}

/// One aggregated critical-path constituent.
#[derive(Debug, Clone, PartialEq)]
pub struct PathEntry {
    /// Span name, or [`WAIT_LABEL`] for stalls.
    pub name: String,
    /// Nanoseconds of the critical path attributed to this name.
    pub ns: u64,
    /// Share of the whole window, percent.
    pub pct: f64,
}

/// The phase that owns the most measured serial (≤ 1 busy worker) time.
#[derive(Debug, Clone, PartialEq)]
pub struct SerialPhase {
    /// Span name.
    pub name: String,
    /// Nanoseconds this phase was active while ≤ 1 worker was busy.
    pub serial_ns: u64,
    /// `serial_ns` as a fraction of all serial time in the window.
    pub share: f64,
}

/// The full analysis result; see the crate docs for what each piece means.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    /// Global window: latest event end − earliest event start, ns.
    pub window_ns: u64,
    /// Per-thread lanes, ordered by tid.
    pub lanes: Vec<LaneStat>,
    /// Σ lane idle / Σ lane window, percent. 0 when there are no lanes.
    pub idle_pct: f64,
    /// Fraction of the global window with ≤ 1 busy worker (the measured
    /// Amdahl serial fraction `s`).
    pub serial_fraction: f64,
    /// Inclusive/leaf time per span name.
    pub phases: BTreeMap<String, PhaseStat>,
    /// Concurrency histogram per span name.
    pub concurrency: BTreeMap<String, ConcurrencyStat>,
    /// Critical-path attribution, largest share first; sums to `window_ns`.
    pub critical_path: Vec<PathEntry>,
    /// The phase dominating the serial time, if any span overlapped it.
    pub dominant_serial_phase: Option<SerialPhase>,
}

impl Profile {
    /// Amdahl's-law speedup ceiling at `n` workers implied by the measured
    /// [`serial_fraction`](Self::serial_fraction): `1 / (s + (1−s)/n)`.
    pub fn projected_speedup(&self, n: u32) -> f64 {
        if n == 0 {
            return 0.0;
        }
        let s = self.serial_fraction.clamp(0.0, 1.0);
        1.0 / (s + (1.0 - s) / n as f64)
    }
}
