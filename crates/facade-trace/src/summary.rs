//! Aggregate trace statistics for machine-readable reports.
//!
//! A Chrome trace answers "what happened when"; the summary answers "how
//! much, in total". [`summarize`] folds a drained timeline into per-name
//! span statistics (count, total/max duration), instant counts, and
//! per-name counter statistics (count, min/max/last sample), and
//! [`TraceSummary::to_json`] renders them as one JSON object (what
//! `facade_bench::export_trace` returns).
//!
//! ```
//! {
//!     let _span = facade_trace::span!("summary_doc_span");
//! }
//! let summary = facade_trace::summary::summarize(&facade_trace::drain());
//! let json = summary.to_json();
//! assert!(json.starts_with('{') && json.ends_with('}'));
//! ```

use crate::chrome::write_json_string;
use crate::{EventKind, TraceEvent};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Aggregate statistics for all spans sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of completed spans.
    pub count: u64,
    /// Sum of span durations in nanoseconds.
    pub total_ns: u64,
    /// Longest single span in nanoseconds.
    pub max_ns: u64,
}

/// Aggregate statistics for all counter samples sharing one name.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CounterStat {
    /// Number of samples.
    pub count: u64,
    /// Smallest sampled value.
    pub min: f64,
    /// Largest sampled value.
    pub max: f64,
    /// The last sampled value in timeline order.
    pub last: f64,
}

/// Per-name aggregates over one drained timeline.
///
/// Maps are ordered (`BTreeMap`) so the JSON rendering is deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Span statistics keyed by span name.
    pub spans: BTreeMap<&'static str, SpanStat>,
    /// Instant-event occurrence counts keyed by event name.
    pub instants: BTreeMap<&'static str, u64>,
    /// Counter-sample statistics keyed by counter name.
    pub counters: BTreeMap<&'static str, CounterStat>,
    /// Total number of events summarized (spans + instants + counters).
    pub events: u64,
    /// Events discarded by the recorder's per-thread buffer cap before this
    /// timeline was drained. Not derivable from the events themselves —
    /// callers set it from [`crate::take_events_dropped`] (the bench
    /// exporters do).
    pub events_dropped: u64,
}

/// Folds a timeline (as returned by [`crate::drain`]) into a summary.
pub fn summarize(events: &[TraceEvent]) -> TraceSummary {
    let mut summary = TraceSummary {
        events: events.len() as u64,
        ..TraceSummary::default()
    };
    for event in events {
        match event.kind {
            EventKind::Span { dur_ns } => {
                let stat = summary.spans.entry(event.name).or_default();
                stat.count += 1;
                stat.total_ns += dur_ns;
                stat.max_ns = stat.max_ns.max(dur_ns);
            }
            EventKind::Instant => {
                *summary.instants.entry(event.name).or_default() += 1;
            }
            EventKind::Counter { value } => {
                summary
                    .counters
                    .entry(event.name)
                    .and_modify(|c| {
                        c.count += 1;
                        c.min = c.min.min(value);
                        c.max = c.max.max(value);
                        c.last = value;
                    })
                    .or_insert(CounterStat {
                        count: 1,
                        min: value,
                        max: value,
                        last: value,
                    });
            }
        }
    }
    summary
}

impl TraceSummary {
    /// Renders the summary as one JSON object:
    /// `{"events": N, "events_dropped": N,
    /// "spans": {name: {count, total_ms, max_ms}},
    /// "instants": {name: count},
    /// "counters": {name: {count, min, max, last}}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96 + (self.spans.len() + self.counters.len()) * 80);
        let _ = write!(
            out,
            "{{\"events\": {}, \"events_dropped\": {}, \"spans\": {{",
            self.events, self.events_dropped
        );
        for (i, (name, stat)) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_json_string(&mut out, name);
            let _ = write!(
                out,
                ": {{\"count\": {}, \"total_ms\": {:.3}, \"max_ms\": {:.3}}}",
                stat.count,
                stat.total_ns as f64 / 1e6,
                stat.max_ns as f64 / 1e6,
            );
        }
        out.push_str("}, \"instants\": {");
        for (i, (name, count)) in self.instants.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_json_string(&mut out, name);
            let _ = write!(out, ": {count}");
        }
        out.push_str("}, \"counters\": {");
        for (i, (name, stat)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_json_string(&mut out, name);
            let _ = write!(
                out,
                ": {{\"count\": {}, \"min\": {}, \"max\": {}, \"last\": {}}}",
                stat.count,
                Finite(stat.min),
                Finite(stat.max),
                Finite(stat.last),
            );
        }
        out.push_str("}}");
        out
    }
}

/// A finite JSON number; non-finite samples degrade to 0 (JSON has no NaN).
struct Finite(f64);

impl std::fmt::Display for Finite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0.is_finite() {
            write!(f, "{}", self.0)
        } else {
            write!(f, "0")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, dur_ns: u64) -> TraceEvent {
        TraceEvent {
            name,
            tid: 1,
            ts_ns: 0,
            flow: 0,
            kind: EventKind::Span { dur_ns },
            args: Vec::new(),
        }
    }

    fn counter(name: &'static str, ts_ns: u64, value: f64) -> TraceEvent {
        TraceEvent {
            name,
            tid: 1,
            ts_ns,
            flow: 0,
            kind: EventKind::Counter { value },
            args: Vec::new(),
        }
    }

    #[test]
    fn aggregates_by_name() {
        let events = vec![
            span("gc_minor", 1_000_000),
            span("gc_minor", 3_000_000),
            TraceEvent {
                name: "fault_injected",
                tid: 1,
                ts_ns: 5,
                flow: 0,
                kind: EventKind::Instant,
                args: Vec::new(),
            },
        ];
        let summary = summarize(&events);
        assert_eq!(summary.events, 3);
        let gc = &summary.spans["gc_minor"];
        assert_eq!(gc.count, 2);
        assert_eq!(gc.total_ns, 4_000_000);
        assert_eq!(gc.max_ns, 3_000_000);
        assert_eq!(summary.instants["fault_injected"], 1);
    }

    #[test]
    fn counters_surface_min_max_last() {
        let events = vec![
            counter("pool_occupancy", 10, 4.0),
            counter("pool_occupancy", 20, 12.0),
            counter("pool_occupancy", 30, 7.5),
            counter("live_bytes", 15, 1024.0),
        ];
        let summary = summarize(&events);
        let occ = &summary.counters["pool_occupancy"];
        assert_eq!(occ.count, 3);
        assert_eq!(occ.min, 4.0);
        assert_eq!(occ.max, 12.0);
        assert_eq!(occ.last, 7.5, "last follows timeline order");
        assert_eq!(summary.counters["live_bytes"].count, 1);
        let json = summary.to_json();
        assert!(
            json.contains(
                "\"pool_occupancy\": {\"count\": 3, \"min\": 4, \"max\": 12, \"last\": 7.5}"
            ),
            "{json}"
        );
    }

    #[test]
    fn json_is_deterministic_and_complete() {
        let events = vec![span("b_span", 2_000_000), span("a_span", 500_000)];
        let json = summarize(&events).to_json();
        assert!(
            json.find("a_span").unwrap() < json.find("b_span").unwrap(),
            "BTreeMap ordering: {json}"
        );
        assert!(json.contains("\"total_ms\": 2.000"), "{json}");
        assert!(json.contains("\"events\": 2"), "{json}");
        assert!(json.contains("\"events_dropped\": 0"), "{json}");
        assert!(json.contains("\"counters\": {}"), "{json}");
    }

    #[test]
    fn dropped_count_renders_when_set() {
        let mut summary = summarize(&[span("s", 1)]);
        summary.events_dropped = 42;
        assert!(summary.to_json().contains("\"events_dropped\": 42"));
    }
}
