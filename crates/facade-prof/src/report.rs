//! Rendering: the `"profile"` JSON section and the ranked text report.

use crate::Profile;
use facade_trace::chrome::write_json_string;
use std::fmt::Write as _;

/// Speedup projections included in reports, matching the bench sweep.
const PROJECTED_AT: [u32; 3] = [2, 4, 8];

/// How many critical-path entries the renderings keep.
const PATH_TOP_N: usize = 8;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

impl Profile {
    /// Renders the profile as one JSON object — what `facadeprof --json`
    /// prints (`idle_pct`, `serial_fraction`, lanes, critical path).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        let _ = write!(
            out,
            "{{\"window_ms\": {:.3}, \"threads\": {}, \"idle_pct\": {:.2}, \"serial_fraction\": {:.4}",
            ms(self.window_ns),
            self.lanes.len(),
            self.idle_pct,
            self.serial_fraction,
        );
        out.push_str(", \"amdahl\": {");
        for (i, n) in PROJECTED_AT.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"projected_speedup_{n}\": {:.3}",
                self.projected_speedup(*n)
            );
        }
        out.push_str("}, \"dominant_serial_phase\": ");
        match &self.dominant_serial_phase {
            Some(d) => {
                out.push_str("{\"name\": ");
                write_json_string(&mut out, &d.name);
                let _ = write!(
                    out,
                    ", \"serial_ms\": {:.3}, \"share\": {:.4}}}",
                    ms(d.serial_ns),
                    d.share
                );
            }
            None => out.push_str("null"),
        }
        out.push_str(", \"critical_path\": [");
        for (i, entry) in self.critical_path.iter().take(PATH_TOP_N).enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str("{\"name\": ");
            write_json_string(&mut out, &entry.name);
            let _ = write!(
                out,
                ", \"ms\": {:.3}, \"pct\": {:.2}}}",
                ms(entry.ns),
                entry.pct
            );
        }
        out.push_str("], \"concurrency\": {");
        for (i, (name, c)) in self.concurrency.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_json_string(&mut out, name);
            let _ = write!(
                out,
                ": {{\"mean\": {:.3}, \"max\": {}, \"hist\": {{",
                c.mean, c.max
            );
            for (j, (level, ns)) in c.hist.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "\"{level}\": {:.3}", ms(*ns));
            }
            out.push_str("}}");
        }
        out.push_str("}, \"phases\": {");
        for (i, (name, p)) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_json_string(&mut out, name);
            let _ = write!(
                out,
                ": {{\"count\": {}, \"total_ms\": {:.3}, \"self_ms\": {:.3}}}",
                p.count,
                ms(p.total_ns),
                ms(p.self_ns),
            );
        }
        out.push_str("}, \"lanes\": [");
        for (i, lane) in self.lanes.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"tid\": {}, \"window_ms\": {:.3}, \"busy_ms\": {:.3}, \"idle_ms\": {:.3}, \"events\": {}}}",
                lane.tid,
                ms(lane.window_ns),
                ms(lane.busy_ns),
                ms(lane.idle_ns),
                lane.events,
            );
        }
        out.push_str("]}");
        out
    }

    /// Renders the ranked bottleneck report the `facadeprof` CLI prints.
    /// `observed_speedup` pairs `(threads, speedup_vs_1)` from a bench sweep
    /// when available, so the Amdahl projection sits next to reality.
    pub fn render_report(&self, observed_speedup: &[(u32, f64)]) -> String {
        let mut out = String::with_capacity(2048);
        let _ = writeln!(out, "== facadeprof bottleneck report ==");
        let _ = writeln!(
            out,
            "window {:.3} ms, {} lanes, idle {:.1}% of lane time",
            ms(self.window_ns),
            self.lanes.len(),
            self.idle_pct,
        );
        let _ = writeln!(
            out,
            "serial fraction (measured, <=1 busy worker): {:.3}",
            self.serial_fraction
        );
        let projections: Vec<String> = PROJECTED_AT
            .iter()
            .map(|&n| format!("{n}t -> {:.2}x", self.projected_speedup(n)))
            .collect();
        let _ = writeln!(out, "Amdahl ceiling from that: {}", projections.join(", "));
        if !observed_speedup.is_empty() {
            let observed: Vec<String> = observed_speedup
                .iter()
                .map(|&(n, s)| format!("{n}t -> {s:.2}x"))
                .collect();
            let _ = writeln!(out, "observed speedup_vs_1: {}", observed.join(", "));
        }
        match &self.dominant_serial_phase {
            Some(d) => {
                let _ = writeln!(
                    out,
                    "dominant serial phase: {} ({:.3} ms, {:.1}% of serial time)",
                    d.name,
                    ms(d.serial_ns),
                    d.share * 100.0,
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "dominant serial phase: none (no span overlapped serial time)"
                );
            }
        }
        let _ = writeln!(out, "critical path (top {PATH_TOP_N}, backward sweep):");
        for entry in self.critical_path.iter().take(PATH_TOP_N) {
            let _ = writeln!(
                out,
                "  {:>5.1}%  {:>12.3} ms  {}",
                entry.pct,
                ms(entry.ns),
                entry.name
            );
        }
        let _ = writeln!(out, "per-phase concurrency (workers inside -> ms):");
        for (name, c) in &self.concurrency {
            let hist: Vec<String> = c
                .hist
                .iter()
                .map(|(level, ns)| format!("{level}: {:.1}", ms(*ns)))
                .collect();
            let _ = writeln!(
                out,
                "  {:<24} mean {:.2}  max {}  {{{}}}",
                name,
                c.mean,
                c.max,
                hist.join(", ")
            );
        }
        let _ = writeln!(out, "lanes:");
        for lane in &self.lanes {
            let _ = writeln!(
                out,
                "  tid {:>3}  busy {:>10.3} ms  idle {:>10.3} ms  events {}",
                lane.tid,
                ms(lane.busy_ns),
                ms(lane.idle_ns),
                lane.events,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::{EventKind, ProfEvent, Profile};

    fn span(name: &str, tid: u64, ts_ns: u64, dur_ns: u64) -> ProfEvent {
        ProfEvent {
            name: name.to_string(),
            tid,
            ts_ns,
            kind: EventKind::Span { dur_ns },
        }
    }

    fn sample() -> Profile {
        Profile::build(&[
            span("produce", 1, 0, 50_000_000),
            span("consume", 2, 60_000_000, 40_000_000),
        ])
    }

    #[test]
    fn json_carries_the_gated_numbers() {
        let json = sample().to_json();
        assert!(json.contains("\"idle_pct\": "), "{json}");
        assert!(json.contains("\"serial_fraction\": 1.0000"), "{json}");
        assert!(json.contains("\"projected_speedup_4\": 1.000"), "{json}");
        assert!(
            json.contains("\"dominant_serial_phase\": {\"name\": \"produce\""),
            "{json}"
        );
        assert!(
            json.contains("\"critical_path\": [{\"name\": \"produce\""),
            "{json}"
        );
        assert!(json.contains("\"lanes\": [{\"tid\": 1"), "{json}");
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
    }

    #[test]
    fn report_names_the_culprit_and_shows_observed_speedup() {
        let report = sample().render_report(&[(2, 0.87), (4, 0.70)]);
        assert!(
            report.contains("dominant serial phase: produce"),
            "{report}"
        );
        assert!(report.contains("serial fraction (measured"), "{report}");
        assert!(
            report.contains("observed speedup_vs_1: 2t -> 0.87x, 4t -> 0.70x"),
            "{report}"
        );
        assert!(report.contains("(wait)"), "{report}");
        assert!(report.contains("critical path"), "{report}");
    }

    #[test]
    fn empty_profile_renders_without_panicking() {
        let p = Profile::build(&[]);
        assert!(p.to_json().contains("\"threads\": 0"));
        assert!(p.render_report(&[]).contains("0 lanes"));
    }
}
