//! Shared helpers for the binaries that regenerate the paper's tables and
//! figures, and for the tools (`facadec`, `facadeprof`, `heapstat`).
//!
//! This crate reproduces the paper's evaluation; it measures nothing for
//! regression purposes. The benchmark that accepts or rejects a change is
//! the standalone `benchmark/` package (see `benchmark/README.md`).
//!
//! Every binary honours two environment variables:
//!
//! - `FACADE_SCALE` — workload scale factor (default `0.2`); `1.0`
//!   approximates the largest laptop-friendly setting.
//! - `FACADE_MEM_UNIT` — bytes standing in for the paper's "1 GB" of
//!   memory budget (default 4 MiB).
//!
//! Results are printed as paper-style text tables; the tools write their
//! artifacts (trace, GC log, metrics exposition) under `target/experiments/`.

use std::fs;
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::str::FromStr;
use std::time::Duration;

/// The value of environment variable `name`, or `default` when it is unset.
/// A value that does not parse ends the process: a typo in a sizing knob
/// must not silently run (and report) a different experiment.
fn env_or<T: FromStr>(name: &str, default: T) -> T {
    match std::env::var(name) {
        Err(_) => default,
        Ok(raw) => raw.parse().unwrap_or_else(|_| {
            eprintln!("invalid {name}={raw:?}");
            std::process::exit(2)
        }),
    }
}

/// The workload scale factor from `FACADE_SCALE`.
pub fn scale() -> f64 {
    env_or("FACADE_SCALE", 0.2)
}

/// Bytes per "GB" of the paper's budgets, from `FACADE_MEM_UNIT`.
pub fn mem_unit() -> usize {
    env_or("FACADE_MEM_UNIT", 4 << 20)
}

/// Number of simulated cluster workers, from `FACADE_WORKERS`.
pub fn workers() -> usize {
    env_or("FACADE_WORKERS", 4)
}

/// GraphChi engine worker threads, from `FACADE_THREADS` (default: every
/// available core; `0` is rejected like any other invalid value).
pub fn threads() -> usize {
    let cores = std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN);
    env_or("FACADE_THREADS", cores).get()
}

/// Formats a duration as fractional seconds (the paper's table format).
pub fn secs(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64())
}

/// Formats bytes as MiB with one decimal (the paper's `PM` columns are MB).
pub fn mib(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / (1 << 20) as f64)
}

/// Drains the process-wide trace buffers into a Chrome `trace_event` file
/// at `target/experiments/{name}_trace.json` (load it at `chrome://tracing`
/// or <https://ui.perfetto.dev>, or feed it to `facadeprof`), reporting the
/// event count and the recorder's dropped-event count (buffer-cap overflow)
/// on stderr. A file that cannot be written ends the process with exit 2.
///
/// The file records zero events unless the bin armed recording with
/// `facade_trace::set_enabled(true)` before the work it traces.
pub fn export_trace(name: &str) {
    let events = facade_trace::drain();
    let dropped = facade_trace::take_events_dropped();
    let dir = PathBuf::from("target/experiments");
    let path = dir.join(format!("{name}_trace.json"));
    let written = fs::create_dir_all(&dir)
        .and_then(|()| fs::write(&path, facade_trace::chrome::render(&events)));
    if let Err(e) = written {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(2);
    }
    eprintln!(
        "wrote {} ({} events, {dropped} dropped)",
        path.display(),
        events.len()
    );
}

/// Renders a [`data_store::StoreCensus`] as one JSON object, for
/// `heapstat`'s report. Deterministic: rows and per-type counts are
/// name-sorted by construction.
pub fn census_json(census: &data_store::StoreCensus) -> String {
    use metrics::json::escape;
    let rows: Vec<String> = census
        .rows
        .iter()
        .map(|row| {
            format!(
                "{{\"name\": \"{}\", \"count\": {}, \"shallow_bytes\": {}, \"header_bytes\": {}}}",
                escape(&row.name),
                row.count,
                row.shallow_bytes,
                row.header_bytes
            )
        })
        .collect();
    let by_type: Vec<String> = census
        .records_by_type
        .iter()
        .map(|(name, count)| format!("\"{}\": {count}", escape(name)))
        .collect();
    format!(
        "{{\"backend\": \"{}\", \"live_objects\": {}, \"live_bytes\": {}, \
         \"records_allocated\": {}, \"rows\": [{}], \"records_by_type\": {{{}}}}}",
        escape(census.backend),
        census.live_objects,
        census.live_bytes,
        census.records_allocated,
        rows.join(", "),
        by_type.join(", ")
    )
}

/// Percentage reduction from `before` to `after` (positive = improvement).
pub fn reduction_pct(before: f64, after: f64) -> f64 {
    if before > 0.0 {
        (before - after) / before * 100.0
    } else {
        0.0
    }
}

/// Speedup factor `before / after`.
pub fn speedup(before: f64, after: f64) -> f64 {
    if after > 0.0 {
        before / after
    } else {
        f64::INFINITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_and_speedup_math() {
        assert_eq!(reduction_pct(100.0, 75.0), 25.0);
        assert_eq!(speedup(100.0, 50.0), 2.0);
        assert_eq!(reduction_pct(0.0, 5.0), 0.0);
        assert!(speedup(1.0, 0.0).is_infinite());
    }

    #[test]
    fn formatting() {
        assert_eq!(secs(Duration::from_millis(1500)), "1.50");
        assert_eq!(mib(3 << 20), "3.0");
    }

    #[test]
    fn census_json_round_trips_through_the_json_parser() {
        let census = data_store::StoreCensus {
            backend: "heap",
            rows: vec![data_store::CensusRow {
                name: "Vertex \"odd\"".to_string(),
                count: 7,
                shallow_bytes: 196,
                header_bytes: 84,
            }],
            live_objects: 7,
            live_bytes: 196,
            records_allocated: 1_000,
            records_by_type: vec![("Vertex".to_string(), 1_000)],
        };
        let doc = metrics::json::parse(&census_json(&census)).expect("valid JSON");
        assert_eq!(doc.get("backend").unwrap().as_str(), Some("heap"));
        assert_eq!(doc.get("live_objects").unwrap().as_u64(), Some(7));
        let rows = doc.get("rows").unwrap().as_array().unwrap();
        assert_eq!(
            rows[0].get("name").unwrap().as_str(),
            Some("Vertex \"odd\"")
        );
        assert_eq!(
            doc.get("records_by_type")
                .unwrap()
                .get("Vertex")
                .unwrap()
                .as_u64(),
            Some(1_000)
        );
    }
}
