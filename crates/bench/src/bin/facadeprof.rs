//! **facadeprof**: critical-path and scaling-bottleneck reports from
//! facade-trace timelines.
//!
//! Two ways in:
//!
//! - `facadeprof <trace.json>` — analyse an exported Chrome trace (any
//!   `target/experiments/*_trace.json` written by the bench binaries).
//! - `facadeprof --run graphchi|hyracks [--threads N]` — run the workload
//!   inline (a 1-thread reference then an N-thread run, default 4),
//!   profile the N-thread timeline and print the observed speedup next to
//!   the Amdahl projection. Both runs record; only the N-thread timeline
//!   is profiled.
//!
//! `--json` swaps the text report for the profile's JSON.
//!
//! Exit codes: 0 report printed, 1 empty timeline (a trace file exported
//! by a run that never armed recording), 2 usage or I/O error.

use facade_bench::{mem_unit, scale, speedup};
use facade_prof::{EventKind, ProfEvent, Profile};
use metrics::json::{self, Json};

const USAGE: &str = "\
usage: facadeprof <trace.json> [--json]
       facadeprof --run graphchi|hyracks [--threads N] [--json]

Reads a Chrome trace exported by the bench binaries (or runs a workload
inline) and prints a ranked bottleneck report: per-lane busy/idle, the
critical path, per-phase concurrency, and the measured Amdahl serial
fraction with its speedup ceiling.";

fn fail(msg: &str) -> ! {
    eprintln!("facadeprof: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    let as_json = args.iter().any(|a| a == "--json");
    let flag_value = |name: &str| {
        args.iter().position(|a| a == name).map(|i| {
            args.get(i + 1)
                .cloned()
                .unwrap_or_else(|| fail(&format!("{name} needs a value")))
        })
    };

    let (events, observed) = if let Some(workload) = flag_value("--run") {
        let threads: usize = flag_value("--threads").map_or(4, |t| {
            t.parse()
                .ok()
                .filter(|&t| t > 0)
                .unwrap_or_else(|| fail("--threads needs a positive integer"))
        });
        run_inline(&workload, threads)
    } else {
        let path = args
            .iter()
            .rfind(|a| !a.starts_with("--"))
            .unwrap_or_else(|| fail("expected a trace file or --run"));
        let raw = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
        let events = parse_chrome_trace(&raw)
            .unwrap_or_else(|e| fail(&format!("{path} is not a Chrome trace export: {e}")));
        (events, Vec::new())
    };

    if events.is_empty() {
        eprintln!(
            "facadeprof: timeline is empty — re-export the trace from a run \
             that calls `facade_trace::set_enabled(true)` before its work"
        );
        std::process::exit(1);
    }

    let profile = Profile::build(&events);
    if as_json {
        println!("{}", profile.to_json());
    } else {
        print!("{}", profile.render_report(&observed));
    }
}

/// Rebuilds profiler events from the Chrome `trace_event` JSON written by
/// `facade_trace::chrome::render`: `ts`/`dur` come back from fractional
/// microseconds to nanoseconds. Span and instant args are not read.
fn parse_chrome_trace(raw: &str) -> Result<Vec<ProfEvent>, String> {
    let doc = json::parse(raw).map_err(|e| e.to_string())?;
    let entries = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .ok_or("no traceEvents array")?;
    let micros_to_ns = |v: &Json| (v.as_f64().unwrap_or(0.0) * 1_000.0).round().max(0.0) as u64;
    let mut events = Vec::with_capacity(entries.len());
    for entry in entries {
        let name = entry
            .get("name")
            .and_then(Json::as_str)
            .ok_or("event without a name")?
            .to_string();
        let kind = match entry.get("ph").and_then(Json::as_str) {
            Some("X") => EventKind::Span {
                dur_ns: entry.get("dur").map_or(0, &micros_to_ns),
            },
            Some("i") => EventKind::Instant,
            other => return Err(format!("unsupported event phase {other:?}")),
        };
        events.push(ProfEvent {
            name,
            tid: entry.get("tid").and_then(Json::as_u64).unwrap_or(0),
            ts_ns: entry.get("ts").map_or(0, &micros_to_ns),
            kind,
        });
    }
    Ok(events)
}

/// Runs a workload inline: a 1-thread reference (for the observed-speedup
/// line), then the profiled run at `threads`.
fn run_inline(workload: &str, threads: usize) -> (Vec<ProfEvent>, Vec<(u32, f64)>) {
    // Both runs record, so the observed speedup compares like with like.
    facade_trace::set_enabled(true);
    let unit = mem_unit();
    let (base_wall, wall) = match workload {
        "graphchi" => {
            use datagen::{Graph, GraphSpec};
            use graphchi_rs::{Backend, Engine, EngineConfig, PageRank};
            let graph = Graph::generate(&GraphSpec::twitter_like(scale()));
            let run = |threads: usize| {
                let mut engine = Engine::new(
                    &graph,
                    EngineConfig {
                        backend: Backend::Facade,
                        budget_bytes: 8 * unit,
                        intervals: 20,
                        threads,
                        ..EngineConfig::default()
                    },
                );
                let out = engine
                    .execute(&PageRank::new(4))
                    .expect("run fits its budget");
                out.timer.total().as_secs_f64()
            };
            eprintln!("facadeprof: GraphChi PageRank, 1-thread reference then {threads} threads");
            let base = run(1);
            facade_trace::drain(); // profile only the multi-threaded run
            (base, run(threads))
        }
        "hyracks" => {
            use datagen::{CorpusSpec, corpus};
            use hyracks_rs::{Backend, Cluster, ClusterConfig};
            let words = corpus(&CorpusSpec::new(
                (16.0 * unit as f64 * scale()) as usize,
                11,
            ));
            let run = |threads: usize| {
                let cfg = ClusterConfig {
                    workers: 8,
                    threads,
                    backend: Backend::Facade,
                    per_worker_budget: 2 * unit,
                    frame_bytes: 32 << 10,
                    ..ClusterConfig::default()
                };
                let wc = Cluster::new(&cfg)
                    .word_count(&words)
                    .expect("WC fits its budget");
                let es = Cluster::new(&cfg)
                    .external_sort(&words)
                    .expect("ES fits its budget");
                // Whether the claim cursor spread the partitions evenly.
                for (job, stats) in [("WC", &wc.stats), ("ES", &es.stats)] {
                    let spread: Vec<String> = stats
                        .per_worker
                        .iter()
                        .map(|w| format!("t{}={}", w.worker, w.partitions))
                        .collect();
                    eprintln!(
                        "facadeprof: {job} partitions per thread: {}",
                        spread.join(" ")
                    );
                }
                wc.stats.elapsed.as_secs_f64() + es.stats.elapsed.as_secs_f64()
            };
            eprintln!("facadeprof: Hyracks WC+ES, 1-thread reference then {threads} threads");
            let base = run(1);
            facade_trace::drain();
            (base, run(threads))
        }
        other => fail(&format!(
            "unknown workload {other:?}; try graphchi or hyracks"
        )),
    };
    let events = facade_prof::from_trace(&facade_trace::drain());
    (events, vec![(threads as u32, speedup(base_wall, wall))])
}
