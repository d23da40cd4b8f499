//! Recording is armed at run time, in the default build: an armed run
//! records the engines' own spans (GraphChi's phases, Hyracks' phases and
//! partitions, pool acquires, GC pauses), a disarmed run records nothing,
//! and arming never changes what a run computes.
//!
//! The trace buffers and the gate are process-global, so everything runs in
//! one `#[test]`: nothing else in this binary can arm or drain mid-run.

use facade::datagen::{CorpusSpec, Graph, GraphSpec, corpus};
use facade::graphchi::{Engine, EngineConfig, PageRank, RunOutcome};
use facade::hyracks::{Cluster, ClusterConfig};
use facade::metrics::report::Backend;
use facade_trace::{ArgValue, TraceEvent};

/// Runs `job` disarmed, then armed. Returns both results and the armed
/// run's drained timeline; leaves recording disarmed.
fn disarmed_then_armed<T>(job: impl Fn() -> T) -> (T, T, Vec<TraceEvent>) {
    let disarmed = job();
    assert!(
        facade_trace::drain().is_empty(),
        "a disarmed run records nothing"
    );
    facade_trace::set_enabled(true);
    let armed = job();
    facade_trace::set_enabled(false);
    (disarmed, armed, facade_trace::drain())
}

fn count(events: &[TraceEvent], name: &str) -> usize {
    events.iter().filter(|e| e.name == name).count()
}

fn pagerank(graph: &Graph, backend: Backend, budget_bytes: usize) -> RunOutcome {
    let config = EngineConfig {
        backend,
        budget_bytes,
        intervals: 4,
        threads: 2,
        ..EngineConfig::default()
    };
    let out = Engine::new(graph, config)
        .execute(&PageRank::new(3))
        .expect("run fits its budget");
    assert!(out.resilience.is_clean(), "{}", out.resilience);
    out
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn an_armed_run_records_engine_spans_and_arming_changes_no_output() {
    assert!(!facade_trace::is_enabled(), "recording starts disarmed");
    let graph = Graph::generate(&GraphSpec::new(400, 3_000, 5));

    // GraphChi on the facade backend, two workers, with a budget that
    // splits every interval into several subintervals.
    let (off, on, events) = disarmed_then_armed(|| pagerank(&graph, Backend::Facade, 1 << 19));
    assert_eq!(bits(&off.values), bits(&on.values), "facade values moved");
    for name in [
        "degree_pass",
        "exec_interval",
        "sub_load",
        "sub_update",
        "sub_writeback",
        "interval_commit",
        "pool_acquire",
    ] {
        assert!(
            count(&events, name) > 0,
            "armed facade run recorded no {name}"
        );
    }
    // Every subinterval runs its three phases on whichever worker claimed
    // it, so each phase names the same multiset of subintervals, and no
    // load is gathered ahead on another worker.
    let first_vertices = |name: &str| -> Vec<u64> {
        let mut firsts: Vec<u64> = events
            .iter()
            .filter(|e| e.name == name)
            .map(
                |e| match e.args.iter().find(|(key, _)| *key == "first_vertex") {
                    Some((_, ArgValue::UInt(v))) => *v,
                    other => panic!("{name} has first_vertex {other:?}"),
                },
            )
            .collect();
        firsts.sort_unstable();
        firsts
    };
    let loaded = first_vertices("sub_load");
    assert!(
        loaded.len() > count(&events, "exec_interval"),
        "the budget must split intervals into several subintervals"
    );
    assert_eq!(loaded, first_vertices("sub_update"), "one update per load");
    assert_eq!(
        loaded,
        first_vertices("sub_writeback"),
        "one writeback per load"
    );
    assert!(
        !events.iter().any(|e| e.name.contains("prefetch")),
        "no subinterval is gathered ahead"
    );

    // GraphChi on the heap backend, with a budget that makes it collect:
    // one GC span per collection the run reports.
    let (off, on, events) = disarmed_then_armed(|| pagerank(&graph, Backend::Heap, 2 << 20));
    assert_eq!(bits(&off.values), bits(&on.values), "heap values moved");
    assert!(on.stats.gc_count > 0, "the budget must force collections");
    assert_eq!(
        (count(&events, "gc_minor") + count(&events, "gc_full")) as u64,
        on.stats.gc_count,
        "one span per collection"
    );

    // Hyracks WordCount at one thread, where page creation is
    // deterministic, so its count must not move either.
    let words = corpus(&CorpusSpec::new(20_000, 5));
    let config = ClusterConfig {
        workers: 4,
        threads: 1,
        backend: Backend::Facade,
        ..ClusterConfig::default()
    };
    let (off, on, events) =
        disarmed_then_armed(|| Cluster::new(&config).word_count(&words).unwrap());
    assert_eq!(off.counts, on.counts, "WC payload moved");
    assert_eq!(
        off.stats.pages_created, on.stats.pages_created,
        "page creation moved"
    );
    assert!(count(&events, "job_phase") > 0, "no job_phase span");
    assert_eq!(
        count(&events, "partition_run"),
        2 * config.workers,
        "one partition_run per map and reduce partition"
    );
}
