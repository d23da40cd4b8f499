//! **E1 — Table 2**: GraphChi PR and CC on the twitter-like graph under
//! three memory budgets, original (`P`) vs FACADE (`P'`).
//!
//! Reported columns match the paper: total execution time (ET), engine
//! update time (UT), data load time (LT), GC time (GT), and peak memory
//! (PM). ET is wall clock. UT, LT and GT are CPU-seconds summed over the
//! engine's worker threads (`cpu-s` in their headers), so at more than one
//! thread they do not add up to ET and a `P` row's LT can exceed its ET.
//! Expected shape: `P'` wins ET everywhere, GT collapses (the paper
//! sees an average 5.1× GC reduction), and `P'`'s PM is roughly
//! budget-independent while `P`'s tracks the budget.

use datagen::{Graph, GraphSpec};
use facade_bench::{export_trace, mem_unit, mib, scale, secs, threads};
use graphchi_rs::{Backend, ConnectedComponents, Engine, EngineConfig, PageRank, VertexProgram};
use metrics::TextTable;
use metrics::phases;

/// What the shape summary needs from one cell.
struct Cell {
    app: &'static str,
    backend: Backend,
    total_secs: f64,
    gc_secs: f64,
}

fn main() {
    facade_trace::set_enabled(true);
    let scale = scale();
    let unit = mem_unit();
    let threads = threads();
    let spec = GraphSpec::twitter_like(scale);
    eprintln!(
        "Table 2: twitter-like graph scale={scale} ({} vertices, {} edges), \
         mem unit {} bytes, {threads} engine threads",
        spec.vertices, spec.edges, unit
    );
    let graph = Graph::generate(&spec);

    let mut table = TextTable::new(&[
        "App",
        "ET(s)",
        "UT(cpu-s)",
        "LT(cpu-s)",
        "GT(cpu-s)",
        "PM(M)",
    ]);
    let mut cells = Vec::new();

    let apps: Vec<(&str, Box<dyn VertexProgram>)> = vec![
        ("PR", Box::new(PageRank::new(4))),
        ("CC", Box::new(ConnectedComponents::new(20))),
    ];
    for &(name, ref app) in &apps {
        for budget_gb in [8usize, 6, 4] {
            for backend in [Backend::Heap, Backend::Facade] {
                let config = EngineConfig {
                    backend,
                    budget_bytes: budget_gb * unit,
                    intervals: 20,
                    threads,
                    ..EngineConfig::default()
                };
                let mut engine = Engine::new(&graph, config);
                let label = match backend {
                    Backend::Heap => format!("{name}-{budget_gb}g"),
                    Backend::Facade => format!("{name}'-{budget_gb}g"),
                };
                // A failed run counts as 0 s in the shape summary's means.
                let (total, gc) = match engine.execute(app.as_ref()) {
                    Ok(out) => {
                        let (total, gc) = (out.timer.total(), out.timer.phase(phases::GC));
                        table.row_owned(vec![
                            label,
                            secs(total),
                            secs(out.timer.phase(phases::UPDATE)),
                            secs(out.timer.phase(phases::LOAD)),
                            secs(gc),
                            mib(out.stats.peak_bytes),
                        ]);
                        (total, gc)
                    }
                    Err(e) => {
                        table.row_owned(vec![label, e.to_string()]);
                        Default::default()
                    }
                };
                cells.push(Cell {
                    app: name,
                    backend,
                    total_secs: total.as_secs_f64(),
                    gc_secs: gc.as_secs_f64(),
                });
            }
        }
    }
    println!("{table}");
    // Chrome trace of the whole sweep (GC pauses, pool traffic, engine
    // phases) — open target/experiments/table2_trace.json in Perfetto or
    // feed it to `facadeprof`. Recording was armed at the top of `main`.
    export_trace("table2");

    // Shape summary, as the paper reports.
    summarize(&cells);
}

fn summarize(cells: &[Cell]) {
    for app in ["PR", "CC"] {
        let of = |backend| -> Vec<&Cell> {
            cells
                .iter()
                .filter(|c| c.app == app && c.backend == backend)
                .collect()
        };
        let (p, p2) = (of(Backend::Heap), of(Backend::Facade));
        if p.is_empty() || p2.is_empty() {
            continue;
        }
        let et = |cs: &[&Cell]| cs.iter().map(|c| c.total_secs).sum::<f64>() / cs.len() as f64;
        let gt = |cs: &[&Cell]| cs.iter().map(|c| c.gc_secs).sum::<f64>() / cs.len() as f64;
        println!(
            "{app}: mean ET reduction {:.1}%  mean GC reduction {:.1}x",
            facade_bench::reduction_pct(et(&p), et(&p2)),
            facade_bench::speedup(gt(&p), gt(&p2)),
        );
    }
}
