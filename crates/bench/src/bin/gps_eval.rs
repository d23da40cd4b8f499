//! **E6 — §4.3**: GPS PageRank, k-means, and random walk over the
//! LiveJournal-like graph and its synthetic supergraphs.
//!
//! Expected shape (the paper's numbers): modest 3–15.4% running-time
//! reductions, 10–39.8% GC-time reductions, and up to 14.4% space
//! reductions — much smaller than GraphChi's because GPS's primitive-array
//! graph representation already keeps GC effort at 1–17% of run time; on
//! the smallest graph `P` and `P'` are about tied.

use datagen::{Graph, GraphSpec};
use facade_bench::{mem_unit, mib, reduction_pct, scale, secs, workers};
use gps_rs::{Backend, GpsConfig, KMeans, PageRank, RandomWalk, VertexKernel, run};
use metrics::TextTable;

fn main() {
    let scale = scale();
    let n_workers = workers();
    // Budget scales with the workload so larger FACADE_SCALE runs stay
    // feasible (the paper's EC2 nodes grow with its datasets too).
    let budget = ((4.0 * mem_unit() as f64 * (scale / 0.2).max(1.0)) as usize).max(4 << 20);
    // Input set: the LJ stand-in plus supergraphs (the paper uses LJ + 5
    // supergraphs + twitter; we run the base graph and 2 supergraphs by
    // default to keep runs short — raise FACADE_SCALE for more).
    let specs: Vec<(String, GraphSpec)> = vec![
        ("LJ".into(), GraphSpec::livejournal_like(scale)),
        ("LJ-x2".into(), GraphSpec::livejournal_supergraph(scale, 1)),
        ("LJ-x3".into(), GraphSpec::livejournal_supergraph(scale, 2)),
    ];

    let mut table = TextTable::new(&[
        "App", "Graph", "ET(s)", "ET'(s)", "dET%", "GT(s)", "GT'(s)", "dGT%", "PM(M)", "PM'(M)",
        "dPM%",
    ]);

    for (label, spec) in &specs {
        let graph = Graph::generate(spec);
        for app in ["PR", "KM", "RW"] {
            let mut results = Vec::new();
            for backend in [Backend::Heap, Backend::Facade] {
                let config = GpsConfig {
                    workers: n_workers,
                    backend,
                    per_worker_budget: budget,
                    ..GpsConfig::default()
                };
                let mut kernel: Box<dyn VertexKernel> = match app {
                    "PR" => Box::new(PageRank::new(5)),
                    "KM" => Box::new(KMeans::new(8, 15)),
                    _ => Box::new(RandomWalk::new(8)),
                };
                let out = match run(&graph, kernel.as_mut(), &config) {
                    Ok(out) => out,
                    Err(e) => {
                        println!("{app} on {label} under {backend}: {e}");
                        continue;
                    }
                };
                results.push(out);
            }
            if results.len() < 2 {
                continue;
            }
            let (p, p2) = (&results[0], &results[1]);
            table.row_owned(vec![
                app.to_string(),
                label.clone(),
                secs(p.timer.total()),
                secs(p2.timer.total()),
                format!(
                    "{:+.1}",
                    reduction_pct(
                        p.timer.total().as_secs_f64(),
                        p2.timer.total().as_secs_f64()
                    )
                ),
                secs(p.stats.gc_time),
                secs(p2.stats.gc_time),
                format!(
                    "{:+.1}",
                    reduction_pct(
                        p.stats.gc_time.as_secs_f64(),
                        p2.stats.gc_time.as_secs_f64()
                    )
                ),
                mib(p.stats.peak_bytes),
                mib(p2.stats.peak_bytes),
                format!(
                    "{:+.1}",
                    reduction_pct(p.stats.peak_bytes as f64, p2.stats.peak_bytes as f64)
                ),
            ]);
        }
    }
    println!("{table}");
}
