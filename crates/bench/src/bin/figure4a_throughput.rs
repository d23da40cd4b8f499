//! **E2 — Figure 4(a)**: computational throughput (edges/second) of
//! GraphChi PR and CC over a series of graph sizes, `P` vs `P'`.
//!
//! Expected shape: `P'` has higher throughput than `P` on every graph, with
//! the relative gap largest on the smaller graphs (the paper measures 48%
//! and 17% faster PR'/CC' on a 300M-edge graph vs 26.8%/5.8% on full
//! twitter-2010).
//!
//! Runs through the unified [`facade_job`] API: one [`JobSpec`] per
//! (app, backend) cell, executed by [`GraphChiRunner`], throughput taken
//! from [`JobReport::work_units`](facade_job::JobReport) over elapsed time.

use datagen::{Graph, GraphSpec};
use facade_bench::{mem_unit, scale};
use facade_job::{Dataset, ExecContext, GraphChiRunner, JobRunner, JobSpec, Workload};
use graphchi_rs::Backend;
use metrics::TextTable;

fn main() {
    let scale = scale();
    let budget = 8 * mem_unit();
    let series = GraphSpec::figure4a_series(scale, 5);
    eprintln!(
        "Figure 4(a): {} graph sizes, scale={scale}, budget {} bytes",
        series.len(),
        budget
    );

    let mut table = TextTable::new(&["Edges", "PR (e/s)", "PR' (e/s)", "CC (e/s)", "CC' (e/s)"]);
    // Throughput per cell, in (P, P') pairs.
    let mut throughputs = Vec::new();
    let ctx = ExecContext::default();

    for graph_spec in &series {
        let data = Dataset::new(Vec::new(), Graph::generate(graph_spec));
        let edges = data.graph.edge_count();
        let mut row = vec![format!("{edges}")];
        for workload in [
            Workload::PageRank { iterations: 4 },
            Workload::ConnectedComponents { max_iterations: 20 },
        ] {
            for backend in [Backend::Heap, Backend::Facade] {
                let spec = JobSpec {
                    workload: workload.clone(),
                    backend,
                    budget_bytes: budget,
                    intervals: 20,
                    threads: 0, // engine default, as the direct runs used
                    ..JobSpec::default()
                };
                let report = GraphChiRunner
                    .execute(&spec, &data, &ctx)
                    .expect("run completes");
                let throughput = report.work_units as f64 / report.elapsed.as_secs_f64();
                row.push(format!("{throughput:.0}"));
                throughputs.push(throughput);
            }
        }
        table.row_owned(row);
    }
    println!("{table}");

    // Shape check: P' throughput ≥ P throughput per size.
    let mut wins = 0;
    let mut total = 0;
    for pair in throughputs.chunks(2) {
        if let [p, p2] = pair {
            total += 1;
            if p2 > p {
                wins += 1;
            }
        }
    }
    println!("P' out-throughputs P in {wins}/{total} configurations");
}
