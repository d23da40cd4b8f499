//! **E4/E5 — Figure 4(b) and 4(c)**: cluster peak memory usage of Hyracks
//! ES and WC across the dataset series, `P` (bars) vs `P'` (line).
//!
//! Expected shape: `P'` uses less memory than `P` at every dataset size the
//! two share; `P` bars are missing where it ran out of memory.

use datagen::{CorpusSpec, corpus};
use facade_bench::{mem_unit, mib, scale, workers};
use hyracks_rs::{Backend, Cluster, ClusterConfig};
use metrics::TextTable;

fn main() {
    let unit = (mem_unit() as f64 * scale()) as usize;
    let per_worker_budget = 2 * mem_unit();
    let n_workers = workers();
    let series = CorpusSpec::table3_series(unit);

    for (figure, app) in [("figure4b", "ES"), ("figure4c", "WC")] {
        let mut table = TextTable::new(&["Data", "P PM(M)", "P' PM(M)"]);
        for (label, spec) in &series {
            let words = corpus(spec);
            let mut row = vec![label.clone()];
            for backend in [Backend::Heap, Backend::Facade] {
                let config = ClusterConfig {
                    workers: n_workers,
                    backend,
                    per_worker_budget,
                    frame_bytes: 32 << 10,
                    ..ClusterConfig::default()
                };
                let cluster = Cluster::new(&config);
                let peak = if app == "ES" {
                    cluster.external_sort(&words).map(|o| o.stats.peak_bytes)
                } else {
                    cluster.word_count(&words).map(|o| o.stats.peak_bytes)
                };
                row.push(peak.map_or("OME".into(), mib));
            }
            table.row_owned(row);
        }
        println!("{figure} ({app} memory usage):\n{table}");
    }
}
