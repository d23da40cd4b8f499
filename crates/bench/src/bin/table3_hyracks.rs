//! **E3 — Table 3**: Hyracks external sort (ES) and word count (WC) total
//! execution times over the {3,5,10,14,19} "GB" dataset series, with
//! out-of-memory runs reported as `OME(n)`; and **E4/E5 — Figure 4(b) and
//! 4(c)**: the same runs' cluster peak memory, `P` (bars) vs `P'` (line).
//!
//! Expected shape: `P'` scales to strictly larger datasets than `P` for WC
//! (the paper's WC dies at 10GB while WC' finishes 19GB); ES completes on
//! both but ES' is faster with the gap widening with size; on the smallest
//! inputs WC' may be slower (pool/page overhead not yet amortized). `P'`
//! uses less memory than `P` at every dataset size the two share; `P` bars
//! are missing where it ran out of memory.

use datagen::{CorpusSpec, corpus};
use facade_bench::{mem_unit, mib, scale, secs, workers};
use hyracks_rs::{Backend, Cluster, ClusterConfig};
use metrics::TextTable;

fn main() {
    let unit = (mem_unit() as f64 * scale()) as usize;
    let per_worker_budget = 2 * mem_unit();
    let n_workers = workers();
    let series = CorpusSpec::table3_series(unit);
    eprintln!(
        "Table 3: corpus unit {} bytes, {n_workers} workers, {} per-worker budget",
        unit, per_worker_budget
    );

    let mut table = TextTable::new(&["Data", "ES", "ES'", "WC", "WC'"]);
    let memory_table = || TextTable::new(&["Data", "P PM(M)", "P' PM(M)"]);
    let (mut es_memory, mut wc_memory) = (memory_table(), memory_table());
    // (app, backend, dataset) of every run that completed, in series order.
    let mut completed = Vec::new();

    for (label, spec) in &series {
        let words = corpus(spec);
        let mut row = vec![label.clone()];
        for (app, memory) in [("ES", &mut es_memory), ("WC", &mut wc_memory)] {
            let mut peaks = vec![label.clone()];
            for backend in [Backend::Heap, Backend::Facade] {
                let config = ClusterConfig {
                    workers: n_workers,
                    backend,
                    per_worker_budget,
                    frame_bytes: 32 << 10,
                    ..ClusterConfig::default()
                };
                let cluster = Cluster::new(&config);
                let stats = if app == "ES" {
                    cluster.external_sort(&words).map(|out| out.stats)
                } else {
                    cluster.word_count(&words).map(|out| out.stats)
                };
                match stats {
                    Ok(stats) => {
                        completed.push((app, backend, label));
                        row.push(secs(stats.elapsed));
                        peaks.push(mib(stats.peak_bytes));
                    }
                    Err(e) => {
                        row.push(format!("{}({:.2})", e.tag(), e.after.as_secs_f64()));
                        peaks.push(e.tag().into());
                    }
                }
            }
            memory.row_owned(peaks);
        }
        table.row_owned(row);
    }
    println!("{table}");

    // Shape summary: the largest dataset each backend completes, per app.
    for app in ["ES", "WC"] {
        for backend in [Backend::Heap, Backend::Facade] {
            let max = completed
                .iter()
                .rfind(|&&(a, b, _)| a == app && b == backend)
                .map_or("none", |&(_, _, label)| label.as_str());
            println!("{app} under {backend}: largest completed dataset = {max}");
        }
    }

    println!("figure4b (ES memory usage):\n{es_memory}");
    println!("figure4c (WC memory usage):\n{wc_memory}");
}
