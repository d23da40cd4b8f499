//! **E7 — §1.3 / §4.1**: the object-count reduction. The paper reports that
//! for GraphChi PR, FACADE reduced the number of objects created for data
//! classes from 14,257,280,923 to 1,363 (1,000 pages + 11×(16×2+1)
//! facades). This binary reproduces the accounting at our scale: the heap
//! run's data-class object count is `O(s)` (grows with the dataset), the
//! facade run's is pages + the statically bounded facade pool.

use datagen::{Graph, GraphSpec};
use facade_bench::{mem_unit, scale};
use facade_runtime::PoolBounds;
use graphchi_rs::{Backend, Engine, EngineConfig, PageRank};
use metrics::TextTable;

fn main() {
    let scale = scale();
    let budget = 8 * mem_unit();
    let mut table = TextTable::new(&[
        "Edges",
        "P data objects",
        "P' heap data objects",
        "P' pages",
        "P' facades",
        "reduction",
    ]);

    for spec in GraphSpec::figure4a_series(scale, 3) {
        let graph = Graph::generate(&spec);
        let mut heap_engine = Engine::new(
            &graph,
            EngineConfig {
                backend: Backend::Heap,
                budget_bytes: budget,
                ..EngineConfig::default()
            },
        );
        let p = heap_engine.execute(&PageRank::new(4)).expect("P completes");
        let mut facade_engine = Engine::new(
            &graph,
            EngineConfig {
                backend: Backend::Facade,
                budget_bytes: budget,
                ..EngineConfig::default()
            },
        );
        let p2 = facade_engine
            .execute(&PageRank::new(4))
            .expect("P' completes");

        // The facade pool bound for the GraphChi schema: the engine is
        // single-threaded per store and its three data classes never pass
        // more than one same-typed argument per call, so the §3.3 bound is
        // 1 per type — (1 param + 1 receiver) × 3 types + 4 array kinds × 2.
        let bounds = PoolBounds::uniform(3 + 4, 1);
        let facades = bounds.facades_per_thread() as u64;
        let pages = p2.stats.pages_created;
        let p_objects = p.stats.records_allocated;
        let p2_total = pages + facades;
        table.row_owned(vec![
            format!("{}", graph.edge_count()),
            format!("{p_objects}"),
            format!("{}", p2.stats.heap_objects),
            format!("{pages}"),
            format!("{facades}"),
            format!("{:.0}x", p_objects as f64 / p2_total as f64),
        ]);
    }
    println!("{table}");
    println!(
        "(paper: 14,257,280,923 -> 1,363 = ~10^7x at twitter-2010 scale; the ratio\n\
         grows linearly with dataset size because P is O(s) and P' is O(t*n + p))"
    );
}
