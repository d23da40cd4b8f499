//! GPS k-means with master-compute centroid aggregation — one of the three
//! §4.3 applications, showing the BSP engine's superstep/aggregator flow.
//!
//! Run with: `cargo run --release --example gps_kmeans`

use facade::datagen::{Graph, GraphSpec};
use facade::gps::{Backend, GpsConfig, KMeans, run};

fn main() {
    let graph = Graph::generate(&GraphSpec::livejournal_like(0.05));
    println!(
        "clustering {} vertices (feature = hashed 2-D position) into 4 clusters",
        graph.vertices
    );

    for backend in [Backend::Heap, Backend::Facade] {
        let mut kernel = KMeans::new(4, 25);
        let config = GpsConfig {
            workers: 4,
            backend,
            per_worker_budget: 16 << 20,
            ..GpsConfig::default()
        };
        let out = run(&graph, &mut kernel, &config).expect("run completes");
        let mut sizes = vec![0usize; 4];
        for &c in &out.values {
            sizes[c as usize] += 1;
        }
        println!(
            "{backend}: converged after {} supersteps in {:.3}s; cluster sizes {:?}",
            out.supersteps,
            out.timer.total().as_secs_f64(),
            sizes
        );
        for (i, (x, y)) in kernel.centroids().iter().enumerate() {
            println!("  centroid {i}: ({x:.3}, {y:.3})");
        }
    }
}
