//! **heapstat**: heap introspection on one workload, both backends.
//!
//! Runs the identical record workload through a managed-heap [`Store`] and
//! a facade (paged) [`Store`], takes a live-object census from each at the
//! same logical mid-workload point, and reports the paper's Table-3
//! contrast directly: the managed census is a per-class histogram that
//! scales with the input, the facade census collapses to a handful of
//! pages no matter how many records flow through.
//!
//! Along the way it exercises the whole telemetry stack:
//!
//! - the managed run is budget-squeezed so the collector runs, producing a
//!   HotSpot-style GC log (`target/experiments/heapstat_gc.log`) and pause
//!   percentiles via a [`metrics::Histogram`];
//! - live-byte occupancy is recorded into a gauge and a histogram at the
//!   end of every chunk;
//! - the facade run draws from a shared [`PagePool`] and publishes the
//!   pool gauges;
//! - the registry is exported both ways: Prometheus text
//!   (`target/experiments/heapstat_metrics.prom`) and a JSON snapshot
//!   embedded in `target/experiments/heapstat.json`.
//!
//! Honours `FACADE_SCALE`; `FACADE_HEAPSTAT_OUT` overrides the JSON path.

use data_store::{Backend, ElemTy, FieldTy, PagePool, Store, StoreCensus};
use facade_bench::{census_json, mib, scale};
use managed_heap::format_gc_log_line;
use metrics::{Gauge, Histogram, OutOfMemory, Registry, TextTable};
use std::path::PathBuf;
use std::sync::Arc;

const CHUNK: usize = 2_000;

/// Allocates `n` short-lived `Vertex` records in iteration-bracketed
/// chunks, mirroring a framework's sub-iteration allocation pattern, and
/// returns the census taken mid-chunk halfway through — the same logical
/// point for both backends. Each chunk's live bytes, taken before the
/// chunk's records die, go into the `live` gauge and histogram.
fn workload(
    store: &mut Store,
    n: usize,
    (live_gauge, live_hist): (&Gauge, &Histogram),
) -> Result<StoreCensus, OutOfMemory> {
    let vertex = store.register_class("Vertex", &[FieldTy::I32, FieldTy::F64, FieldTy::Ref]);
    let (id, rank) = (store.field(vertex, 0), store.field(vertex, 1));
    let chunks = n.div_ceil(CHUNK);
    let mut census = None;
    for chunk in 0..chunks {
        let count = CHUNK.min(n - chunk * CHUNK);
        let it = store.iteration_start();
        let arr = store.alloc_array(ElemTy::Ref, count)?;
        let root = store.add_root(arr);
        for i in 0..count {
            let v = store.alloc(vertex)?;
            store.set_i32(v, id, (chunk * CHUNK + i) as i32);
            store.set_f64(v, rank, 1.0);
            store.array_set_rec(arr, i, v);
        }
        if chunk == chunks / 2 {
            census = Some(store.census());
        }
        let live_bytes = store.stats().current_bytes;
        live_gauge.set(i64::try_from(live_bytes).unwrap_or(i64::MAX));
        live_hist.record(live_bytes);
        store.remove_root(root);
        store.iteration_end(it);
    }
    Ok(census.expect("at least one chunk"))
}

fn experiments_dir() -> PathBuf {
    let dir = PathBuf::from("target/experiments");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

fn main() {
    let n = ((scale() * 500_000.0) as usize).max(20_000);
    // A budget well under the live churn, so the managed run must collect
    // (the GC log needs pauses) while each chunk still fits comfortably.
    let budget = 512 << 10;
    eprintln!("heapstat: {n} Vertex records in chunks of {CHUNK}, budget {budget} bytes");

    let registry = Registry::new();
    let live_gauge = registry.gauge("heapstat_live_bytes");
    let live_hist = registry.histogram("heapstat_live_bytes_sampled");
    let live = (&live_gauge, &live_hist);

    // ---- managed-heap backend (the paper's P) ----------------------------
    let mut managed_store = Store::builder()
        .backend(Backend::Heap)
        .budget(budget)
        .build();
    let managed = workload(&mut managed_store, n, live).expect("managed run fits budget");
    let pauses = managed_store.pause_records();
    let gc_hist = registry.histogram("heapstat_gc_pause_ns");
    let mut gc_log = String::new();
    for (seq, record) in pauses.iter().enumerate() {
        gc_hist.record(record.pause_ns);
        gc_log.push_str(&format_gc_log_line(seq as u64, record));
        gc_log.push('\n');
    }
    registry
        .counter("heapstat_gc_collections")
        .add(pauses.len() as u64);

    // ---- facade backend (the paper's P'), pooled -------------------------
    let pool = Arc::new(PagePool::with_default_config());
    let mut facade_store = Store::builder()
        .budget(budget)
        .pool(Arc::clone(&pool))
        .build();
    let facade = workload(&mut facade_store, n, live).expect("facade run fits budget");
    facade_store.release_pages();
    pool.publish_gauges(&registry, "facade_pool");

    // ---- report ----------------------------------------------------------
    let mut table = TextTable::new(&["Backend", "LiveObjects", "LiveMiB", "RecordsAlloc", "GCs"]);
    for (census, gcs) in [(&managed, pauses.len()), (&facade, 0)] {
        table.row_owned(vec![
            census.backend.to_string(),
            census.live_objects.to_string(),
            mib(census.live_bytes),
            census.records_allocated.to_string(),
            gcs.to_string(),
        ]);
    }
    println!("{table}");
    println!("Table-3 shape: managed census scales with input, facade census is page-bounded:");
    for census in [&managed, &facade] {
        for row in &census.rows {
            println!(
                "  [{}] {:<12} count={:<8} shallow={:<10} headers={}",
                census.backend, row.name, row.count, row.shallow_bytes, row.header_bytes
            );
        }
    }
    assert!(
        facade.live_objects * 100 < managed.records_allocated,
        "facade census ({}) must collapse against record traffic ({})",
        facade.live_objects,
        managed.records_allocated
    );
    assert!(!pauses.is_empty(), "managed run must produce GC pauses");

    let dir = experiments_dir();
    let gc_log_path = dir.join("heapstat_gc.log");
    std::fs::write(&gc_log_path, &gc_log).expect("write gc log");
    eprintln!("wrote {} ({} pauses)", gc_log_path.display(), pauses.len());

    let prom_path = dir.join("heapstat_metrics.prom");
    std::fs::write(&prom_path, registry.render_prometheus()).expect("write prometheus text");
    eprintln!("wrote {}", prom_path.display());

    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"heapstat\",\n",
            "  \"records\": {},\n",
            "  \"budget_bytes\": {},\n",
            "  \"managed\": {},\n",
            "  \"facade\": {},\n",
            "  \"gc\": {{\"pauses\": {}}},\n",
            "  \"metrics\": {}\n",
            "}}\n"
        ),
        n,
        budget,
        census_json(&managed),
        census_json(&facade),
        pauses.len(),
        registry.snapshot_json(),
    );
    let path = std::env::var("FACADE_HEAPSTAT_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|_| dir.join("heapstat.json"));
    std::fs::write(&path, json).expect("write heapstat output");
    eprintln!("wrote {}", path.display());
}
