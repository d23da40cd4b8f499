//! **Ablations** of the design choices DESIGN.md calls out:
//!
//! 1. **Record inlining** (§3.6 optimization 1): GraphChi `P'` with and
//!    without the inlined edge layout, against `P`. Without inlining, the
//!    paged data path allocates one record per edge — same shape as the
//!    heap — and the generational collector's cheap nursery reclamation
//!    erases most of FACADE's advantage. This quantifies why the paper's
//!    compiler bundles inlining with the transformation. ET is wall
//!    clock; UT, LT and GT are CPU-seconds summed over the engine's worker
//!    threads (`cpu-s`), so they need not add up to ET.
//! 2. **Heap tenure age**: how quickly the baseline promotes survivors.
//!    Early promotion (age 1) moves per-interval records into the old
//!    generation, converting cheap nursery collections into mark-compact
//!    work; late promotion keeps copying them between semispaces.
//! 3. **Page size-class packing**: pages, bytes held and allocation time
//!    for uniform vs mixed record sizes under the default allocator
//!    (open-page bump, then first-fit over the class's last four pages).
//!    The first-fit window is a constant, so no other width is compared.

use data_store::{FieldTy, Store};
use datagen::{Graph, GraphSpec};
use facade_bench::{mem_unit, scale, secs};
use graphchi_rs::{Backend, Engine, EngineConfig, PageRank};
use managed_heap::{Heap, HeapConfig};
use metrics::TextTable;
use metrics::phases;
use std::time::Instant;

fn main() {
    inlining_ablation();
    tenure_ablation();
    fit_window_ablation();
}

fn inlining_ablation() {
    let graph = Graph::generate(&GraphSpec::twitter_like(scale()));
    let budget = 8 * mem_unit();
    let mut table = TextTable::new(&[
        "Config",
        "ET(s)",
        "UT(cpu-s)",
        "LT(cpu-s)",
        "GT(cpu-s)",
        "records",
    ]);
    for (label, backend, inline) in [
        ("P (heap)", Backend::Heap, true),
        ("P' inlined (paper)", Backend::Facade, true),
        ("P' per-edge records", Backend::Facade, false),
    ] {
        let mut engine = Engine::new(
            &graph,
            EngineConfig {
                backend,
                budget_bytes: budget,
                inline_records: inline,
                ..EngineConfig::default()
            },
        );
        let out = engine.execute(&PageRank::new(4)).expect("run completes");
        table.row_owned(vec![
            label.to_string(),
            secs(out.timer.total()),
            secs(out.timer.phase(phases::UPDATE)),
            secs(out.timer.phase(phases::LOAD)),
            secs(out.timer.phase(phases::GC)),
            out.stats.records_allocated.to_string(),
        ]);
    }
    println!("Ablation 1: record inlining (GraphChi PR)\n{table}");
}

fn tenure_ablation() {
    let mut table = TextTable::new(&["Tenure age", "GC time (ms)", "minor", "full", "copied MiB"]);
    for tenure in [1u8, 2, 4, 8] {
        let mut heap = Heap::new(HeapConfig {
            tenure_age: tenure,
            ..HeapConfig::with_capacity(16 << 20)
        });
        let class = heap.register_class("T", &[managed_heap::FieldKind::I64; 4]);
        // A churn + medium-lived pattern: records live for one "interval"
        // of 20k allocations, pinned by a rotating root window.
        let mut window: Vec<managed_heap::RootId> = Vec::new();
        for i in 0..400_000u32 {
            let r = heap.alloc(class).expect("fits");
            if i % 10 == 0 {
                window.push(heap.add_root(r));
                if window.len() > 2_000 {
                    let old = window.remove(0);
                    heap.remove_root(old);
                }
            }
        }
        let s = heap.stats();
        table.row_owned(vec![
            tenure.to_string(),
            format!("{:.2}", s.gc_time.as_secs_f64() * 1e3),
            s.minor_collections.to_string(),
            s.full_collections.to_string(),
            format!("{:.1}", s.bytes_copied as f64 / (1 << 20) as f64),
        ]);
    }
    println!("Ablation 2: baseline GC tenure age (400k allocs, rotating live window)\n{table}");
}

fn fit_window_ablation() {
    // The facade allocator scans the last few pages of a size class before
    // opening a new page. Compare utilization across mixed record sizes.
    let mut table = TextTable::new(&["Workload", "pages", "bytes held (MiB)", "alloc time (ms)"]);
    for (label, sizes) in [
        ("uniform 32B", vec![2usize]),
        ("mixed 32B..4KiB", vec![2, 16, 120, 500]),
    ] {
        let mut store = Store::builder().build();
        let classes: Vec<_> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| store.register_class(&format!("T{i}"), &vec![FieldTy::I64; n]))
            .collect();
        let t0 = Instant::now();
        let it = store.iteration_start();
        for i in 0..200_000 {
            let class = classes[i % classes.len()];
            store.alloc(class).expect("unbounded");
        }
        let elapsed = t0.elapsed();
        let stats = store.stats();
        table.row_owned(vec![
            label.to_string(),
            stats.pages_created.to_string(),
            format!("{:.1}", stats.current_bytes as f64 / (1 << 20) as f64),
            format!("{:.2}", elapsed.as_secs_f64() * 1e3),
        ]);
        store.iteration_end(it);
    }
    println!("Ablation 3: size-class packing under mixed record sizes\n{table}");
}
