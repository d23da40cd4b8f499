//! The Hyracks jobs' control path allocates per partition, per frame and
//! per distinct word, never per record: the Rust-heap allocations a
//! WordCount or ExternalSort job makes beside its store barely move when
//! its corpus doubles. The interpreter running a compiled `P'` allocates
//! per page, not per record, either.
//!
//! A counting global allocator over `System` sees every allocation in the
//! process, so this binary holds exactly one test: a second one running
//! beside it would count into the same totals.

use facade::compiler::{PassConfig, compile, corpus::sum_list};
use facade::datagen::{CorpusSpec, Graph, GraphSpec, corpus};
use facade::graphchi::{ConnectedComponents, Engine, EngineConfig, PageRank, VertexProgram};
use facade::hyracks::{Cluster, ClusterConfig};
use facade::metrics::report::Backend;
use facade::vm::{Value, Vm};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation and reallocation, then defers to `System`.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: each method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no memory the
// allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The allocations `job` makes.
fn allocations(job: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    job();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

const WORKERS: usize = 4;

/// (WC, ES) allocations of one job each over `words`, on one thread.
fn job_allocations(backend: Backend, words: &[String]) -> (u64, u64) {
    let cluster = Cluster::new(&ClusterConfig {
        workers: WORKERS,
        threads: 1,
        backend,
        ..ClusterConfig::default()
    });
    let wc = allocations(|| {
        cluster.word_count(words).expect("WC completes");
    });
    let es = allocations(|| {
        cluster.external_sort(words).expect("ES completes");
    });
    (wc, es)
}

/// (allocations, pages created) of a fresh `P'` VM building the `sum_list`
/// corpus program's list of `n` records and summing it.
fn vm_allocations(n: i32) -> (u64, u64) {
    let entry = sum_list();
    let compiled = compile(&entry.program, &entry.spec, &PassConfig::default()).expect("compiles");
    let node = entry.program.class_by_name("Node").expect("Node");
    let [build, sum] = ["build", "sum"].map(|name| {
        let m = entry
            .program
            .method_by_name(node, name)
            .expect("a Node method");
        compiled.meta.method_map[&m]
    });
    let mut pages = 0;
    let count = allocations(|| {
        let mut vm = Vm::new_paged(&compiled.transformed, &compiled.meta);
        let head = vm.call(build, vec![Value::I32(n)]).expect("build runs");
        let total = vm.call(sum, vec![head.expect("a list"), Value::I32(n)]);
        assert_eq!(total.expect("sum runs"), Some(Value::I32(n * (n - 1) / 2)));
        pages = vm.paged().stats().pages_created;
    });
    (count, pages)
}

/// GraphChi's intervals per pass; the default budget fits each in one
/// subinterval at both graph sizes below.
const INTERVALS: usize = 4;

/// Allocations a GraphChi subinterval may make (its windows, buffers and
/// scope), well above the ~23 per subinterval a run averages.
const PER_SUBINTERVAL: f64 = 32.0;

/// (allocations, subintervals run, pages created) of one facade GraphChi
/// run of `app` on one thread; the run's engine is built inside the count.
fn graph_allocations(graph: &Graph, app: &dyn VertexProgram) -> (u64, usize, u64) {
    let config = EngineConfig {
        backend: Backend::Facade,
        intervals: INTERVALS,
        threads: 1,
        ..EngineConfig::default()
    };
    let mut out = None;
    let count = allocations(|| {
        let mut engine = Engine::new(graph, config);
        out = Some(engine.execute(app).expect("GraphChi completes"));
    });
    let out = out.expect("the run finished");
    (count, out.passes * INTERVALS, out.stats.pages_created)
}

#[test]
fn job_allocations_do_not_grow_with_the_record_count() {
    let mut words = corpus(&CorpusSpec::new(256 << 10, 3));
    // A multiple of the worker count, so the corpus repeated twice puts
    // every repeated token in its first copy's partition: each partition
    // doubles, and its distinct words stay the same.
    words.truncate(words.len() / WORKERS * WORKERS);
    let twice: Vec<String> = words.iter().chain(&words).cloned().collect();
    let added = words.len() as f64;

    for backend in [Backend::Facade, Backend::Heap] {
        // Warm up: one-time statics (thread-locals, trace state) are not
        // the jobs' cost.
        job_allocations(backend, &words);
        let (wc1, es1) = job_allocations(backend, &words);
        let (wc2, es2) = job_allocations(backend, &twice);
        let wc_per_token = (wc2 as f64 - wc1 as f64) / added;
        let es_growth = es2 as i64 - es1 as i64;
        println!(
            "{backend:?}: {} tokens → {}: WC {wc1} → {wc2} ({wc_per_token:.3} per added token), \
             ES {es1} → {es2} ({es_growth:+})",
            words.len(),
            twice.len(),
        );
        // The bound holds the backend `P'` runs on; the heap backend's
        // counts are printed beside it for comparison.
        if backend == Backend::Facade {
            assert!(
                es_growth <= 64,
                "ES allocations grew by {es_growth} when its records doubled"
            );
            assert!(
                wc_per_token <= 0.01,
                "WC made {wc_per_token:.3} allocations per added token"
            );
        }
    }
    // GraphChi's `P'` data path: vertices and edges live in pages, so a run
    // allocates per subinterval and per page it fills, never per vertex or
    // edge.
    let small = Graph::generate(&GraphSpec::new(1_000, 8_000, 11));
    let large = Graph::generate(&GraphSpec::new(2_000, 16_000, 11));
    let added =
        (large.vertices - small.vertices) as f64 + (large.edge_count() - small.edge_count()) as f64;
    let apps: [(&str, &dyn VertexProgram); 2] = [
        ("PR", &PageRank::new(4)),
        ("CC", &ConnectedComponents::new(100)),
    ];
    for (name, app) in apps {
        graph_allocations(&small, app);
        let (a1, s1, p1) = graph_allocations(&small, app);
        let (a2, s2, p2) = graph_allocations(&large, app);
        let per_record =
            (a2 as f64 - a1 as f64 - PER_SUBINTERVAL * (s2 as f64 - s1 as f64)) / added;
        println!(
            "GraphChi {name}: 2× vertices and edges: {a1} → {a2} allocations, \
             {s1} → {s2} subintervals, {p1} → {p2} pages ({per_record:.4} per added vertex or edge)"
        );
        assert!(
            per_record <= 0.01,
            "GraphChi {name} made {per_record:.4} allocations per added vertex or edge"
        );
    }
    // The interpreter's `P'`: records live in pages, so the Rust heap grows
    // by the pages they fill and nothing per record.
    vm_allocations(1_000);
    let (n1, n2) = (20_000, 40_000);
    let ((a1, p1), (a2, p2)) = (vm_allocations(n1), vm_allocations(n2));
    println!("VM P': {n1} → {n2} records: {a1} → {a2} allocations, {p1} → {p2} pages");
    assert!(
        a2 - a1 <= p2 - p1 + 8,
        "P' allocations grew by {} for {} more pages",
        a2 - a1,
        p2 - p1
    );
}
