//! The Hyracks jobs' control path allocates per partition, per frame and
//! per distinct word, never per record: the Rust-heap allocations a
//! WordCount or ExternalSort job makes beside its store barely move when
//! its corpus doubles.
//!
//! A counting global allocator over `System` sees every allocation in the
//! process, so this binary holds exactly one test: a second one running
//! beside it would count into the same totals.

use facade::datagen::{CorpusSpec, corpus};
use facade::hyracks::{Cluster, ClusterConfig};
use facade::metrics::report::Backend;
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
                wc_per_token <= 0.1,
                "WC made {wc_per_token:.3} allocations per added token"
            );
        }
    }
}
