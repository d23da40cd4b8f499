//! A live-metrics registry: named counters, gauges, and
//! histograms with a lock-free hot path, Prometheus-style text exposition,
//! and a JSON snapshot.
//!
//! Instrumented code asks the registry for a handle once ([`Registry::counter`],
//! [`Registry::gauge`], [`Registry::histogram`]) and then updates it with
//! plain atomic operations — no lock is touched after registration, so
//! handles may be updated from any thread at allocation-path frequencies.
//! Exposition walks the registered names and renders either Prometheus text
//! ([`Registry::render_prometheus`]) or a JSON object
//! ([`Registry::snapshot_json`]).
//!
//! Metric names should match the Prometheus convention
//! (`[a-zA-Z_][a-zA-Z0-9_]*`); the registry does not rewrite them.
//!
//! ```
//! use metrics::Registry;
//!
//! let registry = Registry::new();
//! let allocs = registry.counter("heap_allocations");
//! let occupancy = registry.gauge("heap_live_bytes");
//! let pauses = registry.histogram("gc_pause_ns");
//!
//! allocs.inc();
//! occupancy.set(4096);
//! pauses.record(1_500);
//!
//! let text = registry.render_prometheus();
//! assert!(text.contains("heap_allocations 1"));
//! assert!(text.contains("heap_live_bytes 4096"));
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A monotonically increasing counter handle. Cloning is cheap and clones
/// share the same underlying value.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle: a value that can go up and down (occupancy, pool size).
/// Cloning is cheap and clones share the same underlying value.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjusts the gauge by `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is larger (high-water-mark updates).
    pub fn max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Lock-free power-of-two value histogram backing a [`Histogram`] handle.
/// Bucket `i` counts values in `[2^i, 2^(i+1))`; zero counts in bucket 0.
#[derive(Debug)]
struct HistogramCore {
    buckets: [AtomicU64; 64],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// A histogram handle for latency/size distributions: records are atomic,
/// summaries come out as count / sum / max and bucket-edge percentiles.
/// Cloning is cheap and clones share the same underlying distribution.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Records one value.
    pub fn record(&self, v: u64) {
        let bucket = 63 - v.max(1).leading_zeros() as usize;
        self.0.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
        self.0.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded value (zero when empty).
    pub fn max(&self) -> u64 {
        self.0.max.load(Ordering::Relaxed)
    }

    /// An upper bound on the given percentile (0.0–1.0) from bucket edges,
    /// clamped to the observed maximum; zero when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let target = ((p.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, bucket) in self.0.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= target {
                let upper = if i >= 63 { u64::MAX } else { 1u64 << (i + 1) };
                return upper.min(self.max());
            }
        }
        self.max()
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// A named-metric registry: counters, gauges, and histograms looked up by
/// name, lock-free to update, with Prometheus-text and JSON exposition.
///
/// Handle lookup takes a read lock (a write lock only on first
/// registration); handle *updates* never touch the registry again.
#[derive(Debug, Default)]
pub struct Registry {
    inner: RwLock<Inner>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter named `name`, registering it at zero on first use.
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(c) = self.inner.read().expect("registry lock").counters.get(name) {
            return c.clone();
        }
        let mut inner = self.inner.write().expect("registry lock");
        inner
            .counters
            .entry(name.to_string())
            .or_insert_with(|| Counter(Arc::new(AtomicU64::new(0))))
            .clone()
    }

    /// Returns the gauge named `name`, registering it at zero on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        if let Some(g) = self.inner.read().expect("registry lock").gauges.get(name) {
            return g.clone();
        }
        let mut inner = self.inner.write().expect("registry lock");
        inner
            .gauges
            .entry(name.to_string())
            .or_insert_with(|| Gauge(Arc::new(AtomicI64::new(0))))
            .clone()
    }

    /// Returns the histogram named `name`, registering it empty on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        if let Some(h) = self
            .inner
            .read()
            .expect("registry lock")
            .histograms
            .get(name)
        {
            return h.clone();
        }
        let mut inner = self.inner.write().expect("registry lock");
        inner
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram(Arc::new(HistogramCore::default())))
            .clone()
    }

    /// Renders every metric in Prometheus text-exposition style: a `# TYPE`
    /// line per metric, `name value` samples for counters and gauges, and
    /// summary-style `{quantile="..."}` / `_sum` / `_count` samples for
    /// histograms. Metrics appear in name order within each kind.
    pub fn render_prometheus(&self) -> String {
        let inner = self.inner.read().expect("registry lock");
        let mut out = String::new();
        for (name, c) in &inner.counters {
            let _ = writeln!(out, "# TYPE {name} counter\n{name} {}", c.get());
        }
        for (name, g) in &inner.gauges {
            let _ = writeln!(out, "# TYPE {name} gauge\n{name} {}", g.get());
        }
        for (name, h) in &inner.histograms {
            let _ = writeln!(out, "# TYPE {name} summary");
            for (q, p) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
                let _ = writeln!(out, "{name}{{quantile=\"{p}\"}} {}", h.percentile(q));
            }
            let _ = writeln!(out, "{name}_sum {}\n{name}_count {}", h.sum(), h.count());
        }
        out
    }

    /// Snapshots every metric as one JSON object:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {name: {"count",
    /// "sum", "max", "p50", "p90", "p99"}, ...}}`. Keys are name-ordered, so
    /// output is deterministic for a given registry state.
    pub fn snapshot_json(&self) -> String {
        let inner = self.inner.read().expect("registry lock");
        let mut out = String::from("{\"counters\": {");
        for (i, (name, c)) in inner.counters.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(out, "{sep}\"{name}\": {}", c.get());
        }
        out.push_str("}, \"gauges\": {");
        for (i, (name, g)) in inner.gauges.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(out, "{sep}\"{name}\": {}", g.get());
        }
        out.push_str("}, \"histograms\": {");
        for (i, (name, h)) in inner.histograms.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"count\": {}, \"sum\": {}, \"max\": {}, \
                 \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
                h.count(),
                h.sum(),
                h.max(),
                h.percentile(0.5),
                h.percentile(0.9),
                h.percentile(0.99),
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_register_once_and_share_state() {
        let r = Registry::new();
        let c1 = r.counter("c");
        let c2 = r.counter("c");
        c1.add(2);
        c2.inc();
        assert_eq!(r.counter("c").get(), 3);

        let g = r.gauge("g");
        g.set(10);
        g.add(-4);
        g.max(3); // below current value: no effect
        assert_eq!(r.gauge("g").get(), 6);
        g.max(100);
        assert_eq!(g.get(), 100);

        let h = r.histogram("h");
        for v in [1u64, 2, 4, 1000] {
            h.record(v);
        }
        assert_eq!(r.histogram("h").count(), 4);
        assert_eq!(r.histogram("h").sum(), 1007);
        assert_eq!(r.histogram("h").max(), 1000);
    }

    #[test]
    fn histogram_percentiles_bracket_the_distribution() {
        let r = Registry::new();
        let h = r.histogram("lat");
        for _ in 0..99 {
            h.record(10);
        }
        h.record(100_000);
        // p50 lands in 10's bucket: upper edge 16.
        assert_eq!(h.percentile(0.5), 16);
        // p99 still within the dense bucket, p100 reaches the outlier.
        assert!(h.percentile(0.99) <= 16);
        assert_eq!(h.percentile(1.0), 100_000);
        // Empty histogram yields zero.
        assert_eq!(r.histogram("empty").percentile(0.99), 0);
    }

    #[test]
    fn concurrent_updates_are_lock_free_and_lossless() {
        let r = Registry::new();
        let threads = 8;
        let per_thread = 10_000u64;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let c = r.counter("contended");
                let h = r.histogram("contended_h");
                scope.spawn(move || {
                    for i in 0..per_thread {
                        c.inc();
                        h.record(i);
                    }
                });
            }
        });
        assert_eq!(r.counter("contended").get(), threads * per_thread);
        assert_eq!(r.histogram("contended_h").count(), threads * per_thread);
    }

    #[test]
    fn prometheus_exposition_covers_every_kind() {
        let r = Registry::new();
        r.counter("requests").add(7);
        r.gauge("pool_pages").set(-2);
        let h = r.histogram("pause_ns");
        h.record(1_000);
        h.record(3_000);
        let text = r.render_prometheus();
        assert!(
            text.contains("# TYPE requests counter\nrequests 7\n"),
            "{text}"
        );
        assert!(
            text.contains("# TYPE pool_pages gauge\npool_pages -2\n"),
            "{text}"
        );
        assert!(text.contains("# TYPE pause_ns summary"), "{text}");
        assert!(text.contains("pause_ns{quantile=\"0.5\"}"), "{text}");
        assert!(
            text.contains("pause_ns_sum 4000\npause_ns_count 2\n"),
            "{text}"
        );
    }

    #[test]
    fn json_snapshot_is_deterministic_and_complete() {
        let r = Registry::new();
        r.counter("b_counter").add(2);
        r.counter("a_counter").add(1);
        r.gauge("occupancy").set(42);
        r.histogram("h").record(5);
        let json = r.snapshot_json();
        // Name-ordered keys make the snapshot stable.
        let a = json.find("\"a_counter\"").unwrap();
        let b = json.find("\"b_counter\"").unwrap();
        assert!(a < b, "{json}");
        assert!(json.contains("\"occupancy\": 42"), "{json}");
        assert!(
            json.contains("\"h\": {\"count\": 1, \"sum\": 5, \"max\": 5"),
            "{json}"
        );
        assert_eq!(json, r.snapshot_json());
    }
}
