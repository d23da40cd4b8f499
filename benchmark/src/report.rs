//! The metric catalogue (names, units, direction, bounds — mirrored by
//! `BENCHMARK.json`) and the run report: a human-readable table followed by
//! the one-line JSON result the acceptance driver reads.

use crate::stats::Summary;
use std::collections::BTreeMap;

/// One catalogue entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Metric name (`layer.metric` for per-layer metrics).
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// Relative worsening that counts as a regression (end-to-end only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
        bound: None,
    }
}

/// The end-to-end metrics every workload reports from its untraced run.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", 0.25),
    e2e("facade_x_native", "x", 0.10),
    e2e("heap_x_native", "x", 0.10),
    e2e("facade_peak_bytes", "bytes", 0.02),
];

/// The per-layer metrics every workload reports from its traced run; a
/// layer the workload leaves idle reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    lower("datagen.graph_gen_ms", "ms"),
    lower("datagen.corpus_gen_ms", "ms"),
    lower("job.facade_ms", "ms"),
    lower("job.heap_ms", "ms"),
    lower("job.native_ms", "ms"),
    lower("job.facade_vs_heap", "x"),
    lower("job.facade_p90_ms", "ms"),
    lower("job.heap_p90_ms", "ms"),
    lower("job.rep_iqr_rel", "ratio"),
    lower("graphchi.new_ms", "ms"),
    lower("graphchi.pr_ms", "ms"),
    lower("graphchi.cc_ms", "ms"),
    lower("graphchi.load_ms", "ms"),
    lower("graphchi.update_ms", "ms"),
    higher("graphchi.edges_per_s", "1/s"),
    lower("graphchi.heap_pr_ms", "ms"),
    lower("graphchi.heap_cc_ms", "ms"),
    lower("hyracks.wc_ms", "ms"),
    lower("hyracks.es_ms", "ms"),
    higher("hyracks.records_per_s", "1/s"),
    lower("hyracks.retries", "count"),
    lower("hyracks.heap_wc_ms", "ms"),
    lower("hyracks.heap_es_ms", "ms"),
    lower("data_store.record_alloc_ns", "ns"),
    lower("data_store.field_get_ns", "ns"),
    lower("data_store.field_set_ns", "ns"),
    lower("data_store.array_get_ns", "ns"),
    lower("data_store.array_set_ns", "ns"),
    lower("data_store.bytes_alloc_ns", "ns"),
    lower("data_store.heap_record_alloc_ns", "ns"),
    lower("data_store.heap_field_get_ns", "ns"),
    lower("data_store.heap_field_set_ns", "ns"),
    lower("data_store.heap_array_get_ns", "ns"),
    lower("data_store.heap_array_set_ns", "ns"),
    lower("data_store.heap_bytes_alloc_ns", "ns"),
    lower("facade_runtime.pool_acquire_ns", "ns"),
    lower("facade_runtime.pool_release_ns", "ns"),
    lower("facade_runtime.pages_created", "count"),
    higher("facade_runtime.pages_recycled", "count"),
    higher("facade_runtime.recycle_share", "ratio"),
    lower("facade_runtime.iteration_end_us", "us"),
    lower("facade_runtime.epoch_mint_retire_us", "us"),
    lower("managed_heap.gc_ms", "ms"),
    lower("managed_heap.gc_count", "count"),
    lower("managed_heap.gc_pause_max_ms", "ms"),
    lower("managed_heap.gc_share", "ratio"),
    lower("facade_job.dispatch_overhead_us", "us"),
    lower("facade_job.spec_json_us", "us"),
    higher("metrics.json_parse_mb_s", "MB/s"),
    lower("metrics.http_healthz_us", "us"),
    lower("server.submit_us", "us"),
    lower("server.job_facade_ms", "ms"),
    lower("server.job_heap_ms", "ms"),
    lower("server.job_engine_ms", "ms"),
    lower("server.job_overhead_ms", "ms"),
    lower("server.polls_per_job", "count"),
    lower("server.query_pagerank_us", "us"),
    lower("server.query_cc_us", "us"),
    lower("server.query_wc_us", "us"),
    lower("server.stats_us", "us"),
    lower("server.metrics_us", "us"),
    lower("server.query_p99_us", "us"),
    lower("server.job_facade_p90_ms", "ms"),
    lower("server.shed_share", "ratio"),
    higher("server.requests_per_s", "1/s"),
    lower("facade_ir.parse_us", "us"),
    lower("facade_ir.verify_us", "us"),
    lower("facade_ir.render_us", "us"),
    lower("facade_compiler.transform_us", "us"),
    lower("facade_compiler.pass_epoch_us", "us"),
    lower("facade_compiler.pass_promote_us", "us"),
    lower("facade_compiler.pass_fastalloc_us", "us"),
    lower("facade_compiler.ir_lines_source", "count"),
    lower("facade_compiler.ir_lines_final", "count"),
    lower("facade_vm.paged_run_ms", "ms"),
    higher("facade_vm.paged_msteps_per_s", "Msteps/s"),
    higher("facade_vm.fast_alloc_hit_share", "ratio"),
    higher("facade_vm.pages_recycled", "count"),
    lower("facade_vm.heap_run_ms", "ms"),
    higher("facade_vm.heap_msteps_per_s", "Msteps/s"),
    higher("bench.reps", "count"),
    higher("bench.native_k", "count"),
    higher("bench.host_cpus", "count"),
    lower("bench.trace_overhead_rel", "ratio"),
    higher("bench.leg_coverage", "ratio"),
];

/// Raw samples per metric name, accumulated over a run. A metric's reported
/// value is the median of its samples unless the workload derives it
/// explicitly.
#[derive(Debug, Default, Clone)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    /// Appends one sample.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// Replaces `name`'s samples with the single value `value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, vec![value]);
    }

    /// Appends every sample of `other`.
    pub fn absorb(&mut self, other: Samples) {
        for (name, values) in other.0 {
            self.0.entry(name).or_default().extend(values);
        }
    }

    /// The samples recorded for `name` (empty if none).
    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }
}

/// What one run of one workload produced.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Workload name.
    pub workload: &'static str,
    /// Seed the inputs were generated from.
    pub seed: u64,
    /// `true` for the traced (per-layer) run.
    pub traced: bool,
    /// Operations attempted (jobs, requests, output checks).
    pub attempted: u64,
    /// Operations that errored, were refused, or failed their oracle check.
    pub failed: u64,
    /// First few failure descriptions, for the human reader.
    pub failures: Vec<String>,
    /// Every sample behind the reported values.
    pub samples: Samples,
}

impl RunReport {
    /// The catalogue this run reports against.
    pub fn catalogue(&self) -> &'static [MetricDef] {
        if self.traced { PER_LAYER } else { END_TO_END }
    }

    /// The reported value of `name`: the median of its samples, 0 for a
    /// layer this workload left idle.
    pub fn value(&self, name: &str) -> f64 {
        let s = self.samples.get(name);
        if s.is_empty() {
            0.0
        } else {
            crate::stats::median(s)
        }
    }

    /// `failed / attempted`.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The human-readable table: every metric by name with its unit, its
    /// sample count and quartiles.
    pub fn table(&self) -> String {
        let mut out = format!(
            "workload {}  seed {}  {}\n{:<38} {:>16} {:<9} {:>5} {:>14} {:>14} {:>18}\n",
            self.workload,
            self.seed,
            if self.traced {
                "traced run (per-layer metrics)"
            } else {
                "untraced run (end-to-end metrics)"
            },
            "metric",
            "value",
            "unit",
            "n",
            "q1",
            "q3",
            "tail",
        );
        for def in self.catalogue() {
            let summary = Summary::of(self.samples.get(def.name));
            let tail = summary
                .tail
                .map_or(String::from("-"), |(p, v)| format!("p{p}={}", fmt_value(v)));
            let (q1, q3) = if summary.n == 0 {
                (String::from("-"), String::from("-"))
            } else {
                (fmt_value(summary.q1), fmt_value(summary.q3))
            };
            out.push_str(&format!(
                "{:<38} {:>16} {:<9} {:>5} {:>14} {:>14} {:>18}\n",
                def.name,
                fmt_value(self.value(def.name)),
                def.unit,
                summary.n,
                q1,
                q3,
                tail,
            ));
        }
        if !self.traced {
            // Absolute times cannot meet a bound on a shared machine, so
            // they are not end-to-end metrics; printed for the reader.
            for name in [
                "job.facade_ms",
                "job.heap_ms",
                "job.native_ms",
                "job.facade_vs_heap",
            ] {
                let s = Summary::of(self.samples.get(name));
                out.push_str(&format!(
                    "  ({name:<34} {:>16} {:>15} {:>14} {:>14})\n",
                    fmt_value(s.median),
                    s.n,
                    fmt_value(s.q1),
                    fmt_value(s.q3),
                ));
            }
        }
        out.push_str(&format!(
            "{:<38} {:>16} {:<9} ({} failed of {} attempted)\n",
            "failed_share",
            fmt_value(self.failed_share()),
            "ratio",
            self.failed,
            self.attempted,
        ));
        for f in &self.failures {
            out.push_str(&format!("  FAILED: {f}\n"));
        }
        out
    }

    /// The result line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .catalogue()
            .iter()
            .map(|def| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    def.name,
                    json_number(self.value(def.name)),
                    def.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A number with all its digits, or 0 where JSON has no spelling (NaN, ∞).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        String::from("0")
    }
}

fn fmt_value(v: f64) -> String {
    if !v.is_finite() {
        String::from("-")
    } else if v != 0.0 && v.abs() < 0.01 {
        format!("{v:.3e}")
    } else if v.abs() >= 1e6 || v.fract() == 0.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}
