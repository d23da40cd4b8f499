//! `dataflow_batch`: WordCount then ExternalSort through the Hyracks runner
//! on a Zipf corpus.
//!
//! Chosen because `hyracks-rs`' hash table and sort-merge and `data-store`
//! record and byte-array allocation dominate while the graph engine is
//! idle. WordCount reads and aggregates, ExternalSort writes, sorts and
//! merges: a gain for one that costs the other shows in `hyracks.wc_ms`
//! against `hyracks.es_ms`.

use super::{PAGE_BYTES, digest, push_gc, push_page_traffic};
use crate::harness::{Checks, Ctx, LegOutcome, Workload};
use crate::oracle::{self, CorpusAnswers};
use crate::probes;
use crate::report::Samples;
use crate::trace::LegSpans;
use datagen::{CorpusSpec, Graph, corpus};
use facade_job::{
    Dataset, ExecContext, HyracksRunner, JobOutput, JobRunner, JobSpec, Workload as JobKind,
};
use hyracks_rs::{Cluster, ClusterConfig, JobStats};
use metrics::report::Backend;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Approximate corpus size.
pub const CORPUS_BYTES: usize = 512 << 10;
/// Data partitions (fixes the ExternalSort output bit for bit).
pub const PARTITIONS: usize = 4;
/// Per-worker memory budget.
pub const BUDGET_BYTES: usize = 4 << 20;
/// Frame granularity.
pub const FRAME_BYTES: usize = 16 << 10;

/// The generated corpus and its oracle answers.
#[derive(Debug)]
pub struct DataflowBatch {
    data: Dataset,
    answers: CorpusAnswers,
}

/// What a WordCount + ExternalSort pair produced, whichever way it was
/// called.
struct Pair {
    wc: JobOutput,
    es: JobOutput,
    pages_created: [u64; 2],
}

/// Generates the workload's corpus; shared with the determinism tests.
pub fn generate(seed: u64) -> Vec<String> {
    corpus(&CorpusSpec::new(CORPUS_BYTES, seed))
}

fn spec(kind: JobKind, backend: Backend) -> JobSpec {
    JobSpec {
        workload: kind,
        backend,
        threads: 1,
        workers: PARTITIONS,
        budget_bytes: BUDGET_BYTES,
        frame_bytes: FRAME_BYTES,
        ..JobSpec::default()
    }
}

fn cluster_config(backend: Backend) -> ClusterConfig {
    ClusterConfig {
        workers: PARTITIONS,
        threads: 1,
        backend,
        per_worker_budget: BUDGET_BYTES,
        frame_bytes: FRAME_BYTES,
        ..ClusterConfig::default()
    }
}

impl DataflowBatch {
    /// The leg as a user runs it: two jobs through the runner.
    fn through_runner(&self, backend: Backend, checks: &mut Checks) -> (Duration, Option<Pair>) {
        let ctx = ExecContext::default();
        let wc_spec = spec(JobKind::WordCount, backend);
        let es_spec = spec(JobKind::ExternalSort, backend);
        let started = Instant::now();
        let wc = HyracksRunner.execute(&wc_spec, &self.data, &ctx);
        let es = HyracksRunner.execute(&es_spec, &self.data, &ctx);
        let wall = started.elapsed();
        checks.check(wc.is_ok(), || {
            format!("WordCount job failed: {:?}", wc.as_ref().err())
        });
        checks.check(es.is_ok(), || {
            format!("ExternalSort job failed: {:?}", es.as_ref().err())
        });
        let pair = wc.ok().zip(es.ok()).map(|(wc, es)| Pair {
            pages_created: [wc.pages_created, es.pages_created],
            wc: wc.output,
            es: es.output,
        });
        (wall, pair)
    }

    /// The decomposed leg: the same two jobs called one layer down
    /// (`Cluster::word_count`, `Cluster::external_sort`), a span around
    /// each call.
    fn through_cluster(&self, backend: Backend, ctx: &mut Ctx<'_>) -> (Duration, Option<Pair>) {
        let (leg_name, wc_name, es_name) = if backend == Backend::Facade {
            ("job.facade", "hyracks.wc", "hyracks.es")
        } else {
            ("job.heap", "hyracks.heap_wc", "hyracks.heap_es")
        };
        let words = &self.data.corpus;
        let mut spans = LegSpans::open(ctx.tracer.as_deref_mut(), leg_name, ctx.rep);
        let started = Instant::now();
        let wc = spans.call(wc_name, || {
            Cluster::new(&cluster_config(backend)).word_count(words)
        });
        let es = spans.call(es_name, || {
            Cluster::new(&cluster_config(backend)).external_sort(words)
        });
        let wall = started.elapsed();
        spans.close();

        ctx.checks.check(wc.is_ok(), || {
            format!("WordCount run failed: {:?}", wc.as_ref().err())
        });
        ctx.checks.check(es.is_ok(), || {
            format!("ExternalSort run failed: {:?}", es.as_ref().err())
        });
        let (Ok(wc), Ok(es)) = (wc, es) else {
            return (wall, None);
        };
        push_layers(backend, &wc.stats, &es.stats, wall, ctx);
        let pair = Pair {
            pages_created: [wc.stats.pages_created, es.stats.pages_created],
            wc: JobOutput::WordCount {
                distinct: wc.distinct_words,
                total: wc.total_count,
                counts: wc.counts,
            },
            es: JobOutput::ExternalSort {
                rows: es.total_records,
                checksum: es.checksum,
            },
        };
        (wall, Some(pair))
    }

    /// Checks one leg's outputs against the oracles: two checks, one per
    /// job.
    pub fn check_outputs(&self, wc: &JobOutput, es: &JobOutput, checks: &mut Checks) {
        checks.check(
            matches!(wc, JobOutput::WordCount { distinct, total, counts }
                if self.answers.word_count_matches(*distinct, *total, counts)),
            || "WordCount table differs from HashMap".into(),
        );
        checks.check(
            matches!(es, JobOutput::ExternalSort { rows, checksum }
                if (*rows, *checksum) == self.answers.es_payload),
            || "ExternalSort payload differs from sort_unstable".into(),
        );
    }
}

fn push_layers(backend: Backend, wc: &JobStats, es: &JobStats, wall: Duration, ctx: &mut Ctx<'_>) {
    if backend == Backend::Facade {
        ctx.samples.push(
            "hyracks.records_per_s",
            (wc.records_allocated + es.records_allocated) as f64 / wall.as_secs_f64(),
        );
        ctx.samples.push(
            "hyracks.retries",
            (wc.resilience.retries + es.resilience.retries) as f64,
        );
        let recycled = [wc, es]
            .iter()
            .flat_map(|s| &s.per_worker)
            .map(|w| w.stats.pages_recycled)
            .sum();
        push_page_traffic(
            ctx.samples,
            wc.pages_created + es.pages_created,
            recycled,
            &[wc.pool, es.pool],
        );
    } else {
        let pauses = [wc, es]
            .into_iter()
            .flat_map(|s| &s.per_worker)
            .flat_map(|w| w.pauses.iter().copied());
        push_gc(
            ctx.samples,
            wc.gc_time + es.gc_time,
            wc.gc_count + es.gc_count,
            pauses,
            wall,
        );
    }
}

impl Workload for DataflowBatch {
    const NAME: &'static str = "dataflow_batch";
    // Matched on a 2-vCPU shared VM: see README.md, "Fixed sizes".
    const NATIVE_K: u32 = 12;
    const ASSERT_FACADE_FASTER: bool = true;

    fn setup(seed: u64, samples: &mut Samples, _checks: &mut Checks) -> Self {
        let started = Instant::now();
        let words = generate(seed);
        samples.push("datagen.corpus_gen_ms", super::ms(started.elapsed()));
        DataflowBatch {
            answers: CorpusAnswers::of(&words, PARTITIONS),
            data: Dataset::new(
                words,
                Graph {
                    vertices: 0,
                    edges: Vec::new(),
                },
            ),
        }
    }

    fn native(&self) {
        for _ in 0..Self::NATIVE_K {
            black_box(oracle::word_count(black_box(&self.data.corpus)));
            black_box(oracle::external_sort(
                black_box(&self.data.corpus),
                PARTITIONS,
            ));
        }
    }

    fn leg(&mut self, backend: Backend, ctx: &mut Ctx<'_>) -> LegOutcome {
        let (wall, pair) = if ctx.tracer.is_some() {
            self.through_cluster(backend, ctx)
        } else {
            self.through_runner(backend, ctx.checks)
        };
        let Some(pair) = pair else {
            return LegOutcome {
                wall,
                ..LegOutcome::default()
            };
        };
        self.check_outputs(&pair.wc, &pair.es, ctx.checks);
        LegOutcome {
            wall,
            fingerprint: digest([pair.wc.fingerprint(), pair.es.fingerprint()]),
            // Each job owns a private pool and pages are only ever
            // recycled, so the larger job's page count is the leg's
            // high-water mark.
            peak_bytes: pair.pages_created[0].max(pair.pages_created[1]) * PAGE_BYTES,
        }
    }

    fn probes(&mut self, samples: &mut Samples, _checks: &mut Checks) {
        probes::data_store(samples);
        probes::page_runtime(samples);
    }

    fn teardown(self, _checks: &mut Checks) {}
}
