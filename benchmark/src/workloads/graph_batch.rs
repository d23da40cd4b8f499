//! `graph_batch`: PageRank then ConnectedComponents through the GraphChi
//! runner, each job on a private pool.
//!
//! Chosen because `graphchi-rs`, `data-store` array access and
//! `facade-runtime` page creation do nearly all the work while `hyracks-rs`,
//! the compiler and the server do none; PageRank rewrites every vertex each
//! pass and ConnectedComponents converges sparsely, so the same engine is
//! used two ways.

use super::{PAGE_BYTES, digest, ms, push_gc, push_page_traffic};
use crate::harness::{Checks, Ctx, LegOutcome, Workload};
use crate::oracle::{self, GraphAnswers};
use crate::probes;
use crate::report::Samples;
use crate::trace::LegSpans;
use datagen::{Graph, GraphSpec, SplitMix64};
use facade_job::{
    Dataset, ExecContext, GraphChiRunner, JobOutput, JobReport, JobRunner, JobSpec,
    Workload as JobKind,
};
use graphchi_rs::{ConnectedComponents, Engine, EngineConfig, PageRank, RunOutcome, VertexProgram};
use metrics::phases;
use metrics::report::Backend;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Vertices of the generated R-MAT graph.
pub const VERTICES: u32 = 10_000;
/// Edges of the generated R-MAT graph.
pub const EDGES: u64 = 100_000;
/// Execution intervals (shards).
pub const INTERVALS: usize = 8;
/// Whole-job memory budget.
pub const BUDGET_BYTES: usize = 4 << 20;
/// PageRank passes.
pub const PR_PASSES: usize = 4;
/// Cap on ConnectedComponents passes (it converges well before).
pub const CC_MAX_PASSES: usize = 100;

/// The generated graph and its oracle answers.
#[derive(Debug)]
pub struct GraphBatch {
    data: Dataset,
    answers: GraphAnswers,
}

/// What a PageRank + ConnectedComponents pair produced, whichever way it
/// was called.
struct Pair {
    pr: Vec<f64>,
    cc: Vec<f64>,
    pages_created: [u64; 2],
}

/// Seed of the R-MAT base graph every run starts from.
const BASE_SEED: u64 = 0xFACADE;

/// Generates the workload's graph: the fixed R-MAT base graph, rewired by
/// `seed` with one degree-preserving swap per edge (two random edges
/// exchange their destinations).
///
/// Every seed gives another graph — other neighbours, other ranks, other
/// components — over the *same* in- and out-degree sequence. The engine's
/// subinterval packing, record sizes and page count depend on the degrees
/// alone, so `facade_peak_bytes` repeats exactly across seeds; with a fully
/// re-drawn R-MAT graph the page count flips between 13 and 14 from seed to
/// seed (8 %) and one seed in sixteen needs a fifth ConnectedComponents
/// pass (+15 % on the facade leg), which no native reference follows.
pub fn generate(seed: u64) -> Graph {
    let mut graph = Graph::generate(&GraphSpec::new(VERTICES, EDGES, BASE_SEED));
    let mut rng = SplitMix64::new(seed);
    let edges = graph.edges.len() as u64;
    for _ in 0..edges {
        let (a, b) = (
            rng.next_below(edges) as usize,
            rng.next_below(edges) as usize,
        );
        let dst = graph.edges[a].1;
        graph.edges[a].1 = graph.edges[b].1;
        graph.edges[b].1 = dst;
    }
    graph
}

fn spec(kind: JobKind, backend: Backend) -> JobSpec {
    JobSpec {
        workload: kind,
        backend,
        threads: 1,
        intervals: INTERVALS,
        budget_bytes: BUDGET_BYTES,
        ..JobSpec::default()
    }
}

fn engine_config(backend: Backend) -> EngineConfig {
    EngineConfig {
        backend,
        budget_bytes: BUDGET_BYTES,
        intervals: INTERVALS,
        threads: 1,
        ..EngineConfig::default()
    }
}

fn vertex_values(report: JobReport) -> Vec<f64> {
    match report.output {
        JobOutput::Vertices { values } => values,
        _ => Vec::new(),
    }
}

impl GraphBatch {
    /// The leg as a user runs it: two jobs through the runner.
    fn through_runner(&self, backend: Backend, checks: &mut Checks) -> (Duration, Option<Pair>) {
        let ctx = ExecContext::default();
        let pr_spec = spec(
            JobKind::PageRank {
                iterations: PR_PASSES,
            },
            backend,
        );
        let cc_spec = spec(
            JobKind::ConnectedComponents {
                max_iterations: CC_MAX_PASSES,
            },
            backend,
        );
        let started = Instant::now();
        let pr = GraphChiRunner.execute(&pr_spec, &self.data, &ctx);
        let cc = GraphChiRunner.execute(&cc_spec, &self.data, &ctx);
        let wall = started.elapsed();
        checks.check(pr.is_ok(), || format!("PageRank job failed: {pr:?}"));
        checks.check(cc.is_ok(), || {
            format!("ConnectedComponents job failed: {cc:?}")
        });
        let pair = pr.ok().zip(cc.ok()).map(|(pr, cc)| Pair {
            pages_created: [pr.pages_created, cc.pages_created],
            pr: vertex_values(pr),
            cc: vertex_values(cc),
        });
        (wall, pair)
    }

    /// The decomposed leg: the same two jobs called one layer down
    /// (`Engine::new` + `Engine::execute`), a span around each call.
    fn through_engine(&self, backend: Backend, ctx: &mut Ctx<'_>) -> (Duration, Option<Pair>) {
        let (leg_name, pr_name, cc_name) = if backend == Backend::Facade {
            ("job.facade", "graphchi.pr", "graphchi.cc")
        } else {
            ("job.heap", "graphchi.heap_pr", "graphchi.heap_cc")
        };
        let graph = &self.data.graph;
        let mut spans = LegSpans::open(ctx.tracer.as_deref_mut(), leg_name, ctx.rep);
        let started = Instant::now();
        let mut run = |name, app: &dyn VertexProgram| {
            let mut engine = spans.call("graphchi.new", || {
                Engine::new(graph, engine_config(backend))
            });
            spans.call(name, || engine.execute(app))
        };
        let pr = run(pr_name, &PageRank::new(PR_PASSES));
        let cc = run(cc_name, &ConnectedComponents::new(CC_MAX_PASSES));
        let wall = started.elapsed();
        spans.close();

        ctx.checks
            .check(pr.is_ok(), || format!("PageRank run failed: {pr:?}"));
        ctx.checks.check(cc.is_ok(), || {
            format!("ConnectedComponents run failed: {cc:?}")
        });
        let (Ok(pr), Ok(cc)) = (pr, cc) else {
            return (wall, None);
        };
        Self::push_layers(backend, &pr, &cc, wall, ctx);
        let pair = Pair {
            pages_created: [pr.stats.pages_created, cc.stats.pages_created],
            pr: pr.values,
            cc: cc.values,
        };
        (wall, Some(pair))
    }

    fn push_layers(
        backend: Backend,
        pr: &RunOutcome,
        cc: &RunOutcome,
        wall: Duration,
        ctx: &mut Ctx<'_>,
    ) {
        if backend == Backend::Facade {
            let phase = |p| ms(pr.timer.phase(p) + cc.timer.phase(p));
            ctx.samples.push("graphchi.load_ms", phase(phases::LOAD));
            ctx.samples
                .push("graphchi.update_ms", phase(phases::UPDATE));
            ctx.samples.push(
                "graphchi.edges_per_s",
                (pr.edges_processed + cc.edges_processed) as f64 / wall.as_secs_f64(),
            );
            push_page_traffic(
                ctx.samples,
                pr.stats.pages_created + cc.stats.pages_created,
                pr.stats.pages_recycled + cc.stats.pages_recycled,
                &[pr.pool, cc.pool],
            );
        } else {
            push_gc(
                ctx.samples,
                pr.stats.gc_time + cc.stats.gc_time,
                pr.stats.gc_count + cc.stats.gc_count,
                pr.pauses.iter().chain(&cc.pauses).copied(),
                wall,
            );
        }
    }

    /// Checks one leg's outputs against the oracles: two checks, one per
    /// job.
    fn verify(&self, pair: &Pair, checks: &mut Checks) {
        checks.check(self.answers.components_match(&pair.cc), || {
            "ConnectedComponents labels differ from union-find".into()
        });
        checks.check(self.answers.pagerank_matches(&pair.pr), || {
            "PageRank top vertex or mass differs from the synchronous oracle".into()
        });
    }
}

impl Workload for GraphBatch {
    const NAME: &'static str = "graph_batch";
    // Matched on a 2-vCPU shared VM: see README.md, "Fixed sizes".
    const NATIVE_K: u32 = 40;
    const ASSERT_FACADE_FASTER: bool = true;

    fn setup(seed: u64, samples: &mut Samples, _checks: &mut Checks) -> Self {
        let started = Instant::now();
        let graph = generate(seed);
        samples.push("datagen.graph_gen_ms", ms(started.elapsed()));
        GraphBatch {
            answers: GraphAnswers::of(graph.vertices as usize, &graph.edges, PR_PASSES),
            data: Dataset::new(Vec::new(), graph),
        }
    }

    fn native(&self) {
        let graph = &self.data.graph;
        for _ in 0..Self::NATIVE_K {
            black_box(oracle::pagerank(
                graph.vertices as usize,
                black_box(&graph.edges),
                PR_PASSES,
            ));
            black_box(oracle::components(
                graph.vertices as usize,
                black_box(&graph.edges),
            ));
        }
    }

    fn leg(&mut self, backend: Backend, ctx: &mut Ctx<'_>) -> LegOutcome {
        let (wall, pair) = if ctx.tracer.is_some() {
            self.through_engine(backend, ctx)
        } else {
            self.through_runner(backend, ctx.checks)
        };
        let Some(pair) = pair else {
            return LegOutcome {
                wall,
                ..LegOutcome::default()
            };
        };
        self.verify(&pair, ctx.checks);
        LegOutcome {
            wall,
            fingerprint: digest(pair.pr.iter().chain(&pair.cc).map(|v| v.to_bits())),
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
