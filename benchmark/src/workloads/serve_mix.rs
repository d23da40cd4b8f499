//! `serve_mix`: an in-process `FacadeServer` under a closed loop of two TCP
//! clients.
//!
//! Chosen because the engines do little here while `metrics::http`,
//! `metrics::json`, the `facade-job` dispatcher (queue, one pool epoch per
//! job on the *shared* pool) and `facade-server` admission and routing
//! dominate. Jobs (writes: epochs minted and retired, cached results
//! replaced) run beside queries (reads), and the pool is recycled across
//! jobs here while the batch workloads create one per job.
//!
//! **Closed loop**: each client sends its next request only when the
//! previous one has completed; two clients, one connection per request, a
//! 200 µs sleep between polls of a running job.

use super::{PAGE_BYTES, digest, ms, us};
use crate::harness::{Checks, Ctx, LegOutcome, Workload};
use crate::http::{self, Reply};
use crate::oracle::{self, CorpusAnswers, GraphAnswers};
use crate::probes;
use crate::report::Samples;
use crate::stats;
use crate::trace::{SpanId, Tracer};
use data_store::PagePool;
use datagen::{CorpusSpec, Graph, GraphSpec, SplitMix64, corpus};
use facade_job::{
    Dataset, Dispatcher, DispatcherConfig, ExecContext, JobOutput, JobSpec, Workload as JobKind,
    default_runners,
};
use facade_server::{DatasetConfig, FacadeServer, ServerConfig};
use metrics::json::{self, Json};
use metrics::report::Backend;
use std::hint::black_box;
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Vertices of the resident graph.
pub const VERTICES: u32 = 2_000;
/// Edges of the resident graph.
pub const EDGES: u64 = 20_000;
/// Approximate size of the resident corpus.
pub const CORPUS_BYTES: usize = 64 << 10;
/// Generator seed of the resident dataset. Fixed: the server builds its
/// dataset itself from a `DatasetConfig`, and another dataset moves the
/// shared pool's page count by a page in nine (11 %). `--seed` drives what
/// the clients do — job order and query arguments — not what is resident.
pub const DATASET_SEED: u64 = 42;
/// Closed-loop clients; in one leg each plays one round of four sessions.
pub const CLIENTS: u32 = 2;
/// HTTP acceptor threads.
pub const ACCEPTORS: usize = 2;
/// Job executor threads.
pub const EXECUTORS: usize = 2;
/// Sleep between two polls of a running job.
pub const POLL_SLEEP: Duration = Duration::from_micros(200);
/// Polls after which a job counts as lost (about a minute).
const MAX_POLLS: u32 = 200_000;
/// Job kinds in a round, one session each.
pub const KINDS: usize = 4;
/// `k` of the `/query/pagerank` request.
const TOP_K: usize = 5;
/// Rep index of the priming round (no measured rep reaches it).
const PRIMING_REP: u32 = u32::MAX;

fn kind(index: usize) -> JobKind {
    match index {
        0 => JobKind::PageRank { iterations: 4 },
        1 => JobKind::ConnectedComponents {
            max_iterations: 100,
        },
        2 => JobKind::WordCount,
        _ => JobKind::ExternalSort,
    }
}

fn spec(index: usize, backend: Backend) -> JobSpec {
    JobSpec {
        workload: kind(index),
        backend,
        threads: 1,
        workers: 4,
        intervals: 8,
        budget_bytes: 4 << 20,
        frame_bytes: 16 << 10,
        ..JobSpec::default()
    }
}

/// One client session: submit a job of one kind, poll it to the end, then
/// query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Session {
    /// Index of the job kind (PR, CC, WC, ES).
    pub kind: usize,
    /// Vertex of the `/query/cc` request.
    pub vertex: usize,
    /// Corpus position of the word of the `/query/wc` request.
    pub word: usize,
}

/// The round client `client` plays in repetition `rep`: the four kinds in
/// a seed-drawn order, with seed-drawn query arguments. The facade and the
/// heap leg of one rep play the same rounds.
pub fn plan(seed: u64, rep: u32, client: u32, corpus_words: usize) -> [Session; KINDS] {
    let stream = u64::from(rep) * u64::from(CLIENTS) + u64::from(client) + 1;
    let mut rng = SplitMix64::new(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut order = [0, 1, 2, 3];
    for i in (1..KINDS).rev() {
        order.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    order.map(|kind| Session {
        kind,
        vertex: rng.next_below(u64::from(VERTICES)) as usize,
        word: rng.next_below(corpus_words as u64) as usize,
    })
}

/// Everything the clients check replies against. Plain data, so client
/// threads can share it.
#[derive(Debug)]
struct Fixture {
    addr: SocketAddr,
    seed: u64,
    data: Dataset,
    graph: GraphAnswers,
    corpus: CorpusAnswers,
    /// Fingerprint per kind of the same spec run through the runner
    /// directly.
    expected: [u64; KINDS],
}

/// The running server and its fixture.
pub struct ServeMix {
    server: FacadeServer,
    fixture: Arc<Fixture>,
    /// Pool bytes at quiesce after the single-client priming round.
    peak_bytes: u64,
    /// A job-status document, kept for the JSON parse probe.
    status_doc: String,
    submissions: u64,
    shed: u64,
}

/// Decodes a reply: the expected status with a JSON body, or why not.
///
/// # Errors
///
/// The socket error, the unexpected status with its body, or the JSON
/// parse failure, as a message.
pub fn expect_reply(reply: io::Result<Reply>, want: u16) -> Result<Json, String> {
    let reply = reply.map_err(|e| format!("request failed: {e}"))?;
    if reply.status != want {
        return Err(format!(
            "status {} instead of {want}: {}",
            reply.status, reply.body
        ));
    }
    json::parse(&reply.body).map_err(|e| format!("body is not JSON: {e}"))
}

fn field_u64(doc: &Json, path: &[&str]) -> Option<u64> {
    path.iter()
        .try_fold(doc, |d, key| d.get(key))
        .and_then(Json::as_u64)
}

fn fingerprint_of(doc: &Json, path: &[&str]) -> Option<u64> {
    let text = path
        .iter()
        .try_fold(doc, |d, key| d.get(key))
        .and_then(Json::as_str)?;
    u64::from_str_radix(text, 16).ok()
}

fn require(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok { Ok(()) } else { Err(what()) }
}

/// One closed-loop client for one leg.
struct Client<'a> {
    fixture: &'a Fixture,
    backend: Backend,
    rep: u32,
    tid: u32,
    tracer: Option<Tracer>,
    checks: Checks,
    samples: Samples,
    /// Fingerprint per kind of the jobs this client saw complete.
    completed: [u64; KINDS],
    requests: u64,
    submissions: u64,
    shed: u64,
    /// Pages its jobs' heaps created, and pages they drew from the shared
    /// pool (recycled from earlier jobs), per the jobs' epoch ledgers.
    pages_created: u64,
    pages_drawn: u64,
    /// Id of the last job this client followed.
    last_job: u64,
}

impl Client<'_> {
    /// One request = one attempted operation: it fails on a socket error,
    /// an unexpected status, a non-JSON body, or a body `validate` rejects.
    fn op(
        &mut self,
        span: &'static str,
        parent: Option<SpanId>,
        (method, path, body): (&str, &str, &str),
        want: u16,
        validate: impl FnOnce(&Json) -> Result<(), String>,
    ) -> Option<Json> {
        let id = self
            .tracer
            .as_mut()
            .map(|t| t.begin(span, parent, self.rep, self.tid));
        let started = Instant::now();
        let reply = http::request(self.fixture.addr, method, path, body);
        let took = started.elapsed();
        if let (Some(t), Some(id)) = (self.tracer.as_mut(), id) {
            t.end(id);
        }
        self.requests += 1;
        if span.starts_with("server.query_") {
            self.samples.push("server.query_us", us(took));
        }
        if span == "server.submit" {
            self.submissions += 1;
            self.shed += u64::from(matches!(&reply, Ok(r) if r.status == 429));
        }
        let doc = expect_reply(reply, want).and_then(|doc| validate(&doc).map(|()| doc));
        self.checks.check(doc.is_ok(), || {
            format!("{method} {path}: {}", doc.as_ref().unwrap_err())
        });
        doc.ok()
    }

    /// Submits a job of `kind` and follows it to its end.
    fn run_job(&mut self, kind: usize, span: Option<SpanId>) {
        let started = Instant::now();
        let body = spec(kind, self.backend).to_json();
        let job = self
            .op("server.submit", span, ("POST", "/jobs", &body), 202, |_| {
                Ok(())
            })
            .and_then(|doc| field_u64(&doc, &["job"]));
        if let Some(job) = job {
            self.follow(job, kind, span, started);
        }
    }

    fn session(&mut self, s: &Session) {
        let fx = self.fixture;
        let span = self
            .tracer
            .as_mut()
            .map(|t| t.begin("server.session", None, self.rep, self.tid));
        self.run_job(s.kind, span);

        let top = fx.graph.pr_top as u64;
        self.op(
            "server.query_pagerank",
            span,
            ("GET", &format!("/query/pagerank?k={TOP_K}"), ""),
            200,
            |doc| {
                let first = doc
                    .get("top")
                    .and_then(Json::as_array)
                    .and_then(|t| t.first());
                require(
                    fingerprint_of(doc, &["fingerprint"]) == Some(fx.expected[0])
                        && first.and_then(|v| field_u64(v, &["vertex"])) == Some(top),
                    || format!("served ranks differ from the runner's: {doc:?}"),
                )
            },
        );
        let label = fx.graph.cc_labels[s.vertex];
        self.op(
            "server.query_cc",
            span,
            ("GET", &format!("/query/cc?vertex={}", s.vertex), ""),
            200,
            |doc| {
                require(
                    field_u64(doc, &["component"]) == Some(u64::from(label))
                        && field_u64(doc, &["size"]) == Some(fx.graph.component_size(label) as u64),
                    || format!("served component differs from union-find: {doc:?}"),
                )
            },
        );
        let word = &fx.data.corpus[s.word];
        self.op(
            "server.query_wc",
            span,
            ("GET", &format!("/query/wc?word={word}"), ""),
            200,
            |doc| {
                require(
                    field_u64(doc, &["count"]) == Some(fx.corpus.count_of(word) as u64),
                    || format!("served count differs from HashMap: {doc:?}"),
                )
            },
        );
        self.op("server.stats", span, ("GET", "/stats", ""), 200, |doc| {
            require(
                field_u64(doc, &["dataset", "vertices"]) == Some(u64::from(VERTICES)),
                || format!("stats describe another dataset: {doc:?}"),
            )
        });
        if let (Some(t), Some(span)) = (self.tracer.as_mut(), span) {
            t.end(span);
        }
    }

    /// Polls `job` until it is terminal, then checks its result.
    fn follow(&mut self, job: u64, kind: usize, span: Option<SpanId>, started: Instant) {
        let path = format!("/jobs/{job}");
        self.last_job = job;
        let mut polls = 0u32;
        let done = loop {
            let Some(doc) = self.op("server.poll", span, ("GET", &path, ""), 200, |_| Ok(()))
            else {
                break None;
            };
            polls += 1;
            let status = doc.get("status").and_then(Json::as_str).unwrap_or("");
            if matches!(status, "completed" | "failed" | "canceled") || polls >= MAX_POLLS {
                break Some(doc);
            }
            std::thread::sleep(POLL_SLEEP);
        };
        let observed = started.elapsed();
        let result = done.as_ref().and_then(|doc| doc.get("result"));
        let fingerprint = result.and_then(|r| fingerprint_of(r, &["output", "fingerprint"]));
        self.checks
            .check(fingerprint == Some(self.fixture.expected[kind]), || {
                format!("job {job} did not complete with the runner's output: {done:?}")
            });
        self.completed[kind] = fingerprint.unwrap_or(0);
        self.samples.push("server.polls_per_job", f64::from(polls));
        if self.backend == Backend::Heap {
            self.samples.push("server.job_heap_ms", ms(observed));
            return;
        }
        self.samples.push("server.job_facade_ms", ms(observed));
        if let Some(engine_ms) = result.and_then(|r| field_u64(r, &["elapsed_ms"])) {
            self.samples.push("server.job_engine_ms", engine_ms as f64);
            self.samples
                .push("server.job_overhead_ms", ms(observed) - engine_ms as f64);
        }
        if let Some(epoch) = result.and_then(|r| r.get("epoch")) {
            self.pages_created += field_u64(epoch, &["pages_created"]).unwrap_or(0);
            self.pages_drawn += field_u64(epoch, &["pages_out"]).unwrap_or(0);
        }
    }
}

impl Fixture {
    fn new_client(
        &self,
        tid: u32,
        backend: Backend,
        rep: u32,
        origin: Option<Instant>,
    ) -> Client<'_> {
        Client {
            fixture: self,
            backend,
            rep,
            tid,
            tracer: origin.map(Tracer::with_origin),
            checks: Checks::default(),
            samples: Samples::default(),
            completed: [0; KINDS],
            requests: 0,
            submissions: 0,
            shed: 0,
            pages_created: 0,
            pages_drawn: 0,
            last_job: 0,
        }
    }

    /// Plays `sessions` on one client thread.
    fn play(
        &self,
        tid: u32,
        backend: Backend,
        rep: u32,
        sessions: &[Session],
        origin: Option<Instant>,
    ) -> Client<'_> {
        let mut client = self.new_client(tid, backend, rep, origin);
        for s in sessions {
            client.session(s);
        }
        client
    }
}

impl ServeMix {
    /// Folds a finished client into the run's counts; returns its tracer.
    fn absorb(&mut self, client: Client<'_>, ctx: &mut Ctx<'_>) -> Option<Tracer> {
        ctx.checks.absorb(client.checks);
        self.submissions += client.submissions;
        self.shed += client.shed;
        if ctx.tracer.is_some() {
            ctx.samples.absorb(client.samples);
        }
        client.tracer
    }
}

impl Workload for ServeMix {
    const NAME: &'static str = "serve_mix";
    // Matched on a 2-vCPU shared VM: see README.md, "Fixed sizes".
    const NATIVE_K: u32 = 56;
    const ASSERT_FACADE_FASTER: bool = false;

    fn setup(seed: u64, samples: &mut Samples, checks: &mut Checks) -> Self {
        // The benchmark's own copy of the resident dataset: the server
        // generates the same one from the same `DatasetConfig`.
        let started = Instant::now();
        let graph = Graph::generate(&GraphSpec::new(VERTICES, EDGES, DATASET_SEED));
        samples.push("datagen.graph_gen_ms", ms(started.elapsed()));
        let started = Instant::now();
        let words = corpus(&CorpusSpec::new(CORPUS_BYTES, DATASET_SEED));
        samples.push("datagen.corpus_gen_ms", ms(started.elapsed()));
        let graph_answers = GraphAnswers::of(graph.vertices as usize, &graph.edges, 4);
        let corpus_answers = CorpusAnswers::of(&words, 4);
        let data = Dataset::new(words, graph);

        // What every served job must print: the same spec run through the
        // runner directly, itself checked against the oracles.
        let runners = default_runners();
        let expected = std::array::from_fn(|k| {
            let spec = spec(k, Backend::Facade);
            let report = runners
                .iter()
                .find(|r| r.supports(&spec.workload))
                .expect("every workload has a runner")
                .execute(&spec, &data, &ExecContext::default());
            let matches = match report.as_ref().map(|r| &r.output) {
                Ok(JobOutput::Vertices { values }) if k == 0 => {
                    graph_answers.pagerank_matches(values)
                }
                Ok(JobOutput::Vertices { values }) => graph_answers.components_match(values),
                Ok(JobOutput::WordCount {
                    distinct,
                    total,
                    counts,
                }) => corpus_answers.word_count_matches(*distinct, *total, counts),
                Ok(JobOutput::ExternalSort { rows, checksum }) => {
                    (*rows, *checksum) == corpus_answers.es_payload
                }
                Err(_) => false,
            };
            checks.check(matches, || {
                format!("direct {} run differs from its oracle", spec.workload)
            });
            report.map_or(0, |r| r.output.fingerprint())
        });

        let server = FacadeServer::start(ServerConfig {
            acceptors: ACCEPTORS,
            executors: EXECUTORS,
            dataset: DatasetConfig {
                vertices: VERTICES,
                edges: EDGES,
                corpus_bytes: CORPUS_BYTES,
                seed: DATASET_SEED,
            },
            // The server's own warm boot runs its four jobs concurrently,
            // which leaves a timing-dependent number of pages in the pool;
            // the priming below warms the query caches deterministically.
            warm_boot: false,
            ..ServerConfig::default()
        })
        .expect("the server binds a loopback port");
        let fixture = Arc::new(Fixture {
            addr: server.local_addr(),
            seed,
            data,
            graph: graph_answers,
            corpus: corpus_answers,
            expected,
        });
        let mut mix = ServeMix {
            server,
            fixture,
            peak_bytes: 0,
            status_doc: String::new(),
            submissions: 0,
            shed: 0,
        };

        // Priming: one client runs the four jobs and then one full facade
        // round alone; the pool is read at quiesce, before a second client
        // ever connects.
        let fixture = Arc::clone(&mix.fixture);
        let mut client = fixture.new_client(0, Backend::Facade, PRIMING_REP, None);
        for kind in 0..KINDS {
            client.run_job(kind, None);
        }
        for s in &plan(seed, PRIMING_REP, 0, fixture.data.corpus.len()) {
            client.session(s);
        }
        let stats = client.op("server.stats", None, ("GET", "/stats", ""), 200, |_| Ok(()));
        mix.peak_bytes = stats
            .and_then(|doc| field_u64(&doc, &["pool", "available_pages"]))
            .unwrap_or(0)
            * PAGE_BYTES;
        let status = http::request(
            fixture.addr,
            "GET",
            &format!("/jobs/{}", client.last_job),
            "",
        );
        checks.check(status.is_ok(), || format!("job status: {status:?}"));
        mix.status_doc = status.map_or(String::new(), |reply| reply.body);
        checks.absorb(client.checks);
        mix
    }

    /// The four jobs' oracles, `NATIVE_K` times — split over one thread per
    /// client. The served legs keep both cores busy (two executors work while
    /// two clients poll); a single-threaded reference would not feel a busy
    /// second core, and the ratio would measure the neighbours.
    fn native(&self) {
        let data = &self.fixture.data;
        std::thread::scope(|scope| {
            for _ in 0..CLIENTS {
                scope.spawn(|| {
                    for _ in 0..Self::NATIVE_K / CLIENTS {
                        let vertices = data.graph.vertices as usize;
                        black_box(oracle::pagerank(vertices, black_box(&data.graph.edges), 4));
                        black_box(oracle::components(vertices, black_box(&data.graph.edges)));
                        black_box(oracle::word_count(black_box(&data.corpus)));
                        black_box(oracle::external_sort(black_box(&data.corpus), 4));
                    }
                });
            }
        });
    }

    fn leg(&mut self, backend: Backend, ctx: &mut Ctx<'_>) -> LegOutcome {
        let fixture = Arc::clone(&self.fixture);
        let words = fixture.data.corpus.len();
        let rounds = [0, 1].map(|client| plan(fixture.seed, ctx.rep, client, words));
        let origin = ctx.tracer.as_ref().map(|t| t.origin());
        let leg_name = if backend == Backend::Facade {
            "job.facade"
        } else {
            "job.heap"
        };
        let root = ctx
            .tracer
            .as_deref_mut()
            .map(|t| t.begin(leg_name, None, ctx.rep, 0));
        let rep = ctx.rep;
        let started = Instant::now();
        let (first, second) = std::thread::scope(|scope| {
            let other = scope.spawn(|| fixture.play(1, backend, rep, &rounds[1], origin));
            let mine = fixture.play(0, backend, rep, &rounds[0], origin);
            (mine, other.join().expect("client thread panicked"))
        });
        let wall = started.elapsed();
        if let (Some(t), Some(root)) = (ctx.tracer.as_deref_mut(), root) {
            t.end(root);
        }

        let requests = first.requests + second.requests;
        let created = first.pages_created + second.pages_created;
        let drawn = first.pages_drawn + second.pages_drawn;
        let fingerprint = digest(first.completed.into_iter().chain(second.completed));
        for client in [first, second] {
            if let (Some(spans), Some(t)) = (self.absorb(client, ctx), ctx.tracer.as_deref_mut()) {
                t.absorb(spans, root);
            }
        }
        if ctx.tracer.is_some() && backend == Backend::Facade {
            ctx.samples.push(
                "server.requests_per_s",
                requests as f64 / wall.as_secs_f64(),
            );
            ctx.samples
                .push("facade_runtime.pages_created", created as f64);
            ctx.samples
                .push("facade_runtime.pages_recycled", drawn as f64);
            ctx.samples.push(
                "facade_runtime.recycle_share",
                drawn as f64 / (created + drawn).max(1) as f64,
            );
        }
        LegOutcome {
            wall,
            fingerprint,
            peak_bytes: self.peak_bytes,
        }
    }

    fn probes(&mut self, samples: &mut Samples, checks: &mut Checks) {
        let addr = self.fixture.addr;
        let mut timed_get = |metric, path, n| {
            for _ in 0..n {
                let started = Instant::now();
                let reply = http::request(addr, "GET", path, "");
                samples.push(metric, us(started.elapsed()));
                checks.check(matches!(&reply, Ok(r) if r.status == 200), || {
                    format!("GET {path}: {reply:?}")
                });
            }
        };
        timed_get("metrics.http_healthz_us", "/healthz", 200);
        timed_get("server.metrics_us", "/metrics", 50);

        // The shared pool's own latency gauges, as the server publishes them.
        if let Ok(reply) = http::request(addr, "GET", "/metrics", "") {
            for (gauge, metric) in [
                (
                    "facade_pool_mean_acquire_ns",
                    "facade_runtime.pool_acquire_ns",
                ),
                (
                    "facade_pool_mean_release_ns",
                    "facade_runtime.pool_release_ns",
                ),
            ] {
                let value = reply
                    .body
                    .lines()
                    .find_map(|l| l.strip_prefix(gauge)?.trim().parse::<f64>().ok());
                if let Some(value) = value {
                    samples.set(metric, value);
                }
            }
        }

        let doc = self.status_doc.clone();
        for _ in 0..15 {
            let started = Instant::now();
            for _ in 0..200 {
                black_box(json::parse(black_box(&doc)).is_ok());
            }
            let secs = started.elapsed().as_secs_f64();
            samples.push(
                "metrics.json_parse_mb_s",
                (200 * doc.len()) as f64 / 1e6 / secs,
            );
        }

        let wc = spec(2, Backend::Facade);
        for _ in 0..15 {
            let started = Instant::now();
            for _ in 0..200 {
                black_box(JobSpec::from_json(black_box(&wc.to_json())).is_ok());
            }
            samples.push("facade_job.spec_json_us", us(started.elapsed()) / 200.0);
        }

        let mut config = DispatcherConfig::new(1, self.fixture.data.clone());
        config.pool = Some(Arc::new(PagePool::with_default_config()));
        let dispatcher = Dispatcher::new(config);
        for _ in 0..30 {
            let started = Instant::now();
            let report = dispatcher.submit(wc.clone()).and_then(|h| h.wait());
            let total = started.elapsed();
            match report {
                Ok(report) => samples.push(
                    "facade_job.dispatch_overhead_us",
                    us(total.saturating_sub(report.elapsed)),
                ),
                Err(e) => checks.check(false, || format!("dispatcher probe job failed: {e}")),
            }
        }
        dispatcher.shutdown();
        probes::page_runtime(samples);

        let queries = samples.get("server.query_us").to_vec();
        samples.set("server.query_p99_us", stats::percentile(&queries, 99.0));
        let jobs = samples.get("server.job_facade_ms").to_vec();
        samples.set("server.job_facade_p90_ms", stats::percentile(&jobs, 90.0));
        samples.set(
            "server.shed_share",
            self.shed as f64 / self.submissions.max(1) as f64,
        );
    }

    fn teardown(self, checks: &mut Checks) {
        let report = self.server.shutdown();
        checks.check(report.clean(), || {
            format!("server left state behind: {report}")
        });
    }
}
