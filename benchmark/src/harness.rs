//! The measurement protocol shared by every workload.
//!
//! One repetition runs three legs back to back, their order rotated by the
//! rep index: the **facade** leg (`P'`), the **heap** leg (`P`, the paper's
//! baseline) and the **native reference** (the workload's oracle, repeated a
//! fixed `NATIVE_K` times so one sample is about as long as the facade
//! leg). The end-to-end timing metrics are per-rep ratios of a leg to one
//! oracle execution of the *same* rep (the native sample divided by
//! `NATIVE_K`): on a shared machine absolute wall-clock time drifts by tens
//! of percent between runs of identical code, while a ratio of two
//! back-to-back samples over a cache-resident working set does not.
//!
//! A run is: [`SETUP_CYCLES`] complete set-up cycles (generate inputs,
//! compute oracle answers, build the system, [`WARMUP_REPS`] unrecorded
//! reps, tear down) whose median is `setup_s` and the last of which stays
//! up; then recorded reps for the measuring time; then tear-down. In a
//! traced run every second rep is *decomposed* — it calls one layer further
//! down and records a span around each call — and the plain reps in between
//! give the tracing overhead.

use crate::report::{PER_LAYER, RunReport, Samples};
use crate::stats;
use crate::trace::{LegSpans, Tracer};
use metrics::report::Backend;
use std::time::{Duration, Instant};

/// Unrecorded repetitions at the end of each set-up cycle.
pub const WARMUP_REPS: u32 = 3;
/// Complete set-up cycles per run; `setup_s` is their median.
pub const SETUP_CYCLES: usize = 5;
/// Fewest recorded repetitions of a time-bounded run.
pub const MIN_REPS: u32 = 6;

/// One of the three pieces of a repetition.
#[derive(Debug, Clone, Copy)]
enum Piece {
    /// A program leg: `P'` (`Backend::Facade`: records in native pages,
    /// paged VM) or `P` (`Backend::Heap`: managed-heap objects under the
    /// tracing collector).
    Program(Backend),
    /// The plain-Rust oracle, `NATIVE_K` times.
    Native,
}

const ROTATIONS: [[Piece; 3]; 3] = {
    use Piece::{Native, Program};
    const FACADE: Piece = Program(Backend::Facade);
    const HEAP: Piece = Program(Backend::Heap);
    [
        [FACADE, HEAP, Native],
        [HEAP, Native, FACADE],
        [Native, FACADE, HEAP],
    ]
};

/// Operations attempted and failed, with the first few failure messages.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    /// Operations attempted: jobs, requests and output checks.
    pub attempted: u64,
    /// Operations that errored, were refused, or failed their oracle check.
    pub failed: u64,
    /// Up to [`Checks::KEPT`] failure descriptions.
    pub failures: Vec<String>,
}

impl Checks {
    /// Failure messages kept for the report.
    pub const KEPT: usize = 8;

    /// Adds another count (a client thread's) to this one.
    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = Self::KEPT.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
    }

    /// Counts one operation; `what` describes it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < Self::KEPT {
                self.failures.push(what());
            }
        }
    }
}

/// What a leg hands back to the harness.
#[derive(Debug, Clone, Copy, Default)]
pub struct LegOutcome {
    /// Wall time of the leg's timed part (output checks excluded).
    pub wall: Duration,
    /// Digest of the leg's outputs; the facade and heap legs of one rep
    /// must agree bit for bit. Ignored for the native leg.
    pub fingerprint: u64,
    /// High-water mark of native page bytes (facade leg only).
    pub peak_bytes: u64,
}

/// Per-leg context: where to count checks, push layer samples and — in a
/// decomposed rep — record spans.
#[derive(Debug)]
pub struct Ctx<'a> {
    /// Repetition index (warm-up reps included), shared by the rep's spans.
    pub rep: u32,
    /// Operation counts.
    pub checks: &'a mut Checks,
    /// Per-layer samples; legs push only in decomposed reps.
    pub samples: &'a mut Samples,
    /// `Some` in a decomposed rep: call one layer down and span each call.
    pub tracer: Option<&'a mut Tracer>,
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// Name, as `--workload` spells it.
    const NAME: &'static str;
    /// Repetitions of the oracle in one native-reference sample. Fixed at
    /// compile time — never calibrated at run time — so that the unit of
    /// the `*_x_native` metrics cannot move between runs.
    const NATIVE_K: u32;
    /// Whether the run asserts the paper's headline shape, facade faster
    /// than heap, on this workload.
    const ASSERT_FACADE_FASTER: bool;

    /// Generates the inputs from `seed`, computes the oracle answers and
    /// builds whatever the legs run against. Pushes the `datagen.*`
    /// samples.
    fn setup(seed: u64, samples: &mut Samples, checks: &mut Checks) -> Self;

    /// Runs the facade (`P'`) or the heap (`P`) leg and checks its outputs.
    /// In a decomposed rep the leg opens a root span named `job.facade` /
    /// `job.heap` and a child span around every call it makes; a span named
    /// `x.y` feeds the metric `x.y_ms` or `x.y_us`.
    fn leg(&mut self, backend: Backend, ctx: &mut Ctx<'_>) -> LegOutcome;

    /// One native-reference sample: the oracle, `NATIVE_K` times.
    fn native(&self);

    /// Fixed-count micro-probes of the layers under this workload (traced
    /// run only).
    fn probes(&mut self, _samples: &mut Samples, _checks: &mut Checks) {}

    /// Tears the system down, checking that it shut down clean.
    fn teardown(self, checks: &mut Checks);
}

/// How long a run measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Recorded reps until this many seconds have passed (at least
    /// [`MIN_REPS`]).
    Seconds(f64),
    /// Exactly this many recorded reps (smoke runs and tests).
    Reps(u32),
}

/// Options of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOptions {
    /// Input seed.
    pub seed: u64,
    /// Measuring budget.
    pub budget: Budget,
    /// Traced (per-layer) run.
    pub traced: bool,
}

struct RepTimes {
    facade: f64,
    heap: f64,
    native: f64,
    peak_bytes: u64,
}

fn run_rep<W: Workload>(
    w: &mut W,
    rep: u32,
    mut tracer: Option<&mut Tracer>,
    samples: &mut Samples,
    checks: &mut Checks,
) -> RepTimes {
    let (mut facade, mut heap) = (LegOutcome::default(), LegOutcome::default());
    let mut native = Duration::ZERO;
    for piece in ROTATIONS[rep as usize % 3] {
        let mut ctx = Ctx {
            rep,
            checks: &mut *checks,
            samples: &mut *samples,
            tracer: tracer.as_deref_mut(),
        };
        match piece {
            Piece::Program(Backend::Facade) => facade = w.leg(Backend::Facade, &mut ctx),
            Piece::Program(Backend::Heap) => heap = w.leg(Backend::Heap, &mut ctx),
            Piece::Native => {
                let spans = LegSpans::open(ctx.tracer, "job.native", rep);
                let started = Instant::now();
                w.native();
                native = started.elapsed();
                spans.close();
            }
        }
    }
    checks.check(facade.fingerprint == heap.fingerprint, || {
        format!(
            "rep {rep}: facade output {:016x} != heap output {:016x}",
            facade.fingerprint, heap.fingerprint
        )
    });
    RepTimes {
        facade: facade.wall.as_secs_f64(),
        heap: heap.wall.as_secs_f64(),
        native: native.as_secs_f64(),
        peak_bytes: facade.peak_bytes,
    }
}

/// Sets workload `W` up from `seed`, runs one plain repetition and tears
/// down: every output check once, no timing evidence. For smoke tests.
pub fn single_rep<W: Workload>(seed: u64) -> Checks {
    let mut checks = Checks::default();
    let mut scratch = Samples::default();
    let mut w = W::setup(seed, &mut scratch, &mut checks);
    run_rep(&mut w, 0, None, &mut scratch, &mut checks);
    w.teardown(&mut checks);
    checks
}

/// Runs workload `W` under `opts`. Returns the report and, for a traced
/// run, the span buffer.
pub fn run<W: Workload>(opts: &RunOptions) -> (RunReport, Tracer) {
    let mut samples = Samples::default();
    let mut checks = Checks::default();
    let mut tracer = Tracer::new();

    // Set-up cycles. Warm-up reps push into a scratch sample set: they fill
    // caches and finish lazy set-up, their timings are not evidence.
    let mut live = None;
    let mut last_cycle = Duration::ZERO;
    for cycle in 0..SETUP_CYCLES {
        let started = Instant::now();
        let mut w = W::setup(opts.seed, &mut samples, &mut checks);
        for rep in 0..WARMUP_REPS {
            run_rep(&mut w, rep, None, &mut Samples::default(), &mut checks);
        }
        if cycle + 1 < SETUP_CYCLES {
            w.teardown(&mut checks);
            samples.push("setup_s", started.elapsed().as_secs_f64());
        } else {
            last_cycle = started.elapsed();
            live = Some(w);
        }
    }
    let mut w = live.expect("the last set-up cycle stays up");

    let started = Instant::now();
    let mut recorded = 0u32;
    let mut peak_bytes = 0u64;
    let mut plain_facade = Vec::new();
    loop {
        let done = match opts.budget {
            Budget::Reps(n) => recorded >= n,
            Budget::Seconds(s) => {
                // A traced run keeps a fifth of its time for the micro-probes.
                let measuring = if opts.traced { s * 0.8 } else { s };
                recorded >= MIN_REPS && started.elapsed().as_secs_f64() >= measuring
            }
        };
        if done {
            break;
        }
        let rep = WARMUP_REPS + recorded;
        let decomposed = opts.traced && recorded % 2 == 1;
        let t = run_rep(
            &mut w,
            rep,
            decomposed.then_some(&mut tracer),
            &mut samples,
            &mut checks,
        );
        recorded += 1;
        peak_bytes = peak_bytes.max(t.peak_bytes);
        if opts.traced && !decomposed {
            plain_facade.push(t.facade);
            continue;
        }
        // One oracle execution is the unit: a native sample is `NATIVE_K`
        // of them.
        let native = t.native / f64::from(W::NATIVE_K);
        samples.push("facade_x_native", t.facade / native);
        samples.push("heap_x_native", t.heap / native);
        samples.push("job.facade_ms", t.facade * 1e3);
        samples.push("job.heap_ms", t.heap * 1e3);
        samples.push("job.native_ms", t.native * 1e3);
        samples.push("job.facade_vs_heap", t.facade / t.heap);
    }
    samples.set("facade_peak_bytes", peak_bytes as f64);

    if W::ASSERT_FACADE_FASTER {
        let shape = stats::median(samples.get("job.facade_vs_heap"));
        checks.check(shape < 1.0, || {
            format!("P-vs-P' shape lost: facade/heap median {shape:.3} is not below 1")
        });
    }

    if opts.traced {
        w.probes(&mut samples, &mut checks);
        // A span named `x.y` is the evidence for the metric `x.y_ms` /
        // `x.y_us`, unless the workload pushed that metric itself.
        for def in PER_LAYER {
            let (span, per_ns) = match (def.name.strip_suffix("_ms"), def.name.strip_suffix("_us"))
            {
                (Some(span), _) => (span, 1e-6),
                (_, Some(span)) => (span, 1e-3),
                _ => continue,
            };
            if samples.get(def.name).is_empty() {
                for ns in tracer.durations_ns(span) {
                    samples.push(def.name, ns * per_ns);
                }
            }
        }
        let facade_ms = samples.get("job.facade_ms").to_vec();
        let heap_ms = samples.get("job.heap_ms").to_vec();
        samples.set("job.facade_p90_ms", stats::percentile(&facade_ms, 90.0));
        samples.set("job.heap_p90_ms", stats::percentile(&heap_ms, 90.0));
        let iqr = stats::iqr_rel(samples.get("facade_x_native"));
        samples.set("job.rep_iqr_rel", iqr);
        samples.set("bench.reps", f64::from(recorded));
        samples.set("bench.native_k", f64::from(W::NATIVE_K));
        samples.set(
            "bench.host_cpus",
            std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64),
        );
        samples.set(
            "bench.trace_overhead_rel",
            stats::median(&facade_ms) / (stats::median(&plain_facade) * 1e3) - 1.0,
        );
        let coverage = ["job.facade", "job.heap"]
            .iter()
            .flat_map(|name| tracer.ids(name))
            .map(|id| tracer.covered_ns(id) as f64 / tracer.spans()[id].duration_ns() as f64)
            .fold(1.0, f64::min);
        samples.set("bench.leg_coverage", coverage);
    }

    let closing = Instant::now();
    w.teardown(&mut checks);
    samples.push("setup_s", (last_cycle + closing.elapsed()).as_secs_f64());

    let report = RunReport {
        workload: W::NAME,
        seed: opts.seed,
        traced: opts.traced,
        attempted: checks.attempted,
        failed: checks.failed,
        failures: checks.failures,
        samples,
    };
    (report, tracer)
}
