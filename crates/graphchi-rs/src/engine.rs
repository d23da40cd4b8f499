//! The engine: interval scheduling, subinterval loading, vertex updates,
//! and writeback.

use crate::apps::{ChiFields, VertexProgram, VertexView};
use crate::preprocess::Csr;
use data_store::checkpoint::{self as ckpt, Checkpointer, Manifest};
use data_store::recovery::{self, guarded};
use data_store::{
    ClassTag, ElemTy, FaultPlan, Field, FieldTy, PauseRecord, PoolCounters, RecoveryError, RunEnv,
    Store, StoreStats,
};
use datagen::Graph;
use metrics::report::Backend;
use metrics::{
    DegradationAction, FailureCause, JobFailure, OutOfMemory, PhaseTimer, ResilienceReport, phases,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// File name of the engine's checkpoint within a checkpoint directory.
const CHECKPOINT_FILE: &str = "graphchi.fckp";

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Which storage backend runs the data path.
    pub backend: Backend,
    /// The memory budget: the heap capacity under [`Backend::Heap`], the
    /// native-page budget under [`Backend::Facade`], and in both cases the
    /// input to adaptive subinterval sizing (identical loaded data in both
    /// runs — the paper's fair-comparison setup in §4.1).
    pub budget_bytes: usize,
    /// Number of execution intervals (the paper's shard count; fixed at 20
    /// there).
    pub intervals: usize,
    /// Estimated loaded bytes per edge, used to derive the subinterval edge
    /// budget from `budget_bytes`.
    pub bytes_per_edge: usize,
    /// Apply the compiler's record-inlining optimization to the facade
    /// backend's edge layout (§3.6). On by default; the `ablation` bench
    /// binary turns it off to quantify the optimization (without it, paged
    /// per-edge records cost as much as heap objects to build, and the
    /// young-generation collector reclaims short-lived heap garbage almost
    /// for free — so `P'` loses its load/update advantage).
    pub inline_records: bool,
    /// Worker threads processing subintervals. Each worker owns a private
    /// [`Store`] (its page manager, under the facade backend) sized to
    /// `budget_bytes / threads`; facade workers draw pages from the run's
    /// one pool ([`RunEnv::page_pool`]). One worker runs on the calling
    /// thread. The result is bit-identical for every thread count:
    /// workers read a per-interval snapshot and the main thread commits
    /// their writes in subinterval order.
    pub threads: usize,
    /// What the host lends the run: page pool and epoch, cancellation flag,
    /// checkpoint directory, fault plan. The engine polls
    /// [`RunEnv::canceled`] at interval boundaries (the unit of
    /// consistency) and stops with [`FailureCause::Canceled`]; with
    /// [`RunEnv::checkpoint_dir`] set it checkpoints vertex values, edge
    /// values and the loop cursor after every committed interval and
    /// resumes from a verified checkpoint of the same graph, configuration
    /// and program found there.
    pub env: RunEnv,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            backend: Backend::Heap,
            budget_bytes: 64 << 20,
            intervals: 20,
            bytes_per_edge: 96,
            inline_records: true,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            env: RunEnv::default(),
        }
    }
}

/// The engine's rungs under the shared [`recovery::Ladder`]: worker count,
/// then subinterval edge budget.
#[derive(Debug)]
struct Ladder {
    threads: usize,
    shrink: u32,
    retry: recovery::Ladder,
}

impl Ladder {
    fn new(threads: usize) -> Self {
        Self {
            threads,
            shrink: 0,
            retry: recovery::Ladder::default(),
        }
    }

    /// The subinterval edge budget at a given rung: the fair-comparison
    /// formula divided by the worker count, right-shifted by the shrink
    /// rung, floored so subintervals never degenerate to single edges.
    fn edge_budget_at(config: &EngineConfig, threads: usize, shrink: u32) -> u64 {
        let base = config.budget_bytes / config.bytes_per_edge.max(1) / 3 / threads;
        ((base >> shrink.min(63)) as u64).max(16)
    }

    fn edge_budget(&self, config: &EngineConfig) -> u64 {
        Self::edge_budget_at(config, self.threads, self.shrink)
    }

    /// One rung down: halve the worker count to serial, then halve the
    /// edge budget to its floor; `None` once serial at the floor.
    fn step_down(
        config: &EngineConfig,
        threads: &mut usize,
        shrink: &mut u32,
    ) -> Option<DegradationAction> {
        if *threads > 1 {
            let from = *threads;
            *threads /= 2;
            Some(DegradationAction::ReduceThreads { from, to: *threads })
        } else if Self::edge_budget_at(config, 1, *shrink + 1)
            < Self::edge_budget_at(config, 1, *shrink)
        {
            *shrink += 1;
            Some(DegradationAction::ShrinkBudget { shrink: *shrink })
        } else {
            None
        }
    }

    /// Hands `cause` to the shared ladder; what it hands back (no rung
    /// left) is the run's error.
    fn respond(
        &mut self,
        config: &EngineConfig,
        cause: FailureCause,
        phase: &str,
        resilience: &mut ResilienceReport,
    ) -> Result<(), FailureCause> {
        self.retry.respond(phase, cause, resilience, || {
            Self::step_down(config, &mut self.threads, &mut self.shrink)
        })
    }
}

/// The result of a completed run.
#[derive(Debug)]
pub struct RunOutcome {
    /// Final vertex values (ranks for PR, component labels for CC).
    pub values: Vec<f64>,
    /// Phase timings: load (`LT`), update (`UT`), GC (`GT`).
    pub timer: PhaseTimer,
    /// Store statistics at the end of the run.
    pub stats: StoreStats,
    /// Full passes executed (≤ the app's `iterations()`, due to early
    /// convergence).
    pub passes: usize,
    /// Edges processed (edges × passes), the throughput numerator of
    /// Figure 4(a).
    pub edges_processed: u64,
    /// Failure-handling record: retries, degradation-ladder steps, and
    /// injected faults the run survived.
    pub resilience: ResilienceReport,
    /// Shared page-pool counters (facade backend only).
    pub pool: Option<PoolCounters>,
    /// Per-collection pause records from the surviving worker stores
    /// ([`Backend::Heap`] only; empty on facade, which never collects).
    /// Format them with `managed_heap::format_gc_log_line` for a
    /// HotSpot-style GC log.
    pub pauses: Vec<PauseRecord>,
}

/// Record schema shared by both backends.
#[derive(Debug)]
struct Schema {
    vertex: ClassTag,
    pointer: ClassTag,
    degree: ClassTag,
    /// The `ChiVertex` and `ChiPointer` fields, carried by every
    /// [`VertexView`].
    fields: ChiFields,
    /// The `VertexDegree` fields: in-degree, out-degree.
    in_degree: Field,
    out_degree: Field,
}

/// Builds the per-worker stores: each worker thread owns one, sized so the
/// run's combined budget stays `config.budget_bytes`. Facade workers share
/// the run's page pool ([`RunEnv::page_pool`]), so pages released by any
/// worker at interval ends are adopted by the others instead of being
/// allocated fresh.
fn build_stores(config: &EngineConfig, threads: usize) -> (Vec<Store>, Schema) {
    let worker_budget = (config.budget_bytes / threads).max(4096);
    // One page supply per call: a rebuild after a failure starts from a
    // fresh private pool (or the host's, untouched).
    let pool = config.env.page_pool(config.backend);
    let mut stores: Vec<Store> = (0..threads)
        .map(|_| {
            config
                .env
                .store(config.backend, worker_budget, pool.as_ref())
        })
        .collect();
    // Register the same classes in every store; the tags are identical
    // because registration order is.
    let mut schema = None;
    for store in &mut stores {
        schema = Some(register_schema(store));
    }
    (stores, schema.expect("at least one worker store"))
}

// The three data classes the paper's profiling found (§4.1). An edge
// array holds `ChiPointer` refs, or under the facade backend's inlined
// layout the pointers' values (see `apps::ChiFields`). Each field is
// resolved here, once per store; the stores of a run register the same
// classes in the same order, so the resolved fields of one are the fields
// of all.
fn register_schema(store: &mut Store) -> Schema {
    let vertex = store.register_class(
        "ChiVertex",
        &[
            FieldTy::I32, // id
            FieldTy::F64, // value
            FieldTy::I32, // num in
            FieldTy::I32, // num out
            FieldTy::Ref, // in-edge array (P: ChiPointer refs; P': f64 values)
            FieldTy::Ref, // out-edge array
        ],
    );
    let pointer = store.register_class("ChiPointer", &[FieldTy::F64]); // edge value
    let degree = store.register_class("VertexDegree", &[FieldTy::I32, FieldTy::I32]);
    let v = |i| store.field(vertex, i);
    Schema {
        vertex,
        pointer,
        degree,
        fields: ChiFields {
            id: v(0),
            value: v(1),
            num_in: v(2),
            num_out: v(3),
            in_edges: v(4),
            out_edges: v(5),
            pointer_value: store.field(pointer, 0),
        },
        in_degree: store.field(degree, 0),
        out_degree: store.field(degree, 1),
    }
}

/// The buffered effects of one subinterval, produced against a frozen
/// interval-start snapshot and replayed by the main thread in subinterval
/// order — the mechanism that makes parallel runs bit-identical to
/// sequential ones. The in run is the subinterval's gathered [`Window`],
/// overwritten in place by the writeback; the out run is appended by it in
/// slot order. Position addresses every value.
#[derive(Debug)]
struct CommitBuf {
    /// First vertex of the subinterval; `new_values[i]` belongs to
    /// `first_vertex + i`.
    first_vertex: u32,
    /// Post-update vertex values, one per vertex of the subinterval.
    new_values: Vec<f64>,
    /// Written out-edge values: the subinterval's out slots, in slot
    /// order, which is vertex order.
    out_vals: Vec<f64>,
    /// Written in-edge values, in the subinterval's in-slot order; empty
    /// unless the program [writes in-edges](VertexProgram::writes_in_edges).
    in_vals: Vec<f64>,
    /// Whether any vertex reported a change (drives early convergence).
    changed: bool,
}

/// One subinterval's shard window: the frozen values of every in-edge of
/// the vertex range, in in-slot order. An in-edge's value lives at its out
/// slot, scattered over the snapshot, so gathering them in one tight pass
/// lets the cache misses overlap instead of each one stalling the store
/// calls behind it. The out side needs no window: a vertex range's out
/// slots are one contiguous run of the snapshot, which the load reads in
/// place. The content is a pure function of the CSR and the
/// interval-start snapshot. The run outlives the load: the writeback of an
/// in-edge-writing program overwrites it and it becomes the subinterval's
/// [`CommitBuf::in_vals`].
#[derive(Debug)]
struct Window {
    /// Frozen edge values for every in-edge, in vertex order.
    in_vals: Vec<f64>,
}

/// State restored from a verified checkpoint. The cursor is deliberately
/// *not* normalized at pass boundaries: a checkpoint taken after the last
/// interval of a pass stores `interval == intervals.len()`, so the resumed
/// loop skips every interval of that pass and still executes its
/// `passes += 1` / convergence check.
#[derive(Debug)]
struct ResumeState {
    values: Vec<f64>,
    edge_values: Vec<f64>,
    pass: usize,
    interval: usize,
    edges_processed: u64,
    changed: bool,
}

/// Encodes one consistent interval-boundary snapshot — the committed
/// state plus the loop flags a resumed run continues with — as the
/// checkpoint sections [`Engine::decode_resume`] reads back.
fn encode_sections(
    changed: bool,
    edges_processed: u64,
    values: &[f64],
    edge_values: &[f64],
) -> Vec<(String, Vec<u8>)> {
    let mut state = vec![u8::from(changed)];
    state.extend_from_slice(&edges_processed.to_le_bytes());
    vec![
        ("values".into(), ckpt::encode_f64s(values)),
        ("edge_values".into(), ckpt::encode_f64s(edge_values)),
        ("engine_state".into(), state),
    ]
}

/// The GraphChi-style engine. Construct once per (graph, config) and run
/// one or more vertex programs.
#[derive(Debug)]
pub struct Engine {
    csr: Arc<Csr>,
    config: EngineConfig,
}

impl Engine {
    /// Builds the engine, running preprocessing first (CSR construction —
    /// the stand-in for shard creation). The paper excludes preprocessing
    /// from every reported time; a host that runs many jobs on one graph
    /// builds the CSR once and shares it through [`Engine::with_csr`], as
    /// `facade_job::Dataset` does. This is `with_csr` over a fresh CSR.
    pub fn new(graph: &Graph, config: EngineConfig) -> Self {
        Self::with_csr(Arc::new(Csr::build(graph)), config)
    }

    /// The engine over an already-built CSR, shared with every other engine
    /// (and thread) holding it: preprocessing is paid by whoever built it,
    /// once per graph, not once per job. The CSR is read-only; a run's
    /// output depends on its contents, not on who else holds it.
    pub fn with_csr(csr: Arc<Csr>, config: EngineConfig) -> Self {
        Self { csr, config }
    }

    /// The checkpoint file this engine reads and writes under `dir`
    /// (`config.env.checkpoint_dir`). One file per directory: each committed
    /// interval atomically replaces the previous checkpoint.
    pub fn checkpoint_path(dir: &Path) -> PathBuf {
        dir.join(CHECKPOINT_FILE)
    }

    /// The checkpoint policy for a run of `app` from the cold-start state
    /// `initial` (vertex values, edge values), when durability is
    /// configured. Resuming is automatic, so the fingerprint is all that
    /// keeps foreign state out; it covers everything the values are a
    /// function of: the value-affecting config (interval count, inlining),
    /// the program (name, iteration bound, [`VertexProgram::parameters`],
    /// and its initial state, which catches an undeclared parameter that
    /// shows there), the graph's *contents* (the out-CSR is the edge list,
    /// and an edge's out slot is its id) and the edge-value layout
    /// (`slot-order` in the shape string: edge values indexed by out slot,
    /// so a checkpoint of another layout is discarded, not misread). Not
    /// threads or budget: output is bit-identical across those, and a
    /// resumed run may legitimately use a different worker count than the
    /// crashed one.
    fn checkpointer(
        &self,
        app: &dyn VertexProgram,
        initial: (&[f64], &[f64]),
    ) -> Option<Checkpointer> {
        self.config.env.checkpointer(CHECKPOINT_FILE, || {
            // `{:?}` quotes and escapes the name, so it cannot run into the
            // parameter bytes behind it.
            let (config, passes) = (&self.config, app.iterations());
            let mut shape = format!(
                "graphchi slot-order {} {} {passes} {:?} ",
                config.intervals,
                config.inline_records,
                app.name()
            )
            .into_bytes();
            shape.extend(app.parameters());
            let mut fingerprint = ckpt::xxh64(&shape, 0);
            for ids in [&self.csr.out_offsets, &self.csr.out_dst] {
                let bytes: Vec<u8> = ids.iter().flat_map(|id| id.to_le_bytes()).collect();
                fingerprint = ckpt::xxh64(&bytes, fingerprint);
            }
            for state in [initial.0, initial.1] {
                fingerprint = ckpt::xxh64(&ckpt::encode_f64s(state), fingerprint);
            }
            fingerprint
        })
    }

    /// The cold-start persistent state: every vertex's and every edge's
    /// initial value under `app`.
    fn initial_state(&self, app: &dyn VertexProgram) -> (Vec<f64>, Vec<f64>) {
        let values = (0..self.csr.vertices)
            .map(|v| app.initial_value(v, self.csr.out_degree(v)))
            .collect();
        let mut edge_values = vec![0.0; self.csr.edges as usize];
        for v in 0..self.csr.vertices {
            let init = app.initial_edge_value(v, self.csr.out_degree(v));
            edge_values[self.csr.out_slots(v, v + 1)].fill(init);
        }
        (values, edge_values)
    }

    /// Decodes a verified manifest's sections, failing closed on any shape
    /// that does not fit this graph, or a cursor outside a run of `passes`
    /// passes over `intervals` intervals.
    fn decode_resume(
        &self,
        manifest: &Manifest,
        passes: usize,
        intervals: usize,
    ) -> Result<ResumeState, RecoveryError> {
        let [pass, interval] = manifest.cursor;
        if pass >= passes as u64 || interval > intervals as u64 {
            return Err(RecoveryError::Malformed(format!(
                "cursor at pass {pass}, interval {interval}; the run has {passes} passes \
                 of {intervals} intervals"
            )));
        }
        let values = ckpt::decode_f64s(manifest.require("values")?)?;
        let edge_values = ckpt::decode_f64s(manifest.require("edge_values")?)?;
        if values.len() != self.csr.vertices as usize
            || edge_values.len() != self.csr.edges as usize
        {
            return Err(RecoveryError::Malformed(format!(
                "value arrays sized {}/{}, graph has {}/{}",
                values.len(),
                edge_values.len(),
                self.csr.vertices,
                self.csr.edges
            )));
        }
        let mut state = ckpt::Cursor::new(manifest.require("engine_state")?);
        let changed = state.take(1)?[0] != 0;
        let edges_processed = state.u64()?;
        state.finish()?;
        Ok(ResumeState {
            values,
            edge_values,
            pass: pass as usize,
            interval: interval as usize,
            edges_processed,
            changed,
        })
    }

    /// The engine's CSR index.
    pub fn csr(&self) -> &Csr {
        &self.csr
    }

    /// Runs `app` to convergence (or its iteration bound).
    ///
    /// `config.threads` workers claim an interval's subintervals one at a
    /// time. Every worker reads the same frozen interval-start snapshot
    /// of the vertex and edge values and buffers its writes; the main
    /// thread replays the buffers in subinterval order, so the result is
    /// bit-identical for every thread count.
    ///
    /// A worker failure — out-of-memory or panic — no longer kills the
    /// run. The interval's buffered writes are discarded (nothing was
    /// committed), the worker stores are torn down and rebuilt, and the
    /// interval is retried per the shared [`recovery::Ladder`]: transient
    /// failures at the same configuration, budget exhaustion one rung down
    /// the degradation ladder (halve the worker count to serial, then halve
    /// the subinterval budget). Because only interval boundaries are
    /// semantically visible, a degraded retry commits bit-identical values.
    ///
    /// With [`RunEnv::checkpoint_dir`] set, every committed interval
    /// is checkpointed, and a verified checkpoint of this graph, config and
    /// program found there at start is resumed from.
    ///
    /// # Errors
    ///
    /// Returns [`JobFailure`] when the failure survives every rung of the
    /// ladder — for a memory failure, the condition Table 3 reports as
    /// `OME(n)` — when the fault plan's `crash_at_interval` fires, or when
    /// the host cancels the run.
    pub fn execute(&mut self, app: &dyn VertexProgram) -> Result<RunOutcome, JobFailure> {
        let started = Instant::now();
        let fail = |cause| JobFailure {
            after: started.elapsed(),
            cause,
        };
        let mut ladder = Ladder::new(self.config.threads.max(1));
        let mut resilience = ResilienceReport::default();
        // Stats of stores torn down after a failure, folded into the final
        // report so no allocation disappears from the books.
        let mut retired = StoreStats::default();
        let (mut stores, mut schema) = build_stores(&self.config, ladder.threads);
        let mut timer = PhaseTimer::new();

        // Degree pass, under the same ladder as interval processing.
        loop {
            let span = facade_trace::span!("degree_pass");
            let r = guarded(|| self.degree_pass(&mut stores[0], &schema));
            drop(span);
            match r {
                Ok(()) => break,
                Err(cause) => {
                    ladder
                        .respond(&self.config, cause, "degree pass", &mut resilience)
                        .map_err(fail)?;
                    for store in &stores {
                        retired.merge(&store.stats());
                    }
                    (stores, schema) = build_stores(&self.config, ladder.threads);
                }
            }
        }

        // Persistent (simulated on-disk) state: vertex values + edge values.
        let (mut values, mut edge_values) = self.initial_state(app);
        let checkpointer = self.checkpointer(app, (&values, &edge_values));

        let intervals = self.csr.intervals(self.config.intervals);

        let mut passes = 0usize;
        let mut edges_processed = 0u64;
        // Intervals committed by *this process* — the clock the fault
        // plan's `crash_at_interval` runs against, so a resumed run crashes
        // relative to its own progress, not the cumulative job's.
        let mut committed_intervals = 0u64;
        // A verified checkpoint replaces the cold-start state. `passes`
        // starts at the cursor's pass because every earlier pass already
        // ran to completion before the checkpoint was taken.
        let resumed = checkpointer.as_ref().and_then(|c| {
            c.restore(&mut resilience, |m| {
                self.decode_resume(m, app.iterations(), intervals.len())
            })
        });
        let (start_pass, start_interval, resumed_changed) = match resumed {
            Some(r) => {
                values = r.values;
                edge_values = r.edge_values;
                passes = r.pass;
                edges_processed = r.edges_processed;
                (r.pass, r.interval, r.changed)
            }
            None => (0, 0, false),
        };
        for pass in 0..app.iterations() {
            if pass < start_pass {
                continue;
            }
            // A partial pass resumes with the convergence flag its
            // committed intervals had already accumulated.
            let mut changed = if pass == start_pass {
                resumed_changed
            } else {
                false
            };
            for (iv_idx, &interval) in intervals.iter().enumerate() {
                if pass == start_pass && iv_idx < start_interval {
                    continue;
                }
                // Host cancellation lands here, at the interval boundary —
                // nothing half-committed is left behind, and a long run
                // cannot occupy its executor past the next interval.
                if self.config.env.canceled() {
                    return Err(fail(FailureCause::Canceled));
                }
                // Retry loop: the interval commits only when every
                // subinterval succeeded, so a mid-interval failure leaves
                // `values`/`edge_values` exactly at the interval-start
                // snapshot and the retry replays it from scratch.
                let mut attempt = 0u32;
                loop {
                    attempt += 1;
                    let span = facade_trace::span!(
                        "exec_interval",
                        interval = iv_idx,
                        pass = pass,
                        attempt = attempt,
                        threads = ladder.threads,
                    );
                    // Each worker's subintervals must fit its private slice
                    // of the budget, so the subinterval edge budget divides
                    // by the (current) worker count; the shrink rung halves
                    // it further. Subinterval boundaries are not
                    // semantically visible, so neither knob perturbs values.
                    let subs = self
                        .csr
                        .subintervals(interval, ladder.edge_budget(&self.config));
                    let outcome = self.process_interval(
                        &mut stores,
                        &schema,
                        app,
                        &subs,
                        &values,
                        &edge_values,
                        &mut timer,
                    );
                    // End the attempt span before the ladder's backoff
                    // sleep, so retries show as separate spans rather than
                    // one long one swallowing the sleep.
                    drop(span);
                    match outcome {
                        Ok(bufs) => {
                            for buf in &bufs {
                                changed |= buf.changed;
                                self.commit(app, buf, &mut values, &mut edge_values);
                            }
                            edges_processed += (interval.0..interval.1)
                                .map(|v| u64::from(self.csr.degree(v)))
                                .sum::<u64>();
                            committed_intervals += 1;
                            facade_trace::instant(
                                "interval_commit",
                                &[
                                    ("interval", iv_idx.into()),
                                    ("pass", pass.into()),
                                    ("subintervals", bufs.len().into()),
                                    ("committed", committed_intervals.into()),
                                ],
                            );
                            // The cursor is `iv_idx + 1`, not normalized at
                            // pass ends: resuming at `intervals.len()` skips
                            // the rest of the pass but still runs its
                            // convergence check.
                            if let Some(c) = &checkpointer {
                                c.commit(
                                    [pass as u64, iv_idx as u64 + 1],
                                    encode_sections(
                                        changed,
                                        edges_processed,
                                        &values,
                                        &edge_values,
                                    ),
                                    &mut resilience,
                                );
                            }
                            if let Some(plan) = &self.config.env.fault_plan {
                                if plan.should_crash_at_interval(committed_intervals) {
                                    return Err(fail(FailureCause::InjectedCrash(format!(
                                        "after committing interval {iv_idx} of pass {pass}"
                                    ))));
                                }
                            }
                            break;
                        }
                        Err(cause) => {
                            ladder
                                .respond(
                                    &self.config,
                                    cause,
                                    &format!("interval {iv_idx}"),
                                    &mut resilience,
                                )
                                .map_err(fail)?;
                            // A panicked worker may have left its store with
                            // open iterations or leaked roots; rebuilding is
                            // cheaper to prove correct than repairing.
                            for store in &stores {
                                retired.merge(&store.stats());
                            }
                            (stores, schema) = build_stores(&self.config, ladder.threads);
                        }
                    }
                }
            }
            passes += 1;
            if !changed {
                break;
            }
        }

        let mut stats = retired;
        let mut pauses = Vec::new();
        for store in &stores {
            stats.merge(&store.stats());
            pauses.extend(store.pause_records());
        }
        let pool = stores[0].pool_counters();
        resilience.faults_injected = self
            .config
            .env
            .fault_plan
            .as_ref()
            .map_or(0, FaultPlan::faults_injected);
        if let Some(c) = &checkpointer {
            c.finish();
        }
        timer.add(phases::GC, stats.gc_time);
        timer.freeze_total();
        Ok(RunOutcome {
            values,
            timer,
            stats,
            passes,
            edges_processed,
            resilience,
            pool,
            pauses,
        })
    }

    /// Degree computation pass: allocates the paper's third data class.
    /// GraphChi computes degrees during sharding; the records are
    /// short-lived. The vertex range is chunked so no single ref array
    /// outgrows what a page budget can root at once — every vertex gets a
    /// degree record, not just the first 2^16.
    fn degree_pass(&self, store: &mut Store, schema: &Schema) -> Result<(), OutOfMemory> {
        const CHUNK: usize = 1 << 16;
        let n = self.csr.vertices as usize;
        for chunk_start in (0..n).step_by(CHUNK) {
            let count = CHUNK.min(n - chunk_start);
            let it = store.iteration_start();
            let arr = store.alloc_array(ElemTy::Ref, count)?;
            let root = store.add_root(arr);
            for i in 0..count {
                let v = (chunk_start + i) as u32;
                let d = store.alloc(schema.degree)?;
                store.set_i32(d, schema.in_degree, self.csr.in_degree(v) as i32);
                store.set_i32(d, schema.out_degree, self.csr.out_degree(v) as i32);
                store.array_set_rec(arr, i, d);
            }
            store.remove_root(root);
            store.iteration_end(it);
        }
        Ok(())
    }

    /// Processes one interval's subintervals against the frozen snapshot as
    /// one [`recovery::round`]: each worker claims subintervals and runs
    /// them against its own store. Returns one commit buffer per
    /// subinterval (in subinterval order), or the cause of the lowest
    /// failing one — independent of which worker hit it first, so error
    /// reporting is deterministic too.
    #[allow(clippy::too_many_arguments)]
    fn process_interval(
        &self,
        stores: &mut [Store],
        schema: &Schema,
        app: &dyn VertexProgram,
        subs: &[(u32, u32)],
        values: &[f64],
        edge_values: &[f64],
        timer: &mut PhaseTimer,
    ) -> Result<Vec<CommitBuf>, FailureCause> {
        let outcome = recovery::round(stores.iter_mut(), subs.len(), |store, claims| {
            let mut t = PhaseTimer::new();
            // A store that failed a subinterval may hold open iterations or
            // leaked roots: on `Some(false)` this worker runs nothing further
            // on it, and the retry rebuilds every store.
            while claims.run_next(|idx| {
                self.process_subinterval(store, schema, app, subs[idx], values, edge_values, &mut t)
            }) == Some(true)
            {}
            // The interval's records are all dead now; hand the pages back
            // so other workers (and the next interval) adopt them instead
            // of growing.
            store.release_pages();
            t
        });
        for t in &outcome.workers {
            timer.merge(t);
        }
        match outcome.failure {
            Some(failure) => Err(failure.cause),
            None => Ok(outcome
                .payloads
                .into_iter()
                .map(|buf| buf.expect("a round without a failure filled every slot"))
                .collect()),
        }
    }

    /// Replays one subinterval's buffered writes into the persistent
    /// arrays, folding edge writes with the app's combine rule: for each
    /// vertex in order, its out run, then its in run. That is the order a
    /// sequential engine writes them in, so any fold — commutative or not —
    /// gives the same bits at every thread count. Without in-edge writes
    /// the subinterval's out runs are adjacent, and fold as one run. Each
    /// side is one call into the program per vertex, not one per edge.
    fn commit(
        &self,
        app: &dyn VertexProgram,
        buf: &CommitBuf,
        values: &mut [f64],
        edge_values: &mut [f64],
    ) {
        let start = buf.first_vertex;
        let end = start + buf.new_values.len() as u32;
        values[start as usize..end as usize].copy_from_slice(&buf.new_values);
        let csr = &self.csr;
        let outs = csr.out_slots(start, end);
        if !app.writes_in_edges() {
            app.fold_edge_values(&mut edge_values[outs], &buf.out_vals);
            return;
        }
        let (out_base, in_base) = (outs.start, csr.in_slots(start, end).start);
        for v in start..end {
            let outs = csr.out_slots(v, v + 1);
            let written = &buf.out_vals[outs.start - out_base..outs.end - out_base];
            app.fold_edge_values(&mut edge_values[outs], written);
            let ins = csr.in_slots(v, v + 1);
            let written = &buf.in_vals[ins.start - in_base..ins.end - in_base];
            app.fold_scattered_edge_values(edge_values, &csr.in_eid[ins], written);
        }
    }

    /// Gathers one subinterval's shard window from the frozen snapshot —
    /// the CSR-chasing, cache-missing half of `sub_load` — without touching
    /// any store. A vertex range's in slots are contiguous in the CSR, so
    /// the window is one run.
    fn gather_sub(&self, (start, end): (u32, u32), edge_values: &[f64]) -> Window {
        let in_eid = &self.csr.in_eid[self.csr.in_slots(start, end)];
        Window {
            in_vals: in_eid.iter().map(|&e| edge_values[e as usize]).collect(),
        }
    }

    /// Loads, updates, and buffers the writeback of one subinterval. This
    /// is one sub-iteration in the FACADE sense: everything allocated here
    /// dies here. Reads come from the frozen interval-start snapshot;
    /// writes go into the returned [`CommitBuf`] for the main thread to
    /// replay in order. The load phase first gathers the subinterval's
    /// [`Window`], then streams it and each vertex's out run of the
    /// snapshot, read in place, into the store.
    #[allow(clippy::too_many_arguments)]
    fn process_subinterval(
        &self,
        store: &mut Store,
        schema: &Schema,
        app: &dyn VertexProgram,
        (start, end): (u32, u32),
        values: &[f64],
        edge_values: &[f64],
        timer: &mut PhaseTimer,
    ) -> Result<CommitBuf, OutOfMemory> {
        let csr = &self.csr;
        let it = store.iteration_start();
        let count = (end - start) as usize;

        // ---- load phase (LT): build ChiVertex + ChiPointer records -------
        let load_start = std::time::Instant::now();
        let vertex_arr = store.alloc_array(ElemTy::Ref, count)?;
        // Root the container so the heap backend keeps the subinterval's
        // records live across collections triggered mid-load.
        let root = store.add_root(vertex_arr);
        let inlined = store.is_facade() && self.config.inline_records;
        let window = self.gather_sub((start, end), edge_values);
        let fields = &schema.fields;
        let mut load = || -> Result<(), OutOfMemory> {
            // In-edges consumed so far from the window, which is in vertex
            // order.
            let mut in_seen = 0usize;
            for v in start..end {
                let vi = (v - start) as usize;
                let vr = store.alloc(schema.vertex)?;
                // Link the vertex into the rooted container *before* any
                // further allocation: a collection triggered mid-load must
                // see the half-built record graph as live.
                store.array_set_rec(vertex_arr, vi, vr);
                store.set_i32(vr, fields.id, v as i32);
                store.set_f64(vr, fields.value, values[v as usize]);
                let n_in = csr.in_degree(v) as usize;
                let n_out = csr.out_degree(v) as usize;
                store.set_i32(vr, fields.num_in, n_in as i32);
                store.set_i32(vr, fields.num_out, n_out as i32);
                let ins = &window.in_vals[in_seen..in_seen + n_in];
                // An edge id is its out slot, so the vertex's out-edge
                // values are one run of the snapshot.
                let outs = &edge_values[csr.out_slots(v, v + 1)];
                for (edges, vals) in [(fields.in_edges, ins), (fields.out_edges, outs)] {
                    if inlined {
                        // P': the compiler's inlining optimization flattens
                        // the ChiPointer records into the array of their
                        // values, born holding its contents.
                        let arr = store.alloc_f64s(vals)?;
                        store.set_rec(vr, edges, arr);
                        continue;
                    }
                    let arr = store.alloc_array(ElemTy::Ref, vals.len())?;
                    store.set_rec(vr, edges, arr);
                    for (i, &val) in vals.iter().enumerate() {
                        let e = store.alloc(schema.pointer)?;
                        store.set_f64(e, fields.pointer_value, val);
                        store.array_set_rec(arr, i, e);
                    }
                }
                in_seen += n_in;
            }
            Ok(())
        };
        let load_result = load();
        timer.add(phases::LOAD, load_start.elapsed());
        facade_trace::complete("sub_load", load_start, &[("first_vertex", start.into())]);
        if let Err(e) = load_result {
            store.remove_root(root);
            store.iteration_end(it);
            return Err(e);
        }

        // ---- update phase (UT): run the vertex program --------------------
        let update_start = std::time::Instant::now();
        let mut changed = false;
        for vi in 0..count {
            let vr = store.array_get_rec(vertex_arr, vi);
            let mut view = VertexView {
                store,
                vertex: vr,
                inlined,
                fields,
            };
            changed |= app.update(&mut view);
        }
        timer.add(phases::UPDATE, update_start.elapsed());
        facade_trace::complete(
            "sub_update",
            update_start,
            &[("first_vertex", start.into())],
        );

        // ---- writeback (counted as load/IO time, like shard writes) ------
        // Buffered rather than applied: each vertex's out values are
        // appended to a fresh run in vertex order, and its in values
        // overwrite the window the load streamed from, so a value's
        // position names its edge and the main thread's replay folds the
        // runs in the order the sequential engine would.
        let wb_start = std::time::Instant::now();
        let writes_in = app.writes_in_edges();
        let mut new_values = Vec::with_capacity(count);
        let mut out_vals = Vec::with_capacity(csr.out_slots(start, end).len());
        let mut in_vals = if writes_in {
            window.in_vals
        } else {
            Vec::new()
        };
        let mut in_seen = 0usize;
        for (vi, v) in (start..end).enumerate() {
            let vr = store.array_get_rec(vertex_arr, vi);
            let view = VertexView {
                store,
                vertex: vr,
                inlined,
                fields,
            };
            new_values.push(view.value());
            view.append_edge_values(fields.out_edges, &mut out_vals);
            if writes_in {
                let n_in = csr.in_degree(v) as usize;
                view.read_edge_values(fields.in_edges, &mut in_vals[in_seen..in_seen + n_in]);
                in_seen += n_in;
            }
        }
        timer.add(phases::LOAD, wb_start.elapsed());
        facade_trace::complete("sub_writeback", wb_start, &[("first_vertex", start.into())]);

        store.remove_root(root);
        store.iteration_end(it);
        Ok(CommitBuf {
            first_vertex: start,
            new_values,
            out_vals,
            in_vals,
            changed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::{ConnectedComponents, PageRank};
    use datagen::GraphSpec;

    fn tiny_graph() -> Graph {
        Graph {
            vertices: 5,
            edges: vec![(0, 1), (1, 2), (2, 0), (3, 4), (4, 3), (0, 2)],
        }
    }

    fn run(backend: Backend, graph: &Graph, app: &dyn VertexProgram) -> RunOutcome {
        let mut engine = Engine::new(
            graph,
            EngineConfig {
                backend,
                budget_bytes: 16 << 20,
                intervals: 3,
                ..EngineConfig::default()
            },
        );
        engine.execute(app).expect("run completes")
    }

    #[test]
    fn cc_finds_components_on_both_backends() {
        let g = tiny_graph();
        for backend in [Backend::Heap, Backend::Facade] {
            let out = run(backend, &g, &ConnectedComponents::new(20));
            // {0,1,2} -> label 0; {3,4} -> label 3.
            assert_eq!(out.values[0], 0.0);
            assert_eq!(out.values[1], 0.0);
            assert_eq!(out.values[2], 0.0);
            assert_eq!(out.values[3], 3.0);
            assert_eq!(out.values[4], 3.0);
            assert!(out.passes < 20, "converged early");
        }
    }

    #[test]
    fn pagerank_is_identical_across_backends() {
        let g = Graph::generate(&GraphSpec::new(300, 2_000, 11));
        let heap = run(Backend::Heap, &g, &PageRank::new(4));
        let facade = run(Backend::Facade, &g, &PageRank::new(4));
        assert_eq!(heap.values, facade.values, "bit-identical ranks");
        assert_eq!(heap.passes, 4);
        assert_eq!(heap.edges_processed, facade.edges_processed);
    }

    #[test]
    fn pagerank_mass_is_plausible() {
        let g = Graph::generate(&GraphSpec::new(200, 1_500, 13));
        let out = run(Backend::Facade, &g, &PageRank::new(6));
        let total: f64 = out.values.iter().sum();
        // With damping 0.15 the total mass stays near n (dangling vertices
        // leak a bit).
        assert!(total > 30.0 && total < 400.0, "total rank {total}");
        assert!(out.values.iter().all(|&r| r >= 0.15));
    }

    #[test]
    fn checkpointed_run_counts_writes_and_cleans_up() {
        let tmp = data_store::test_support::TempDir::new("graphchi-ckpt");
        let g = Graph::generate(&GraphSpec::new(300, 2_000, 11));
        let base = run(Backend::Facade, &g, &PageRank::new(3));
        let mut engine = Engine::new(
            &g,
            EngineConfig {
                backend: Backend::Facade,
                budget_bytes: 16 << 20,
                intervals: 3,
                env: RunEnv {
                    checkpoint_dir: Some(tmp.path().to_path_buf()),
                    ..RunEnv::default()
                },
                ..EngineConfig::default()
            },
        );
        let out = engine.execute(&PageRank::new(3)).expect("run completes");
        assert_eq!(
            out.values, base.values,
            "durability must not perturb output"
        );
        assert_eq!(
            out.resilience.checkpoints_written,
            3 * 3,
            "one checkpoint per committed interval"
        );
        assert!(
            out.resilience.is_clean(),
            "checkpoint writes alone don't dirty a run"
        );
        assert!(
            !Engine::checkpoint_path(tmp.path()).exists(),
            "a completed run removes its checkpoint"
        );
    }

    #[test]
    fn resume_rejects_a_foreign_fingerprint_and_reports_the_discard() {
        let tmp = data_store::test_support::TempDir::new("graphchi-fprint");
        let path = Engine::checkpoint_path(tmp.path());
        let mut written = ResilienceReport::default();
        Checkpointer::new(path.clone(), 0xDEAD_BEEF).commit([0, 1], Vec::new(), &mut written);
        assert_eq!(written.checkpoints_written, 1);
        let g = tiny_graph();
        let mut engine = Engine::new(
            &g,
            EngineConfig {
                backend: Backend::Facade,
                budget_bytes: 16 << 20,
                intervals: 3,
                env: RunEnv {
                    checkpoint_dir: Some(tmp.path().to_path_buf()),
                    ..RunEnv::default()
                },
                ..EngineConfig::default()
            },
        );
        // The file is intact; the only thing wrong with it is whose it is.
        let foreign = ckpt::read_manifest(&path).expect("verifies");
        assert_eq!(foreign.fingerprint, 0xDEAD_BEEF);
        // The discarded checkpoint surfaces in the run's report, and the
        // cold start still produces a correct result.
        let out = engine.execute(&PageRank::new(1)).expect("cold start");
        assert_eq!(out.resilience.torn_checkpoints_discarded, 1);
        assert!(!out.resilience.is_clean(), "a discard is not a clean run");
        assert_eq!(out.resilience.recoveries, 0);
    }

    #[test]
    fn heap_backend_gcs_facade_backend_does_not() {
        let g = Graph::generate(&GraphSpec::new(2_000, 40_000, 17));
        let mk = |backend| EngineConfig {
            backend,
            budget_bytes: 4 << 20,
            intervals: 10,
            ..EngineConfig::default()
        };
        let heap = Engine::new(&g, mk(Backend::Heap))
            .execute(&PageRank::new(2))
            .unwrap();
        let facade = Engine::new(&g, mk(Backend::Facade))
            .execute(&PageRank::new(2))
            .unwrap();
        assert!(heap.stats.gc_count > 0, "P must collect");
        assert_eq!(facade.stats.gc_count, 0, "P' must not collect");
        assert!(facade.stats.pages_created > 0);
        assert_eq!(heap.values, facade.values);
    }

    #[test]
    fn oom_is_reported_when_budget_is_too_small() {
        let g = Graph::generate(&GraphSpec::new(5_000, 100_000, 19));
        // A budget so small even one subinterval's records cannot be rooted
        // alongside... the engine sizes subintervals adaptively, so force
        // failure with an absurdly small budget.
        let mut engine = Engine::new(
            &g,
            EngineConfig {
                backend: Backend::Heap,
                budget_bytes: 48 << 10,
                intervals: 2,
                bytes_per_edge: 1, // mis-estimates load, like a too-large heap hint
                ..EngineConfig::default()
            },
        );
        // The ladder runs out of rungs and hands back what it was given:
        // a typed, genuine (not injected) allocation failure.
        match engine.execute(&PageRank::new(1)).unwrap_err().cause {
            FailureCause::OutOfMemory(source) => assert!(!source.is_injected()),
            other => panic!("expected OutOfMemory, got {other}"),
        }
    }

    #[test]
    fn zero_bytes_per_edge_runs_instead_of_dividing_by_zero() {
        let g = Graph::generate(&GraphSpec::new(300, 2_000, 11));
        let mut engine = Engine::new(
            &g,
            EngineConfig {
                budget_bytes: 16 << 20,
                intervals: 3,
                bytes_per_edge: 0,
                ..EngineConfig::default()
            },
        );
        let out = engine.execute(&PageRank::new(2)).expect("run completes");
        let reference = run(Backend::Heap, &g, &PageRank::new(2));
        assert_eq!(out.values, reference.values);
    }

    #[test]
    fn degree_pass_covers_graphs_beyond_u16_vertices() {
        // Regression: the degree pass used to clamp its ref array to 2^16
        // entries, silently skipping degree records past vertex 65,535.
        let n = 70_000u32;
        let edges: Vec<(u32, u32)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
        let g = Graph { vertices: n, edges };
        for backend in [Backend::Heap, Backend::Facade] {
            let mut engine = Engine::new(
                &g,
                EngineConfig {
                    backend,
                    budget_bytes: 64 << 20,
                    intervals: 4,
                    ..EngineConfig::default()
                },
            );
            // Zero passes: the run is exactly the degree pass.
            let out = engine.execute(&PageRank::new(0)).unwrap();
            assert_eq!(out.passes, 0);
            assert_eq!(out.values.len(), n as usize);
            assert!(
                out.stats.records_allocated >= u64::from(n),
                "{backend:?}: every vertex needs a degree record, got {}",
                out.stats.records_allocated
            );
        }
    }

    #[test]
    fn parallel_runs_are_bit_identical_to_sequential() {
        use crate::apps::ShortestPaths;
        let g = Graph::generate(&GraphSpec::new(800, 6_000, 41));
        let apps: Vec<Box<dyn VertexProgram>> = vec![
            Box::new(PageRank::new(4)),
            Box::new(ConnectedComponents::new(30)),
            Box::new(ShortestPaths::new(0, 50)),
        ];
        for backend in [Backend::Heap, Backend::Facade] {
            for app in &apps {
                let run_with = |threads: usize| {
                    let mut engine = Engine::new(
                        &g,
                        EngineConfig {
                            backend,
                            budget_bytes: 16 << 20,
                            intervals: 5,
                            threads,
                            ..EngineConfig::default()
                        },
                    );
                    engine.execute(app.as_ref()).unwrap()
                };
                let seq = run_with(1);
                // Facade runs repeat, because the page count depends on
                // which worker takes which subinterval: every page is in one
                // worker's store or in the shared pool, so `threads`
                // workers never create more pages than `threads` one-thread
                // runs.
                let runs = if backend == Backend::Facade { 5 } else { 1 };
                for threads in [2, 4] {
                    for _ in 0..runs {
                        let par = run_with(threads);
                        assert_eq!(
                            seq.values,
                            par.values,
                            "{} on {backend:?} must be bit-identical at {threads} threads",
                            app.name()
                        );
                        assert_eq!(seq.passes, par.passes, "{}", app.name());
                        assert_eq!(seq.edges_processed, par.edges_processed, "{}", app.name());
                        let bound = threads as u64 * seq.stats.pages_created;
                        assert!(
                            par.stats.pages_created <= bound,
                            "{} on {backend:?} at {threads} threads: {} pages created > {bound}",
                            app.name(),
                            par.stats.pages_created
                        );
                    }
                }
            }
        }
    }

    /// Delegates everything but `update` to the wrapped program, so a
    /// reference body can be run under the same name, passes and edge rules.
    struct WithUpdate<A>(A, fn(&mut VertexView<'_>) -> bool);

    impl<A: VertexProgram> VertexProgram for WithUpdate<A> {
        fn name(&self) -> &'static str {
            self.0.name()
        }
        fn iterations(&self) -> usize {
            self.0.iterations()
        }
        fn initial_value(&self, vertex: u32, out_degree: u32) -> f64 {
            self.0.initial_value(vertex, out_degree)
        }
        fn initial_edge_value(&self, src: u32, src_out_degree: u32) -> f64 {
            self.0.initial_edge_value(src, src_out_degree)
        }
        fn writes_in_edges(&self) -> bool {
            self.0.writes_in_edges()
        }
        fn fold_edge_value(&self, stored: f64, written: f64) -> f64 {
            self.0.fold_edge_value(stored, written)
        }
        fn update(&self, v: &mut VertexView<'_>) -> bool {
            (self.1)(v)
        }
    }

    /// The PageRank update as it was written before the sequential
    /// accessors existed: one random-access call per edge.
    fn pagerank_per_element(v: &mut VertexView<'_>) -> bool {
        let mut sum = 0.0;
        for i in 0..v.num_in() {
            sum += v.in_edge_value(i);
        }
        let rank = 0.15 + 0.85 * sum;
        v.set_value(rank);
        let share = rank / v.num_out().max(1) as f64;
        for i in 0..v.num_out() {
            v.set_out_edge_value(i, share);
        }
        true
    }

    /// The ConnectedComponents update, one random-access call per edge.
    fn cc_per_element(v: &mut VertexView<'_>) -> bool {
        let mut label = v.value();
        for i in 0..v.num_in() {
            label = label.min(v.in_edge_value(i));
        }
        for i in 0..v.num_out() {
            label = label.min(v.out_edge_value(i));
        }
        let changed = label < v.value();
        v.set_value(label);
        for i in 0..v.num_in() {
            if label < v.in_edge_value(i) {
                v.set_in_edge_value(i, label);
            }
        }
        for i in 0..v.num_out() {
            if label < v.out_edge_value(i) {
                v.set_out_edge_value(i, label);
            }
        }
        changed
    }

    #[test]
    fn bulk_programs_match_per_element_reference_programs() {
        // A random graph plus a source (no in-edges), a sink (no
        // out-edges) and isolated vertices: every empty-array case.
        let mut g = Graph::generate(&GraphSpec::new(3_000, 40_000, 47));
        g.vertices += 4;
        g.edges
            .extend([(3_000, 3), (3_000, 17), (5, 3_001), (9, 3_001)]);
        let csr = Csr::build(&g);
        assert_eq!((csr.in_degree(3_000), csr.out_degree(3_001)), (0, 0));
        assert_eq!(csr.degree(3_002) + csr.degree(3_003), 0);

        let pairs: [(Box<dyn VertexProgram>, Box<dyn VertexProgram>); 2] = [
            (
                Box::new(PageRank::new(4)),
                Box::new(WithUpdate(PageRank::new(4), pagerank_per_element)),
            ),
            (
                Box::new(ConnectedComponents::new(30)),
                Box::new(WithUpdate(ConnectedComponents::new(30), cc_per_element)),
            ),
        ];
        // Facade `pages_created` of either program at one thread: the bulk
        // and the per-element program run over the same load, which
        // allocates the same records in the same order.
        const PAGES_BEFORE: u64 = 5;
        for (bulk, reference) in &pairs {
            for backend in [Backend::Heap, Backend::Facade] {
                // Several threads claim subintervals out of order.
                for threads in [1, 2, 4] {
                    let run = |app: &dyn VertexProgram| {
                        let config = EngineConfig {
                            backend,
                            budget_bytes: 2 << 20,
                            intervals: 5,
                            threads,
                            ..EngineConfig::default()
                        };
                        Engine::new(&g, config).execute(app).unwrap()
                    };
                    let (got, want) = (run(bulk.as_ref()), run(reference.as_ref()));
                    let bits = |out: &RunOutcome| -> Vec<u64> {
                        out.values.iter().map(|v| v.to_bits()).collect()
                    };
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "{} on {backend:?} at {threads} threads",
                        bulk.name()
                    );
                    assert_eq!(got.passes, want.passes);
                    if backend == Backend::Facade && threads == 1 {
                        assert_eq!(got.stats.pages_created, PAGES_BEFORE, "{}", bulk.name());
                    }
                }
            }
        }
    }

    /// Writes both sides of every edge and folds the two copies with a
    /// non-commutative rule, so the order the commit folds them in shows
    /// in the values.
    struct Blend;

    impl VertexProgram for Blend {
        fn name(&self) -> &'static str {
            "BLEND"
        }
        fn iterations(&self) -> usize {
            4
        }
        fn initial_value(&self, vertex: u32, _out_degree: u32) -> f64 {
            f64::from(vertex)
        }
        fn initial_edge_value(&self, src: u32, src_out_degree: u32) -> f64 {
            f64::from(src) / f64::from(src_out_degree.max(1))
        }
        fn writes_in_edges(&self) -> bool {
            true
        }
        fn fold_edge_value(&self, stored: f64, written: f64) -> f64 {
            0.5 * stored + written
        }
        fn update(&self, v: &mut VertexView<'_>) -> bool {
            let sum = v.fold_in_edge_values(0.0, |a, x| a + x);
            let sum = v.fold_out_edge_values(sum, |a, x| a + 0.5 * x);
            let value = 0.25 * v.value() + 0.125 * sum;
            v.set_value(value);
            v.map_in_edge_values(|x| 0.5 * x + value);
            v.map_out_edge_values(|x| 0.25 * x - value);
            true
        }
    }

    #[test]
    fn edge_writes_fold_in_sequential_order() {
        let g = Graph {
            vertices: 10,
            edges: vec![
                (0, 1),
                (1, 0),
                (1, 2),
                (2, 1),
                (2, 0),
                (0, 3),
                (3, 4),
                (4, 3),
                (4, 2),
                (5, 6),
                (6, 5),
                (6, 4),
                (7, 8),
                (8, 7),
                (8, 6),
                (9, 0),
                (0, 9),
                (3, 7),
                (7, 3),
                (5, 9),
                (9, 5),
                (2, 8),
                // A self-loop: one slot in vertex 3's out run and in run.
                (3, 3),
            ],
        };
        // Recorded before edge values were addressed by slot, when the
        // commit replayed `(edge id, value)` pairs one by one.
        const WANT: [u64; 10] = [
            0x3fd2f79f2d555557,
            0x3f91d5eeaaaaaaa4,
            0x3fd754b760000000,
            0x3ff7f5fcc9555556,
            0x3fc0e83300000000,
            0x3fe361bf01555555,
            0x3fe1dbdcac000000,
            0x3fd87f34b2fffffe,
            0x3ff233c3bdaaaaaa,
            0x3ff024b5fa4aaaaa,
        ];
        for backend in [Backend::Heap, Backend::Facade] {
            for threads in [1, 2, 4] {
                let config = EngineConfig {
                    backend,
                    budget_bytes: 2 << 20,
                    intervals: 2,
                    // Floors the subinterval edge budget: a few vertices each.
                    bytes_per_edge: 1 << 20,
                    threads,
                    ..EngineConfig::default()
                };
                let mut engine = Engine::new(&g, config.clone());
                // Some edge runs backwards inside one subinterval (its in
                // copy commits before its out copy) and some crosses two.
                let budget = Ladder::edge_budget_at(&config, threads, 0);
                let subs: Vec<(u32, u32)> = (engine.csr().intervals(config.intervals).iter())
                    .flat_map(|&iv| engine.csr().subintervals(iv, budget))
                    .collect();
                let sub_of = |v: u32| subs.iter().position(|&(a, b)| (a..b).contains(&v));
                assert!(
                    g.edges
                        .iter()
                        .any(|&(s, d)| d < s && sub_of(s) == sub_of(d))
                );
                assert!(g.edges.iter().any(|&(s, d)| sub_of(s) != sub_of(d)));

                let out = engine.execute(&Blend).unwrap();
                let bits: Vec<u64> = out.values.iter().map(|v| v.to_bits()).collect();
                assert_eq!(bits, WANT, "{backend:?} at {threads} threads");
            }
        }
    }

    #[test]
    fn parallel_facade_workers_share_pages_through_the_pool() {
        let g = Graph::generate(&GraphSpec::new(2_000, 30_000, 43));
        let mut engine = Engine::new(
            &g,
            EngineConfig {
                backend: Backend::Facade,
                budget_bytes: 16 << 20,
                intervals: 8,
                threads: 4,
                ..EngineConfig::default()
            },
        );
        let out = engine.execute(&PageRank::new(3)).unwrap();
        assert!(
            out.stats.pages_to_pool > 0,
            "workers release pages at interval ends"
        );
        assert!(
            out.stats.pages_from_pool > 0,
            "workers adopt released pages instead of growing"
        );
        assert_eq!(out.stats.gc_count, 0);
    }

    #[test]
    fn single_threaded_facade_accounts_pages_through_the_pool() {
        // Regression: the single-threaded facade run used to bypass the
        // shared pool entirely, reporting `pages_from_pool: 0` and making
        // pool stats incomparable across thread counts.
        let g = Graph::generate(&GraphSpec::new(2_000, 30_000, 43));
        let mut engine = Engine::new(
            &g,
            EngineConfig {
                backend: Backend::Facade,
                budget_bytes: 16 << 20,
                intervals: 8,
                threads: 1,
                ..EngineConfig::default()
            },
        );
        let out = engine.execute(&PageRank::new(3)).unwrap();
        assert!(
            out.stats.pages_to_pool > 0,
            "interval ends release pages to the pool even at one thread"
        );
        assert!(
            out.stats.pages_from_pool > 0,
            "later intervals adopt released pages instead of growing"
        );
        assert!(out.pool.is_some(), "facade runs expose pool counters");
    }

    #[test]
    fn timer_reports_all_phases() {
        let g = Graph::generate(&GraphSpec::new(500, 5_000, 23));
        let out = run(Backend::Heap, &g, &PageRank::new(2));
        assert!(out.timer.phase(phases::LOAD).as_nanos() > 0);
        assert!(out.timer.phase(phases::UPDATE).as_nanos() > 0);
        assert!(out.timer.total() >= out.timer.phase(phases::UPDATE));
    }

    #[test]
    fn facade_records_match_edge_and_vertex_counts() {
        let g = tiny_graph();
        let out = run(Backend::Facade, &g, &PageRank::new(1));
        // Degree records for 5 vertices, then per pass a vertex and its two
        // edge-value arrays for each of them (+ containers).
        assert!(out.stats.records_allocated >= 5 + 3 * 5);
        assert_eq!(out.stats.heap_objects, 0);
    }

    #[test]
    fn records_allocated_is_a_closed_form_of_the_load() {
        let g = Graph::generate(&GraphSpec::new(300, 2_000, 11));
        let config = |backend| EngineConfig {
            backend,
            budget_bytes: 16 << 20,
            intervals: 4,
            // A few dozen edges per subinterval.
            bytes_per_edge: 100 << 10,
            threads: 1,
            ..EngineConfig::default()
        };
        let cfg = config(Backend::Facade);
        let csr = Csr::build(&g);
        let budget = Ladder::edge_budget_at(&cfg, 1, 0);
        let subs: u64 = (csr.intervals(cfg.intervals).iter())
            .map(|&iv| csr.subintervals(iv, budget).len() as u64)
            .sum();
        assert!(subs > 4 * cfg.intervals as u64, "{subs} subintervals");
        let (n, m) = (u64::from(csr.vertices), csr.edges);
        let apps: [Box<dyn VertexProgram>; 2] = [
            Box::new(PageRank::new(3)),
            Box::new(ConnectedComponents::new(30)),
        ];
        for app in &apps {
            for backend in [Backend::Heap, Backend::Facade] {
                let out = Engine::new(&g, config(backend))
                    .execute(app.as_ref())
                    .unwrap();
                // The degree pass: one container and one record per vertex.
                // Each pass: a container per subinterval, and per vertex a
                // `ChiVertex` and its two edge arrays; under `P` also one
                // `ChiPointer` per edge endpoint. Nothing else per edge.
                let per_edge = if backend == Backend::Heap { 2 * m } else { 0 };
                let per_pass = subs + 3 * n + per_edge;
                assert_eq!(
                    out.stats.records_allocated,
                    1 + n + out.passes as u64 * per_pass,
                    "{} on {backend:?} over {} passes",
                    app.name(),
                    out.passes
                );
            }
        }
    }
}

#[cfg(test)]
mod sssp_tests {
    use super::*;
    use crate::apps::{SSSP_INFINITY, ShortestPaths};
    use datagen::GraphSpec;

    /// BFS oracle for unit-weight shortest paths.
    fn bfs_distances(graph: &Graph, source: u32) -> Vec<f64> {
        let n = graph.vertices as usize;
        let mut adj = vec![Vec::new(); n];
        for &(s, d) in &graph.edges {
            adj[s as usize].push(d as usize);
        }
        let mut dist = vec![SSSP_INFINITY; n];
        dist[source as usize] = 0.0;
        let mut queue = std::collections::VecDeque::from([source as usize]);
        while let Some(v) = queue.pop_front() {
            for &w in &adj[v] {
                if dist[w] > dist[v] + 1.0 {
                    dist[w] = dist[v] + 1.0;
                    queue.push_back(w);
                }
            }
        }
        dist
    }

    #[test]
    fn sssp_matches_bfs_on_both_backends() {
        let g = Graph::generate(&GraphSpec::new(400, 2_500, 31));
        let oracle = bfs_distances(&g, 0);
        for backend in [Backend::Heap, Backend::Facade] {
            let mut engine = Engine::new(
                &g,
                EngineConfig {
                    backend,
                    budget_bytes: 16 << 20,
                    intervals: 4,
                    ..EngineConfig::default()
                },
            );
            let out = engine.execute(&ShortestPaths::new(0, 100)).unwrap();
            assert_eq!(out.values, oracle, "{backend:?}");
            assert!(out.passes < 100, "converged early");
        }
    }
}

#[cfg(test)]
mod resilience_tests {
    use super::*;
    use crate::apps::PageRank;
    use datagen::GraphSpec;
    use std::sync::OnceLock;

    /// Wraps an app and panics on the first `update` call — a stand-in for
    /// a transient worker fault (poisoned scratch state, data race).
    struct PanicOnce {
        inner: PageRank,
        fired: OnceLock<()>,
    }

    impl PanicOnce {
        fn new(inner: PageRank) -> Self {
            Self {
                inner,
                fired: OnceLock::new(),
            }
        }
    }

    impl VertexProgram for PanicOnce {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn iterations(&self) -> usize {
            self.inner.iterations()
        }
        fn initial_value(&self, vertex: u32, out_degree: u32) -> f64 {
            self.inner.initial_value(vertex, out_degree)
        }
        fn initial_edge_value(&self, src: u32, src_out_degree: u32) -> f64 {
            self.inner.initial_edge_value(src, src_out_degree)
        }
        fn update(&self, v: &mut crate::apps::VertexView<'_>) -> bool {
            if self.fired.set(()).is_ok() {
                panic!("injected worker panic");
            }
            self.inner.update(v)
        }
    }

    fn config(backend: Backend, threads: usize) -> EngineConfig {
        EngineConfig {
            backend,
            budget_bytes: 16 << 20,
            intervals: 4,
            threads,
            ..EngineConfig::default()
        }
    }

    #[test]
    fn worker_panic_is_retried_and_output_is_bit_identical() {
        let g = Graph::generate(&GraphSpec::new(600, 4_000, 7));
        for backend in [Backend::Heap, Backend::Facade] {
            for threads in [1, 4] {
                let clean = Engine::new(&g, config(backend, threads))
                    .execute(&PageRank::new(3))
                    .unwrap();
                let faulty = Engine::new(&g, config(backend, threads))
                    .execute(&PanicOnce::new(PageRank::new(3)))
                    .unwrap();
                assert_eq!(
                    clean.values, faulty.values,
                    "{backend:?}/{threads}t: retried interval must commit identical values"
                );
                assert_eq!(clean.passes, faulty.passes);
                assert!(
                    faulty.resilience.retries >= 1,
                    "{backend:?}/{threads}t: panic must be recorded as a retry"
                );
                assert!(clean.resilience.is_clean());
            }
        }
    }

    #[test]
    fn ladder_halves_threads_then_shrinks_budget() {
        let config = EngineConfig {
            budget_bytes: 1 << 20,
            threads: 4,
            ..EngineConfig::default()
        };
        let mut ladder = Ladder::new(4);
        let base = ladder.edge_budget(&config);
        let mut resilience = ResilienceReport::default();
        let oom_failure = || FailureCause::OutOfMemory(OutOfMemory::new(2, 1));
        // Deterministic OOMs walk the rungs: 4 -> 2 -> 1 threads, then
        // budget shrinks, and the per-worker budget never grows.
        let mut last = base;
        for expected_threads in [2, 1, 1, 1] {
            ladder
                .respond(&config, oom_failure(), "test", &mut resilience)
                .expect("ladder has rungs left");
            assert_eq!(ladder.threads, expected_threads);
            let now = ladder.edge_budget(&config);
            assert!(now <= last * 2, "per-worker budget must not explode");
            last = now;
        }
        assert!(ladder.shrink >= 1, "past serial, the budget shrinks");
        assert_eq!(resilience.degradations, 4);
        // The floor: once the budget is pinned at the minimum, respond errors.
        let mut exhausted = 0;
        for _ in 0..80 {
            if ladder
                .respond(&config, oom_failure(), "test", &mut resilience)
                .is_err()
            {
                exhausted += 1;
                break;
            }
        }
        assert_eq!(exhausted, 1, "the ladder must eventually give up");
        // A panic that outlives its same-rung retries on the exhausted
        // ladder surfaces as a typed error carrying the message.
        let panicked = || FailureCause::WorkerPanic("injected worker panic".into());
        let err = loop {
            if let Err(e) = ladder.respond(&config, panicked(), "test", &mut resilience) {
                break e;
            }
        };
        match &err {
            FailureCause::WorkerPanic(message) => {
                assert!(message.contains("injected worker panic"), "{message}");
            }
            other => panic!("expected WorkerPanic, got {other}"),
        }
        assert!(err.to_string().contains("panic"));
    }
}
