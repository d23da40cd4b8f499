//! The engine: interval scheduling, subinterval loading, vertex updates,
//! and writeback.

use crate::apps::{ChiFields, VertexProgram, VertexView};
use crate::preprocess::Csr;
use data_store::checkpoint::{self as ckpt, Checkpointer, Manifest};
use data_store::recovery::{self, guarded};
use data_store::{
    ClassTag, ElemTy, FaultPlan, Field, FieldTy, PauseRecord, PoolCounters, Rec, RecoveryError,
    RunEnv, Store, StoreStats,
};
use datagen::Graph;
use metrics::report::Backend;
use metrics::{
    DegradationAction, FailureCause, JobFailure, OutOfMemory, PhaseTimer, ResilienceReport, phases,
};
use std::path::{Path, PathBuf};
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

// The three data classes the paper's profiling found (§4.1). The two
// value-array fields are only used by the facade backend's inlined
// layout (see `apps::ChiFields`). Each field is resolved here, once per
// store; the stores of a run register the same classes in the same order,
// so the resolved fields of one are the fields of all.
fn register_schema(store: &mut Store) -> Schema {
    let vertex = store.register_class(
        "ChiVertex",
        &[
            FieldTy::I32, // id
            FieldTy::F64, // value
            FieldTy::I32, // num in
            FieldTy::I32, // num out
            FieldTy::Ref, // in-edge array (P: ChiPointer refs; P': i32 meta)
            FieldTy::Ref, // out-edge array
            FieldTy::Ref, // in-edge values (P' only)
            FieldTy::Ref, // out-edge values (P' only)
        ],
    );
    let pointer = store.register_class(
        "ChiPointer",
        &[
            FieldTy::I32, // neighbor
            FieldTy::I32, // edge id
            FieldTy::F64, // edge value
        ],
    );
    let degree = store.register_class("VertexDegree", &[FieldTy::I32, FieldTy::I32]);
    let v = |i| store.field(vertex, i);
    let p = |i| store.field(pointer, i);
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
            in_values: v(6),
            out_values: v(7),
            pointer_neighbor: p(0),
            pointer_edge_id: p(1),
            pointer_value: p(2),
        },
        in_degree: store.field(degree, 0),
        out_degree: store.field(degree, 1),
    }
}

/// The `[neighbor, edge id]*` metadata of a run of CSR adjacency slots, in
/// the layout the inlined `P'` edge arrays and a [`Window`] share.
fn gather_meta(nbr: &[u32], eid: impl Iterator<Item = u32>) -> Vec<i32> {
    let mut meta = Vec::with_capacity(2 * nbr.len());
    meta.extend(nbr.iter().zip(eid).flat_map(|(&n, e)| [n as i32, e as i32]));
    meta
}

/// Copies one side of a loaded vertex's edge values into `run`, in edge
/// order: under `P'` from the side's inlined value array, under `P` from
/// each `ChiPointer`'s `value` field. The side is named by its two
/// `ChiVertex` fields: the edge array and the inlined value array.
fn read_back(
    store: &Store,
    vertex: Rec,
    inlined: bool,
    (edges, values): (Field, Field),
    value: Field,
    run: &mut [f64],
) {
    if inlined {
        let vals = store.get_rec(vertex, values);
        for (slot, v) in run.iter_mut().zip(store.array_f64s(vals)) {
            *slot = v;
        }
        return;
    }
    let arr = store.get_rec(vertex, edges);
    for (i, slot) in run.iter_mut().enumerate() {
        let e = store.array_get_rec(arr, i);
        *slot = store.get_f64(e, value);
    }
}

/// The buffered effects of one subinterval, produced against a frozen
/// interval-start snapshot and replayed by the main thread in subinterval
/// order — the mechanism that makes parallel runs bit-identical to
/// sequential ones. The edge runs are the subinterval's gathered window,
/// overwritten in place by the writeback; position addresses every value.
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

/// One subinterval's shard window: the CSR-order `(neighbor, edge id)`
/// metadata and the frozen edge-value snapshot for every in- and out-edge
/// of the vertex range. The load streams these flat arrays into the store
/// instead of chasing CSR indices between store calls. The content is a
/// pure function of the CSR and the interval-start snapshot. The value runs
/// outlive the load: the writeback overwrites them and they become the
/// subinterval's [`CommitBuf`].
#[derive(Debug)]
struct Window {
    /// `(neighbor, edge id)` pairs for every in-edge, in vertex order.
    in_meta: Vec<i32>,
    /// Frozen edge values for every in-edge, in vertex order.
    in_vals: Vec<f64>,
    /// `(neighbor, edge id)` pairs for every out-edge, in vertex order.
    out_meta: Vec<i32>,
    /// Frozen edge values for every out-edge, in vertex order.
    out_vals: Vec<f64>,
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
    csr: Csr,
    config: EngineConfig,
}

impl Engine {
    /// Builds the engine, running preprocessing (CSR construction — the
    /// stand-in for shard creation; excluded from reported times, as the
    /// paper excludes preprocessing).
    pub fn new(graph: &Graph, config: EngineConfig) -> Self {
        Self {
            csr: Csr::build(graph),
            config,
        }
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
    /// that does not fit this graph.
    fn decode_resume(&self, manifest: &Manifest) -> Result<ResumeState, RecoveryError> {
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
            pass: manifest.cursor[0] as usize,
            interval: manifest.cursor[1] as usize,
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
        let resumed = checkpointer
            .as_ref()
            .and_then(|c| c.restore(&mut resilience, |m| self.decode_resume(m)));
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
    /// the subinterval's out runs are adjacent, and fold as one run.
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
            for i in csr.in_slots(v, v + 1) {
                let eid = csr.in_eid[i] as usize;
                edge_values[eid] = app.fold_edge_value(edge_values[eid], buf.in_vals[i - in_base]);
            }
        }
    }

    /// Gathers one subinterval's shard window from the frozen snapshot —
    /// the CSR-chasing, cache-missing half of `sub_load` — without touching
    /// any store: one tight pass per side, so the misses overlap instead
    /// of each one stalling the store calls behind it.
    fn gather_sub(&self, (start, end): (u32, u32), edge_values: &[f64]) -> Window {
        let csr = &self.csr;
        // A vertex range's adjacency slots are contiguous in the CSR, so
        // each side of the window is one run; the out side's edge values
        // are one run of the snapshot too, because an edge id is its out
        // slot.
        let ins = csr.in_slots(start, end);
        let outs = csr.out_slots(start, end);
        let in_eid = &csr.in_eid[ins.clone()];
        let in_meta = gather_meta(&csr.in_src[ins], in_eid.iter().copied());
        let in_vals = in_eid.iter().map(|&e| edge_values[e as usize]).collect();
        let out_meta = gather_meta(&csr.out_dst[outs.clone()], outs.clone().map(|e| e as u32));
        let out_vals = edge_values[outs].to_vec();
        Window {
            in_meta,
            in_vals,
            out_meta,
            out_vals,
        }
    }

    /// Loads, updates, and buffers the writeback of one subinterval. This
    /// is one sub-iteration in the FACADE sense: everything allocated here
    /// dies here. Reads come from the frozen interval-start snapshot;
    /// writes go into the returned [`CommitBuf`] for the main thread to
    /// replay in order. The load phase first gathers the subinterval's
    /// [`Window`], then streams it into the store.
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
            // Edges consumed so far from the window; its flat arrays are in
            // vertex order.
            let (mut in_seen, mut out_seen) = (0usize, 0usize);
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
                let sides = [
                    (
                        (fields.in_edges, fields.in_values),
                        &window.in_meta[2 * in_seen..2 * (in_seen + n_in)],
                        &window.in_vals[in_seen..in_seen + n_in],
                    ),
                    (
                        (fields.out_edges, fields.out_values),
                        &window.out_meta[2 * out_seen..2 * (out_seen + n_out)],
                        &window.out_vals[out_seen..out_seen + n_out],
                    ),
                ];
                for ((edges_field, values_field), meta, vals) in sides {
                    if inlined {
                        // P': the compiler's inlining optimization flattens
                        // the ChiPointer records into parallel primitive
                        // arrays, each born holding its contents.
                        let meta_arr = store.alloc_i32s(meta)?;
                        store.set_rec(vr, edges_field, meta_arr);
                        let vals_arr = store.alloc_f64s(vals)?;
                        store.set_rec(vr, values_field, vals_arr);
                        continue;
                    }
                    let arr = store.alloc_array(ElemTy::Ref, vals.len())?;
                    store.set_rec(vr, edges_field, arr);
                    for (i, (pair, &val)) in meta.chunks_exact(2).zip(vals).enumerate() {
                        let e = store.alloc(schema.pointer)?;
                        store.set_i32(e, fields.pointer_neighbor, pair[0]);
                        store.set_i32(e, fields.pointer_edge_id, pair[1]);
                        store.set_f64(e, fields.pointer_value, val);
                        store.array_set_rec(arr, i, e);
                    }
                }
                in_seen += n_in;
                out_seen += n_out;
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
        // Buffered rather than applied, into the window the load streamed
        // from: each vertex's runs are overwritten in place, so a value's
        // position names its edge and the main thread's replay folds the
        // runs in the order the sequential engine would.
        let wb_start = std::time::Instant::now();
        let writes_in = app.writes_in_edges();
        let mut new_values = Vec::with_capacity(count);
        let mut out_vals = window.out_vals;
        let mut in_vals = if writes_in {
            window.in_vals
        } else {
            Vec::new()
        };
        let (mut in_seen, mut out_seen) = (0usize, 0usize);
        for (vi, v) in (start..end).enumerate() {
            let vr = store.array_get_rec(vertex_arr, vi);
            new_values.push(store.get_f64(vr, fields.value));
            let n_out = csr.out_degree(v) as usize;
            let outs = &mut out_vals[out_seen..out_seen + n_out];
            let side = (fields.out_edges, fields.out_values);
            read_back(store, vr, inlined, side, fields.pointer_value, outs);
            out_seen += n_out;
            if writes_in {
                let n_in = csr.in_degree(v) as usize;
                let ins = &mut in_vals[in_seen..in_seen + n_in];
                let side = (fields.in_edges, fields.in_values);
                read_back(store, vr, inlined, side, fields.pointer_value, ins);
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
                for threads in [2, 4] {
                    let par = run_with(threads);
                    assert_eq!(
                        seq.values,
                        par.values,
                        "{} on {backend:?} must be bit-identical at {threads} threads",
                        app.name()
                    );
                    assert_eq!(seq.passes, par.passes, "{}", app.name());
                    assert_eq!(seq.edges_processed, par.edges_processed, "{}", app.name());
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
        // Facade `pages_created` of either program at one thread, recorded
        // with the per-element load this engine replaced: the bulk load
        // allocates the same records in the same order.
        const PAGES_BEFORE: u64 = 7;
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
        // Per pass: 5 vertices + 2×6 edge pointers (+ degree records).
        // ChiPointer count = 12 per pass.
        assert!(out.stats.records_allocated >= 5 + 12);
        assert_eq!(out.stats.heap_objects, 0);
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
