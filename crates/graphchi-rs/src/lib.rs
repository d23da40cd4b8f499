//! A GraphChi-style single-machine graph engine over the facade-rs record
//! stores.
//!
//! GraphChi (OSDI'12) processes graphs larger than memory by splitting the
//! vertex set into *intervals* and loading one subinterval of vertices —
//! with all their in- and out-edges — at a time, sized adaptively by a
//! memory budget (§4.1 of the FACADE paper: "GraphChi determines the amount
//! of data to load and process (i.e., memory budget) in each iteration
//! dynamically based on the maximum heap size").
//!
//! The FACADE paper's profile of GraphChi found exactly three data classes
//! whose instance counts grow with the input: `ChiVertex`, `ChiPointer`,
//! and `VertexDegree`. This engine allocates the same three record classes
//! per loaded subinterval through [`data_store::Store`], so a run under the
//! heap backend reproduces `P`'s allocation/GC regime and a run under the
//! facade backend reproduces `P'`'s (each subinterval is a sub-iteration,
//! bracketed by `iteration_start`/`iteration_end` — the callbacks the paper
//! says GraphChi already exposes).
//!
//! Differences from real GraphChi, and why they are safe: the on-disk
//! parallel-sliding-windows shard format is replaced by in-memory CSR
//! indexes built at preprocessing time (control path — identical for `P`
//! and `P'`), and edge values persist between subintervals in flat arrays
//! standing in for shard files. The *data path* — what gets allocated,
//! touched, and reclaimed per subinterval — matches the original's object
//! behaviour, which is the quantity the FACADE evaluation measures. The
//! shard count only sets the interval granularity, as in the paper (fixed
//! at 20 there, "little impact on performance").
//!
//! # Threading
//!
//! [`EngineConfig::threads`] workers claim subintervals from one cursor
//! (`data_store::recovery::round`, the worker round both engines share),
//! each running them against a private [`data_store::Store`] sized to an
//! equal slice of the budget. The stores come from the run's environment
//! ([`RunEnv::store`] over [`RunEnv::page_pool`]): one page pool per run —
//! the host's if it lent one, else a private one — shared by every facade
//! worker. Workers read a frozen interval-start snapshot and buffer their
//! writes, and the main thread replays the buffers in subinterval order —
//! so the output is bit-identical at every thread count (asserted by the
//! engine test `parallel_runs_are_bit_identical_to_sequential`).
//!
//! # Failure handling
//!
//! Worker failures (out-of-memory, panics) do not kill a run. The failed
//! interval is discarded and retried under the *degradation ladder* both
//! engines share (`data_store::recovery`, always on): transient failures
//! retry at the same configuration, deterministic budget exhaustion steps
//! down a rung — here: halve the worker count to serial, then halve the
//! subinterval budget to its floor. Every retry and rung is recorded in the
//! run's [`metrics::ResilienceReport`], and — while recording is armed —
//! as instant events in the trace timeline (see `docs/OBSERVABILITY.md`).
//! A failure that outlives the last rung ends the run in the one error
//! every engine returns, [`metrics::JobFailure`] (`OME(n)` in Table 3).
//!
//! # Examples
//!
//! ```
//! use datagen::{Graph, GraphSpec};
//! use graphchi_rs::{Backend, Engine, EngineConfig, PageRank};
//!
//! let graph = Graph::generate(&GraphSpec::new(500, 2_000, 1));
//! let config = EngineConfig {
//!     backend: Backend::Facade,
//!     budget_bytes: 8 << 20,
//!     ..EngineConfig::default()
//! };
//! let mut engine = Engine::new(&graph, config);
//! let outcome = engine.execute(&PageRank::new(3))?;
//! assert_eq!(outcome.values.len(), 500);
//! # Ok::<(), metrics::JobFailure>(())
//! ```
//!
//! What a *host* lends the run — a shared page pool and its epoch, a
//! cancellation flag, a checkpoint directory — travels in one field,
//! [`EngineConfig::env`]:
//!
//! ```
//! # use graphchi_rs::{Backend, EngineConfig, RunEnv};
//! # let dir = std::env::temp_dir();
//! let durable = EngineConfig {
//!     backend: Backend::Facade,
//!     budget_bytes: 8 << 20,
//!     env: RunEnv {
//!         checkpoint_dir: Some(dir),
//!         ..RunEnv::default()
//!     },
//!     ..EngineConfig::default()
//! };
//! assert!(!durable.env.canceled());
//! ```

mod apps;
mod engine;
mod preprocess;

pub use apps::{
    ConnectedComponents, PageRank, SSSP_INFINITY, ShortestPaths, VertexProgram, VertexView,
};
pub use data_store::RunEnv;
pub use engine::{Engine, EngineConfig, RunOutcome};
pub use metrics::FailureCause;
pub use metrics::report::Backend;
pub use preprocess::Csr;
