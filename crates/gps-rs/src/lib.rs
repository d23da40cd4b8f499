//! A GPS-style vertex-centric (Pregel/BSP) graph engine.
//!
//! GPS (SSDBM'13) executes graph algorithms as a sequence of *supersteps*:
//! in each superstep every vertex consumes the messages sent to it in the
//! previous superstep, updates its value, and sends messages along its
//! out-edges; workers exchange messages at the barrier.
//!
//! The FACADE paper evaluates GPS in §4.3 and notes that it is "overall
//! less scalable than GraphChi and Hyracks due to its object array-based
//! representation of an input graph", but that "its extensive use of
//! primitive arrays ... leads to relatively small GC effort" (1–17% of run
//! time) — so FACADE's wins there are modest: 3–15.4% run time, 10–39.8%
//! GC time, up to 14.4% space. This engine mirrors those bones:
//!
//! - per-worker vertex state lives in large primitive arrays allocated from
//!   the record store (GPS's `double[]`-style state, few objects);
//! - per-superstep message delivery materializes bounded-size message
//!   batch records plus envelope records — the modest churn that remains;
//! - each superstep is one iteration (§3.6), so the facade backend
//!   bulk-frees the batches at the barrier.
//!
//! Three applications match §4.3's evaluation set: [`PageRank`],
//! [`KMeans`], and [`RandomWalk`].
//!
//! # Scope: paper reproduction only
//!
//! This crate exists to reproduce §4.3 and is driven by exactly two
//! callers: the `gps_eval` binary of `facade-bench` and
//! `examples/gps_kmeans.rs`. It is deliberately *not* a
//! `facade_job::JobRunner` and is not in the serving graph — `JobSpec`
//! has no GPS workload, `facade-server` never loads it, and `benchmark/`
//! does not measure it. That is a decision, not a to-do: a third runner
//! would add a workload to serve, not evidence for the paper's claim.
//!
//! # Examples
//!
//! ```
//! use datagen::{Graph, GraphSpec};
//! use gps_rs::{Backend, GpsConfig, PageRank, run};
//!
//! let graph = Graph::generate(&GraphSpec::new(400, 1_500, 3));
//! let config = GpsConfig {
//!     backend: Backend::Facade,
//!     workers: 2,
//!     ..GpsConfig::default()
//! };
//! let outcome = run(&graph, &mut PageRank::new(3), &config)?;
//! assert_eq!(outcome.values.len(), 400);
//! # Ok::<(), metrics::JobFailure>(())
//! ```

#![forbid(unsafe_code)]

mod engine;
mod kernels;

pub use engine::{GpsConfig, GpsOutcome, run};
pub use kernels::{KMeans, Outgoing, PageRank, RandomWalk, VertexKernel};
pub use metrics::report::Backend;
