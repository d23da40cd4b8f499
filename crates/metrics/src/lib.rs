//! Measurement utilities shared by the facade-rs benchmark harness.
//!
//! The paper's evaluation reports, for every run, a small set of phase
//! timings (total execution time, engine update time, data load time, GC
//! time), a peak memory figure sampled over the run, and per-experiment
//! tables. This crate provides exactly those building blocks:
//!
//! - [`PhaseTimer`] — named, nestable phase accumulation (`ET`/`UT`/`LT`/`GT`).
//! - [`OutOfMemory`] — the error a run over its budget ends in, mimicking
//!   the JVM's `OutOfMemoryError` behaviour described in §4.2 (the heaps do
//!   their own byte accounting and raise it).
//! - [`TextTable`] — fixed-width text tables for printing paper-style rows.
//! - [`Registry`] — a live-metrics registry owned by whoever serves it
//!   (named counters, gauges, histograms; lock-free hot path; Prometheus
//!   and JSON exposition).
//! - [`HttpServer`] — a hand-rolled HTTP/1.1 server (bounded acceptor
//!   pool, one deadline per request, graceful shutdown, no dependencies);
//!   a Prometheus endpoint is one [`Handler`] closure over a [`Registry`].
//! - [`json`] — the matching hand-rolled JSON reader for everything the
//!   workspace writes by hand (experiment reports, job submissions).
//! - [`FailureCause`] — the worker-failure vocabulary shared by the
//!   engines' degradation ladders (OOM vs. panic, transient vs. not), and
//!   [`JobFailure`], the one error every engine's run ends in (`OME(n)`).
//! - [`report`] — the [`report::Backend`] (`P` / `P'`) vocabulary.
//!
//! # Examples
//!
//! ```
//! use metrics::{PhaseTimer, phases};
//!
//! let mut timer = PhaseTimer::new();
//! timer.time(phases::LOAD, || { /* load a partition */ });
//! timer.time(phases::UPDATE, || { /* run the update kernel */ });
//! assert!(timer.total().as_nanos() > 0);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod failure;
mod http;
mod memory;
mod registry;
mod resilience;
mod stopwatch;
mod table;

pub mod json;
pub mod report;

pub use failure::{FailureCause, JobFailure, panic_message};
pub use http::{Handler, HttpServer, HttpServerHandle, Request, Response};
pub use memory::{OutOfMemory, format_bytes};
pub use registry::{Counter, Gauge, Histogram, Registry};
pub use resilience::{DegradationAction, DegradationEvent, ResilienceReport};
pub use stopwatch::{PhaseTimer, phases};
pub use table::TextTable;
