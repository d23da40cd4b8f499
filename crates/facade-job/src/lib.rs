//! # facade-job: the unified job submission API
//!
//! One vocabulary for running any workload on either engine, from any
//! host. A [`JobSpec`] names the workload (WC/ES on the Hyracks-style
//! cluster, PR/CC on the GraphChi-style engine), the backend (`P` heap or
//! `P'` facade), and the sizing/budget/checkpoint knobs; a [`JobRunner`]
//! executes it; the [`Dispatcher`] multiplexes many submissions over a
//! shared [`PagePool`](data_store::PagePool) with one pool *epoch* per job
//! so retirement can prove — per job — that every page came back.
//!
//! The [`JobHandle`] a submission returns supports polling
//! ([`status`](JobHandle::status)), blocking ([`wait`](JobHandle::wait)),
//! [`cancel`](JobHandle::cancel), and report retrieval; the
//! [`JobReport`] carries the semantically visible [`JobOutput`] (with the
//! [`fingerprint`](JobOutput::fingerprint) equivalence checks compare),
//! the engine's `ResilienceReport`, pool counters, and the job's
//! [`EpochSummary`].
//!
//! This crate is the engine room of the `facade-server` daemon; it is
//! equally usable directly from Rust:
//!
//! ```
//! use facade_job::{Dataset, Dispatcher, DispatcherConfig, JobSpec, Workload};
//!
//! let dispatcher = Dispatcher::new(DispatcherConfig::new(
//!     2,
//!     Dataset::synthetic(100, 400, 8_000, 42),
//! ));
//! let handle = dispatcher.submit(JobSpec {
//!     workload: Workload::PageRank { iterations: 2 },
//!     budget_bytes: 4 << 20,
//!     ..JobSpec::default()
//! })?;
//! let report = handle.wait()?;
//! println!("ranks fingerprint {:016x}", report.output.fingerprint());
//! dispatcher.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod dataset;
mod dispatch;
mod output;
mod runner;
mod spec;

pub use dataset::Dataset;
pub use dispatch::{Dispatcher, DispatcherConfig, JobHandle, JobStatus};
pub use output::{JobError, JobOutput};
pub use runner::{
    EpochSummary, ExecContext, GraphChiRunner, HyracksRunner, JobReport, JobRunner, default_runners,
};
pub use spec::{
    JobSpec, MAX_INTERVALS, MAX_ITERATIONS, MAX_THREADS, MAX_WORKERS, SpecError, Workload,
};
