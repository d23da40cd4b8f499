//! # facade-rs
//!
//! A Rust reproduction of **FACADE: A Compiler and Runtime for (Almost)
//! Object-Bounded Big Data Applications** (ASPLOS 2015).
//!
//! This umbrella crate re-exports the whole workspace so examples and
//! downstream users have a single dependency. See `DESIGN.md` for the system
//! inventory and `EXPERIMENTS.md` for the reproduction results.
//!
//! The main entry points:
//!
//! - [`ir`] — the object-oriented intermediate representation programs are
//!   written in (the stand-in for Java bytecode / Soot's Jimple).
//! - [`compiler`] — the FACADE transformation: turns a program `P` whose data
//!   path allocates heap objects into a program `P'` whose data lives in
//!   native pages, with a statically bounded number of facade objects.
//! - [`runtime`] — the FACADE runtime: pages, page managers, iteration-based
//!   reclamation, facade pools, record lock IDs, and the shared page pool.
//! - [`heap`] — the simulated managed heap with a generational collector
//!   (the baseline the paper measures against).
//! - [`vm`] — an interpreter that executes IR programs on either backend.
//! - [`store`] — the `Store` type the Big Data frameworks use to run their
//!   data paths on either backend.
//! - [`graphchi`], [`hyracks`], [`gps`] — the three evaluated frameworks.
//! - [`datagen`] — synthetic workload generators.
//! - [`metrics`] — timers, memory accounting, and report tables.
//! - [`prof`] — critical-path and scaling-bottleneck analysis over
//!   facade-trace timelines.
//! - [`job`] — the unified `JobSpec`/`JobHandle` submission API spanning
//!   both engines, with per-job pool epochs.
//! - [`server`] — the resident multi-job daemon serving queries and job
//!   submissions over HTTP (see `docs/SERVER.md`).

pub use datagen;
pub use facade_compiler as compiler;
pub use facade_ir as ir;
pub use facade_job as job;
pub use facade_prof as prof;
pub use facade_runtime as runtime;
pub use facade_server as server;
pub use facade_vm as vm;
pub use gps_rs as gps;
pub use graphchi_rs as graphchi;
pub use hyracks_rs as hyracks;
pub use managed_heap as heap;
pub use metrics;

/// `Store`: one record store over the two storage backends.
pub use data_store as store;
