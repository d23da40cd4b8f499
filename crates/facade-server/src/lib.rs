//! # facade-server: the resident multi-job daemon
//!
//! A long-lived process that loads a dataset once, keeps it resident, and
//! multiplexes many small jobs over one shared page pool — the serving
//! shape the FACADE design points at: the win of bounding objects is
//! largest when the process lives long enough to amortize it.
//!
//! Three layers, each reusable on its own:
//!
//! - the [`facade_job`] dispatcher executes submissions with one pool
//!   *epoch* per job, so retirement proves every page came back;
//! - [`AdmissionController`] multiplexes a fixed memory budget across
//!   in-flight jobs, shedding load down the engines' own degradation
//!   ladder (halve-the-budget rungs) instead of panicking — a job that
//!   cannot fit even at the floor gets a `429`, never an abort;
//! - the HTTP front end (on [`metrics::HttpServer`], hand-rolled over
//!   `std::net`, zero dependencies) serves job submission, status, result
//!   queries, Prometheus metrics, and lifecycle.
//!
//! See `docs/SERVER.md` for the endpoint reference and a curl quickstart:
//! `POST /jobs`, `GET /jobs/<id>`, `GET /query/{pagerank,cc,wc}`,
//! `GET /metrics`, `GET /stats`, `GET /healthz`, `POST /shutdown`.
//!
//! At shutdown the daemon drains, retires every job epoch, and returns a
//! [`ShutdownReport`]; [`ShutdownReport::clean`] is false if any page or
//! admission commitment leaked (the binary exits nonzero).
#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod admission;
mod router;
mod server;

pub use admission::{Admission, AdmissionController, BUDGET_FLOOR_BYTES, effective_bytes};
pub use server::{DatasetConfig, FacadeServer, ServerConfig, ShutdownReport};
