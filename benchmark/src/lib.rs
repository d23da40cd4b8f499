//! The facade-rs benchmark: four workloads, native-normalised end-to-end
//! metrics, and a per-layer trace. See `README.md` beside this crate for
//! the catalogue, the metric definitions and the measurement protocol.
//!
//! The benchmark measures the program only from outside: it times calls
//! into each crate's public functions and reads the counters those
//! functions return.
#![deny(missing_docs)]

pub mod harness;
pub mod http;
pub mod oracle;
pub mod probes;
pub mod report;
pub mod selfcheck;
pub mod stats;
pub mod trace;
pub mod workloads;

use harness::RunOptions;
use report::RunReport;
use trace::Tracer;

/// Runs the workload called `name`; `None` for an unknown name.
pub fn run_workload(name: &str, opts: &RunOptions) -> Option<(RunReport, Tracer)> {
    use workloads::{compile_run, dataflow_batch, graph_batch, serve_mix};
    Some(match name {
        "graph_batch" => harness::run::<graph_batch::GraphBatch>(opts),
        "dataflow_batch" => harness::run::<dataflow_batch::DataflowBatch>(opts),
        "serve_mix" => harness::run::<serve_mix::ServeMix>(opts),
        "compile_run" => harness::run::<compile_run::CompileRun>(opts),
        _ => return None,
    })
}
