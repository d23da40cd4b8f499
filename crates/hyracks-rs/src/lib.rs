//! A Hyracks-style data-parallel platform simulation.
//!
//! Hyracks (ICDE'11) runs data-intensive jobs on a shared-nothing cluster;
//! its core moves data in byte-buffer *frames*, but "the user functions can
//! still (and most likely will) use object-based data structures for data
//! manipulation" (§4.2 of the FACADE paper) — and those user functions are
//! what FACADE transforms.
//!
//! This crate reproduces that setting at laptop scale:
//!
//! - [`cluster`] — a simulated shared-nothing cluster: the input is
//!   partitioned across `workers` (fixing the output bit-for-bit), and a
//!   pool of `threads` OS threads executes those partitions, each thread
//!   with its *own* record store and per-node memory budget (real Hyracks
//!   nodes are separate JVMs, so per-worker stores are the faithful
//!   decomposition); the stores come from the job's environment
//!   ([`ClusterConfig::env`]: [`RunEnv::store`]), and facade stores draw
//!   pages from its one pool — the host's, else a private one. A
//!   worker exceeding its budget fails the job with the out-of-memory
//!   outcome Table 3 reports as `OME(n)`.
//! - [`wordcount`] — the WC job: tokenization and per-word aggregation
//!   through a store-backed hash table. Under the heap backend the table
//!   uses the Java idiom the paper's baseline pays for (`HashMap.Entry` →
//!   `String` → `byte[]` → boxed counter: four objects per distinct word);
//!   under the facade backend it uses the records the FACADE compiler's
//!   inlining optimization produces (§3.6: primitive wrappers and immutable
//!   objects are inlined), one record plus one byte array per word.
//! - [`extsort`] — the ES job: run generation over store records with
//!   budget-bounded run sizes, spilling sorted runs and k-way merging.
//!
//! Frame processing brackets each batch in a nested sub-iteration and the
//! whole operator in an outer iteration, matching where the paper says the
//! iteration calls go ("placed at the beginning and the end of each Hyracks
//! operator").
//!
//! # Examples
//!
//! Sizing fields on the config; what a host lends the job (a shared pool
//! and its epoch, a cancellation flag, a checkpoint directory) in `env`:
//!
//! ```
//! use hyracks_rs::{Backend, Cluster, ClusterConfig, RunEnv};
//!
//! # let dir = std::env::temp_dir();
//! let config = ClusterConfig {
//!     workers: 2,
//!     backend: Backend::Facade,
//!     env: RunEnv {
//!         checkpoint_dir: Some(dir),
//!         ..RunEnv::default()
//!     },
//!     ..ClusterConfig::default()
//! };
//! assert!(Cluster::new(&config).config().checkpoint_path("wc").is_some());
//! ```

mod checkpoint;
pub mod cluster;
pub mod extsort;
pub mod hashtable;
pub mod wordcount;

pub use cluster::{Cluster, ClusterConfig, FailureCause, JobStats, WorkerReport};
pub use data_store::RunEnv;
pub use extsort::EsOutput;
pub use metrics::report::Backend;
pub use wordcount::WcOutput;
