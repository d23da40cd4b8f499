//! The FACADE runtime: paged native storage for data records, iteration-based
//! memory management, facade pools, and the shared page pool.
//!
//! This crate implements §2.1, §2.3, §3.3, §3.4 and §3.6 of the paper. Data
//! records live in fixed-size (32 KiB) *pages* of "native" memory — memory
//! that the managed heap's collector never scans. Each record starts with a
//! 2-byte type ID and a 2-byte lock ID (arrays add a 4-byte length), so a
//! plain record pays a 4-byte header where a heap object pays 12 bytes.
//!
//! Reclamation is *iteration-based*: [`PagedHeap::iteration_start`] /
//! [`PagedHeap::iteration_end`] bracket a repeatedly executed block whose
//! allocations have disjoint lifetimes; ending an iteration recycles every
//! page of its page-manager subtree at once. There is no per-record free and
//! no tracing.
//!
//! The *facade pools* ([`FacadePools`]) hold the statically bounded set of
//! heap objects the transformed program uses to carry page references
//! through control code (§2.3). A `synchronized` block on a data record
//! installs a lock ID in the record header (§3.4):
//! [`PagedHeap::monitor_enter`] / [`PagedHeap::monitor_exit`] run that
//! protocol. `P'` runs single-threaded in the VM, so a monitor never blocks
//! and §3.4's cross-thread lock pool is not reproduced. Threads share only
//! the [`PagePool`], one mutex around a free list of pages (§3.6).
//!
//! # Examples
//!
//! ```
//! use facade_runtime::{FieldKind, PagedHeap};
//!
//! let mut heap = PagedHeap::new();
//! let student = heap.register_type("Student", &[FieldKind::I32, FieldKind::Ref]);
//! // A body offset, resolved once: the same number in a heap object.
//! let id = heap.layout(student).offset(0);
//!
//! let iter = heap.iteration_start();
//! let s = heap.alloc(student)?;
//! heap.write_body(s, id, 42i32.to_le_bytes());
//! assert_eq!(i32::from_le_bytes(heap.read_body(s, id)), 42);
//! heap.iteration_end(iter);          // bulk-reclaims every record of the iteration
//! # Ok::<(), metrics::OutOfMemory>(())
//! ```

#![forbid(unsafe_code)]

pub mod checkpoint;
mod error;
mod fault;
mod heap;
mod layout;
mod page;
mod pool;
mod pools;
pub mod recovery;
mod stats;
#[doc(hidden)]
pub mod test_support;

pub use checkpoint::{Checkpointer, Manifest, RecoveryError};
pub use error::HeapError;
pub use fault::{FaultPlan, FaultPlanBuilder};
pub use heap::{FIRST_USER_TYPE, IterationId, MAX_LOCK_IDS, ManagerId, PagedHeap, PagedHeapConfig};
pub use layout::{ElemKind, FieldKind, RecordLayout, TypeId};
pub use metrics::OutOfMemory;
pub use page::{PAGE_BYTES, PAGE_CAPACITY, PAGE_RESERVED, PageRef};
pub use pool::{EpochLedger, NO_EPOCH, PagePool, PoolCounters, PooledPage};
pub use pools::{Facade, FacadePools, PoolBounds};
pub use stats::NativeStats;
