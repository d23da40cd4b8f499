//! A simulated managed heap with a generational, stop-the-world garbage
//! collector.
//!
//! The FACADE paper measures its gains against a JVM running the parallel
//! generational collector (copying "Scavenge" for the young generation and
//! Mark-Sweep-Compact for the old generation). Rust has no garbage collector,
//! so this crate rebuilds that substrate: a heap in which every data record
//! is an *object* with a 12-byte header (16 bytes for arrays), reference
//! fields are traced, and reclamation happens by tracing the live object
//! graph from a root set.
//!
//! The collector does real work — tracing, copying, and compacting actual
//! bytes — so the GC times reported by the benchmark harness scale with live
//! data exactly as the paper's baseline does.
//!
//! # Object model
//!
//! - Classes are registered up front with [`Heap::register_class`]; a class
//!   is a list of [`FieldKind`]s. Arrays are allocated per element kind.
//! - Objects are addressed by stable [`ObjRef`] handles (an object-table
//!   indirection), so user code may hold references across collections.
//! - The root set is explicit: [`Heap::add_root`] / [`Heap::remove_root`].
//!   Anything unreachable from the roots is reclaimed by the next collection.
//!
//! # Generational collection
//!
//! Allocation is bump-pointer in a young semispace. When it fills, a minor
//! collection copies survivors to the other semispace, promoting objects
//! that have survived [`HeapConfig::tenure_age`] collections into the old
//! space. A write barrier maintains a remembered set of old objects holding
//! young references. When the old space passes a fill threshold, a full
//! mark-compact collection runs. Exhaustion after a full collection is an
//! out-of-memory error, mirroring the JVM behaviour the paper's Table 3
//! reports as `OME(n)`.
//!
//! # Examples
//!
//! ```
//! use managed_heap::{FieldKind, Heap, HeapConfig};
//!
//! let mut heap = Heap::new(HeapConfig::with_capacity(1 << 20));
//! let point = heap.register_class("Point", &[FieldKind::I32, FieldKind::I32]);
//! let (x, y) = (heap.field_offset(point, 0), heap.field_offset(point, 1));
//! let p = heap.alloc(point)?;
//! heap.set_i32_at(p, x, 3);
//! heap.set_i32_at(p, y, 4);
//! assert_eq!(heap.get_i32_at(p, x) + heap.get_i32_at(p, y), 7);
//! # Ok::<(), metrics::OutOfMemory>(())
//! ```

mod census;
mod gc;
mod gclog;
mod heap;
mod layout;
mod stats;

pub use census::{CensusRow, HeapCensus, array_class_name};
pub use gclog::format_gc_log_line;
pub use heap::{Heap, HeapConfig, ObjRef, RootId};
pub use layout::{
    ARRAY_LEN_BYTES, ClassId, ElemKind, FieldKind, OBJECT_HEADER_BYTES, RecordLayout, elem,
    elem_count, set_elem,
};
pub use metrics::OutOfMemory;
pub use stats::{GcStats, PauseKind, PauseRecord};
