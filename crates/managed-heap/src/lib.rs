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
//! - Bytes are addressed by their offset in an object's *body*, the bytes
//!   after its header: a field at its [`RecordLayout::offset`] through
//!   [`Heap::read_body`] / [`Heap::write_body`], an element through
//!   [`elem`] / [`set_elem`] over [`Heap::body`] / [`Heap::body_mut`]. The
//!   header is the heap's own; only a reference store has its own call
//!   ([`Heap::write_ref`], [`Heap::array_set_ref`]), for the write barrier.
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
//! // Body offsets, resolved once: the same numbers in a page record.
//! let (x, y) = (heap.layout(point).offset(0), heap.layout(point).offset(1));
//! let p = heap.alloc(point)?;
//! heap.write_body(p, x, 3i32.to_le_bytes());
//! heap.write_body(p, y, 4i32.to_le_bytes());
//! let get = |at| i32::from_le_bytes(heap.read_body(p, at));
//! assert_eq!(get(x) + get(y), 7);
//! # Ok::<(), metrics::OutOfMemory>(())
//! ```

#![forbid(unsafe_code)]

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
    ARRAY_LEN_BYTES, ClassId, ElemKind, FieldKind, RecordLayout, elem, elem_count, elem_range,
    set_elem,
};
pub use metrics::OutOfMemory;
pub use stats::{GcStats, PauseKind, PauseRecord};
