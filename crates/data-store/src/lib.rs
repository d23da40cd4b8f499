//! One record-storage interface over the reproduction's two backends.
//!
//! The three Big Data frameworks (`graphchi-rs`, `hyracks-rs`, `gps-rs`)
//! write their *data paths* against [`Store`]. A run constructs, via
//! [`Store::builder`], either
//!
//! - [`Backend::Heap`] — every record is a managed-heap object with a
//!   12-byte header, traced and reclaimed by the generational collector:
//!   the original program `P`; or
//! - [`Backend::Facade`] — every record is a paged native record with a
//!   4-byte header, reclaimed in bulk at iteration ends: the transformed
//!   program `P'`.
//!
//! This is the hand-written equivalent of the code the FACADE compiler
//! generates (the compiler itself is validated separately on complete IR
//! programs by `facade-vm`'s equivalence suite); it lets the frameworks run
//! at data scale with native performance while keeping the two allocation
//! regimes byte-comparable.
//!
//! # Examples
//!
//! ```
//! use data_store::{Backend, FieldTy, Store};
//!
//! let heap = Store::builder().backend(Backend::Heap).budget(16 << 20).build();
//! let facade = Store::builder().budget(16 << 20).build();
//! for mut store in [heap, facade] {
//!     let vertex = store.register_class("Vertex", &[FieldTy::F64, FieldTy::Ref]);
//!     // Resolve a field once; every access through it is offset arithmetic.
//!     let rank = store.field(vertex, 0);
//!     let it = store.iteration_start();
//!     let v = store.alloc(vertex)?;
//!     store.set_f64(v, rank, 0.85);
//!     assert_eq!(store.get_f64(v, rank), 0.85);
//!     store.iteration_end(it);
//! }
//! # Ok::<(), metrics::OutOfMemory>(())
//! ```
//!
//! # The run environment
//!
//! An engine run is sized by its engine's config and *hosted* by a
//! [`RunEnv`]: the page pool and epoch, the cancellation flag, the
//! checkpoint directory and the fault plan a host
//! lends it. Every engine config carries one as `env`, and the engines
//! build their worker stores through it rather than through the builder:
//!
//! ```
//! use data_store::{Backend, RunEnv};
//!
//! # let dir = std::env::temp_dir();
//! let env = RunEnv {
//!     checkpoint_dir: Some(dir),
//!     ..RunEnv::default()
//! };
//! // In an engine: EngineConfig { backend, budget_bytes, env, ..EngineConfig::default() }
//! let pool = env.page_pool(Backend::Facade); // the host's pool, else a private one
//! let worker = env.store(Backend::Facade, 4 << 20, pool.as_ref());
//! assert!(worker.is_facade() && !env.canceled());
//! ```

mod run_env;

pub use facade_runtime::FaultPlan;
pub use facade_runtime::checkpoint;
pub use facade_runtime::recovery;
#[doc(hidden)]
pub use facade_runtime::test_support;
pub use facade_runtime::{EpochLedger, NO_EPOCH, PagePool, PoolCounters, RecoveryError};
use facade_runtime::{PageRef, PagedHeap, PagedHeapConfig, RECORD_HEADER_BYTES, TypeId};
pub use managed_heap::{CensusRow, PauseRecord};
use managed_heap::{
    ClassId as HClassId, ElemKind, FieldKind, Heap, HeapConfig, OBJECT_HEADER_BYTES, ObjRef,
    RecordLayout, RootId, elem, elem_count, set_elem,
};
use metrics::OutOfMemory;
pub use metrics::report::Backend;
pub use run_env::RunEnv;
use std::sync::Arc;
use std::time::Duration;

/// A field type in a record schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldTy {
    /// 32-bit integer.
    I32,
    /// 64-bit integer.
    I64,
    /// 64-bit float.
    F64,
    /// Reference to another record.
    Ref,
}

/// An array element type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElemTy {
    /// Bytes.
    U8,
    /// 32-bit integers.
    I32,
    /// 64-bit integers (also doubles, by bit pattern).
    I64,
    /// References.
    Ref,
}

/// A registered record class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClassTag(pub u16);

/// A record field resolved once by [`Store::field`]: its byte offset in
/// the record's body, and the class it belongs to. An accessor given a
/// `Field` uses the offset as is; one given a bare field index looks the
/// offset up in the record's class on every access.
///
/// A `Field` is valid on every store of the same backend that registered
/// the same classes in the same order, as a run's per-worker stores do.
/// Used on a record of another class it panics in debug builds; in release
/// builds it reads or writes the wrong bytes of the record's page (facade)
/// or space (heap), never memory outside them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Field {
    offset: u32,
    class: ClassTag,
}

/// Names a record field to the [`Store`] accessors: a resolved [`Field`],
/// or a `usize` field index, which the store resolves on each access (the
/// reflective path, for callers that pick a field at run time). Sealed:
/// these are the only two.
pub trait FieldRef: Copy + sealed::Sealed {}

impl FieldRef for Field {}
impl FieldRef for usize {}

mod sealed {
    use super::Field;

    /// Seals [`FieldRef`](super::FieldRef).
    pub trait Sealed {
        /// The resolved field, or the bare index the store resolves itself.
        fn resolved(self) -> Result<Field, usize>;
    }

    impl Sealed for Field {
        #[inline]
        fn resolved(self) -> Result<Field, usize> {
            Ok(self)
        }
    }

    impl Sealed for usize {
        #[inline]
        fn resolved(self) -> Result<Field, usize> {
            Err(self)
        }
    }
}

/// A backend-independent record reference. The all-zero value is null.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rec(pub u64);

impl Rec {
    /// The null reference.
    pub const NULL: Rec = Rec(0);

    /// Returns `true` for the null reference.
    pub fn is_null(self) -> bool {
        self.0 == 0
    }
}

impl Default for Rec {
    fn default() -> Self {
        Rec::NULL
    }
}

/// An opaque root registration (meaningful on the heap backend only).
#[derive(Debug, Clone, Copy)]
pub struct Root(Option<RootId>);

/// An opaque iteration handle.
#[derive(Debug, Clone, Copy)]
pub struct Iteration(Option<facade_runtime::IterationId>);

/// Snapshot of a store's costs, feeding the benchmark tables.
#[derive(Debug, Clone, Default)]
pub struct StoreStats {
    /// Time spent in garbage collection (zero for the facade backend).
    pub gc_time: Duration,
    /// Number of collections.
    pub gc_count: u64,
    /// Records ever allocated.
    pub records_allocated: u64,
    /// Live + retained bytes right now.
    pub current_bytes: u64,
    /// High-water mark of bytes.
    pub peak_bytes: u64,
    /// Pages created (facade backend).
    pub pages_created: u64,
    /// Pages recycled by iteration ends (facade backend).
    pub pages_recycled: u64,
    /// Pages adopted from a shared [`PagePool`] (facade backend).
    pub pages_from_pool: u64,
    /// Pages surrendered back to a shared [`PagePool`] (facade backend).
    pub pages_to_pool: u64,
    /// Objects traced by the collector (heap backend).
    pub objects_traced: u64,
    /// Heap objects allocated for data (heap backend; the paper's `O(s)`).
    pub heap_objects: u64,
}

impl StoreStats {
    /// Folds another snapshot into this one, aggregating per-worker stores
    /// into a run-level report. Durations and counters add; `current_bytes`
    /// and `peak_bytes` add too, since per-worker stores partition the run's
    /// memory rather than observing the same bytes.
    pub fn merge(&mut self, other: &StoreStats) {
        self.gc_time += other.gc_time;
        self.gc_count += other.gc_count;
        self.records_allocated += other.records_allocated;
        self.current_bytes += other.current_bytes;
        self.peak_bytes += other.peak_bytes;
        self.pages_created += other.pages_created;
        self.pages_recycled += other.pages_recycled;
        self.pages_from_pool += other.pages_from_pool;
        self.pages_to_pool += other.pages_to_pool;
        self.objects_traced += other.objects_traced;
        self.heap_objects += other.heap_objects;
    }
}

/// A backend-aware live-heap census: what *runtime objects* exist right now.
///
/// This is the instrument behind the paper's Table 3. On the heap backend
/// every data record is an object, so `rows` is a per-class histogram that
/// scales with input size (`O(s)` objects). On the facade backend records
/// live *inside* pages, so the only runtime objects are the pages (and any
/// oversize buffers): `rows` collapses to a page count bounded by the
/// working set, while `records_allocated` still carries the record traffic
/// that would have been objects — the "billions of objects to statically
/// bounded" reduction, directly measurable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreCensus {
    /// `"heap"` or `"facade"`.
    pub backend: &'static str,
    /// Per-class rows (heap) or page/oversize rows (facade), name-sorted.
    pub rows: Vec<CensusRow>,
    /// Total runtime objects: `rows` counts summed. The paper's object
    /// bound: `O(s)` for heap, `O(p)` for facade.
    pub live_objects: u64,
    /// Bytes those objects occupy (heap: live data; facade: held pages and
    /// oversize buffers).
    pub live_bytes: u64,
    /// Records ever allocated through the store — input-proportional on
    /// both backends, for the Table 3 comparison against `live_objects`.
    pub records_allocated: u64,
    /// Record traffic by type name (facade backend; empty on heap, where
    /// the per-class rows already carry names).
    pub records_by_type: Vec<(String, u64)>,
}

// The heap variant is much larger than the facade variant; stores are
// few and long-lived, so boxing would only add indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum Inner {
    Heap {
        heap: Heap,
        classes: Vec<HClassId>,
    },
    Facade {
        paged: PagedHeap,
        classes: Vec<TypeId>,
    },
}

/// A record store backed by either the managed heap or the paged runtime.
/// See the [crate docs](crate) for an example.
#[derive(Debug)]
pub struct Store {
    inner: Inner,
}

fn field_kind(f: &FieldTy) -> FieldKind {
    match f {
        FieldTy::I32 => FieldKind::I32,
        FieldTy::I64 | FieldTy::F64 => FieldKind::I64,
        FieldTy::Ref => FieldKind::Ref,
    }
}

fn elem_kind(e: ElemTy) -> ElemKind {
    match e {
        ElemTy::U8 => ElemKind::U8,
        ElemTy::I32 => ElemKind::I32,
        ElemTy::I64 => ElemKind::I64,
        ElemTy::Ref => ElemKind::Ref,
    }
}

/// Encodes `data` into the leading `N`-byte elements of `body`. An array
/// body is a whole number of elements, so `as_chunks_mut` leaves no
/// remainder behind.
#[inline]
fn encode_into<const N: usize, T: Copy>(body: &mut [u8], data: &[T], encode: fn(T) -> [u8; N]) {
    for (slot, &v) in body.as_chunks_mut::<N>().0.iter_mut().zip(data) {
        *slot = encode(v);
    }
}

/// Configures and builds a [`Store`]: the one construction path, covering
/// every backend / budget / pool / fault-plan combination.
///
/// Defaults: facade backend, no budget (unbounded), private pages, no
/// fault plan — each knob is opt-in.
///
/// ```
/// use data_store::{Backend, Store};
///
/// let heap = Store::builder()
///     .backend(Backend::Heap)
///     .budget(16 << 20)
///     .build();
/// assert!(!heap.is_facade());
///
/// let facade = Store::builder().budget(16 << 20).build();
/// assert!(facade.is_facade());
/// ```
#[derive(Debug, Clone)]
pub struct StoreBuilder {
    backend: Backend,
    budget_bytes: Option<usize>,
    pool: Option<Arc<PagePool>>,
    job_epoch: u64,
    fault_plan: Option<FaultPlan>,
}

impl Default for StoreBuilder {
    fn default() -> Self {
        Self {
            backend: Backend::Facade,
            budget_bytes: None,
            pool: None,
            job_epoch: NO_EPOCH,
            fault_plan: None,
        }
    }
}

impl StoreBuilder {
    /// Selects the storage backend: [`Backend::Heap`] is the paper's `P`
    /// (managed objects, tracing GC), [`Backend::Facade`] its `P'` (paged
    /// native records, bulk reclamation). Defaults to the facade.
    #[must_use]
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Caps the store at `budget_bytes`. On the heap backend this sizes the
    /// generations ([`HeapConfig::with_capacity`]); on the facade backend it
    /// bounds native pages per the paper's fair-comparison rule. Without a
    /// budget the facade is unbounded and the heap uses
    /// [`HeapConfig::default`].
    #[must_use]
    pub fn budget(mut self, budget_bytes: usize) -> Self {
        self.budget_bytes = Some(budget_bytes);
        self
    }

    /// Draws the facade backend's pages from (and returns them to) a shared
    /// [`PagePool`]. Per-worker stores built over one pool converge on a
    /// single process-wide working set of pages: what one worker releases
    /// at [`Store::release_pages`], another adopts instead of allocating
    /// fresh. The budget still bounds this store's own held bytes. Ignored
    /// by the heap backend, which has no pages to pool.
    #[must_use]
    pub fn pool(mut self, pool: Arc<PagePool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Tags the facade backend's shared-pool page traffic with a job epoch
    /// minted by [`PagePool::begin_epoch`], so a multi-job scheduler can
    /// reconcile (and bulk-account) each job's pages at retirement via
    /// [`PagePool::epoch_ledger`]. Meaningful only together with
    /// [`pool`](Self::pool); ignored by the heap backend. Defaults to
    /// [`NO_EPOCH`] (untracked).
    #[must_use]
    pub fn job_epoch(mut self, epoch: u64) -> Self {
        self.job_epoch = epoch;
        self
    }

    /// Installs a fault schedule on the facade backend's paged heap (a
    /// no-op on the heap backend, which has no paged allocator to inject
    /// into). Clone one plan across the stores of a run to inject against
    /// the process-wide allocation sequence.
    #[must_use]
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Builds the store. Infallible: every knob combination is meaningful
    /// (inapplicable knobs are documented no-ops on the other backend).
    pub fn build(self) -> Store {
        let inner = match self.backend {
            Backend::Heap => {
                let config = self
                    .budget_bytes
                    .map(HeapConfig::with_capacity)
                    .unwrap_or_default();
                Inner::Heap {
                    heap: Heap::new(config),
                    classes: Vec::new(),
                }
            }
            Backend::Facade => {
                let config = PagedHeapConfig {
                    budget_bytes: self.budget_bytes.map(|b| b as u64),
                    job_epoch: self.job_epoch,
                };
                let mut paged = match self.pool {
                    Some(pool) => PagedHeap::with_pool(config, pool),
                    None => PagedHeap::with_config(config),
                };
                if let Some(plan) = self.fault_plan {
                    paged.set_fault_plan(plan);
                }
                Inner::Facade {
                    paged,
                    classes: Vec::new(),
                }
            }
        };
        Store { inner }
    }
}

impl Store {
    /// Starts configuring a store; see [`StoreBuilder`].
    pub fn builder() -> StoreBuilder {
        StoreBuilder::default()
    }

    /// Returns `true` if this store uses the facade (paged) backend.
    pub fn is_facade(&self) -> bool {
        matches!(self.inner, Inner::Facade { .. })
    }

    /// Registers a record class. Classes must be registered in the same
    /// order on every store that shares record layouts.
    pub fn register_class(&mut self, name: &str, fields: &[FieldTy]) -> ClassTag {
        let kinds: Vec<FieldKind> = fields.iter().map(field_kind).collect();
        let registered = match &mut self.inner {
            Inner::Heap { heap, classes } => {
                classes.push(heap.register_class(name, &kinds));
                classes.len()
            }
            Inner::Facade { paged, classes } => {
                classes.push(paged.register_type(name, &kinds));
                classes.len()
            }
        };
        ClassTag((registered - 1) as u16)
    }

    /// Resolves field `index` of `class` to a [`Field`], for the accessors
    /// to use without looking the class up again.
    ///
    /// ```
    /// use data_store::{FieldTy, Store};
    ///
    /// let mut store = Store::builder().build();
    /// let pair = store.register_class("Pair", &[FieldTy::I32, FieldTy::F64]);
    /// let value = store.field(pair, 1);
    /// let r = store.alloc(pair)?;
    /// store.set_f64(r, value, 2.5);
    /// assert_eq!(store.get_f64(r, value), 2.5);
    /// // A bare index names the same field, resolved on every access.
    /// assert_eq!(store.get_f64(r, 1), 2.5);
    /// # Ok::<(), metrics::OutOfMemory>(())
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `class` is not registered or has no field `index`.
    pub fn field(&self, class: ClassTag, index: usize) -> Field {
        let offset = self.layout(class).offset(index);
        Field { offset, class }
    }

    /// The body layout of `class`: the same on both backends.
    fn layout(&self, class: ClassTag) -> &RecordLayout {
        match &self.inner {
            Inner::Heap { heap, classes } => heap.layout(classes[class.0 as usize]),
            Inner::Facade { paged, classes } => paged.layout(classes[class.0 as usize]),
        }
    }

    /// The body layout of record `r`'s class; `None` for a heap array.
    fn layout_of(&self, r: Rec) -> Option<&RecordLayout> {
        match &self.inner {
            Inner::Heap { heap, .. } => heap.class_of(Self::h(r)).map(|c| heap.layout(c)),
            Inner::Facade { paged, .. } => Some(paged.layout(paged.type_of(Self::p(r)))),
        }
    }

    // ----- allocation -----------------------------------------------------

    /// Allocates a record of `class`.
    ///
    /// # Errors
    ///
    /// [`OutOfMemory`] when the budget is exhausted (after a full collection
    /// on the heap backend).
    #[inline]
    pub fn alloc(&mut self, class: ClassTag) -> Result<Rec, OutOfMemory> {
        match &mut self.inner {
            Inner::Heap { heap, classes } => heap
                .alloc(classes[class.0 as usize])
                .map(|r| Rec(r.raw() as u64)),
            Inner::Facade { paged, classes } => {
                paged.alloc(classes[class.0 as usize]).map(|r| Rec(r.raw()))
            }
        }
    }

    /// Allocates an array of `len` elements.
    ///
    /// # Errors
    ///
    /// [`OutOfMemory`] when the budget is exhausted.
    #[inline]
    pub fn alloc_array(&mut self, elem: ElemTy, len: usize) -> Result<Rec, OutOfMemory> {
        match &mut self.inner {
            Inner::Heap { heap, .. } => heap
                .alloc_array(elem_kind(elem), len)
                .map(|r| Rec(r.raw() as u64)),
            Inner::Facade { paged, .. } => paged
                .alloc_array(elem_kind(elem), len)
                .map(|r| Rec(r.raw())),
        }
    }

    /// Allocates an `I32` array born holding `data`: on either backend the
    /// elements are written as the array is allocated, with no zero fill
    /// first. Same record, placement and counters as [`Store::alloc_array`]
    /// followed by [`Store::array_write_i32s`].
    ///
    /// # Errors
    ///
    /// [`OutOfMemory`] when the budget is exhausted.
    #[inline]
    pub fn alloc_i32s(&mut self, data: &[i32]) -> Result<Rec, OutOfMemory> {
        self.alloc_init(ElemTy::I32, data.len(), |body| {
            encode_into(body, data, i32::to_le_bytes)
        })
    }

    /// Allocates an `I64` array born holding the doubles `data` (see
    /// [`Store::alloc_i32s`]).
    ///
    /// # Errors
    ///
    /// [`OutOfMemory`] when the budget is exhausted.
    #[inline]
    pub fn alloc_f64s(&mut self, data: &[f64]) -> Result<Rec, OutOfMemory> {
        self.alloc_init(ElemTy::I64, data.len(), |body| {
            encode_into(body, data, f64::to_le_bytes)
        })
    }

    /// Allocates a `U8` array born holding `data` (see
    /// [`Store::alloc_i32s`]).
    ///
    /// # Errors
    ///
    /// [`OutOfMemory`] when the budget is exhausted.
    #[inline]
    pub fn alloc_bytes(&mut self, data: &[u8]) -> Result<Rec, OutOfMemory> {
        self.alloc_init(ElemTy::U8, data.len(), |body| body.copy_from_slice(data))
    }

    /// Allocates an array of `len` elements whose storage `init` writes in
    /// full before anything else can touch it.
    #[inline]
    fn alloc_init(
        &mut self,
        elem: ElemTy,
        len: usize,
        init: impl FnOnce(&mut [u8]),
    ) -> Result<Rec, OutOfMemory> {
        match &mut self.inner {
            Inner::Heap { heap, .. } => heap
                .alloc_array_init(elem_kind(elem), len, init)
                .map(|r| Rec(r.raw() as u64)),
            Inner::Facade { paged, .. } => paged
                .alloc_array_init(elem_kind(elem), len, init)
                .map(|r| Rec(r.raw())),
        }
    }

    #[inline]
    fn h(r: Rec) -> ObjRef {
        ObjRef::from_raw(r.0 as u32)
    }

    #[inline]
    fn p(r: Rec) -> PageRef {
        PageRef::from_raw(r.0)
    }

    // ----- field access ----------------------------------------------------
    //
    // A record's body, its bytes after the header, is laid out the same on
    // both backends (§2.1), and so is an array's: its 4-byte length, then
    // its elements. So each accessor below moves the same body bytes on
    // either backend: a scalar field through `read` / `write` (the backend's
    // `read_body` / `write_body`, one range check), an element through
    // `body` / `body_mut`. Reference stores are the exception: the heap's
    // write barrier must see them.

    /// The body of record `r`: its bytes after the backend's header. Every
    /// element access goes through here, so it is inlined into
    /// each: the compiler can then hoist a loop's resolve out of the loop,
    /// as it did when each accessor held its own backend match.
    #[inline(always)]
    fn body(&self, r: Rec) -> &[u8] {
        match &self.inner {
            Inner::Heap { heap, .. } => heap.body(Self::h(r)),
            Inner::Facade { paged, .. } => paged.body(Self::p(r)),
        }
    }

    #[inline(always)]
    fn body_mut(&mut self, r: Rec) -> &mut [u8] {
        match &mut self.inner {
            Inner::Heap { heap, .. } => heap.body_mut(Self::h(r)),
            Inner::Facade { paged, .. } => paged.body_mut(Self::p(r)),
        }
    }

    /// The body offset of `field` in record `r`: a resolved [`Field`]'s own
    /// (checked against `r`'s class in debug builds), or a bare index
    /// resolved against `r`'s class.
    #[inline]
    fn offset_of(&self, r: Rec, field: impl FieldRef) -> u32 {
        match field.resolved() {
            Ok(f) => {
                if cfg!(debug_assertions) {
                    self.check_class(r, f.class);
                }
                f.offset
            }
            Err(index) => self
                .layout_of(r)
                .expect("field access on an array")
                .offset(index),
        }
    }

    /// Panics unless `r` is a record of `class`, naming both classes.
    fn check_class(&self, r: Rec, class: ClassTag) {
        let expected = self.layout(class);
        let actual = self.layout_of(r);
        if !actual.is_some_and(|actual| std::ptr::eq(actual, expected)) {
            let actual = actual.map_or("an array", RecordLayout::name);
            panic!(
                "a field of class {} used on a record of class {actual}",
                expected.name()
            );
        }
    }

    /// The `N` bytes of `field` in record `r`: the bytes `body(r)` holds
    /// there, read behind the backend's one range check.
    #[inline]
    fn read<const N: usize>(&self, r: Rec, field: impl FieldRef) -> [u8; N] {
        let at = self.offset_of(r, field);
        match &self.inner {
            Inner::Heap { heap, .. } => heap.read_body(Self::h(r), at),
            Inner::Facade { paged, .. } => paged.read_body(Self::p(r), at),
        }
    }

    #[inline]
    fn write<const N: usize>(&mut self, r: Rec, field: impl FieldRef, bytes: [u8; N]) {
        let at = self.offset_of(r, field);
        match &mut self.inner {
            Inner::Heap { heap, .. } => heap.write_body(Self::h(r), at, bytes),
            Inner::Facade { paged, .. } => paged.write_body(Self::p(r), at, bytes),
        }
    }

    /// Reads a 32-bit field.
    #[inline]
    pub fn get_i32(&self, r: Rec, field: impl FieldRef) -> i32 {
        i32::from_le_bytes(self.read(r, field))
    }

    /// Writes a 32-bit field.
    #[inline]
    pub fn set_i32(&mut self, r: Rec, field: impl FieldRef, v: i32) {
        self.write(r, field, v.to_le_bytes());
    }

    /// Reads a 64-bit field.
    #[inline]
    pub fn get_i64(&self, r: Rec, field: impl FieldRef) -> i64 {
        i64::from_le_bytes(self.read(r, field))
    }

    /// Writes a 64-bit field.
    #[inline]
    pub fn set_i64(&mut self, r: Rec, field: impl FieldRef, v: i64) {
        self.write(r, field, v.to_le_bytes());
    }

    /// Reads a double field.
    #[inline]
    pub fn get_f64(&self, r: Rec, field: impl FieldRef) -> f64 {
        f64::from_bits(self.get_i64(r, field) as u64)
    }

    /// Writes a double field.
    #[inline]
    pub fn set_f64(&mut self, r: Rec, field: impl FieldRef, v: f64) {
        self.set_i64(r, field, v.to_bits() as i64);
    }

    /// Reads a reference field: 4 bytes on either backend.
    #[inline]
    pub fn get_rec(&self, r: Rec, field: impl FieldRef) -> Rec {
        Rec(u32::from_le_bytes(self.read(r, field)).into())
    }

    /// Writes a reference field.
    #[inline]
    pub fn set_rec(&mut self, r: Rec, field: impl FieldRef, v: Rec) {
        let at = self.offset_of(r, field);
        match &mut self.inner {
            Inner::Heap { heap, .. } => {
                heap.set_ref_at(Self::h(r), OBJECT_HEADER_BYTES + at, Self::h(v));
            }
            Inner::Facade { paged, .. } => {
                paged.set_ref_at(Self::p(r), RECORD_HEADER_BYTES + at, Self::p(v));
            }
        }
    }

    // ----- array access ----------------------------------------------------

    /// Array length in elements.
    #[inline]
    pub fn array_len(&self, r: Rec) -> usize {
        elem_count(self.body(r))
    }

    /// Reads an `I32` element.
    #[inline]
    pub fn array_get_i32(&self, r: Rec, i: usize) -> i32 {
        i32::from_le_bytes(elem(self.body(r), i))
    }

    /// Writes an `I32` element.
    #[inline]
    pub fn array_set_i32(&mut self, r: Rec, i: usize, v: i32) {
        set_elem(self.body_mut(r), i, v.to_le_bytes());
    }

    /// Reads an `I64` element.
    #[inline]
    pub fn array_get_i64(&self, r: Rec, i: usize) -> i64 {
        i64::from_le_bytes(elem(self.body(r), i))
    }

    /// Writes an `I64` element.
    #[inline]
    pub fn array_set_i64(&mut self, r: Rec, i: usize, v: i64) {
        set_elem(self.body_mut(r), i, v.to_le_bytes());
    }

    /// Reads an `I64` element as a double.
    #[inline]
    pub fn array_get_f64(&self, r: Rec, i: usize) -> f64 {
        f64::from_bits(self.array_get_i64(r, i) as u64)
    }

    /// Writes an `I64` element as a double.
    #[inline]
    pub fn array_set_f64(&mut self, r: Rec, i: usize, v: f64) {
        self.array_set_i64(r, i, v.to_bits() as i64);
    }

    /// Reads a `U8` element.
    #[inline]
    pub fn array_get_u8(&self, r: Rec, i: usize) -> u8 {
        let [b] = elem(self.body(r), i);
        b
    }

    /// Writes a `U8` element.
    #[inline]
    pub fn array_set_u8(&mut self, r: Rec, i: usize, v: u8) {
        set_elem(self.body_mut(r), i, [v]);
    }

    /// Bulk-writes bytes into a `U8` array.
    ///
    /// # Panics
    ///
    /// Panics if `data` is longer than the array, or if `r` is a `Ref`
    /// array: raw bytes written there would forge references.
    #[inline]
    pub fn array_write_bytes(&mut self, r: Rec, data: &[u8]) {
        let body = self.array_bytes_mut(r);
        assert!(
            data.len() <= body.len(),
            "bulk write of {} bytes out of bounds (len {})",
            data.len(),
            body.len()
        );
        body[..data.len()].copy_from_slice(data);
    }

    // ----- bulk array access -------------------------------------------------
    //
    // The per-element accessors above resolve the record's body, read its
    // length and check the index on every element. The methods below do
    // that once per call and then move a whole run over the array's
    // contiguous element storage; sequential callers (an engine filling or
    // scanning an edge array) use these, random access keeps the
    // per-element API.

    /// The contents of a primitive (`U8`/`I32`/`I64`) array, borrowed:
    /// little-endian elements, back to back — for a `U8` array, its bytes.
    /// Nothing is copied, so this is the way to compare or hash keys in
    /// place; `.to_vec()` it only to keep it past the next allocation.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not a primitive array.
    #[inline]
    pub fn array_bytes(&self, r: Rec) -> &[u8] {
        match &self.inner {
            Inner::Heap { heap, .. } => heap.array_bytes(Self::h(r)),
            Inner::Facade { paged, .. } => paged.array_bytes(Self::p(r)),
        }
    }

    #[inline]
    fn array_bytes_mut(&mut self, r: Rec) -> &mut [u8] {
        match &mut self.inner {
            Inner::Heap { heap, .. } => heap.array_bytes_mut(Self::h(r)),
            Inner::Facade { paged, .. } => paged.array_bytes_mut(Self::p(r)),
        }
    }

    /// Copies `data` into consecutive `N`-byte elements from `start` on,
    /// after one bounds check for the whole run.
    #[inline]
    fn write_elems<const N: usize, T: Copy>(
        &mut self,
        r: Rec,
        start: usize,
        data: &[T],
        encode: fn(T) -> [u8; N],
    ) {
        let body = self.array_bytes_mut(r);
        let len = body.len() / N;
        assert!(
            start <= len && data.len() <= len - start,
            "bulk write of {} elements at index {start} out of bounds (len {len})",
            data.len()
        );
        encode_into(&mut body[start * N..], data, encode);
    }

    /// Bulk-writes `data` into an `I32` array, element `start` onwards.
    ///
    /// # Panics
    ///
    /// Panics, before writing anything, if the run does not fit between
    /// `start` and the array's end.
    #[inline]
    pub fn array_write_i32s(&mut self, r: Rec, start: usize, data: &[i32]) {
        self.write_elems(r, start, data, i32::to_le_bytes);
    }

    /// Bulk-writes `data` into an `I64` array, element `start` onwards.
    ///
    /// # Panics
    ///
    /// Panics, before writing anything, if the run does not fit between
    /// `start` and the array's end.
    #[inline]
    pub fn array_write_i64s(&mut self, r: Rec, start: usize, data: &[i64]) {
        self.write_elems(r, start, data, i64::to_le_bytes);
    }

    /// Bulk-writes doubles into an `I64` array, element `start` onwards.
    ///
    /// # Panics
    ///
    /// Panics, before writing anything, if the run does not fit between
    /// `start` and the array's end.
    #[inline]
    pub fn array_write_f64s(&mut self, r: Rec, start: usize, data: &[f64]) {
        self.write_elems(r, start, data, f64::to_le_bytes);
    }

    /// Streams the elements of an `I32` array in index order.
    #[inline]
    pub fn array_i32s(&self, r: Rec) -> impl ExactSizeIterator<Item = i32> + '_ {
        let (elems, _) = self.array_bytes(r).as_chunks::<4>();
        elems.iter().map(|&c| i32::from_le_bytes(c))
    }

    /// Streams the elements of an `I64` array as doubles, in index order.
    #[inline]
    pub fn array_f64s(&self, r: Rec) -> impl ExactSizeIterator<Item = f64> + '_ {
        let (elems, _) = self.array_bytes(r).as_chunks::<8>();
        elems.iter().map(|&c| f64::from_le_bytes(c))
    }

    /// Replaces every double of an `I64` array by `f` of it, in place and in
    /// index order.
    #[inline]
    pub fn array_map_f64s(&mut self, r: Rec, mut f: impl FnMut(f64) -> f64) {
        for slot in self.array_bytes_mut(r).as_chunks_mut::<8>().0 {
            *slot = f(f64::from_le_bytes(*slot)).to_le_bytes();
        }
    }

    /// Reads a `Ref` element.
    #[inline]
    pub fn array_get_rec(&self, r: Rec, i: usize) -> Rec {
        Rec(u32::from_le_bytes(elem(self.body(r), i)).into())
    }

    /// Writes a `Ref` element.
    #[inline]
    pub fn array_set_rec(&mut self, r: Rec, i: usize, v: Rec) {
        match &mut self.inner {
            Inner::Heap { heap, .. } => heap.array_set_ref(Self::h(r), i, Self::h(v)),
            Inner::Facade { paged, .. } => paged.array_set_ref(Self::p(r), i, Self::p(v)),
        }
    }

    // ----- lifetime management ----------------------------------------------

    /// Registers `r` as a GC root (heap backend) so the record graph under
    /// it survives collections; a no-op for the facade backend, where
    /// lifetime is iteration-scoped.
    pub fn add_root(&mut self, r: Rec) -> Root {
        match &mut self.inner {
            Inner::Heap { heap, .. } => Root(Some(heap.add_root(Self::h(r)))),
            Inner::Facade { .. } => Root(None),
        }
    }

    /// Removes a root registration.
    pub fn remove_root(&mut self, root: Root) {
        if let (Inner::Heap { heap, .. }, Some(id)) = (&mut self.inner, root.0) {
            heap.remove_root(id);
        }
    }

    /// Marks an iteration start (§3.6): a no-op for the heap backend, a new
    /// page manager for the facade backend.
    pub fn iteration_start(&mut self) -> Iteration {
        match &mut self.inner {
            Inner::Heap { .. } => Iteration(None),
            Inner::Facade { paged, .. } => Iteration(Some(paged.iteration_start())),
        }
    }

    /// Ends an iteration, bulk-reclaiming its records on the facade backend.
    ///
    /// # Panics
    ///
    /// Panics if iterations are ended out of order (facade backend).
    pub fn iteration_end(&mut self, it: Iteration) {
        if let (Inner::Facade { paged, .. }, Some(id)) = (&mut self.inner, it.0) {
            paged.iteration_end(id);
        }
    }

    /// Frees an oversize record early on the facade backend (§3.6: pages
    /// of the oversize class "can be deallocated earlier when they are no
    /// longer needed, e.g., upon the resizing of a data structure"). A
    /// no-op on the heap backend (the collector reclaims it) and for
    /// records small enough to live on regular pages.
    pub fn free_array_early(&mut self, r: Rec) {
        if let Inner::Facade { paged, .. } = &mut self.inner {
            let p = Self::p(r);
            if p.is_oversize() {
                // Infallible: the oversize check above rules out
                // `NotOversize`, and the store hands each `Rec` out once, so
                // a double free here is a store bug worth failing loudly on.
                paged
                    .free_oversize(p)
                    .expect("store handed out a live oversize record");
            }
        }
    }

    /// Forces a full collection on the heap backend (no-op on facade).
    /// Used by engines at phase boundaries, mirroring `System.gc()` hints.
    pub fn collect(&mut self) {
        if let Inner::Heap { heap, .. } = &mut self.inner {
            heap.collect_full();
        }
    }

    // ----- observability -----------------------------------------------------

    /// Per-collection pause records from the heap backend (bounded; see
    /// [`managed_heap::GcStats::MAX_PAUSE_RECORDS`]); empty on facade.
    pub fn pause_records(&self) -> Vec<PauseRecord> {
        match &self.inner {
            Inner::Heap { heap, .. } => heap.stats().pause_records.iter().copied().collect(),
            Inner::Facade { .. } => Vec::new(),
        }
    }

    /// Surrenders this store's free pages to the shared [`PagePool`] so
    /// other workers can adopt them. Returns the number of pages released;
    /// a no-op (returning 0) on the heap backend or when the store was not
    /// built over a pool ([`StoreBuilder::pool`]). Engines call this at interval
    /// boundaries, after `iteration_end` has refilled the free list.
    pub fn release_pages(&mut self) -> usize {
        match &mut self.inner {
            Inner::Heap { .. } => 0,
            Inner::Facade { paged, .. } => paged.release_pages_to_pool(),
        }
    }

    // ----- statistics --------------------------------------------------------

    /// A snapshot of the store's cost counters.
    pub fn stats(&self) -> StoreStats {
        match &self.inner {
            Inner::Heap { heap, .. } => {
                let s = heap.stats();
                StoreStats {
                    gc_time: s.gc_time,
                    gc_count: s.collections(),
                    records_allocated: s.objects_allocated,
                    current_bytes: heap.used_bytes() as u64,
                    peak_bytes: s.peak_bytes,
                    pages_created: 0,
                    pages_recycled: 0,
                    pages_from_pool: 0,
                    pages_to_pool: 0,
                    objects_traced: s.objects_traced,
                    heap_objects: s.objects_allocated,
                }
            }
            Inner::Facade { paged, .. } => {
                let s = paged.stats();
                StoreStats {
                    gc_time: Duration::ZERO,
                    gc_count: 0,
                    records_allocated: s.records_allocated,
                    current_bytes: paged.bytes_held(),
                    peak_bytes: s.peak_bytes,
                    pages_created: s.pages_created,
                    pages_recycled: s.pages_recycled,
                    pages_from_pool: s.pages_from_pool,
                    pages_to_pool: s.pages_to_pool,
                    objects_traced: 0,
                    heap_objects: 0,
                }
            }
        }
    }

    /// Takes a live-object census (see [`StoreCensus`]).
    ///
    /// On the heap backend this walks every live object into a per-class
    /// histogram — the `jmap -histo` view whose object count scales with
    /// input. On the facade backend the runtime objects are the pages
    /// themselves (plus oversize buffers), so the census collapses to a
    /// `"Page"` row bounded by the working set regardless of how many
    /// records flowed through (`records_by_type` keeps that traffic).
    pub fn census(&self) -> StoreCensus {
        match &self.inner {
            Inner::Heap { heap, .. } => {
                let census = heap.census();
                StoreCensus {
                    backend: "heap",
                    live_objects: census.total_objects(),
                    live_bytes: census.total_shallow_bytes(),
                    records_allocated: heap.stats().objects_allocated,
                    rows: census.rows,
                    records_by_type: Vec::new(),
                }
            }
            Inner::Facade { paged, .. } => {
                let pages = paged.page_objects() as u64;
                let page_bytes = pages * facade_runtime::PAGE_BYTES as u64;
                let oversize = paged.oversize_objects() as u64;
                let mut rows = vec![CensusRow {
                    name: "Page".to_string(),
                    count: pages,
                    shallow_bytes: page_bytes,
                    // A page is one runtime object; its "header" in the
                    // paper's sense is the reserved slot-metadata prefix.
                    header_bytes: pages * facade_runtime::PAGE_RESERVED as u64,
                }];
                if oversize > 0 {
                    rows.push(CensusRow {
                        name: "OversizeBuf".to_string(),
                        count: oversize,
                        shallow_bytes: paged.bytes_held().saturating_sub(page_bytes),
                        header_bytes: 0,
                    });
                }
                rows.sort_by(|a, b| a.name.cmp(&b.name));
                let mut records_by_type = paged.type_alloc_profile();
                records_by_type.sort_by(|a, b| a.0.cmp(&b.0));
                StoreCensus {
                    backend: "facade",
                    live_objects: pages + oversize,
                    live_bytes: paged.bytes_held(),
                    records_allocated: paged.stats().records_allocated,
                    rows,
                    records_by_type,
                }
            }
        }
    }

    /// Counters of the shared [`PagePool`] this store draws from; `None` on
    /// the heap backend or when the store was built without a
    /// [`StoreBuilder::pool`]. Workers
    /// over one pool see one set of counters, so reading any store's is
    /// enough for a run-level report.
    pub fn pool_counters(&self) -> Option<PoolCounters> {
        match &self.inner {
            Inner::Heap { .. } => None,
            Inner::Facade { paged, .. } => paged.pool().map(|p| p.counters()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn both() -> Vec<Store> {
        vec![
            Store::builder()
                .backend(Backend::Heap)
                .budget(8 << 20)
                .build(),
            Store::builder().budget(8 << 20).build(),
        ]
    }

    #[test]
    fn record_roundtrip_on_both_backends() {
        for mut s in both() {
            let c = s.register_class("T", &[FieldTy::I32, FieldTy::F64, FieldTy::Ref]);
            let a = s.alloc(c).unwrap();
            let b = s.alloc(c).unwrap();
            s.set_i32(a, 0, 7);
            s.set_f64(a, 1, 1.25);
            s.set_rec(a, 2, b);
            assert_eq!(s.get_i32(a, 0), 7);
            assert_eq!(s.get_f64(a, 1), 1.25);
            assert_eq!(s.get_rec(a, 2), b);
            assert!(s.get_rec(b, 2).is_null());
        }
    }

    #[test]
    fn arrays_roundtrip_on_both_backends() {
        for mut s in both() {
            let a = s.alloc_array(ElemTy::I64, 16).unwrap();
            s.array_set_f64(a, 3, 0.75);
            assert_eq!(s.array_get_f64(a, 3), 0.75);
            assert_eq!(s.array_len(a), 16);

            let bytes = s.alloc_array(ElemTy::U8, 5).unwrap();
            s.array_write_bytes(bytes, b"abcde");
            assert_eq!(s.array_bytes(bytes), b"abcde");
            s.array_set_u8(bytes, 4, b'!');
            assert_eq!(s.array_get_u8(bytes, 4), b'!');

            let refs = s.alloc_array(ElemTy::Ref, 2).unwrap();
            s.array_set_rec(refs, 1, a);
            assert_eq!(s.array_get_rec(refs, 1), a);

            let ints = s.alloc_array(ElemTy::I32, 3).unwrap();
            s.array_set_i32(ints, 2, -9);
            assert_eq!(s.array_get_i32(ints, 2), -9);
        }
    }

    #[test]
    fn heap_backend_collects_unrooted_garbage() {
        let mut s = Store::builder()
            .backend(Backend::Heap)
            .budget(1 << 20)
            .build();
        let c = s.register_class("T", &[FieldTy::I64, FieldTy::I64]);
        let keep = s.alloc(c).unwrap();
        s.set_i64(keep, 0, 123);
        let root = s.add_root(keep);
        for _ in 0..100_000 {
            s.alloc(c).unwrap();
        }
        let st = s.stats();
        assert!(st.gc_count > 0);
        assert!(st.gc_time > Duration::ZERO);
        assert_eq!(s.get_i64(keep, 0), 123);
        s.remove_root(root);
    }

    #[test]
    fn facade_backend_never_collects() {
        let mut s = Store::builder().budget(64 << 20).build();
        let c = s.register_class("T", &[FieldTy::I64, FieldTy::I64]);
        let it = s.iteration_start();
        for _ in 0..100_000 {
            s.alloc(c).unwrap();
        }
        s.iteration_end(it);
        let st = s.stats();
        assert_eq!(st.gc_count, 0);
        assert_eq!(st.gc_time, Duration::ZERO);
        assert_eq!(st.records_allocated, 100_000);
        assert!(st.pages_created > 0);
        assert_eq!(st.heap_objects, 0);
    }

    #[test]
    fn iteration_reuse_keeps_facade_footprint_flat() {
        let mut s = Store::builder().budget(64 << 20).build();
        let c = s.register_class("T", &[FieldTy::I64; 4]);
        let mut peaks = Vec::new();
        for _ in 0..5 {
            let it = s.iteration_start();
            for _ in 0..10_000 {
                s.alloc(c).unwrap();
            }
            s.iteration_end(it);
            peaks.push(s.stats().current_bytes);
        }
        // Footprint stabilizes after the first iteration (pages recycle).
        assert_eq!(peaks[0], peaks[4]);
    }

    #[test]
    fn both_backends_honor_budgets() {
        for mut s in [
            Store::builder()
                .backend(Backend::Heap)
                .budget(256 << 10)
                .build(),
            Store::builder().budget(256 << 10).build(),
        ] {
            let c = s.register_class("T", &[FieldTy::I64; 8]);
            let mut roots = Vec::new();
            let mut oom = false;
            for _ in 0..100_000 {
                match s.alloc(c) {
                    Ok(r) => roots.push(s.add_root(r)),
                    Err(_) => {
                        oom = true;
                        break;
                    }
                }
            }
            assert!(oom, "budget should be enforced");
        }
    }

    #[test]
    fn header_overhead_differs_as_in_the_paper() {
        // §2.4: a record pays a 4-byte header in P' where an object pays 12
        // bytes in P. Allocate the same live records on both backends; the
        // heap must hold strictly more bytes per record.
        let mut h = Store::builder()
            .backend(Backend::Heap)
            .budget(64 << 20)
            .build();
        let mut f = Store::builder().budget(64 << 20).build();
        let fields = [FieldTy::I32; 4];
        let hc = h.register_class("T", &fields);
        let fc = f.register_class("T", &fields);
        let n = 100_000;
        for _ in 0..n {
            let r = h.alloc(hc).unwrap();
            h.add_root(r);
            f.alloc(fc).unwrap();
        }
        let heap_bytes = h.stats().peak_bytes as f64;
        let facade_bytes = f.stats().peak_bytes as f64;
        // Heap: 12 hdr + 16 body = 28 → 32 aligned. Facade: 4 hdr + 16 = 24
        // (page-granular). Expect roughly the 32/24 ratio.
        assert!(
            heap_bytes / facade_bytes > 1.2,
            "heap {heap_bytes} vs facade {facade_bytes}"
        );
    }

    #[test]
    fn shared_stores_recycle_pages_through_the_pool() {
        let pool = Arc::new(PagePool::with_default_config());
        let fill = |s: &mut Store| {
            let c = s.register_class("T", &[FieldTy::I64; 4]);
            let it = s.iteration_start();
            for _ in 0..50_000 {
                s.alloc(c).unwrap();
            }
            s.iteration_end(it);
        };

        let mut a = Store::builder()
            .budget(64 << 20)
            .pool(Arc::clone(&pool))
            .build();
        fill(&mut a);
        let released = a.release_pages();
        assert!(released > 0);
        assert_eq!(a.stats().pages_to_pool, released as u64);

        // A second store over the same pool runs the identical workload
        // without creating a single fresh page.
        let mut b = Store::builder().budget(64 << 20).pool(pool).build();
        fill(&mut b);
        let st = b.stats();
        assert_eq!(st.pages_created, 0);
        assert!(st.pages_from_pool > 0);

        // Plain stores ignore release_pages.
        let mut plain = Store::builder().budget(8 << 20).build();
        let c = plain.register_class("T", &[FieldTy::I64]);
        plain.alloc(c).unwrap();
        assert_eq!(plain.release_pages(), 0);
        assert_eq!(
            Store::builder()
                .backend(Backend::Heap)
                .budget(8 << 20)
                .build()
                .release_pages(),
            0
        );
    }

    #[test]
    fn job_epoch_ledger_reconciles_at_store_retirement() {
        let pool = Arc::new(PagePool::with_default_config());
        let fill = |s: &mut Store| {
            let c = s.register_class("T", &[FieldTy::I64; 4]);
            let it = s.iteration_start();
            for _ in 0..50_000 {
                s.alloc(c).unwrap();
            }
            s.iteration_end(it);
        };
        // Prime the supply untagged, as a resident server would at warm-up.
        let mut donor = Store::builder()
            .budget(64 << 20)
            .pool(Arc::clone(&pool))
            .build();
        fill(&mut donor);
        donor.release_pages();

        let epoch = pool.begin_epoch();
        let mut job = Store::builder()
            .budget(64 << 20)
            .pool(Arc::clone(&pool))
            .job_epoch(epoch)
            .build();
        fill(&mut job);
        let stats = job.stats();
        assert!(stats.pages_from_pool > 0, "job drew from the shared supply");
        drop(job); // retirement flushes recycled + cached pages, tagged

        let ledger = pool.retire_epoch(epoch).expect("epoch was live");
        assert_eq!(ledger.pages_out, stats.pages_from_pool);
        assert_eq!(
            ledger.pages_in,
            ledger.pages_out + stats.pages_created,
            "every page the job drew came back, plus its fresh-page donations"
        );
        assert_eq!(pool.live_epochs(), 0);
    }

    #[test]
    fn pause_records_pass_through() {
        let mut h = Store::builder()
            .backend(Backend::Heap)
            .budget(1 << 20)
            .build();
        let c = h.register_class("T", &[FieldTy::I64]);
        h.alloc(c).unwrap();
        h.collect();
        assert_eq!(h.pause_records().len(), 1, "one record per collection");

        // Facade backend: no collector, no records.
        let mut f = Store::builder().budget(1 << 20).build();
        let c = f.register_class("T", &[FieldTy::I64]);
        f.alloc(c).unwrap();
        assert!(f.pause_records().is_empty());
    }

    #[test]
    fn census_scales_on_heap_but_is_bounded_on_facade() {
        // The Table 3 shape: run the same workload on both backends and
        // compare runtime-object counts.
        let mut h = Store::builder()
            .backend(Backend::Heap)
            .budget(64 << 20)
            .build();
        let mut f = Store::builder().budget(64 << 20).build();
        let hc = h.register_class("Vertex", &[FieldTy::I64]);
        let fc = f.register_class("Vertex", &[FieldTy::I64]);
        let n = 50_000u64;
        let it = f.iteration_start();
        for _ in 0..n {
            let r = h.alloc(hc).unwrap();
            h.add_root(r);
            f.alloc(fc).unwrap();
        }

        let hcen = h.census();
        assert_eq!(hcen.backend, "heap");
        // Heap: one runtime object per record, input-proportional.
        assert_eq!(hcen.live_objects, n);
        assert_eq!(hcen.records_allocated, n);
        let row = hcen.rows.iter().find(|r| r.name == "Vertex").unwrap();
        assert_eq!(row.count, n);
        assert_eq!(row.header_bytes, n * 12);

        let fcen = f.census();
        assert_eq!(fcen.backend, "facade");
        // Facade: the same record traffic collapsed into a bounded page set.
        assert_eq!(fcen.records_allocated, n);
        assert!(
            fcen.live_objects * 100 < n,
            "facade census should be bounded: {} objects for {} records",
            fcen.live_objects,
            n
        );
        let pages = fcen.rows.iter().find(|r| r.name == "Page").unwrap();
        assert_eq!(pages.count, fcen.live_objects);
        assert_eq!(fcen.live_bytes, f.stats().current_bytes);
        assert_eq!(
            fcen.records_by_type,
            vec![("Vertex".to_string(), n)],
            "record traffic is still attributed by type"
        );
        f.iteration_end(it);
    }

    #[test]
    fn pool_counters_pass_through_for_shared_stores_only() {
        assert!(
            Store::builder()
                .backend(Backend::Heap)
                .budget(1 << 20)
                .build()
                .pool_counters()
                .is_none()
        );
        assert!(
            Store::builder()
                .budget(1 << 20)
                .build()
                .pool_counters()
                .is_none()
        );
        let pool = Arc::new(PagePool::with_default_config());
        let mut s = Store::builder()
            .budget(8 << 20)
            .pool(Arc::clone(&pool))
            .build();
        let c = s.register_class("T", &[FieldTy::I64]);
        let it = s.iteration_start();
        for _ in 0..50_000 {
            s.alloc(c).unwrap();
        }
        s.iteration_end(it);
        let released = s.release_pages();
        let counters = s.pool_counters().expect("shared store has a pool");
        assert_eq!(counters.pages_returned, released as u64);
        assert_eq!(counters, pool.counters());
    }

    #[test]
    fn collect_is_a_safe_hint_on_both() {
        for mut s in both() {
            let c = s.register_class("T", &[FieldTy::I32]);
            let r = s.alloc(c).unwrap();
            let _root = s.add_root(r);
            s.set_i32(r, 0, 5);
            s.collect();
            assert_eq!(s.get_i32(r, 0), 5);
        }
    }
}
