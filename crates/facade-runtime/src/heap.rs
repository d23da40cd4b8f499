//! The paged heap: page managers, iteration-based reclamation, allocation,
//! and record access.

use crate::error::HeapError;
use crate::fault::FaultPlan;
use crate::layout::{
    ARRAY_HEADER_BYTES, ElemKind, FieldKind, RECORD_HEADER_BYTES, RecordLayout, TypeId,
    record_bytes,
};
use crate::page::{MAX_PAGE_SLOTS, PAGE_BYTES, PAGE_CAPACITY, Page, PageRef};
use crate::pool::PagePool;
use crate::stats::NativeStats;
use managed_heap::{elem, elem_count, set_elem};
use metrics::OutOfMemory;
use std::sync::Arc;

/// Reserved type IDs for the four array kinds; user types start afterwards.
pub(crate) const ARRAY_TYPE_U8: u16 = 0;
pub(crate) const ARRAY_TYPE_I32: u16 = 1;
pub(crate) const ARRAY_TYPE_I64: u16 = 2;
pub(crate) const ARRAY_TYPE_REF: u16 = 3;
/// First type ID handed out by [`PagedHeap::register_type`].
pub const FIRST_USER_TYPE: u16 = 4;

/// Lock IDs a heap can have installed at once: they must fit the record
/// header's 15 usable lock-ID bits (§2.1), and 0 means "unlocked".
pub const MAX_LOCK_IDS: u16 = (1 << 15) - 1;

/// Identifies a page manager in the manager tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ManagerId(pub(crate) u32);

/// Identifies a running iteration; returned by
/// [`PagedHeap::iteration_start`] and consumed by
/// [`PagedHeap::iteration_end`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IterationId(pub(crate) u32);

/// Records at least this large are placed on a fresh, empty page (§3.6
/// policy 2). Records can never span pages here (allocation is bump-within-
/// page), so the fresh-page rule is only worth its page-fill waste for
/// records that dominate a page anyway.
const LARGE_RECORD_BYTES: usize = PAGE_CAPACITY / 2;

/// Number of size classes for small records.
const SIZE_CLASS_LIMITS: [usize; 5] = [64, 256, 1024, 8192, PAGE_CAPACITY];

/// Pages of a size class, the open one included, that a small allocation
/// tries (newest first) before it takes a fresh page (§3.6 policy 1).
const FIRST_FIT_PAGES: usize = 4;

/// The size class of a record of `size` (8-rounded) bytes; an oversize
/// record gets `SIZE_CLASS_LIMITS.len()`, which no page list has.
fn size_class(size: usize) -> usize {
    SIZE_CLASS_LIMITS
        .iter()
        .position(|&limit| size <= limit)
        .unwrap_or(SIZE_CLASS_LIMITS.len())
}

/// What allocating a record of one registered type takes, fixed when the
/// type is registered: its size rounded up to 8 bytes and its size class.
#[derive(Debug, Clone, Copy)]
struct Shape {
    size: usize,
    class: usize,
}

impl Shape {
    fn of(layout: &RecordLayout) -> Self {
        let size = (record_bytes(layout) as usize + 7) & !7;
        Shape {
            size,
            class: size_class(size),
        }
    }
}

/// Sizing for a [`PagedHeap`].
#[derive(Debug, Clone, Default)]
pub struct PagedHeapConfig {
    /// Optional cap on total native bytes (pages + oversize buffers). When
    /// set, exceeding it is an out-of-memory error, which is how the
    /// harness enforces the paper's "fair comparison" rule (§4.2: a `P'`
    /// execution consuming more than the budget counts as a failure).
    pub budget_bytes: Option<u64>,
    /// Job epoch this heap's shared-pool traffic is charged to (see
    /// [`PagePool::begin_epoch`]). Defaults to [`crate::NO_EPOCH`]: no
    /// per-job ledger, the pre-server behavior.
    pub job_epoch: u64,
}

/// One page manager: the allocation context of a ⟨iteration, thread⟩ pair
/// (§3.6). Ending the iteration releases the manager's pages and those of
/// its whole subtree.
#[derive(Debug)]
struct PageManager {
    parent: Option<u32>,
    children: Vec<u32>,
    alive: bool,
    /// Page slots per size class; the last page of a class is the current
    /// bump target.
    class_pages: [Vec<u32>; SIZE_CLASS_LIMITS.len()],
    /// Oversize-table indices owned by this manager.
    oversize: Vec<u32>,
}

impl PageManager {
    fn new(parent: Option<u32>) -> Self {
        Self {
            parent,
            children: Vec::new(),
            alive: true,
            class_pages: Default::default(),
            oversize: Vec::new(),
        }
    }
}

/// The paged native heap for one thread of execution.
///
/// Multi-threaded programs give each thread its own `PagedHeap` (the paper's
/// per-thread page managers, §3.6) and share at most a [`PagePool`]. The
/// heap also runs §3.4's lock-ID protocol on its records' header words
/// ([`PagedHeap::monitor_enter`] / [`PagedHeap::monitor_exit`]); it is
/// single-threaded, so a monitor never blocks.
/// See the [crate documentation](crate) for an example.
#[derive(Debug)]
pub struct PagedHeap {
    types: Vec<RecordLayout>,
    /// Allocation shape of each entry of `types`.
    shapes: Vec<Shape>,
    pages: Vec<Page>,
    free_pages: Vec<u32>,
    /// Slots whose buffers were surrendered to the shared pool; reused
    /// before `pages` grows.
    vacant_slots: Vec<u32>,
    /// Shared page supply; `None` for a standalone (single-thread) heap.
    pool: Option<Arc<PagePool>>,
    oversize: Vec<Option<Vec<u8>>>,
    free_oversize: Vec<u32>,
    managers: Vec<PageManager>,
    free_managers: Vec<u32>,
    /// Stack of active iterations; the top is the current allocation target.
    iteration_stack: Vec<u32>,
    /// The open page of each size class in the current manager: always
    /// `class_pages[c].last()` of the manager on top of `iteration_stack`,
    /// kept here so that a bump looks up no manager.
    open_pages: [Option<u32>; SIZE_CLASS_LIMITS.len()],
    config: PagedHeapConfig,
    stats: NativeStats,
    type_alloc_counts: Vec<u64>,
    /// Cached `bytes_held` (pages + live oversize buffers).
    held_bytes: u64,
    /// Installed fault schedule; consulted on every allocation.
    fault: Option<FaultPlan>,
    /// Monitor holds per installed lock ID, indexed by ID − 1.
    lock_holds: Vec<u32>,
    /// Lock IDs returned by their last `monitor_exit`, reused first.
    free_lock_ids: Vec<u16>,
}

impl PagedHeap {
    /// Creates a heap with no memory budget.
    pub fn new() -> Self {
        Self::with_config(PagedHeapConfig::default())
    }

    /// Creates a heap drawing its pages from a shared [`PagePool`] (§3.6's
    /// per-thread manager over a process-wide page supply).
    pub fn with_pool(config: PagedHeapConfig, pool: Arc<PagePool>) -> Self {
        let mut heap = Self::with_config(config);
        heap.pool = Some(pool);
        heap
    }

    /// The shared pool this heap draws from, if any.
    pub fn pool(&self) -> Option<&Arc<PagePool>> {
        self.pool.as_ref()
    }

    /// Creates a heap with the given configuration.
    pub fn with_config(config: PagedHeapConfig) -> Self {
        let mut types = Vec::new();
        let mut type_alloc_counts = Vec::new();
        for name in ["byte[]", "int[]", "long[]", "ref[]"] {
            types.push(RecordLayout::new(name, &[]));
            type_alloc_counts.push(0);
        }
        Self {
            shapes: types.iter().map(Shape::of).collect(),
            types,
            pages: Vec::new(),
            free_pages: Vec::new(),
            vacant_slots: Vec::new(),
            pool: None,
            oversize: Vec::new(),
            free_oversize: Vec::new(),
            // Manager 0 is the default ⟨⊥, t⟩ manager that lives until the
            // thread (heap) terminates.
            managers: vec![PageManager::new(None)],
            free_managers: Vec::new(),
            iteration_stack: vec![0],
            open_pages: [None; SIZE_CLASS_LIMITS.len()],
            config,
            stats: NativeStats::default(),
            type_alloc_counts,
            held_bytes: 0,
            fault: None,
            lock_holds: Vec::new(),
            free_lock_ids: Vec::new(),
        }
    }

    /// Installs a fault schedule: allocations fail and recycled pages are
    /// poisoned per the plan. Clone one plan across every heap of a run to
    /// inject against the process-wide allocation sequence.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = Some(plan);
    }

    /// Returns an injected [`OutOfMemory`] if the installed plan says this
    /// allocation of `size` bytes should fail.
    #[inline]
    fn check_alloc_fault(&self, size: usize) -> Result<(), OutOfMemory> {
        if let Some(plan) = &self.fault {
            if plan.should_fail_allocation() {
                return Err(OutOfMemory::new(
                    self.held_bytes + size as u64,
                    self.config.budget_bytes.unwrap_or(0),
                )
                .with_context(self.held_bytes, size as u64, "fault-injection"));
            }
        }
        Ok(())
    }

    /// Registers a data type and returns its record type ID.
    pub fn register_type(&mut self, name: &str, fields: &[FieldKind]) -> TypeId {
        let id = TypeId(self.types.len() as u16);
        let layout = RecordLayout::new(name, fields);
        self.shapes.push(Shape::of(&layout));
        self.types.push(layout);
        self.type_alloc_counts.push(0);
        id
    }

    /// The layout registered for `ty`.
    ///
    /// # Panics
    ///
    /// Panics if `ty` was not registered with this heap.
    pub fn layout(&self, ty: TypeId) -> &RecordLayout {
        &self.types[ty.0 as usize]
    }

    /// Number of records ever allocated for `ty`.
    pub fn alloc_count(&self, ty: TypeId) -> u64 {
        self.type_alloc_counts[ty.0 as usize]
    }

    /// Allocation statistics.
    pub fn stats(&self) -> &NativeStats {
        &self.stats
    }

    /// Native bytes currently held (all pages ever created that have not
    /// been returned to the OS, plus live oversize buffers). Recycled pages
    /// are retained memory and therefore count.
    pub fn bytes_held(&self) -> u64 {
        self.held_bytes
    }

    /// Number of page objects currently alive (live + recycled); the `p` of
    /// the paper's `O(t*n + p)` object bound. Slots whose buffers went back
    /// to the shared pool do not count.
    pub fn page_objects(&self) -> usize {
        self.pages.len() - self.vacant_slots.len()
    }

    /// Number of live oversize buffers (allocations too large for any page
    /// size class, held as standalone buffers until freed or reclaimed).
    pub fn oversize_objects(&self) -> usize {
        self.oversize.iter().filter(|o| o.is_some()).count()
    }

    /// Per-type allocation profile: `(type name, records ever allocated)`
    /// for every registered type with at least one allocation, in
    /// registration order (reserved array types 0–3 included when used).
    /// This is the census's `n` side — record traffic that on the managed
    /// backend would each have been a heap object.
    pub fn type_alloc_profile(&self) -> Vec<(String, u64)> {
        self.types
            .iter()
            .zip(&self.type_alloc_counts)
            .filter(|(_, &count)| count > 0)
            .map(|(layout, &count)| (layout.name().to_string(), count))
            .collect()
    }

    // ----- iterations ------------------------------------------------------

    /// Starts a (possibly nested) iteration: creates a page manager as a
    /// child of the current one and makes it the allocation target.
    pub fn iteration_start(&mut self) -> IterationId {
        let parent = *self.iteration_stack.last().expect("default manager");
        let id = if let Some(slot) = self.free_managers.pop() {
            self.managers[slot as usize] = PageManager::new(Some(parent));
            slot
        } else {
            self.managers.push(PageManager::new(Some(parent)));
            (self.managers.len() - 1) as u32
        };
        self.managers[parent as usize].children.push(id);
        self.iteration_stack.push(id);
        self.open_pages = [None; SIZE_CLASS_LIMITS.len()];
        self.stats.iterations_started += 1;
        IterationId(id)
    }

    /// Ends an iteration, recycling every page of its manager subtree.
    ///
    /// # Panics
    ///
    /// Panics if `iter` is not the innermost running iteration (iterations
    /// must nest).
    pub fn iteration_end(&mut self, iter: IterationId) {
        let top = self.iteration_stack.pop().expect("default manager");
        assert_eq!(
            top, iter.0,
            "iteration_end out of order: ending {:?} but innermost is {top}",
            iter
        );
        assert!(
            !self.iteration_stack.is_empty(),
            "cannot end the default manager"
        );
        self.release_subtree(iter.0);
        let current = &self.managers[*self.iteration_stack.last().expect("checked") as usize];
        self.open_pages = std::array::from_fn(|c| current.class_pages[c].last().copied());
        self.stats.iterations_ended += 1;
    }

    fn release_subtree(&mut self, root: u32) {
        // Detach the subtree root from its parent; every other manager in
        // the subtree has its parent inside the subtree.
        if let Some(parent) = self.managers[root as usize].parent {
            self.managers[parent as usize]
                .children
                .retain(|&c| c != root);
        }
        let mut stack = vec![root];
        while let Some(m) = stack.pop() {
            let (children, class_pages, oversize) = {
                let mgr = &mut self.managers[m as usize];
                mgr.alive = false;
                (
                    std::mem::take(&mut mgr.children),
                    std::mem::take(&mut mgr.class_pages),
                    std::mem::take(&mut mgr.oversize),
                )
            };
            stack.extend_from_slice(&children);
            for pages in class_pages {
                for slot in pages {
                    self.pages[slot as usize].recycle();
                    if let Some(plan) = &self.fault {
                        if plan.poison_recycled_pages() {
                            self.pages[slot as usize].poison_stale();
                            plan.note_poisoned();
                        }
                    }
                    self.free_pages.push(slot);
                    self.stats.pages_recycled += 1;
                }
            }
            for idx in oversize {
                if let Some(buf) = self.oversize[idx as usize].take() {
                    self.stats.oversize_freed += 1;
                    self.held_bytes -= buf.len() as u64;
                    drop(buf);
                    self.free_oversize.push(idx);
                }
            }
            self.free_managers.push(m);
        }
    }

    /// Depth of iteration nesting (0 = only the default manager is active).
    pub fn iteration_depth(&self) -> usize {
        self.iteration_stack.len() - 1
    }

    // ----- allocation ------------------------------------------------------

    /// Installs `page` into a slot (reusing a vacated one if possible) and
    /// charges it against the budget accounting.
    fn adopt_page(&mut self, page: Page) -> u32 {
        self.held_bytes += PAGE_BYTES as u64;
        if self.held_bytes > self.stats.peak_bytes {
            self.stats.peak_bytes = self.held_bytes;
        }
        if let Some(slot) = self.vacant_slots.pop() {
            self.pages[slot as usize] = page;
            slot
        } else {
            self.pages.push(page);
            (self.pages.len() - 1) as u32
        }
    }

    fn grab_page(&mut self) -> Result<u32, OutOfMemory> {
        if let Some(slot) = self.free_pages.pop() {
            return Ok(slot);
        }
        // A new page needs a slot a `PageRef` can name: past
        // `MAX_PAGE_SLOTS` the reference would wrap into the oversize flag.
        if self.vacant_slots.is_empty() && self.pages.len() >= MAX_PAGE_SLOTS as usize {
            let addressable = u64::from(MAX_PAGE_SLOTS) * PAGE_BYTES as u64;
            return Err(
                OutOfMemory::new(addressable + PAGE_BYTES as u64, addressable).with_context(
                    self.held_bytes,
                    PAGE_BYTES as u64,
                    "page-slots",
                ),
            );
        }
        let next = self.held_bytes + PAGE_BYTES as u64;
        if let Some(budget) = self.config.budget_bytes {
            if next > budget {
                return Err(OutOfMemory::new(next, budget).with_context(
                    self.held_bytes,
                    PAGE_BYTES as u64,
                    "paged-heap",
                ));
            }
        }
        // One page from the shared pool: a recycled page keeps its dirty
        // watermark, so adopting it skips the full-page zeroing a fresh
        // `calloc` pays.
        let pooled = self
            .pool
            .as_ref()
            .and_then(|p| p.acquire(self.config.job_epoch));
        if let Some(pooled) = pooled {
            self.stats.pages_from_pool += 1;
            return Ok(self.adopt_page(Page::from_pooled(pooled)));
        }
        let slot = self.adopt_page(Page::new());
        self.stats.pages_created += 1;
        Ok(slot)
    }

    /// Surrenders every free (recycled) page to the shared pool so other
    /// threads can reuse them; returns how many pages were released. No-op
    /// for a heap without an attached pool.
    ///
    /// Live pages — those still owned by an active manager — are never
    /// released; call this after `iteration_end` has recycled a scope.
    pub fn release_pages_to_pool(&mut self) -> usize {
        let Some(pool) = self.pool.clone() else {
            return 0;
        };
        let slots = std::mem::take(&mut self.free_pages);
        let mut batch = Vec::with_capacity(slots.len());
        for slot in slots {
            let page = std::mem::replace(&mut self.pages[slot as usize], Page::placeholder());
            batch.push(page.into_pooled());
            self.vacant_slots.push(slot);
            self.held_bytes -= PAGE_BYTES as u64;
        }
        let n = batch.len();
        self.stats.pages_to_pool += n as u64;
        pool.release_batch(batch, self.config.job_epoch);
        n
    }

    /// Places a record of `size` bytes and size class `class` in the
    /// current manager (§3.6), born as [`Page::bump`] writes it: `head` as
    /// its first 8 bytes, the `kept` bytes after it left for the caller,
    /// the rest zero. The common case is one bump on the class's open page,
    /// the page [`PagedHeap::alloc_fast`] tries too.
    #[inline]
    fn allocate(
        &mut self,
        size: usize,
        class: usize,
        head: u64,
        kept: usize,
    ) -> Result<PageRef, OutOfMemory> {
        if size < LARGE_RECORD_BYTES {
            if let Some(r) = self.bump_open(size, class, head, kept) {
                return Ok(r);
            }
        }
        self.allocate_after_miss(size, class, head, kept)
    }

    /// One bump on the open (most recently taken) page of `class` in the
    /// current manager; `None` if the class has no page yet or it is full.
    #[inline]
    fn bump_open(&mut self, size: usize, class: usize, head: u64, kept: usize) -> Option<PageRef> {
        let slot = self.open_pages[class]?;
        let offset = self.pages[slot as usize].bump(size, head, kept)?;
        Some(PageRef::paged(slot, offset))
    }

    /// [`PagedHeap::allocate`] once the open page could not take the
    /// record: a record no page can hold gets an oversize buffer, a large
    /// one starts on an empty page (policy 2), and a small one takes the
    /// first of the class's older pages it fits, else an empty page
    /// (policy 1), which becomes the class's open page.
    fn allocate_after_miss(
        &mut self,
        size: usize,
        class: usize,
        head: u64,
        kept: usize,
    ) -> Result<PageRef, OutOfMemory> {
        if size > PAGE_CAPACITY {
            return self.allocate_oversize(size, head);
        }
        let mgr_id = *self.iteration_stack.last().expect("default manager") as usize;
        if size < LARGE_RECORD_BYTES {
            let older = self.managers[mgr_id].class_pages[class]
                .iter()
                .rev()
                .skip(1);
            for &slot in older.take(FIRST_FIT_PAGES - 1) {
                if let Some(offset) = self.pages[slot as usize].bump(size, head, kept) {
                    return Ok(PageRef::paged(slot, offset));
                }
            }
        }
        let slot = self.grab_page()?;
        let offset = self.pages[slot as usize]
            .bump(size, head, kept)
            .expect("an empty page fits any record up to PAGE_CAPACITY");
        self.managers[mgr_id].class_pages[class].push(slot);
        self.open_pages[class] = Some(slot);
        Ok(PageRef::paged(slot, offset))
    }

    fn allocate_oversize(&mut self, size: usize, head: u64) -> Result<PageRef, OutOfMemory> {
        let next = self.held_bytes + size as u64;
        if let Some(budget) = self.config.budget_bytes {
            if next > budget {
                return Err(OutOfMemory::new(next, budget).with_context(
                    self.held_bytes,
                    size as u64,
                    "oversize",
                ));
            }
        }
        let mut buf = vec![0u8; size];
        buf[..8].copy_from_slice(&head.to_le_bytes());
        let idx = if let Some(idx) = self.free_oversize.pop() {
            self.oversize[idx as usize] = Some(buf);
            idx
        } else {
            self.oversize.push(Some(buf));
            (self.oversize.len() - 1) as u32
        };
        let mgr_id = *self.iteration_stack.last().expect("default manager") as usize;
        self.managers[mgr_id].oversize.push(idx);
        self.stats.oversize_created += 1;
        self.held_bytes = next;
        if next > self.stats.peak_bytes {
            self.stats.peak_bytes = next;
        }
        Ok(PageRef::oversize(idx))
    }

    /// Allocates a record of type `ty`, zero-initialized, in the current
    /// iteration's pages.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfMemory`] if the configured budget would be exceeded.
    #[inline]
    pub fn alloc(&mut self, ty: TypeId) -> Result<PageRef, OutOfMemory> {
        let Shape { size, class } = self.shapes[ty.0 as usize];
        self.check_alloc_fault(size)?;
        self.type_alloc_counts[ty.0 as usize] += 1;
        self.stats.records_allocated += 1;
        self.allocate(size, class, u64::from(ty.0), 0)
    }

    /// Bump-pointer fast path for [`PagedHeap::alloc`], used by allocation
    /// sites the compiler marked as sitting inside a loop (the `fastalloc`
    /// pass): tries only the *open* (most recently used) page of the
    /// record's size class and returns `None` on a miss, leaving the caller
    /// to fall back to `alloc`. Large and oversize records always miss, as
    /// do all allocations under fault injection (so injected faults keep
    /// routing through the one accountable slow path).
    #[inline]
    pub fn alloc_fast(&mut self, ty: TypeId) -> Option<PageRef> {
        let Shape { size, class } = self.shapes[ty.0 as usize];
        if self.fault.is_some() || size >= LARGE_RECORD_BYTES {
            return None;
        }
        let r = self.bump_open(size, class, u64::from(ty.0), 0)?;
        self.type_alloc_counts[ty.0 as usize] += 1;
        self.stats.records_allocated += 1;
        Some(r)
    }

    /// Allocates an array record of `len` elements of `kind`, zeroed.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfMemory`] if the configured budget would be exceeded.
    #[inline]
    pub fn alloc_array(&mut self, kind: ElemKind, len: usize) -> Result<PageRef, OutOfMemory> {
        self.new_array(kind, len, false)
    }

    /// Allocates an array record of `len` elements of `kind` that is born
    /// with its contents: `init` receives the element storage (exactly
    /// `len × element size` bytes, as [`PagedHeap::array_bytes_mut`] would
    /// borrow it) and must write every byte, because it is not zeroed
    /// first. Placement, the fault check, the counters and the budget are
    /// those of [`PagedHeap::alloc_array`].
    ///
    /// # Errors
    ///
    /// Returns [`OutOfMemory`] if the configured budget would be exceeded;
    /// `init` is not called then.
    #[inline]
    pub fn alloc_array_init(
        &mut self,
        kind: ElemKind,
        len: usize,
        init: impl FnOnce(&mut [u8]),
    ) -> Result<PageRef, OutOfMemory> {
        let r = self.new_array(kind, len, true)?;
        let at = ARRAY_HEADER_BYTES as usize;
        init(&mut self.record_bytes_mut(r)[at..at + len * kind.size() as usize]);
        Ok(r)
    }

    /// Allocates an array record born with its 8-byte header and with its
    /// padding to the next 8-byte boundary zeroed; its elements are zeroed
    /// too, unless `keep_elems` leaves them for the caller to overwrite.
    #[inline]
    fn new_array(
        &mut self,
        kind: ElemKind,
        len: usize,
        keep_elems: bool,
    ) -> Result<PageRef, OutOfMemory> {
        let body = len * kind.size() as usize;
        let size = (ARRAY_HEADER_BYTES as usize + body + 7) & !7;
        self.check_alloc_fault(size)?;
        let type_id = match kind {
            ElemKind::U8 => ARRAY_TYPE_U8,
            ElemKind::I32 => ARRAY_TYPE_I32,
            ElemKind::I64 => ARRAY_TYPE_I64,
            ElemKind::Ref => ARRAY_TYPE_REF,
        };
        self.type_alloc_counts[type_id as usize] += 1;
        self.stats.records_allocated += 1;
        // Type ID, a zero lock word, then the length.
        let head = u64::from(type_id) | u64::from(len as u32) << 32;
        let kept = if keep_elems { body } else { 0 };
        self.allocate(size, size_class(size), head, kept)
    }

    /// Frees an oversize buffer early (§3.6: oversize pages "can be
    /// deallocated earlier when they are no longer needed, e.g., upon the
    /// resizing of a data structure").
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::NotOversize`] if `r` is a paged reference and
    /// [`HeapError::OversizeDoubleFree`] if the buffer was already freed.
    pub fn free_oversize(&mut self, r: PageRef) -> Result<(), HeapError> {
        if !r.is_oversize() {
            return Err(HeapError::NotOversize);
        }
        let idx = r.oversize_index();
        let buf = self.oversize[idx as usize]
            .take()
            .ok_or(HeapError::OversizeDoubleFree { index: idx })?;
        self.held_bytes -= buf.len() as u64;
        drop(buf);
        self.free_oversize.push(idx);
        for mgr in &mut self.managers {
            if let Some(pos) = mgr.oversize.iter().position(|&o| o == idx) {
                mgr.oversize.swap_remove(pos);
                break;
            }
        }
        self.stats.oversize_freed += 1;
        Ok(())
    }

    // ----- raw access (header-relative) ------------------------------------

    /// The buffer record `r` lives in and its offset there: its page's
    /// bytes, or its own oversize buffer from 0.
    #[inline]
    fn locate(&self, r: PageRef) -> (&[u8], usize) {
        debug_assert!(!r.is_null(), "null page reference");
        if r.is_oversize() {
            let buf = self.oversize[r.oversize_index() as usize]
                .as_ref()
                .expect("use after oversize free");
            (buf, 0)
        } else {
            (&self.pages[r.slot() as usize].bytes, r.offset() as usize)
        }
    }

    #[inline]
    fn locate_mut(&mut self, r: PageRef) -> (&mut [u8], usize) {
        debug_assert!(!r.is_null(), "null page reference");
        if r.is_oversize() {
            let buf = self.oversize[r.oversize_index() as usize]
                .as_mut()
                .expect("use after oversize free");
            (buf, 0)
        } else {
            (
                &mut self.pages[r.slot() as usize].bytes,
                r.offset() as usize,
            )
        }
    }

    #[inline]
    fn record_bytes(&self, r: PageRef) -> &[u8] {
        let (bytes, start) = self.locate(r);
        &bytes[start..]
    }

    #[inline]
    fn record_bytes_mut(&mut self, r: PageRef) -> &mut [u8] {
        let (bytes, start) = self.locate_mut(r);
        &mut bytes[start..]
    }

    /// The `N` bytes at header-relative offset `at` of record `r`, behind
    /// one range check.
    #[inline]
    fn read_at<const N: usize>(&self, r: PageRef, at: usize) -> [u8; N] {
        let (bytes, start) = self.locate(r);
        bytes[start + at..start + at + N]
            .try_into()
            .expect("an N-byte range")
    }

    #[inline]
    fn write_at<const N: usize>(&mut self, r: PageRef, at: usize, v: [u8; N]) {
        let (bytes, start) = self.locate_mut(r);
        bytes[start + at..start + at + N].copy_from_slice(&v);
    }

    /// The body of record `r`: its bytes after the record header, to the
    /// end of its page (or oversize buffer). A type's fields sit at their
    /// [`RecordLayout::offset`]s, an array's length at 0 and its elements
    /// after it: the same bytes as the body of the object on the managed
    /// heap (§2.1), so one caller reads both.
    #[inline]
    pub fn body(&self, r: PageRef) -> &[u8] {
        &self.record_bytes(r)[RECORD_HEADER_BYTES as usize..]
    }

    /// Mutable counterpart of [`PagedHeap::body`]. Bytes written into a
    /// reference field or a `Ref` element are taken for a page reference.
    #[inline]
    pub fn body_mut(&mut self, r: PageRef) -> &mut [u8] {
        &mut self.record_bytes_mut(r)[RECORD_HEADER_BYTES as usize..]
    }

    /// The `N` bytes at offset `at` of record `r`'s body: what
    /// `body(r)[at..at + N]` reads, behind one range check instead of two.
    ///
    /// # Panics
    ///
    /// Panics if the bytes would end past the record's page.
    #[inline]
    pub fn read_body<const N: usize>(&self, r: PageRef, at: u32) -> [u8; N] {
        self.read_at(r, (RECORD_HEADER_BYTES + at) as usize)
    }

    /// Writes `v` at offset `at` of record `r`'s body: the counterpart of
    /// [`PagedHeap::read_body`].
    ///
    /// # Panics
    ///
    /// Panics if the bytes would end past the record's page.
    #[inline]
    pub fn write_body<const N: usize>(&mut self, r: PageRef, at: u32, v: [u8; N]) {
        self.write_at(r, (RECORD_HEADER_BYTES + at) as usize, v);
    }

    #[inline]
    fn u16_of(b: &[u8], at: usize) -> u16 {
        u16::from_le_bytes([b[at], b[at + 1]])
    }

    #[inline]
    fn u32_of(b: &[u8], at: usize) -> u32 {
        u32::from_le_bytes(b[at..at + 4].try_into().expect("4-byte read"))
    }

    /// The record's type ID (first header field), used by `resolve` for
    /// virtual dispatch (§3.2).
    #[inline]
    pub fn type_of(&self, r: PageRef) -> TypeId {
        TypeId(u16::from_le_bytes(self.read_at(r, 0)))
    }

    /// Returns `true` if `r` refers to an array record.
    pub fn is_array(&self, r: PageRef) -> bool {
        self.type_of(r).0 < FIRST_USER_TYPE
    }

    /// The record's lock ID header field (0 = unlocked).
    fn lock_word(&self, r: PageRef) -> u16 {
        u16::from_le_bytes(self.read_at(r, 2))
    }

    fn set_lock_word(&mut self, r: PageRef, v: u16) {
        self.write_at(r, 2, v.to_le_bytes());
    }

    /// `monitorenter` on a record or array (§3.4): the first entry installs
    /// a lock ID in the record's header word, reusing a released ID first,
    /// and every entry counts one hold on it. Re-entry is free.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::LockIdsExhausted`] when the record needs a new
    /// ID while all [`MAX_LOCK_IDS`] are held.
    pub fn monitor_enter(&mut self, r: PageRef) -> Result<(), HeapError> {
        if let Some(holds) = self.lock_holds_of(self.lock_word(r)) {
            *holds += 1;
            return Ok(());
        }
        let id = match self.free_lock_ids.pop() {
            Some(id) => id,
            None if self.lock_holds.len() < usize::from(MAX_LOCK_IDS) => {
                self.lock_holds.push(0);
                self.lock_holds.len() as u16
            }
            None => return Err(HeapError::LockIdsExhausted),
        };
        self.set_lock_word(r, id);
        self.lock_holds[usize::from(id) - 1] = 1;
        Ok(())
    }

    /// `monitorexit` on a record or array: drops one hold, and the last
    /// exit zeroes the header word and returns the ID for reuse. A record
    /// that holds no ID is left alone.
    pub fn monitor_exit(&mut self, r: PageRef) {
        let id = self.lock_word(r);
        let Some(holds) = self.lock_holds_of(id) else {
            return;
        };
        *holds -= 1;
        if *holds == 0 {
            self.set_lock_word(r, 0);
            self.free_lock_ids.push(id);
        }
    }

    /// The hold count of `id` if some record holds it. A header word that
    /// names no held ID (0, or the stale bytes of a reclaimed record) gets
    /// `None`.
    fn lock_holds_of(&mut self, id: u16) -> Option<&mut u32> {
        let holds = self.lock_holds.get_mut(usize::from(id).checked_sub(1)?)?;
        (*holds > 0).then_some(holds)
    }

    // ----- field access -----------------------------------------------------

    /// The offset of field `field` in records of type `ty`, header
    /// included: what the `*_at` accessors take. Fixed once the type is
    /// registered, so a caller resolves it once and reuses it.
    ///
    /// # Panics
    ///
    /// Panics if `ty` is not registered or has no field `field`.
    #[inline]
    pub fn field_offset(&self, ty: TypeId, field: usize) -> u32 {
        debug_assert!(ty.0 >= FIRST_USER_TYPE, "field access on array record");
        RECORD_HEADER_BYTES + self.types[ty.0 as usize].offset(field)
    }

    /// Reads the 32-bit field at offset `at` (see [`PagedHeap::field_offset`]).
    ///
    /// # Panics
    ///
    /// Panics if the field would end past the record's page.
    #[inline]
    pub fn get_i32_at(&self, r: PageRef, at: u32) -> i32 {
        i32::from_le_bytes(self.read_at(r, at as usize))
    }

    /// Writes the 32-bit field at offset `at`.
    ///
    /// # Panics
    ///
    /// Panics if the field would end past the record's page.
    #[inline]
    pub fn set_i32_at(&mut self, r: PageRef, at: u32, v: i32) {
        self.write_at(r, at as usize, v.to_le_bytes());
    }

    /// Reads the 64-bit field at offset `at`.
    ///
    /// # Panics
    ///
    /// Panics if the field would end past the record's page.
    #[inline]
    pub fn get_i64_at(&self, r: PageRef, at: u32) -> i64 {
        i64::from_le_bytes(self.read_at(r, at as usize))
    }

    /// Writes the 64-bit field at offset `at`.
    ///
    /// # Panics
    ///
    /// Panics if the field would end past the record's page.
    #[inline]
    pub fn set_i64_at(&mut self, r: PageRef, at: u32, v: i64) {
        self.write_at(r, at as usize, v.to_le_bytes());
    }

    /// Reads the reference field at offset `at`: 4 bytes, since a
    /// [`PageRef`] fits 32 bits.
    ///
    /// # Panics
    ///
    /// Panics if the field would end past the record's page.
    #[inline]
    pub fn get_ref_at(&self, r: PageRef, at: u32) -> PageRef {
        PageRef::from_raw(u64::from(u32::from_le_bytes(self.read_at(r, at as usize))))
    }

    /// Writes the reference field at offset `at`.
    ///
    /// # Panics
    ///
    /// Panics if the field would end past the record's page.
    #[inline]
    pub fn set_ref_at(&mut self, r: PageRef, at: u32, v: PageRef) {
        self.set_i32_at(r, at, v.raw() as i32);
    }

    // ----- array access -----------------------------------------------------

    /// Length (in elements) of an array record.
    #[inline]
    pub fn array_len(&self, r: PageRef) -> usize {
        debug_assert!(self.is_array(r), "array_len on non-array record");
        elem_count(self.body(r))
    }

    /// Element kind of an array record.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::NotAnArray`] if `r` is not an array record.
    pub fn array_kind(&self, r: PageRef) -> Result<ElemKind, HeapError> {
        Self::kind_of(self.record_bytes(r))
    }

    #[inline]
    fn kind_of(b: &[u8]) -> Result<ElemKind, HeapError> {
        match Self::u16_of(b, 0) {
            ARRAY_TYPE_U8 => Ok(ElemKind::U8),
            ARRAY_TYPE_I32 => Ok(ElemKind::I32),
            ARRAY_TYPE_I64 => Ok(ElemKind::I64),
            ARRAY_TYPE_REF => Ok(ElemKind::Ref),
            other => Err(HeapError::NotAnArray { type_id: other }),
        }
    }

    /// Reads an `I32` array element.
    #[inline]
    pub fn array_get_i32(&self, r: PageRef, idx: usize) -> i32 {
        i32::from_le_bytes(elem(self.body(r), idx))
    }

    /// Writes an `I32` array element.
    #[inline]
    pub fn array_set_i32(&mut self, r: PageRef, idx: usize, v: i32) {
        set_elem(self.body_mut(r), idx, v.to_le_bytes());
    }

    /// Reads an `I64` array element.
    #[inline]
    pub fn array_get_i64(&self, r: PageRef, idx: usize) -> i64 {
        i64::from_le_bytes(elem(self.body(r), idx))
    }

    /// Writes an `I64` array element.
    #[inline]
    pub fn array_set_i64(&mut self, r: PageRef, idx: usize, v: i64) {
        set_elem(self.body_mut(r), idx, v.to_le_bytes());
    }

    /// Byte range of a primitive array's element storage within its record
    /// slice: exactly `len × element size` bytes, so a caller that chunks
    /// the range by the wrong width still cannot leave the record.
    ///
    /// # Panics
    ///
    /// Panics if the record is not a `U8`, `I32` or `I64` array.
    #[inline]
    fn body_range(b: &[u8]) -> std::ops::Range<usize> {
        let kind = match Self::kind_of(b) {
            Ok(kind) if kind != ElemKind::Ref => kind,
            other => panic!("bulk access needs a primitive array, found {other:?}"),
        };
        let at = ARRAY_HEADER_BYTES as usize;
        at..at + Self::u32_of(b, 4) as usize * kind.size() as usize
    }

    /// The element storage of a primitive (`U8`/`I32`/`I64`) array,
    /// borrowed: little-endian elements, back to back. This is the bulk
    /// access path — the record is resolved and its header read once, and
    /// the caller then walks the slice with plain offset arithmetic (the
    /// access pattern §3.2 generates, and why the paper hand-models
    /// `System.arraycopy`).
    ///
    /// # Panics
    ///
    /// Panics if `r` is not a primitive array.
    #[inline]
    pub fn array_bytes(&self, r: PageRef) -> &[u8] {
        let b = self.record_bytes(r);
        &b[Self::body_range(b)]
    }

    /// Mutable counterpart of [`PagedHeap::array_bytes`].
    ///
    /// # Panics
    ///
    /// Panics if `r` is not a primitive array.
    #[inline]
    pub fn array_bytes_mut(&mut self, r: PageRef) -> &mut [u8] {
        let b = self.record_bytes_mut(r);
        let range = Self::body_range(b);
        &mut b[range]
    }

    /// Reads a `Ref` array element (4 bytes: a `PageRef` fits 32 bits).
    #[inline]
    pub fn array_get_ref(&self, r: PageRef, idx: usize) -> PageRef {
        PageRef::from_raw(u32::from_le_bytes(elem(self.body(r), idx)).into())
    }

    /// Writes a `Ref` array element.
    #[inline]
    pub fn array_set_ref(&mut self, r: PageRef, idx: usize, v: PageRef) {
        set_elem(self.body_mut(r), idx, (v.raw() as u32).to_le_bytes());
    }
}

impl Default for PagedHeap {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for PagedHeap {
    fn drop(&mut self) {
        // A heap dropped without retirement — the unhealthy-store path a
        // scheduler takes after a worker failure — must not strand pool
        // supply: recycled (provably dead) pages go back, so the pool's
        // `pages_returned` counter reconciles even when retirement was
        // skipped. Pages still owned by a live manager (an open iteration
        // at panic time) are the one thing deliberately dropped: their
        // contents are suspect and their buffers unrecoverable without
        // walking a possibly half-built record graph.
        self.release_pages_to_pool();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_roundtrip_all_field_kinds() {
        let mut h = PagedHeap::new();
        let t = h.register_type("T", &[FieldKind::I32, FieldKind::I64, FieldKind::Ref]);
        let [f0, f1, f2] = [0, 1, 2].map(|i| h.field_offset(t, i));
        let r = h.alloc(t).unwrap();
        h.set_i32_at(r, f0, -5);
        h.set_i64_at(r, f1, 1 << 50);
        let other = h.alloc(t).unwrap();
        h.set_ref_at(r, f2, other);
        assert_eq!(h.get_i32_at(r, f0), -5);
        assert_eq!(h.get_i64_at(r, f1), 1 << 50);
        assert_eq!(h.get_ref_at(r, f2), other);
        assert_eq!(h.type_of(r), t);
        assert!(!h.is_array(r));
        assert_eq!(
            h.body(r)[..4],
            (-5i32).to_le_bytes(),
            "field 0 opens the body"
        );
    }

    #[test]
    fn ref_fields_and_elements_take_four_bytes() {
        let mut h = PagedHeap::new();
        let t = h.register_type("T", &[FieldKind::Ref, FieldKind::I32]);
        assert_eq!(record_bytes(h.layout(t)), 12);
        let [next, tail] = [0, 1].map(|i| h.field_offset(t, i));
        let r = h.alloc(t).unwrap();
        let far = h.alloc_array(ElemKind::U8, PAGE_BYTES).unwrap();
        h.set_i32_at(r, tail, -1);
        h.set_ref_at(r, next, far);
        assert_eq!((h.get_ref_at(r, next), h.get_i32_at(r, tail)), (far, -1));
        let refs = h.alloc_array(ElemKind::Ref, 3).unwrap();
        h.array_set_ref(refs, 0, r);
        h.array_set_ref(refs, 1, far);
        let raw = |r: PageRef| (r.raw() as u32).to_le_bytes();
        assert_eq!(
            h.record_bytes(refs)[8..20],
            [raw(r), raw(far), [0; 4]].concat()
        );
        assert_eq!(h.array_get_ref(refs, 2), PageRef::NULL);
    }

    #[test]
    fn a_full_slot_table_is_a_typed_out_of_memory() {
        let mut h = PagedHeap::new();
        let t = h.register_type("T", &[FieldKind::I64]);
        // Placeholders hold no page memory: the table is full, nothing is
        // charged.
        h.pages
            .resize_with(MAX_PAGE_SLOTS as usize, Page::placeholder);
        let err = h.alloc(t).expect_err("no slot left for a page");
        assert_eq!(err.site, "page-slots");
        assert_eq!(err.requested, PAGE_BYTES as u64);
        assert_eq!(err.budget, u64::from(MAX_PAGE_SLOTS) * PAGE_BYTES as u64);
        assert_eq!(h.stats().pages_created, 0);
        // A vacated slot is reused: the first record lands on the top slot.
        h.vacant_slots.push(MAX_PAGE_SLOTS - 1);
        let r = h.alloc(t).unwrap();
        assert_eq!((r.slot(), r.offset()), (MAX_PAGE_SLOTS - 1, 8));
        assert!(!r.is_oversize());
    }

    #[test]
    fn f64_roundtrip() {
        let mut h = PagedHeap::new();
        let t = h.register_type("D", &[FieldKind::I64]);
        let f0 = h.field_offset(t, 0);
        let r = h.alloc(t).unwrap();
        h.set_i64_at(r, f0, (-2.75f64).to_bits() as i64);
        assert_eq!(f64::from_bits(h.get_i64_at(r, f0) as u64), -2.75);
    }

    #[test]
    fn arrays_roundtrip() {
        let mut h = PagedHeap::new();
        let a = h.alloc_array(ElemKind::I32, 100).unwrap();
        assert!(h.is_array(a));
        assert_eq!(h.array_len(a), 100);
        assert_eq!(h.array_kind(a).unwrap(), ElemKind::I32);
        h.array_set_i32(a, 99, 7);
        assert_eq!(h.array_get_i32(a, 99), 7);

        let b = h.alloc_array(ElemKind::U8, 11).unwrap();
        h.array_bytes_mut(b).copy_from_slice(b"hello world");
        assert_eq!(h.array_bytes(b), b"hello world");
        assert_eq!(h.body(b)[..5], [11, 0, 0, 0, b'h'], "length, element 0");

        let c = h.alloc_array(ElemKind::Ref, 3).unwrap();
        h.array_set_ref(c, 2, a);
        assert_eq!(h.array_get_ref(c, 2), a);

        let d = h.alloc_array(ElemKind::I64, 2).unwrap();
        h.array_set_i64(d, 1, 0.5f64.to_bits() as i64);
        assert_eq!(f64::from_bits(h.array_get_i64(d, 1) as u64), 0.5);
    }

    #[test]
    fn array_bytes_span_exactly_the_elements() {
        let mut h = PagedHeap::new();
        let a = h.alloc_array(ElemKind::I32, 3).unwrap();
        let next = h.alloc_array(ElemKind::I32, 1).unwrap();
        h.array_set_i32(next, 0, -1);
        assert_eq!(h.array_bytes(a).len(), 12);
        h.array_bytes_mut(a).fill(0xAB);
        assert_eq!(h.array_get_i32(a, 2), i32::from_le_bytes([0xAB; 4]));
        assert_eq!(h.array_get_i32(next, 0), -1, "neighbour untouched");
        let empty = h.alloc_array(ElemKind::I64, 0).unwrap();
        assert!(h.array_bytes(empty).is_empty());
        let big = h.alloc_array(ElemKind::I64, PAGE_CAPACITY).unwrap();
        assert!(big.is_oversize());
        assert_eq!(h.array_bytes(big).len(), 8 * PAGE_CAPACITY);
    }

    #[test]
    #[should_panic(expected = "primitive array")]
    fn array_bytes_reject_ref_arrays() {
        let mut h = PagedHeap::new();
        let refs = h.alloc_array(ElemKind::Ref, 2).unwrap();
        h.array_bytes(refs);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn array_bounds_are_checked() {
        let mut h = PagedHeap::new();
        let a = h.alloc_array(ElemKind::I32, 4).unwrap();
        h.array_get_i32(a, 4);
    }

    #[test]
    fn iteration_end_recycles_pages() {
        let mut h = PagedHeap::new();
        let t = h.register_type("T", &[FieldKind::I64; 4]);
        let it = h.iteration_start();
        for _ in 0..10_000 {
            h.alloc(t).unwrap();
        }
        let created = h.stats().pages_created;
        assert!(created > 1);
        h.iteration_end(it);
        assert_eq!(h.stats().pages_recycled, created);

        // A second iteration reuses the recycled pages: no new creations.
        let it = h.iteration_start();
        for _ in 0..10_000 {
            h.alloc(t).unwrap();
        }
        h.iteration_end(it);
        assert_eq!(h.stats().pages_created, created);
    }

    #[test]
    fn nested_iterations_release_subtrees() {
        let mut h = PagedHeap::new();
        let t = h.register_type("T", &[FieldKind::I64]);
        let outer = h.iteration_start();
        h.alloc(t).unwrap();
        let inner = h.iteration_start();
        assert_eq!(h.iteration_depth(), 2);
        h.alloc(t).unwrap();
        h.iteration_end(inner);
        assert_eq!(h.iteration_depth(), 1);
        h.iteration_end(outer);
        assert_eq!(h.iteration_depth(), 0);
        assert_eq!(h.stats().pages_recycled, h.stats().pages_created);
    }

    #[test]
    fn ending_outer_iteration_releases_unfinished_children() {
        // The paper releases "pages controlled by the managers in the
        // subtree rooted at m" — even if a child manager was left running
        // (e.g. a thread's manager).
        let mut h = PagedHeap::new();
        let t = h.register_type("T", &[FieldKind::I64]);
        let outer = h.iteration_start();
        let _inner = h.iteration_start();
        h.alloc(t).unwrap();
        // End inner first as required by nesting.
        h.iteration_end(_inner);
        h.iteration_end(outer);
        assert_eq!(h.stats().pages_recycled, h.stats().pages_created);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn iteration_end_must_match_innermost() {
        let mut h = PagedHeap::new();
        let outer = h.iteration_start();
        let _inner = h.iteration_start();
        h.iteration_end(outer);
    }

    #[test]
    fn default_manager_allocations_persist_across_iterations() {
        let mut h = PagedHeap::new();
        let t = h.register_type("T", &[FieldKind::I32]);
        let f0 = h.field_offset(t, 0);
        let pre = h.alloc(t).unwrap();
        h.set_i32_at(pre, f0, 9);
        let it = h.iteration_start();
        h.alloc(t).unwrap();
        h.iteration_end(it);
        // The pre-iteration record is untouched.
        assert_eq!(h.get_i32_at(pre, f0), 9);
    }

    #[test]
    fn large_records_get_fresh_pages() {
        let mut h = PagedHeap::new();
        let a = h.alloc_array(ElemKind::U8, 20_000).unwrap();
        let b = h.alloc_array(ElemKind::U8, 20_000).unwrap();
        assert_ne!(a.slot(), b.slot(), "large arrays must not share a page");
        assert_eq!(a.offset(), b.offset());
    }

    #[test]
    fn mid_size_records_pack_onto_shared_pages() {
        // 4-8 KiB arrays must not waste a 32 KiB page each.
        let mut h = PagedHeap::new();
        let a = h.alloc_array(ElemKind::U8, 5000).unwrap();
        let b = h.alloc_array(ElemKind::U8, 5000).unwrap();
        assert_eq!(a.slot(), b.slot(), "mid-size arrays share pages");
    }

    #[test]
    fn oversize_records_roundtrip_and_free_early() {
        let mut h = PagedHeap::new();
        let a = h.alloc_array(ElemKind::I64, 10_000).unwrap();
        assert!(a.is_oversize());
        assert_eq!(h.array_len(a), 10_000);
        h.array_set_i64(a, 9_999, 42);
        assert_eq!(h.array_get_i64(a, 9_999), 42);
        let held = h.bytes_held();
        h.free_oversize(a).unwrap();
        assert!(h.bytes_held() < held);
        assert_eq!(h.stats().oversize_freed, 1);
        assert_eq!(
            h.free_oversize(a),
            Err(HeapError::OversizeDoubleFree {
                index: a.oversize_index()
            })
        );
    }

    #[test]
    fn array_kind_on_non_array_is_a_typed_error() {
        let mut h = PagedHeap::new();
        let t = h.register_type("T", &[FieldKind::I32]);
        let r = h.alloc(t).unwrap();
        assert_eq!(h.array_kind(r), Err(HeapError::NotAnArray { type_id: t.0 }));
        let p = h.alloc_array(ElemKind::U8, 4).unwrap();
        assert_eq!(h.free_oversize(p), Err(HeapError::NotOversize));
    }

    #[test]
    fn budget_is_enforced() {
        let mut h = PagedHeap::with_config(PagedHeapConfig {
            budget_bytes: Some(3 * PAGE_BYTES as u64),
            ..PagedHeapConfig::default()
        });
        let t = h.register_type("T", &[FieldKind::I64; 8]);
        let mut failed = false;
        for _ in 0..10_000 {
            if h.alloc(t).is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed, "expected the page budget to be exhausted");
        assert!(h.bytes_held() <= 3 * PAGE_BYTES as u64);
    }

    #[test]
    fn alloc_counts_per_type() {
        let mut h = PagedHeap::new();
        let t = h.register_type("T", &[FieldKind::I32]);
        let u = h.register_type("U", &[FieldKind::I32]);
        h.alloc(t).unwrap();
        h.alloc(t).unwrap();
        h.alloc(u).unwrap();
        assert_eq!(h.alloc_count(t), 2);
        assert_eq!(h.alloc_count(u), 1);
        assert_eq!(h.stats().records_allocated, 3);
    }

    #[test]
    fn monitors_install_reenter_and_recycle_lock_ids() {
        let mut h = PagedHeap::new();
        let t = h.register_type("T", &[FieldKind::I32]);
        let (a, b) = (h.alloc(t).unwrap(), h.alloc(t).unwrap());
        h.monitor_enter(a).unwrap();
        assert_eq!(h.lock_word(a), 1, "first entry installs an ID");
        h.monitor_enter(a).unwrap();
        h.monitor_enter(b).unwrap();
        assert_eq!(h.lock_word(b), 2);
        h.monitor_exit(a);
        assert_eq!(h.lock_word(a), 1, "one hold left after re-entry");
        h.monitor_exit(a);
        assert_eq!(h.lock_word(a), 0, "the last exit zeroes the word");
        assert_eq!(h.type_of(a), t, "the type header is untouched");
        let c = h.alloc(t).unwrap();
        h.monitor_enter(c).unwrap();
        assert_eq!(h.lock_word(c), 1, "a released ID is reused");
        h.monitor_exit(a); // no ID: a no-op
        assert_eq!((h.lock_word(b), h.lock_word(c)), (2, 1));
        // A word naming no held ID (a reclaimed record's stale bytes) is
        // left alone by an exit and replaced by an entry.
        h.set_lock_word(a, 0xDBDB);
        h.monitor_exit(a);
        h.monitor_enter(a).unwrap();
        assert_eq!(h.lock_word(a), 3);
    }

    #[test]
    fn pool_pages_recycle_across_heaps() {
        let pool = Arc::new(PagePool::with_default_config());
        let mut h1 = PagedHeap::with_pool(PagedHeapConfig::default(), Arc::clone(&pool));
        let t = h1.register_type("T", &[FieldKind::I64; 4]);
        let it = h1.iteration_start();
        for _ in 0..10_000 {
            h1.alloc(t).unwrap();
        }
        h1.iteration_end(it);
        let created = h1.stats().pages_created;
        assert!(created > 1);
        let released = h1.release_pages_to_pool();
        assert_eq!(released as u64, created);
        assert_eq!(h1.page_objects(), 0);
        assert_eq!(h1.bytes_held(), 0);
        assert_eq!(pool.available() as u64, created);

        // A second heap (another thread's, conceptually) runs the same
        // workload entirely on recycled buffers: zero fresh pages.
        let mut h2 = PagedHeap::with_pool(PagedHeapConfig::default(), Arc::clone(&pool));
        let t2 = h2.register_type("T", &[FieldKind::I64; 4]);
        let it = h2.iteration_start();
        for _ in 0..10_000 {
            h2.alloc(t2).unwrap();
        }
        h2.iteration_end(it);
        assert_eq!(h2.stats().pages_created, 0, "all pages came from the pool");
        assert_eq!(h2.stats().pages_from_pool, created);
    }

    #[test]
    fn pool_acquire_respects_budget() {
        let pool = Arc::new(PagePool::with_default_config());
        // Prime the pool with plenty of pages.
        let mut donor = PagedHeap::with_pool(PagedHeapConfig::default(), Arc::clone(&pool));
        let t = donor.register_type("T", &[FieldKind::I64; 4]);
        let it = donor.iteration_start();
        for _ in 0..20_000 {
            donor.alloc(t).unwrap();
        }
        donor.iteration_end(it);
        donor.release_pages_to_pool();

        let budget = 3 * PAGE_BYTES as u64;
        let mut h = PagedHeap::with_pool(
            PagedHeapConfig {
                budget_bytes: Some(budget),
                ..PagedHeapConfig::default()
            },
            Arc::clone(&pool),
        );
        let t = h.register_type("T", &[FieldKind::I64; 8]);
        let mut failed = false;
        for _ in 0..10_000 {
            if h.alloc(t).is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed, "budget must bound pool adoption too");
        assert!(h.bytes_held() <= budget, "held {} > budget", h.bytes_held());
    }

    /// Fills the pool through a donor heap and returns the supply size.
    fn primed_pool() -> (Arc<PagePool>, usize) {
        let pool = Arc::new(PagePool::with_default_config());
        let mut donor = PagedHeap::with_pool(PagedHeapConfig::default(), Arc::clone(&pool));
        let t = donor.register_type("T", &[FieldKind::I64; 4]);
        let it = donor.iteration_start();
        for _ in 0..10_000 {
            donor.alloc(t).unwrap();
        }
        donor.iteration_end(it);
        let supply = donor.release_pages_to_pool();
        assert!(supply > 1, "donor must return more than one page");
        (pool, supply)
    }

    #[test]
    fn heap_takes_from_the_pool_only_the_pages_it_adopts() {
        let (pool, supply) = primed_pool();
        let mut h = PagedHeap::with_pool(PagedHeapConfig::default(), Arc::clone(&pool));
        let t = h.register_type("T", &[FieldKind::I64; 4]);
        let it = h.iteration_start();
        h.alloc(t).unwrap();
        h.iteration_end(it);
        // One allocation adopted one page; every other page stayed in the
        // pool, free for any other heap.
        assert_eq!(h.stats().pages_from_pool, 1);
        assert_eq!(h.page_objects(), 1);
        assert_eq!(h.bytes_held(), PAGE_BYTES as u64);
        assert_eq!(pool.available(), supply - 1);
        assert_eq!(pool.counters().pages_handed_out, 1);
        // Retirement returns the recycled page: every page is back.
        assert_eq!(h.release_pages_to_pool(), 1);
        assert_eq!(pool.available(), supply);
        let c = pool.counters();
        assert_eq!(c.pages_returned - supply as u64, c.pages_handed_out);
    }

    #[test]
    fn dropped_heap_hands_recycled_pages_back() {
        let (pool, supply) = primed_pool();
        let mut h = PagedHeap::with_pool(PagedHeapConfig::default(), Arc::clone(&pool));
        let t = h.register_type("T", &[FieldKind::I64; 4]);
        h.alloc(t).unwrap(); // default manager: the adopted page stays live
        let it = h.iteration_start();
        h.alloc_array(ElemKind::I64, 8).unwrap();
        h.iteration_end(it); // the iteration's page is recycled, not yet released
        drop(h);
        // The live page died with the heap; the recycled one went back.
        assert_eq!(pool.available(), supply - 1);
    }

    #[test]
    fn continuous_allocations_are_contiguous() {
        // §3.6 policy 1: consecutive requests of one size class land
        // contiguously on the same page.
        let mut h = PagedHeap::new();
        let t = h.register_type("T", &[FieldKind::I32, FieldKind::I32]);
        let a = h.alloc(t).unwrap();
        let b = h.alloc(t).unwrap();
        assert_eq!(a.slot(), b.slot());
        assert_eq!(b.offset() - a.offset(), 16); // 4 hdr + 8 body, aligned
    }

    /// A fixed mixed-size script: records and arrays in all five size
    /// classes, a first-fit onto an older page, a large record, an
    /// oversize array, nested iterations and recycled pages. Returns every
    /// reference it was handed, in order (0 for a fast-path miss), and the
    /// heap's `(pages_created, pages_recycled)`.
    fn placement_script() -> (Vec<u64>, u64, u64) {
        fn bytes(h: &mut PagedHeap, len: usize) -> u64 {
            let r = h.alloc_array_init(ElemKind::U8, len, |b| b.fill(0x5A));
            r.unwrap().raw()
        }
        let mut h = PagedHeap::new();
        let small = h.register_type("Small", &[FieldKind::I32; 2]);
        let mid = h.register_type("Mid", &[FieldKind::I64; 20]);
        let big = h.register_type("Big", &[FieldKind::I64; 100]);
        let mut refs = Vec::new();
        refs.push(h.alloc(small).unwrap().raw());
        refs.push(h.alloc(small).unwrap().raw());
        refs.push(bytes(&mut h, 13)); // 21 → 24 bytes, class 0
        let outer = h.iteration_start();
        refs.push(h.alloc(mid).unwrap().raw());
        refs.push(bytes(&mut h, 200)); // class 1
        refs.push(h.alloc(big).unwrap().raw());
        refs.push(bytes(&mut h, 800)); // class 2
        // Class 3: six 5000-byte arrays leave 2760 bytes on page A; six
        // 5400-byte ones fill page B to 360 bytes; a 2000-byte array then
        // misses the open page B and first-fits onto A.
        for _ in 0..6 {
            refs.push(bytes(&mut h, 4992));
        }
        for _ in 0..6 {
            refs.push(h.alloc_array(ElemKind::U8, 5392).unwrap().raw());
        }
        refs.push(bytes(&mut h, 1992));
        refs.push(bytes(&mut h, 4992)); // fits neither A nor B: a fresh page
        // Class 4 and a large record, which starts on an empty page that a
        // later class-4 record shares.
        refs.push(bytes(&mut h, 10_000));
        refs.push(bytes(&mut h, LARGE_RECORD_BYTES));
        refs.push(bytes(&mut h, 10_000));
        refs.push(bytes(&mut h, PAGE_CAPACITY)); // oversize
        let inner = h.iteration_start();
        refs.push(h.alloc(small).unwrap().raw());
        refs.push(bytes(&mut h, 5));
        refs.push(h.alloc(mid).unwrap().raw());
        h.iteration_end(inner);
        let inner = h.iteration_start();
        refs.push(h.alloc(small).unwrap().raw());
        refs.push(h.alloc_fast(small).map_or(0, PageRef::raw));
        refs.push(h.alloc_fast(big).map_or(0, PageRef::raw));
        let ints = h.alloc_array_init(ElemKind::I32, 7, |b| b.fill(0xA5));
        refs.push(ints.unwrap().raw());
        h.iteration_end(inner);
        h.iteration_end(outer);
        let it = h.iteration_start();
        refs.push(h.alloc(big).unwrap().raw());
        refs.push(bytes(&mut h, 4992));
        h.iteration_end(it);
        let stats = h.stats();
        (refs, stats.pages_created, stats.pages_recycled)
    }

    #[test]
    fn placement_is_pinned() {
        // Recorded from the allocator before the open-page fast path and
        // born-initialised arrays: neither may move a single record. The
        // values are `slot << 12 | offset / 8`.
        let expected: [u64; 34] = [
            1, 3, 5, 4097, 4118, 8193, 8294, 12289, 12914, 13539, 14164, 14789, 15414, 16385,
            17060, 17735, 18410, 19085, 19760, 16039, 20481, 24577, 28673, 30722, 2147483648,
            32769, 32771, 36865, 36865, 36867, 0, 36869, 28673, 24577,
        ];
        let (refs, created, recycled) = placement_script();
        assert_eq!(refs, expected);
        assert_eq!((created, recycled), (10, 12));
    }

    #[test]
    fn the_open_page_follows_the_current_iteration() {
        let mut h = PagedHeap::new();
        let t = h.register_type("T", &[FieldKind::I64; 2]); // 4 + 16 → 24 bytes
        let base = h.alloc(t).unwrap();
        let outer = h.iteration_start();
        h.alloc(t).unwrap();
        let last = h.alloc(t).unwrap();
        let inner = h.iteration_start();
        let a = h.alloc(t).unwrap();
        let b = h.alloc_fast(t).unwrap();
        assert_ne!(
            a.slot(),
            last.slot(),
            "an inner iteration has pages of its own"
        );
        assert_ne!(a.slot(), base.slot());
        assert_eq!((b.slot(), b.offset()), (a.slot(), a.offset() + 24));
        h.iteration_end(inner);
        let after = h.alloc(t).unwrap();
        assert_eq!(
            (after.slot(), after.offset()),
            (last.slot(), last.offset() + 24),
            "right after the outer iteration's last record"
        );
        let fast = h.alloc_fast(t).unwrap();
        assert_eq!(
            (fast.slot(), fast.offset()),
            (last.slot(), last.offset() + 48)
        );
        h.iteration_end(outer);
        let again = h.alloc_fast(t).unwrap();
        assert_eq!(
            (again.slot(), again.offset()),
            (base.slot(), base.offset() + 24)
        );
        assert_eq!(h.stats().pages_created, 3);
    }

    /// Fills a page with 0xEE bytes in an iteration that then ends, so the
    /// next page the heap takes is that recycled page; returns its slot.
    fn dirty_a_page(h: &mut PagedHeap) -> u32 {
        let it = h.iteration_start();
        let junk = h.alloc_array(ElemKind::U8, 4000).unwrap();
        h.array_bytes_mut(junk).fill(0xEE);
        h.iteration_end(it);
        junk.slot()
    }

    #[test]
    fn records_of_every_small_size_are_born_clean_on_recycled_pages() {
        for poison in [false, true] {
            let mut h = PagedHeap::new();
            if poison {
                h.set_fault_plan(FaultPlan::builder(1).poison_recycled_pages().build());
            }
            // 8 … 64 bytes (size class 0), then 72 (class 1).
            for size in (8..=72).step_by(8) {
                let fields = vec![FieldKind::I32; (size - 4) / 4];
                let t = h.register_type("T", &fields);
                let slot = dirty_a_page(&mut h);
                let it = h.iteration_start();
                for i in 0..4000 / size + 1 {
                    let r = h.alloc(t).unwrap();
                    assert_eq!((r.slot(), r.offset() as usize), (slot, 8 + i * size));
                    let record = &h.record_bytes(r)[..size];
                    let ty = t.0.to_le_bytes();
                    assert_eq!(record[..4], [ty[0], ty[1], 0, 0], "type ID, lock word");
                    assert!(
                        record[4..].iter().all(|&b| b == 0),
                        "{size}-byte record {i} (poison: {poison}): {record:?}"
                    );
                }
                h.iteration_end(it);
            }
            assert_eq!(h.stats().pages_created, 1);
        }
    }

    #[test]
    fn born_arrays_write_their_header_and_zero_their_padding() {
        let mut h = PagedHeap::new();
        h.set_fault_plan(FaultPlan::builder(1).poison_recycled_pages().build());
        let it = h.iteration_start();
        let junk = h.alloc_array(ElemKind::U8, 4000).unwrap();
        h.array_bytes_mut(junk).fill(0xEE);
        h.iteration_end(it);
        // An odd `I32` array on the poisoned page: 8 + 12 bytes, 4 padding.
        let it = h.iteration_start();
        let a = h
            .alloc_array_init(ElemKind::I32, 3, |b| b.fill(0x11))
            .unwrap();
        assert_eq!(a, junk, "born on the recycled page");
        let record = &h.record_bytes(a)[..32];
        assert_eq!(record[..8], [1, 0, 0, 0, 3, 0, 0, 0], "type, lock, len");
        assert_eq!(record[8..20], [0x11; 12]);
        assert_eq!(record[20..24], [0; 4], "padding");
        assert_eq!(record[24..], [0xDB; 8], "the page was poisoned");
        assert_eq!(h.array_len(a), 3);
        assert_eq!(h.array_get_i32(a, 2), 0x1111_1111);
        h.iteration_end(it);

        // Every kind, zeroed and born with contents, on pages recycled
        // with and without poison.
        let kinds = [
            (ElemKind::U8, ARRAY_TYPE_U8),
            (ElemKind::I32, ARRAY_TYPE_I32),
            (ElemKind::I64, ARRAY_TYPE_I64),
            (ElemKind::Ref, ARRAY_TYPE_REF),
        ];
        for poison in [false, true] {
            let mut h = PagedHeap::new();
            if poison {
                h.set_fault_plan(FaultPlan::builder(1).poison_recycled_pages().build());
            }
            let stale = if poison { 0xDB } else { 0xEE };
            for (kind, type_id) in kinds {
                for len in [0, 1, 3, 5, 9] {
                    let body = len * kind.size() as usize;
                    let size = (8 + body + 7) & !7;
                    for init in [false, true] {
                        let slot = dirty_a_page(&mut h);
                        let it = h.iteration_start();
                        let a = if init {
                            h.alloc_array_init(kind, len, |b| b.fill(0x11))
                        } else {
                            h.alloc_array(kind, len)
                        };
                        let a = a.unwrap();
                        assert_eq!(a.slot(), slot, "born on the recycled page");
                        let record = &h.record_bytes(a)[..size + 8];
                        let [t0, t1] = type_id.to_le_bytes();
                        let [l0, l1, l2, l3] = (len as u32).to_le_bytes();
                        let case = format!("{kind:?}[{len}], init {init}, poison {poison}");
                        assert_eq!(record[..8], [t0, t1, 0, 0, l0, l1, l2, l3], "{case}");
                        let elems = if init { 0x11 } else { 0 };
                        assert!(record[8..8 + body].iter().all(|&b| b == elems), "{case}");
                        assert!(record[8 + body..size].iter().all(|&b| b == 0), "{case}");
                        assert_eq!(record[size..], [stale; 8], "{case}: the next bytes");
                        assert_eq!(h.array_len(a), len);
                        h.iteration_end(it);
                    }
                }
            }
        }
    }
}
