//! The heap proper: spaces, the object table, allocation, and field access.

use crate::layout::{
    ARRAY_HEADER_BYTES, ClassId, ElemKind, FieldKind, OBJECT_HEADER_BYTES, RecordLayout, elem,
    object_bytes, set_elem,
};
use crate::stats::GcStats;
use metrics::OutOfMemory;
use std::cell::RefCell;

/// A stable reference to a heap object.
///
/// `ObjRef` is an index into the heap's object table; the table entry is
/// updated when the collector moves the underlying bytes, so an `ObjRef`
/// stays valid across collections for as long as the object is reachable.
/// The all-zero value is the null reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ObjRef(pub(crate) u32);

impl ObjRef {
    /// The null reference.
    pub const NULL: ObjRef = ObjRef(0);

    /// Returns `true` for the null reference.
    pub fn is_null(self) -> bool {
        self.0 == 0
    }

    /// The raw object-table index (used by the data-store adapters).
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Reconstructs a reference from [`ObjRef::raw`].
    pub fn from_raw(raw: u32) -> Self {
        ObjRef(raw)
    }
}

impl Default for ObjRef {
    fn default() -> Self {
        ObjRef::NULL
    }
}

/// Identifies a registered root slot; see [`Heap::add_root`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RootId(pub(crate) usize);

/// Heap sizing and collection policy.
#[derive(Debug, Clone)]
pub struct HeapConfig {
    /// Capacity of each young semispace in bytes.
    pub young_bytes: usize,
    /// Capacity of the old space in bytes.
    pub old_bytes: usize,
    /// Number of minor collections an object must survive before promotion.
    pub tenure_age: u8,
    /// Objects at least this large are allocated directly in the old space.
    pub large_object_bytes: usize,
}

impl HeapConfig {
    /// A configuration splitting `capacity` as 1/4 young semispace,
    /// 3/4 old space — roughly the HotSpot default new-ratio.
    pub fn with_capacity(capacity: usize) -> Self {
        let young = (capacity / 4).max(4096);
        Self {
            young_bytes: young,
            old_bytes: capacity.saturating_sub(young).max(4096),
            tenure_age: 2,
            large_object_bytes: young / 4,
        }
    }

    /// Total accounted capacity (one young semispace plus the old space),
    /// matching how `-Xmx` bounds a JVM heap.
    pub fn capacity(&self) -> usize {
        self.young_bytes + self.old_bytes
    }
}

impl Default for HeapConfig {
    fn default() -> Self {
        Self::with_capacity(64 << 20)
    }
}

// Entry flag bits.
pub(crate) const F_FREE: u8 = 1 << 0;
pub(crate) const F_OLD: u8 = 1 << 1;
pub(crate) const F_ARRAY: u8 = 1 << 2;
pub(crate) const F_MARK: u8 = 1 << 3;
pub(crate) const F_REMEMBERED: u8 = 1 << 4;

/// Class tag for array entries: high bit set, low bits the element kind.
pub(crate) const ARRAY_CLASS_BIT: u16 = 0x8000;

pub(crate) fn elem_kind_tag(kind: ElemKind) -> u16 {
    ARRAY_CLASS_BIT
        | match kind {
            ElemKind::U8 => 0,
            ElemKind::I32 => 1,
            ElemKind::I64 => 2,
            ElemKind::Ref => 3,
        }
}

pub(crate) fn tag_elem_kind(tag: u16) -> ElemKind {
    match tag & 0x3 {
        0 => ElemKind::U8,
        1 => ElemKind::I32,
        2 => ElemKind::I64,
        _ => ElemKind::Ref,
    }
}

/// One object-table entry. `addr` is the byte offset of the object within
/// its space (young from-space or old space, per `F_OLD`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry {
    pub class: u16,
    pub flags: u8,
    pub age: u8,
    pub addr: u32,
    pub len: u32,
}

impl Entry {
    pub fn is(&self, flag: u8) -> bool {
        self.flags & flag != 0
    }
    pub fn set(&mut self, flag: u8) {
        self.flags |= flag;
    }
    pub fn clear(&mut self, flag: u8) {
        self.flags &= !flag;
    }
}

/// A contiguous allocation space with bump-pointer allocation.
///
/// The capacity is reserved up front but committed — zeroed and counted in
/// `bytes.len()` — only as the bump pointer first passes over it, the way a
/// JVM reserves `-Xmx` and touches pages as the heap fills. Building a heap
/// therefore costs the same whatever state the process allocator is in,
/// and a short job pays for the bytes it uses, not for the budget.
#[derive(Debug, Default)]
pub(crate) struct Space {
    /// The committed prefix: every byte ever handed out. Allocation
    /// re-zeroes below its length (see the paged runtime's `Page::dirty`)
    /// and extends it with zeroes above.
    pub bytes: Vec<u8>,
    pub top: usize,
    capacity: usize,
}

/// Spaces a dropped heap leaves on its thread, at most one heap's worth.
const SPARE_SPACES: usize = 3;

thread_local! {
    /// The spaces of this thread's last dropped heap, committed prefix and
    /// all. The next heap built on the thread takes those of its sizes, as
    /// a JVM running job after job keeps its heap mapped: handing them back
    /// to the allocator would let it unmap them, and the next heap would
    /// fault every page in again.
    static SPARE: RefCell<Vec<Space>> = const { RefCell::new(Vec::new()) };
}

impl Space {
    /// A space of `capacity` bytes: a spare one of that size if this
    /// thread has one, else a fresh reservation.
    fn new(capacity: usize) -> Self {
        let spare = SPARE.try_with(|spare| {
            let mut spare = spare.borrow_mut();
            let i = spare.iter().position(|s| s.capacity == capacity)?;
            Some(spare.swap_remove(i))
        });
        spare.ok().flatten().unwrap_or_else(|| Self {
            bytes: Vec::with_capacity(capacity),
            top: 0,
            capacity,
        })
    }

    /// Leaves the space to the next heap built on this thread; its bytes
    /// stay committed and are re-zeroed as they are handed out again.
    fn retire(mut self) {
        self.top = 0;
        // Once the thread's locals are torn down, the space is just freed.
        let _ = SPARE.try_with(|spare| {
            let mut spare = spare.borrow_mut();
            if spare.len() == SPARE_SPACES {
                spare.remove(0);
            }
            spare.push(self);
        });
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bump-allocates `size` bytes, returning the offset, or `None` if full.
    /// With `zero` the bytes read as zero afterwards; without it the part
    /// below the committed length keeps its stale bytes, and the caller
    /// must overwrite every one of them.
    #[inline]
    pub fn bump(&mut self, size: usize, zero: bool) -> Option<u32> {
        if self.top + size <= self.capacity() {
            let at = self.top;
            self.top += size;
            // Zero the allocation: below the committed length survivors of
            // earlier collections may have left stale bytes behind; above
            // it the bytes are committed now.
            let committed = self.bytes.len();
            if zero && at < committed {
                self.bytes[at..self.top.min(committed)].fill(0);
            }
            if self.top > committed {
                self.bytes.resize(self.top, 0);
            }
            Some(at as u32)
        } else {
            None
        }
    }
}

/// The simulated managed heap. See the [crate documentation](crate) for an
/// overview and an example.
#[derive(Debug)]
pub struct Heap {
    pub(crate) config: HeapConfig,
    pub(crate) classes: Vec<RecordLayout>,
    pub(crate) table: Vec<Entry>,
    pub(crate) free_entries: Vec<u32>,
    pub(crate) young: Space,
    pub(crate) young_to: Space,
    pub(crate) old: Space,
    pub(crate) young_list: Vec<u32>,
    pub(crate) old_list: Vec<u32>,
    pub(crate) remembered: Vec<u32>,
    pub(crate) roots: Vec<u32>,
    free_roots: Vec<usize>,
    pub(crate) stats: GcStats,
}

impl Heap {
    /// Creates a heap with the given configuration.
    pub fn new(config: HeapConfig) -> Self {
        let young = Space::new(config.young_bytes);
        let young_to = Space::new(config.young_bytes);
        let old = Space::new(config.old_bytes);
        Self {
            config,
            classes: Vec::new(),
            // Entry 0 is reserved so ObjRef(0) can be null.
            table: vec![Entry {
                class: 0,
                flags: F_FREE,
                age: 0,
                addr: 0,
                len: 0,
            }],
            free_entries: Vec::new(),
            young,
            young_to,
            old,
            young_list: Vec::new(),
            old_list: Vec::new(),
            remembered: Vec::new(),
            roots: Vec::new(),
            free_roots: Vec::new(),
            stats: GcStats::default(),
        }
    }

    /// Registers a class and returns its id. Classes must be registered
    /// before the first allocation of that class.
    pub fn register_class(&mut self, name: &str, fields: &[FieldKind]) -> ClassId {
        let id = ClassId(self.classes.len() as u16);
        self.classes.push(RecordLayout::new(name, fields));
        id
    }

    /// The layout registered for `class`.
    ///
    /// # Panics
    ///
    /// Panics if `class` was not registered with this heap.
    pub fn layout(&self, class: ClassId) -> &RecordLayout {
        &self.classes[class.0 as usize]
    }

    /// Collection and allocation statistics.
    pub fn stats(&self) -> &GcStats {
        &self.stats
    }

    /// Bytes currently occupied (young from-space plus old space).
    pub fn used_bytes(&self) -> usize {
        self.young.top + self.old.top
    }

    /// Total capacity as bounded by the configuration.
    pub fn capacity(&self) -> usize {
        self.config.capacity()
    }

    /// Number of live (allocated, not yet collected) objects.
    pub fn live_objects(&self) -> usize {
        self.young_list.len() + self.old_list.len()
    }

    // ----- roots ---------------------------------------------------------

    /// Registers `obj` as a GC root and returns a slot id for later removal.
    pub fn add_root(&mut self, obj: ObjRef) -> RootId {
        if let Some(slot) = self.free_roots.pop() {
            self.roots[slot] = obj.0;
            RootId(slot)
        } else {
            self.roots.push(obj.0);
            RootId(self.roots.len() - 1)
        }
    }

    /// Replaces the object held by a root slot.
    pub fn set_root(&mut self, root: RootId, obj: ObjRef) {
        self.roots[root.0] = obj.0;
    }

    /// Unregisters a root slot; the object becomes collectable if otherwise
    /// unreachable.
    pub fn remove_root(&mut self, root: RootId) {
        self.roots[root.0] = 0;
        self.free_roots.push(root.0);
    }

    // ----- allocation ----------------------------------------------------

    fn fresh_entry(&mut self, e: Entry) -> ObjRef {
        if let Some(idx) = self.free_entries.pop() {
            self.table[idx as usize] = e;
            ObjRef(idx)
        } else {
            self.table.push(e);
            ObjRef((self.table.len() - 1) as u32)
        }
    }

    pub(crate) fn object_size(&self, e: &Entry) -> usize {
        let raw = if e.is(F_ARRAY) {
            ARRAY_HEADER_BYTES + e.len * tag_elem_kind(e.class).size()
        } else {
            object_bytes(&self.classes[e.class as usize])
        };
        ((raw + 7) & !7) as usize
    }

    /// Allocates an instance of `class` with zeroed fields.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfMemory`] when the allocation cannot be satisfied even
    /// after a full collection.
    #[inline]
    pub fn alloc(&mut self, class: ClassId) -> Result<ObjRef, OutOfMemory> {
        let size = {
            let raw = object_bytes(&self.classes[class.0 as usize]);
            ((raw + 7) & !7) as usize
        };
        self.stats.objects_allocated += 1;
        self.allocate_sized(class.0, 0, size, true)
    }

    /// Allocates an array of `len` elements of `kind`, zero-initialized.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfMemory`] when the allocation cannot be satisfied even
    /// after a full collection.
    #[inline]
    pub fn alloc_array(&mut self, kind: ElemKind, len: usize) -> Result<ObjRef, OutOfMemory> {
        self.new_array(kind, len, true).map(|(obj, _)| obj)
    }

    /// Allocates an array of `len` elements of `kind` that is born with its
    /// contents: `init` receives the element storage (exactly `len ×
    /// element size` bytes, as [`Heap::array_bytes_mut`] would borrow it)
    /// and must write every byte, because it is not zeroed first. Sizing,
    /// placement and collection are those of [`Heap::alloc_array`].
    ///
    /// # Errors
    ///
    /// Returns [`OutOfMemory`] when the allocation cannot be satisfied even
    /// after a full collection; `init` is not called then.
    #[inline]
    pub fn alloc_array_init(
        &mut self,
        kind: ElemKind,
        len: usize,
        init: impl FnOnce(&mut [u8]),
    ) -> Result<ObjRef, OutOfMemory> {
        let (obj, elems) = self.new_array(kind, len, false)?;
        init(elems);
        Ok(obj)
    }

    /// Allocates an array object, writes its in-space header (a zeroed
    /// object header, then the length, as a JVM lays an array out) and
    /// zeroes its padding to the next 8-byte boundary; returns the object
    /// and its element storage, which holds zeroes with `zero` and stale
    /// bytes without.
    #[inline]
    fn new_array(
        &mut self,
        kind: ElemKind,
        len: usize,
        zero: bool,
    ) -> Result<(ObjRef, &mut [u8]), OutOfMemory> {
        let body = len * kind.size() as usize;
        let size = (ARRAY_HEADER_BYTES as usize + body + 7) & !7;
        self.stats.objects_allocated += 1;
        let obj = self.allocate_sized(elem_kind_tag(kind), len as u32, size, zero)?;
        let e = self.table[obj.0 as usize];
        let space = if e.is(F_OLD) {
            &mut self.old
        } else {
            &mut self.young
        };
        let at = e.addr as usize;
        let (header, rest) = space.bytes[at..at + size].split_at_mut(ARRAY_HEADER_BYTES as usize);
        let (object_header, length) = header.split_at_mut(OBJECT_HEADER_BYTES as usize);
        object_header.fill(0);
        length.copy_from_slice(&(len as u32).to_le_bytes());
        let (elems, padding) = rest.split_at_mut(body);
        padding.fill(0);
        Ok((obj, elems))
    }

    fn allocate_sized(
        &mut self,
        class: u16,
        len: u32,
        size: usize,
        zero: bool,
    ) -> Result<ObjRef, OutOfMemory> {
        let flags = if class & ARRAY_CLASS_BIT != 0 {
            F_ARRAY
        } else {
            0
        };
        if size >= self.config.large_object_bytes || size > self.young.capacity() {
            let addr = self.alloc_old(size, zero)?;
            let obj = self.fresh_entry(Entry {
                class,
                flags: flags | F_OLD,
                age: 0,
                addr,
                len,
            });
            self.old_list.push(obj.0);
            self.note_usage();
            return Ok(obj);
        }
        let addr = match self.young.bump(size, zero) {
            Some(a) => a,
            None => {
                self.collect_minor();
                match self.young.bump(size, zero) {
                    Some(a) => a,
                    None => {
                        // Young still cannot fit it (heavy survivor load);
                        // fall back to the old space.
                        let addr = self.alloc_old(size, zero)?;
                        let obj = self.fresh_entry(Entry {
                            class,
                            flags: flags | F_OLD,
                            age: 0,
                            addr,
                            len,
                        });
                        self.old_list.push(obj.0);
                        self.note_usage();
                        return Ok(obj);
                    }
                }
            }
        };
        let obj = self.fresh_entry(Entry {
            class,
            flags,
            age: 0,
            addr,
            len,
        });
        self.young_list.push(obj.0);
        self.note_usage();
        Ok(obj)
    }

    fn alloc_old(&mut self, size: usize, zero: bool) -> Result<u32, OutOfMemory> {
        if let Some(a) = self.old.bump(size, zero) {
            return Ok(a);
        }
        self.collect_full();
        self.old.bump(size, zero).ok_or_else(|| {
            OutOfMemory::new((self.used_bytes() + size) as u64, self.capacity() as u64)
                .with_context(self.used_bytes() as u64, size as u64, "heap-old-gen")
        })
    }

    fn note_usage(&mut self) {
        let used = self.used_bytes() as u64;
        if used > self.stats.peak_bytes {
            self.stats.peak_bytes = used;
        }
    }

    // ----- field access --------------------------------------------------

    #[inline]
    pub(crate) fn entry(&self, obj: ObjRef) -> &Entry {
        debug_assert!(!obj.is_null(), "null dereference");
        &self.table[obj.0 as usize]
    }

    // A field is addressed by its byte offset from the start of the object,
    // header included: [`Heap::field_offset`] resolves it from a class and
    // a field index, and the `*_at` accessors take it as is.

    /// The offset of field `field` in objects of `class`, header included:
    /// what the `*_at` accessors take. Fixed once the class is registered,
    /// so a caller resolves it once and reuses it.
    ///
    /// # Panics
    ///
    /// Panics if `class` is not registered or has no field `field`.
    #[inline]
    pub fn field_offset(&self, class: ClassId, field: usize) -> u32 {
        OBJECT_HEADER_BYTES + self.classes[class.0 as usize].offset(field)
    }

    /// The `N` bytes at header-relative offset `at` of an object or array.
    #[inline]
    fn read_at<const N: usize>(&self, obj: ObjRef, at: u32) -> [u8; N] {
        let e = self.entry(obj);
        debug_assert!(!e.is(F_FREE), "use after free: {obj:?}");
        let space = if e.is(F_OLD) { &self.old } else { &self.young };
        let base = (e.addr + at) as usize;
        space.bytes[base..base + N]
            .try_into()
            .expect("an N-byte range")
    }

    /// The body of `obj`: its bytes after the object header, to the end of
    /// its space. A class's fields sit at their [`RecordLayout::offset`]s,
    /// an array's length at 0 and its elements after it: the same bytes as
    /// the body of the record in a page (§2.1), so one caller reads both.
    /// The borrow keeps the collector out, so the object cannot move.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `obj` is null or was reclaimed.
    #[inline]
    pub fn body(&self, obj: ObjRef) -> &[u8] {
        let e = self.entry(obj);
        debug_assert!(!e.is(F_FREE), "use after free: {obj:?}");
        let space = if e.is(F_OLD) { &self.old } else { &self.young };
        &space.bytes[(e.addr + OBJECT_HEADER_BYTES) as usize..]
    }

    /// Mutable counterpart of [`Heap::body`]. A write through it skips the
    /// write barrier, so store references with [`Heap::set_ref_at`] or
    /// [`Heap::array_set_ref`], never through these bytes.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `obj` is null or was reclaimed.
    #[inline]
    pub fn body_mut(&mut self, obj: ObjRef) -> &mut [u8] {
        let e = *self.entry(obj);
        debug_assert!(!e.is(F_FREE), "use after free: {obj:?}");
        let space = if e.is(F_OLD) {
            &mut self.old
        } else {
            &mut self.young
        };
        &mut space.bytes[(e.addr + OBJECT_HEADER_BYTES) as usize..]
    }

    #[inline]
    fn write_at<const N: usize>(&mut self, obj: ObjRef, at: u32, data: [u8; N]) {
        let e = *self.entry(obj);
        debug_assert!(!e.is(F_FREE), "use after free: {obj:?}");
        let space = if e.is(F_OLD) {
            &mut self.old
        } else {
            &mut self.young
        };
        let base = (e.addr + at) as usize;
        space.bytes[base..base + N].copy_from_slice(&data);
    }

    /// The `N` bytes at offset `at` of `obj`'s body: what
    /// `body(obj)[at..at + N]` reads, behind one range check instead of two.
    ///
    /// # Panics
    ///
    /// Panics if the bytes would end past the object's space.
    #[inline]
    pub fn read_body<const N: usize>(&self, obj: ObjRef, at: u32) -> [u8; N] {
        self.read_at(obj, OBJECT_HEADER_BYTES + at)
    }

    /// Writes `data` at offset `at` of `obj`'s body: the counterpart of
    /// [`Heap::read_body`]. Like [`Heap::body_mut`] it skips the write
    /// barrier, so it must not store a reference.
    ///
    /// # Panics
    ///
    /// Panics if the bytes would end past the object's space.
    #[inline]
    pub fn write_body<const N: usize>(&mut self, obj: ObjRef, at: u32, data: [u8; N]) {
        self.write_at(obj, OBJECT_HEADER_BYTES + at, data);
    }

    /// Reads the 32-bit field at offset `at` (see [`Heap::field_offset`]).
    ///
    /// # Panics
    ///
    /// Panics if the field would end past the object's space.
    #[inline]
    pub fn get_i32_at(&self, obj: ObjRef, at: u32) -> i32 {
        i32::from_le_bytes(self.read_at(obj, at))
    }

    /// Writes the 32-bit field at offset `at`.
    ///
    /// # Panics
    ///
    /// Panics if the field would end past the object's space.
    #[inline]
    pub fn set_i32_at(&mut self, obj: ObjRef, at: u32, value: i32) {
        self.write_at(obj, at, value.to_le_bytes());
    }

    /// Reads the 64-bit field at offset `at`.
    ///
    /// # Panics
    ///
    /// Panics if the field would end past the object's space.
    #[inline]
    pub fn get_i64_at(&self, obj: ObjRef, at: u32) -> i64 {
        i64::from_le_bytes(self.read_at(obj, at))
    }

    /// Writes the 64-bit field at offset `at`.
    ///
    /// # Panics
    ///
    /// Panics if the field would end past the object's space.
    #[inline]
    pub fn set_i64_at(&mut self, obj: ObjRef, at: u32, value: i64) {
        self.write_at(obj, at, value.to_le_bytes());
    }

    /// Reads the reference field at offset `at`.
    ///
    /// # Panics
    ///
    /// Panics if the field would end past the object's space.
    #[inline]
    pub fn get_ref_at(&self, obj: ObjRef, at: u32) -> ObjRef {
        ObjRef(u32::from_le_bytes(self.read_at(obj, at)))
    }

    /// Writes the reference field at offset `at`, applying the generational
    /// write barrier.
    ///
    /// # Panics
    ///
    /// Panics if the field would end past the object's space.
    #[inline]
    pub fn set_ref_at(&mut self, obj: ObjRef, at: u32, value: ObjRef) {
        self.write_at(obj, at, value.0.to_le_bytes());
        self.write_barrier(obj, value);
    }

    #[inline]
    pub(crate) fn write_barrier(&mut self, holder: ObjRef, target: ObjRef) {
        if target.is_null() {
            return;
        }
        let holder_old = self.entry(holder).is(F_OLD);
        let target_young = !self.entry(target).is(F_OLD);
        if holder_old && target_young {
            let e = &mut self.table[holder.0 as usize];
            if !e.is(F_REMEMBERED) {
                e.set(F_REMEMBERED);
                self.remembered.push(holder.0);
            }
        }
    }

    // ----- array access --------------------------------------------------

    /// Length (in elements) of an array object.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `obj` is not an array.
    #[inline]
    pub fn array_len(&self, obj: ObjRef) -> usize {
        let e = self.entry(obj);
        debug_assert!(e.is(F_ARRAY), "array_len on non-array");
        e.len as usize
    }

    /// Element kind of an array object.
    pub fn array_kind(&self, obj: ObjRef) -> ElemKind {
        let e = self.entry(obj);
        debug_assert!(e.is(F_ARRAY));
        tag_elem_kind(e.class)
    }

    /// Reads an `I32` array element.
    #[inline]
    pub fn array_get_i32(&self, obj: ObjRef, idx: usize) -> i32 {
        i32::from_le_bytes(elem(self.body(obj), idx))
    }

    /// Writes an `I32` array element.
    #[inline]
    pub fn array_set_i32(&mut self, obj: ObjRef, idx: usize, value: i32) {
        set_elem(self.body_mut(obj), idx, value.to_le_bytes());
    }

    /// Reads an `I64` array element.
    #[inline]
    pub fn array_get_i64(&self, obj: ObjRef, idx: usize) -> i64 {
        i64::from_le_bytes(elem(self.body(obj), idx))
    }

    /// Writes an `I64` array element.
    #[inline]
    pub fn array_set_i64(&mut self, obj: ObjRef, idx: usize, value: i64) {
        set_elem(self.body_mut(obj), idx, value.to_le_bytes());
    }

    /// Whether the array lives in the old generation, and the byte range of
    /// its element storage within that space: exactly `len × element size`
    /// bytes, so a caller that chunks the range by the wrong width still
    /// cannot leave the object.
    ///
    /// # Panics
    ///
    /// Panics if `obj` is not a `U8`, `I32` or `I64` array. `Ref` arrays
    /// are excluded because a store into one must go through the write
    /// barrier ([`Heap::array_set_ref`]).
    #[inline]
    fn body_span(&self, obj: ObjRef) -> (bool, std::ops::Range<usize>) {
        let e = self.entry(obj);
        debug_assert!(!e.is(F_FREE), "use after free: {obj:?}");
        let kind = tag_elem_kind(e.class);
        assert!(
            e.is(F_ARRAY) && kind != ElemKind::Ref,
            "bulk access needs a primitive array"
        );
        let at = (e.addr + ARRAY_HEADER_BYTES) as usize;
        (e.is(F_OLD), at..at + e.len as usize * kind.size() as usize)
    }

    /// The element storage of a primitive (`U8`/`I32`/`I64`) array,
    /// borrowed: little-endian elements, back to back. This is the bulk
    /// access path — the object-table entry is resolved once and the caller
    /// then walks the slice. The borrow keeps the collector out: nothing
    /// can allocate (and so move the array) while the slice is alive.
    ///
    /// # Panics
    ///
    /// Panics if `obj` is not a primitive array.
    #[inline]
    pub fn array_bytes(&self, obj: ObjRef) -> &[u8] {
        let (old, range) = self.body_span(obj);
        let space = if old { &self.old } else { &self.young };
        &space.bytes[range]
    }

    /// Mutable counterpart of [`Heap::array_bytes`]. Primitive elements
    /// hold no references, so no write barrier is needed.
    ///
    /// # Panics
    ///
    /// Panics if `obj` is not a primitive array.
    #[inline]
    pub fn array_bytes_mut(&mut self, obj: ObjRef) -> &mut [u8] {
        let (old, range) = self.body_span(obj);
        let space = if old { &mut self.old } else { &mut self.young };
        &mut space.bytes[range]
    }

    /// Reads a `Ref` array element.
    #[inline]
    pub fn array_get_ref(&self, obj: ObjRef, idx: usize) -> ObjRef {
        ObjRef(u32::from_le_bytes(elem(self.body(obj), idx)))
    }

    /// Writes a `Ref` array element, applying the write barrier.
    #[inline]
    pub fn array_set_ref(&mut self, obj: ObjRef, idx: usize, value: ObjRef) {
        set_elem(self.body_mut(obj), idx, value.0.to_le_bytes());
        self.write_barrier(obj, value);
    }

    /// True if the object currently resides in the old generation.
    pub fn is_old(&self, obj: ObjRef) -> bool {
        self.entry(obj).is(F_OLD)
    }

    /// The class of a plain object; `None` for arrays.
    #[inline]
    pub fn class_of(&self, obj: ObjRef) -> Option<ClassId> {
        let e = self.entry(obj);
        if e.is(F_ARRAY) {
            None
        } else {
            Some(ClassId(e.class))
        }
    }

    /// Returns `true` if `obj` refers to an array object.
    pub fn is_array(&self, obj: ObjRef) -> bool {
        self.entry(obj).is(F_ARRAY)
    }

    /// True if the table entry backing `obj` is live (allocated and not yet
    /// reclaimed). Used by tests; user code should never hold dead refs.
    pub fn is_live(&self, obj: ObjRef) -> bool {
        !obj.is_null() && !self.table[obj.0 as usize].is(F_FREE)
    }
}

impl Drop for Heap {
    fn drop(&mut self) {
        for space in [&mut self.young, &mut self.young_to, &mut self.old] {
            std::mem::take(space).retire();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_heap() -> Heap {
        Heap::new(HeapConfig {
            young_bytes: 4096,
            old_bytes: 16384,
            tenure_age: 1,
            large_object_bytes: 1024,
        })
    }

    #[test]
    fn a_space_commits_what_it_hands_out_and_rezeroes_on_reuse() {
        let mut space = Space::new(64);
        assert_eq!((space.capacity(), space.bytes.len()), (64, 0));
        assert_eq!(space.bump(16, true), Some(0));
        assert_eq!(space.bytes.len(), 16, "committed up to the bump pointer");
        space.bytes.fill(0xAB);
        // Reset as a semispace flip does: the stale prefix is zeroed again,
        // the part first handed out now is committed zeroed.
        space.top = 0;
        assert_eq!(space.bump(24, true), Some(0));
        assert_eq!(space.bytes, vec![0; 24]);
        assert_eq!(space.bump(41, true), None, "the reservation is the limit");
        assert_eq!(space.bump(40, true), Some(24));
    }

    #[test]
    fn alloc_and_field_roundtrip() {
        let mut h = small_heap();
        let c = h.register_class("Pair", &[FieldKind::I32, FieldKind::I64, FieldKind::Ref]);
        let [f0, f1, f2] = [0, 1, 2].map(|i| h.field_offset(c, i));
        let o = h.alloc(c).unwrap();
        h.set_i32_at(o, f0, -7);
        h.set_i64_at(o, f1, 1 << 40);
        assert_eq!(h.get_i32_at(o, f0), -7);
        assert_eq!(h.get_i64_at(o, f1), 1 << 40);
        assert!(h.get_ref_at(o, f2).is_null());
        assert_eq!(
            h.body(o)[..4],
            (-7i32).to_le_bytes(),
            "field 0 opens the body"
        );
    }

    #[test]
    fn a_dropped_heaps_spaces_serve_the_next_heap_on_its_thread() {
        let mut h = small_heap();
        let c = h.register_class("T", &[FieldKind::I64]);
        let f0 = h.field_offset(c, 0);
        let o = h.alloc(c).unwrap();
        h.set_i64_at(o, f0, -1);
        let semispaces = [h.young.bytes.as_ptr(), h.young_to.bytes.as_ptr()];
        drop(h);
        let mut h = small_heap();
        assert!(semispaces.contains(&h.young.bytes.as_ptr()));
        assert!(!h.young.bytes.is_empty(), "still committed");
        let c = h.register_class("T", &[FieldKind::I64]);
        let o = h.alloc(c).unwrap();
        assert_eq!(h.get_i64_at(o, f0), 0, "handed out zeroed again");
    }

    #[test]
    fn f64_fields_roundtrip() {
        let mut h = small_heap();
        let c = h.register_class("D", &[FieldKind::I64]);
        let f0 = h.field_offset(c, 0);
        let o = h.alloc(c).unwrap();
        h.set_i64_at(o, f0, 3.25f64.to_bits() as i64);
        assert_eq!(f64::from_bits(h.get_i64_at(o, f0) as u64), 3.25);
    }

    #[test]
    fn arrays_roundtrip_all_kinds() {
        let mut h = small_heap();
        let a = h.alloc_array(ElemKind::I32, 10).unwrap();
        h.array_set_i32(a, 9, 42);
        assert_eq!(h.array_get_i32(a, 9), 42);
        assert_eq!(h.array_len(a), 10);
        assert_eq!(h.array_kind(a), ElemKind::I32);
        assert_eq!(
            h.body(a)[..8],
            [10, 0, 0, 0, 0, 0, 0, 0],
            "length, element 0"
        );

        let b = h.alloc_array(ElemKind::U8, 5).unwrap();
        h.array_bytes_mut(b).copy_from_slice(b"hello");
        assert_eq!(h.array_bytes(b), b"hello");

        let r = h.alloc_array(ElemKind::Ref, 3).unwrap();
        h.array_set_ref(r, 1, a);
        assert_eq!(h.array_get_ref(r, 1), a);

        let l = h.alloc_array(ElemKind::I64, 2).unwrap();
        h.array_set_i64(l, 0, (-1.5f64).to_bits() as i64);
        assert_eq!(f64::from_bits(h.array_get_i64(l, 0) as u64), -1.5);
    }

    #[test]
    fn array_bytes_span_exactly_the_elements_across_collections() {
        let mut h = small_heap();
        let a = h.alloc_array(ElemKind::I32, 3).unwrap();
        h.add_root(a);
        let next = h.alloc_array(ElemKind::I32, 1).unwrap();
        h.add_root(next);
        h.array_set_i32(next, 0, -1);
        assert_eq!(h.array_bytes(a).len(), 12);
        h.array_bytes_mut(a).fill(0xAB);
        // The collector moves (and eventually promotes) the array; the
        // bulk view follows the object-table entry like any accessor.
        for _ in 0..4 {
            h.collect_full();
            assert_eq!(h.array_bytes(a), [0xAB; 12]);
        }
        assert!(h.is_old(a));
        assert_eq!(h.array_get_i32(next, 0), -1, "neighbour untouched");
        let empty = h.alloc_array(ElemKind::I64, 0).unwrap();
        assert!(h.array_bytes(empty).is_empty());
    }

    #[test]
    #[should_panic(expected = "primitive array")]
    fn array_bytes_reject_ref_arrays() {
        let mut h = small_heap();
        let refs = h.alloc_array(ElemKind::Ref, 2).unwrap();
        h.array_bytes_mut(refs);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn array_bounds_checked() {
        let mut h = small_heap();
        let a = h.alloc_array(ElemKind::I32, 2).unwrap();
        h.array_get_i32(a, 2);
    }

    #[test]
    fn born_arrays_write_their_header_and_zero_their_padding_over_stale_bytes() {
        let mut h = small_heap();
        let junk = h.alloc_array(ElemKind::U8, 200).unwrap();
        h.array_bytes_mut(junk).fill(0xEE);
        // Two flips bring allocation back to the dirtied semispace.
        h.collect_minor();
        h.collect_minor();
        let empty = h.alloc_array_init(ElemKind::U8, 0, |_| {}).unwrap();
        // An odd `I32` array over the junk's bytes: 16 + 12 bytes, 4 padding.
        let a = h
            .alloc_array_init(ElemKind::I32, 3, |b| b.fill(0x11))
            .unwrap();
        let (e, at) = (h.entry(a), h.entry(empty).addr as usize + 16);
        assert_eq!(e.addr as usize, at);
        let object = &h.young.bytes[at..at + 40];
        assert_eq!(object[..12], [0; 12], "object header");
        assert_eq!(object[12..16], 3u32.to_le_bytes(), "length");
        assert_eq!(object[16..28], [0x11; 12]);
        assert_eq!(object[28..32], [0; 4], "padding");
        assert_eq!(object[32..], [0xEE; 8], "the space held stale bytes");
        assert_eq!(h.array_get_i32(a, 2), 0x1111_1111);
    }

    #[test]
    fn large_objects_go_straight_to_old() {
        let mut h = small_heap();
        let a = h.alloc_array(ElemKind::U8, 2048).unwrap();
        assert!(h.is_old(a));
    }

    #[test]
    fn null_ref_is_default_and_null() {
        assert!(ObjRef::default().is_null());
        assert!(ObjRef::NULL.is_null());
        assert_eq!(ObjRef::from_raw(7).raw(), 7);
    }

    #[test]
    fn allocation_counts_are_tracked() {
        let mut h = small_heap();
        let c = h.register_class("T", &[FieldKind::I32]);
        for _ in 0..5 {
            h.alloc(c).unwrap();
        }
        h.alloc_array(ElemKind::I32, 1).unwrap();
        assert_eq!(h.stats().objects_allocated, 6);
    }

    #[test]
    fn oom_when_capacity_exhausted() {
        let mut h = Heap::new(HeapConfig {
            young_bytes: 4096,
            old_bytes: 4096,
            tenure_age: 1,
            large_object_bytes: 512,
        });
        // Rooted large arrays cannot be collected, so the heap must
        // eventually refuse.
        let mut err = None;
        for _ in 0..64 {
            match h.alloc_array(ElemKind::U8, 600) {
                Ok(a) => {
                    h.add_root(a);
                }
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        let err = err.expect("expected out-of-memory");
        assert!(err.budget > 0);
    }
}
