//! Pages and page references.

/// Size of one native page: 32 KiB, "a common practice in database design"
/// (§3.6).
pub const PAGE_BYTES: usize = 32 * 1024;

/// The first 8 bytes of every page are reserved so that no record ever sits
/// at offset 0 (keeping the all-zero [`PageRef`] free to mean null), and so
/// that records are 8-byte aligned.
pub const PAGE_RESERVED: usize = 8;

/// Largest record that fits on a page; anything bigger goes to the oversize
/// allocator (§3.6's special "oversize" class).
pub const PAGE_CAPACITY: usize = PAGE_BYTES - PAGE_RESERVED;

/// Page slots one [`crate::PagedHeap`] can address: the 19 bits of a paged
/// reference between its offset and the oversize flag, 16 GiB of pages.
pub const MAX_PAGE_SLOTS: u32 = 1 << 19;

/// Every record size is rounded to 8 bytes, so a paged reference stores its
/// offset in 8-byte units.
const OFFSET_UNIT: u32 = 8;
const OFFSET_BITS: u32 = 12;
const OFFSET_MASK: u64 = (1 << OFFSET_BITS) - 1;
const OVERSIZE_BIT: u64 = 1 << 31;

const _: () = assert!(PAGE_BYTES / OFFSET_UNIT as usize <= 1 << OFFSET_BITS);
const _: () = assert!(PAGE_RESERVED >= OFFSET_UNIT as usize);
const _: () = assert!(PAGE_RESERVED.is_multiple_of(OFFSET_UNIT as usize));
const _: () = assert!((MAX_PAGE_SLOTS as u64) << OFFSET_BITS == OVERSIZE_BIT);

/// A page-based reference to a data record (the value stored in a facade's
/// `pageRef` field and in reference fields of records).
///
/// The value fits 32 bits, so a record field or `Ref` array element holds it
/// in 4 bytes, as a compressed oop does on the managed heap. Encoding:
/// `(page_slot << 12) | byte_offset / 8` for paged records, or bit 31 plus
/// an oversize-table index for records larger than a page. No record sits
/// at offset 0 ([`PAGE_RESERVED`]), so the all-zero value is null.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageRef(pub u64);

impl PageRef {
    /// The null reference.
    pub const NULL: PageRef = PageRef(0);

    /// Builds a reference to `offset` within page `slot`.
    #[inline]
    pub fn paged(slot: u32, offset: u32) -> Self {
        debug_assert!(slot < MAX_PAGE_SLOTS, "page slot {slot} out of range");
        debug_assert!((offset as usize) < PAGE_BYTES);
        debug_assert!(offset != 0, "offset 0 is reserved for null");
        debug_assert!(offset.is_multiple_of(OFFSET_UNIT), "unaligned record");
        PageRef(((slot as u64) << OFFSET_BITS) | (offset / OFFSET_UNIT) as u64)
    }

    /// Builds a reference to entry `index` of the oversize table.
    #[inline]
    pub fn oversize(index: u32) -> Self {
        debug_assert!(u64::from(index) < OVERSIZE_BIT, "oversize index {index}");
        PageRef(OVERSIZE_BIT | index as u64)
    }

    /// Returns `true` for the null reference.
    #[inline]
    pub fn is_null(self) -> bool {
        self.0 == 0
    }

    /// Returns `true` if this reference points into the oversize table.
    #[inline]
    pub fn is_oversize(self) -> bool {
        self.0 & OVERSIZE_BIT != 0
    }

    /// Page slot of a paged reference.
    #[inline]
    pub fn slot(self) -> u32 {
        debug_assert!(!self.is_oversize());
        (self.0 >> OFFSET_BITS) as u32
    }

    /// Byte offset within the page of a paged reference.
    #[inline]
    pub fn offset(self) -> u32 {
        debug_assert!(!self.is_oversize());
        (self.0 & OFFSET_MASK) as u32 * OFFSET_UNIT
    }

    /// Oversize-table index of an oversize reference.
    #[inline]
    pub fn oversize_index(self) -> u32 {
        debug_assert!(self.is_oversize());
        (self.0 & (OVERSIZE_BIT - 1)) as u32
    }

    /// The raw encoding, below 2^32 (its low 4 bytes are what gets stored
    /// into record fields).
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Reconstructs a reference from its raw encoding.
    #[inline]
    pub fn from_raw(raw: u64) -> Self {
        PageRef(raw)
    }
}

impl Default for PageRef {
    fn default() -> Self {
        PageRef::NULL
    }
}

/// One 32 KiB native page with a bump pointer.
#[derive(Debug)]
pub(crate) struct Page {
    pub bytes: Vec<u8>,
    pub top: usize,
    /// High-water mark of bytes ever handed out; everything below it may be
    /// stale and must be re-zeroed (or overwritten) on allocation,
    /// everything above it is still pristine from the initial `calloc`.
    /// Avoids double-zeroing fresh pages, which dominates allocation cost at
    /// volume.
    dirty: usize,
}

impl Page {
    pub fn new() -> Self {
        Self {
            bytes: vec![0; PAGE_BYTES],
            top: PAGE_RESERVED,
            dirty: PAGE_RESERVED,
        }
    }

    /// A slot placeholder for a page whose buffer has been surrendered to
    /// the shared [`crate::PagePool`]; holds no memory and must never be
    /// allocated from until re-adopted.
    pub fn placeholder() -> Self {
        Self {
            bytes: Vec::new(),
            top: PAGE_BYTES,
            dirty: PAGE_BYTES,
        }
    }

    /// Adopts a buffer acquired from the shared pool, keeping its dirty
    /// watermark so only genuinely stale bytes get re-zeroed on allocation.
    pub fn from_pooled(p: crate::pool::PooledPage) -> Self {
        debug_assert_eq!(p.bytes.len(), PAGE_BYTES);
        Self {
            bytes: p.bytes,
            top: PAGE_RESERVED,
            dirty: p.dirty.clamp(PAGE_RESERVED, PAGE_BYTES),
        }
    }

    /// Surrenders the page's buffer to the shared pool, carrying the dirty
    /// watermark along.
    pub fn into_pooled(self) -> crate::pool::PooledPage {
        crate::pool::PooledPage {
            dirty: self.dirty.max(self.top),
            bytes: self.bytes,
        }
    }

    /// Resets the bump pointer for reuse from the free list.
    pub fn recycle(&mut self) {
        self.dirty = self.dirty.max(self.top);
        self.top = PAGE_RESERVED;
    }

    /// Fills the stale region `[PAGE_RESERVED, dirty)` with `0xDB` so that
    /// any read of reclaimed memory sees garbage rather than plausible
    /// stale values. Bytes above the watermark stay pristine zero — the
    /// bump allocator relies on that — and the reserved prefix stays
    /// untouched. No-op on a placeholder (empty buffer).
    pub fn poison_stale(&mut self) {
        let end = self.dirty.min(self.bytes.len());
        if end > PAGE_RESERVED {
            self.bytes[PAGE_RESERVED..end].fill(0xDB);
        }
    }

    /// Free bytes remaining.
    #[allow(dead_code)]
    pub fn free(&self) -> usize {
        PAGE_BYTES - self.top
    }

    /// Returns `true` if nothing has been allocated on the page.
    #[allow(dead_code)]
    pub fn is_empty(&self) -> bool {
        self.top == PAGE_RESERVED
    }

    /// Bump-allocates a record of `size` bytes (a multiple of 8, at least
    /// 8) born with `head` as its first 8 bytes, little-endian: a record's
    /// type ID, lock word and first body bytes, or an array's type ID, lock
    /// word and length. The `kept` bytes after the head keep whatever the
    /// page held, and the caller must overwrite every one of them; the rest
    /// read as zero, which costs a fill only below the dirty watermark.
    /// `None` if the page is full.
    #[inline]
    pub fn bump(&mut self, size: usize, head: u64, kept: usize) -> Option<u32> {
        debug_assert!(size >= 8 && size.is_multiple_of(8) && 8 + kept <= size);
        let at = self.top;
        let end = at + size;
        if end > PAGE_BYTES {
            return None;
        }
        self.top = end;
        self.bytes[at..at + 8].copy_from_slice(&head.to_le_bytes());
        let (zero_from, stale_end) = (at + 8 + kept, end.min(self.dirty));
        if zero_from < stale_end {
            self.bytes[zero_from..stale_end].fill(0);
        }
        Some(at as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paged_ref_roundtrip() {
        let r = PageRef::paged(1234, 5680);
        assert_eq!(r.slot(), 1234);
        assert_eq!(r.offset(), 5680);
        assert!(!r.is_null());
        assert!(!r.is_oversize());
        assert_eq!(PageRef::from_raw(r.raw()), r);
    }

    #[test]
    fn oversize_ref_roundtrip() {
        let r = PageRef::oversize(99);
        assert!(r.is_oversize());
        assert_eq!(r.oversize_index(), 99);
        assert!(!r.is_null());
    }

    #[test]
    fn extreme_refs_roundtrip_in_32_bits() {
        let top = MAX_PAGE_SLOTS - 1;
        for offset in [PAGE_RESERVED as u32, (PAGE_BYTES - 8) as u32] {
            let r = PageRef::paged(top, offset);
            assert_eq!((r.slot(), r.offset()), (top, offset));
            assert!(!r.is_oversize());
            assert!(r.raw() <= u64::from(u32::MAX));
            assert_eq!(PageRef::from_raw(r.raw()), r);
        }
        let last = u32::MAX >> 1;
        let r = PageRef::oversize(last);
        assert!(r.is_oversize());
        assert_eq!(r.oversize_index(), last);
        assert_eq!(r.raw(), u64::from(u32::MAX));
        assert_eq!(PageRef::from_raw(r.raw()), r);
    }

    #[test]
    fn no_allocation_encodes_as_null() {
        // The smallest value of each form: the first record of slot 0 and
        // oversize entry 0. Every other allocation of a form encodes larger.
        let first = PageRef::paged(0, PAGE_RESERVED as u32);
        assert_eq!(first.raw(), 1);
        assert!(!first.is_null());
        assert!(!PageRef::oversize(0).is_null());
        let mut h = crate::PagedHeap::new();
        let t = h.register_type("T", &[crate::FieldKind::I32]);
        let mut refs = vec![h.alloc(t).unwrap()];
        refs.push(h.alloc_array(crate::ElemKind::U8, PAGE_BYTES).unwrap());
        refs.extend((0..PAGE_BYTES / 8).map(|_| h.alloc(t).unwrap()));
        assert_eq!(refs[..2], [first, PageRef::oversize(0)]);
        assert!(refs.iter().all(|r| !r.is_null()));
    }

    #[test]
    fn null_is_default_and_not_oversize() {
        assert!(PageRef::default().is_null());
        assert!(!PageRef::NULL.is_oversize());
    }

    #[test]
    fn page_bump_respects_capacity_and_reserve() {
        let mut p = Page::new();
        assert!(p.is_empty());
        let a = p.bump(104, 1, 0).unwrap();
        assert_eq!(a, PAGE_RESERVED as u32);
        assert!(!p.is_empty());
        assert!(p.bump(PAGE_BYTES, 1, 0).is_none());
        assert_eq!(p.free(), PAGE_BYTES - PAGE_RESERVED - 104);
    }

    #[test]
    fn page_recycle_resets_top() {
        let mut p = Page::new();
        p.bump(64, 1, 0).unwrap();
        p.recycle();
        assert!(p.is_empty());
    }

    #[test]
    fn bump_writes_the_head_and_zeroes_all_but_the_kept_bytes() {
        let mut p = Page::new();
        let a = p.bump(24, 0x0102, 0).unwrap() as usize;
        p.bytes[a..a + 24].fill(0xAB);
        p.recycle();
        let b = p.bump(24, 0x0304, 8).unwrap() as usize;
        assert_eq!(a, b);
        assert_eq!(p.bytes[b..b + 8], [4, 3, 0, 0, 0, 0, 0, 0], "head");
        assert_eq!(p.bytes[b + 8..b + 16], [0xAB; 8], "kept bytes stay stale");
        assert_eq!(p.bytes[b + 16..b + 24], [0; 8], "the rest is zeroed");
        p.recycle();
        let c = p.bump(24, 0x0506, 0).unwrap() as usize;
        assert_eq!(a, c);
        assert_eq!(
            p.bytes[c..c + 24],
            [[6, 5, 0, 0, 0, 0, 0, 0], [0; 8], [0; 8]].concat()
        );
    }
}
