//! Record headers and type IDs of the paged storage.
//!
//! A record's body is laid out by the managed heap's [`RecordLayout`],
//! re-exported here with its [`FieldKind`] and [`ElemKind`]: §2.1 stores a
//! record in a page "exactly the same as the way it was stored in an
//! object", and with 4-byte page references the bodies match byte for
//! byte. Only the header in front differs: 4 bytes here (8 for arrays)
//! where an object pays 12 (16).

use managed_heap::ARRAY_LEN_BYTES;
pub use managed_heap::{ElemKind, FieldKind, RecordLayout};

/// Identifies a registered data type (the record's 2-byte type ID).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TypeId(pub u16);

/// Header of a plain record: 2-byte type ID + 2-byte lock ID (§2.1).
pub(crate) const RECORD_HEADER_BYTES: u32 = 4;

/// Header of an array record: record header + 4-byte length.
pub(crate) const ARRAY_HEADER_BYTES: u32 = RECORD_HEADER_BYTES + ARRAY_LEN_BYTES;

/// Size of a record of `layout`: the record header, then the body.
pub(crate) fn record_bytes(layout: &RecordLayout) -> u32 {
    RECORD_HEADER_BYTES + layout.body_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PageRef, PagedHeap};
    use managed_heap::{Heap, HeapConfig, ObjRef, elem_count, set_elem};

    #[test]
    fn record_header_is_four_bytes() {
        let l = RecordLayout::new("T", &[FieldKind::I32]);
        assert_eq!(record_bytes(&l), 8);
    }

    #[test]
    fn paged_record_is_smaller_than_heap_object() {
        // §2.4: a record pays 4 bytes of header where an object pays 12.
        let fields = [FieldKind::I32, FieldKind::I32];
        let record = record_bytes(&RecordLayout::new("T", &fields));
        assert_eq!(record, 4 + 8);
        assert!(record < 12 + 8);
    }

    #[test]
    fn a_body_is_the_same_bytes_on_both_heaps() {
        // §2.1's identity: past the header, a record is stored in a page as
        // in an object, padding after the leading `i32` included. Each heap
        // writes it through its own body accessors at the layout's offsets;
        // the bodies must then hold the same bytes.
        use FieldKind::{I32, I64, Ref};
        let fields = [I32, I64, Ref, I32, Ref, I64, I32];
        let mut heap = Heap::new(HeapConfig::with_capacity(1 << 20));
        let mut paged = PagedHeap::new();
        let class = heap.register_class("Mixed", &fields);
        let ty = paged.register_type("Mixed", &fields);
        let layout = heap.layout(class).clone();
        assert_eq!(layout.ref_offsets(), [16, 24]);
        let (o, r) = (heap.alloc(class).unwrap(), paged.alloc(ty).unwrap());
        for (i, &kind) in fields.iter().enumerate() {
            let (at, v) = (layout.offset(i), 0x0102_0304_0506_0708 * (i as u64 + 1));
            match kind {
                I32 => {
                    heap.write_body(o, at, (v as u32).to_le_bytes());
                    paged.write_body(r, at, (v as u32).to_le_bytes());
                }
                I64 => {
                    heap.write_body(o, at, v.to_le_bytes());
                    paged.write_body(r, at, v.to_le_bytes());
                }
                Ref => {
                    heap.write_ref(o, at, ObjRef::NULL);
                    paged.write_body(r, at, (PageRef::NULL.raw() as u32).to_le_bytes());
                }
            }
        }
        let n = layout.body_bytes() as usize;
        assert_eq!(heap.body(o)[..n], paged.body(r)[..n], "Mixed");

        // An array's body is its length, then its elements.
        fn fill<const N: usize>(body: &mut [u8]) {
            for i in 0..elem_count(body) {
                set_elem(body, i, [0xA0 ^ i as u8; N]);
            }
        }
        for (kind, write) in [
            (ElemKind::U8, fill::<1> as fn(&mut [u8])),
            (ElemKind::I32, fill::<4>),
            (ElemKind::I64, fill::<8>),
        ] {
            let (o, r) = (
                heap.alloc_array(kind, 3).unwrap(),
                paged.alloc_array(kind, 3).unwrap(),
            );
            write(heap.body_mut(o));
            write(paged.body_mut(r));
            let n = (ARRAY_LEN_BYTES + 3 * kind.size()) as usize;
            assert_eq!(heap.body(o)[..n], paged.body(r)[..n], "{kind:?} array");
        }
    }
}
