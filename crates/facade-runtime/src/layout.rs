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
pub const RECORD_HEADER_BYTES: u32 = 4;

/// Header of an array record: record header + 4-byte length.
pub const ARRAY_HEADER_BYTES: u32 = RECORD_HEADER_BYTES + ARRAY_LEN_BYTES;

/// Size of a record of `layout`: the record header, then the body.
pub(crate) fn record_bytes(layout: &RecordLayout) -> u32 {
    RECORD_HEADER_BYTES + layout.body_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PagedHeap;
    use managed_heap::{Heap, HeapConfig, OBJECT_HEADER_BYTES};

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
    fn a_field_sits_at_the_same_body_offset_on_both_heaps() {
        // §2.1's identity: past the header, a record is laid out in a page
        // as in an object, padding after the leading `i32` included.
        use FieldKind::{I32, I64, Ref};
        let fields = [I32, I64, Ref, I32, Ref, I64, I32];
        let mut heap = Heap::new(HeapConfig::with_capacity(1 << 20));
        let mut paged = PagedHeap::new();
        let class = heap.register_class("Mixed", &fields);
        let ty = paged.register_type("Mixed", &fields);
        for i in 0..fields.len() {
            assert_eq!(
                heap.field_offset(class, i) - OBJECT_HEADER_BYTES,
                paged.field_offset(ty, i) - RECORD_HEADER_BYTES,
                "field {i}"
            );
        }
        assert_eq!(heap.layout(class).ref_offsets(), [16, 24]);
    }
}
