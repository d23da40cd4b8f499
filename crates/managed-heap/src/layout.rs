//! Record layouts: field kinds, offsets and sizes — the one body layout
//! both heaps use.
//!
//! §2.1: "the way a data record is stored in a page is exactly the same as
//! the way it was stored in an object". A reference takes 4 bytes on both
//! heaps (a compressed oop here, a page reference in `facade-runtime`), so
//! a record's *body* — its fields in declaration order, 8-byte fields
//! aligned to 8 within the body — is the same bytes in an object and in a
//! page, and an array's body is the same too: its 4-byte length, then its
//! elements. Only the header in front of the body differs, and each heap
//! keeps its own, private to it: 12 bytes here, 4 bytes in a page. Every
//! accessor of either heap takes a body offset.
//! `facade-runtime` re-exports [`FieldKind`], [`ElemKind`] and
//! [`RecordLayout`] rather than defining its own.

/// Identifies a registered class within a [`crate::Heap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClassId(pub u16);

/// The kind of a single record field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FieldKind {
    /// 32-bit integer (also used for `float` bit patterns).
    I32,
    /// 64-bit integer (also used for `double` bit patterns).
    I64,
    /// A 4-byte reference to another record: an object-table index on the
    /// managed heap, a page reference in a page.
    Ref,
}

impl FieldKind {
    /// Size of the field in bytes.
    pub fn size(self) -> u32 {
        match self {
            FieldKind::I32 | FieldKind::Ref => 4,
            FieldKind::I64 => 8,
        }
    }
}

/// The element kind of an array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElemKind {
    /// Byte array (`byte[]`).
    U8,
    /// 32-bit element array (`int[]` / `float[]`).
    I32,
    /// 64-bit element array (`long[]` / `double[]`).
    I64,
    /// Reference array (`Object[]`); 4-byte elements, traced on the heap.
    Ref,
}

impl ElemKind {
    /// Size of one element in bytes.
    pub fn size(self) -> u32 {
        match self {
            ElemKind::U8 => 1,
            ElemKind::I32 | ElemKind::Ref => 4,
            ElemKind::I64 => 8,
        }
    }
}

/// Bytes of an array's length at the start of its body, on both heaps.
pub const ARRAY_LEN_BYTES: u32 = 4;

/// The length of the array whose body is `body`: the 4 bytes it opens with.
#[inline]
pub fn elem_count(body: &[u8]) -> usize {
    u32::from_le_bytes(body[..4].try_into().expect("a 4-byte length")) as usize
}

/// The body range holding the elements of the array whose body is `body`
/// and whose elements take `size` bytes each: exactly `len × size` bytes,
/// so a caller that chunks it by the wrong width still cannot leave the
/// array.
#[inline]
pub fn elem_range(body: &[u8], size: u32) -> std::ops::Range<usize> {
    let at = ARRAY_LEN_BYTES as usize;
    at..at + elem_count(body) * size as usize
}

/// The body offset of element `i` of an array of `N`-byte elements.
///
/// # Panics
///
/// Panics if `i` is not below the array's length.
#[inline]
fn elem_at<const N: usize>(body: &[u8], i: usize) -> usize {
    let len = elem_count(body);
    assert!(i < len, "array index {i} out of bounds (len {len})");
    ARRAY_LEN_BYTES as usize + i * N
}

/// Element `i` of the array whose body is `body`, on either heap.
///
/// # Panics
///
/// Panics if `i` is not below the array's length.
#[inline]
pub fn elem<const N: usize>(body: &[u8], i: usize) -> [u8; N] {
    let at = elem_at::<N>(body, i);
    body[at..at + N].try_into().expect("an N-byte element")
}

/// Writes element `i` of the array whose body is `body`, on either heap.
///
/// # Panics
///
/// Panics if `i` is not below the array's length.
#[inline]
pub fn set_elem<const N: usize>(body: &mut [u8], i: usize, bytes: [u8; N]) {
    let at = elem_at::<N>(body, i);
    body[at..at + N].copy_from_slice(&bytes);
}

/// Size of a plain object header in the simulated JVM (mark word + class
/// pointer with compressed oops), per §2.4 of the paper.
pub(crate) const OBJECT_HEADER_BYTES: u32 = 12;

/// Size of an array header (object header + 4-byte length).
pub(crate) const ARRAY_HEADER_BYTES: u32 = OBJECT_HEADER_BYTES + ARRAY_LEN_BYTES;

/// Size of an object of `layout`: the object header, then the body.
pub(crate) fn object_bytes(layout: &RecordLayout) -> u32 {
    OBJECT_HEADER_BYTES + layout.body_bytes()
}

/// The body layout of a registered class: its fields' offsets from the end
/// of the header, whichever heap the header belongs to.
#[derive(Debug, Clone)]
pub struct RecordLayout {
    name: String,
    fields: Vec<FieldKind>,
    offsets: Vec<u32>,
    ref_offsets: Vec<u32>,
    body_bytes: u32,
}

impl RecordLayout {
    /// Lays out `fields` in declaration order, aligning 8-byte fields to 8.
    pub fn new(name: &str, fields: &[FieldKind]) -> Self {
        let mut offsets = Vec::with_capacity(fields.len());
        let mut ref_offsets = Vec::new();
        let mut cursor = 0u32;
        for &f in fields {
            if f.size() == 8 {
                cursor = (cursor + 7) & !7;
            }
            offsets.push(cursor);
            if f == FieldKind::Ref {
                ref_offsets.push(cursor);
            }
            cursor += f.size();
        }
        Self {
            name: name.to_string(),
            fields: fields.to_vec(),
            offsets,
            ref_offsets,
            body_bytes: cursor,
        }
    }

    /// The name the class was registered under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The declared fields in order.
    pub fn fields(&self) -> &[FieldKind] {
        &self.fields
    }

    /// Byte offset of field `idx` within the body.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    #[inline]
    pub fn offset(&self, idx: usize) -> u32 {
        self.offsets[idx]
    }

    /// Body offsets of all reference fields (what the collector traces and
    /// a conversion rewrites).
    pub fn ref_offsets(&self) -> &[u32] {
        &self.ref_offsets
    }

    /// Size of the body (fields only, no header).
    pub fn body_bytes(&self) -> u32 {
        self.body_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_follow_declaration_order() {
        let l = RecordLayout::new("T", &[FieldKind::I32, FieldKind::Ref, FieldKind::I32]);
        assert_eq!(l.offset(0), 0);
        assert_eq!(l.offset(1), 4); // a 4-byte ref packs after the i32
        assert_eq!(l.offset(2), 8);
        assert_eq!(l.body_bytes(), 12);
        assert_eq!(l.ref_offsets(), &[4]);
    }

    #[test]
    fn layout_aligns_wide_fields() {
        let l = RecordLayout::new("T", &[FieldKind::I32, FieldKind::I64]);
        assert_eq!(l.offset(1), 8);
        assert_eq!(l.body_bytes(), 16);
    }

    #[test]
    fn object_bytes_includes_header() {
        let l = RecordLayout::new("T", &[FieldKind::I32]);
        assert_eq!(object_bytes(&l), OBJECT_HEADER_BYTES + 4);
    }

    #[test]
    fn empty_class_is_header_only() {
        let l = RecordLayout::new("Empty", &[]);
        assert_eq!(l.body_bytes(), 0);
        assert_eq!(object_bytes(&l), OBJECT_HEADER_BYTES);
        assert!(l.ref_offsets().is_empty());
    }

    #[test]
    fn elem_and_field_sizes() {
        assert_eq!(FieldKind::Ref.size(), 4);
        assert_eq!(FieldKind::I64.size(), 8);
        assert_eq!(ElemKind::U8.size(), 1);
        assert_eq!(ElemKind::Ref.size(), 4);
    }
}
