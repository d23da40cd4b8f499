//! Record layouts for the paged storage.
//!
//! The layout mirrors the original object layout (§2.1: "the way a data
//! record is stored in a page is exactly the same as the way it was stored
//! in an object"), except that references are 4-byte page references (as
//! dense as the managed heap's compressed oops) and the header shrinks to 4
//! bytes (8 for arrays).

/// Identifies a registered data type (the record's 2-byte type ID).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TypeId(pub u16);

/// The kind of a record field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FieldKind {
    /// 32-bit integer (also `float` bit patterns).
    I32,
    /// 64-bit integer (also `double` bit patterns).
    I64,
    /// A 4-byte page reference to another record.
    Ref,
}

impl FieldKind {
    /// Field size in bytes.
    pub fn size(self) -> u32 {
        match self {
            FieldKind::I32 | FieldKind::Ref => 4,
            FieldKind::I64 => 8,
        }
    }
}

/// The element kind of an array record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElemKind {
    /// `byte[]`.
    U8,
    /// `int[]` / `float[]`.
    I32,
    /// `long[]` / `double[]`.
    I64,
    /// Reference array; elements are page references.
    Ref,
}

impl ElemKind {
    /// Element size in bytes.
    pub fn size(self) -> u32 {
        match self {
            ElemKind::U8 => 1,
            ElemKind::I32 | ElemKind::Ref => 4,
            ElemKind::I64 => 8,
        }
    }
}

/// Header of a plain record: 2-byte type ID + 2-byte lock ID (§2.1).
pub const RECORD_HEADER_BYTES: u32 = 4;

/// Header of an array record: record header + 4-byte length.
pub const ARRAY_HEADER_BYTES: u32 = 8;

/// The resolved layout of a registered data type.
#[derive(Debug, Clone)]
pub struct RecordLayout {
    name: String,
    fields: Vec<FieldKind>,
    offsets: Vec<u32>,
    body_bytes: u32,
}

impl RecordLayout {
    /// Lays out `fields` in declaration order after the record header.
    pub fn new(name: &str, fields: &[FieldKind]) -> Self {
        let mut offsets = Vec::with_capacity(fields.len());
        let mut cursor = 0u32;
        for &f in fields {
            if f.size() == 8 {
                cursor = (cursor + 7) & !7;
            }
            offsets.push(cursor);
            cursor += f.size();
        }
        Self {
            name: name.to_string(),
            fields: fields.to_vec(),
            offsets,
            body_bytes: cursor,
        }
    }

    /// The registered type name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declared fields in order.
    pub fn fields(&self) -> &[FieldKind] {
        &self.fields
    }

    /// Byte offset of field `idx` within the record body.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    #[inline]
    pub fn offset(&self, idx: usize) -> u32 {
        self.offsets[idx]
    }

    /// Size of the record body (fields only).
    pub fn body_bytes(&self) -> u32 {
        self.body_bytes
    }

    /// Total record size including the 4-byte header.
    pub fn record_bytes(&self) -> u32 {
        RECORD_HEADER_BYTES + self.body_bytes
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
    }

    #[test]
    fn record_header_is_four_bytes() {
        let l = RecordLayout::new("T", &[FieldKind::I32]);
        assert_eq!(l.record_bytes(), 8);
    }

    #[test]
    fn paged_record_is_smaller_than_heap_object() {
        // §2.4: a record pays 4 bytes of header where an object pays 12.
        let fields = [FieldKind::I32, FieldKind::I32];
        let record = RecordLayout::new("T", &fields).record_bytes();
        assert_eq!(record, 4 + 8);
        assert!(record < 12 + 8);
    }
}
