//! Class layouts: field kinds, offsets, and sizes.

/// Identifies a registered class within a [`crate::Heap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClassId(pub u16);

/// The kind of a single object field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FieldKind {
    /// 32-bit integer (also used for `float` bit patterns).
    I32,
    /// 64-bit integer (also used for `double` bit patterns).
    I64,
    /// A traced reference to another heap object.
    Ref,
}

impl FieldKind {
    /// Size of the field in bytes.
    pub fn size(self) -> u32 {
        match self {
            FieldKind::I32 => 4,
            FieldKind::I64 => 8,
            // References are 32-bit object-table indices (compressed oops).
            FieldKind::Ref => 4,
        }
    }
}

/// The element kind of an array object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElemKind {
    /// Byte array (`byte[]`).
    U8,
    /// 32-bit element array (`int[]` / `float[]`).
    I32,
    /// 64-bit element array (`long[]` / `double[]`).
    I64,
    /// Reference array (`Object[]`); elements are traced.
    Ref,
}

impl ElemKind {
    /// Size of one element in bytes.
    pub fn size(self) -> u32 {
        match self {
            ElemKind::U8 => 1,
            ElemKind::I32 => 4,
            ElemKind::I64 => 8,
            ElemKind::Ref => 4,
        }
    }
}

/// Size of a plain object header in the simulated JVM (mark word + class
/// pointer with compressed oops), per §2.4 of the paper.
pub const OBJECT_HEADER_BYTES: u32 = 12;

/// Size of an array header (object header + 4-byte length).
pub const ARRAY_HEADER_BYTES: u32 = 16;

/// The resolved layout of a registered class.
#[derive(Debug, Clone)]
pub struct ClassLayout {
    name: String,
    fields: Vec<FieldKind>,
    offsets: Vec<u32>,
    ref_offsets: Vec<u32>,
    body_bytes: u32,
}

impl ClassLayout {
    /// Computes a layout by laying out `fields` in declaration order after
    /// the object header.
    pub fn new(name: &str, fields: &[FieldKind]) -> Self {
        let mut offsets = Vec::with_capacity(fields.len());
        let mut ref_offsets = Vec::new();
        let mut cursor = 0u32;
        for &f in fields {
            // Align 8-byte fields.
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

    /// The class name the layout was registered under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The declared fields in order.
    pub fn fields(&self) -> &[FieldKind] {
        &self.fields
    }

    /// Byte offset of field `idx` within the object body.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    #[inline]
    pub fn offset(&self, idx: usize) -> u32 {
        self.offsets[idx]
    }

    /// Offsets of all reference fields (used by the collector for tracing).
    pub fn ref_offsets(&self) -> &[u32] {
        &self.ref_offsets
    }

    /// Size of the object body (fields only, no header).
    pub fn body_bytes(&self) -> u32 {
        self.body_bytes
    }

    /// Total allocated size including the simulated object header.
    pub fn object_bytes(&self) -> u32 {
        OBJECT_HEADER_BYTES + self.body_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_assigns_sequential_offsets() {
        let l = ClassLayout::new("T", &[FieldKind::I32, FieldKind::Ref, FieldKind::I32]);
        assert_eq!(l.offset(0), 0);
        assert_eq!(l.offset(1), 4);
        assert_eq!(l.offset(2), 8);
        assert_eq!(l.body_bytes(), 12);
        assert_eq!(l.ref_offsets(), &[4]);
    }

    #[test]
    fn layout_aligns_wide_fields() {
        let l = ClassLayout::new("T", &[FieldKind::I32, FieldKind::I64]);
        assert_eq!(l.offset(1), 8);
        assert_eq!(l.body_bytes(), 16);
    }

    #[test]
    fn object_bytes_includes_header() {
        let l = ClassLayout::new("T", &[FieldKind::I32]);
        assert_eq!(l.object_bytes(), OBJECT_HEADER_BYTES + 4);
    }

    #[test]
    fn empty_class_is_header_only() {
        let l = ClassLayout::new("Empty", &[]);
        assert_eq!(l.body_bytes(), 0);
        assert_eq!(l.object_bytes(), OBJECT_HEADER_BYTES);
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
