//! Live-object census: a per-class histogram of the heap's live population.
//!
//! This is the `jmap -histo` analog for the simulated heap, and the
//! instrument behind the paper's Table 3: for each class (and each array
//! kind) it reports how many live instances exist, how many shallow bytes
//! they occupy, and how much of that is header overhead (12 bytes per
//! object, 16 per array). A census is taken on demand with
//! [`Heap::census`]; nothing walks the heap unless a reader asks.
//!
//! ```
//! use managed_heap::{ElemKind, FieldKind, Heap, HeapConfig};
//!
//! let mut heap = Heap::new(HeapConfig::with_capacity(1 << 20));
//! let c = heap.register_class("Vertex", &[FieldKind::I64]);
//! for _ in 0..10 {
//!     let o = heap.alloc(c).unwrap();
//!     heap.add_root(o);
//! }
//! let a = heap.alloc_array(ElemKind::I32, 100).unwrap();
//! heap.add_root(a);
//!
//! let census = heap.census();
//! let vertex = census.row("Vertex").unwrap();
//! assert_eq!(vertex.count, 10);
//! assert_eq!(vertex.header_bytes, 10 * 12);
//! assert_eq!(census.row("int[]").unwrap().count, 1);
//! ```

use crate::heap::{F_ARRAY, Heap, tag_elem_kind};
use crate::layout::{ARRAY_HEADER_BYTES, ElemKind, OBJECT_HEADER_BYTES};
use std::collections::BTreeMap;

/// The Java-style display name of an array of the given element kind, as it
/// appears in census rows.
pub fn array_class_name(kind: ElemKind) -> &'static str {
    match kind {
        ElemKind::U8 => "byte[]",
        ElemKind::I32 => "int[]",
        ElemKind::I64 => "long[]",
        ElemKind::Ref => "Object[]",
    }
}

/// One census bucket: all live instances of one class or array kind.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CensusRow {
    /// Class name as registered, or an array name like `"int[]"`.
    pub name: String,
    /// Number of live instances.
    pub count: u64,
    /// Shallow bytes those instances occupy (headers included, 8-byte
    /// aligned), i.e. their exact footprint in the young/old spaces.
    pub shallow_bytes: u64,
    /// The part of `shallow_bytes` that is header overhead: 12 bytes per
    /// plain object, 16 per array — the space-bloat term the paper's facade
    /// representation eliminates.
    pub header_bytes: u64,
}

/// A point-in-time histogram of the live heap, one [`CensusRow`] per class.
///
/// Rows are kept sorted by name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HeapCensus {
    /// Per-class rows, sorted by `name`.
    pub rows: Vec<CensusRow>,
}

impl HeapCensus {
    /// Looks up the row for `name`, if any instances were live.
    pub fn row(&self, name: &str) -> Option<&CensusRow> {
        self.rows
            .binary_search_by(|r| r.name.as_str().cmp(name))
            .ok()
            .map(|i| &self.rows[i])
    }

    /// Total live objects across all rows.
    pub fn total_objects(&self) -> u64 {
        self.rows.iter().map(|r| r.count).sum()
    }

    /// Total shallow bytes across all rows.
    pub fn total_shallow_bytes(&self) -> u64 {
        self.rows.iter().map(|r| r.shallow_bytes).sum()
    }
}

impl Heap {
    /// Walks every live object (the young and old populations) and buckets
    /// it by class, producing a per-class histogram of count / shallow bytes
    /// / header overhead. Arrays bucket by element kind under Java-style
    /// names (`"byte[]"`, `"int[]"`, `"long[]"`, `"Object[]"`).
    ///
    /// Cost is linear in the number of live objects; no allocation beyond
    /// the result. Note "live" here means *not yet reclaimed*: objects that
    /// became unreachable since the last collection are still counted, just
    /// as a real heap histogram would count them.
    pub fn census(&self) -> HeapCensus {
        let mut buckets: BTreeMap<&str, CensusRow> = BTreeMap::new();
        for &idx in self.young_list.iter().chain(self.old_list.iter()) {
            let e = &self.table[idx as usize];
            let (name, header) = if e.is(F_ARRAY) {
                (
                    array_class_name(tag_elem_kind(e.class)),
                    u64::from(ARRAY_HEADER_BYTES),
                )
            } else {
                (
                    self.classes[e.class as usize].name(),
                    u64::from(OBJECT_HEADER_BYTES),
                )
            };
            let row = buckets.entry(name).or_default();
            row.count += 1;
            row.shallow_bytes += self.object_size(e) as u64;
            row.header_bytes += header;
        }
        HeapCensus {
            rows: buckets
                .into_iter()
                .map(|(name, row)| CensusRow {
                    name: name.to_string(),
                    ..row
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::HeapConfig;
    use crate::layout::FieldKind;

    #[test]
    fn census_buckets_by_class_with_exact_counts_and_headers() {
        let mut h = Heap::new(HeapConfig::with_capacity(1 << 20));
        let a = h.register_class("A", &[FieldKind::I64]);
        let b = h.register_class("B", &[FieldKind::I32, FieldKind::I32]);
        for _ in 0..7 {
            let o = h.alloc(a).unwrap();
            h.add_root(o);
        }
        for _ in 0..3 {
            let o = h.alloc(b).unwrap();
            h.add_root(o);
        }
        let arr = h.alloc_array(ElemKind::I64, 16).unwrap();
        h.add_root(arr);

        let census = h.census();
        let ra = census.row("A").unwrap();
        assert_eq!(ra.count, 7);
        // 12-byte header + 8-byte field = 20, aligned to 24.
        assert_eq!(ra.shallow_bytes, 7 * 24);
        assert_eq!(ra.header_bytes, 7 * 12);
        let rb = census.row("B").unwrap();
        assert_eq!(rb.count, 3);
        assert_eq!(rb.header_bytes, 3 * 12);
        let rl = census.row("long[]").unwrap();
        assert_eq!(rl.count, 1);
        // 16-byte array header + 16 * 8 element bytes.
        assert_eq!(rl.shallow_bytes, 16 + 128);
        assert_eq!(rl.header_bytes, 16);
        assert_eq!(census.total_objects(), 11);
        assert_eq!(
            census.total_shallow_bytes(),
            ra.shallow_bytes + rb.shallow_bytes + rl.shallow_bytes
        );
        assert_eq!(census.total_shallow_bytes(), h.used_bytes() as u64);
    }

    #[test]
    fn census_tracks_survivors_across_collections() {
        let mut h = Heap::new(HeapConfig {
            young_bytes: 2048,
            old_bytes: 1 << 16,
            tenure_age: 1,
            large_object_bytes: 2048,
        });
        let c = h.register_class("Keep", &[FieldKind::I64]);
        let keep = h.alloc(c).unwrap();
        h.add_root(keep);
        for _ in 0..500 {
            h.alloc(c).unwrap();
        }
        h.collect_full();
        let census = h.census();
        // Only the rooted object survives the full collection.
        assert_eq!(census.row("Keep").unwrap().count, 1);
        assert_eq!(census.total_objects(), h.live_objects() as u64);
    }
}
