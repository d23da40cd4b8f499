//! A store-backed chained hash table keyed by byte strings.
//!
//! Two record schemas, one per backend:
//!
//! - **Heap** (the Java idiom of the baseline `P`): per distinct word a
//!   `HashMap.Entry`-like record (hash, key ref, value ref, next ref), a
//!   `String`-like record (hash, bytes ref), a byte array, and a boxed
//!   counter — four heap objects plus a 4-byte bucket slot.
//! - **Facade** (what FACADE's type specialization and inlining emit for
//!   the same code, §3.6): a single entry record with the counter inlined
//!   (hash, count, bytes ref, next ref), plus the byte array — paying one
//!   4-byte record header where the heap pays four 12-byte ones.
//!
//! Resizing doubles the bucket array; on the facade backend the old bucket
//! array is freed *early* via the oversize allocator, the exact use case
//! §3.6 names ("pages on this class can be deallocated earlier ... e.g.,
//! upon the resizing of a data structure").

use data_store::{ClassTag, ElemTy, FieldTy, Rec, Root, Store};
use metrics::OutOfMemory;

/// FNV-1a over bytes; both schemas store it to avoid re-reading keys.
pub fn hash_bytes(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

mod heap_entry {
    pub const HASH: usize = 0;
    pub const KEY: usize = 1; // -> string record
    pub const VALUE: usize = 2; // -> boxed counter
    pub const NEXT: usize = 3;
}

mod heap_string {
    pub const HASH: usize = 0;
    pub const BYTES: usize = 1;
}

mod facade_entry {
    pub const HASH: usize = 0;
    pub const COUNT: usize = 1; // inlined counter
    pub const BYTES: usize = 2;
    pub const NEXT: usize = 3;
}

#[derive(Debug, Clone, Copy)]
enum Schema {
    Heap {
        entry: ClassTag,
        string: ClassTag,
        counter: ClassTag,
    },
    Facade {
        entry: ClassTag,
    },
}

/// Registers the word-table record classes on a store. Call once per store,
/// before building any [`WordTable`].
pub fn register_classes(store: &mut Store) -> WordTableClasses {
    WordTableClasses {
        heap_entry: store.register_class(
            "MapEntry",
            &[FieldTy::I32, FieldTy::Ref, FieldTy::Ref, FieldTy::Ref],
        ),
        heap_string: store.register_class("JString", &[FieldTy::I32, FieldTy::Ref]),
        heap_counter: store.register_class("MutableLong", &[FieldTy::I64]),
        facade_entry: store.register_class(
            "MapEntryInlined",
            &[FieldTy::I32, FieldTy::I64, FieldTy::Ref, FieldTy::Ref],
        ),
    }
}

/// The class tags produced by [`register_classes`].
#[derive(Debug, Clone, Copy)]
pub struct WordTableClasses {
    heap_entry: ClassTag,
    heap_string: ClassTag,
    heap_counter: ClassTag,
    facade_entry: ClassTag,
}

/// A chained hash table of `word → count` living entirely in the store.
#[derive(Debug)]
pub struct WordTable {
    buckets: Rec,
    buckets_root: Root,
    capacity: usize,
    len: usize,
    schema: Schema,
}

impl WordTable {
    /// Creates a table with the given initial bucket count.
    ///
    /// # Errors
    ///
    /// Propagates [`OutOfMemory`] from the store.
    pub fn new(
        store: &mut Store,
        classes: &WordTableClasses,
        capacity: usize,
    ) -> Result<Self, OutOfMemory> {
        let capacity = capacity.next_power_of_two().max(16);
        let schema = if store.is_facade() {
            Schema::Facade {
                entry: classes.facade_entry,
            }
        } else {
            Schema::Heap {
                entry: classes.heap_entry,
                string: classes.heap_string,
                counter: classes.heap_counter,
            }
        };
        let buckets = store.alloc_array(ElemTy::Ref, capacity)?;
        let buckets_root = store.add_root(buckets);
        Ok(Self {
            buckets,
            buckets_root,
            capacity,
            len: 0,
            schema,
        })
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the table holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn entry_hash(&self, store: &Store, e: Rec) -> u32 {
        match self.schema {
            Schema::Heap { .. } => store.get_i32(e, heap_entry::HASH) as u32,
            Schema::Facade { .. } => store.get_i32(e, facade_entry::HASH) as u32,
        }
    }

    fn entry_next(&self, store: &Store, e: Rec) -> Rec {
        match self.schema {
            Schema::Heap { .. } => store.get_rec(e, heap_entry::NEXT),
            Schema::Facade { .. } => store.get_rec(e, facade_entry::NEXT),
        }
    }

    fn set_entry_next(&self, store: &mut Store, e: Rec, next: Rec) {
        match self.schema {
            Schema::Heap { .. } => store.set_rec(e, heap_entry::NEXT, next),
            Schema::Facade { .. } => store.set_rec(e, facade_entry::NEXT, next),
        }
    }

    fn entry_key_bytes<'s>(&self, store: &'s Store, e: Rec) -> &'s [u8] {
        let bytes = match self.schema {
            Schema::Heap { .. } => {
                let s = store.get_rec(e, heap_entry::KEY);
                store.get_rec(s, heap_string::BYTES)
            }
            Schema::Facade { .. } => store.get_rec(e, facade_entry::BYTES),
        };
        store.array_bytes(bytes)
    }

    fn entry_count(&self, store: &Store, e: Rec) -> i64 {
        match self.schema {
            Schema::Heap { .. } => {
                let c = store.get_rec(e, heap_entry::VALUE);
                store.get_i64(c, 0)
            }
            Schema::Facade { .. } => store.get_i64(e, facade_entry::COUNT),
        }
    }

    fn add_entry_count(&self, store: &mut Store, e: Rec, delta: i64) {
        match self.schema {
            Schema::Heap { .. } => {
                let c = store.get_rec(e, heap_entry::VALUE);
                let v = store.get_i64(c, 0);
                store.set_i64(c, 0, v + delta);
            }
            Schema::Facade { .. } => {
                let v = store.get_i64(e, facade_entry::COUNT);
                store.set_i64(e, facade_entry::COUNT, v + delta);
            }
        }
    }

    /// Adds `delta` to `word`'s count, inserting it if absent. Returns
    /// `true` on insertion.
    ///
    /// # Errors
    ///
    /// Propagates [`OutOfMemory`] from the store.
    pub fn add(&mut self, store: &mut Store, word: &[u8], delta: i64) -> Result<bool, OutOfMemory> {
        let hash = hash_bytes(word);
        let slot = (hash as usize) & (self.capacity - 1);
        // Probe the chain.
        let mut e = store.array_get_rec(self.buckets, slot);
        while !e.is_null() {
            if self.entry_hash(store, e) == hash && self.entry_key_bytes(store, e) == word {
                self.add_entry_count(store, e, delta);
                return Ok(false);
            }
            e = self.entry_next(store, e);
        }
        // Insert at the chain head.
        let head = store.array_get_rec(self.buckets, slot);
        let entry = match self.schema {
            Schema::Heap {
                entry,
                string,
                counter,
            } => {
                let er = store.alloc(entry)?;
                // Chain immediately so collections mid-insert see it live.
                store.array_set_rec(self.buckets, slot, er);
                store.set_rec(er, heap_entry::NEXT, head);
                store.set_i32(er, heap_entry::HASH, hash as i32);
                let sr = store.alloc(string)?;
                store.set_rec(er, heap_entry::KEY, sr);
                store.set_i32(sr, heap_string::HASH, hash as i32);
                let bytes = store.alloc_bytes(word)?;
                store.set_rec(sr, heap_string::BYTES, bytes);
                let cr = store.alloc(counter)?;
                store.set_rec(er, heap_entry::VALUE, cr);
                store.set_i64(cr, 0, delta);
                er
            }
            Schema::Facade { entry } => {
                let er = store.alloc(entry)?;
                store.array_set_rec(self.buckets, slot, er);
                store.set_rec(er, facade_entry::NEXT, head);
                store.set_i32(er, facade_entry::HASH, hash as i32);
                store.set_i64(er, facade_entry::COUNT, delta);
                let bytes = store.alloc_bytes(word)?;
                store.set_rec(er, facade_entry::BYTES, bytes);
                er
            }
        };
        let _ = entry;
        self.len += 1;
        if self.len * 4 > self.capacity * 3 {
            self.resize(store)?;
        }
        Ok(true)
    }

    fn resize(&mut self, store: &mut Store) -> Result<(), OutOfMemory> {
        let new_capacity = self.capacity * 2;
        let new_buckets = store.alloc_array(ElemTy::Ref, new_capacity)?;
        let new_root = store.add_root(new_buckets);
        for slot in 0..self.capacity {
            let mut e = store.array_get_rec(self.buckets, slot);
            while !e.is_null() {
                let next = self.entry_next(store, e);
                let hash = self.entry_hash(store, e);
                let new_slot = (hash as usize) & (new_capacity - 1);
                let head = store.array_get_rec(new_buckets, new_slot);
                self.set_entry_next(store, e, head);
                store.array_set_rec(new_buckets, new_slot, e);
                e = next;
            }
        }
        // §3.6: the facade backend frees the old oversize bucket array
        // early; the heap backend leaves it to the collector (both arrays
        // were briefly live, which is exactly the resize pressure the paper
        // describes for value types).
        store.free_array_early(self.buckets);
        store.remove_root(self.buckets_root);
        self.buckets = new_buckets;
        self.buckets_root = new_root;
        self.capacity = new_capacity;
        Ok(())
    }

    /// Reads out all `(word, count)` pairs — the interaction point at which
    /// results leave the data path (e.g. are written to "HDFS").
    pub fn extract(&self, store: &Store) -> Vec<(Vec<u8>, i64)> {
        let mut out = Vec::with_capacity(self.len);
        for slot in 0..self.capacity {
            let mut e = store.array_get_rec(self.buckets, slot);
            while !e.is_null() {
                out.push((
                    self.entry_key_bytes(store, e).to_vec(),
                    self.entry_count(store, e),
                ));
                e = self.entry_next(store, e);
            }
        }
        out
    }

    /// Releases the table's GC root (heap backend); call when the operator
    /// finishes.
    pub fn release(self, store: &mut Store) {
        store.remove_root(self.buckets_root);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use data_store::Backend;

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
    fn add_and_extract_roundtrip() {
        for mut store in stores() {
            let classes = register_classes(&mut store);
            let mut t = WordTable::new(&mut store, &classes, 16).unwrap();
            assert!(t.add(&mut store, b"hello", 1).unwrap());
            assert!(t.add(&mut store, b"world", 2).unwrap());
            assert!(!t.add(&mut store, b"hello", 3).unwrap());
            assert_eq!(t.len(), 2);
            let mut out = t.extract(&store);
            out.sort();
            assert_eq!(out, vec![(b"hello".to_vec(), 4), (b"world".to_vec(), 2)]);
        }
    }

    #[test]
    fn growth_preserves_contents() {
        for mut store in stores() {
            let classes = register_classes(&mut store);
            let mut t = WordTable::new(&mut store, &classes, 16).unwrap();
            for i in 0..5_000 {
                let w = format!("word{i}");
                t.add(&mut store, w.as_bytes(), i).unwrap();
            }
            assert_eq!(t.len(), 5_000);
            let out = t.extract(&store);
            assert_eq!(out.len(), 5_000);
            let total: i64 = out.iter().map(|(_, c)| c).sum();
            assert_eq!(total, (0..5_000).sum::<i64>());
        }
    }

    #[test]
    fn hash_collisions_chain_correctly() {
        for mut store in stores() {
            let classes = register_classes(&mut store);
            // Tiny capacity forces chains.
            let mut t = WordTable::new(&mut store, &classes, 16).unwrap();
            for i in 0..64 {
                t.add(&mut store, format!("k{i}").as_bytes(), 1).unwrap();
            }
            assert_eq!(t.len(), 64);
            assert_eq!(t.extract(&store).len(), 64);
        }
    }

    #[test]
    fn facade_entries_are_smaller_than_heap_entries() {
        // The §2.4/§3.6 effect: four objects per word vs one inlined record
        // plus the byte array.
        let mut h = Store::builder()
            .backend(Backend::Heap)
            .budget(64 << 20)
            .build();
        let hc = register_classes(&mut h);
        let mut f = Store::builder().budget(64 << 20).build();
        let fc = register_classes(&mut f);
        let mut th = WordTable::new(&mut h, &hc, 1024).unwrap();
        let mut tf = WordTable::new(&mut f, &fc, 1024).unwrap();
        for i in 0..20_000 {
            let w = format!("longerword{i}");
            th.add(&mut h, w.as_bytes(), 1).unwrap();
            tf.add(&mut f, w.as_bytes(), 1).unwrap();
        }
        let heap_bytes = h.stats().peak_bytes as f64;
        let facade_bytes = f.stats().peak_bytes as f64;
        assert!(
            heap_bytes / facade_bytes > 1.5,
            "heap {heap_bytes} vs facade {facade_bytes}"
        );
    }

    #[test]
    fn fnv_hash_is_stable() {
        assert_eq!(hash_bytes(b""), 0x811c_9dc5);
        assert_eq!(hash_bytes(b"a"), hash_bytes(b"a"));
        assert_ne!(hash_bytes(b"a"), hash_bytes(b"b"));
    }
}
