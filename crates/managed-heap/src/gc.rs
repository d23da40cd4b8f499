//! The generational collector: copying minor collections and mark-compact
//! full collections.

use crate::heap::{
    ARRAY_CLASS_BIT, Entry, F_ARRAY, F_FREE, F_MARK, F_OLD, F_REMEMBERED, Heap, Space,
    tag_elem_kind,
};
use crate::layout::{ARRAY_HEADER_BYTES, ElemKind, OBJECT_HEADER_BYTES, RecordLayout};
use crate::stats::{PauseKind, PauseRecord};
use std::time::Instant;

/// Reads the reference targets of an object whose bytes live in `space` at
/// `entry.addr`, appending the non-null object-table indices to `out`.
fn ref_targets(space: &Space, entry: &Entry, classes: &[RecordLayout], out: &mut Vec<u32>) {
    let read_u32 = |at: usize| -> u32 {
        u32::from_le_bytes(space.bytes[at..at + 4].try_into().expect("4-byte read"))
    };
    if entry.is(F_ARRAY) {
        if tag_elem_kind(entry.class) != ElemKind::Ref {
            return;
        }
        let base = (entry.addr + ARRAY_HEADER_BYTES) as usize;
        for i in 0..entry.len as usize {
            let v = read_u32(base + 4 * i);
            if v != 0 {
                out.push(v);
            }
        }
    } else {
        debug_assert_eq!(entry.class & ARRAY_CLASS_BIT, 0);
        let base = (entry.addr + OBJECT_HEADER_BYTES) as usize;
        for &off in classes[entry.class as usize].ref_offsets() {
            let v = read_u32(base + off as usize);
            if v != 0 {
                out.push(v);
            }
        }
    }
}

impl Heap {
    fn free_entry(&mut self, idx: u32) {
        let e = &mut self.table[idx as usize];
        e.flags = F_FREE;
        self.free_entries.push(idx);
        self.stats.objects_collected += 1;
    }

    fn has_young_target(&self, idx: u32) -> bool {
        let e = self.table[idx as usize];
        let space = if e.is(F_OLD) { &self.old } else { &self.young };
        let mut targets = Vec::new();
        ref_targets(space, &e, &self.classes, &mut targets);
        targets
            .into_iter()
            .any(|t| !self.table[t as usize].is(F_FREE) && !self.table[t as usize].is(F_OLD))
    }

    /// Copies the young object `idx` out of the from-space, if it is young
    /// and not yet copied this cycle. Returns `true` if the object was
    /// (newly) copied.
    fn minor_copy(&mut self, idx: u32, promoted: &mut Vec<u32>) -> bool {
        let e = self.table[idx as usize];
        if e.is(F_FREE) || e.is(F_OLD) || e.is(F_MARK) {
            return false;
        }
        let size = self.object_size(&e);
        let new_age = e.age.saturating_add(1);
        let promote = new_age >= self.config.tenure_age;
        // Destination: old space if promoting (and it has room), otherwise
        // the to-space. The to-space always has room for every survivor,
        // since survivors are a subset of the from-space.
        let (dest_old, addr) = if promote {
            match self.old.bump(size, true) {
                Some(a) => (true, a),
                None => (
                    false,
                    self.young_to
                        .bump(size, true)
                        .expect("to-space sized as from"),
                ),
            }
        } else {
            (
                false,
                self.young_to
                    .bump(size, true)
                    .expect("to-space sized as from"),
            )
        };
        let (src, dst) = (e.addr as usize, addr as usize);
        if dest_old {
            self.old.bytes[dst..dst + size].copy_from_slice(&self.young.bytes[src..src + size]);
        } else {
            self.young_to.bytes[dst..dst + size]
                .copy_from_slice(&self.young.bytes[src..src + size]);
        }
        let entry = &mut self.table[idx as usize];
        entry.addr = addr;
        entry.age = new_age;
        entry.set(F_MARK);
        if dest_old {
            entry.set(F_OLD);
            promoted.push(idx);
        }
        self.stats.objects_traced += 1;
        self.stats.bytes_copied += size as u64;
        true
    }

    /// A minor (young-generation) collection: copies survivors between the
    /// semispaces, promoting objects that have reached the tenure age.
    // Index loops are deliberate: `minor_copy` needs `&mut self` while the
    // target buffer is borrowed.
    #[allow(clippy::needless_range_loop)]
    pub fn collect_minor(&mut self) {
        let start = Instant::now();
        let (young_before, old_before) = (self.young.top as u64, self.old.top as u64);
        self.stats.minor_collections += 1;

        let mut queue: Vec<u32> = Vec::new();
        let mut promoted: Vec<u32> = Vec::new();
        let mut targets: Vec<u32> = Vec::new();

        // Roots: the explicit root set plus young targets of remembered old
        // objects.
        let roots: Vec<u32> = self.roots.iter().copied().filter(|&r| r != 0).collect();
        for r in roots {
            if self.minor_copy(r, &mut promoted) {
                queue.push(r);
            }
        }
        let remembered = std::mem::take(&mut self.remembered);
        for &holder in &remembered {
            let e = self.table[holder as usize];
            if e.is(F_FREE) {
                continue;
            }
            targets.clear();
            ref_targets(&self.old, &e, &self.classes, &mut targets);
            for i in 0..targets.len() {
                let t = targets[i];
                if self.minor_copy(t, &mut promoted) {
                    queue.push(t);
                }
            }
        }

        // Transitive copy: scan each survivor's fields from its new location.
        while let Some(idx) = queue.pop() {
            let e = self.table[idx as usize];
            targets.clear();
            let space = if e.is(F_OLD) {
                &self.old
            } else {
                &self.young_to
            };
            ref_targets(space, &e, &self.classes, &mut targets);
            for i in 0..targets.len() {
                let t = targets[i];
                if self.minor_copy(t, &mut promoted) {
                    queue.push(t);
                }
            }
        }

        let promoted_bytes: u64 = promoted
            .iter()
            .map(|&idx| self.object_size(&self.table[idx as usize]) as u64)
            .sum();

        // Promotions enter the old list in *bump (address) order* — the
        // `promoted` vector records them as they were copied — because the
        // full collector's sliding compaction requires `old_list` to be
        // address-sorted.
        self.old_list.extend_from_slice(&promoted);

        // Sweep the young population: survivors stay young; promoted
        // entries were recorded above (their mark is cleared here); the
        // rest are freed.
        let young_list = std::mem::take(&mut self.young_list);
        let mut new_young = Vec::with_capacity(young_list.len() / 2);
        for idx in young_list {
            let e = &mut self.table[idx as usize];
            if e.is(F_MARK) {
                e.clear(F_MARK);
                if !e.is(F_OLD) {
                    new_young.push(idx);
                }
            } else {
                self.free_entry(idx);
            }
        }
        self.young_list = new_young;

        // Flip semispaces. The old from-space keeps stale bytes up to its
        // top; they stay committed, so its next use re-zeroes them.
        std::mem::swap(&mut self.young, &mut self.young_to);
        self.young_to.top = 0;

        // Rebuild the remembered set: previous members that still hold young
        // targets, plus promotions that do.
        for holder in remembered.into_iter().chain(promoted) {
            let e = self.table[holder as usize];
            if e.is(F_FREE) || !e.is(F_OLD) {
                continue;
            }
            if self.has_young_target(holder) {
                let e = &mut self.table[holder as usize];
                if !e.is(F_REMEMBERED) {
                    e.set(F_REMEMBERED);
                }
                self.remembered.push(holder);
            } else {
                self.table[holder as usize].clear(F_REMEMBERED);
            }
        }
        self.remembered.sort_unstable();
        self.remembered.dedup();

        self.finish_collection(
            PauseKind::Minor,
            start,
            promoted_bytes,
            young_before,
            old_before,
        );
    }

    /// A full collection: mark from the roots, compact the old space in
    /// place, and evacuate young survivors into the old generation.
    pub fn collect_full(&mut self) {
        let start = Instant::now();
        let (young_before, old_before) = (self.young.top as u64, self.old.top as u64);
        self.stats.full_collections += 1;

        // Mark.
        let mut stack: Vec<u32> = self.roots.iter().copied().filter(|&r| r != 0).collect();
        let mut targets: Vec<u32> = Vec::new();
        while let Some(idx) = stack.pop() {
            let e = self.table[idx as usize];
            if e.is(F_FREE) || e.is(F_MARK) {
                continue;
            }
            self.table[idx as usize].set(F_MARK);
            self.stats.objects_traced += 1;
            targets.clear();
            let space = if e.is(F_OLD) { &self.old } else { &self.young };
            ref_targets(space, &e, &self.classes, &mut targets);
            stack.extend_from_slice(&targets);
        }

        // Compact the old space by sliding marked objects left. `old_list`
        // is maintained in address order, which compaction preserves.
        #[cfg(debug_assertions)]
        for w in self.old_list.windows(2) {
            let (a, b) = (self.table[w[0] as usize], self.table[w[1] as usize]);
            assert!(
                a.addr < b.addr,
                "old_list must be address-ordered for sliding compaction: \
                 entry {} (class {:#x}, flags {:#b}, addr {}) before entry {} \
                 (class {:#x}, flags {:#b}, addr {})",
                w[0],
                a.class,
                a.flags,
                a.addr,
                w[1],
                b.class,
                b.flags,
                b.addr
            );
        }
        let old_list = std::mem::take(&mut self.old_list);
        let mut new_old = Vec::with_capacity(old_list.len());
        let mut new_top = 0usize;
        for idx in old_list {
            let e = self.table[idx as usize];
            if !e.is(F_MARK) {
                self.free_entry(idx);
                continue;
            }
            let size = self.object_size(&e);
            let src = e.addr as usize;
            if src != new_top {
                self.old.bytes.copy_within(src..src + size, new_top);
                self.table[idx as usize].addr = new_top as u32;
                self.stats.bytes_copied += size as u64;
            }
            new_top += size;
            new_old.push(idx);
        }
        // Bytes between the compacted top and the old bump limit are stale
        // (and committed: `bump` re-zeroes them).
        self.old.top = new_top;
        self.old_list = new_old;

        // Evacuate young survivors: tenure into old if it has room, spill to
        // the to-space otherwise.
        let young_list = std::mem::take(&mut self.young_list);
        let mut new_young = Vec::new();
        let mut promoted_bytes: u64 = 0;
        for idx in young_list {
            let e = self.table[idx as usize];
            if !e.is(F_MARK) {
                self.free_entry(idx);
                continue;
            }
            let size = self.object_size(&e);
            let src = e.addr as usize;
            match self.old.bump(size, true) {
                Some(addr) => {
                    let dst = addr as usize;
                    self.old.bytes[dst..dst + size]
                        .copy_from_slice(&self.young.bytes[src..src + size]);
                    let entry = &mut self.table[idx as usize];
                    entry.addr = addr;
                    entry.set(F_OLD);
                    self.old_list.push(idx);
                    promoted_bytes += size as u64;
                }
                None => {
                    let addr = self
                        .young_to
                        .bump(size, true)
                        .expect("to-space sized as from");
                    let dst = addr as usize;
                    self.young_to.bytes[dst..dst + size]
                        .copy_from_slice(&self.young.bytes[src..src + size]);
                    self.table[idx as usize].addr = addr;
                    new_young.push(idx);
                }
            }
            self.stats.bytes_copied += size as u64;
        }
        self.young_list = new_young;
        std::mem::swap(&mut self.young, &mut self.young_to);
        self.young_to.top = 0;

        // Clear marks and rebuild the remembered set.
        for &idx in self.young_list.iter().chain(self.old_list.iter()) {
            let e = &mut self.table[idx as usize];
            e.clear(F_MARK);
            e.clear(F_REMEMBERED);
        }
        self.remembered.clear();
        if !self.young_list.is_empty() {
            // Rare spill case: rescan the old generation for young pointers.
            let old_list = self.old_list.clone();
            for holder in old_list {
                if self.has_young_target(holder) {
                    self.table[holder as usize].set(F_REMEMBERED);
                    self.remembered.push(holder);
                }
            }
        }

        self.finish_collection(
            PauseKind::Full,
            start,
            promoted_bytes,
            young_before,
            old_before,
        );
    }

    /// Common epilogue of both collectors: folds the pause into the stats
    /// (time, histogram, per-collection record) and emits a trace span
    /// covering the whole stop-the-world window.
    fn finish_collection(
        &mut self,
        kind: PauseKind,
        start: Instant,
        promoted_bytes: u64,
        young_before: u64,
        old_before: u64,
    ) {
        let live_bytes = self.used_bytes() as u64;
        let pause_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.stats.record_pause(PauseRecord {
            kind,
            pause_ns,
            promoted_bytes,
            live_bytes,
            young_before,
            young_after: self.young.top as u64,
            old_before,
            old_after: self.old.top as u64,
        });
        let name = match kind {
            PauseKind::Minor => "gc_minor",
            PauseKind::Full => "gc_full",
        };
        facade_trace::complete(
            name,
            start,
            &[
                ("promoted_bytes", promoted_bytes.into()),
                ("live_bytes", live_bytes.into()),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use crate::heap::{Heap, HeapConfig, ObjRef};
    use crate::layout::{ElemKind, FieldKind, elem};
    use crate::stats::PauseKind;

    fn heap(young: usize, old: usize, tenure: u8) -> Heap {
        Heap::new(HeapConfig {
            young_bytes: young,
            old_bytes: old,
            tenure_age: tenure,
            large_object_bytes: young,
        })
    }

    #[test]
    fn unreachable_objects_are_collected() {
        let mut h = heap(2048, 8192, 2);
        let c = h.register_class("T", &[FieldKind::I64, FieldKind::I64]);
        for _ in 0..1000 {
            h.alloc(c).unwrap();
        }
        assert!(h.stats().minor_collections > 0);
        assert!(h.stats().objects_collected > 0);
        // Nothing is rooted, so the live count stays small.
        assert!(h.live_objects() < 100, "live = {}", h.live_objects());
    }

    #[test]
    fn rooted_objects_survive_and_keep_data() {
        let mut h = heap(2048, 8192, 1);
        let c = h.register_class("T", &[FieldKind::I32]);
        let keep = h.alloc(c).unwrap();
        h.write_body(keep, 0, 777i32.to_le_bytes());
        h.add_root(keep);
        for _ in 0..500 {
            h.alloc(c).unwrap();
        }
        assert!(h.is_live(keep));
        assert_eq!(i32::from_le_bytes(h.read_body(keep, 0)), 777);
    }

    #[test]
    fn reachability_is_transitive_through_fields_and_arrays() {
        let mut h = heap(2048, 8192, 1);
        let node = h.register_class("Node", &[FieldKind::I32, FieldKind::Ref]);
        let (f0, f1) = (h.layout(node).offset(0), h.layout(node).offset(1));
        let head = h.alloc(node).unwrap();
        h.add_root(head);
        // Build a linked list threaded through an array.
        let arr = h.alloc_array(ElemKind::Ref, 8).unwrap();
        h.write_ref(head, f1, arr);
        let mut items = Vec::new();
        for i in 0..8 {
            let n = h.alloc(node).unwrap();
            h.write_body(n, f0, (i as i32).to_le_bytes());
            h.array_set_ref(arr, i, n);
            items.push(n);
        }
        // Churn to force several collections.
        for _ in 0..2000 {
            h.alloc(node).unwrap();
        }
        assert!(h.stats().minor_collections >= 1);
        let arr_again = ObjRef::from_raw(u32::from_le_bytes(h.read_body(head, f1)));
        for (i, &n) in items.iter().enumerate() {
            assert!(h.is_live(n));
            assert_eq!(elem(h.body(arr_again), i), n.raw().to_le_bytes());
            assert_eq!(i32::from_le_bytes(h.read_body(n, f0)), i as i32);
        }
    }

    #[test]
    fn promotion_happens_after_tenure_age() {
        let mut h = heap(2048, 8192, 2);
        let c = h.register_class("T", &[FieldKind::I32]);
        let keep = h.alloc(c).unwrap();
        h.add_root(keep);
        assert!(!h.is_old(keep));
        for _ in 0..4 {
            h.collect_minor();
        }
        assert!(h.is_old(keep));
    }

    #[test]
    fn old_to_young_pointers_survive_minor_gc() {
        let mut h = heap(2048, 8192, 1);
        let node = h.register_class("Node", &[FieldKind::I32, FieldKind::Ref]);
        let (f0, f1) = (h.layout(node).offset(0), h.layout(node).offset(1));
        let holder = h.alloc(node).unwrap();
        h.add_root(holder);
        // Promote the holder.
        h.collect_minor();
        h.collect_minor();
        assert!(h.is_old(holder));
        // Store a young object into the old holder (write barrier path),
        // then drop all other references to it.
        let young = h.alloc(node).unwrap();
        h.write_body(young, f0, 31337i32.to_le_bytes());
        h.write_ref(holder, f1, young);
        h.collect_minor();
        let target = ObjRef::from_raw(u32::from_le_bytes(h.read_body(holder, f1)));
        assert!(h.is_live(target));
        assert_eq!(i32::from_le_bytes(h.read_body(target, f0)), 31337);
    }

    #[test]
    fn full_gc_compacts_and_preserves_data() {
        let mut h = heap(4096, 1 << 20, 1);
        let c = h.register_class("T", &[FieldKind::I64]);
        let mut kept = Vec::new();
        for i in 0..200i64 {
            let o = h.alloc(c).unwrap();
            h.write_body(o, 0, i.to_le_bytes());
            if i % 3 == 0 {
                h.add_root(o);
                kept.push((o, i));
            }
        }
        h.collect_full();
        let used_after_first = h.used_bytes();
        h.collect_full();
        assert!(h.used_bytes() <= used_after_first);
        for (o, i) in kept {
            assert!(h.is_live(o));
            assert_eq!(i64::from_le_bytes(h.read_body(o, 0)), i);
        }
        assert!(h.stats().full_collections >= 2);
    }

    #[test]
    fn removing_roots_frees_objects_on_full_gc() {
        let mut h = heap(4096, 1 << 16, 1);
        let c = h.register_class("T", &[FieldKind::I64, FieldKind::I64]);
        let o = h.alloc(c).unwrap();
        let root = h.add_root(o);
        h.collect_full();
        assert!(h.is_live(o));
        h.remove_root(root);
        h.collect_full();
        assert!(!h.is_live(o));
    }

    #[test]
    fn cyclic_garbage_is_collected() {
        let mut h = heap(4096, 1 << 16, 1);
        let node = h.register_class("Node", &[FieldKind::Ref]);
        let a = h.alloc(node).unwrap();
        let b = h.alloc(node).unwrap();
        h.write_ref(a, 0, b);
        h.write_ref(b, 0, a);
        h.collect_full();
        assert!(!h.is_live(a));
        assert!(!h.is_live(b));
    }

    #[test]
    fn set_root_replaces_target() {
        let mut h = heap(4096, 1 << 16, 1);
        let c = h.register_class("T", &[FieldKind::I32]);
        let a = h.alloc(c).unwrap();
        let b = h.alloc(c).unwrap();
        let r = h.add_root(a);
        h.set_root(r, b);
        h.collect_full();
        assert!(!h.is_live(a));
        assert!(h.is_live(b));
    }

    #[test]
    fn pause_records_account_for_every_collection() {
        let mut h = heap(2048, 1 << 16, 1);
        let c = h.register_class("T", &[FieldKind::I64, FieldKind::I64]);
        let keep = h.alloc(c).unwrap();
        h.add_root(keep);
        for _ in 0..2000 {
            h.alloc(c).unwrap();
        }
        h.collect_full();
        let capacity = h.capacity() as u64;
        let s = h.stats();
        // One record per collection.
        assert_eq!(s.pause_records.len() as u64, s.collections());
        // gc_time is exactly the sum of the per-collection pauses: the
        // aggregate and the records derive from the same measurement.
        let sum_ns: u64 = s.pause_records.iter().map(|r| r.pause_ns).sum();
        assert_eq!(sum_ns as u128, s.gc_time.as_nanos());
        // Kinds tally with the collection counters.
        let minors = s
            .pause_records
            .iter()
            .filter(|r| r.kind == PauseKind::Minor)
            .count() as u64;
        assert_eq!(minors, s.minor_collections);
        assert_eq!(s.pause_records.len() as u64 - minors, s.full_collections);
        // The rooted object tenures at age 1, so promotion shows up.
        assert!(s.pause_records.iter().any(|r| r.promoted_bytes > 0));
        // live_bytes is a real occupancy figure, bounded by capacity.
        assert!(s.pause_records.iter().all(|r| r.live_bytes <= capacity));
        // Generation sizes are coherent: the after-figures sum to the live
        // bytes, survivors never exceed the pre-collection young occupancy,
        // and a minor collection only ever grows the old generation.
        for r in s.pause_records.iter() {
            assert_eq!(r.young_after + r.old_after, r.live_bytes);
            assert!(r.young_after <= r.young_before);
            if r.kind == PauseKind::Minor {
                assert!(r.old_after >= r.old_before);
            }
        }
    }

    #[test]
    fn gc_stats_accumulate() {
        let mut h = heap(2048, 1 << 16, 1);
        let c = h.register_class("T", &[FieldKind::I64, FieldKind::I64, FieldKind::I64]);
        let keep = h.alloc(c).unwrap();
        h.add_root(keep);
        for _ in 0..2000 {
            h.alloc(c).unwrap();
        }
        h.collect_full();
        let s = h.stats();
        assert!(s.minor_collections > 0);
        assert_eq!(s.full_collections, 1);
        assert!(s.objects_traced > 0);
        assert!(s.bytes_copied > 0);
        assert!(s.peak_bytes > 0);
        assert!(s.gc_time.as_nanos() > 0);
    }
}
