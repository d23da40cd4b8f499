//! Data conversion functions (§3.5).
//!
//! At an interaction point, data crossing the control/data boundary changes
//! representation: a heap object graph becomes a graph of paged records
//! (`convertFromA`) or vice versa (`convertToA`). The paper synthesizes one
//! function per involved type that "reads each field in an object of A ...
//! and writes the value into a page"; here the conversion is driven by the
//! registered layouts, recursing through reference fields and array
//! elements with memoization so shared structure (and cycles) convert once.
//! A record's body is laid out the same in an object and in a page (§2.1),
//! and a primitive array's elements are the same little-endian bytes on
//! both backends, so each is copied as one slice; then only its references
//! are rewritten, at the layout's `ref_offsets`.

use crate::error::VmError;
use crate::interp::Vm;
use facade_runtime::{ElemKind, PageRef, TypeId as PTypeId};
use managed_heap::{ObjRef, elem, set_elem};
use std::collections::HashMap;

impl Vm<'_> {
    /// Converts a heap object graph into paged records (`convertFromA`).
    #[cold]
    #[inline(never)]
    pub(crate) fn convert_to_page(&mut self, root: ObjRef) -> Result<PageRef, VmError> {
        let mut memo = HashMap::new();
        self.to_page_rec(root, &mut memo)
    }

    #[allow(clippy::wrong_self_convention)]
    fn to_page_rec(
        &mut self,
        obj: ObjRef,
        memo: &mut HashMap<u32, PageRef>,
    ) -> Result<PageRef, VmError> {
        if obj.is_null() {
            return Ok(PageRef::NULL);
        }
        if let Some(&r) = memo.get(&obj.raw()) {
            return Ok(r);
        }
        let Some(hclass) = self.heap.class_of(obj) else {
            let len = self.heap.array_len(obj);
            let kind = self.heap.array_kind(obj);
            if kind == ElemKind::Ref {
                let rec = self.paged.alloc_array(kind, len)?;
                memo.insert(obj.raw(), rec);
                for i in 0..len {
                    let child = ObjRef::from_raw(u32::from_le_bytes(elem(self.heap.body(obj), i)));
                    let r = self.to_page_rec(child, memo)?;
                    set_elem(self.paged.body_mut(rec), i, (r.raw() as u32).to_le_bytes());
                }
                return Ok(rec);
            }
            let bytes = self.heap.array_bytes(obj);
            let rec = self
                .paged
                .alloc_array_init(kind, len, |b| b.copy_from_slice(bytes))?;
            memo.insert(obj.raw(), rec);
            return Ok(rec);
        };
        let ir_class = self.tables.ir_class(hclass);
        let tid = self.tables.type_id(ir_class).ok_or_else(|| {
            VmError::IllegalInstruction(format!(
                "converting non-data class `{}` to a record",
                self.program.class(ir_class).name
            ))
        })?;
        let rec = self.paged.alloc(PTypeId(tid))?;
        memo.insert(obj.raw(), rec);
        let n = self.heap.layout(hclass).body_bytes() as usize;
        self.paged.body_mut(rec)[..n].copy_from_slice(&self.heap.body(obj)[..n]);
        let mut k = 0;
        while let Some(&at) = self.heap.layout(hclass).ref_offsets().get(k) {
            k += 1;
            let child = ObjRef::from_raw(u32::from_le_bytes(self.heap.read_body(obj, at)));
            let r = self.to_page_rec(child, memo)?;
            self.paged
                .write_body(rec, at, (r.raw() as u32).to_le_bytes());
        }
        Ok(rec)
    }

    /// Converts a paged record graph into heap objects (`convertToA`).
    #[cold]
    #[inline(never)]
    pub(crate) fn convert_to_heap(&mut self, root: PageRef) -> Result<ObjRef, VmError> {
        let mut memo = HashMap::new();
        let mut temp_roots = Vec::new();
        let out = self.to_heap_rec(root, &mut memo, &mut temp_roots);
        // The conversion temporarily roots every object it creates so a
        // collection triggered mid-conversion cannot reclaim them; the
        // caller's frame root takes over once the value is stored.
        for r in temp_roots {
            self.heap.remove_root(r);
        }
        out
    }

    #[allow(clippy::wrong_self_convention)]
    fn to_heap_rec(
        &mut self,
        rec: PageRef,
        memo: &mut HashMap<u64, ObjRef>,
        temp_roots: &mut Vec<managed_heap::RootId>,
    ) -> Result<ObjRef, VmError> {
        if rec.is_null() {
            return Ok(ObjRef::NULL);
        }
        if let Some(&o) = memo.get(&rec.raw()) {
            return Ok(o);
        }
        if let Ok(kind) = self.paged.array_kind(rec) {
            let len = self.paged.array_len(rec);
            if kind == ElemKind::Ref {
                let obj = self.heap.alloc_array(kind, len)?;
                temp_roots.push(self.heap.add_root(obj));
                memo.insert(rec.raw(), obj);
                for i in 0..len {
                    let child = u32::from_le_bytes(elem(self.paged.body(rec), i));
                    let o = self.to_heap_rec(PageRef::from_raw(child.into()), memo, temp_roots)?;
                    self.heap.array_set_ref(obj, i, o);
                }
                return Ok(obj);
            }
            let bytes = self.paged.array_bytes(rec);
            let obj = self
                .heap
                .alloc_array_init(kind, len, |b| b.copy_from_slice(bytes))?;
            temp_roots.push(self.heap.add_root(obj));
            memo.insert(rec.raw(), obj);
            return Ok(obj);
        }
        let tid = self.paged.type_of(rec);
        let hclass = self
            .tables
            .class_of_type(tid.0)
            .and_then(|c| self.tables.heap_class(c))
            .expect("a non-array record has a registered data class");
        let obj = self.heap.alloc(hclass)?;
        temp_roots.push(self.heap.add_root(obj));
        memo.insert(rec.raw(), obj);
        let layout = self.paged.layout(tid);
        let n = layout.body_bytes() as usize;
        let body = &mut self.heap.body_mut(obj)[..n];
        body.copy_from_slice(&self.paged.body(rec)[..n]);
        // The copy left page references where the object's references go;
        // null them before converting a child can run the collector, which
        // would trace them as object-table indices.
        for &at in layout.ref_offsets() {
            body[at as usize..at as usize + 4].fill(0);
        }
        let mut k = 0;
        while let Some(&at) = self.paged.layout(tid).ref_offsets().get(k) {
            k += 1;
            let child = u32::from_le_bytes(self.paged.read_body(rec, at));
            let o = self.to_heap_rec(PageRef::from_raw(child.into()), memo, temp_roots)?;
            self.heap.write_ref(obj, at, o);
        }
        Ok(obj)
    }
}
