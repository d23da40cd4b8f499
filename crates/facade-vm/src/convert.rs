//! Data conversion functions (§3.5).
//!
//! At an interaction point, data crossing the control/data boundary changes
//! representation: a heap object graph becomes a graph of paged records
//! (`convertFromA`) or vice versa (`convertToA`). The paper synthesizes one
//! function per involved type that "reads each field in an object of A ...
//! and writes the value into a page"; here the conversion is driven by the
//! registered layouts, recursing through reference fields and array
//! elements with memoization so shared structure (and cycles) convert once.
//! A primitive array's elements are the same little-endian bytes on both
//! backends, so they are copied as one slice.

use crate::error::VmError;
use crate::interp::Vm;
use facade_runtime::{ElemKind as PElem, PageRef, TypeId as PTypeId};
use managed_heap::{ClassId as HClassId, ElemKind as HElem, FieldKind as HField, ObjRef};
use std::collections::HashMap;

impl Vm<'_> {
    /// Converts a heap object graph into paged records (`convertFromA`).
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
            let pk = match self.heap.array_kind(obj) {
                HElem::U8 => PElem::U8,
                HElem::I32 => PElem::I32,
                HElem::I64 => PElem::I64,
                HElem::Ref => {
                    let rec = self.paged.alloc_array(PElem::Ref, len)?;
                    memo.insert(obj.raw(), rec);
                    for i in 0..len {
                        let child = self.heap.array_get_ref(obj, i);
                        let r = self.to_page_rec(child, memo)?;
                        self.paged.array_set_ref(rec, i, r);
                    }
                    return Ok(rec);
                }
            };
            let bytes = self.heap.array_bytes(obj);
            let rec = self
                .paged
                .alloc_array_init(pk, len, |b| b.copy_from_slice(bytes))?;
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
        let mut i = 0;
        while let Some((kind, h_at, p_at)) = self.field_at(hclass, PTypeId(tid), i) {
            i += 1;
            match kind {
                HField::I32 => {
                    let v = self.heap.get_i32_at(obj, h_at);
                    self.paged.set_i32_at(rec, p_at, v);
                }
                HField::I64 => {
                    let v = self.heap.get_i64_at(obj, h_at);
                    self.paged.set_i64_at(rec, p_at, v);
                }
                HField::Ref => {
                    let child = self.heap.get_ref_at(obj, h_at);
                    let r = self.to_page_rec(child, memo)?;
                    self.paged.set_ref_at(rec, p_at, r);
                }
            }
        }
        Ok(rec)
    }

    /// Field `i` of a data class, by its two layouts (heap class `class`,
    /// record type `ty`): its kind and its offset in each, or `None` past
    /// the last field.
    fn field_at(&self, class: HClassId, ty: PTypeId, i: usize) -> Option<(HField, u32, u32)> {
        let kind = *self.heap.layout(class).fields().get(i)?;
        Some((
            kind,
            self.heap.field_offset(class, i),
            self.paged.field_offset(ty, i),
        ))
    }

    /// Converts a paged record graph into heap objects (`convertToA`).
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
            let hk = match kind {
                PElem::U8 => HElem::U8,
                PElem::I32 => HElem::I32,
                PElem::I64 => HElem::I64,
                PElem::Ref => {
                    let obj = self.heap.alloc_array(HElem::Ref, len)?;
                    temp_roots.push(self.heap.add_root(obj));
                    memo.insert(rec.raw(), obj);
                    for i in 0..len {
                        let child = self.paged.array_get_ref(rec, i);
                        let o = self.to_heap_rec(child, memo, temp_roots)?;
                        self.heap.array_set_ref(obj, i, o);
                    }
                    return Ok(obj);
                }
            };
            let bytes = self.paged.array_bytes(rec);
            let obj = self
                .heap
                .alloc_array_init(hk, len, |b| b.copy_from_slice(bytes))?;
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
        let mut i = 0;
        while let Some((kind, h_at, p_at)) = self.field_at(hclass, tid, i) {
            i += 1;
            match kind {
                HField::I32 => {
                    let v = self.paged.get_i32_at(rec, p_at);
                    self.heap.set_i32_at(obj, h_at, v);
                }
                HField::I64 => {
                    let v = self.paged.get_i64_at(rec, p_at);
                    self.heap.set_i64_at(obj, h_at, v);
                }
                HField::Ref => {
                    let child = self.paged.get_ref_at(rec, p_at);
                    let o = self.to_heap_rec(child, memo, temp_roots)?;
                    self.heap.set_ref_at(obj, h_at, o);
                }
            }
        }
        Ok(obj)
    }
}
