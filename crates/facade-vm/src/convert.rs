//! Data conversion functions (§3.5).
//!
//! At an interaction point, data crossing the control/data boundary changes
//! representation: a heap object graph becomes a graph of paged records
//! (`convertFromA`) or vice versa (`convertToA`). The paper synthesizes one
//! function per involved type that "reads each field in an object of A ...
//! and writes the value into a page"; here the conversion is driven by the
//! registered layouts, recursing through reference fields and array
//! elements with memoization so shared structure (and cycles) convert once.

use crate::error::VmError;
use crate::interp::Vm;
use facade_runtime::{ElemKind as PElem, PageRef, TypeId as PTypeId};
use managed_heap::{ElemKind as HElem, FieldKind as HField, ObjRef};
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
        if self.heap_ref().is_array(obj) {
            let len = self.heap_ref().array_len(obj);
            let kind = self.heap_ref().array_kind(obj);
            let pk = match kind {
                HElem::U8 => PElem::U8,
                HElem::I32 => PElem::I32,
                HElem::I64 => PElem::I64,
                HElem::Ref => PElem::Ref,
            };
            let rec = self.paged_mut().alloc_array(pk, len)?;
            memo.insert(obj.raw(), rec);
            for i in 0..len {
                match kind {
                    HElem::U8 => {
                        let v = self.heap_ref().array_get_u8(obj, i);
                        self.paged_mut().array_set_u8(rec, i, v);
                    }
                    HElem::I32 => {
                        let v = self.heap_ref().array_get_i32(obj, i);
                        self.paged_mut().array_set_i32(rec, i, v);
                    }
                    HElem::I64 => {
                        let v = self.heap_ref().array_get_i64(obj, i);
                        self.paged_mut().array_set_i64(rec, i, v);
                    }
                    HElem::Ref => {
                        let child = self.heap_ref().array_get_ref(obj, i);
                        let r = self.to_page_rec(child, memo)?;
                        self.paged_mut().array_set_ref(rec, i, r);
                    }
                }
            }
            return Ok(rec);
        }
        let hclass = self
            .heap_ref()
            .class_of(obj)
            .expect("non-array object has a class");
        let ir_class = self.ir_class_of(hclass);
        let tid = self.tables().type_id(ir_class).ok_or_else(|| {
            VmError::IllegalInstruction(format!(
                "converting non-data class `{}` to a record",
                self.program_ref().class(ir_class).name
            ))
        })?;
        let rec = self.paged_mut().alloc(PTypeId(tid))?;
        memo.insert(obj.raw(), rec);
        let kinds: Vec<HField> = self.heap_ref().layout(hclass).fields().to_vec();
        for (i, kind) in kinds.iter().enumerate() {
            match kind {
                HField::I32 => {
                    let v = self.heap_ref().get_i32(obj, i);
                    self.paged_mut().set_i32(rec, i, v);
                }
                HField::I64 => {
                    let v = self.heap_ref().get_i64(obj, i);
                    self.paged_mut().set_i64(rec, i, v);
                }
                HField::Ref => {
                    let child = self.heap_ref().get_ref(obj, i);
                    let r = self.to_page_rec(child, memo)?;
                    self.paged_mut().set_ref(rec, i, r);
                }
            }
        }
        Ok(rec)
    }

    /// Converts a paged record graph into heap objects (`convertToA`).
    pub(crate) fn convert_to_heap(&mut self, root: PageRef) -> Result<ObjRef, VmError> {
        let mut memo = HashMap::new();
        let mut temp_roots = Vec::new();
        let out = self.to_heap_rec(root, &mut memo, &mut temp_roots);
        // The conversion temporarily roots every object it creates so a
        // collection triggered mid-conversion cannot reclaim them; the
        // caller's frame root takes over once the value is stored.
        let result = out?;
        if !result.is_null() {
            // Keep the whole converted graph alive through the returned
            // root: children are reachable from it by construction.
        }
        for r in temp_roots {
            self.heap_mut().remove_root(r);
        }
        Ok(result)
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
        if self.paged_ref().is_array(rec) {
            let len = self.paged_ref().array_len(rec);
            // Infallible: the is_array guard above means the type ID is one
            // of the four array kinds.
            let kind = self
                .paged_ref()
                .array_kind(rec)
                .expect("guarded by is_array");
            let hk = match kind {
                PElem::U8 => HElem::U8,
                PElem::I32 => HElem::I32,
                PElem::I64 => HElem::I64,
                PElem::Ref => HElem::Ref,
            };
            let obj = self.heap_mut().alloc_array(hk, len)?;
            temp_roots.push(self.heap_mut().add_root(obj));
            memo.insert(rec.raw(), obj);
            for i in 0..len {
                match kind {
                    PElem::U8 => {
                        let v = self.paged_ref().array_get_u8(rec, i);
                        self.heap_mut().array_set_u8(obj, i, v);
                    }
                    PElem::I32 => {
                        let v = self.paged_ref().array_get_i32(rec, i);
                        self.heap_mut().array_set_i32(obj, i, v);
                    }
                    PElem::I64 => {
                        let v = self.paged_ref().array_get_i64(rec, i);
                        self.heap_mut().array_set_i64(obj, i, v);
                    }
                    PElem::Ref => {
                        let child = self.paged_ref().array_get_ref(rec, i);
                        let o = self.to_heap_rec(child, memo, temp_roots)?;
                        self.heap_mut().array_set_ref(obj, i, o);
                    }
                }
            }
            return Ok(obj);
        }
        let tid = self.paged_ref().type_of(rec).0;
        let ir_class = self
            .tables()
            .class_of_type(tid)
            .expect("a non-array record has a registered data class");
        let hclass = self.heap_class_of(ir_class);
        let obj = self.heap_mut().alloc(hclass)?;
        temp_roots.push(self.heap_mut().add_root(obj));
        memo.insert(rec.raw(), obj);
        let kinds: Vec<HField> = self.heap_ref().layout(hclass).fields().to_vec();
        for (i, kind) in kinds.iter().enumerate() {
            match kind {
                HField::I32 => {
                    let v = self.paged_ref().get_i32(rec, i);
                    self.heap_mut().set_i32(obj, i, v);
                }
                HField::I64 => {
                    let v = self.paged_ref().get_i64(rec, i);
                    self.heap_mut().set_i64(obj, i, v);
                }
                HField::Ref => {
                    let child = self.paged_ref().get_ref(rec, i);
                    let o = self.to_heap_rec(child, memo, temp_roots)?;
                    self.heap_mut().set_ref(obj, i, o);
                }
            }
        }
        Ok(obj)
    }
}
