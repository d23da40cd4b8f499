//! Facade pool bound computation (§3.3).
//!
//! Before transformation, FACADE inspects the parameters of every call site
//! and computes, for each data type, the maximum number of same-typed
//! arguments any single call requires. That maximum is the length of the
//! type's parameter pool: the `i`-th argument of a type binds the `i`-th
//! pool facade, so distinct arguments always get distinct facades.
//!
//! The computation uses *static* parameter types only; a facade of a general
//! type is sufficient to carry any subtype's page reference because
//! receivers go through the separate receiver pool. Abstract parameter
//! types are attributed to an arbitrary concrete subtype.

use crate::meta::PagedMeta;
use facade_ir::{ClassId, Instr, Program, Ty};
use std::collections::HashMap;

/// Resolves the data class a declared parameter type should be attributed
/// to: concrete data classes attribute to themselves; data interfaces to an
/// arbitrary concrete subtype (§3.3).
fn attributed_class(program: &Program, meta: &PagedMeta, ty: &Ty) -> Option<ClassId> {
    let class = ty.as_class()?;
    if meta.type_ids.contains_key(&class) {
        return Some(class);
    }
    if program.class(class).is_interface() {
        let concrete = program.any_concrete_subtype(class)?;
        if meta.type_ids.contains_key(&concrete) {
            return Some(concrete);
        }
    }
    None
}

/// The pool slot each of a callee's parameters binds: for a data parameter,
/// its attributed class and how many same-typed parameters precede it;
/// `None` for any other parameter. The transform binds `BindParam` index
/// `i` from this, and a type's bound is its largest slot plus one, so the
/// two cannot disagree.
pub(crate) fn param_slots(
    program: &Program,
    meta: &PagedMeta,
    params: &[Ty],
) -> Vec<Option<(ClassId, usize)>> {
    let mut counts: HashMap<u16, usize> = HashMap::new();
    params
        .iter()
        .map(|p| {
            let class = attributed_class(program, meta, p)?;
            let count = counts.entry(meta.type_id(class)).or_default();
            *count += 1;
            Some((class, *count - 1))
        })
        .collect()
}

/// Computes the per-type bounds over every call site of the program and
/// stores them into `meta.bounds`.
pub(crate) fn compute(program: &Program, meta: &mut PagedMeta) {
    let n_types = meta.layouts.len();
    let mut table: Vec<u16> = vec![1; n_types];
    for (_, method) in program.methods() {
        let Some(body) = &method.body else { continue };
        for block in &body.blocks {
            for instr in &block.instrs {
                let Instr::Call { target, .. } = instr else {
                    continue;
                };
                let callee = program.method(target.method());
                // Returning a data value binds pool facade 0 (Table 1 case
                // 5.1), which the minimum bound of 1 already covers.
                let slots = param_slots(program, meta, &callee.params);
                for (class, index) in slots.into_iter().flatten() {
                    let bound = u16::try_from(index + 1).expect("parameter count fits u16");
                    let slot = &mut table[meta.type_id(class) as usize];
                    *slot = (*slot).max(bound);
                }
            }
        }
    }
    meta.bounds = facade_runtime::PoolBounds::from_table(table);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{closed_world, hierarchy};
    use facade_ir::{ProgramBuilder, Ty};
    use facade_runtime::TypeId;

    #[test]
    fn bound_is_max_same_typed_arguments() {
        let mut pb = ProgramBuilder::new();
        let s = pb.class("Student").field("id", Ty::I32).build();
        let main = pb.class("Main").build();
        // A callee taking three Students.
        let mut callee = pb
            .method(main, "take3")
            .param(Ty::Ref(s))
            .param(Ty::Ref(s))
            .param(Ty::Ref(s))
            .static_();
        callee.ret(None);
        let callee = callee.finish();
        let mut caller = pb.method(main, "caller").static_();
        let a = caller.const_null(Ty::Ref(s));
        caller.call_static(callee, vec![a, a, a]);
        caller.ret(None);
        caller.finish();
        let p = pb.finish();
        let data = closed_world::check(&p, &crate::DataSpec::new(["Student"])).unwrap();
        let mut p = p.clone();
        let mut meta = hierarchy::generate(&mut p, &data);
        compute(&p, &mut meta);
        let tid = meta.type_id(p.class_by_name("Student").unwrap());
        assert_eq!(meta.bounds.bound(TypeId(tid)), 3);
    }

    #[test]
    fn bound_defaults_to_one_for_unused_types() {
        let mut pb = ProgramBuilder::new();
        pb.class("Student").build();
        let p = pb.finish();
        let data = closed_world::check(&p, &crate::DataSpec::new(["Student"])).unwrap();
        let mut p = p.clone();
        let mut meta = hierarchy::generate(&mut p, &data);
        compute(&p, &mut meta);
        let tid = meta.type_id(p.class_by_name("Student").unwrap());
        assert_eq!(meta.bounds.bound(TypeId(tid)), 1);
    }

    #[test]
    fn abstract_parameter_types_attribute_to_a_concrete_subtype() {
        let mut pb = ProgramBuilder::new();
        let shape = pb.interface("Shape").build();
        let circle = pb.class("Circle").implements(shape).build();
        let main = pb.class("Main").build();
        let mut callee = pb
            .method(main, "take2")
            .param(Ty::Ref(shape))
            .param(Ty::Ref(shape))
            .static_();
        callee.ret(None);
        let callee = callee.finish();
        let mut caller = pb.method(main, "caller").static_();
        let a = caller.const_null(Ty::Ref(circle));
        caller.call_static(callee, vec![a, a]);
        caller.ret(None);
        caller.finish();
        let p = pb.finish();
        let data = closed_world::check(&p, &crate::DataSpec::new(["Circle"])).unwrap();
        let mut p = p.clone();
        let mut meta = hierarchy::generate(&mut p, &data);
        compute(&p, &mut meta);
        let tid = meta.type_id(p.class_by_name("Circle").unwrap());
        assert_eq!(meta.bounds.bound(TypeId(tid)), 2);
    }
}
