//! The program: a closed world of classes and methods, with the hierarchy
//! queries the compiler and interpreter need.

use crate::class::{ClassDef, FieldDef, MethodDef};
use crate::types::{ClassId, MethodId, Ty};
use std::sync::Arc;

/// A complete program: classes, interfaces, methods, and an optional entry
/// point. Programs are *closed worlds* — exactly the assumption the FACADE
/// compiler relies on (§3.1).
///
/// Definitions are shared copy-on-write: `clone` bumps one reference count
/// per class and method, and [`Program::class_mut`] / [`Program::method_mut`]
/// copy a definition only if another clone still shares it. A clone is
/// therefore a cheap, independent snapshot — later edits to either side
/// never show through the other.
#[derive(Debug, Clone, Default)]
pub struct Program {
    classes: Vec<Arc<ClassDef>>,
    methods: Vec<Arc<MethodDef>>,
    entry: Option<MethodId>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a class definition; used by the builder and the transformation.
    pub fn add_class(&mut self, def: ClassDef) -> ClassId {
        self.classes.push(Arc::new(def));
        ClassId((self.classes.len() - 1) as u32)
    }

    /// Adds a method definition and registers it with its declaring class.
    pub fn add_method(&mut self, def: MethodDef) -> MethodId {
        let class = def.class;
        self.methods.push(Arc::new(def));
        let id = MethodId((self.methods.len() - 1) as u32);
        self.class_mut(class).methods.push(id);
        id
    }

    /// The classes, in id order.
    pub fn classes(&self) -> impl Iterator<Item = (ClassId, &ClassDef)> {
        self.classes
            .iter()
            .enumerate()
            .map(|(i, c)| (ClassId(i as u32), &**c))
    }

    /// The methods, in id order.
    pub fn methods(&self) -> impl Iterator<Item = (MethodId, &MethodDef)> {
        self.methods
            .iter()
            .enumerate()
            .map(|(i, m)| (MethodId(i as u32), &**m))
    }

    /// Number of classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Number of methods.
    pub fn method_count(&self) -> usize {
        self.methods.len()
    }

    /// Looks up a class definition.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a class of this program.
    pub fn class(&self, id: ClassId) -> &ClassDef {
        &self.classes[id.0 as usize]
    }

    /// Mutable access to a class definition (copied first if a clone of
    /// this program still shares it).
    pub fn class_mut(&mut self, id: ClassId) -> &mut ClassDef {
        Arc::make_mut(&mut self.classes[id.0 as usize])
    }

    /// Looks up a method definition.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a method of this program.
    pub fn method(&self, id: MethodId) -> &MethodDef {
        &self.methods[id.0 as usize]
    }

    /// Mutable access to a method definition (copied first if a clone of
    /// this program still shares it).
    pub fn method_mut(&mut self, id: MethodId) -> &mut MethodDef {
        Arc::make_mut(&mut self.methods[id.0 as usize])
    }

    /// Removes method `id`'s body and keeps its declaration. A definition a
    /// clone still shares is replaced by a body-less copy, so the body is
    /// never copied only to be dropped.
    pub fn remove_body(&mut self, id: MethodId) {
        let slot = &mut self.methods[id.0 as usize];
        match Arc::get_mut(slot) {
            Some(def) => def.body = None,
            None => {
                *slot = Arc::new(MethodDef {
                    name: slot.name.clone(),
                    class: slot.class,
                    params: slot.params.clone(),
                    ret: slot.ret.clone(),
                    is_static: slot.is_static,
                    body: None,
                });
            }
        }
    }

    /// Finds a class by name.
    pub fn class_by_name(&self, name: &str) -> Option<ClassId> {
        self.classes
            .iter()
            .position(|c| c.name == name)
            .map(|i| ClassId(i as u32))
    }

    /// Finds a method declared *directly* on `class` by name.
    pub fn method_by_name(&self, class: ClassId, name: &str) -> Option<MethodId> {
        self.class(class)
            .methods
            .iter()
            .copied()
            .find(|&m| self.method(m).name == name)
    }

    /// The program entry point.
    pub fn entry(&self) -> Option<MethodId> {
        self.entry
    }

    /// Sets the program entry point (must be a static method).
    pub fn set_entry(&mut self, m: MethodId) {
        self.entry = Some(m);
    }

    /// Total instruction count over all bodies — the unit of the paper's
    /// compilation-speed metric (§4.1 reports instructions/second).
    pub fn instr_count(&self) -> usize {
        self.methods
            .iter()
            .filter_map(|m| m.body.as_ref())
            .map(|b| b.instr_count())
            .sum()
    }

    // ----- hierarchy queries ---------------------------------------------

    /// The flattened instance-field layout of `class`: superclass fields
    /// first, then own fields (§3.1 — this is what makes record offsets
    /// statically computable).
    pub fn flat_fields(&self, class: ClassId) -> Vec<(ClassId, &FieldDef)> {
        let mut out = match self.class(class).superclass {
            Some(s) => self.flat_fields(s),
            None => Vec::new(),
        };
        out.extend(self.class(class).fields.iter().map(|f| (class, f)));
        out
    }

    /// The slot index of field `name` in the flattened layout of `class`,
    /// searching inherited fields too.
    pub fn field_slot(&self, class: ClassId, name: &str) -> Option<usize> {
        self.flat_fields(class)
            .iter()
            .position(|(_, f)| f.name == name)
    }

    /// The declared type of flattened field slot `slot` of `class`.
    pub fn field_ty(&self, class: ClassId, slot: usize) -> Option<Ty> {
        self.flat_fields(class).get(slot).map(|(_, f)| f.ty.clone())
    }

    /// Returns `true` if `a` is `b` or a subtype of `b` (superclass chain
    /// and transitively implemented interfaces).
    pub fn is_subtype(&self, a: ClassId, b: ClassId) -> bool {
        if a == b {
            return true;
        }
        let def = self.class(a);
        if let Some(s) = def.superclass {
            if self.is_subtype(s, b) {
                return true;
            }
        }
        def.interfaces.iter().any(|&i| self.is_subtype(i, b))
    }

    /// Direct subclasses (and subinterfaces / implementors) of `class`.
    pub fn direct_subtypes(&self, class: ClassId) -> Vec<ClassId> {
        self.classes()
            .filter(|(id, c)| {
                *id != class && (c.superclass == Some(class) || c.interfaces.contains(&class))
            })
            .map(|(id, _)| id)
            .collect()
    }

    /// All subtypes of `class` (excluding itself).
    pub fn all_subtypes(&self, class: ClassId) -> Vec<ClassId> {
        let mut out = Vec::new();
        let mut stack = self.direct_subtypes(class);
        while let Some(c) = stack.pop() {
            if !out.contains(&c) {
                stack.extend(self.direct_subtypes(c));
                out.push(c);
            }
        }
        out
    }

    /// Any concrete (non-interface) subtype of `class`, including itself.
    /// Used by the bound computation when a parameter's declared type is
    /// abstract (§3.3).
    pub fn any_concrete_subtype(&self, class: ClassId) -> Option<ClassId> {
        if !self.class(class).is_interface() {
            return Some(class);
        }
        self.all_subtypes(class)
            .into_iter()
            .find(|&c| !self.class(c).is_interface())
    }

    /// Resolves a virtual call: finds the implementation of `declared` for
    /// a receiver whose runtime class is `runtime_class`, walking the
    /// superclass chain from the runtime class upward. Returns `None` when
    /// no implementation exists (e.g. an unimplemented interface method).
    pub fn try_resolve_virtual(
        &self,
        runtime_class: ClassId,
        declared: MethodId,
    ) -> Option<MethodId> {
        let want = self.method(declared);
        let mut cursor = Some(runtime_class);
        while let Some(c) = cursor {
            if let Some(found) = self.class(c).methods.iter().copied().find(|&m| {
                let cand = self.method(m);
                cand.name == want.name
                    && cand.params.len() == want.params.len()
                    && cand.body.is_some()
            }) {
                return Some(found);
            }
            cursor = self.class(c).superclass;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::{Block, ClassKind};
    use crate::instr::Terminator;

    fn class(name: &str, superclass: Option<ClassId>, fields: Vec<FieldDef>) -> ClassDef {
        ClassDef {
            name: name.into(),
            kind: ClassKind::Class,
            superclass,
            interfaces: vec![],
            fields,
            methods: vec![],
        }
    }

    fn field(name: &str, ty: Ty) -> FieldDef {
        FieldDef {
            name: name.into(),
            ty,
        }
    }

    #[test]
    fn flat_fields_are_superclass_first() {
        let mut p = Program::new();
        let a = p.add_class(class("A", None, vec![field("x", Ty::I32)]));
        let b = p.add_class(class("B", Some(a), vec![field("y", Ty::I64)]));
        let flat = p.flat_fields(b);
        assert_eq!(flat.len(), 2);
        assert_eq!(flat[0].1.name, "x");
        assert_eq!(flat[1].1.name, "y");
        assert_eq!(p.field_slot(b, "x"), Some(0));
        assert_eq!(p.field_slot(b, "y"), Some(1));
        assert_eq!(p.field_slot(a, "y"), None);
        assert_eq!(p.field_ty(b, 1), Some(Ty::I64));
    }

    #[test]
    fn subtyping_via_superclass_and_interface() {
        let mut p = Program::new();
        let iface = p.add_class(ClassDef {
            name: "Comparable".into(),
            kind: ClassKind::Interface,
            superclass: None,
            interfaces: vec![],
            fields: vec![],
            methods: vec![],
        });
        let a = p.add_class(class("A", None, vec![]));
        let mut b_def = class("B", Some(a), vec![]);
        b_def.interfaces.push(iface);
        let b = p.add_class(b_def);
        assert!(p.is_subtype(b, a));
        assert!(p.is_subtype(b, iface));
        assert!(!p.is_subtype(a, b));
        assert!(p.is_subtype(a, a));
        assert_eq!(p.all_subtypes(a), vec![b]);
        assert_eq!(p.any_concrete_subtype(iface), Some(b));
    }

    #[test]
    fn virtual_resolution_walks_the_chain() {
        let mut p = Program::new();
        let a = p.add_class(class("A", None, vec![]));
        let b = p.add_class(class("B", Some(a), vec![]));
        let c = p.add_class(class("C", Some(b), vec![]));
        let body = || {
            Some(crate::class::Body {
                locals: vec![Ty::Ref(a)],
                blocks: vec![Block {
                    instrs: vec![],
                    term: Some(Terminator::Return(None)),
                }],
            })
        };
        let base = p.add_method(MethodDef {
            name: "m".into(),
            class: a,
            params: vec![],
            ret: None,
            is_static: false,
            body: body(),
        });
        let overridden = p.add_method(MethodDef {
            name: "m".into(),
            class: b,
            params: vec![],
            ret: None,
            is_static: false,
            body: body(),
        });
        assert_eq!(p.try_resolve_virtual(a, base), Some(base));
        assert_eq!(p.try_resolve_virtual(b, base), Some(overridden));
        // C has no override: inherits B's.
        assert_eq!(p.try_resolve_virtual(c, base), Some(overridden));
    }

    #[test]
    fn a_clone_is_an_independent_snapshot() {
        let mut p = Program::new();
        let a = p.add_class(class("A", None, vec![field("x", Ty::I32)]));
        let m = p.add_method(MethodDef {
            name: "run".into(),
            class: a,
            params: vec![],
            ret: None,
            is_static: true,
            body: None,
        });
        let snapshot = p.clone();
        assert!(std::ptr::eq(p.method(m), snapshot.method(m)), "shared");
        p.method_mut(m).name = "walk".into();
        p.class_mut(a).fields.clear();
        assert_eq!(snapshot.method(m).name, "run");
        assert_eq!(snapshot.class(a).fields.len(), 1);
        assert_eq!(p.method(m).name, "walk");
        // An unshared definition is edited in place.
        let before: *const MethodDef = p.method(m);
        p.method_mut(m).is_static = false;
        assert!(std::ptr::eq(before, p.method(m)));
    }

    #[test]
    fn lookup_by_name() {
        let mut p = Program::new();
        let a = p.add_class(class("A", None, vec![]));
        assert_eq!(p.class_by_name("A"), Some(a));
        assert_eq!(p.class_by_name("Z"), None);
        let m = p.add_method(MethodDef {
            name: "run".into(),
            class: a,
            params: vec![],
            ret: None,
            is_static: true,
            body: None,
        });
        assert_eq!(p.method_by_name(a, "run"), Some(m));
        assert_eq!(p.method_by_name(a, "walk"), None);
    }
}
