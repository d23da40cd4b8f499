//! The two closed-world assumption checks of §3.1.

use crate::DataSpec;
use crate::error::CompileError;
use facade_ir::{ClassId, Program, Ty};
use std::collections::{BTreeSet, HashMap};

/// Returns `true` if `ty` is acceptable inside the data path given the set
/// of data classes: primitives, data-class references, and arrays thereof.
fn is_data_ty(program: &Program, data: &BTreeSet<ClassId>, subtypes: &Subtypes, ty: &Ty) -> bool {
    match ty {
        Ty::I32 | Ty::I64 | Ty::F64 => true,
        Ty::Ref(c) => {
            data.contains(c)
                || program.class(*c).is_interface()
                    && implemented_by_data_only(program, data, subtypes.all(*c))
        }
        Ty::Array(e) => is_data_ty(program, data, subtypes, e),
        Ty::PageRef | Ty::Facade(_) => true,
    }
}

/// An interface is a *data interface* when every concrete implementor is a
/// data class. (A mixed interface may still be implemented by data classes —
/// §3.2 generates `IFacade` for it — but data-path variables must not be
/// typed by it.)
pub(crate) fn is_data_interface(
    program: &Program,
    data: &BTreeSet<ClassId>,
    iface: ClassId,
) -> bool {
    program.class(iface).is_interface()
        && implemented_by_data_only(program, data, program.all_subtypes(iface))
}

/// Whether `subs`, an interface's subtypes, hold a concrete class and every
/// concrete class among them is a data class.
fn implemented_by_data_only(
    program: &Program,
    data: &BTreeSet<ClassId>,
    subs: Vec<ClassId>,
) -> bool {
    let mut any = false;
    for s in subs {
        if program.class(s).is_interface() {
            continue;
        }
        any = true;
        if !data.contains(&s) {
            return false;
        }
    }
    any
}

/// The hierarchy read downwards: each class's direct subtypes, in class
/// order, built in one pass over the program, so a check asks for a
/// class's subtypes without scanning every class.
struct Subtypes(Vec<Vec<ClassId>>);

impl Subtypes {
    fn new(program: &Program) -> Self {
        let mut direct: Vec<Vec<ClassId>> = vec![Vec::new(); program.class_count()];
        for (id, class) in program.classes() {
            for parent in class.superclass.iter().chain(&class.interfaces) {
                let subs = &mut direct[parent.0 as usize];
                // A class is a direct subtype of a parent once, however many
                // times it names it.
                if *parent != id && subs.last() != Some(&id) {
                    subs.push(id);
                }
            }
        }
        Self(direct)
    }

    /// What [`Program::all_subtypes`] returns for `class`, in its order.
    fn all(&self, class: ClassId) -> Vec<ClassId> {
        let mut out = Vec::new();
        let mut stack = self.0[class.0 as usize].clone();
        while let Some(c) = stack.pop() {
            if !out.contains(&c) {
                stack.extend_from_slice(&self.0[c.0 as usize]);
                out.push(c);
            }
        }
        out
    }
}

/// Validates the spec and both closed-world assumptions, returning the
/// resolved set of data classes.
///
/// # Errors
///
/// - [`CompileError::UnknownClass`] / [`CompileError::InterfaceInSpec`] for
///   malformed specs.
/// - [`CompileError::NonDataField`] for reference-closed-world violations:
///   every reference-typed field of a data class must have a data type.
/// - [`CompileError::OpenHierarchy`] for type-closed-world violations: a
///   data class's superclasses and subclasses must be data classes.
pub(crate) fn check(program: &Program, spec: &DataSpec) -> Result<BTreeSet<ClassId>, CompileError> {
    // Built once: per spec name and per data class, a lookup or a scan of
    // every class would make the check quadratic in the class count.
    let mut by_name = HashMap::with_capacity(program.class_count());
    for (id, class) in program.classes() {
        by_name.entry(class.name.as_str()).or_insert(id);
    }
    let subtypes = Subtypes::new(program);

    let mut data = BTreeSet::new();
    for name in spec.names() {
        let id = *by_name
            .get(name)
            .ok_or_else(|| CompileError::UnknownClass(name.to_string()))?;
        if program.class(id).is_interface() {
            return Err(CompileError::InterfaceInSpec(name.to_string()));
        }
        data.insert(id);
    }

    for &class in &data {
        let def = program.class(class);
        // Type-closed-world: superclasses must be data classes...
        if let Some(s) = def.superclass {
            if !data.contains(&s) {
                return Err(CompileError::OpenHierarchy {
                    class: def.name.clone(),
                    relative: program.class(s).name.clone(),
                    relation: "superclass",
                });
            }
        }
        // ... and so must subclasses.
        for sub in subtypes.all(class) {
            if !program.class(sub).is_interface() && !data.contains(&sub) {
                return Err(CompileError::OpenHierarchy {
                    class: def.name.clone(),
                    relative: program.class(sub).name.clone(),
                    relation: "subclass",
                });
            }
        }
        // Reference-closed-world: reference fields must have data types.
        for (declaring, field) in program.flat_fields(class) {
            if field.ty.is_reference() && !is_data_ty(program, &data, &subtypes, &field.ty) {
                return Err(CompileError::NonDataField {
                    class: program.class(declaring).name.clone(),
                    field: field.name.clone(),
                    field_ty: field.ty.to_string(),
                });
            }
        }
    }
    Ok(data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use facade_ir::ProgramBuilder;

    #[test]
    fn accepts_valid_data_classes() {
        let mut pb = ProgramBuilder::new();
        let student = pb.class("Student").field("id", Ty::I32).build();
        let _professor = pb
            .class("Professor")
            .field("students", Ty::array(Ty::Ref(student)))
            .build();
        let p = pb.finish();
        let data = check(&p, &DataSpec::new(["Student", "Professor"])).unwrap();
        assert_eq!(data.len(), 2);
    }

    #[test]
    fn unknown_class_is_reported() {
        let p = ProgramBuilder::new().finish();
        let err = check(&p, &DataSpec::new(["Ghost"])).unwrap_err();
        assert_eq!(err, CompileError::UnknownClass("Ghost".into()));
    }

    #[test]
    fn interface_in_spec_is_rejected() {
        let mut pb = ProgramBuilder::new();
        pb.interface("I").build();
        let p = pb.finish();
        let err = check(&p, &DataSpec::new(["I"])).unwrap_err();
        assert!(matches!(err, CompileError::InterfaceInSpec(_)));
    }

    #[test]
    fn non_data_reference_field_is_rejected() {
        let mut pb = ProgramBuilder::new();
        let logger = pb.class("Logger").build();
        pb.class("Student").field("log", Ty::Ref(logger)).build();
        let p = pb.finish();
        let err = check(&p, &DataSpec::new(["Student"])).unwrap_err();
        assert!(
            matches!(err, CompileError::NonDataField { ref field, .. } if field == "log"),
            "{err}"
        );
    }

    #[test]
    fn non_data_superclass_is_rejected() {
        let mut pb = ProgramBuilder::new();
        let base = pb.class("Base").build();
        pb.class("Student").extends(base).build();
        let p = pb.finish();
        let err = check(&p, &DataSpec::new(["Student"])).unwrap_err();
        assert!(
            matches!(
                err,
                CompileError::OpenHierarchy {
                    relation: "superclass",
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn non_data_subclass_is_rejected() {
        let mut pb = ProgramBuilder::new();
        let student = pb.class("Student").build();
        pb.class("GradStudent").extends(student).build();
        let p = pb.finish();
        let err = check(&p, &DataSpec::new(["Student"])).unwrap_err();
        assert!(
            matches!(
                err,
                CompileError::OpenHierarchy {
                    relation: "subclass",
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn subtype_lists_walk_like_the_program() {
        // Interfaces extending interfaces, a class naming one interface
        // twice, and a diamond: `check` reports the first open subclass in
        // this order, so it must not change.
        let mut pb = ProgramBuilder::new();
        let i = pb.interface("I").build();
        let j = pb.interface("J").implements(i).build();
        let a = pb.class("A").implements(i).implements(j).build();
        let b = pb.class("B").extends(a).implements(j).build();
        pb.class("C").extends(b).implements(i).build();
        pb.class("D").implements(j).build();
        pb.class("E").implements(j).implements(j).build();
        let p = pb.finish();
        let subtypes = Subtypes::new(&p);
        for (id, _) in p.classes() {
            assert_eq!(subtypes.all(id), p.all_subtypes(id), "{id:?}");
        }
    }

    #[test]
    fn whole_data_hierarchy_is_accepted() {
        let mut pb = ProgramBuilder::new();
        let student = pb.class("Student").build();
        pb.class("GradStudent").extends(student).build();
        let p = pb.finish();
        assert!(check(&p, &DataSpec::new(["Student", "GradStudent"])).is_ok());
    }

    #[test]
    fn shared_interface_between_data_and_control_is_allowed() {
        // §3.1: "we allow both a data class and a non-data class to
        // implement the same Java interface".
        let mut pb = ProgramBuilder::new();
        let cmp = pb.interface("Comparable").build();
        pb.class("Student").implements(cmp).build();
        pb.class("Scheduler").implements(cmp).build();
        let p = pb.finish();
        assert!(check(&p, &DataSpec::new(["Student"])).is_ok());
    }

    #[test]
    fn data_interface_field_is_allowed() {
        let mut pb = ProgramBuilder::new();
        let shape = pb.interface("Shape").build();
        pb.class("Circle").implements(shape).build();
        pb.class("Drawing").field("s", Ty::Ref(shape)).build();
        let p = pb.finish();
        // Shape's only implementor is a data class, so a Shape-typed field
        // in a data class is fine.
        assert!(check(&p, &DataSpec::new(["Circle", "Drawing"])).is_ok());
    }

    #[test]
    fn mixed_interface_field_is_rejected() {
        let mut pb = ProgramBuilder::new();
        let shape = pb.interface("Shape").build();
        pb.class("Circle").implements(shape).build();
        pb.class("Window").implements(shape).build(); // control class
        pb.class("Drawing").field("s", Ty::Ref(shape)).build();
        let p = pb.finish();
        let err = check(&p, &DataSpec::new(["Circle", "Drawing"])).unwrap_err();
        assert!(matches!(err, CompileError::NonDataField { .. }), "{err}");
    }
}
