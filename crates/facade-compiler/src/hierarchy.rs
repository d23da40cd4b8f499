//! Facade class-hierarchy generation, record type IDs, and record layouts
//! (§3.2's class hierarchy transformation).

use crate::meta::PagedMeta;
use facade_ir::{ClassDef, ClassId, ClassKind, Program, Ty};
use facade_runtime::{ElemKind, FieldKind, PoolBounds, RecordLayout};
use std::collections::{BTreeSet, HashMap};

/// Maps an IR type to its field kind, on either heap: a double is stored
/// by its bit pattern, and references and arrays become 4-byte references
/// (page references in a record, matching Figure 1's layout).
pub fn field_kind(ty: &Ty) -> FieldKind {
    match ty {
        Ty::I32 => FieldKind::I32,
        Ty::I64 | Ty::F64 => FieldKind::I64,
        Ty::Ref(_) | Ty::Array(_) | Ty::PageRef | Ty::Facade(_) => FieldKind::Ref,
    }
}

/// Maps an IR array's element type to its element kind, on either heap
/// (the same widths as [`field_kind`]).
pub fn elem_kind(ty: &Ty) -> ElemKind {
    match field_kind(ty) {
        FieldKind::I32 => ElemKind::I32,
        FieldKind::I64 => ElemKind::I64,
        FieldKind::Ref => ElemKind::Ref,
    }
}

/// Generates facade classes and interfaces, assigns record type IDs, and
/// computes record layouts.
pub(crate) fn generate(program: &mut Program, data_classes: &BTreeSet<ClassId>) -> PagedMeta {
    // Type IDs: 0..4 are the reserved array kinds; data classes follow in
    // deterministic (ClassId) order.
    let ordered: Vec<ClassId> = data_classes.iter().copied().collect();
    let mut type_ids = HashMap::new();
    let mut layouts: Vec<RecordLayout> = ["byte[]", "int[]", "long[]", "ref[]"]
        .iter()
        .map(|n| RecordLayout::new(n, &[]))
        .collect();
    for (i, &class) in ordered.iter().enumerate() {
        let tid = (4 + i) as u16;
        type_ids.insert(class, tid);
        let fields: Vec<FieldKind> = program
            .flat_fields(class)
            .iter()
            .map(|(_, f)| field_kind(&f.ty))
            .collect();
        layouts.push(RecordLayout::new(&program.class(class).name, &fields));
    }

    // Interfaces any data class implements get a facade interface (§3.2:
    // "we create a new interface IFacade ... and make all facades DFacade
    // implement IFacade").
    let ifaces: Vec<ClassId> = program
        .classes()
        .filter(|(id, c)| c.is_interface() && ordered.iter().any(|&d| program.is_subtype(d, *id)))
        .map(|(id, _)| id)
        .collect();
    let mut facade_iface_of = HashMap::new();
    for iface in ifaces {
        let name = format!("{}$Facade", program.class(iface).name);
        let fid = program.add_class(ClassDef {
            name,
            kind: ClassKind::Interface,
            superclass: None,
            interfaces: vec![],
            fields: vec![],
            methods: vec![],
        });
        facade_iface_of.insert(iface, fid);
    }

    // Facade classes, in type-ID order: the facade of `ordered[i]` is class
    // `first + i`, so an `extends` link may name one not added yet.
    let first = program.class_count();
    let facade_of: HashMap<ClassId, ClassId> = ordered
        .iter()
        .enumerate()
        .map(|(i, &class)| (class, ClassId((first + i) as u32)))
        .collect();
    for &class in &ordered {
        let def = program.class(class);
        let facade = ClassDef {
            name: format!("{}$Facade", def.name),
            kind: ClassKind::Class,
            // The closed-world check guarantees the superclass is a data
            // class, so its facade exists.
            superclass: def.superclass.map(|s| facade_of[&s]),
            interfaces: def
                .interfaces
                .iter()
                .filter_map(|i| facade_iface_of.get(i).copied())
                .collect(),
            // §3.2: "DFacade does not contain any instance field".
            fields: vec![],
            methods: vec![],
        };
        program.add_class(facade);
    }
    let data_of = facade_of.iter().map(|(&d, &f)| (f, d)).collect();

    let n_types = 4 + ordered.len();
    PagedMeta {
        data_classes: ordered,
        type_ids,
        facade_of,
        data_of,
        facade_iface_of,
        method_map: HashMap::new(),
        layouts,
        bounds: PoolBounds::uniform(n_types, 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use facade_ir::ProgramBuilder;

    fn setup() -> (Program, BTreeSet<ClassId>) {
        let mut pb = ProgramBuilder::new();
        let cmp = pb.interface("Comparable").build();
        let student = pb
            .class("Student")
            .implements(cmp)
            .field("id", Ty::I32)
            .field("name", Ty::array(Ty::I32))
            .build();
        let grad = pb
            .class("Grad")
            .extends(student)
            .field("year", Ty::I32)
            .build();
        let p = pb.finish();
        let mut data = BTreeSet::new();
        data.insert(student);
        data.insert(grad);
        (p, data)
    }

    #[test]
    fn facades_mirror_the_hierarchy() {
        let (mut p, data) = setup();
        let meta = generate(&mut p, &data);
        let student = p.class_by_name("Student").unwrap();
        let grad = p.class_by_name("Grad").unwrap();
        let sf = meta.facade(student).unwrap();
        let gf = meta.facade(grad).unwrap();
        assert_eq!(p.class(sf).name, "Student$Facade");
        assert_eq!(p.class(gf).superclass, Some(sf));
        assert!(p.class(sf).fields.is_empty());
        assert!(p.class(gf).fields.is_empty());
    }

    #[test]
    fn facade_implements_facade_interface() {
        let (mut p, data) = setup();
        let meta = generate(&mut p, &data);
        let student = p.class_by_name("Student").unwrap();
        let cmp = p.class_by_name("Comparable").unwrap();
        let sf = meta.facade(student).unwrap();
        let cf = meta.facade_iface_of[&cmp];
        assert!(p.class(sf).interfaces.contains(&cf));
        assert!(p.class(cf).is_interface());
        assert_eq!(p.class(cf).name, "Comparable$Facade");
    }

    #[test]
    fn type_ids_start_after_reserved_arrays() {
        let (mut p, data) = setup();
        let meta = generate(&mut p, &data);
        let student = p.class_by_name("Student").unwrap();
        let grad = p.class_by_name("Grad").unwrap();
        let (a, b) = (meta.type_id(student), meta.type_id(grad));
        assert!(a >= 4 && b >= 4);
        assert_ne!(a, b);
        assert_eq!(meta.data_classes[usize::from(a) - 4], student);
    }

    #[test]
    fn layouts_flatten_superclass_fields_first() {
        let (mut p, data) = setup();
        let meta = generate(&mut p, &data);
        let grad = p.class_by_name("Grad").unwrap();
        let layout = meta.layout(meta.type_id(grad));
        // Student: id (i32), name (array => ref). Grad adds year (i32).
        assert_eq!(
            layout.fields(),
            &[FieldKind::I32, FieldKind::Ref, FieldKind::I32]
        );
        assert_eq!(layout.offset(0), 0);
        assert_eq!(layout.offset(1), 4); // a 4-byte ref needs no padding
        assert_eq!(layout.offset(2), 8);
    }

    #[test]
    fn field_kind_mapping() {
        assert_eq!(field_kind(&Ty::I32), FieldKind::I32);
        assert_eq!(field_kind(&Ty::F64), FieldKind::I64);
        assert_eq!(field_kind(&Ty::Ref(ClassId(0))), FieldKind::Ref);
        assert_eq!(field_kind(&Ty::array(Ty::I64)), FieldKind::Ref);
        assert_eq!(elem_kind(&Ty::I32), ElemKind::I32);
        assert_eq!(elem_kind(&Ty::F64), ElemKind::I64);
        assert_eq!(elem_kind(&Ty::PageRef), ElemKind::Ref);
    }
}
