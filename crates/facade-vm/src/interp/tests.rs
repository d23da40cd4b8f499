//! One test per decoded op family, against hand-computed results.

use super::*;
use facade_compiler::{DataSpec, corpus, transform};
use facade_ir::Instr;

/// A program whose `Main::main` has the given locals and body, after the
/// given class declarations.
fn program(classes: &str, locals: &str, body: &str) -> Program {
    let program = unverified(classes, locals, body);
    program
        .verify()
        .unwrap_or_else(|e| panic!("{e}\n{classes}\n{body}"));
    program
}

/// [`program`], parsed but not verified.
fn unverified(classes: &str, locals: &str, body: &str) -> Program {
    let text = format!(
        "{classes}\nclass Main {{\n  static void main() {{\n   locals: {locals}\n   bb0:\n{body}\n     return\n  }}\n}}\nentry Main::main\n"
    );
    Program::parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"))
}

fn run_heap(program: &Program) -> Result<Vec<String>, VmError> {
    let mut vm = Vm::new_heap(program);
    vm.run().map(|_| vm.output().to_vec())
}

/// Runs `P` on the heap and `P'` (with `data` as the data classes) on pages;
/// both must print `expected`.
fn both_print(program: &Program, data: &[&str], expected: &[&str]) {
    assert_eq!(run_heap(program).unwrap(), expected, "heap mode");
    let out = transform(program, &DataSpec::new(data.iter().copied())).unwrap();
    out.program.verify().unwrap();
    let mut vm = Vm::new_paged(&out.program, &out.meta);
    vm.run().unwrap();
    assert_eq!(vm.output(), expected, "paged mode");
}

#[test]
fn i32_arithmetic_wraps() {
    let p = program(
        "",
        "i32, i32, i32, i32, i32",
        "     v0 = 2147483647
     v1 = 1
     v2 = -1
     v3 = 33
     v4 = v0 Add v1
     print v4
     v4 = v4 Sub v1
     print v4
     v4 = v0 Mul v0
     print v4
     v4 = v0 Add v1
     v4 = v4 Div v2
     print v4
     v4 = v0 Add v1
     v4 = v4 Rem v2
     print v4
     v4 = v0 And v3
     print v4
     v4 = v1 Or v3
     print v4
     v4 = v0 Xor v2
     print v4
     v4 = v1 Shl v3
     print v4
     v4 = v0 Add v1
     v4 = v4 Shr v1
     print v4",
    );
    assert_eq!(
        run_heap(&p).unwrap(),
        [
            "-2147483648", // MAX + 1
            "2147483647",  // MIN - 1
            "1",           // MAX * MAX
            "-2147483648", // MIN / -1
            "0",           // MIN % -1
            "33",
            "33",
            "-2147483648", // MAX ^ -1
            "2",           // 1 << (33 & 31)
            "-1073741824", // arithmetic MIN >> 1
        ]
    );
}

#[test]
fn i64_arithmetic_wraps() {
    let p = program(
        "",
        "i64, i64, i64, i64, i64",
        "     v0 = 9223372036854775807L
     v1 = 1L
     v2 = -1L
     v3 = 65L
     v4 = v0 Add v1
     print v4
     v4 = v4 Sub v1
     print v4
     v4 = v0 Mul v0
     print v4
     v4 = v0 Add v1
     v4 = v4 Div v2
     print v4
     v4 = v0 Add v1
     v4 = v4 Rem v2
     print v4
     v4 = v0 And v3
     print v4
     v4 = v1 Or v3
     print v4
     v4 = v0 Xor v2
     print v4
     v4 = v1 Shl v3
     print v4
     v4 = v2 Shr v1
     print v4",
    );
    assert_eq!(
        run_heap(&p).unwrap(),
        [
            "-9223372036854775808",
            "9223372036854775807",
            "1",
            "-9223372036854775808",
            "0",
            "65",
            "65",
            "-9223372036854775808",
            "2", // 1 << (65 & 63)
            "-1",
        ]
    );
}

#[test]
fn f64_arithmetic_follows_ieee() {
    let p = program(
        "",
        "f64, f64, f64, f64",
        "     v0 = 7.5f64
     v1 = 2f64
     v2 = 0f64
     v3 = v0 Add v1
     print v3
     v3 = v0 Sub v1
     print v3
     v3 = v0 Mul v1
     print v3
     v3 = v0 Div v1
     print v3
     v3 = v0 Rem v1
     print v3
     v3 = v0 Div v2
     print v3",
    );
    assert_eq!(
        run_heap(&p).unwrap(),
        ["9.5", "5.5", "15", "3.75", "1.5", "inf"]
    );
}

#[test]
fn integer_division_by_zero_is_typed() {
    for (ty, zero, op) in [
        ("i32", "0", "Div"),
        ("i32", "0", "Rem"),
        ("i64", "0L", "Div"),
        ("i64", "0L", "Rem"),
    ] {
        let p = program(
            "",
            &format!("{ty}, {ty}"),
            &format!("     v0 = {zero}\n     v1 = v0 {op} v0\n     print v1"),
        );
        assert_eq!(
            run_heap(&p).unwrap_err(),
            VmError::DivisionByZero,
            "{ty} {op}"
        );
    }
}

#[test]
fn comparisons_per_kind() {
    // Each line prints Eq Ne Lt Le Gt Ge of (a, b) as six digits.
    let six = |ty: &str, a: &str, b: &str| {
        let body: String = ["Eq", "Ne", "Lt", "Le", "Gt", "Ge"]
            .iter()
            .map(|op| format!("     v2 = v0 {op} v1\n     print v2\n"))
            .collect();
        let p = program(
            "",
            &format!("{ty}, {ty}, i32"),
            &format!("     v0 = {a}\n     v1 = {b}\n{body}"),
        );
        run_heap(&p).unwrap().concat()
    };
    assert_eq!(six("i32", "-3", "4"), "011100");
    assert_eq!(six("i32", "4", "4"), "100101");
    assert_eq!(six("i64", "5000000000L", "-5000000000L"), "010011");
    assert_eq!(six("f64", "1.5f64", "2.5f64"), "011100");
    // NaN is unordered and unequal to itself.
    let nan = program(
        "",
        "f64, f64, i32",
        "     v0 = 0f64
     v1 = v0 Div v0
     v2 = v1 Eq v1
     print v2
     v2 = v1 Ne v1
     print v2
     v2 = v1 Le v1
     print v2",
    );
    assert_eq!(run_heap(&nan).unwrap(), ["0", "1", "0"]);
}

#[test]
fn a_comparison_fused_with_its_branch_writes_its_result_and_takes_either_edge() {
    let cases = [("-3", "4"), ("4", "4"), ("5", "-2")];
    for (op, want) in [
        ("Eq", [false, true, false]),
        ("Ne", [true, false, true]),
        ("Lt", [true, false, false]),
        ("Le", [true, true, false]),
        ("Gt", [false, false, true]),
        ("Ge", [false, true, true]),
    ] {
        for ((a, b), holds) in cases.into_iter().zip(want) {
            let p = program(
                "",
                "i32, i32, i32, i32",
                &format!(
                    "     v0 = {a}\n     v1 = {b}\n     v2 = v0 {op} v1
     if v2 then bb1 else bb2\n   bb1:\n     print v2\n     v3 = 7\n     goto bb3
   bb2:\n     print v2\n     v3 = 8\n     goto bb3\n   bb3:\n     print v3"
                ),
            );
            let vm = Vm::new_heap(&p);
            let decoded = vm.decode(p.entry().unwrap()).unwrap();
            let fused = decoded.code[2];
            assert!(
                format!("{fused:?}").starts_with(&format!("Branch{op}I32")),
                "{op}: {fused:?}"
            );
            assert!(
                matches!(decoded.code[3], Op::Branch { .. }),
                "kept in place"
            );
            let mut vm = Vm::new_heap(&p);
            vm.run().unwrap();
            let edge = if holds { "7" } else { "8" };
            assert_eq!(
                vm.output(),
                [&*u8::from(holds).to_string(), edge],
                "{a} {op} {b}"
            );
            assert_eq!(vm.steps(), 6, "the fused op is the comparison's one step");
        }
    }

    // Not fused: the branch tests another local, or the comparison is not
    // the block's last instruction.
    for body in [
        "     v2 = v0 Lt v1\n     if v3 then bb1 else bb1\n   bb1:",
        "     v2 = v0 Lt v1\n     v3 = v2\n     if v2 then bb1 else bb1\n   bb1:",
    ] {
        let p = program("", "i32, i32, i32, i32", body);
        let vm = Vm::new_heap(&p);
        let decoded = vm.decode(p.entry().unwrap()).unwrap();
        assert!(matches!(decoded.code[0], Op::LtI32(_)), "{body}");
    }

    // Not fused: the comparison's result is a local past 16 bits.
    let mut pb = facade_ir::ProgramBuilder::new();
    let main_class = pb.class("Main").build();
    let mut m = pb.method(main_class, "main").static_();
    for _ in 0..u16::MAX {
        m.local(facade_ir::Ty::I32);
    }
    let one = m.const_i32(1);
    let holds = m.cmp(facade_ir::CmpOp::Eq, one, one);
    assert!(holds.0 > u32::from(u16::MAX));
    let (yes, no) = (m.block(), m.block());
    m.branch(holds, yes, no);
    for bb in [yes, no] {
        m.switch_to(bb);
        m.print(holds);
        m.ret(None);
    }
    let main = m.finish();
    let mut p = pb.finish();
    p.set_entry(main);
    let mut vm = Vm::new_heap(&p);
    let decoded = vm.decode(main).unwrap();
    assert!(matches!(decoded.code[1], Op::EqI32(_)));
    vm.run().unwrap();
    assert_eq!((vm.output(), vm.steps()), (&["1".to_string()][..], 3));
}

#[test]
fn reference_identity_on_both_backends() {
    let p = program(
        "class T {\n  i32 x;\n  static void ids() {\n   locals: T, T, T, i32\n   bb0:
     v0 = new T
     v1 = new T
     v2 = v0
     v3 = v0 Eq v2
     print v3
     v3 = v0 Eq v1
     print v3
     v3 = v0 Ne v1
     print v3
     v2 = null
     v3 = v2 Eq v0
     print v3
     v3 = v0 Lt v1
     print v3
     return\n  }\n}",
        "i32",
        "     static T::ids()",
    );
    both_print(&p, &["T"], &["1", "0", "1", "0", "0"]);
}

#[test]
fn numeric_casts_per_pair() {
    let p = program(
        "",
        "i32, i64, f64, i32, i64, f64",
        // The parser takes a constant only as the printer writes it: 1e300
        // in full.
        &format!(
            "     v0 = -1
     v4 = cast v0
     print v4
     v5 = cast v0
     print v5
     v1 = 4294967298L
     v3 = cast v1
     print v3
     v5 = cast v1
     print v5
     v2 = -2.75f64
     v3 = cast v2
     print v3
     v4 = cast v2
     print v4
     v2 = {}f64
     v3 = cast v2
     print v3",
            1e300
        ),
    );
    assert_eq!(
        run_heap(&p).unwrap(),
        ["-1", "-1", "2", "4294967298", "-2", "-2", "2147483647"]
    );
}

const RECORD: &str = "class R {
  i32 a;
  i64 b;
  f64 c;
  R next;
  static void fields() {
   locals: R, R, i32, i64, f64, R, i32
   bb0:
     v0 = new R
     v1 = new R
     v2 = 7
     v0.f0 = v2
     v3 = -8L
     v0.f1 = v3
     v4 = 0.5f64
     v0.f2 = v4
     v0.f3 = v1
     v2 = v0.f0
     print v2
     v3 = v0.f1
     print v3
     v4 = v0.f2
     print v4
     v5 = v0.f3
     v6 = v5 Eq v1
     print v6
     v5 = v1.f3
     v6 = v5 Eq v1
     print v6
     return
  }
  static void arrays() {
   locals: i32, i32, i32[], i64[], f64[], R[], i32, i64, f64, R, R
   bb0:
     v0 = 3
     v1 = 2
     v2 = new i32[v0]
     v3 = new i64[v0]
     v4 = new f64[v0]
     v5 = new R[v0]
     v6 = 11
     v2[v1] = v6
     v7 = 12L
     v3[v1] = v7
     v8 = 1.25f64
     v4[v1] = v8
     v9 = new R
     v5[v1] = v9
     v6 = v2[v1]
     print v6
     v7 = v3[v1]
     print v7
     v8 = v4[v1]
     print v8
     v10 = v5[v1]
     v6 = v10 Eq v9
     print v6
     v6 = v5.length
     print v6
     v1 = 0
     v6 = v2[v1]
     print v6
     return
  }
  static void null_get() {
   locals: R, i32
   bb0:
     v0 = null
     v1 = v0.f0
     return
  }
  static void null_set() {
   locals: R, i32
   bb0:
     v0 = null
     v1 = 1
     v0.f0 = v1
     return
  }
  static void null_array() {
   locals: i64[], i32
   bb0:
     v0 = null
     v1 = v0.length
     return
  }
}";

#[test]
fn field_access_per_kind_on_both_backends() {
    let p = program(RECORD, "i32", "     static R::fields()");
    both_print(&p, &["R"], &["7", "-8", "0.5", "1", "0"]);
}

#[test]
fn array_access_per_kind_on_both_backends() {
    let p = program(RECORD, "i32", "     static R::arrays()");
    both_print(&p, &["R"], &["11", "12", "1.25", "1", "3", "0"]);
}

#[test]
fn null_receivers_are_null_derefs_on_both_backends() {
    for method in ["null_get", "null_set", "null_array"] {
        let p = program(RECORD, "i32", &format!("     static R::{method}()"));
        assert!(
            matches!(run_heap(&p), Err(VmError::NullDeref(_))),
            "heap {method}"
        );
        let out = transform(&p, &DataSpec::new(["R"])).unwrap();
        let mut vm = Vm::new_paged(&out.program, &out.meta);
        assert!(
            matches!(vm.run(), Err(VmError::NullDeref(_))),
            "paged {method}"
        );
    }
}

const SHAPES: &str = "class Shape {
  i32 tag() {
   locals: Shape, i32
   bb0:
     v1 = 1
     return v1
  }
  static void dispatch() {
   locals: Shape, Shape, i32
   bb0:
     v0 = new Square
     v2 = virtual Shape::tag(v0)
     print v2
     v2 = v0 instanceof Square
     print v2
     v1 = new Shape
     v2 = virtual Shape::tag(v1)
     print v2
     v2 = v1 instanceof Square
     print v2
     v1 = null
     v2 = v1 instanceof Shape
     print v2
     v2 = virtual Shape::tag(v1)
     return
  }
}
class Square extends Shape {
  i32 tag() {
   locals: Square, i32
   bb0:
     v1 = 2
     return v1
  }
}";

#[test]
fn virtual_dispatch_and_instanceof_on_both_backends() {
    let p = program(SHAPES, "i32", "     static Shape::dispatch()");
    let printed = ["2", "1", "1", "0", "0"];

    let mut vm = Vm::new_heap(&p);
    assert!(matches!(vm.run(), Err(VmError::NullDeref(_))));
    assert_eq!(vm.output(), printed);

    let out = transform(&p, &DataSpec::new(["Shape", "Square"])).unwrap();
    let mut vm = Vm::new_paged(&out.program, &out.meta);
    assert!(matches!(vm.run(), Err(VmError::NullDeref(_))));
    assert_eq!(vm.output(), printed);
}

#[test]
fn discarded_facade_return_releases_its_pool_slot() {
    let p = program(
        "class S {\n  i32 id;\n  static S make() {\n   locals: S\n   bb0:
     v0 = new S
     return v0\n  }\n  static void drive() {\n   locals: i32\n   bb0:
     static S::make()
     return\n  }\n}",
        "i32",
        "     static S::drive()",
    );
    let out = transform(&p, &DataSpec::new(["S"])).unwrap();
    let tid = PTypeId(out.meta.type_id(p.class_by_name("S").unwrap()));
    let mut vm = Vm::new_paged(&out.program, &out.meta);
    vm.run().unwrap();
    assert_eq!(vm.paged.stats().records_allocated, 1, "make ran");
    let pools = vm.pools.as_mut().unwrap();
    let armed = (0..pools.param_bound(tid)).any(|i| pools.param(tid, i).is_armed());
    assert!(!armed && !pools.receiver(tid).is_armed());
}

#[test]
fn monitors_and_iterations_are_balanced() {
    let p = program(
        "class L {\n  i32 x;\n  static void locked() {\n   locals: L, i32\n   bb0:
     v0 = new L
     FacadeRuntime.iterationStart()
     monitorenter v0
     monitorenter v0
     v1 = 5
     v0.f0 = v1
     monitorexit v0
     monitorexit v0
     v1 = v0.f0
     print v1
     FacadeRuntime.iterationEnd()
     return\n  }\n}",
        "i32",
        "     static L::locked()",
    );
    both_print(&p, &["L"], &["5"]);
}

#[test]
fn kind_mismatches_decode_to_typed_errors() {
    use facade_ir::{Instr, Local, ProgramBuilder, Ty};
    // None of these verify; each used to panic in the interpreter.
    type Make = fn(Local, Local) -> Instr;
    let cases: [(&str, Make); 4] = [
        ("const", |i, _| Instr::ConstI64(i, 1)),
        ("move", |i, l| Instr::Move { dst: i, src: l }),
        ("cast", |i, _| Instr::NumCast {
            dst: Local(9),
            src: i,
        }),
        ("getfield", |i, l| Instr::GetField {
            dst: l,
            obj: i,
            field: 0,
        }),
    ];
    for (what, make) in cases {
        let mut pb = ProgramBuilder::new();
        let main_class = pb.class("Main").build();
        let mut m = pb.method(main_class, "main").static_();
        let (i, l) = (m.local(Ty::I32), m.local(Ty::I64));
        m.emit(make(i, l));
        m.ret(None);
        let main = m.finish();
        let mut program = pb.finish();
        program.set_entry(main);
        assert!(program.verify().is_err(), "{what}");
        let mut vm = Vm::new_heap(&program);
        assert!(
            matches!(vm.run(), Err(VmError::IllegalInstruction(_))),
            "{what}"
        );
        assert_eq!(vm.steps(), 1, "{what}: fails when reached, as one step");
    }
}

#[test]
fn paged_forms_are_illegal_in_heap_mode() {
    let p = program(
        "class S {\n  i32 id;\n  static void make() {\n   locals: S\n   bb0:
     v0 = new S
     return\n  }\n}",
        "i32",
        "     static S::make()",
    );
    let out = transform(&p, &DataSpec::new(["S"])).unwrap();
    let mut vm = Vm::new_heap(&out.program);
    assert!(matches!(vm.run(), Err(VmError::IllegalInstruction(_))));
}

#[test]
fn fields_outside_the_static_class_decode_to_typed_errors_in_both_modes() {
    // None of these verify. A slot past the class's flattened layout used
    // to panic in the heaps' layout lookup; the others name no layout.
    let classes = "interface I {\n}\nclass R {\n  i32 x;\n}";
    let cases = [
        ("slot 5 of R", "v0 = new R\n     v1 = v0.f5"),
        ("store to slot 5 of R", "v0 = new R\n     v0.f5 = v1"),
        ("i64 through i32 R.x", "v0 = new R\n     v2 = v0.f0"),
        ("an array local", "v3 = null\n     v1 = v3.f0"),
        ("an interface local", "v4 = null\n     v1 = v4.f0"),
    ];
    for (what, body) in cases {
        let p = unverified(classes, "R, i32, i64, i32[], I", &format!("     {body}"));
        let mut vm = Vm::new_heap(&p);
        let err = vm.run();
        assert!(matches!(err, Err(VmError::IllegalInstruction(_))), "{what}");
        assert_eq!(vm.steps(), 2, "{what}: fails when reached, as one step");
    }

    // Paged mode: P' of a valid program, its record field slots then moved
    // past the data class's four fields.
    let valid = program(RECORD, "i32", "     static R::fields()");
    let mut out = transform(&valid, &DataSpec::new(["R"])).unwrap();
    let mut moved = 0;
    for m in 0..out.program.method_count() {
        let body = &mut out.program.method_mut(MethodId(m as u32)).body;
        for instr in body
            .iter_mut()
            .flat_map(|b| &mut b.blocks)
            .flat_map(|b| &mut b.instrs)
        {
            if let Instr::PageGetField { field, .. } | Instr::PageSetField { field, .. } = instr {
                (*field, moved) = (5, moved + 1);
            }
        }
    }
    assert!(moved > 0, "P' reaches the records through paged field ops");
    let mut vm = Vm::new_paged(&out.program, &out.meta);
    assert!(matches!(vm.run(), Err(VmError::IllegalInstruction(_))));
    assert!(vm.output().is_empty());
}

#[test]
fn inherited_fields_keep_their_superclass_offsets_in_both_layouts() {
    // The golden corpus has no `extends`, so a three-level hierarchy with
    // mixed field widths (alignment padding included) runs beside it.
    let hierarchy = program(
        "class A {\n  i32 a;\n  i64 b;\n}\nclass B extends A {\n  i32 c;\n  B next;\n}\n\
         class C extends B {\n  i32 d;\n  f64 e;\n}",
        "C, i32",
        "     v0 = new C\n     v1 = v0.f4\n     print v1",
    );
    let programs = corpus::all()
        .into_iter()
        .map(|e| (e.name, e.program, e.spec));
    let mut inherited = 0;
    for (name, program, spec) in
        programs.chain([("A/B/C", hierarchy, DataSpec::new(["A", "B", "C"]))])
    {
        let mut heap = Heap::new(HeapConfig::with_capacity(1 << 20));
        let tables = Tables::new(&program, None, &mut heap);
        let meta = transform(&program, &spec).unwrap().meta;
        for (class, def) in program.classes() {
            let Some(sup) = def.superclass else { continue };
            if let (Some(c), Some(s)) = (tables.heap_class(class), tables.heap_class(sup)) {
                for i in 0..heap.layout(s).fields().len() {
                    let (got, want) = (heap.field_offset(c, i), heap.field_offset(s, i));
                    assert_eq!(got, want, "{name}: heap {} slot {i}", def.name);
                    inherited += 1;
                }
            }
            if let (Some(c), Some(s)) = (meta.type_ids.get(&class), meta.type_ids.get(&sup)) {
                let (c, s) = (meta.layout(*c), meta.layout(*s));
                for i in 0..s.fields().len() {
                    assert_eq!(
                        c.offset(i),
                        s.offset(i),
                        "{name}: record {} slot {i}",
                        def.name
                    );
                    inherited += 1;
                }
            }
        }
    }
    // A has 2 fields and B 4: C inherits 4, B 2, in each of two layouts.
    assert_eq!(inherited, 12);
}

#[test]
fn boundary_conversions_carry_arrays_and_shared_structure() {
    let p = program(
        "class H {\n  i32[] a;\n  f64[] d;\n  H[] kids;\n  static H touch(H) {
   locals: H, i32[], f64[], H[], i32, i32, f64, H
   bb0:
     v1 = v0.f0
     v2 = v0.f1
     v3 = v0.f2
     v4 = 1
     v5 = v1[v4]
     v5 = v5 Add v4
     v1[v4] = v5
     v6 = v2[v4]
     v6 = v6 Add v6
     v2[v4] = v6
     v7 = v3[v4]
     v7.f0 = v1
     return v0\n  }\n}",
        "H, i32, i32[], f64[], H[], H, f64, i32[], i32",
        "     v1 = 2
     v0 = new H
     v2 = new i32[v1]
     v3 = new f64[v1]
     v4 = new H[v1]
     v0.f0 = v2
     v0.f1 = v3
     v0.f2 = v4
     v1 = 1
     v5 = new H
     v4[v1] = v5
     v6 = 0.25f64
     v3[v1] = v6
     v0 = static H::touch(v0)
     v7 = v0.f0
     v8 = v7[v1]
     print v8
     v3 = v0.f1
     v6 = v3[v1]
     print v6
     v4 = v0.f2
     v5 = v4[v1]
     v2 = v5.f0
     v8 = v2 Eq v7
     print v8",
    );
    both_print(&p, &["H"], &["1", "0.5", "1"]);
}

#[test]
fn boundary_conversions_copy_whole_bodies_and_rewrite_their_references() {
    // `N`'s body has padding after `a` (`b` is aligned to 8) and ends in a
    // scalar after the reference. `root.next` is the shared child (also
    // `arr[1]`), whose `next` is itself. `walk` sees the records on pages,
    // main sees them back on the heap, and both print every field.
    let p = program(
        "class N {\n  i32 a;\n  f64 b;\n  N next;\n  i32 c;\n  static N[] walk(N[]) {
   locals: N[], i32, N, N, i32, f64, N
   bb0:
     v1 = 0
     v2 = v0[v1]
     v1 = 1
     v3 = v0[v1]
     v4 = v2.f0
     print v4
     v5 = v2.f1
     print v5
     v6 = v2.f2
     v4 = v6.f3
     print v4
     v4 = v2.f3
     print v4
     v6 = v3.f2
     v6 = v6.f2
     v4 = v6.f0
     print v4
     v5 = v6.f1
     print v5
     v4 = v6.f3
     print v4
     v4 = 7
     v3.f0 = v4
     return v0\n  }\n}",
        "N[], i32, N, N, f64, i32, N",
        "     v1 = 2
     v0 = new N[v1]
     v2 = new N
     v3 = new N
     v1 = 0
     v0[v1] = v2
     v1 = 1
     v0[v1] = v3
     v5 = 1
     v2.f0 = v5
     v4 = 2.5f64
     v2.f1 = v4
     v2.f2 = v3
     v5 = 3
     v2.f3 = v5
     v5 = 4
     v3.f0 = v5
     v4 = -0.125f64
     v3.f1 = v4
     v3.f2 = v3
     v5 = 5
     v3.f3 = v5
     v0 = static N::walk(v0)
     v1 = 0
     v2 = v0[v1]
     v1 = 1
     v3 = v0[v1]
     v5 = v2.f0
     print v5
     v4 = v2.f1
     print v4
     v6 = v2.f2
     v5 = v6.f0
     print v5
     v5 = v2.f3
     print v5
     v6 = v3.f2
     v5 = v6 Eq v3
     print v5
     v6 = v2.f2
     v5 = v6 Eq v3
     print v5
     v5 = v3.f0
     print v5
     v4 = v3.f1
     print v4
     v5 = v3.f3
     print v5",
    );
    both_print(
        &p,
        &["N"],
        &[
            "1", "2.5", "5", "3", "4", "-0.125", "5", // pages
            "1", "2.5", "7", "3", "1", "1", "7", "-0.125", "5", // heap again
        ],
    );
}
