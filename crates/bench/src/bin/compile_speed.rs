//! **E8 — §4.1/§4.2/§4.3**: compilation speed. The paper reports that
//! FACADE transformed GraphChi's 7,753 Jimple instructions in 10.3 s
//! (752.7 instr/s), Hyracks' 8 classes at 990 instr/s, and GPS's 10,691
//! instructions at 1,102 instr/s — "less than 20 seconds" per framework.
//!
//! This binary generates synthetic data-path corpora of increasing size,
//! transforms them, and reports instructions/second, plus the end-to-end
//! Figure 2 example (P shown next to P').

use facade_compiler::{DataSpec, transform};
use facade_ir::{BinOp, Program, ProgramBuilder, Ty};
use metrics::TextTable;

/// Generates a data-path corpus: `n_classes` data classes in small
/// hierarchies, each with fields, getters/setters, and compute methods,
/// plus control-path driver classes that call into them.
fn synthetic_corpus(n_classes: usize) -> (Program, DataSpec) {
    let mut pb = ProgramBuilder::new();
    let mut names = Vec::new();
    let mut prev = None;
    let mut class_ids = Vec::new();
    for c in 0..n_classes {
        let name = format!("Data{c}");
        let mut cb = pb.class(&name);
        // Every third class extends the previous one (hierarchies).
        if c % 3 != 0 {
            if let Some(p) = prev {
                cb = cb.extends(p);
            }
        }
        // The `next` field wants the class's own id, which isn't known while
        // the builder chain runs; point it at the first class instead (any
        // data class satisfies the closed-world check).
        let id = cb
            .field("a", Ty::I32)
            .field("b", Ty::I64)
            .field("next", Ty::Ref(facade_ir::ClassId(0)))
            .build();
        class_ids.push(id);
        prev = Some(id);
        names.push(name);
    }
    // Methods: getters, setters, and a small compute loop per class.
    for &id in &class_ids {
        let mut get = pb.method(id, "getA").returns(Ty::I32);
        let this = get.this_local();
        let a = get.get_field(this, "a");
        get.ret(Some(a));
        get.finish();

        let mut set = pb.method(id, "setA").param(Ty::I32);
        let this = set.this_local();
        let v = set.param_local(0);
        set.set_field(this, "a", v);
        set.ret(None);
        set.finish();

        let mut bump = pb.method(id, "bump").param(Ty::I32).returns(Ty::I32);
        let this = bump.this_local();
        let n = bump.param_local(0);
        let a = bump.get_field(this, "a");
        let s = bump.bin(BinOp::Add, a, n);
        bump.set_field(this, "a", s);
        let two = bump.const_i32(2);
        let d = bump.bin(BinOp::Mul, s, two);
        bump.ret(Some(d));
        bump.finish();
    }
    // A control driver calling each class's methods.
    let main_class = pb.class("Driver").build();
    let mut drv = pb.method(main_class, "drive").static_();
    for &id in &class_ids {
        drv.const_null(Ty::Ref(id));
    }
    drv.ret(None);
    drv.finish();

    let spec = DataSpec::new(names);
    (pb.finish(), spec)
}

fn figure2() -> (Program, DataSpec) {
    let mut pb = ProgramBuilder::new();
    let student = pb.class("Student").field("id", Ty::I32).build();
    let professor = pb
        .class("Professor")
        .field("id", Ty::I32)
        .field("students", Ty::array(Ty::Ref(student)))
        .field("numStudents", Ty::I32)
        .build();
    let mut add = pb.method(professor, "addStudent").param(Ty::Ref(student));
    let this = add.this_local();
    let s = add.param_local(0);
    let n = add.get_field(this, "numStudents");
    let arr = add.get_field(this, "students");
    add.array_set(arr, n, s);
    let one = add.const_i32(1);
    let n1 = add.bin(BinOp::Add, n, one);
    add.set_field(this, "numStudents", n1);
    add.ret(None);
    let add_m = add.finish();
    let mut client = pb
        .method(professor, "client")
        .param(Ty::Ref(professor))
        .static_();
    let f = client.param_local(0);
    let s = client.new_object(student);
    let p = client.local(Ty::Ref(professor));
    client.move_(p, f);
    let t = client.local(Ty::Ref(student));
    client.move_(t, s);
    client.call_virtual(add_m, vec![p, t]);
    client.ret(None);
    client.finish();
    (pb.finish(), DataSpec::new(["Student", "Professor"]))
}

fn main() {
    // Part 1: the Figure 2 example, end to end.
    let (program, spec) = figure2();
    println!("=== Figure 2: program P ===\n{}", program.render());
    let out = transform(&program, &spec).expect("figure 2 transforms");
    println!("=== Figure 2: program P' (generated classes/methods) ===");
    for (id, class) in out.program.classes() {
        if class.name.ends_with("$Facade") {
            print!("{}", render_class(&out.program, id));
        }
    }

    // Part 2: compilation speed over growing corpora.
    let mut table = TextTable::new(&["Data classes", "Instructions", "Time (ms)", "Instr/s"]);
    for n in [8usize, 32, 128, 512] {
        let (program, spec) = synthetic_corpus(n);
        let out = transform(&program, &spec).expect("corpus transforms");
        let r = &out.report;
        table.row_owned(vec![
            n.to_string(),
            r.instructions_transformed.to_string(),
            format!("{:.2}", r.duration.as_secs_f64() * 1e3),
            format!("{:.0}", r.instructions_per_second()),
        ]);
    }
    println!("\n=== Compilation speed ===\n{table}");
    println!("(paper: 752.7-1,102 instructions/second on Soot; transformations finish in seconds)");
}

fn render_class(p: &Program, id: facade_ir::ClassId) -> String {
    let class = p.class(id);
    let mut s = format!("class {} {{\n", class.name);
    for &m in &class.methods {
        s.push_str(&p.render_method(m));
    }
    s.push_str("}\n");
    s
}
