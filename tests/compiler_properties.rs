//! Property tests of compiler invariants over randomized program families:
//! transformation succeeds, `P'` verifies, every emitted pool access stays
//! within the computed bound, and execution is semantics-preserving.

use facade_compiler::{DataSpec, transform};
use facade_ir::{BinOp, Instr, Program, ProgramBuilder, Ty};
use facade_runtime::TypeId;
use facade_vm::Vm;

use datagen::SplitMix64;

/// Parameters of a generated program family.
#[derive(Debug, Clone)]
struct Family {
    /// Number of data classes (chained hierarchies every other class).
    classes: usize,
    /// i32 fields per class.
    fields: usize,
    /// Number of same-typed parameters on the fan-in method (stresses the
    /// §3.3 bound computation).
    fan: usize,
    /// Values fed through the pipeline.
    values: Vec<i32>,
}

fn random_family(rng: &mut SplitMix64) -> Family {
    Family {
        classes: 1 + rng.next_below(3) as usize,
        fields: 1 + rng.next_below(3) as usize,
        fan: 1 + rng.next_below(4) as usize,
        values: (0..1 + rng.next_below(7))
            .map(|_| rng.next_below(2000) as i32 - 1000)
            .collect(),
    }
}

/// Builds a complete program from the family description: data classes with
/// getters/setters, a fan-in static method taking `fan` same-typed
/// parameters, and a control `main` that feeds `values` through and prints
/// the result.
fn build(family: &Family) -> (Program, DataSpec) {
    let mut pb = ProgramBuilder::new();
    let mut names = Vec::new();
    let mut ids = Vec::new();
    let mut prev = None;
    for c in 0..family.classes {
        let name = format!("D{c}");
        let mut cb = pb.class(&name);
        if c % 2 == 1 {
            if let Some(p) = prev {
                cb = cb.extends(p);
            }
        }
        for f in 0..family.fields {
            cb = cb.field(&format!("f{f}"), Ty::I32);
        }
        let id = cb.build();
        names.push(name);
        ids.push(id);
        prev = Some(id);
    }
    let d0 = ids[0];

    // Setter and getter on the first class.
    let mut set = pb.method(d0, "set").param(Ty::I32);
    let this = set.this_local();
    let v = set.param_local(0);
    set.set_field(this, "f0", v);
    set.ret(None);
    let set_m = set.finish();

    let mut get = pb.method(d0, "get").returns(Ty::I32);
    let this = get.this_local();
    let v = get.get_field(this, "f0");
    get.ret(Some(v));
    let get_m = get.finish();

    // Fan-in: sums the f0 of `fan` same-typed parameters.
    let mut fan_b = pb.method(d0, "fan").static_().returns(Ty::I32);
    for _ in 0..family.fan {
        fan_b = fan_b.param(Ty::Ref(d0));
    }
    let mut acc = fan_b.const_i32(0);
    for i in 0..family.fan {
        let p = fan_b.param_local(i);
        let v = fan_b.call_virtual(get_m, vec![p]).unwrap();
        acc = fan_b.bin(BinOp::Add, acc, v);
    }
    fan_b.ret(Some(acc));
    let fan_m = fan_b.finish();

    // Data-path driver: builds `fan` records per input value and fans in.
    let mut drv = pb.method(d0, "drive").static_().returns(Ty::I32);
    let mut total = drv.const_i32(0);
    for &val in &family.values {
        let mut args = Vec::new();
        for k in 0..family.fan {
            let o = drv.new_object(d0);
            let v = drv.const_i32(val.wrapping_add(k as i32));
            drv.call_virtual(set_m, vec![o, v]);
            args.push(o);
        }
        let s = drv.call_static(fan_m, args).unwrap();
        total = drv.bin(BinOp::Add, total, s);
    }
    drv.print(total);
    drv.ret(Some(total));
    let drv_m = drv.finish();

    // Control main.
    let main_class = pb.class("Main").build();
    let mut main = pb.method(main_class, "main").static_();
    let r = main.call_static(drv_m, vec![]).unwrap();
    main.print(r);
    main.ret(None);
    let main_m = main.finish();

    let mut program = pb.finish();
    program.set_entry(main_m);
    (program, DataSpec::new(names))
}

#[test]
fn transform_succeeds_verifies_and_preserves_semantics() {
    for case in 0..64u64 {
        let mut rng = SplitMix64::new(0x7FA9_0001 + case);
        let family = random_family(&mut rng);
        let (program, spec) = build(&family);
        program.verify().expect("P verifies");

        let mut vm = Vm::new_heap(&program);
        vm.run().expect("P runs");
        let p_out = vm.output().to_vec();

        let out = transform(&program, &spec).expect("transform succeeds");
        out.program.verify().expect("P' verifies");

        // Bound coverage: every emitted pool index is below the bound.
        // Every conversion is a counted interaction point.
        let mut conversions = 0;
        for (_, method) in out.program.methods() {
            let Some(body) = &method.body else { continue };
            for block in &body.blocks {
                for instr in &block.instrs {
                    if matches!(
                        instr,
                        Instr::ConvertToHeap { .. } | Instr::ConvertToPage { .. }
                    ) {
                        conversions += 1;
                    }
                    if let Instr::BindParam { class, index, .. } = instr {
                        let tid = out.meta.type_id(*class);
                        let bound = out.meta.bounds.bound(TypeId(tid)) as usize;
                        assert!(
                            *index < bound,
                            "pool index {index} exceeds bound {bound} (case {case})"
                        );
                    }
                }
            }
        }
        assert_eq!(out.report.interaction_points, conversions, "case {case}");

        // The fan method forces the bound up to `fan`.
        let d0 = out.program.class_by_name("D0").expect("D0 exists");
        let tid = out.meta.type_id(d0);
        assert!(out.meta.bounds.bound(TypeId(tid)) as usize >= family.fan);

        let mut vm2 = Vm::new_paged(&out.program, &out.meta);
        vm2.run().expect("P' runs");
        assert_eq!(vm2.output(), p_out.as_slice(), "case {case}");

        // Object bound: the paged run creates no heap data objects.
        assert_eq!(vm2.heap().stats().objects_allocated, 0, "case {case}");
        let expected_records = (family.values.len() * family.fan) as u64;
        assert_eq!(
            vm2.paged().stats().records_allocated,
            expected_records,
            "case {case}"
        );
    }
}

#[test]
fn facade_count_is_input_independent() {
    for case in 0..64u64 {
        let mut rng = SplitMix64::new(0x7FA9_1000 + case);
        let family = random_family(&mut rng);
        // The paper's core bound: the number of facades depends only on the
        // program text (types × bounds), never on the data size.
        let (program, spec) = build(&family);
        let out = transform(&program, &spec).expect("transform succeeds");
        let mut vm = Vm::new_paged(&out.program, &out.meta);
        vm.run().expect("P' runs");
        let facades = vm.pools().expect("paged mode").facade_count();
        assert_eq!(facades, out.meta.bounds.facades_per_thread(), "case {case}");

        // Doubling the data leaves the facade count unchanged.
        let mut bigger = family.clone();
        bigger.values.extend_from_slice(&family.values);
        let (program2, spec2) = build(&bigger);
        let out2 = transform(&program2, &spec2).expect("transform succeeds");
        let mut vm2 = Vm::new_paged(&out2.program, &out2.meta);
        vm2.run().expect("P' runs");
        assert_eq!(
            vm2.pools().expect("paged mode").facade_count(),
            facades,
            "case {case}"
        );
    }
}
