//! Interpreter behaviour tests: error paths, numeric semantics, dispatch
//! edge cases, and the runaway-loop guard.

use facade_compiler::{DataSpec, transform};
use facade_ir::{BinOp, CmpOp, Instr, ProgramBuilder, Ty};
use facade_vm::{Vm, VmConfig, VmError};

#[test]
fn division_by_zero_is_reported() {
    let mut pb = ProgramBuilder::new();
    let main_class = pb.class("Main").build();
    let mut m = pb.method(main_class, "main").static_();
    let a = m.const_i32(1);
    let b = m.const_i32(0);
    let _ = m.bin(BinOp::Div, a, b);
    m.ret(None);
    let main_m = m.finish();
    let mut program = pb.finish();
    program.set_entry(main_m);
    let mut vm = Vm::new_heap(&program);
    assert_eq!(vm.run().unwrap_err(), VmError::DivisionByZero);
}

#[test]
fn null_field_access_is_reported() {
    let mut pb = ProgramBuilder::new();
    let t = pb.class("T").field("x", Ty::I32).build();
    let main_class = pb.class("Main").build();
    let mut m = pb.method(main_class, "main").static_();
    let n = m.const_null(Ty::Ref(t));
    let _ = m.get_field(n, "x");
    m.ret(None);
    let main_m = m.finish();
    let mut program = pb.finish();
    program.set_entry(main_m);
    let mut vm = Vm::new_heap(&program);
    assert!(matches!(vm.run().unwrap_err(), VmError::NullDeref(_)));
}

#[test]
fn entryless_program_is_rejected() {
    let pb = ProgramBuilder::new();
    let program = pb.finish();
    let mut vm = Vm::new_heap(&program);
    assert_eq!(vm.run().unwrap_err(), VmError::NoEntry);
}

#[test]
fn step_budget_stops_infinite_loops() {
    let mut pb = ProgramBuilder::new();
    let main_class = pb.class("Main").build();
    let mut m = pb.method(main_class, "main").static_();
    let bb = m.block();
    m.jump(bb);
    m.switch_to(bb);
    let _ = m.const_i32(1); // at least one instruction per lap
    m.jump(bb);
    let main_m = m.finish();
    let mut program = pb.finish();
    program.set_entry(main_m);
    let config = VmConfig {
        step_budget: Some(10_000),
        ..VmConfig::default()
    };
    let mut vm = Vm::with_config(&program, None, config);
    assert_eq!(vm.run().unwrap_err(), VmError::StepBudgetExceeded);
    assert!(vm.steps() > 10_000);
}

#[test]
fn numeric_casts_follow_rust_semantics() {
    let mut pb = ProgramBuilder::new();
    let main_class = pb.class("Main").build();
    let mut m = pb.method(main_class, "main").static_();
    let big = m.const_i64(1 << 40);
    let narrowed = m.local(Ty::I32);
    m.emit(Instr::NumCast {
        dst: narrowed,
        src: big,
    });
    m.print(narrowed);
    let f = m.const_f64(3.99);
    let truncated = m.local(Ty::I32);
    m.emit(Instr::NumCast {
        dst: truncated,
        src: f,
    });
    m.print(truncated);
    let widened = m.local(Ty::F64);
    let three = m.const_i32(3);
    m.emit(Instr::NumCast {
        dst: widened,
        src: three,
    });
    m.print(widened);
    m.ret(None);
    let main_m = m.finish();
    let mut program = pb.finish();
    program.set_entry(main_m);
    let mut vm = Vm::new_heap(&program);
    vm.run().unwrap();
    assert_eq!(vm.output(), ["0", "3", "3"]);
}

#[test]
fn comparison_chain_matches_rust() {
    let mut pb = ProgramBuilder::new();
    let main_class = pb.class("Main").build();
    let mut m = pb.method(main_class, "main").static_();
    let a = m.const_f64(1.5);
    let b = m.const_f64(2.5);
    for op in [
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
        CmpOp::Eq,
        CmpOp::Ne,
    ] {
        let r = m.cmp(op, a, b);
        m.print(r);
    }
    m.ret(None);
    let main_m = m.finish();
    let mut program = pb.finish();
    program.set_entry(main_m);
    let mut vm = Vm::new_heap(&program);
    vm.run().unwrap();
    assert_eq!(vm.output(), ["1", "1", "0", "0", "0", "1"]);
}

#[test]
fn instanceof_on_null_is_false_in_both_modes() {
    let mut pb = ProgramBuilder::new();
    let t = pb.class("T").build();
    let mut m = pb.method(t, "check").static_().returns(Ty::I32);
    let n = m.const_null(Ty::Ref(t));
    let r = m.instance_of(n, t);
    m.print(r);
    m.ret(Some(r));
    let check = m.finish();
    let main_class = pb.class("Main").build();
    let mut main = pb.method(main_class, "main").static_();
    let r = main.call_static(check, vec![]).unwrap();
    main.print(r);
    main.ret(None);
    let main_m = main.finish();
    let mut program = pb.finish();
    program.set_entry(main_m);

    let mut vm = Vm::new_heap(&program);
    vm.run().unwrap();
    assert_eq!(vm.output(), ["0", "0"]);

    let out = transform(&program, &DataSpec::new(["T"])).unwrap();
    let mut vm2 = Vm::new_paged(&out.program, &out.meta);
    vm2.run().unwrap();
    assert_eq!(vm2.output(), ["0", "0"]);
}

#[test]
fn null_virtual_dispatch_is_reported_in_paged_mode() {
    let mut pb = ProgramBuilder::new();
    let t = pb.class("T").field("x", Ty::I32).build();
    let mut f = pb.method(t, "f");
    let _ = f.this_local();
    f.ret(None);
    let f_m = f.finish();
    let mut m = pb.method(t, "go").static_();
    let n = m.const_null(Ty::Ref(t));
    m.call_virtual(f_m, vec![n]);
    m.ret(None);
    let go = m.finish();
    let main_class = pb.class("Main").build();
    let mut main = pb.method(main_class, "main").static_();
    main.call_static(go, vec![]);
    main.ret(None);
    let main_m = main.finish();
    let mut program = pb.finish();
    program.set_entry(main_m);

    let mut vm = Vm::new_heap(&program);
    assert!(matches!(vm.run().unwrap_err(), VmError::NullDeref(_)));

    let out = transform(&program, &DataSpec::new(["T"])).unwrap();
    let mut vm2 = Vm::new_paged(&out.program, &out.meta);
    assert!(matches!(vm2.run().unwrap_err(), VmError::NullDeref(_)));
}

#[test]
fn deep_recursion_with_data_arguments_keeps_pools_consistent() {
    // Recursion: each frame binds pool facades; the callee releases them in
    // its prologue, so the pool is free again before the next recursive
    // call. The recursive method is the first one finished, so its id is
    // MethodId(0), which lets the body call itself.
    use facade_ir::{CallTarget, MethodId};
    let mut pb = ProgramBuilder::new();
    let t = pb.class("T").field("v", Ty::I32).build();
    let self_id = MethodId(0);
    let mut rec = pb
        .method(t, "down")
        .param(Ty::Ref(t))
        .param(Ty::I32)
        .returns(Ty::I32)
        .static_();
    let obj = rec.param_local(0);
    let n = rec.param_local(1);
    let zero = rec.const_i32(0);
    let done = rec.cmp(CmpOp::Le, n, zero);
    let base_bb = rec.block();
    let rec_bb = rec.block();
    rec.branch(done, base_bb, rec_bb);
    rec.switch_to(base_bb);
    let v = rec.get_field(obj, "v");
    rec.ret(Some(v));
    rec.switch_to(rec_bb);
    let one = rec.const_i32(1);
    let n1 = rec.bin(BinOp::Sub, n, one);
    let r = rec.local(Ty::I32);
    rec.emit(Instr::Call {
        dst: Some(r),
        target: CallTarget::Static(self_id),
        args: vec![obj, n1],
    });
    rec.ret(Some(r));
    let rec_m = rec.finish();
    assert_eq!(rec_m, self_id, "recursive id assumption");

    let mut drv = pb.method(t, "drive").static_().returns(Ty::I32);
    let o = drv.new_object(t);
    let val = drv.const_i32(99);
    drv.set_field(o, "v", val);
    let depth = drv.const_i32(50);
    let out = drv.call_static(rec_m, vec![o, depth]).unwrap();
    drv.print(out);
    drv.ret(Some(out));
    let drv_m = drv.finish();

    let main_class = pb.class("Main").build();
    let mut main = pb.method(main_class, "main").static_();
    let r2 = main.call_static(drv_m, vec![]).unwrap();
    main.print(r2);
    main.ret(None);
    let main_m = main.finish();
    let mut program = pb.finish();
    program.set_entry(main_m);
    program.verify().unwrap();

    let mut vm = Vm::new_heap(&program);
    vm.run().unwrap();
    assert_eq!(vm.output(), ["99", "99"]);

    let transformed = transform(&program, &DataSpec::new(["T"])).unwrap();
    let mut vm2 = Vm::new_paged(&transformed.program, &transformed.meta);
    vm2.run().unwrap();
    assert_eq!(vm2.output(), ["99", "99"]);
}

#[test]
fn runaway_recursion_is_a_typed_error() {
    let text = include_str!("runaway_recursion.ir");
    let program = facade_ir::Program::parse(text).unwrap();
    program.verify().unwrap();
    let mut vm = Vm::new_heap(&program);
    assert_eq!(vm.run().unwrap_err(), VmError::CallDepthExceeded);
    // main's two instructions, then one call per frame up to the limit.
    assert_eq!(vm.steps(), 2 + 65_535);
    assert!(
        VmError::CallDepthExceeded
            .to_string()
            .contains("call depth")
    );
    // The failed run unwound: the VM runs again from a clean stack.
    assert_eq!(vm.run().unwrap_err(), VmError::CallDepthExceeded);
}

#[test]
fn references_in_locals_survive_collections_across_calls() {
    // A 40-node list is built while the young space (4 KiB) fills many
    // times over, then held in main's local — and in `sum`'s parameter —
    // while `garbage` allocates 4000 more nodes. Every node must still
    // carry its value afterwards.
    let program = facade_ir::Program::parse(
        "class Node {
  i64 v;
  Node next;
  static Node build(i32) {
   locals: i32, Node, Node, i32, i32, i32, i64
   bb0:
     v1 = null
     v3 = 0
     v5 = 1
     goto bb1
   bb1:
     v4 = v3 Lt v0
     if v4 then bb2 else bb3
   bb2:
     v2 = new Node
     v6 = cast v3
     v2.f0 = v6
     v2.f1 = v1
     v1 = v2
     v3 = v3 Add v5
     goto bb1
   bb3:
     return v1
  }
  static void garbage(i32) {
   locals: i32, Node, i32, i32, i32
   bb0:
     v2 = 0
     v4 = 1
     goto bb1
   bb1:
     v3 = v2 Lt v0
     if v3 then bb2 else bb3
   bb2:
     v1 = new Node
     v2 = v2 Add v4
     goto bb1
   bb3:
     return
  }
  static i64 sum(Node, i32) {
   locals: Node, i32, i64, i64, Node, i32
   bb0:
     static Node::garbage(v1)
     v2 = 0L
     v4 = null
     goto bb1
   bb1:
     v5 = v0 Ne v4
     if v5 then bb2 else bb3
   bb2:
     v3 = v0.f0
     v2 = v2 Add v3
     v0 = v0.f1
     goto bb1
   bb3:
     return v2
  }
}
class Main {
  static void main() {
   locals: i32, Node, i32, i64
   bb0:
     v0 = 40
     v1 = static Node::build(v0)
     v2 = 4000
     static Node::garbage(v2)
     v3 = static Node::sum(v1, v2)
     print v3
     v3 = static Node::sum(v1, v2)
     print v3
     return
  }
}
entry Main::main
",
    )
    .unwrap();
    program.verify().unwrap();
    let config = VmConfig {
        heap: managed_heap::HeapConfig::with_capacity(16 << 10),
        ..VmConfig::default()
    };
    let mut vm = Vm::with_config(&program, None, config);
    vm.run().unwrap();
    assert_eq!(vm.output(), ["780", "780"]); // 0 + 1 + … + 39
    assert!(
        vm.heap().stats().collections() >= 10,
        "only {} collections",
        vm.heap().stats().collections()
    );
}
