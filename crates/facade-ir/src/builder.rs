//! Fluent builders for programs, classes, and method bodies.
//!
//! The builders are how the test suite, the examples, and the bundled
//! program corpus construct IR. See the [crate docs](crate) for a small
//! example; `facade-compiler`'s tests contain the paper's Figure 2 program
//! built this way.

use crate::class::{Block, Body, ClassDef, ClassKind, FieldDef, MethodDef};
use crate::instr::{BinOp, CallTarget, CmpOp, Instr, Terminator};
use crate::program::Program;
use crate::types::{BlockId, ClassId, Local, MethodId, Ty};

/// Builds a [`Program`] incrementally.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    program: Program,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a class; the id is allocated immediately, so self-referential
    /// field types can use [`ClassBuilder::id`].
    pub fn class(&mut self, name: &str) -> ClassBuilder<'_> {
        let id = self.program.add_class(ClassDef {
            name: name.to_string(),
            kind: ClassKind::Class,
            superclass: None,
            interfaces: vec![],
            fields: vec![],
            methods: vec![],
        });
        ClassBuilder { pb: self, id }
    }

    /// Starts an interface.
    pub fn interface(&mut self, name: &str) -> ClassBuilder<'_> {
        let cb = self.class(name);
        cb.pb.program.class_mut(cb.id).kind = ClassKind::Interface;
        cb
    }

    /// Starts a method of `class`. Instance by default; see
    /// [`MethodBuilder::static_`].
    pub fn method(&mut self, class: ClassId, name: &str) -> MethodBuilder<'_> {
        MethodBuilder {
            pb: self,
            class,
            name: name.to_string(),
            params: Vec::new(),
            ret: None,
            is_static: false,
            body: Body::default(),
            started: false,
            current: BlockId(0),
        }
    }

    /// Declares a body-less (abstract/interface) method.
    pub fn abstract_method(
        &mut self,
        class: ClassId,
        name: &str,
        params: Vec<Ty>,
        ret: Option<Ty>,
    ) -> MethodId {
        self.program.add_method(MethodDef {
            name: name.to_string(),
            class,
            params,
            ret,
            is_static: false,
            body: None,
        })
    }

    /// Read access to the program under construction.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Finalizes and returns the program.
    pub fn finish(self) -> Program {
        self.program
    }
}

/// Builds one class; created by [`ProgramBuilder::class`].
#[derive(Debug)]
pub struct ClassBuilder<'a> {
    pb: &'a mut ProgramBuilder,
    id: ClassId,
}

impl ClassBuilder<'_> {
    /// The id of the class being built (usable for self-referential types).
    pub fn id(&self) -> ClassId {
        self.id
    }

    /// Sets the superclass.
    pub fn extends(self, superclass: ClassId) -> Self {
        self.pb.program.class_mut(self.id).superclass = Some(superclass);
        self
    }

    /// Adds an implemented interface.
    pub fn implements(self, iface: ClassId) -> Self {
        self.pb.program.class_mut(self.id).interfaces.push(iface);
        self
    }

    /// Adds an instance field.
    pub fn field(self, name: &str, ty: Ty) -> Self {
        self.pb.program.class_mut(self.id).fields.push(FieldDef {
            name: name.to_string(),
            ty,
        });
        self
    }

    /// Finishes the class, returning its id.
    pub fn build(self) -> ClassId {
        self.id
    }
}

/// A position to continue emitting at; see [`MethodBuilder::block`].
#[derive(Debug, Clone, Copy)]
pub struct BlockCursor(pub BlockId);

/// Builds one method body; created by [`ProgramBuilder::method`].
#[derive(Debug)]
pub struct MethodBuilder<'a> {
    pb: &'a mut ProgramBuilder,
    class: ClassId,
    name: String,
    params: Vec<Ty>,
    ret: Option<Ty>,
    is_static: bool,
    body: Body,
    started: bool,
    current: BlockId,
}

impl MethodBuilder<'_> {
    /// Declares a parameter (call before any emission).
    ///
    /// # Panics
    ///
    /// Panics if instructions have already been emitted.
    pub fn param(mut self, ty: Ty) -> Self {
        assert!(!self.started, "declare parameters before emitting");
        self.params.push(ty);
        self
    }

    /// Declares the return type.
    pub fn returns(mut self, ty: Ty) -> Self {
        self.ret = Some(ty);
        self
    }

    /// Makes the method static (no receiver).
    ///
    /// # Panics
    ///
    /// Panics if instructions have already been emitted.
    pub fn static_(mut self) -> Self {
        assert!(!self.started, "set staticness before emitting");
        self.is_static = true;
        self
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        if !self.is_static {
            self.body.add_local(Ty::Ref(self.class));
        }
        for p in &self.params {
            self.body.locals.push(p.clone());
        }
        self.body.blocks.push(Block::default());
        self.current = BlockId(0);
    }

    /// The receiver local (`this`).
    ///
    /// # Panics
    ///
    /// Panics for static methods.
    pub fn this_local(&mut self) -> Local {
        assert!(!self.is_static, "static methods have no receiver");
        self.ensure_started();
        Local(0)
    }

    /// The local holding declared parameter `i` (0-based, receiver
    /// excluded).
    pub fn param_local(&mut self, i: usize) -> Local {
        assert!(i < self.params.len(), "parameter index out of range");
        self.ensure_started();
        Local((i + usize::from(!self.is_static)) as u32)
    }

    /// Adds a fresh local of type `ty`.
    pub fn local(&mut self, ty: Ty) -> Local {
        self.ensure_started();
        self.body.add_local(ty)
    }

    /// Creates a new (empty, unterminated) block and returns its id without
    /// switching to it.
    pub fn block(&mut self) -> BlockId {
        self.ensure_started();
        self.body.blocks.push(Block::default());
        BlockId((self.body.blocks.len() - 1) as u32)
    }

    /// Switches emission to `bb`.
    pub fn switch_to(&mut self, bb: BlockId) {
        self.ensure_started();
        self.current = bb;
    }

    /// Emits a raw instruction into the current block.
    pub fn emit(&mut self, i: Instr) {
        self.ensure_started();
        let bb = self.current.0 as usize;
        assert!(
            self.body.blocks[bb].term.is_none(),
            "emitting into a terminated block"
        );
        self.body.blocks[bb].instrs.push(i);
    }

    fn terminate(&mut self, t: Terminator) {
        self.ensure_started();
        let bb = self.current.0 as usize;
        assert!(
            self.body.blocks[bb].term.is_none(),
            "block already terminated"
        );
        self.body.blocks[bb].term = Some(t);
    }

    // ----- terminators ----------------------------------------------------

    /// Terminates the current block with `return`.
    pub fn ret(&mut self, value: Option<Local>) {
        self.terminate(Terminator::Return(value));
    }

    /// Terminates the current block with a jump.
    pub fn jump(&mut self, bb: BlockId) {
        self.terminate(Terminator::Jump(bb));
    }

    /// Terminates the current block with a two-way branch.
    pub fn branch(&mut self, cond: Local, then_bb: BlockId, else_bb: BlockId) {
        self.terminate(Terminator::Branch {
            cond,
            then_bb,
            else_bb,
        });
    }

    // ----- convenience emitters --------------------------------------------

    /// `fresh = constant`.
    pub fn const_i32(&mut self, v: i32) -> Local {
        let dst = self.local(Ty::I32);
        self.emit(Instr::ConstI32(dst, v));
        dst
    }

    /// `fresh = constant`.
    pub fn const_i64(&mut self, v: i64) -> Local {
        let dst = self.local(Ty::I64);
        self.emit(Instr::ConstI64(dst, v));
        dst
    }

    /// `fresh = constant`.
    pub fn const_f64(&mut self, v: f64) -> Local {
        let dst = self.local(Ty::F64);
        self.emit(Instr::ConstF64(dst, v));
        dst
    }

    /// `fresh = null` of reference type `ty`.
    pub fn const_null(&mut self, ty: Ty) -> Local {
        let dst = self.local(ty);
        self.emit(Instr::ConstNull(dst));
        dst
    }

    /// `dst = src`.
    pub fn move_(&mut self, dst: Local, src: Local) {
        self.emit(Instr::Move { dst, src });
    }

    /// `fresh = a <op> b`, with the result typed like `a`.
    pub fn bin(&mut self, op: BinOp, a: Local, b: Local) -> Local {
        self.ensure_started();
        let ty = self.body.local_ty(a).clone();
        let dst = self.local(ty);
        self.emit(Instr::Bin { dst, op, a, b });
        dst
    }

    /// `fresh = a <cmp> b` producing an `i32` boolean.
    pub fn cmp(&mut self, op: CmpOp, a: Local, b: Local) -> Local {
        let dst = self.local(Ty::I32);
        self.emit(Instr::Cmp { dst, op, a, b });
        dst
    }

    /// `fresh = new class` (allocation only; call the constructor with
    /// [`MethodBuilder::call_special`]).
    pub fn new_object(&mut self, class: ClassId) -> Local {
        let dst = self.local(Ty::Ref(class));
        self.emit(Instr::New { dst, class });
        dst
    }

    /// `fresh = new elem[len]`.
    pub fn new_array(&mut self, elem: Ty, len: Local) -> Local {
        let dst = self.local(Ty::array(elem.clone()));
        self.emit(Instr::NewArray { dst, elem, len });
        dst
    }

    /// `fresh = obj.<name>`, resolving the field slot by name on `obj`'s
    /// static type.
    ///
    /// # Panics
    ///
    /// Panics if `obj` is not class-typed or has no such field.
    pub fn get_field(&mut self, obj: Local, name: &str) -> Local {
        self.ensure_started();
        let class = self
            .body
            .local_ty(obj)
            .as_class()
            .expect("get_field on a non-class local");
        let slot = self
            .pb
            .program
            .field_slot(class, name)
            .unwrap_or_else(|| panic!("no field `{name}`"));
        let ty = self.pb.program.field_ty(class, slot).expect("field type");
        let dst = self.local(ty);
        self.emit(Instr::GetField {
            dst,
            obj,
            field: slot,
        });
        dst
    }

    /// `obj.<name> = src`.
    ///
    /// # Panics
    ///
    /// Panics if `obj` is not class-typed or has no such field.
    pub fn set_field(&mut self, obj: Local, name: &str, src: Local) {
        self.ensure_started();
        let class = self
            .body
            .local_ty(obj)
            .as_class()
            .expect("set_field on a non-class local");
        let slot = self
            .pb
            .program
            .field_slot(class, name)
            .unwrap_or_else(|| panic!("no field `{name}`"));
        self.emit(Instr::SetField {
            obj,
            field: slot,
            src,
        });
    }

    /// `fresh = arr[idx]`.
    pub fn array_get(&mut self, arr: Local, idx: Local) -> Local {
        self.ensure_started();
        let elem = match self.body.local_ty(arr) {
            Ty::Array(e) => (**e).clone(),
            other => panic!("array_get on non-array local of type {other}"),
        };
        let dst = self.local(elem);
        self.emit(Instr::ArrayGet { dst, arr, idx });
        dst
    }

    /// `arr[idx] = src`.
    pub fn array_set(&mut self, arr: Local, idx: Local, src: Local) {
        self.emit(Instr::ArraySet { arr, idx, src });
    }

    /// `fresh = arr.length`.
    pub fn array_len(&mut self, arr: Local) -> Local {
        let dst = self.local(Ty::I32);
        self.emit(Instr::ArrayLen { dst, arr });
        dst
    }

    fn call(&mut self, target: CallTarget, args: Vec<Local>) -> Option<Local> {
        self.ensure_started();
        let ret = self.pb.program.method(target.method()).ret.clone();
        let dst = ret.map(|ty| self.local(ty));
        self.emit(Instr::Call { dst, target, args });
        dst
    }

    /// Static call; returns the destination local if the callee returns a
    /// value.
    pub fn call_static(&mut self, m: MethodId, args: Vec<Local>) -> Option<Local> {
        self.call(CallTarget::Static(m), args)
    }

    /// Virtual call; `args[0]` must be the receiver.
    pub fn call_virtual(&mut self, m: MethodId, args: Vec<Local>) -> Option<Local> {
        self.call(CallTarget::Virtual(m), args)
    }

    /// Direct instance call (constructors, super calls); `args[0]` is the
    /// receiver.
    pub fn call_special(&mut self, m: MethodId, args: Vec<Local>) -> Option<Local> {
        self.call(CallTarget::Special(m), args)
    }

    /// `fresh = src instanceof class`.
    pub fn instance_of(&mut self, src: Local, class: ClassId) -> Local {
        let dst = self.local(Ty::I32);
        self.emit(Instr::InstanceOf { dst, src, class });
        dst
    }

    /// `print src` (observable output).
    pub fn print(&mut self, src: Local) {
        self.emit(Instr::Print(src));
    }

    /// Marks an iteration start (§3.6 of the paper).
    pub fn iteration_start(&mut self) {
        self.emit(Instr::IterationStart);
    }

    /// Marks the innermost iteration's end.
    pub fn iteration_end(&mut self) {
        self.emit(Instr::IterationEnd);
    }

    /// Finishes the method, adding it to the program.
    ///
    /// # Panics
    ///
    /// Panics if any block lacks a terminator.
    pub fn finish(mut self) -> MethodId {
        self.ensure_started();
        for (i, b) in self.body.blocks.iter().enumerate() {
            assert!(
                b.term.is_some(),
                "block {i} of {}::{} lacks a terminator",
                self.pb.program.class(self.class).name,
                self.name
            );
        }
        self.pb.program.add_method(MethodDef {
            name: self.name,
            class: self.class,
            params: self.params,
            ret: self.ret,
            is_static: self.is_static,
            body: Some(self.body),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_straightline_method() {
        let mut pb = ProgramBuilder::new();
        let main = pb.class("Main").build();
        let mut m = pb
            .method(main, "add3")
            .param(Ty::I32)
            .returns(Ty::I32)
            .static_();
        let x = m.param_local(0);
        let three = m.const_i32(3);
        let sum = m.bin(BinOp::Add, x, three);
        m.ret(Some(sum));
        let id = m.finish();
        let p = pb.finish();
        assert_eq!(p.method(id).params.len(), 1);
        assert_eq!(p.method(id).body.as_ref().unwrap().blocks.len(), 1);
    }

    #[test]
    fn build_branching_method() {
        let mut pb = ProgramBuilder::new();
        let main = pb.class("Main").build();
        let mut m = pb
            .method(main, "abs")
            .param(Ty::I32)
            .returns(Ty::I32)
            .static_();
        let x = m.param_local(0);
        let zero = m.const_i32(0);
        let neg = m.cmp(CmpOp::Lt, x, zero);
        let then_bb = m.block();
        let else_bb = m.block();
        m.branch(neg, then_bb, else_bb);
        m.switch_to(then_bb);
        let negated = m.bin(BinOp::Sub, zero, x);
        m.ret(Some(negated));
        m.switch_to(else_bb);
        m.ret(Some(x));
        let id = m.finish();
        let p = pb.finish();
        assert_eq!(p.method(id).body.as_ref().unwrap().blocks.len(), 3);
    }

    #[test]
    fn fields_resolve_by_name_through_inheritance() {
        let mut pb = ProgramBuilder::new();
        let a = pb.class("A").field("x", Ty::I32).build();
        let b = pb.class("B").extends(a).field("y", Ty::I32).build();
        let mut m = pb.method(b, "getx").returns(Ty::I32);
        let this = m.this_local();
        let x = m.get_field(this, "x");
        m.ret(Some(x));
        m.finish();
        let p = pb.finish();
        assert_eq!(p.field_slot(b, "x"), Some(0));
    }

    #[test]
    #[should_panic(expected = "lacks a terminator")]
    fn unterminated_block_is_rejected() {
        let mut pb = ProgramBuilder::new();
        let main = pb.class("Main").build();
        let mut m = pb.method(main, "bad").static_();
        let _ = m.const_i32(1);
        m.finish();
    }

    #[test]
    #[should_panic(expected = "already terminated")]
    fn double_termination_is_rejected() {
        let mut pb = ProgramBuilder::new();
        let main = pb.class("Main").build();
        let mut m = pb.method(main, "bad").static_();
        m.ret(None);
        m.ret(None);
    }

    #[test]
    fn interface_methods_are_abstract() {
        let mut pb = ProgramBuilder::new();
        let iface = pb.interface("Runnable").build();
        let m = pb.abstract_method(iface, "run", vec![], None);
        let p = pb.finish();
        assert!(p.class(iface).is_interface());
        assert!(p.method(m).body.is_none());
    }
}
