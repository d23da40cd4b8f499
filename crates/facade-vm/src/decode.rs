//! Decoding a method body into the flat, typed form the interpreter runs.
//!
//! A [`Body`] is decoded once, on the method's first call. Every local has
//! one [`Kind`] for its whole life, taken from its declared type, so each IR
//! instruction becomes exactly one [`Op`] that already knows its operand
//! representation (`AddI64`, `LtI32`, `GetFieldI64`, …), its resolved class
//! or type id, its field's byte offset in the layout of the class the IR
//! names (a subclass keeps its superclass's offsets, so it holds for every
//! object the local can hold), and its jump targets as program counters. An
//! instruction whose operands do not fit — something the verifier rejects —
//! decodes to [`Op::Illegal`] and fails with a typed error if it is reached.
//! One rewrite follows: an `i32` comparison whose result the block's branch
//! tests becomes one fused op ([`CmpBranch`]), and the branch stays behind it
//! unreached, so every pc keeps its instruction.

use crate::error::VmError;
use facade_compiler::{PagedMeta, elem_kind, field_kind};
use facade_ir::{
    BinOp, Body, CallTarget, ClassId, CmpOp, Instr, Local, MethodId, Program, Terminator, Ty,
};
use facade_runtime::{PagedHeap, TypeId as PTypeId};
use managed_heap::{ClassId as HClassId, ElemKind, FieldKind, Heap};

/// "No local": a call whose result is discarded.
pub(crate) const NO_LOCAL: u32 = u32::MAX;

/// How a local's 64-bit slot is read. Fixed per local by its declared type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    I32,
    I64,
    F64,
    /// Managed-heap reference (`Ty::Ref` / `Ty::Array`); the only kind the
    /// collector must see, so the only kind with a GC root.
    Obj,
    /// Page reference.
    Page,
    /// Facade pool slot; 0 while unbound.
    Facade,
}

impl Kind {
    pub(crate) fn of(ty: &Ty) -> Kind {
        match ty {
            Ty::I32 => Kind::I32,
            Ty::I64 => Kind::I64,
            Ty::F64 => Kind::F64,
            Ty::Ref(_) | Ty::Array(_) => Kind::Obj,
            Ty::PageRef => Kind::Page,
            Ty::Facade(_) => Kind::Facade,
        }
    }
}

/// Class and type ids resolved to array indices, built once per VM.
#[derive(Debug)]
pub(crate) struct Tables {
    /// IR class → managed-heap class (`None` for interfaces).
    heap_class: Vec<Option<HClassId>>,
    /// Managed-heap class → IR class.
    ir_class: Vec<ClassId>,
    /// IR data class → record type id (empty in heap mode).
    type_id: Vec<Option<u16>>,
    /// Record type id → IR data class (`None` for the array kinds).
    class_of_type: Vec<Option<ClassId>>,
}

impl Tables {
    /// Registers every concrete class with `heap` (in id order, with its
    /// flattened layout: superclass fields first) and indexes the data
    /// classes of `meta`.
    pub(crate) fn new(program: &Program, meta: Option<&PagedMeta>, heap: &mut Heap) -> Self {
        let mut heap_class = Vec::with_capacity(program.class_count());
        let mut ir_class = Vec::new();
        for (id, class) in program.classes() {
            if class.is_interface() {
                heap_class.push(None);
                continue;
            }
            let kinds: Vec<FieldKind> = program
                .flat_fields(id)
                .iter()
                .map(|(_, f)| field_kind(&f.ty))
                .collect();
            let hid = heap.register_class(&class.name, &kinds);
            assert_eq!(hid.0 as usize, ir_class.len(), "heap class ids are dense");
            heap_class.push(Some(hid));
            ir_class.push(id);
        }

        let mut type_id = Vec::new();
        let mut class_of_type = Vec::new();
        if let Some(meta) = meta {
            type_id.resize(program.class_count(), None);
            class_of_type.resize(meta.layouts.len(), None);
            for &class in &meta.data_classes {
                let tid = meta.type_id(class);
                type_id[class.0 as usize] = Some(tid);
                class_of_type[tid as usize] = Some(class);
            }
        }
        Self {
            heap_class,
            ir_class,
            type_id,
            class_of_type,
        }
    }

    pub(crate) fn heap_class(&self, class: ClassId) -> Option<HClassId> {
        self.heap_class.get(class.0 as usize).copied().flatten()
    }

    pub(crate) fn ir_class(&self, heap_class: HClassId) -> ClassId {
        self.ir_class[heap_class.0 as usize]
    }

    pub(crate) fn type_id(&self, class: ClassId) -> Option<u16> {
        self.type_id.get(class.0 as usize).copied().flatten()
    }

    pub(crate) fn class_of_type(&self, tid: u16) -> Option<ClassId> {
        self.class_of_type.get(tid as usize).copied().flatten()
    }
}

/// Destination and one operand.
#[derive(Debug, Clone, Copy)]
pub(crate) struct R2 {
    pub(crate) dst: u32,
    pub(crate) src: u32,
}

/// A field access: `at` is the field's body offset (its
/// [`RecordLayout::offset`](managed_heap::RecordLayout::offset), the same
/// number on either heap), `val` the local read into or stored from.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FieldOp {
    pub(crate) obj: u32,
    pub(crate) at: u32,
    pub(crate) val: u32,
}

/// Destination and two operands.
#[derive(Debug, Clone, Copy)]
pub(crate) struct R3 {
    pub(crate) dst: u32,
    pub(crate) a: u32,
    pub(crate) b: u32,
}

/// An `i32` comparison fused with the [`Op::Branch`] on its result: `dst`
/// gets the comparison of `a` and `b`, then control goes to `then_pc` if it
/// holds, else to `else_pc`. Fused only when every field fits 16 bits, which
/// keeps [`Op`] at 16 bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CmpBranch {
    pub(crate) dst: u16,
    pub(crate) a: u16,
    pub(crate) b: u16,
    pub(crate) then_pc: u16,
    pub(crate) else_pc: u16,
}

/// One decoded instruction. Locals are frame-relative slot indices, jump
/// targets are indices into [`DecodedMethod::code`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    // ----- terminators: not counted as steps --------------------------------
    Jump(u32),
    Branch {
        cond: u32,
        then_pc: u32,
        else_pc: u32,
    },
    Ret(u32),
    RetVoid,

    // ----- everything below is one step -------------------------------------
    /// A comparison and the branch that ends its block, run as one op: the
    /// comparison is the step, and the [`Op::Branch`] after it stays in
    /// place but is never reached.
    BranchEqI32(CmpBranch),
    BranchNeI32(CmpBranch),
    BranchLtI32(CmpBranch),
    BranchLeI32(CmpBranch),
    BranchGtI32(CmpBranch),
    BranchGeI32(CmpBranch),
    /// Refused by the decoder; `msgs[_]` says why.
    Illegal(u32),
    Nop,
    /// Any constant of a kind without a GC root (the slot is just bits).
    Const {
        dst: u32,
        bits: u64,
    },
    NullObj(u32),
    Move(R2),
    MoveObj(R2),

    AddI32(R3),
    SubI32(R3),
    MulI32(R3),
    DivI32(R3),
    RemI32(R3),
    AndI32(R3),
    OrI32(R3),
    XorI32(R3),
    ShlI32(R3),
    ShrI32(R3),
    AddI64(R3),
    SubI64(R3),
    MulI64(R3),
    DivI64(R3),
    RemI64(R3),
    AndI64(R3),
    OrI64(R3),
    XorI64(R3),
    ShlI64(R3),
    ShrI64(R3),
    AddF64(R3),
    SubF64(R3),
    MulF64(R3),
    DivF64(R3),
    RemF64(R3),

    EqI32(R3),
    NeI32(R3),
    LtI32(R3),
    LeI32(R3),
    GtI32(R3),
    GeI32(R3),
    EqI64(R3),
    NeI64(R3),
    LtI64(R3),
    LeI64(R3),
    GtI64(R3),
    GeI64(R3),
    EqF64(R3),
    NeF64(R3),
    LtF64(R3),
    LeF64(R3),
    GtF64(R3),
    GeF64(R3),
    /// Reference identity, heap or page: the raw slots compare.
    EqRef(R3),
    NeRef(R3),

    I64ToI32(R2),
    F64ToI32(R2),
    I32ToI64(R2),
    F64ToI64(R2),
    I32ToF64(R2),
    I64ToF64(R2),

    New {
        dst: u32,
        class: HClassId,
    },
    NewArray {
        dst: u32,
        len: u32,
        elem: ElemKind,
    },
    /// A 4-byte field: `i32`.
    GetFieldI32(FieldOp),
    /// An 8-byte field: `i64` or `f64` bits.
    GetFieldI64(FieldOp),
    /// A reference field: the read roots it, the write runs the barrier.
    GetFieldRef(FieldOp),
    SetFieldI32(FieldOp),
    SetFieldI64(FieldOp),
    SetFieldRef(FieldOp),
    ArrayGetI32(R3),
    ArrayGetI64(R3),
    ArrayGetRef(R3),
    /// `a[b] = dst` — `dst` names the stored local.
    ArraySetI32(R3),
    ArraySetI64(R3),
    ArraySetRef(R3),
    ArrayLen(R2),
    InstanceOf {
        dst: u32,
        src: u32,
        class: ClassId,
    },
    MonitorEnter(u32),
    Print {
        src: u32,
        kind: Kind,
    },

    /// Static or special call: `callee` is final. The argument locals are
    /// `args[args..]`, as many as the callee has parameter slots.
    Call {
        dst: u32,
        callee: MethodId,
        args: u32,
    },
    /// Virtual call: `declared` is resolved against the receiver's runtime
    /// class; the argument locals at `args[args..]`, receiver first.
    CallVirtual {
        dst: u32,
        declared: MethodId,
        args: u32,
    },

    IterationStart,
    IterationEnd,
    PageAlloc {
        dst: u32,
        tid: u16,
    },
    PageAllocFast {
        dst: u32,
        tid: u16,
    },
    PageNewArray {
        dst: u32,
        len: u32,
        elem: ElemKind,
    },
    /// A 4-byte record field: `i32` or a page reference (pages are never
    /// traced, so a reference is plain bits, zero-extended into its local).
    PageGetFieldI32(FieldOp),
    /// An 8-byte record field: `i64` or `f64` bits.
    PageGetFieldI64(FieldOp),
    PageSetFieldI32(FieldOp),
    PageSetFieldI64(FieldOp),
    /// A 4-byte element, by the same rule as [`Op::PageGetFieldI32`].
    PageArrayGetI32(R3),
    PageArrayGetI64(R3),
    /// `a[b] = dst`, as for the heap forms.
    PageArraySetI32(R3),
    PageArraySetI64(R3),
    PageArrayLen(R2),
    BindParam {
        dst: u32,
        src: u32,
        tid: u16,
        index: u16,
    },
    Resolve(R2),
    ReleaseFacade(R2),
    PageInstanceOf {
        dst: u32,
        src: u32,
        class: ClassId,
    },
    PageMonitorEnter(u32),
    PageMonitorExit(u32),
    ConvertToPage(R2),
    ConvertToHeap(R2),
}

// The interpreter copies an op out of the code array per step.
const _: () = assert!(std::mem::size_of::<Op>() == 16);

impl Op {
    /// Terminators end a block and are not counted by `Vm::steps`.
    fn is_terminator(&self) -> bool {
        matches!(
            self,
            Op::Jump(_) | Op::Branch { .. } | Op::Ret(_) | Op::RetVoid
        )
    }

    /// `self`, an `i32` comparison, fused with `branch`, the branch that
    /// ends its block, if the branch tests the comparison's result and the
    /// fields fit [`CmpBranch`].
    fn fused_with(self, branch: Op) -> Option<Op> {
        let (make, r): (fn(CmpBranch) -> Op, R3) = match self {
            Op::EqI32(r) => (Op::BranchEqI32, r),
            Op::NeI32(r) => (Op::BranchNeI32, r),
            Op::LtI32(r) => (Op::BranchLtI32, r),
            Op::LeI32(r) => (Op::BranchLeI32, r),
            Op::GtI32(r) => (Op::BranchGtI32, r),
            Op::GeI32(r) => (Op::BranchGeI32, r),
            _ => return None,
        };
        let Op::Branch {
            cond,
            then_pc,
            else_pc,
        } = branch
        else {
            return None;
        };
        if cond != r.dst {
            return None;
        }
        let narrow = |v: u32| u16::try_from(v).ok();
        Some(make(CmpBranch {
            dst: narrow(r.dst)?,
            a: narrow(r.a)?,
            b: narrow(r.b)?,
            then_pc: narrow(then_pc)?,
            else_pc: narrow(else_pc)?,
        }))
    }
}

/// A method body in executable form.
#[derive(Debug)]
pub(crate) struct DecodedMethod {
    pub(crate) code: Vec<Op>,
    /// Per pc, the steps of the straight-line segment starting there: the
    /// non-terminator ops up to the next terminator, or through the next
    /// call. The interpreter charges a segment when it enters it.
    pub(crate) charge: Vec<u32>,
    /// Argument locals of every call site, back to back.
    pub(crate) args: Vec<u32>,
    /// Why each [`Op::Illegal`] was refused.
    pub(crate) msgs: Vec<String>,
    /// Kind of every local; the first `param_slots` are the parameters.
    pub(crate) kinds: Vec<Kind>,
    param_slots: usize,
    pub(crate) ret: Option<Kind>,
    /// The `Obj` locals, in local order: the frame's GC roots.
    pub(crate) obj_locals: Vec<u32>,
    /// Local → its index in `obj_locals` (meaningful for `Obj` locals only).
    pub(crate) root_of: Vec<u32>,
}

impl DecodedMethod {
    /// Kinds of the parameter slots (receiver first for instance methods).
    pub(crate) fn params(&self) -> &[Kind] {
        &self.kinds[..self.param_slots]
    }
}

/// What a call site passes and expects, checked against the callee's
/// parameter kinds and return kind.
pub(crate) fn check_call(
    arg_kinds: impl ExactSizeIterator<Item = Kind>,
    dst_kind: Option<Kind>,
    param_kinds: &[Kind],
    ret: Option<Kind>,
) -> Result<(), String> {
    if arg_kinds.len() != param_kinds.len() {
        return Err(format!(
            "call passes {} arguments to {} parameter slots",
            arg_kinds.len(),
            param_kinds.len()
        ));
    }
    for (i, (arg, &param)) in arg_kinds.zip(param_kinds).enumerate() {
        if arg != param {
            return Err(format!("argument {i} is {arg:?}, parameter is {param:?}"));
        }
    }
    match dst_kind {
        Some(dst) if ret != Some(dst) => Err(format!("call result {ret:?} into {dst:?} local")),
        _ => Ok(()),
    }
}

/// The body of `method` and how many of its locals are parameter slots, or
/// why it cannot be called.
fn callable(program: &Program, method: MethodId) -> Result<(&Body, usize), String> {
    let def = program.method(method);
    let describe = || format!("{}::{}", program.class(def.class).name, def.name);
    let body = def
        .body
        .as_ref()
        .ok_or_else(|| format!("call to bodiless method {}", describe()))?;
    let slots = def.param_slot_count();
    if body.locals.len() < slots {
        return Err(format!("{} has fewer locals than parameters", describe()));
    }
    if body.blocks.is_empty() {
        return Err(format!("{} has no blocks", describe()));
    }
    Ok((body, slots))
}

struct Decoder<'a> {
    program: &'a Program,
    tables: &'a Tables,
    heap: &'a Heap,
    /// The paged heap in paged mode; `None` refuses the paged forms.
    paged: Option<&'a PagedHeap>,
    /// Declared type of every local.
    locals: &'a [Ty],
    kinds: &'a [Kind],
    args: Vec<u32>,
}

impl<'a> Decoder<'a> {
    fn kind(&self, l: Local) -> Result<Kind, String> {
        self.kinds
            .get(l.0 as usize)
            .copied()
            .ok_or_else(|| format!("local v{} out of range", l.0))
    }

    /// `l`, required to be of kind `want`.
    fn local(&self, l: Local, want: Kind, what: &str) -> Result<u32, String> {
        let got = self.kind(l)?;
        if got == want {
            Ok(l.0)
        } else {
            Err(format!("{what}: v{} is {got:?}, expected {want:?}", l.0))
        }
    }

    fn paged_mode(&self) -> Result<&'a PagedHeap, String> {
        self.paged
            .ok_or_else(|| "paged instruction in heap mode".into())
    }

    fn type_id(&self, class: ClassId) -> Result<u16, String> {
        self.paged_mode()?;
        self.tables.type_id(class).ok_or_else(|| {
            format!(
                "`{}` is not a data class with a record layout",
                self.program.class(class).name
            )
        })
    }

    /// The access moving `val` through field `field` of the class `obj` is
    /// declared with, built by `make`'s 4-byte, 8-byte or reference form.
    fn heap_field(
        &self,
        (obj, field, val): (Local, usize, Local),
        what: &str,
        make: [fn(FieldOp) -> Op; 3],
    ) -> Result<Op, String> {
        let (want, make) = match self.kind(val)? {
            Kind::I32 => (FieldKind::I32, make[0]),
            Kind::I64 | Kind::F64 => (FieldKind::I64, make[1]),
            Kind::Obj => (FieldKind::Ref, make[2]),
            other => return Err(format!("{what} of a heap object field as {other:?}")),
        };
        let obj = self.local(obj, Kind::Obj, what)?;
        let class = match &self.locals[obj as usize] {
            Ty::Ref(c) => self.tables.heap_class(*c),
            _ => None,
        }
        .ok_or_else(|| format!("{what} on v{obj}, which is not declared with a class"))?;
        let layout = self.heap.layout(class);
        if layout.fields().get(field) != Some(&want) {
            return Err(format!("`{}` has no {want:?} field {field}", layout.name()));
        }
        let at = layout.offset(field);
        Ok(make(FieldOp {
            obj,
            at,
            val: val.0,
        }))
    }

    /// The access moving `val` through field `field` of data class
    /// `class`'s records, built by `make`'s 4-byte or 8-byte form.
    fn paged_field(
        &self,
        (obj, field, val): (Local, usize, Local),
        class: ClassId,
        what: &str,
        make: [fn(FieldOp) -> Op; 2],
    ) -> Result<Op, String> {
        let (want, make) = match self.kind(val)? {
            Kind::I32 => (FieldKind::I32, make[0]),
            Kind::I64 | Kind::F64 => (FieldKind::I64, make[1]),
            Kind::Page => (FieldKind::Ref, make[0]),
            other => return Err(format!("{what} of a record field as {other:?}")),
        };
        let paged = self.paged_mode()?;
        let ty = PTypeId(self.type_id(class)?);
        let layout = paged.layout(ty);
        if layout.fields().get(field) != Some(&want) {
            return Err(format!("`{}` has no {want:?} field {field}", layout.name()));
        }
        let obj = self.local(obj, Kind::Page, what)?;
        let at = layout.offset(field);
        Ok(make(FieldOp {
            obj,
            at,
            val: val.0,
        }))
    }

    fn call_args(&mut self, args: &[Local]) -> Result<u32, String> {
        for &a in args {
            self.kind(a)?;
        }
        let start = u32::try_from(self.args.len()).map_err(|_| "too many call sites")?;
        self.args.extend(args.iter().map(|a| a.0));
        Ok(start)
    }

    #[allow(clippy::too_many_lines)]
    fn instr(&mut self, instr: &Instr) -> Result<Op, String> {
        use Kind::{F64, Facade, I32, I64, Obj, Page};
        Ok(match instr {
            Instr::ConstI32(d, v) => Op::Const {
                dst: self.local(*d, I32, "const")?,
                bits: u64::from(*v as u32),
            },
            Instr::ConstI64(d, v) => Op::Const {
                dst: self.local(*d, I64, "const")?,
                bits: *v as u64,
            },
            Instr::ConstF64(d, v) => Op::Const {
                dst: self.local(*d, F64, "const")?,
                bits: v.to_bits(),
            },
            // Zero is null, 0, 0.0 and "unbound" alike.
            Instr::ConstNull(d) => match self.kind(*d)? {
                Obj => Op::NullObj(d.0),
                _ => Op::Const { dst: d.0, bits: 0 },
            },
            Instr::Move { dst, src } => {
                let kind = self.kind(*dst)?;
                let r = R2 {
                    dst: dst.0,
                    src: self.local(*src, kind, "move")?,
                };
                match kind {
                    Obj => Op::MoveObj(r),
                    _ => Op::Move(r),
                }
            }
            Instr::Bin { dst, op, a, b } => {
                let kind = self.kind(*dst)?;
                let r = R3 {
                    dst: dst.0,
                    a: self.local(*a, kind, "binary op")?,
                    b: self.local(*b, kind, "binary op")?,
                };
                use BinOp::{Add, And, Div, Mul, Or, Rem, Shl, Shr, Sub, Xor};
                let make: fn(R3) -> Op = match (kind, op) {
                    (I32, Add) => Op::AddI32,
                    (I32, Sub) => Op::SubI32,
                    (I32, Mul) => Op::MulI32,
                    (I32, Div) => Op::DivI32,
                    (I32, Rem) => Op::RemI32,
                    (I32, And) => Op::AndI32,
                    (I32, Or) => Op::OrI32,
                    (I32, Xor) => Op::XorI32,
                    (I32, Shl) => Op::ShlI32,
                    (I32, Shr) => Op::ShrI32,
                    (I64, Add) => Op::AddI64,
                    (I64, Sub) => Op::SubI64,
                    (I64, Mul) => Op::MulI64,
                    (I64, Div) => Op::DivI64,
                    (I64, Rem) => Op::RemI64,
                    (I64, And) => Op::AndI64,
                    (I64, Or) => Op::OrI64,
                    (I64, Xor) => Op::XorI64,
                    (I64, Shl) => Op::ShlI64,
                    (I64, Shr) => Op::ShrI64,
                    (F64, Add) => Op::AddF64,
                    (F64, Sub) => Op::SubF64,
                    (F64, Mul) => Op::MulF64,
                    (F64, Div) => Op::DivF64,
                    (F64, Rem) => Op::RemF64,
                    (F64, _) => return Err(format!("bitwise op {op:?} on f64")),
                    _ => return Err(format!("binary op on {kind:?}")),
                };
                make(r)
            }
            Instr::Cmp { dst, op, a, b } => {
                let r = R3 {
                    dst: self.local(*dst, I32, "comparison result")?,
                    a: a.0,
                    b: b.0,
                };
                use CmpOp::{Eq, Ge, Gt, Le, Lt, Ne};
                let make: fn(R3) -> Op = match (self.kind(*a)?, self.kind(*b)?, op) {
                    (I32, I32, Eq) => Op::EqI32,
                    (I32, I32, Ne) => Op::NeI32,
                    (I32, I32, Lt) => Op::LtI32,
                    (I32, I32, Le) => Op::LeI32,
                    (I32, I32, Gt) => Op::GtI32,
                    (I32, I32, Ge) => Op::GeI32,
                    (I64, I64, Eq) => Op::EqI64,
                    (I64, I64, Ne) => Op::NeI64,
                    (I64, I64, Lt) => Op::LtI64,
                    (I64, I64, Le) => Op::LeI64,
                    (I64, I64, Gt) => Op::GtI64,
                    (I64, I64, Ge) => Op::GeI64,
                    (F64, F64, Eq) => Op::EqF64,
                    (F64, F64, Ne) => Op::NeF64,
                    (F64, F64, Lt) => Op::LtF64,
                    (F64, F64, Le) => Op::LeF64,
                    (F64, F64, Gt) => Op::GtF64,
                    (F64, F64, Ge) => Op::GeF64,
                    (Obj, Obj, Eq) | (Page, Page, Eq) => Op::EqRef,
                    (Obj, Obj, Ne) | (Page, Page, Ne) => Op::NeRef,
                    // References are unordered and unlike kinds never
                    // compare equal: the answer is a constant false.
                    _ => {
                        return Ok(Op::Const {
                            dst: r.dst,
                            bits: 0,
                        });
                    }
                };
                make(r)
            }
            Instr::NumCast { dst, src } => {
                let r = R2 {
                    dst: dst.0,
                    src: src.0,
                };
                match (self.kind(*src)?, self.kind(*dst)?) {
                    (I32, I32) | (I64, I64) | (F64, F64) => Op::Move(r),
                    (I64, I32) => Op::I64ToI32(r),
                    (F64, I32) => Op::F64ToI32(r),
                    (I32, I64) => Op::I32ToI64(r),
                    (F64, I64) => Op::F64ToI64(r),
                    (I32, F64) => Op::I32ToF64(r),
                    (I64, F64) => Op::I64ToF64(r),
                    (from, to) => return Err(format!("numeric cast of {from:?} into {to:?}")),
                }
            }
            Instr::New { dst, class } => Op::New {
                dst: self.local(*dst, Obj, "new")?,
                class: self
                    .tables
                    .heap_class(*class)
                    .ok_or("new of an interface or unknown class")?,
            },
            Instr::NewArray { dst, elem, len } => Op::NewArray {
                dst: self.local(*dst, Obj, "newarray")?,
                len: self.local(*len, I32, "array length")?,
                elem: elem_kind(elem),
            },
            Instr::GetField { dst, obj, field } => self.heap_field(
                (*obj, *field, *dst),
                "getfield",
                [Op::GetFieldI32, Op::GetFieldI64, Op::GetFieldRef],
            )?,
            Instr::SetField { obj, field, src } => self.heap_field(
                (*obj, *field, *src),
                "setfield",
                [Op::SetFieldI32, Op::SetFieldI64, Op::SetFieldRef],
            )?,
            Instr::ArrayGet { dst, arr, idx } => {
                let r = R3 {
                    dst: dst.0,
                    a: self.local(*arr, Obj, "arrayget")?,
                    b: self.local(*idx, I32, "array index")?,
                };
                match self.kind(*dst)? {
                    I32 => Op::ArrayGetI32(r),
                    I64 | F64 => Op::ArrayGetI64(r),
                    Obj => Op::ArrayGetRef(r),
                    other => return Err(format!("arrayget of a heap array into {other:?}")),
                }
            }
            Instr::ArraySet { arr, idx, src } => {
                let r = R3 {
                    dst: src.0,
                    a: self.local(*arr, Obj, "arrayset")?,
                    b: self.local(*idx, I32, "array index")?,
                };
                match self.kind(*src)? {
                    I32 => Op::ArraySetI32(r),
                    I64 | F64 => Op::ArraySetI64(r),
                    Obj => Op::ArraySetRef(r),
                    other => return Err(format!("arrayset of {other:?} into heap array")),
                }
            }
            Instr::ArrayLen { dst, arr } => Op::ArrayLen(R2 {
                dst: self.local(*dst, I32, "array length")?,
                src: self.local(*arr, Obj, "arraylength")?,
            }),
            Instr::Call { dst, target, args } => self.call(*dst, *target, args)?,
            Instr::InstanceOf { dst, src, class } => {
                let dst = self.local(*dst, I32, "instanceof result")?;
                match self.kind(*src)? {
                    Obj => Op::InstanceOf {
                        dst,
                        src: src.0,
                        class: *class,
                    },
                    _ => Op::Const { dst, bits: 0 },
                }
            }
            Instr::MonitorEnter(l) => Op::MonitorEnter(self.local(*l, Obj, "monitorenter")?),
            // A heap monitor never blocks in the single-threaded VM, so the
            // exit is only kind-checked.
            Instr::MonitorExit(l) => {
                self.local(*l, Obj, "monitorexit")?;
                Op::Nop
            }
            Instr::Print(l) => Op::Print {
                src: l.0,
                kind: self.kind(*l)?,
            },
            // No-ops under the heap backend.
            Instr::IterationStart | Instr::IterationEnd if self.paged.is_none() => Op::Nop,
            Instr::IterationStart => Op::IterationStart,
            Instr::IterationEnd => Op::IterationEnd,

            Instr::PageAlloc { dst, class } => Op::PageAlloc {
                tid: self.type_id(*class)?,
                dst: self.local(*dst, Page, "paged allocation")?,
            },
            Instr::PageAllocFast { dst, class } => Op::PageAllocFast {
                tid: self.type_id(*class)?,
                dst: self.local(*dst, Page, "paged allocation")?,
            },
            Instr::PageNewArray { dst, elem, len } => {
                self.paged_mode()?;
                Op::PageNewArray {
                    dst: self.local(*dst, Page, "paged newarray")?,
                    len: self.local(*len, I32, "array length")?,
                    elem: elem_kind(elem),
                }
            }
            Instr::PageGetField {
                dst,
                obj,
                class,
                field,
            } => self.paged_field(
                (*obj, *field, *dst),
                *class,
                "paged getfield",
                [Op::PageGetFieldI32, Op::PageGetFieldI64],
            )?,
            Instr::PageSetField {
                obj,
                class,
                field,
                src,
            } => self.paged_field(
                (*obj, *field, *src),
                *class,
                "paged setfield",
                [Op::PageSetFieldI32, Op::PageSetFieldI64],
            )?,
            Instr::PageArrayGet {
                dst,
                arr,
                idx,
                elem,
            } => {
                self.paged_mode()?;
                let (want, make): (Kind, fn(R3) -> Op) = match elem {
                    Ty::I32 => (I32, Op::PageArrayGetI32),
                    Ty::I64 => (I64, Op::PageArrayGetI64),
                    Ty::F64 => (F64, Op::PageArrayGetI64),
                    _ => (Page, Op::PageArrayGetI32),
                };
                make(R3 {
                    dst: self.local(*dst, want, "paged arrayget")?,
                    a: self.local(*arr, Page, "paged arrayget")?,
                    b: self.local(*idx, I32, "array index")?,
                })
            }
            Instr::PageArraySet { arr, idx, src, .. } => {
                self.paged_mode()?;
                let r = R3 {
                    dst: src.0,
                    a: self.local(*arr, Page, "paged arrayset")?,
                    b: self.local(*idx, I32, "array index")?,
                };
                match self.kind(*src)? {
                    I32 | Page => Op::PageArraySetI32(r),
                    I64 | F64 => Op::PageArraySetI64(r),
                    other => return Err(format!("paged arrayset of {other:?}")),
                }
            }
            Instr::PageArrayLen { dst, arr } => {
                self.paged_mode()?;
                Op::PageArrayLen(R2 {
                    dst: self.local(*dst, I32, "array length")?,
                    src: self.local(*arr, Page, "paged arraylength")?,
                })
            }
            Instr::BindParam {
                dst,
                class,
                index,
                src,
            } => Op::BindParam {
                tid: self.type_id(*class)?,
                index: u16::try_from(*index).map_err(|_| "facade pool index out of range")?,
                dst: self.local(*dst, Facade, "facade binding")?,
                src: self.local(*src, Page, "facade binding")?,
            },
            Instr::Resolve { dst, src, .. } => {
                self.paged_mode()?;
                Op::Resolve(R2 {
                    dst: self.local(*dst, Facade, "resolve")?,
                    src: self.local(*src, Page, "resolve")?,
                })
            }
            Instr::ReleaseFacade { dst, facade } => {
                self.paged_mode()?;
                Op::ReleaseFacade(R2 {
                    dst: self.local(*dst, Page, "release")?,
                    src: self.local(*facade, Facade, "release of non-facade")?,
                })
            }
            Instr::PageInstanceOf { dst, src, class } => {
                self.paged_mode()?;
                let dst = self.local(*dst, I32, "instanceof result")?;
                match self.kind(*src)? {
                    Page => Op::PageInstanceOf {
                        dst,
                        src: src.0,
                        class: *class,
                    },
                    _ => Op::Const { dst, bits: 0 },
                }
            }
            Instr::PageMonitorEnter(l) => {
                self.paged_mode()?;
                Op::PageMonitorEnter(self.local(*l, Page, "paged monitorenter")?)
            }
            Instr::PageMonitorExit(l) => {
                self.paged_mode()?;
                Op::PageMonitorExit(self.local(*l, Page, "paged monitorexit")?)
            }
            Instr::ConvertToPage { dst, src, .. } => {
                self.paged_mode()?;
                Op::ConvertToPage(R2 {
                    dst: self.local(*dst, Page, "convertToPage")?,
                    src: self.local(*src, Obj, "convertToPage")?,
                })
            }
            Instr::ConvertToHeap { dst, src, .. } => {
                self.paged_mode()?;
                Op::ConvertToHeap(R2 {
                    dst: self.local(*dst, Obj, "convertToHeap")?,
                    src: self.local(*src, Page, "convertToHeap")?,
                })
            }
        })
    }

    fn call(
        &mut self,
        dst: Option<Local>,
        target: CallTarget,
        args: &[Local],
    ) -> Result<Op, String> {
        let dst_kind = dst.map(|d| self.kind(d)).transpose()?;
        let dst = dst.map_or(NO_LOCAL, |d| d.0);
        let start = self.call_args(args)?;
        match target {
            CallTarget::Static(callee) | CallTarget::Special(callee) => {
                let (body, slots) = callable(self.program, callee)?;
                let params: Vec<Kind> = body.locals[..slots].iter().map(Kind::of).collect();
                let ret = self.program.method(callee).ret.as_ref().map(Kind::of);
                let arg_kinds = args.iter().map(|a| self.kinds[a.0 as usize]);
                check_call(arg_kinds, dst_kind, &params, ret)?;
                Ok(Op::Call {
                    dst,
                    callee,
                    args: start,
                })
            }
            CallTarget::Virtual(declared) => {
                let def = self.program.method(declared);
                if args.len() != def.param_slot_count() {
                    return Err(format!(
                        "virtual call passes {} arguments to {} parameter slots",
                        args.len(),
                        def.param_slot_count()
                    ));
                }
                match args.first().map(|a| self.kinds[a.0 as usize]) {
                    Some(Kind::Obj | Kind::Facade) => {}
                    Some(other) => return Err(format!("virtual dispatch on {other:?}")),
                    None => return Err("virtual call without receiver".into()),
                }
                Ok(Op::CallVirtual {
                    dst,
                    declared,
                    args: start,
                })
            }
        }
    }
}

/// Decodes `method` for a VM with the given tables and heaps, resolving
/// field offsets in their layouts; the paged instruction forms are
/// executable only with a `paged` heap.
///
/// # Errors
///
/// [`VmError::IllegalInstruction`] when the method cannot be entered at all
/// (no body, no blocks, fewer locals than parameters). Individual
/// instructions the decoder refuses become [`Op::Illegal`] instead.
pub(crate) fn decode_method(
    program: &Program,
    tables: &Tables,
    heap: &Heap,
    paged: Option<&PagedHeap>,
    method: MethodId,
) -> Result<DecodedMethod, VmError> {
    let (body, param_slots) = callable(program, method).map_err(VmError::IllegalInstruction)?;
    let kinds: Vec<Kind> = body.locals.iter().map(Kind::of).collect();
    let ret = program.method(method).ret.as_ref().map(Kind::of);

    let mut obj_locals = Vec::new();
    let mut root_of = vec![0u32; kinds.len()];
    for (l, kind) in kinds.iter().enumerate() {
        if *kind == Kind::Obj {
            root_of[l] = obj_locals.len() as u32;
            obj_locals.push(l as u32);
        }
    }

    // Block b starts at block_pc[b]: its instructions, then its terminator.
    let mut block_pc = Vec::with_capacity(body.blocks.len());
    let mut pc = 0u32;
    for block in &body.blocks {
        block_pc.push(pc);
        pc += block.instrs.len() as u32 + 1;
    }

    let mut decoder = Decoder {
        program,
        tables,
        heap,
        paged,
        locals: &body.locals,
        kinds: &kinds,
        args: Vec::new(),
    };
    let mut code = Vec::with_capacity(pc as usize);
    let mut msgs = Vec::new();
    let mut illegal = |msg: String| {
        msgs.push(msg);
        Op::Illegal(msgs.len() as u32 - 1)
    };
    let target = |bb: facade_ir::BlockId| {
        block_pc
            .get(bb.0 as usize)
            .copied()
            .ok_or_else(|| format!("jump target bb{} out of range", bb.0))
    };
    for block in &body.blocks {
        for instr in &block.instrs {
            let op = decoder.instr(instr).unwrap_or_else(&mut illegal);
            code.push(op);
        }
        let term = match &block.term {
            None => Err("missing terminator".to_string()),
            Some(Terminator::Jump(bb)) => target(*bb).map(Op::Jump),
            Some(Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            }) => decoder
                .local(*cond, Kind::I32, "branch condition")
                .and_then(|cond| {
                    Ok(Op::Branch {
                        cond,
                        then_pc: target(*then_bb)?,
                        else_pc: target(*else_bb)?,
                    })
                }),
            Some(Terminator::Return(None)) if ret.is_none() => Ok(Op::RetVoid),
            Some(Terminator::Return(None)) => Err("missing return value".to_string()),
            Some(Terminator::Return(Some(l))) => match ret {
                Some(kind) => decoder.local(*l, kind, "return").map(Op::Ret),
                None => Err("return value in void method".to_string()),
            },
        };
        let term = term.unwrap_or_else(&mut illegal);
        if !block.instrs.is_empty() {
            let last = code
                .last_mut()
                .expect("the block's instructions are pushed");
            if let Some(fused) = last.fused_with(term) {
                *last = fused;
            }
        }
        code.push(term);
    }

    let mut charge = vec![0u32; code.len()];
    let mut ahead = 0;
    for (pc, op) in code.iter().enumerate().rev() {
        ahead = match op {
            op if op.is_terminator() => 0,
            Op::Call { .. } | Op::CallVirtual { .. } => 1,
            _ => ahead + 1,
        };
        charge[pc] = ahead;
    }

    let args = decoder.args;
    Ok(DecodedMethod {
        code,
        charge,
        args,
        msgs,
        kinds,
        param_slots,
        ret,
        obj_locals,
        root_of,
    })
}
