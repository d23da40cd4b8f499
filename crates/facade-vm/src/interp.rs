//! The interpreter proper.

use crate::decode::{DecodedMethod, Kind, NO_LOCAL, Op, Tables, check_call, decode_method};
use crate::error::VmError;
use crate::value::{FacadeSlot, Value};
use facade_compiler::PagedMeta;
use facade_ir::{ClassId, MethodId, Program};
use facade_runtime::{FacadePools, IterationId, PageRef, PagedHeap, TypeId as PTypeId};
use managed_heap::{Heap, HeapConfig, ObjRef, RootId, elem, elem_count, set_elem};

/// Frames a run may have active at once; the call that would exceed it
/// fails with [`VmError::CallDepthExceeded`]. Frames live on an explicit
/// stack, so this bounds memory, not the host stack.
pub(crate) const MAX_CALL_DEPTH: usize = 1 << 16;

/// Configuration for a [`Vm`].
#[derive(Debug, Clone)]
pub struct VmConfig {
    /// Managed-heap sizing (used in both modes; `P'` still allocates its
    /// control objects here).
    pub heap: HeapConfig,
    /// Optional instruction budget; exceeded = [`VmError::StepBudgetExceeded`].
    pub step_budget: Option<u64>,
}

impl Default for VmConfig {
    fn default() -> Self {
        Self {
            heap: HeapConfig::with_capacity(64 << 20),
            step_budget: Some(500_000_000),
        }
    }
}

/// Interpreter-side execution counters, separate from the heaps' own
/// allocation statistics.
///
/// Today these track the `fastalloc` optimization pass: how often the
/// bump-pointer hint on [`facade_ir::Instr::PageAllocFast`] paid off (`fast_alloc_hits`)
/// versus fell back to the general allocator (`fast_alloc_misses`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// `PageAllocFast` sites satisfied by the open page's bump pointer.
    pub fast_alloc_hits: u64,
    /// `PageAllocFast` sites that fell back to the general allocator.
    pub fast_alloc_misses: u64,
}

/// The interpreter. See the [crate docs](crate) for an end-to-end example.
#[derive(Debug)]
pub struct Vm<'p> {
    pub(crate) program: &'p Program,
    meta: Option<&'p PagedMeta>,
    pub(crate) heap: Heap,
    pub(crate) paged: PagedHeap,
    pools: Option<FacadePools>,
    pub(crate) tables: Tables,
    iteration_stack: Vec<IterationId>,
    output: Vec<String>,
    exec_stats: ExecStats,
    config: VmConfig,
    exec: Exec,
}

/// What a run executes on: the decoded methods and the explicit stacks.
/// Taken out of the [`Vm`] for the duration of a call so the dispatch loop
/// can hold the running method's code while it mutates the heaps.
#[derive(Debug, Default)]
struct Exec {
    /// Indexed by `MethodId`; filled on a method's first call.
    decoded: Vec<Option<DecodedMethod>>,
    stacks: Stacks,
    steps: u64,
}

#[derive(Debug, Default)]
struct Stacks {
    /// Every active frame's locals, back to back; one untyped 64-bit slot
    /// per local, read according to the local's [`Kind`].
    slots: Vec<u64>,
    frames: Vec<Frame>,
    /// One root per `Obj` local of every active frame, back to back.
    roots: Vec<RootId>,
}

#[derive(Debug, Clone, Copy)]
struct Frame {
    method: MethodId,
    /// Where to resume when the frame's current call returns.
    pc: usize,
    /// Start of the frame's locals in `slots`.
    fp: usize,
    /// Start of the frame's roots in `roots`.
    rp: usize,
    /// The caller's local the result goes to, or [`NO_LOCAL`].
    ret_dst: u32,
}

impl Stacks {
    /// Pushes a frame for `callee`: zeroed locals (zero is every kind's
    /// default), arguments copied from the caller's `arg_locals`, and one GC
    /// root per `Obj` local. Returns the frame's `(fp, rp)`.
    fn push_frame(
        &mut self,
        heap: &mut Heap,
        method: MethodId,
        callee: &DecodedMethod,
        caller_fp: usize,
        arg_locals: &[u32],
        ret_dst: u32,
    ) -> (usize, usize) {
        let (fp, rp) = (self.slots.len(), self.roots.len());
        self.slots.resize(fp + callee.kinds.len(), 0);
        for (i, &arg) in arg_locals.iter().enumerate() {
            self.slots[fp + i] = self.slots[caller_fp + arg as usize];
        }
        for &l in &callee.obj_locals {
            let held = as_obj(self.slots[fp + l as usize]);
            self.roots.push(heap.add_root(held));
        }
        self.frames.push(Frame {
            method,
            pc: 0,
            fp,
            rp,
            ret_dst,
        });
        (fp, rp)
    }
}

// ----- slot encodings: a local's 64 bits, by kind ----------------------------

#[inline]
fn as_i32(bits: u64) -> i32 {
    bits as u32 as i32
}
#[inline]
fn from_i32(v: i32) -> u64 {
    u64::from(v as u32)
}
#[inline]
fn as_i64(bits: u64) -> i64 {
    bits as i64
}
#[inline]
fn from_i64(v: i64) -> u64 {
    v as u64
}
#[inline]
fn from_bool(v: bool) -> u64 {
    u64::from(v)
}
#[inline]
fn as_obj(bits: u64) -> ObjRef {
    ObjRef::from_raw(bits as u32)
}
#[inline]
fn from_obj(r: ObjRef) -> u64 {
    u64::from(r.raw())
}

const FACADE_RECEIVER: u64 = 1 << 32;
const FACADE_PARAM: u64 = 2 << 32;

/// A bound facade slot as bits: tag above bit 32, pool index in bits 16..32,
/// type id in the low 16. Zero stays "unbound".
fn from_facade(slot: FacadeSlot) -> u64 {
    match slot {
        FacadeSlot::Receiver { type_id } => FACADE_RECEIVER | u64::from(type_id),
        FacadeSlot::Param { type_id, index } => {
            FACADE_PARAM | u64::from(index) << 16 | u64::from(type_id)
        }
    }
}

fn as_facade(bits: u64) -> Option<FacadeSlot> {
    let type_id = bits as u16;
    match bits & !0xFFFF_FFFF {
        FACADE_RECEIVER => Some(FacadeSlot::Receiver { type_id }),
        FACADE_PARAM => Some(FacadeSlot::Param {
            type_id,
            index: (bits >> 16) as u16,
        }),
        _ => None,
    }
}

fn value_bits(v: Value) -> (Kind, u64) {
    match v {
        Value::I32(x) => (Kind::I32, from_i32(x)),
        Value::I64(x) => (Kind::I64, from_i64(x)),
        Value::F64(x) => (Kind::F64, x.to_bits()),
        Value::Obj(r) => (Kind::Obj, from_obj(r)),
        Value::Page(r) => (Kind::Page, r.raw()),
        Value::Facade(slot) => (Kind::Facade, from_facade(slot)),
    }
}

fn value_of(kind: Kind, bits: u64) -> Value {
    match kind {
        Kind::I32 => Value::I32(as_i32(bits)),
        Kind::I64 => Value::I64(as_i64(bits)),
        Kind::F64 => Value::F64(f64::from_bits(bits)),
        Kind::Obj => Value::Obj(as_obj(bits)),
        Kind::Page => Value::Page(PageRef::from_raw(bits)),
        // An unbound facade local reads as the null page reference.
        Kind::Facade => as_facade(bits).map_or(Value::Page(PageRef::NULL), Value::Facade),
    }
}

#[cold]
fn illegal(what: impl Into<String>) -> VmError {
    VmError::IllegalInstruction(what.into())
}

#[cold]
#[inline(never)]
fn null(what: &str) -> VmError {
    VmError::NullDeref(what.into())
}

#[cold]
#[inline(never)]
fn null_field(what: &str, at: u32) -> VmError {
    VmError::NullDeref(format!("{what} at offset {at}"))
}

/// An `i32` local as an index into the array whose body is `body`. A
/// negative index wraps past any length, so one compare rejects both ends.
#[inline]
fn index(body: &[u8], bits: u64) -> Result<usize, VmError> {
    let (index, len) = (as_i32(bits), elem_count(body));
    if (index as u32 as usize) < len {
        Ok(index as usize)
    } else {
        Err(VmError::ArrayIndexOutOfBounds { index, len })
    }
}

/// An `i32` local as the length of a new array.
#[inline]
fn new_array_len(bits: u64) -> Result<usize, VmError> {
    let len = as_i32(bits);
    usize::try_from(len).map_err(|_| VmError::NegativeArrayLength(len))
}

/// Why [`Vm::run_frame`] stopped running a frame.
enum Exit {
    /// A `Call` or `CallVirtual` op, the last of its segment.
    Call(Op),
    /// The frame returned: its result's bits, unless it is void.
    Return(Option<u64>),
    /// An op failed; the rest of its segment was not run.
    Fail(VmError),
    /// The op at the pc is the step that exceeds the budget.
    Budget,
}

impl<'p> Vm<'p> {
    /// Creates a heap-mode VM (runs the original program `P`).
    pub fn new_heap(program: &'p Program) -> Self {
        Self::with_config(program, None, VmConfig::default())
    }

    /// Creates a paged-mode VM (runs the transformed program `P'`).
    pub fn new_paged(program: &'p Program, meta: &'p PagedMeta) -> Self {
        Self::with_config(program, Some(meta), VmConfig::default())
    }

    /// Creates a VM with explicit sizing; pass `meta` for paged mode.
    pub fn with_config(
        program: &'p Program,
        meta: Option<&'p PagedMeta>,
        config: VmConfig,
    ) -> Self {
        let mut heap = Heap::new(config.heap.clone());
        let tables = Tables::new(program, meta, &mut heap);
        let mut paged = PagedHeap::new();
        let mut pools = None;
        if let Some(meta) = meta {
            for &class in &meta.data_classes {
                let tid = meta.type_id(class);
                let layout = meta.layout(tid);
                let got = paged.register_type(layout.name(), layout.fields());
                assert_eq!(got.0, tid, "type-id registration order mismatch");
            }
            pools = Some(FacadePools::new(&meta.bounds));
        }
        Self {
            program,
            meta,
            heap,
            paged,
            pools,
            tables,
            iteration_stack: Vec::new(),
            output: Vec::new(),
            exec_stats: ExecStats::default(),
            config,
            exec: Exec::default(),
        }
    }

    /// Runs the program entry point.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::NoEntry`] for entry-less programs, or any runtime
    /// failure.
    pub fn run(&mut self) -> Result<Option<Value>, VmError> {
        let entry = self.program.entry().ok_or(VmError::NoEntry)?;
        self.call(entry, vec![])
    }

    /// The lines printed by `Print` instructions so far.
    pub fn output(&self) -> &[String] {
        &self.output
    }

    /// The managed heap (both modes).
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// The paged heap (paged mode).
    pub fn paged(&self) -> &PagedHeap {
        &self.paged
    }

    /// The facade pools (paged mode).
    pub fn pools(&self) -> Option<&FacadePools> {
        self.pools.as_ref()
    }

    /// Instructions executed so far: one per IR instruction reached,
    /// terminators excluded.
    ///
    /// The interpreter charges a straight-line run of instructions when it
    /// enters it, yet the count reads as if taken one instruction at a
    /// time: a run that fails part-way gives back what it did not reach, and
    /// the step budget stops a run on the instruction that exceeds it,
    /// counted (`budget + 1` the first time).
    pub fn steps(&self) -> u64 {
        self.exec.steps
    }

    /// Interpreter-side execution counters (fast-path allocation hits and
    /// misses).
    pub fn exec_stats(&self) -> ExecStats {
        self.exec_stats
    }

    /// A facade of the pools, for ops the decoder admits in paged mode only.
    fn facade(&mut self, slot: FacadeSlot) -> &mut facade_runtime::Facade {
        let pools = self.pools.as_mut().expect("facade ops run in paged mode");
        match slot {
            FacadeSlot::Receiver { type_id } => pools.receiver(PTypeId(type_id)),
            FacadeSlot::Param { type_id, index } => pools.param(PTypeId(type_id), index as usize),
        }
    }

    /// Invokes `method` with `args` and returns its result.
    ///
    /// # Errors
    ///
    /// Any runtime failure ([`VmError`]), including
    /// [`VmError::IllegalInstruction`] when `method` has no body or `args`
    /// do not fit its parameters.
    pub fn call(&mut self, method: MethodId, args: Vec<Value>) -> Result<Option<Value>, VmError> {
        let mut ex = std::mem::take(&mut self.exec);
        if ex.decoded.is_empty() {
            ex.decoded.resize_with(self.program.method_count(), || None);
        }
        let result = self.interpret(&mut ex, method, &args);
        // A failed run leaves its frames behind; a finished one left none.
        for root in ex.stacks.roots.drain(..) {
            self.heap.remove_root(root);
        }
        ex.stacks.frames.clear();
        ex.stacks.slots.clear();
        self.exec = ex;
        result
    }

    /// Runs `entry` and everything it calls on the explicit frame stack
    /// until the entry frame returns. This outer loop owns the stacks: it
    /// hands the top frame to [`Vm::run_frame`] and acts on the [`Exit`]
    /// that ends it, so only calls, returns and failures come back here.
    fn interpret(
        &mut self,
        ex: &mut Exec,
        entry: MethodId,
        entry_args: &[Value],
    ) -> Result<Option<Value>, VmError> {
        let Exec {
            decoded,
            stacks: st,
            steps,
        } = ex;
        let program = self.program;
        let budget = self.config.step_budget.unwrap_or(u64::MAX);

        // The entry arguments sit below the entry frame like a caller's
        // locals, so entering is an ordinary call from slot 0.
        let (arg_kinds, arg_bits): (Vec<Kind>, Vec<u64>) =
            entry_args.iter().map(|&v| value_bits(v)).unzip();
        st.slots.extend(arg_bits);
        let arg_locals: Vec<u32> = (0..entry_args.len() as u32).collect();

        let slot = &mut decoded[entry.0 as usize];
        if slot.is_none() {
            *slot = Some(self.decode(entry)?);
        }
        let mut cur = decoded[entry.0 as usize].as_ref().expect("decoded above");
        check_call(arg_kinds.into_iter(), None, cur.params(), cur.ret).map_err(illegal)?;
        let (mut fp, mut rp) = st.push_frame(&mut self.heap, entry, cur, 0, &arg_locals, NO_LOCAL);
        let mut pc = 0usize;

        loop {
            // The running frame is the top one: its locals are the tail of
            // `slots`, its roots the tail of `roots`.
            let exit;
            (exit, pc) =
                self.run_frame(cur, &mut st.slots[fp..], &st.roots[rp..], pc, steps, budget);
            match exit {
                Exit::Call(op) => {
                    // `virtual_argc` is set for a virtual call: its callee,
                    // and so the callee's signature, is only known now. A
                    // call ends its segment, so its errors give nothing back.
                    let (dst, callee_id, args, virtual_argc) = match op {
                        Op::Call { dst, callee, args } => (dst, callee, args, None),
                        Op::CallVirtual {
                            dst,
                            declared,
                            args,
                        } => {
                            let recv = cur.args[args as usize];
                            let bits = st.slots[fp + recv as usize];
                            let class = self.receiver_class(cur.kinds[recv as usize], bits)?;
                            let callee = self.implementation(class, declared)?;
                            let argc = program.method(declared).param_slot_count();
                            (dst, callee, args, Some(argc))
                        }
                        _ => unreachable!("only a call op exits to a call"),
                    };
                    if st.frames.len() >= MAX_CALL_DEPTH {
                        return Err(VmError::CallDepthExceeded);
                    }
                    let caller_id = st.frames.last().expect("a frame is running").method;
                    // From here on `cur` is dead until reassigned: a first
                    // call writes the decoded-method table.
                    let slot = &mut decoded[callee_id.0 as usize];
                    if slot.is_none() {
                        *slot = Some(self.decode(callee_id)?);
                    }
                    let caller = decoded[caller_id.0 as usize]
                        .as_ref()
                        .expect("an active frame's method is decoded");
                    let callee = decoded[callee_id.0 as usize]
                        .as_ref()
                        .expect("decoded above");
                    // A static call site was checked against its callee when
                    // it was decoded.
                    let argc = virtual_argc.unwrap_or(callee.params().len());
                    let arg_locals = &caller.args[args as usize..][..argc];
                    if virtual_argc.is_some() {
                        let arg_kinds = arg_locals.iter().map(|&a| caller.kinds[a as usize]);
                        let dst_kind = (dst != NO_LOCAL).then(|| caller.kinds[dst as usize]);
                        check_call(arg_kinds, dst_kind, callee.params(), callee.ret)
                            .map_err(illegal)?;
                    }
                    st.frames.last_mut().expect("a frame is running").pc = pc;
                    (fp, rp) =
                        st.push_frame(&mut self.heap, callee_id, callee, fp, arg_locals, dst);
                    cur = callee;
                    pc = 0;
                }
                Exit::Return(value) => {
                    let ret_kind = cur.ret;
                    let done = st.frames.pop().expect("a frame is running");
                    for root in st.roots.drain(done.rp..) {
                        self.heap.remove_root(root);
                    }
                    st.slots.truncate(done.fp);
                    let Some(caller) = st.frames.last() else {
                        return Ok(value.zip(ret_kind).map(|(bits, kind)| value_of(kind, bits)));
                    };
                    cur = decoded[caller.method.0 as usize]
                        .as_ref()
                        .expect("an active frame's method is decoded");
                    (pc, fp, rp) = (caller.pc, caller.fp, caller.rp);
                    match (done.ret_dst, value) {
                        (NO_LOCAL, Some(bits)) => {
                            // A discarded data-typed return: release the
                            // facade the callee bound at its return site so
                            // the pool slot is immediately reusable.
                            if let Some(slot) =
                                as_facade(bits).filter(|_| ret_kind == Some(Kind::Facade))
                            {
                                let _ = self.facade(slot).release();
                            }
                        }
                        (dst, Some(bits)) => {
                            st.slots[fp + dst as usize] = bits;
                            if cur.kinds[dst as usize] == Kind::Obj {
                                let root = st.roots[rp + cur.root_of[dst as usize] as usize];
                                self.heap.set_root(root, as_obj(bits));
                            }
                        }
                        (_, None) => {}
                    }
                }
                // The failed op was charged with the rest of its segment:
                // give back the ops it did not reach.
                Exit::Fail(failure) => {
                    *steps -= u64::from(cur.charge.get(pc).copied().unwrap_or(0));
                    return Err(failure);
                }
                // The op not run is the step that exceeds; the ones after it
                // are given back.
                Exit::Budget => {
                    *steps -= u64::from(cur.charge[pc]) - 1;
                    return Err(VmError::StepBudgetExceeded);
                }
            }
        }
    }

    /// The dispatch loop of one frame activation: runs `cur` from `pc`, a
    /// segment start, over its locals `frame` and GC `roots` until it calls,
    /// returns or fails. Returns why, and the pc past the call or failed op
    /// (at the op the budget cut off). Its own function, with rare ops called
    /// out of line, so `pc`, the code slice and the frame stay in registers.
    #[inline(never)]
    #[allow(clippy::too_many_lines)]
    fn run_frame(
        &mut self,
        cur: &DecodedMethod,
        frame: &mut [u64],
        roots: &[RootId],
        mut pc: usize,
        steps: &mut u64,
        budget: u64,
    ) -> (Exit, usize) {
        let mut code: &[Op] = &cur.code;
        let charge: &[u32] = &cur.charge;
        let mut spent = *steps;

        // Steps are charged a straight-line segment at a time, where one
        // starts: method entry, a jump or branch target, a call's return
        // point. A segment that would pass the budget runs on `code` cut at
        // the op that exceeds, so fetching that op is the trap, on the step
        // a per-op count would stop at.
        macro_rules! enter {
            () => {{
                let c = u64::from(charge[pc]);
                spent += c;
                if spent > budget {
                    let allowed = budget.saturating_sub(spent - c);
                    code = &cur.code[..pc + allowed as usize];
                }
            }};
        }
        enter!();

        macro_rules! get {
            ($l:expr) => {
                frame[$l as usize]
            };
        }
        macro_rules! set {
            ($l:expr, $bits:expr) => {
                frame[$l as usize] = $bits
            };
        }
        // `dst = f(a, b)` over two locals of one kind.
        macro_rules! bin {
            ($r:expr, $get:expr, $put:expr, |$x:ident, $y:ident| $e:expr) => {{
                let ($x, $y) = ($get(get!($r.a)), $get(get!($r.b)));
                set!($r.dst, $put($e));
            }};
        }
        // A heap reference into an `Obj` local: the slot and its GC root.
        macro_rules! set_obj {
            ($l:expr, $r:expr) => {{
                let r: ObjRef = $r;
                set!($l, from_obj(r));
                self.heap
                    .set_root(roots[cur.root_of[$l as usize] as usize], r);
            }};
        }
        // An op that fails breaks out of the loop with its error, and the
        // ops after it in its segment are given back (`try_op!` is `?` for
        // that).
        macro_rules! try_op {
            ($e:expr) => {
                match $e {
                    Ok(v) => v,
                    Err(e) => break Exit::Fail(VmError::from(e)),
                }
            };
        }
        // A non-null heap / page reference out of a local; `$null` is the
        // error otherwise.
        macro_rules! nonnull {
            ($r:expr, $null:expr) => {{
                let r = $r;
                if r.is_null() {
                    break Exit::Fail($null);
                }
                r
            }};
        }
        macro_rules! obj {
            ($l:expr, $null:expr) => {
                nonnull!(as_obj(get!($l)), $null)
            };
        }
        macro_rules! page {
            ($l:expr, $null:expr) => {
                nonnull!(PageRef::from_raw(get!($l)), $null)
            };
        }
        macro_rules! nonzero {
            ($y:expr) => {
                if $y == 0 {
                    break Exit::Fail(VmError::DivisionByZero);
                }
            };
        }
        // A fused `i32` comparison and branch.
        macro_rules! cmp_branch {
            ($c:expr, |$x:ident, $y:ident| $e:expr) => {{
                let ($x, $y) = (as_i32(get!($c.a)), as_i32(get!($c.b)));
                let holds = $e;
                set!($c.dst, from_bool(holds));
                pc = usize::from(if holds { $c.then_pc } else { $c.else_pc });
                enter!();
            }};
        }
        let f64_of = f64::from_bits;
        let of_f64 = f64::to_bits;

        let exit = loop {
            // Only a segment cut at the budget ends before its last op.
            let Some(op) = code.get(pc) else {
                break Exit::Budget;
            };
            pc += 1;
            match *op {
                Op::Jump(target) => {
                    pc = target as usize;
                    enter!();
                }
                Op::Branch {
                    cond,
                    then_pc,
                    else_pc,
                } => {
                    pc = if as_i32(get!(cond)) != 0 {
                        then_pc
                    } else {
                        else_pc
                    } as usize;
                    enter!();
                }
                Op::BranchEqI32(c) => cmp_branch!(c, |x, y| x == y),
                Op::BranchNeI32(c) => cmp_branch!(c, |x, y| x != y),
                Op::BranchLtI32(c) => cmp_branch!(c, |x, y| x < y),
                Op::BranchLeI32(c) => cmp_branch!(c, |x, y| x <= y),
                Op::BranchGtI32(c) => cmp_branch!(c, |x, y| x > y),
                Op::BranchGeI32(c) => cmp_branch!(c, |x, y| x >= y),
                Op::Ret(l) => break Exit::Return(Some(get!(l))),
                Op::RetVoid => break Exit::Return(None),
                Op::Call { .. } | Op::CallVirtual { .. } => break Exit::Call(*op),
                Op::Illegal(msg) => break Exit::Fail(illegal(cur.msgs[msg as usize].clone())),
                Op::Nop => {}
                Op::Const { dst, bits } => set!(dst, bits),
                Op::NullObj(dst) => set_obj!(dst, ObjRef::NULL),
                Op::Move(r) => set!(r.dst, get!(r.src)),
                Op::MoveObj(r) => set_obj!(r.dst, as_obj(get!(r.src))),

                Op::AddI32(r) => bin!(r, as_i32, from_i32, |x, y| x.wrapping_add(y)),
                Op::SubI32(r) => bin!(r, as_i32, from_i32, |x, y| x.wrapping_sub(y)),
                Op::MulI32(r) => bin!(r, as_i32, from_i32, |x, y| x.wrapping_mul(y)),
                Op::DivI32(r) => bin!(r, as_i32, from_i32, |x, y| {
                    nonzero!(y);
                    x.wrapping_div(y)
                }),
                Op::RemI32(r) => bin!(r, as_i32, from_i32, |x, y| {
                    nonzero!(y);
                    x.wrapping_rem(y)
                }),
                Op::AndI32(r) => bin!(r, as_i32, from_i32, |x, y| x & y),
                Op::OrI32(r) => bin!(r, as_i32, from_i32, |x, y| x | y),
                Op::XorI32(r) => bin!(r, as_i32, from_i32, |x, y| x ^ y),
                Op::ShlI32(r) => bin!(r, as_i32, from_i32, |x, y| x.wrapping_shl(y as u32)),
                Op::ShrI32(r) => bin!(r, as_i32, from_i32, |x, y| x.wrapping_shr(y as u32)),
                Op::AddI64(r) => bin!(r, as_i64, from_i64, |x, y| x.wrapping_add(y)),
                Op::SubI64(r) => bin!(r, as_i64, from_i64, |x, y| x.wrapping_sub(y)),
                Op::MulI64(r) => bin!(r, as_i64, from_i64, |x, y| x.wrapping_mul(y)),
                Op::DivI64(r) => bin!(r, as_i64, from_i64, |x, y| {
                    nonzero!(y);
                    x.wrapping_div(y)
                }),
                Op::RemI64(r) => bin!(r, as_i64, from_i64, |x, y| {
                    nonzero!(y);
                    x.wrapping_rem(y)
                }),
                Op::AndI64(r) => bin!(r, as_i64, from_i64, |x, y| x & y),
                Op::OrI64(r) => bin!(r, as_i64, from_i64, |x, y| x | y),
                Op::XorI64(r) => bin!(r, as_i64, from_i64, |x, y| x ^ y),
                Op::ShlI64(r) => bin!(r, as_i64, from_i64, |x, y| x.wrapping_shl(y as u32)),
                Op::ShrI64(r) => bin!(r, as_i64, from_i64, |x, y| x.wrapping_shr(y as u32)),
                Op::AddF64(r) => bin!(r, f64_of, of_f64, |x, y| x + y),
                Op::SubF64(r) => bin!(r, f64_of, of_f64, |x, y| x - y),
                Op::MulF64(r) => bin!(r, f64_of, of_f64, |x, y| x * y),
                Op::DivF64(r) => bin!(r, f64_of, of_f64, |x, y| x / y),
                Op::RemF64(r) => bin!(r, f64_of, of_f64, |x, y| x % y),

                Op::EqI32(r) => bin!(r, as_i32, from_bool, |x, y| x == y),
                Op::NeI32(r) => bin!(r, as_i32, from_bool, |x, y| x != y),
                Op::LtI32(r) => bin!(r, as_i32, from_bool, |x, y| x < y),
                Op::LeI32(r) => bin!(r, as_i32, from_bool, |x, y| x <= y),
                Op::GtI32(r) => bin!(r, as_i32, from_bool, |x, y| x > y),
                Op::GeI32(r) => bin!(r, as_i32, from_bool, |x, y| x >= y),
                Op::EqI64(r) => bin!(r, as_i64, from_bool, |x, y| x == y),
                Op::NeI64(r) => bin!(r, as_i64, from_bool, |x, y| x != y),
                Op::LtI64(r) => bin!(r, as_i64, from_bool, |x, y| x < y),
                Op::LeI64(r) => bin!(r, as_i64, from_bool, |x, y| x <= y),
                Op::GtI64(r) => bin!(r, as_i64, from_bool, |x, y| x > y),
                Op::GeI64(r) => bin!(r, as_i64, from_bool, |x, y| x >= y),
                Op::EqF64(r) => bin!(r, f64_of, from_bool, |x, y| x == y),
                Op::NeF64(r) => bin!(r, f64_of, from_bool, |x, y| x != y),
                Op::LtF64(r) => bin!(r, f64_of, from_bool, |x, y| x < y),
                Op::LeF64(r) => bin!(r, f64_of, from_bool, |x, y| x <= y),
                Op::GtF64(r) => bin!(r, f64_of, from_bool, |x, y| x > y),
                Op::GeF64(r) => bin!(r, f64_of, from_bool, |x, y| x >= y),
                Op::EqRef(r) => bin!(r, std::convert::identity, from_bool, |x, y| x == y),
                Op::NeRef(r) => bin!(r, std::convert::identity, from_bool, |x, y| x != y),

                Op::I64ToI32(r) => set!(r.dst, from_i32(as_i64(get!(r.src)) as i32)),
                Op::F64ToI32(r) => set!(r.dst, from_i32(f64_of(get!(r.src)) as i32)),
                Op::I32ToI64(r) => set!(r.dst, from_i64(i64::from(as_i32(get!(r.src))))),
                Op::F64ToI64(r) => set!(r.dst, from_i64(f64_of(get!(r.src)) as i64)),
                Op::I32ToF64(r) => set!(r.dst, of_f64(f64::from(as_i32(get!(r.src))))),
                Op::I64ToF64(r) => set!(r.dst, of_f64(as_i64(get!(r.src)) as f64)),

                Op::New { dst, class } => set_obj!(dst, try_op!(self.heap.alloc(class))),
                Op::NewArray { dst, len, elem } => {
                    let n = try_op!(new_array_len(get!(len)));
                    set_obj!(dst, try_op!(self.heap.alloc_array(elem, n)));
                }
                Op::GetFieldI32(f) => {
                    let o = obj!(f.obj, null_field("getfield", f.at));
                    let v = i32::from_le_bytes(self.heap.read_body(o, f.at));
                    set!(f.val, from_i32(v));
                }
                Op::GetFieldI64(f) => {
                    let o = obj!(f.obj, null_field("getfield", f.at));
                    let v = i64::from_le_bytes(self.heap.read_body(o, f.at));
                    set!(f.val, from_i64(v));
                }
                Op::GetFieldRef(f) => {
                    let o = obj!(f.obj, null_field("getfield", f.at));
                    let raw = u32::from_le_bytes(self.heap.read_body(o, f.at));
                    set_obj!(f.val, ObjRef::from_raw(raw));
                }
                Op::SetFieldI32(f) => {
                    let o = obj!(f.obj, null_field("setfield", f.at));
                    self.heap
                        .write_body(o, f.at, as_i32(get!(f.val)).to_le_bytes());
                }
                Op::SetFieldI64(f) => {
                    let o = obj!(f.obj, null_field("setfield", f.at));
                    self.heap
                        .write_body(o, f.at, as_i64(get!(f.val)).to_le_bytes());
                }
                Op::SetFieldRef(f) => {
                    let o = obj!(f.obj, null_field("setfield", f.at));
                    self.heap.write_ref(o, f.at, as_obj(get!(f.val)));
                }
                Op::ArrayGetI32(r) => {
                    let body = self.heap.body(obj!(r.a, null("arrayget")));
                    let i = try_op!(index(body, get!(r.b)));
                    set!(r.dst, from_i32(i32::from_le_bytes(elem(body, i))));
                }
                Op::ArrayGetI64(r) => {
                    let body = self.heap.body(obj!(r.a, null("arrayget")));
                    let i = try_op!(index(body, get!(r.b)));
                    set!(r.dst, from_i64(i64::from_le_bytes(elem(body, i))));
                }
                Op::ArrayGetRef(r) => {
                    let body = self.heap.body(obj!(r.a, null("arrayget")));
                    let i = try_op!(index(body, get!(r.b)));
                    set_obj!(r.dst, ObjRef::from_raw(u32::from_le_bytes(elem(body, i))));
                }
                Op::ArraySetI32(r) => {
                    let body = self.heap.body_mut(obj!(r.a, null("arrayset")));
                    let i = try_op!(index(body, get!(r.b)));
                    set_elem(body, i, as_i32(get!(r.dst)).to_le_bytes());
                }
                Op::ArraySetI64(r) => {
                    let body = self.heap.body_mut(obj!(r.a, null("arrayset")));
                    let i = try_op!(index(body, get!(r.b)));
                    set_elem(body, i, as_i64(get!(r.dst)).to_le_bytes());
                }
                Op::ArraySetRef(r) => {
                    let a = obj!(r.a, null("arrayset"));
                    let i = try_op!(index(self.heap.body(a), get!(r.b)));
                    self.heap.array_set_ref(a, i, as_obj(get!(r.dst)));
                }
                Op::ArrayLen(r) => {
                    let a = obj!(r.src, null("arraylength"));
                    set!(r.dst, from_i32(self.heap.array_len(a) as i32));
                }
                Op::InstanceOf { dst, src, class } => {
                    set!(dst, from_bool(self.instance_of(as_obj(get!(src)), class)));
                }
                // The interpreter is single-threaded: a heap monitor never
                // blocks, so only the null check is observable.
                Op::MonitorEnter(l) => {
                    obj!(l, null("monitorenter"));
                }
                Op::Print { src, kind } => self.print(kind, get!(src)),

                Op::IterationStart => {
                    let it = self.paged.iteration_start();
                    self.iteration_stack.push(it);
                }
                Op::IterationEnd => {
                    let it = try_op!(
                        self.iteration_stack
                            .pop()
                            .ok_or_else(|| illegal("unmatched iteration end"))
                    );
                    self.paged.iteration_end(it);
                }
                Op::PageAlloc { dst, tid } => {
                    set!(dst, try_op!(self.paged.alloc(PTypeId(tid))).raw())
                }
                Op::PageAllocFast { dst, tid } => {
                    let r = match self.paged.alloc_fast(PTypeId(tid)) {
                        Some(r) => {
                            self.exec_stats.fast_alloc_hits += 1;
                            r
                        }
                        None => {
                            self.exec_stats.fast_alloc_misses += 1;
                            try_op!(self.paged.alloc(PTypeId(tid)))
                        }
                    };
                    set!(dst, r.raw());
                }
                Op::PageNewArray { dst, len, elem } => {
                    let n = try_op!(new_array_len(get!(len)));
                    set!(dst, try_op!(self.paged.alloc_array(elem, n)).raw());
                }
                Op::PageGetFieldI32(f) => {
                    let o = page!(f.obj, null_field("paged getfield", f.at));
                    let v = i32::from_le_bytes(self.paged.read_body(o, f.at));
                    set!(f.val, from_i32(v));
                }
                Op::PageGetFieldI64(f) => {
                    let o = page!(f.obj, null_field("paged getfield", f.at));
                    let v = i64::from_le_bytes(self.paged.read_body(o, f.at));
                    set!(f.val, from_i64(v));
                }
                Op::PageSetFieldI32(f) => {
                    let o = page!(f.obj, null_field("paged setfield", f.at));
                    self.paged
                        .write_body(o, f.at, as_i32(get!(f.val)).to_le_bytes());
                }
                Op::PageSetFieldI64(f) => {
                    let o = page!(f.obj, null_field("paged setfield", f.at));
                    self.paged
                        .write_body(o, f.at, as_i64(get!(f.val)).to_le_bytes());
                }
                Op::PageArrayGetI32(r) => {
                    let body = self.paged.body(page!(r.a, null("paged arrayget")));
                    let i = try_op!(index(body, get!(r.b)));
                    set!(r.dst, from_i32(i32::from_le_bytes(elem(body, i))));
                }
                Op::PageArrayGetI64(r) => {
                    let body = self.paged.body(page!(r.a, null("paged arrayget")));
                    let i = try_op!(index(body, get!(r.b)));
                    set!(r.dst, from_i64(i64::from_le_bytes(elem(body, i))));
                }
                Op::PageArraySetI32(r) => {
                    let body = self.paged.body_mut(page!(r.a, null("paged arrayset")));
                    let i = try_op!(index(body, get!(r.b)));
                    set_elem(body, i, as_i32(get!(r.dst)).to_le_bytes());
                }
                Op::PageArraySetI64(r) => {
                    let body = self.paged.body_mut(page!(r.a, null("paged arrayset")));
                    let i = try_op!(index(body, get!(r.b)));
                    set_elem(body, i, as_i64(get!(r.dst)).to_le_bytes());
                }
                Op::PageArrayLen(r) => {
                    let a = page!(r.src, null("paged arraylength"));
                    set!(r.dst, from_i32(self.paged.array_len(a) as i32));
                }
                Op::BindParam {
                    dst,
                    src,
                    tid,
                    index,
                } => {
                    let slot = FacadeSlot::Param {
                        type_id: tid,
                        index,
                    };
                    set!(dst, self.bind(slot, PageRef::from_raw(get!(src))));
                }
                Op::Resolve(r) => {
                    let record = page!(r.src, null("resolve"));
                    let type_id = self.paged.type_of(record).0;
                    set!(r.dst, self.bind(FacadeSlot::Receiver { type_id }, record));
                }
                Op::ReleaseFacade(r) => set!(r.dst, try_op!(self.release_facade(get!(r.src)))),
                Op::PageInstanceOf { dst, src, class } => {
                    let is = self.page_instance_of(PageRef::from_raw(get!(src)), class);
                    set!(dst, from_bool(is));
                }
                Op::PageMonitorEnter(l) => {
                    let r = page!(l, null("paged monitorenter"));
                    if self.paged.monitor_enter(r).is_err() {
                        break Exit::Fail(VmError::LockIdsExhausted);
                    }
                }
                Op::PageMonitorExit(l) => self.paged.monitor_exit(PageRef::from_raw(get!(l))),
                Op::ConvertToPage(r) => {
                    let record = try_op!(self.convert_to_page(as_obj(get!(r.src))));
                    set!(r.dst, record.raw());
                }
                Op::ConvertToHeap(r) => {
                    let o = try_op!(self.convert_to_heap(PageRef::from_raw(get!(r.src))));
                    set_obj!(r.dst, o);
                }
            }
        };
        *steps = spent;
        (exit, pc)
    }

    // ----- ops `run_frame` runs out of line, to keep its registers -------

    #[cold]
    #[inline(never)]
    fn instance_of(&self, r: ObjRef, class: ClassId) -> bool {
        !r.is_null()
            && self
                .heap
                .class_of(r)
                .is_some_and(|h| self.program.is_subtype(self.tables.ir_class(h), class))
    }

    #[cold]
    #[inline(never)]
    fn page_instance_of(&self, r: PageRef, class: ClassId) -> bool {
        // Arrays have no data class.
        !r.is_null()
            && self
                .tables
                .class_of_type(self.paged.type_of(r).0)
                .is_some_and(|c| self.program.is_subtype(c, class))
    }

    /// Binds `slot`'s facade to `record`; returns the slot's bits.
    #[cold]
    #[inline(never)]
    fn bind(&mut self, slot: FacadeSlot, record: PageRef) -> u64 {
        self.facade(slot).bind(record);
        from_facade(slot)
    }

    /// Unbinds the facade in slot bits `bits`; returns the record it held.
    #[cold]
    #[inline(never)]
    fn release_facade(&mut self, bits: u64) -> Result<u64, VmError> {
        let slot = as_facade(bits).ok_or_else(|| illegal("release of an unbound facade"))?;
        Ok(self.facade(slot).release().raw())
    }

    /// Decodes `method` against this VM's layouts; the paged forms decode
    /// in paged mode only.
    fn decode(&self, method: MethodId) -> Result<DecodedMethod, VmError> {
        let paged = self.meta.map(|_| &self.paged);
        decode_method(self.program, &self.tables, &self.heap, paged, method)
    }

    /// The IR class virtual dispatch starts from: the receiver's runtime
    /// class, or for a facade the facade class of the bound record's type.
    fn receiver_class(&mut self, kind: Kind, bits: u64) -> Result<ClassId, VmError> {
        if kind == Kind::Obj {
            let r = as_obj(bits);
            if r.is_null() {
                return Err(VmError::NullDeref("virtual dispatch".into()));
            }
            let h = self
                .heap
                .class_of(r)
                .ok_or_else(|| illegal("dispatch on array"))?;
            return Ok(self.tables.ir_class(h));
        }
        let slot =
            as_facade(bits).ok_or_else(|| illegal("virtual dispatch on an unbound facade"))?;
        let r = self.facade(slot).peek();
        if r.is_null() {
            return Err(VmError::NullDeref("virtual dispatch".into()));
        }
        self.tables
            .class_of_type(self.paged.type_of(r).0)
            .and_then(|data_class| self.meta?.facade(data_class))
            .ok_or_else(|| illegal("virtual dispatch on a record without a facade class"))
    }

    /// The method a virtual call of `declared` runs on a `class` receiver.
    fn implementation(&self, class: ClassId, declared: MethodId) -> Result<MethodId, VmError> {
        let program = self.program;
        program.try_resolve_virtual(class, declared).ok_or_else(|| {
            let want = program.method(declared);
            illegal(format!(
                "no implementation of {}::{} found from class {}",
                program.class(want.class).name,
                want.name,
                program.class(class).name
            ))
        })
    }

    #[cold]
    #[inline(never)]
    fn print(&mut self, kind: Kind, bits: u64) {
        let line = match value_of(kind, bits) {
            Value::I32(x) => x.to_string(),
            Value::I64(x) => x.to_string(),
            Value::F64(x) => format!("{x}"),
            Value::Obj(r) if r.is_null() => "null".into(),
            Value::Obj(r) => match self.heap.class_of(r) {
                Some(h) => self.program.class(self.tables.ir_class(h)).name.clone(),
                None => "array".into(),
            },
            Value::Page(r) => self.format_page(r),
            Value::Facade(slot) => {
                let r = self.facade(slot).peek();
                self.format_page(r)
            }
        };
        self.output.push(line);
    }

    fn format_page(&self, r: PageRef) -> String {
        if r.is_null() {
            return "null".into();
        }
        match self.tables.class_of_type(self.paged.type_of(r).0) {
            Some(c) => self.program.class(c).name.clone(),
            None => "array".into(),
        }
    }
}

#[cfg(test)]
mod tests;
