//! Optimization passes over the transformed program `P'`.
//!
//! Three independently toggleable passes run after the Table 1
//! transformation and devirtualization (see `docs/COMPILER.md`):
//!
//! 1. [`epoch`] — *epoch insertion*. Brackets qualifying leaf-ish methods
//!    reachable from the entry point in `iterationStart`/`iterationEnd` so
//!    the pages they allocate are bulk-released when the frame dies — the
//!    lifetime-based reclamation idea applied at method granularity.
//! 2. [`promote`] — *stack promotion of non-escaping records*. A paged
//!    record whose reference never leaves the defining frame and whose
//!    fields are all primitive is scalar-replaced: one shadow local per
//!    field, no allocation at all.
//! 3. [`fastalloc`] — *bump-pointer fast-path hints*. Allocation sites
//!    inside loop regions are rewritten to
//!    [`facade_ir::Instr::PageAllocFast`], telling the interpreter to try
//!    the open page of the size class before the general allocator.
//!
//! Every pass preserves observable behaviour; the golden equivalence tests
//! run `P'` with each pass toggled on and off and assert identical output.

use facade_ir::{CallTarget, ClassId, Instr, Local, MethodId, Program, Terminator, Ty};
use std::collections::{BTreeSet, VecDeque};

/// Which optimization passes the pipeline should run, in the fixed order
/// `epoch → promote → fastalloc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassConfig {
    /// Run the epoch-insertion pass.
    pub epoch: bool,
    /// Run the non-escaping record promotion pass.
    pub promote: bool,
    /// Run the bump-pointer fast-path hint pass.
    pub fastalloc: bool,
}

impl PassConfig {
    /// All passes enabled.
    pub fn all() -> Self {
        Self {
            epoch: true,
            promote: true,
            fastalloc: true,
        }
    }

    /// No passes (the bare Table 1 output).
    pub fn none() -> Self {
        Self {
            epoch: false,
            promote: false,
            fastalloc: false,
        }
    }
}

impl Default for PassConfig {
    fn default() -> Self {
        Self::all()
    }
}

/// What the [`epoch`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochStats {
    /// Methods reachable from the entry point.
    pub reachable_methods: usize,
    /// Methods bracketed in `iterationStart`/`iterationEnd`.
    pub epochs_inserted: usize,
}

/// What the [`promote`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PromoteStats {
    /// Allocation sites scalar-replaced.
    pub records_promoted: usize,
}

/// What the [`fastalloc`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FastAllocStats {
    /// `PageAlloc` sites inside loop regions rewritten to `PageAllocFast`.
    pub sites_marked: usize,
}

/// Calls `f` with every local an instruction mentions (defs and uses).
fn visit_locals(i: &Instr, mut f: impl FnMut(Local)) {
    use Instr::*;
    match i {
        ConstI32(d, _) | ConstI64(d, _) | ConstF64(d, _) | ConstNull(d) => f(*d),
        Move { dst, src } | NumCast { dst, src } => {
            f(*dst);
            f(*src);
        }
        Bin { dst, a, b, .. } | Cmp { dst, a, b, .. } => {
            f(*dst);
            f(*a);
            f(*b);
        }
        New { dst, .. } | PageAlloc { dst, .. } | PageAllocFast { dst, .. } => f(*dst),
        NewArray { dst, len, .. } | PageNewArray { dst, len, .. } => {
            f(*dst);
            f(*len);
        }
        GetField { dst, obj, .. } | PageGetField { dst, obj, .. } => {
            f(*dst);
            f(*obj);
        }
        SetField { obj, src, .. } | PageSetField { obj, src, .. } => {
            f(*obj);
            f(*src);
        }
        ArrayGet { dst, arr, idx } | PageArrayGet { dst, arr, idx, .. } => {
            f(*dst);
            f(*arr);
            f(*idx);
        }
        ArraySet { arr, idx, src } | PageArraySet { arr, idx, src, .. } => {
            f(*arr);
            f(*idx);
            f(*src);
        }
        ArrayLen { dst, arr } | PageArrayLen { dst, arr } => {
            f(*dst);
            f(*arr);
        }
        Call { dst, args, .. } => {
            if let Some(d) = dst {
                f(*d);
            }
            for a in args {
                f(*a);
            }
        }
        InstanceOf { dst, src, .. } | PageInstanceOf { dst, src, .. } => {
            f(*dst);
            f(*src);
        }
        MonitorEnter(l) | MonitorExit(l) | Print(l) | PageMonitorEnter(l) | PageMonitorExit(l) => {
            f(*l)
        }
        IterationStart | IterationEnd => {}
        BindParam { dst, src, .. }
        | Resolve { dst, src, .. }
        | ConvertToPage { dst, src, .. }
        | ConvertToHeap { dst, src, .. } => {
            f(*dst);
            f(*src);
        }
        ReleaseFacade { dst, facade } => {
            f(*dst);
            f(*facade);
        }
    }
}

/// Methods reachable from the program entry, conservatively resolving
/// virtual calls through every subtype override. [`crate::transform`]
/// walks once, before it cuts the rest; the [`epoch`] pass gets the same
/// set in `P'` terms.
pub(crate) fn reachable_methods(program: &Program) -> BTreeSet<MethodId> {
    let mut seen = BTreeSet::new();
    let mut queue = VecDeque::new();
    if let Some(e) = program.entry() {
        seen.insert(e);
        queue.push_back(e);
    }
    while let Some(m) = queue.pop_front() {
        let Some(body) = &program.method(m).body else {
            continue;
        };
        for block in &body.blocks {
            for instr in &block.instrs {
                let Instr::Call { target, .. } = instr else {
                    continue;
                };
                let mut push = |id: MethodId| {
                    if seen.insert(id) {
                        queue.push_back(id);
                    }
                };
                match target {
                    CallTarget::Static(id) | CallTarget::Special(id) => push(*id),
                    CallTarget::Virtual(id) => {
                        push(*id);
                        // The declaring class itself too: a body-less `id`
                        // on a class resolves to an inherited body.
                        let decl_class = program.method(*id).class;
                        let receivers = program.all_subtypes(decl_class);
                        for sub in std::iter::once(decl_class).chain(receivers) {
                            if let Some(ov) = program.try_resolve_virtual(sub, *id) {
                                push(ov);
                            }
                        }
                    }
                }
            }
        }
    }
    seen
}

/// Returns `true` when a method may be bracketed in a private epoch: the
/// pages it allocates are reclaimable at return because no page reference
/// can survive the frame.
fn epoch_safe(program: &Program, m: MethodId) -> bool {
    let def = program.method(m);
    // A returned page reference (or facade) escapes upward.
    if matches!(def.ret, Some(Ty::PageRef) | Some(Ty::Facade(_))) {
        return false;
    }
    let Some(body) = &def.body else { return false };
    let page_typed = |l: &Local| matches!(body.locals[l.0 as usize], Ty::PageRef | Ty::Facade(_));
    let mut allocates = false;
    for block in &body.blocks {
        for instr in &block.instrs {
            match instr {
                // A nested epoch inserted under a hand-written one would
                // reclaim pages the outer scope still considers live-ish;
                // keep out of methods that already manage iterations.
                Instr::IterationStart | Instr::IterationEnd => return false,
                Instr::PageAlloc { .. }
                | Instr::PageAllocFast { .. }
                | Instr::PageNewArray { .. }
                | Instr::ConvertToPage { .. } => allocates = true,
                // Passing a page reference (or a bound facade) to a callee
                // lets the callee store it somewhere longer-lived.
                Instr::Call { args, .. } if args.iter().any(&page_typed) => return false,
                // Storing a page reference into a record links it into a
                // structure that may predate this frame's epoch.
                Instr::PageSetField { src, .. } | Instr::PageArraySet { src, .. }
                    if page_typed(src) =>
                {
                    return false;
                }
                _ => {}
            }
        }
    }
    allocates
}

/// Pass 1: bracket each qualifying allocating method of `reachable` (the
/// `P'` methods the entry point reaches, [`crate::TransformOutput::reachable`])
/// in a method-private epoch, so its pages are released on return.
pub fn epoch(program: &mut Program, reachable: &BTreeSet<MethodId>) -> EpochStats {
    let safe: Vec<MethodId> = reachable
        .iter()
        .copied()
        .filter(|&m| epoch_safe(program, m))
        .collect();
    for &m in &safe {
        let body = program
            .method_mut(m)
            .body
            .as_mut()
            .expect("epoch_safe checked the body");
        body.blocks[0].instrs.insert(0, Instr::IterationStart);
        for block in &mut body.blocks {
            if matches!(block.term, Some(Terminator::Return(_))) {
                block.instrs.push(Instr::IterationEnd);
            }
        }
    }
    EpochStats {
        reachable_methods: reachable.len(),
        epochs_inserted: safe.len(),
    }
}

/// The data class allocated by `l`'s single `PageAlloc`, if `l` qualifies
/// for promotion in `body`.
fn promotion_candidate(program: &Program, body: &facade_ir::Body, l: Local) -> Option<ClassId> {
    let mut alloc_class: Option<ClassId> = None;
    let mut allocs = 0usize;
    let mut escaped = false;
    for block in &body.blocks {
        for instr in &block.instrs {
            match instr {
                Instr::PageAlloc { dst, class } | Instr::PageAllocFast { dst, class }
                    if *dst == l =>
                {
                    allocs += 1;
                    alloc_class = Some(*class);
                }
                Instr::PageGetField { obj, dst, .. } if *obj == l && *dst != l => {}
                Instr::PageSetField { obj, src, .. } if *obj == l && *src != l => {}
                other => {
                    let mut mentioned = false;
                    visit_locals(other, |x| mentioned |= x == l);
                    if mentioned {
                        escaped = true;
                    }
                }
            }
        }
        if let Some(t) = &block.term {
            let used = match t {
                Terminator::Return(Some(r)) => *r == l,
                Terminator::Branch { cond, .. } => *cond == l,
                _ => false,
            };
            if used {
                escaped = true;
            }
        }
    }
    if escaped || allocs != 1 {
        return None;
    }
    let class = alloc_class?;
    // Only primitive-field records: a reference field would need a typed
    // null page reference to zero-initialize, which the IR reserves for
    // real references.
    let all_prim = program
        .flat_fields(class)
        .iter()
        .all(|(_, f)| matches!(f.ty, Ty::I32 | Ty::I64 | Ty::F64));
    all_prim.then_some(class)
}

/// Pass 2: scalar-replace paged records that never escape their frame.
pub fn promote(program: &mut Program) -> PromoteStats {
    let mut stats = PromoteStats::default();
    let method_ids: Vec<MethodId> = program.methods().map(|(id, _)| id).collect();
    for m in method_ids {
        let Some(body) = &program.method(m).body else {
            continue;
        };
        // Only a local some allocation writes can qualify; most methods
        // have none, and the per-local scan below is a whole-body walk.
        let mut allocated: Vec<Local> = body
            .blocks
            .iter()
            .flat_map(|block| &block.instrs)
            .filter_map(|instr| match instr {
                Instr::PageAlloc { dst, .. } | Instr::PageAllocFast { dst, .. } => Some(*dst),
                _ => None,
            })
            .collect();
        allocated.sort_unstable();
        allocated.dedup();
        let candidates: Vec<(Local, ClassId)> = allocated
            .into_iter()
            .filter_map(|l| promotion_candidate(program, body, l).map(|c| (l, c)))
            .collect();
        if candidates.is_empty() {
            continue;
        }
        let mut body = program.method(m).body.clone().expect("checked above");
        for (l, class) in candidates {
            let field_tys: Vec<Ty> = program
                .flat_fields(class)
                .iter()
                .map(|(_, f)| f.ty.clone())
                .collect();
            let shadows: Vec<Local> = field_tys
                .iter()
                .map(|t| body.add_local(t.clone()))
                .collect();
            for block in &mut body.blocks {
                let mut rewritten = Vec::with_capacity(block.instrs.len());
                for instr in block.instrs.drain(..) {
                    match instr {
                        Instr::PageAlloc { dst, .. } | Instr::PageAllocFast { dst, .. }
                            if dst == l =>
                        {
                            // Records are zero-initialized on allocation;
                            // re-zero the shadows so loop re-allocations
                            // still observe fresh state.
                            for (slot, ty) in field_tys.iter().enumerate() {
                                rewritten.push(match ty {
                                    Ty::I32 => Instr::ConstI32(shadows[slot], 0),
                                    Ty::I64 => Instr::ConstI64(shadows[slot], 0),
                                    Ty::F64 => Instr::ConstF64(shadows[slot], 0.0),
                                    _ => unreachable!("candidate fields are primitive"),
                                });
                            }
                        }
                        Instr::PageGetField {
                            dst, obj, field, ..
                        } if obj == l => {
                            rewritten.push(Instr::Move {
                                dst,
                                src: shadows[field],
                            });
                        }
                        Instr::PageSetField {
                            obj, field, src, ..
                        } if obj == l => {
                            rewritten.push(Instr::Move {
                                dst: shadows[field],
                                src,
                            });
                        }
                        other => rewritten.push(other),
                    }
                }
                block.instrs = rewritten;
            }
            stats.records_promoted += 1;
        }
        program.method_mut(m).body = Some(body);
    }
    stats
}

/// Pass 3: rewrite `PageAlloc` sites inside loop regions to the
/// bump-pointer-hinted `PageAllocFast`.
///
/// Loop detection is approximate — any backward edge `bbS → bbT` (T ≤ S)
/// marks blocks `T..=S` as a loop region — which is safe because the hint
/// never changes semantics, only the allocator's first guess.
pub fn fastalloc(program: &mut Program) -> FastAllocStats {
    let mut stats = FastAllocStats::default();
    let method_ids: Vec<MethodId> = program.methods().map(|(id, _)| id).collect();
    for m in method_ids {
        let Some(body) = &program.method(m).body else {
            continue;
        };
        let n = body.blocks.len();
        let mut in_loop = vec![false; n];
        for (s, block) in body.blocks.iter().enumerate() {
            let mut mark = |t: usize| {
                if t <= s {
                    for slot in in_loop.iter_mut().take(s + 1).skip(t) {
                        *slot = true;
                    }
                }
            };
            match &block.term {
                Some(Terminator::Jump(bb)) => mark(bb.0 as usize),
                Some(Terminator::Branch {
                    then_bb, else_bb, ..
                }) => {
                    mark(then_bb.0 as usize);
                    mark(else_bb.0 as usize);
                }
                _ => {}
            }
        }
        let sites: Vec<(usize, usize)> = body
            .blocks
            .iter()
            .enumerate()
            .filter(|(bi, _)| in_loop[*bi])
            .flat_map(|(bi, block)| {
                let allocs = block.instrs.iter().enumerate();
                allocs
                    .filter(|(_, i)| matches!(i, Instr::PageAlloc { .. }))
                    .map(move |(ii, _)| (bi, ii))
            })
            .collect();
        if sites.is_empty() {
            // An untouched definition stays shared with every earlier
            // snapshot of the program.
            continue;
        }
        let body = program
            .method_mut(m)
            .body
            .as_mut()
            .expect("body inspected above");
        for (bi, ii) in sites {
            let instr = &mut body.blocks[bi].instrs[ii];
            if let Instr::PageAlloc { dst, class } = *instr {
                *instr = Instr::PageAllocFast { dst, class };
                stats.sites_marked += 1;
            }
        }
    }
    stats
}
