//! The instruction transformation of Table 1.
//!
//! Data-path methods (methods declared on data classes and data interfaces)
//! are given *facade* counterparts that operate on page references; every
//! field access, allocation, call, `instanceof`, and monitor operation is
//! rewritten per the table. Control-path methods are rewritten in place:
//! call sites into the data path get conversions (interaction points, §3.5)
//! and facade bindings inserted.

use crate::bounds::param_slots;
use crate::closed_world::is_data_interface;
use crate::error::CompileError;
use crate::meta::PagedMeta;
use facade_ir::{
    Block, Body, CallTarget, ClassId, Instr, Local, MethodDef, MethodId, Program, Terminator, Ty,
};
use std::collections::BTreeSet;

/// How a type participates in the data path.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Kind {
    /// A data class or data interface; values become page references.
    Data(ClassId),
    /// Any array; the data path pages all arrays.
    DataArray,
    /// A numeric primitive.
    Prim,
    /// A control-path reference; values stay heap objects.
    Control,
}

impl Kind {
    /// The class a value of this kind converts with when it crosses the
    /// boundary: its data class, or `None` for an array. Primitive and
    /// control values never cross.
    fn crossing(&self) -> Option<Option<ClassId>> {
        match self {
            Kind::Data(c) => Some(Some(*c)),
            Kind::DataArray => Some(None),
            Kind::Prim | Kind::Control => None,
        }
    }
}

/// The direction a value crosses at an interaction point (§3.5).
#[derive(Clone, Copy)]
enum Cross {
    /// A heap object (or array) becomes a page record.
    ToPage,
    /// A page record (or array) becomes a heap object.
    ToHeap,
}

struct Cx<'a> {
    pr: &'a Program,
    meta: &'a PagedMeta,
    data: &'a BTreeSet<ClassId>,
    method_name: String,
    /// Interaction points emitted so far; only [`Cx::cross`] counts.
    ips: usize,
}

impl Cx<'_> {
    fn kind(&self, ty: &Ty) -> Result<Kind, CompileError> {
        match ty {
            Ty::I32 | Ty::I64 | Ty::F64 => Ok(Kind::Prim),
            Ty::Array(_) => Ok(Kind::DataArray),
            Ty::Ref(c) if self.data.contains(c) => Ok(Kind::Data(*c)),
            Ty::Ref(c) if self.pr.class(*c).is_interface() => {
                if is_data_interface(self.pr, self.data, *c) {
                    Ok(Kind::Data(*c))
                } else if self.meta.facade_iface_of.contains_key(c) {
                    // Implemented by data classes *and* control classes:
                    // a variable of this type in the data path is ambiguous.
                    Err(CompileError::MixedInterfaceInDataPath {
                        method: self.method_name.clone(),
                        interface: self.pr.class(*c).name.clone(),
                    })
                } else {
                    Ok(Kind::Control)
                }
            }
            Ty::Ref(_) => Ok(Kind::Control),
            Ty::PageRef | Ty::Facade(_) => Ok(Kind::Control),
        }
    }

    /// Emits the conversion of one interaction point and counts it: the
    /// only place `ConvertToPage` and `ConvertToHeap` are built.
    fn cross(
        &mut self,
        out: &mut Vec<Instr>,
        dir: Cross,
        dst: Local,
        src: Local,
        class: Option<ClassId>,
    ) {
        out.push(match dir {
            Cross::ToPage => Instr::ConvertToPage { dst, src, class },
            Cross::ToHeap => Instr::ConvertToHeap { dst, src, class },
        });
        self.ips += 1;
    }

    /// [`Cx::cross`] into a fresh local of type `ty`, which it returns.
    fn cross_fresh(
        &mut self,
        nb: &mut Body,
        out: &mut Vec<Instr>,
        dir: Cross,
        ty: Ty,
        src: Local,
        class: Option<ClassId>,
    ) -> Local {
        let dst = nb.add_local(ty);
        self.cross(out, dir, dst, src, class);
        dst
    }

    fn is_data_method(&self, m: MethodId) -> bool {
        let class = self.pr.method(m).class;
        self.data.contains(&class) || self.meta.facade_iface_of.contains_key(&class)
    }

    /// The type of a facade of data class (or interface) `class`.
    fn facade_ty(&self, class: ClassId) -> Ty {
        Ty::Facade(self.meta.facade(class).expect("facade generated"))
    }

    /// Maps a signature type of a data-path method into its `P'` form.
    fn map_sig_ty(&self, ty: &Ty) -> Result<Ty, CompileError> {
        Ok(match self.kind(ty)? {
            Kind::Data(c) => self.facade_ty(c),
            Kind::DataArray => Ty::PageRef,
            Kind::Prim | Kind::Control => ty.clone(),
        })
    }
}

/// Runs the transformation over the whole program; returns the number of
/// interaction points at which conversions were synthesized.
pub(crate) fn run(program: &mut Program, meta: &mut PagedMeta) -> Result<usize, CompileError> {
    let data: BTreeSet<ClassId> = meta.data_classes.iter().copied().collect();

    // Classify methods up front (ids are stable under later additions).
    let mut data_methods = Vec::new();
    let mut control_methods = Vec::new();
    for (id, m) in program.methods() {
        if data.contains(&m.class) || meta.facade_iface_of.contains_key(&m.class) {
            data_methods.push(id);
        } else if !meta.data_of.contains_key(&m.class) {
            control_methods.push(id);
        }
    }

    // Pass 1: facade method stubs, so calls can be retargeted before any
    // body exists.
    for &m in &data_methods {
        create_stub(program, meta, &data, m)?;
    }

    // Read-only snapshot for body construction; bodies are written back
    // into `program` as they are finished. Data-path bodies become their
    // facade methods' bodies (pass 2); control-path bodies are rewritten in
    // place at their boundary call sites (pass 3).
    let snapshot = program.clone();
    let mut cx = Cx {
        pr: &snapshot,
        meta,
        data: &data,
        method_name: String::new(),
        ips: 0,
    };
    for &m in data_methods.iter().chain(&control_methods) {
        if snapshot.method(m).body.is_none() {
            continue;
        }
        cx.method_name = qualified_name(&snapshot, m);
        let (target, body) = match cx.meta.method_map.get(&m) {
            Some(&facade_m) => (facade_m, transform_data_body(&mut cx, m)?),
            None => (m, rewrite_control_body(&mut cx, m)?),
        };
        program.method_mut(target).body = Some(body);
    }
    let ips = cx.ips;

    // If the entry point was a data-path method, run its facade version.
    if let Some(e) = program.entry() {
        if let Some(&e2) = meta.method_map.get(&e) {
            program.set_entry(e2);
        }
    }
    Ok(ips)
}

fn qualified_name(p: &Program, m: MethodId) -> String {
    let def = p.method(m);
    format!("{}::{}", p.class(def.class).name, def.name)
}

fn create_stub(
    program: &mut Program,
    meta: &mut PagedMeta,
    data: &BTreeSet<ClassId>,
    m: MethodId,
) -> Result<(), CompileError> {
    let def = program.method(m).clone();
    let (params, ret) = {
        let cx = Cx {
            pr: program,
            meta,
            data,
            method_name: qualified_name(program, m),
            ips: 0,
        };
        let params = def
            .params
            .iter()
            .map(|p| cx.map_sig_ty(p))
            .collect::<Result<Vec<_>, _>>()?;
        let ret = def.ret.as_ref().map(|t| cx.map_sig_ty(t)).transpose()?;
        (params, ret)
    };
    let owner = meta.facade(def.class).expect("facade generated");
    // Constructors become regular methods (`facade$init`, Transformation 3).
    let name = if def.is_ctor() {
        "facade$init".to_string()
    } else {
        def.name.clone()
    };
    let id = program.add_method(MethodDef {
        name,
        class: owner,
        params,
        ret,
        is_static: def.is_static,
        body: None,
    });
    meta.method_map.insert(m, id);
    Ok(())
}

/// Table 1 case 1 plus the whole body: builds the facade method's body for
/// data-path method `m`.
fn transform_data_body(cx: &mut Cx<'_>, m: MethodId) -> Result<Body, CompileError> {
    let def = cx.pr.method(m);
    let old = def.body.as_ref().expect("data body");
    let fdef = cx.pr.method(cx.meta.method_map[&m]);

    let mut nb = Body::default();
    // Parameter slots of the facade method.
    if !fdef.is_static {
        nb.add_local(cx.facade_ty(def.class));
    }
    for p in &fdef.params {
        nb.add_local(p.clone());
    }
    // Shadow locals for every original local (the "variable-reference
    // table v" of Table 1): data-typed locals shadow as page references.
    let mut var = Vec::with_capacity(old.locals.len());
    for ty in &old.locals {
        let shadow = match cx.kind(ty)? {
            Kind::Data(_) | Kind::DataArray => Ty::PageRef,
            _ => ty.clone(),
        };
        var.push(nb.add_local(shadow));
    }

    for (bi, ob) in old.blocks.iter().enumerate() {
        let mut out = Vec::new();
        if bi == 0 {
            // Method prologue (case 1): release each facade parameter's
            // page reference into the shadow local. (`slot` indexes both
            // the parameter locals and their shadows, so indexing is the
            // clearest form here.)
            let slots = fdef.param_slot_count();
            #[allow(clippy::needless_range_loop)]
            for slot in 0..slots {
                let param = Local(slot as u32);
                let param_ty = &nb.locals[slot];
                match param_ty {
                    Ty::Facade(_) => out.push(Instr::ReleaseFacade {
                        dst: var[slot],
                        facade: param,
                    }),
                    _ => out.push(Instr::Move {
                        dst: var[slot],
                        src: param,
                    }),
                }
            }
        }
        for instr in &ob.instrs {
            transform_instr(cx, old, &mut nb, &var, instr, &mut out)?;
        }
        let term = transform_terminator(cx, old, &mut nb, &var, ob.term.as_ref(), &mut out)?;
        nb.blocks.push(Block {
            instrs: out,
            term: Some(term),
        });
    }
    Ok(nb)
}

fn transform_terminator(
    cx: &mut Cx<'_>,
    old: &Body,
    nb: &mut Body,
    var: &[Local],
    term: Option<&Terminator>,
    out: &mut Vec<Instr>,
) -> Result<Terminator, CompileError> {
    let v = |l: Local| var[l.0 as usize];
    Ok(match term.expect("verified body") {
        Terminator::Return(None) => Terminator::Return(None),
        Terminator::Return(Some(l)) => {
            let ty = old.local_ty(*l).clone();
            match cx.kind(&ty)? {
                // Case 5.1: bind pool facade 0 and return it.
                Kind::Data(c) => {
                    let concrete = cx
                        .pr
                        .any_concrete_subtype(c)
                        .filter(|cc| cx.meta.type_ids.contains_key(cc))
                        .unwrap_or(c);
                    let rf = nb.add_local(cx.facade_ty(c));
                    out.push(Instr::BindParam {
                        dst: rf,
                        class: concrete,
                        index: 0,
                        src: v(*l),
                    });
                    Terminator::Return(Some(rf))
                }
                // Arrays travel as bare page references.
                _ => Terminator::Return(Some(v(*l))),
            }
        }
        Terminator::Jump(bb) => Terminator::Jump(*bb),
        Terminator::Branch {
            cond,
            then_bb,
            else_bb,
        } => Terminator::Branch {
            cond: v(*cond),
            then_bb: *then_bb,
            else_bb: *else_bb,
        },
    })
}

#[allow(clippy::too_many_lines)]
fn transform_instr(
    cx: &mut Cx<'_>,
    old: &Body,
    nb: &mut Body,
    var: &[Local],
    instr: &Instr,
    out: &mut Vec<Instr>,
) -> Result<(), CompileError> {
    use Instr::*;
    let v = |l: Local| var[l.0 as usize];
    let t = |l: Local| old.local_ty(l).clone();
    match instr {
        ConstI32(d, c) => out.push(ConstI32(v(*d), *c)),
        ConstI64(d, c) => out.push(ConstI64(v(*d), *c)),
        ConstF64(d, c) => out.push(ConstF64(v(*d), *c)),
        ConstNull(d) => out.push(ConstNull(v(*d))),
        Move { dst, src } => {
            // Case 2: reference assignments become page-reference
            // assignments; crossings of the boundary convert.
            let (kd, ks) = (cx.kind(&t(*dst))?, cx.kind(&t(*src))?);
            match (kd, ks) {
                (Kind::Control, Kind::Data(c)) => {
                    cx.cross(out, Cross::ToHeap, v(*dst), v(*src), Some(c));
                }
                (Kind::Data(c), Kind::Control) => {
                    cx.cross(out, Cross::ToPage, v(*dst), v(*src), Some(c));
                }
                _ => out.push(Move {
                    dst: v(*dst),
                    src: v(*src),
                }),
            }
        }
        Bin { dst, op, a, b } => out.push(Bin {
            dst: v(*dst),
            op: *op,
            a: v(*a),
            b: v(*b),
        }),
        Cmp { dst, op, a, b } => out.push(Cmp {
            dst: v(*dst),
            op: *op,
            a: v(*a),
            b: v(*b),
        }),
        NumCast { dst, src } => out.push(NumCast {
            dst: v(*dst),
            src: v(*src),
        }),
        New { dst, class } => {
            // Transformation 3: allocations in the data path go to pages.
            if !cx.data.contains(class) {
                return Err(CompileError::NonDataAllocation {
                    method: cx.method_name.clone(),
                    class: cx.pr.class(*class).name.clone(),
                });
            }
            out.push(PageAlloc {
                dst: v(*dst),
                class: *class,
            });
        }
        NewArray { dst, elem, len } => out.push(PageNewArray {
            dst: v(*dst),
            elem: elem.clone(),
            len: v(*len),
        }),
        GetField { dst, obj, field } => match cx.kind(&t(*obj))? {
            Kind::Data(_) => {
                let class = t(*obj).as_class().expect("field access on class");
                out.push(PageGetField {
                    dst: v(*dst),
                    obj: v(*obj),
                    class,
                    field: *field,
                });
            }
            // Case 4.3: reading a data value out of a control object is an
            // interaction point.
            _ => match cx.kind(&t(*dst))?.crossing() {
                Some(class) => {
                    let tmp = nb.add_local(t(*dst));
                    out.push(GetField {
                        dst: tmp,
                        obj: v(*obj),
                        field: *field,
                    });
                    cx.cross(out, Cross::ToPage, v(*dst), tmp, class);
                }
                None => out.push(GetField {
                    dst: v(*dst),
                    obj: v(*obj),
                    field: *field,
                }),
            },
        },
        SetField { obj, field, src } => match cx.kind(&t(*obj))? {
            Kind::Data(_) => {
                // Case 3.4: a non-data value flowing into a data record is
                // an assumption violation.
                if cx.kind(&t(*src))? == Kind::Control {
                    return Err(CompileError::AssumptionViolation {
                        method: cx.method_name.clone(),
                        detail: format!(
                            "control-path value of type `{}` stored into data record field \
                             {field}",
                            t(*src)
                        ),
                    });
                }
                let class = t(*obj).as_class().expect("field access on class");
                out.push(PageSetField {
                    obj: v(*obj),
                    class,
                    field: *field,
                    src: v(*src),
                });
            }
            // Case 3.3: a data value flowing into a control object converts.
            _ => match cx.kind(&t(*src))?.crossing() {
                Some(class) => {
                    let tmp = cx.cross_fresh(nb, out, Cross::ToHeap, t(*src), v(*src), class);
                    out.push(SetField {
                        obj: v(*obj),
                        field: *field,
                        src: tmp,
                    });
                }
                None => out.push(SetField {
                    obj: v(*obj),
                    field: *field,
                    src: v(*src),
                }),
            },
        },
        ArrayGet { dst, arr, idx } => {
            let elem = match t(*arr) {
                Ty::Array(e) => (*e).clone(),
                _ => unreachable!("verified body"),
            };
            out.push(PageArrayGet {
                dst: v(*dst),
                arr: v(*arr),
                idx: v(*idx),
                elem,
            });
        }
        ArraySet { arr, idx, src } => {
            let elem = match t(*arr) {
                Ty::Array(e) => (*e).clone(),
                _ => unreachable!("verified body"),
            };
            out.push(PageArraySet {
                arr: v(*arr),
                idx: v(*idx),
                src: v(*src),
                elem,
            });
        }
        ArrayLen { dst, arr } => out.push(PageArrayLen {
            dst: v(*dst),
            arr: v(*arr),
        }),
        Call { dst, target, args } => {
            transform_call_in_data_path(cx, old, nb, var, *dst, *target, args, out)?;
        }
        InstanceOf { dst, src, class } => match cx.kind(&t(*src))? {
            Kind::Data(_) => {
                if cx.meta.is_data_class(*class) || cx.data.contains(class) {
                    out.push(PageInstanceOf {
                        dst: v(*dst),
                        src: v(*src),
                        class: *class,
                    });
                } else {
                    // A data record is never an instance of a control class.
                    out.push(ConstI32(v(*dst), 0));
                }
            }
            _ => out.push(InstanceOf {
                dst: v(*dst),
                src: v(*src),
                class: *class,
            }),
        },
        MonitorEnter(l) => match cx.kind(&t(*l))? {
            Kind::Data(_) | Kind::DataArray => out.push(PageMonitorEnter(v(*l))),
            _ => out.push(MonitorEnter(v(*l))),
        },
        MonitorExit(l) => match cx.kind(&t(*l))? {
            Kind::Data(_) | Kind::DataArray => out.push(PageMonitorExit(v(*l))),
            _ => out.push(MonitorExit(v(*l))),
        },
        Print(l) => out.push(Print(v(*l))),
        // Paged forms cannot appear in source programs.
        other => out.push(other.clone()),
    }
    Ok(())
}

/// Table 1 case 6 inside the data path.
#[allow(clippy::too_many_arguments)]
fn transform_call_in_data_path(
    cx: &mut Cx<'_>,
    old: &Body,
    nb: &mut Body,
    var: &[Local],
    dst: Option<Local>,
    target: CallTarget,
    args: &[Local],
    out: &mut Vec<Instr>,
) -> Result<(), CompileError> {
    let v = |l: Local| var[l.0 as usize];
    if cx.is_data_method(target.method()) {
        let args: Vec<Local> = args.iter().map(|&a| v(a)).collect();
        return lower_facade_call(cx, nb, out, dst.map(v), target, &args, false);
    }
    // Case 6.3: calling into the control path — data arguments convert to
    // heap objects, and a data result converts back from a fresh one.
    let receivers = usize::from(target.has_receiver());
    let mut new_args: Vec<Local> = args[..receivers].iter().map(|&a| v(a)).collect();
    for &arg in &args[receivers..] {
        let ty = old.local_ty(arg).clone();
        new_args.push(match cx.kind(&ty)?.crossing() {
            Some(class) => cx.cross_fresh(nb, out, Cross::ToHeap, ty, v(arg), class),
            None => v(arg),
        });
    }
    let ret = match (dst, &cx.pr.method(target.method()).ret) {
        (Some(d), Some(rty)) => cx.kind(rty)?.crossing().map(|class| (d, rty, class)),
        _ => None,
    };
    match ret {
        Some((d, rty, class)) => {
            let tmp = nb.add_local(rty.clone());
            out.push(Instr::Call {
                dst: Some(tmp),
                target,
                args: new_args,
            });
            cx.cross(out, Cross::ToPage, v(d), tmp, class);
        }
        None => out.push(Instr::Call {
            dst: dst.map(v),
            target,
            args: new_args,
        }),
    }
    Ok(())
}

/// Lowers a call into a data-path method onto its facade counterpart, from
/// either path (Table 1 case 6.1 and §3.5). `dst` and `args` are locals of
/// the new body. A control-path caller (`heap_caller`) holds heap objects,
/// so each data operand first converts into a page record, and a data
/// result converts back. The receiver's facade is `resolve`d by its runtime
/// type; each data argument binds the pool facade of its per-type slot
/// ([`param_slots`]), and a returned facade is released at once.
fn lower_facade_call(
    cx: &mut Cx<'_>,
    nb: &mut Body,
    out: &mut Vec<Instr>,
    dst: Option<Local>,
    target: CallTarget,
    args: &[Local],
    heap_caller: bool,
) -> Result<(), CompileError> {
    let callee = cx.pr.method(target.method());
    let page_operand = |cx: &mut Cx<'_>, nb: &mut Body, out: &mut Vec<Instr>, src, class| {
        if heap_caller {
            cx.cross_fresh(nb, out, Cross::ToPage, Ty::PageRef, src, class)
        } else {
            src
        }
    };
    let mut new_args = Vec::with_capacity(args.len());
    let receivers = usize::from(target.has_receiver());
    if target.has_receiver() {
        let class = Some(callee.class).filter(|c| cx.meta.type_ids.contains_key(c));
        let src = page_operand(cx, nb, out, args[0], class);
        let af = nb.add_local(cx.facade_ty(callee.class));
        out.push(Instr::Resolve {
            dst: af,
            class: callee.class,
            src,
        });
        new_args.push(af);
    }
    let slots = param_slots(cx.pr, cx.meta, &callee.params);
    for ((p, &arg), slot) in callee.params.iter().zip(&args[receivers..]).zip(slots) {
        new_args.push(match cx.kind(p)? {
            Kind::Data(pc) => {
                let (class, index) = slot.expect("a data parameter has a pool slot");
                let src = page_operand(cx, nb, out, arg, Some(class));
                let bf = nb.add_local(cx.facade_ty(pc));
                out.push(Instr::BindParam {
                    dst: bf,
                    class,
                    index,
                    src,
                });
                bf
            }
            Kind::DataArray => page_operand(cx, nb, out, arg, None),
            // Case 6.2: control and primitive arguments pass unchanged.
            Kind::Prim | Kind::Control => arg,
        });
    }
    let target = retarget(target, cx.meta.method_map[&target.method()]);
    let call = |dst| Instr::Call {
        dst,
        target,
        args: new_args,
    };
    let (Some(d), Some(rty)) = (dst, &callee.ret) else {
        out.push(call(dst));
        return Ok(());
    };
    let kind = cx.kind(rty)?;
    // A data result comes back in a facade, which the caller releases at
    // once; a control-path caller receives the page reference in a fresh
    // local and converts it.
    let facade = match kind {
        Kind::Data(rc) => Some(nb.add_local(cx.facade_ty(rc))),
        _ => None,
    };
    let class = kind.crossing().filter(|_| heap_caller);
    let page = if class.is_some() {
        nb.add_local(Ty::PageRef)
    } else {
        d
    };
    match facade {
        Some(rf) => {
            out.push(call(Some(rf)));
            out.push(Instr::ReleaseFacade {
                dst: page,
                facade: rf,
            });
        }
        None => out.push(call(Some(page))),
    }
    if let Some(class) = class {
        cx.cross(out, Cross::ToHeap, d, page, class);
    }
    Ok(())
}

fn retarget(target: CallTarget, m: MethodId) -> CallTarget {
    match target {
        CallTarget::Static(_) => CallTarget::Static(m),
        CallTarget::Virtual(_) => CallTarget::Virtual(m),
        CallTarget::Special(_) => CallTarget::Special(m),
    }
}

/// Pass 3: control-path methods keep their logic, but calls into the data
/// path get conversions and facade bindings inserted (§3.5: conversion
/// "often occurs before the execution of the data path or after it is
/// done").
fn rewrite_control_body(cx: &mut Cx<'_>, m: MethodId) -> Result<Body, CompileError> {
    let old = cx.pr.method(m).body.as_ref().expect("control body");
    let mut nb = Body {
        locals: old.locals.clone(),
        blocks: Vec::with_capacity(old.blocks.len()),
    };
    for ob in &old.blocks {
        let mut out = Vec::new();
        for instr in &ob.instrs {
            match instr {
                Instr::Call { dst, target, args } if cx.is_data_method(target.method()) => {
                    lower_facade_call(cx, &mut nb, &mut out, *dst, *target, args, true)?;
                }
                _ => out.push(instr.clone()),
            }
        }
        nb.blocks.push(Block {
            instrs: out,
            term: ob.term.clone(),
        });
    }
    Ok(nb)
}
