//! A text parser for the pretty-printed IR form.
//!
//! [`Program::parse`] reads the format [`Program::render`] emits and
//! rebuilds a [`Program`], closing the `render → parse` loop the compiler
//! pipeline's "parse" stage and the golden-corpus round-trip tests rely on.
//! Only *source* instruction forms (program `P`) are accepted: the paged
//! forms (`FacadeRuntime.*`, facade binds, `resolve`, conversions) are
//! generated by the transformation and never hand-written, so encountering
//! one is a [`ParseError`].
//!
//! The grammar is line-oriented and exactly what the printer produces:
//!
//! ```text
//! class Student extends Person implements Gradable {
//!   i32 id;
//!   static i32 read(Student) {
//!    locals: Student, i32
//!    bb0:
//!      v1 = v0.f0
//!      return v1
//!   }
//! }
//! entry Main::main
//! ```
//!
//! Blank lines and lines starting with `;;` are ignored, so golden files
//! may carry trailing commentary (the pipeline appends pool-bound footers).
//! Local, block and field indices are plain decimal, as printed: `v01`,
//! `bb+1` and `f+0` are errors. So are constants the printer would write
//! differently: `+5`, `007`, `-0`, `+5L`, `1e3f64`; and so is a second
//! `entry` line.
//!
//! The parser reads the text once, line by line, and builds the program as
//! it goes: classes and methods take their ids in declaration order, and a
//! name used above its declaration (a call into a class further down) gets
//! a placeholder id that is patched when the text ends. A malformed text
//! gets the first fault the reader meets: a bad line, a duplicate, a body
//! that closes unfinished or an unclosed class stops the parse there. A
//! name that is never declared is only known to be unknown when the text
//! ends; then the earliest first use of such a class or method is
//! reported, and after that an `entry` line that names neither.

use crate::class::{Block, Body, ClassDef, ClassKind, FieldDef, MethodDef};
use crate::instr::{BinOp, CallTarget, CmpOp, Instr, Terminator};
use crate::program::Program;
use crate::types::{BlockId, ClassId, Local, MethodId, Ty};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// A parse failure: the 1-based source line and a description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number the error was detected on.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.message)
    }
}

impl Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Marks a placeholder id: a class or method named above its declaration.
/// The low bits index the pending table.
const PENDING: u32 = 1 << 31;

/// A class name used above (or without) its declaration, with the line
/// of its first use and what it was read as there (`type` or `class`),
/// which its diagnostic names.
struct PendingClass<'a> {
    name: &'a str,
    line: usize,
    role: &'static str,
}

/// A method named above its declaration, with the line of its first use;
/// only bodies name methods.
struct PendingMethod<'a> {
    class: ClassId,
    name: &'a str,
    line: usize,
}

/// The method body being read.
struct Open {
    method: MethodId,
    header: usize,
    /// The locals, once the `locals:` line was read.
    locals: Option<Vec<Ty>>,
    /// The open block's label line, until its terminator.
    block: Option<usize>,
}

impl Program {
    /// Parses the textual form produced by [`Program::render`].
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] for malformed text, unknown class or method
    /// names, duplicate definitions, or any *paged* (generated-only)
    /// instruction form.
    pub fn parse(text: &str) -> Result<Program, ParseError> {
        Parser::default().run(text)
    }
}

#[derive(Default)]
struct Parser<'a> {
    program: Program,
    classes: HashMap<&'a str, ClassId>,
    methods: HashMap<(ClassId, &'a str), MethodId>,
    /// Names used above their declaration, in the order of first use.
    pending_classes: Vec<PendingClass<'a>>,
    pending_class_ids: HashMap<&'a str, ClassId>,
    pending_methods: Vec<PendingMethod<'a>>,
    pending_method_ids: HashMap<(ClassId, &'a str), MethodId>,
    /// Set when a placeholder is handed out: the definition being read
    /// then joins `dirty_classes` or `dirty_methods`, to be patched.
    forward: bool,
    dirty_classes: Vec<ClassId>,
    dirty_methods: Vec<MethodId>,
    /// The instruction line being read.
    line: &'a str,
    /// The open block's instructions and the open body's blocks; moved
    /// out at exact size when they close.
    instrs: Vec<Instr>,
    blocks: Vec<Block>,
}

impl<'a> Parser<'a> {
    fn run(mut self, text: &'a str) -> Result<Program, ParseError> {
        let mut class: Option<ClassId> = None;
        let mut open: Option<Open> = None;
        let mut entry = None;
        for (i, raw) in text.lines().enumerate() {
            let ln = i + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with(";;") {
                continue;
            }
            if let Some(body) = &mut open {
                if line == "}" {
                    let body = open.take().expect("a body is open");
                    self.close_body(body)?;
                } else {
                    self.body_line(body, ln, line)?;
                }
                continue;
            }
            let Some(c) = class else {
                if let Some(rest) = line.strip_prefix("entry ") {
                    if entry.is_some() {
                        return Err(err(ln, "duplicate `entry` line"));
                    }
                    let (c, m) = split_str(rest, "::")
                        .ok_or_else(|| err(ln, "entry expects `Class::method`"))?;
                    entry = Some((ln, c.trim(), m.trim()));
                } else if line.starts_with("class ") || line.starts_with("interface ") {
                    class = Some(self.class_header(ln, line)?);
                } else {
                    return Err(err(
                        ln,
                        format!("expected a class declaration, got `{line}`"),
                    ));
                }
                continue;
            };
            if line == "}" {
                class = None;
            } else if line.contains('(') {
                open = self.method_header(c, ln, line)?;
            } else if let Some(field) = line.strip_suffix(';') {
                let (ty, name) = field
                    .trim()
                    .rsplit_once(' ')
                    .ok_or_else(|| err(ln, "field expects `<type> <name>;`"))?;
                self.forward = false;
                let ty = self.ty(ty, ln)?;
                self.program.class_mut(c).fields.push(FieldDef {
                    name: name.trim().to_string(),
                    ty,
                });
                if self.forward {
                    self.dirty_classes.push(c);
                }
            } else {
                return Err(err(ln, format!("unexpected class member `{line}`")));
            }
        }
        if class.is_some() {
            return Err(err(text.lines().count(), "unexpected end of input"));
        }
        self.finish(entry)
    }

    fn class_header(&mut self, ln: usize, line: &'a str) -> Result<ClassId, ParseError> {
        let body = line
            .strip_suffix('{')
            .ok_or_else(|| err(ln, "class header must end with `{`"))?
            .trim();
        let (kw, rest) = body
            .split_once(' ')
            .ok_or_else(|| err(ln, "class header expects a name"))?;
        let mut name = rest.trim();
        let mut extends = None;
        let mut implements = None;
        if let Some((n, tail)) = split_str(name, " implements ") {
            implements = Some(tail);
            name = n.trim();
        }
        if let Some((n, sup)) = split_str(name, " extends ") {
            extends = Some(sup.trim());
            name = n.trim();
        }
        if name.is_empty() || name.contains(' ') {
            return Err(err(ln, format!("bad class name `{name}`")));
        }
        if self.classes.contains_key(name) {
            return Err(err(ln, format!("duplicate class `{name}`")));
        }
        let id = self.program.add_class(ClassDef {
            name: name.to_string(),
            kind: if kw == "interface" {
                ClassKind::Interface
            } else {
                ClassKind::Class
            },
            superclass: None,
            interfaces: Vec::new(),
            fields: Vec::new(),
            methods: Vec::new(),
        });
        self.classes.insert(name, id);
        self.forward = false;
        if let Some(sup) = extends {
            let sup = self.class_ref(sup, ln, "class");
            self.program.class_mut(id).superclass = Some(sup);
        }
        for iface in implements.into_iter().flat_map(|t| t.split(',')) {
            let iface = self.class_ref(iface.trim(), ln, "class");
            self.program.class_mut(id).interfaces.push(iface);
        }
        if self.forward {
            self.dirty_classes.push(id);
        }
        Ok(id)
    }

    /// Reads a method declaration of `class`; returns the body it opens,
    /// if it has one.
    fn method_header(
        &mut self,
        class: ClassId,
        ln: usize,
        line: &'a str,
    ) -> Result<Option<Open>, ParseError> {
        let has_body = line.ends_with('{');
        let mut s = line;
        if let Some(body) = s.strip_suffix('{') {
            s = body.trim_end();
        } else if let Some(decl) = s.strip_suffix(';') {
            s = decl.trim_end();
        } else {
            return Err(err(ln, "method must end with `{` or `;`"));
        }
        let is_static = s.starts_with("static ");
        if is_static {
            s = s["static ".len()..].trim_start();
        }
        let (ret_txt, rest) = s
            .split_once(' ')
            .ok_or_else(|| err(ln, "method expects `<ret> <name>(<params>)`"))?;
        let open = rest
            .find('(')
            .ok_or_else(|| err(ln, "method expects a parameter list"))?;
        let name = rest[..open].trim();
        let params_txt = rest[open + 1..]
            .strip_suffix(')')
            .ok_or_else(|| err(ln, "unclosed parameter list"))?;

        if self.methods.contains_key(&(class, name)) {
            return Err(err(
                ln,
                format!(
                    "duplicate method `{}::{name}` (overloads are not parseable)",
                    self.program.class(class).name
                ),
            ));
        }
        self.forward = false;
        let mut params = Vec::new();
        if !params_txt.trim().is_empty() {
            params.reserve(1 + params_txt.bytes().filter(|&b| b == b',').count());
            for p in params_txt.split(',') {
                params.push(self.ty(p, ln)?);
            }
        }
        let ret = match ret_txt {
            "void" => None,
            ty => Some(self.ty(ty, ln)?),
        };
        let id = self.program.add_method(MethodDef {
            name: name.to_string(),
            class,
            params,
            ret,
            is_static,
            body: None,
        });
        self.methods.insert((class, name), id);
        if self.forward {
            self.dirty_methods.push(id);
        }
        if !has_body {
            return Ok(None);
        }
        self.forward = false;
        self.instrs.clear();
        self.blocks.clear();
        Ok(Some(Open {
            method: id,
            header: ln,
            locals: None,
            block: None,
        }))
    }

    /// Reads one line of the open body.
    fn body_line(&mut self, open: &mut Open, ln: usize, line: &'a str) -> Result<(), ParseError> {
        if open.locals.is_none() {
            let Some(list) = line.strip_prefix("locals:") else {
                return Err(err(ln, "method body must start with a `locals:` line"));
            };
            let mut locals = Vec::new();
            if !list.trim().is_empty() {
                locals.reserve(1 + list.bytes().filter(|&b| b == b',').count());
                for t in list.split(',') {
                    locals.push(self.ty(t, ln)?);
                }
            }
            open.locals = Some(locals);
            return Ok(());
        }
        if open.block.is_none() {
            let Some(bb) = line.strip_prefix("bb").and_then(|r| r.strip_suffix(':')) else {
                return Err(err(ln, format!("expected a `bbN:` label, got `{line}`")));
            };
            let n: usize = index(bb).ok_or_else(|| err(ln, format!("bad block label `{line}`")))?;
            if n != self.blocks.len() {
                return Err(err(
                    ln,
                    format!("expected bb{}, got bb{n}", self.blocks.len()),
                ));
            }
            open.block = Some(ln);
            return Ok(());
        }
        match terminator(line, ln)? {
            Some(term) => {
                let instrs = self.instrs.drain(..).collect();
                self.blocks.push(Block {
                    instrs,
                    term: Some(term),
                });
                open.block = None;
            }
            None => {
                let instr = self.instr(line, ln)?;
                self.instrs.push(instr);
            }
        }
        Ok(())
    }

    fn close_body(&mut self, open: Open) -> Result<(), ParseError> {
        let Some(locals) = open.locals else {
            return Err(err(open.header, "empty method body"));
        };
        if let Some(label) = open.block {
            return Err(err(label, "block lacks a terminator"));
        }
        if self.blocks.is_empty() {
            return Err(err(open.header, "method body has no blocks"));
        }
        let blocks = self.blocks.drain(..).collect();
        self.program.method_mut(open.method).body = Some(Body { locals, blocks });
        if self.forward {
            self.dirty_methods.push(open.method);
        }
        Ok(())
    }

    /// The class named `name`, or a placeholder for it if it is not
    /// declared yet.
    fn class_ref(&mut self, name: &'a str, ln: usize, role: &'static str) -> ClassId {
        if let Some(&id) = self.classes.get(name) {
            return id;
        }
        self.forward = true;
        let next = ClassId(PENDING | self.pending_classes.len() as u32);
        let id = *self.pending_class_ids.entry(name).or_insert(next);
        if id == next {
            self.pending_classes.push(PendingClass {
                name,
                line: ln,
                role,
            });
        }
        id
    }

    /// The method `name` of `class`, or a placeholder for it if it is not
    /// declared yet.
    fn method_ref(&mut self, class: ClassId, name: &'a str, ln: usize) -> MethodId {
        if let Some(&id) = self.methods.get(&(class, name)) {
            return id;
        }
        self.forward = true;
        let next = MethodId(PENDING | self.pending_methods.len() as u32);
        let id = *self.pending_method_ids.entry((class, name)).or_insert(next);
        if id == next {
            self.pending_methods.push(PendingMethod {
                class,
                name,
                line: ln,
            });
        }
        id
    }

    fn ty(&mut self, s: &'a str, ln: usize) -> Result<Ty, ParseError> {
        let s = s.trim();
        if let Some(base) = s.strip_suffix("[]") {
            return Ok(Ty::array(self.ty(base, ln)?));
        }
        match s {
            "i32" => Ok(Ty::I32),
            "i64" => Ok(Ty::I64),
            "f64" => Ok(Ty::F64),
            "pageref" => Err(err(ln, "`pageref` is a generated form, not parseable")),
            _ if s.starts_with("facade<") => {
                Err(err(ln, "facade types are generated forms, not parseable"))
            }
            name => Ok(Ty::Ref(self.class_ref(name, ln, "type"))),
        }
    }

    /// Resolves every placeholder: the earliest use of a name never
    /// declared fails, then the entry line resolves, then the placeholders
    /// are patched.
    fn finish(mut self, entry: Option<(usize, &str, &str)>) -> Result<Program, ParseError> {
        let classes: Vec<Option<ClassId>> = self
            .pending_classes
            .iter()
            .map(|p| self.classes.get(p.name).copied())
            .collect();
        let real = |c: ClassId| {
            if c.0 & PENDING == 0 {
                Some(c)
            } else {
                classes[(c.0 & !PENDING) as usize]
            }
        };
        let methods: Vec<Option<MethodId>> = self
            .pending_methods
            .iter()
            .map(|p| {
                let class = real(p.class)?;
                self.methods.get(&(class, p.name)).copied()
            })
            .collect();

        // Both tables are in first-use order, so each one's first unknown
        // name is its earliest; on a shared line the class was read first.
        let unknown_class = self
            .pending_classes
            .iter()
            .zip(&classes)
            .find(|(_, resolved)| resolved.is_none())
            .map(|(p, _)| err(p.line, format!("unknown {} `{}`", p.role, p.name)));
        // A method of an unknown class is covered by that class's fault,
        // which is at this use or before it.
        let unknown_method = self
            .pending_methods
            .iter()
            .zip(&methods)
            .find_map(|(p, resolved)| {
                let class = &self.program.class(real(p.class)?).name;
                resolved
                    .is_none()
                    .then(|| err(p.line, format!("unknown method `{class}::{}`", p.name)))
            });
        if let Some(e) = unknown_class
            .into_iter()
            .chain(unknown_method)
            .min_by_key(|e| e.line)
        {
            return Err(e);
        }

        if let Some((ln, cname, mname)) = entry {
            let class = *self
                .classes
                .get(cname)
                .ok_or_else(|| err(ln, format!("unknown class `{cname}`")))?;
            let id = *self
                .methods
                .get(&(class, mname))
                .ok_or_else(|| err(ln, format!("unknown entry method `{cname}::{mname}`")))?;
            self.program.set_entry(id);
        }

        let class_of = |c: &mut ClassId| *c = real(*c).expect("unresolved names failed above");
        let method_of = |m: &mut MethodId| {
            if m.0 & PENDING != 0 {
                *m = methods[(m.0 & !PENDING) as usize].expect("unresolved names failed above");
            }
        };
        for &id in &self.dirty_classes {
            let def = self.program.class_mut(id);
            def.superclass.iter_mut().for_each(class_of);
            def.interfaces.iter_mut().for_each(class_of);
            for field in &mut def.fields {
                patch_ty(&mut field.ty, &class_of);
            }
        }
        for &id in &self.dirty_methods {
            let def = self.program.method_mut(id);
            def.params
                .iter_mut()
                .chain(&mut def.ret)
                .for_each(|t| patch_ty(t, &class_of));
            let Some(body) = &mut def.body else { continue };
            body.locals.iter_mut().for_each(|t| patch_ty(t, &class_of));
            for instr in body.blocks.iter_mut().flat_map(|b| &mut b.instrs) {
                match instr {
                    Instr::New { class, .. } | Instr::InstanceOf { class, .. } => class_of(class),
                    Instr::NewArray { elem, .. } => patch_ty(elem, &class_of),
                    Instr::Call { target, .. } => match target {
                        CallTarget::Static(m) | CallTarget::Virtual(m) | CallTarget::Special(m) => {
                            method_of(m)
                        }
                    },
                    _ => {}
                }
            }
        }
        Ok(self.program)
    }
}

fn patch_ty(ty: &mut Ty, class_of: &impl Fn(&mut ClassId)) {
    match ty {
        Ty::Ref(c) => class_of(c),
        Ty::Array(elem) => patch_ty(elem, class_of),
        _ => {}
    }
}

impl<'a> Parser<'a> {
    fn instr(&mut self, line: &'a str, ln: usize) -> Result<Instr, ParseError> {
        // Iteration markers are source forms (§3.6: user-inserted); every
        // other line rendered through a runtime call is generator-only.
        if line == "FacadeRuntime.iterationStart()" {
            return Ok(Instr::IterationStart);
        }
        if line == "FacadeRuntime.iterationEnd()" {
            return Ok(Instr::IterationEnd);
        }
        self.line = line;
        self.source_instr(line, ln)
            .map_err(|e| self.not_generated(ln).err().unwrap_or(e))
    }

    /// Rejects a paged form as if it were checked before anything else on
    /// its line: only a line that fails or names a class or method can hold
    /// one, so the scan runs on failure and before the first name lookup.
    fn not_generated(&self, ln: usize) -> Result<(), ParseError> {
        if is_generated(self.line) {
            return Err(err(
                ln,
                format!(
                    "paged (generated) instruction form is not parseable: `{}`",
                    self.line
                ),
            ));
        }
        Ok(())
    }

    fn source_instr(&mut self, line: &'a str, ln: usize) -> Result<Instr, ParseError> {
        if let Some(l) = line.strip_prefix("monitorenter ") {
            return Ok(Instr::MonitorEnter(local(l, ln)?));
        }
        if let Some(l) = line.strip_prefix("monitorexit ") {
            return Ok(Instr::MonitorExit(local(l, ln)?));
        }
        if let Some(l) = line.strip_prefix("print ") {
            return Ok(Instr::Print(local(l, ln)?));
        }
        // `lhs = rhs` statements; everything left without ` = ` is a void call.
        let Some((lhs, rhs)) = split_str(line, " = ") else {
            return self.call(line, None, ln);
        };
        let (lhs, rhs) = (lhs.trim(), rhs.trim());
        // The three targets exclude each other, so the common one goes first.
        if let Some(dst) = parse_local(lhs) {
            return self.rhs(dst, rhs, ln);
        }
        // `vA[vB] = vC`
        if let Some((arr, idx)) = split_index(lhs) {
            return Ok(Instr::ArraySet {
                arr,
                idx,
                src: local(rhs, ln)?,
            });
        }
        // `vA.fK = vB`
        if let Some((obj, field)) = split_field(lhs) {
            return Ok(Instr::SetField {
                obj,
                field,
                src: local(rhs, ln)?,
            });
        }
        Err(err(ln, format!("expected a local, got `{lhs}`")))
    }

    fn rhs(&mut self, dst: Local, rhs: &'a str, ln: usize) -> Result<Instr, ParseError> {
        // Constants, locals, `vA[vB]`, `vA.length` and `vA.fK` are one
        // token; every other form has a space after its first word.
        let Some((head, tail)) = rhs.split_once(' ') else {
            return token(dst, rhs, ln);
        };
        // `vA <Op> vB` — binary arithmetic or comparison, by operator name.
        // No other form starts with a local, so this one goes first.
        if let (Some(a), Some((op, b))) = (parse_local(head), tail.split_once(' ')) {
            if let Some(b) = parse_local(b) {
                if let Some(op) = bin_op(op) {
                    return Ok(Instr::Bin { dst, op, a, b });
                }
                if let Some(op) = cmp_op(op) {
                    return Ok(Instr::Cmp { dst, op, a, b });
                }
            }
        }
        if head == "cast" {
            return Ok(Instr::NumCast {
                dst,
                src: local(tail, ln)?,
            });
        }
        if head == "new" {
            self.not_generated(ln)?;
            // `new Elem[vN]` is an array allocation; `new Name` an object one.
            if let Some(open) = tail.rfind('[') {
                if let Some(len) = tail[open + 1..].strip_suffix(']').and_then(parse_local) {
                    let elem = self.ty(&tail[..open], ln)?;
                    return Ok(Instr::NewArray { dst, elem, len });
                }
            }
            let class = self.class_ref(tail.trim(), ln, "class");
            return Ok(Instr::New { dst, class });
        }
        if let Some((src, cname)) = split_str(rhs, " instanceof ") {
            let src = local(src, ln)?;
            self.not_generated(ln)?;
            let class = self.class_ref(cname.trim(), ln, "class");
            return Ok(Instr::InstanceOf { dst, src, class });
        }
        if matches!(head, "static" | "virtual" | "special") {
            return self.call(rhs, Some(dst), ln);
        }
        Err(err(ln, format!("unrecognized instruction `{rhs}`")))
    }

    fn call(&mut self, text: &'a str, dst: Option<Local>, ln: usize) -> Result<Instr, ParseError> {
        self.not_generated(ln)?;
        let (kind, rest) = text
            .split_once(' ')
            .ok_or_else(|| err(ln, format!("unrecognized instruction `{text}`")))?;
        let open = rest
            .find('(')
            .ok_or_else(|| err(ln, format!("call expects an argument list: `{text}`")))?;
        let target_txt = &rest[..open];
        let args_txt = rest[open + 1..]
            .strip_suffix(')')
            .ok_or_else(|| err(ln, "unclosed argument list"))?;
        let (cname, mname) = split_str(target_txt, "::").ok_or_else(|| {
            err(
                ln,
                format!("call expects `Class::method`, got `{target_txt}`"),
            )
        })?;
        let class = self.class_ref(cname.trim(), ln, "class");
        let method = self.method_ref(class, mname.trim(), ln);
        let target = match kind {
            "static" => CallTarget::Static(method),
            "virtual" => CallTarget::Virtual(method),
            "special" => CallTarget::Special(method),
            other => return Err(err(ln, format!("unknown call kind `{other}`"))),
        };
        let mut args = Vec::new();
        if !args_txt.trim().is_empty() {
            args.reserve(1 + args_txt.bytes().filter(|&b| b == b',').count());
            for a in args_txt.split(',') {
                args.push(local(a, ln)?);
            }
        }
        Ok(Instr::Call { dst, target, args })
    }
}

/// The one-token right-hand sides.
fn token(dst: Local, rhs: &str, ln: usize) -> Result<Instr, ParseError> {
    // No constant starts with `v`.
    if rhs.starts_with('v') {
        return source_operand(dst, rhs, ln);
    }
    if rhs == "null" {
        return Ok(Instr::ConstNull(dst));
    }
    if let Some(v) = rhs.strip_suffix('L').and_then(integer) {
        return Ok(Instr::ConstI64(dst, v));
    }
    if let Some(v) = rhs.strip_suffix("f64").and_then(float) {
        return Ok(Instr::ConstF64(dst, v));
    }
    if let Some(v) = integer(rhs) {
        return Ok(Instr::ConstI32(dst, v));
    }
    source_operand(dst, rhs, ln)
}

/// An integer constant as the printer writes it: no `+`, no leading zero,
/// no `-0`.
fn integer<T: std::str::FromStr>(text: &str) -> Option<T> {
    let digits = text.strip_prefix('-').unwrap_or(text);
    if digits.starts_with('+') || digits.starts_with('0') && text != "0" {
        return None;
    }
    text.parse().ok()
}

/// An `f64` constant as the printer writes it, which is how `Display`
/// prints it: `1e3`, `1.0` or `+1` parse, but print otherwise, so they are
/// rejected. The print is compared as it is produced, into no buffer.
fn float(text: &str) -> Option<f64> {
    struct Rest<'t>(&'t [u8]);
    impl std::fmt::Write for Rest<'_> {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            let rest = self.0.strip_prefix(s.as_bytes()).ok_or(std::fmt::Error)?;
            self.0 = rest;
            Ok(())
        }
    }
    let v = text.parse().ok()?;
    let mut rest = Rest(text.as_bytes());
    (std::fmt::write(&mut rest, format_args!("{v}")).is_ok() && rest.0.is_empty()).then_some(v)
}

/// `vA`, `vA[vB]`, `vA.length` or `vA.fK`.
fn source_operand(dst: Local, rhs: &str, ln: usize) -> Result<Instr, ParseError> {
    if let Some(src) = parse_local(rhs) {
        return Ok(Instr::Move { dst, src });
    }
    if let Some((arr, idx)) = split_index(rhs) {
        return Ok(Instr::ArrayGet { dst, arr, idx });
    }
    if let Some(arr) = rhs.strip_suffix(".length").and_then(parse_local) {
        return Ok(Instr::ArrayLen { dst, arr });
    }
    if let Some((obj, field)) = split_field(rhs) {
        return Ok(Instr::GetField { dst, obj, field });
    }
    Err(err(ln, format!("unrecognized instruction `{rhs}`")))
}

fn terminator(line: &str, ln: usize) -> Result<Option<Terminator>, ParseError> {
    if !matches!(line.as_bytes()[0], b'r' | b'g' | b'i') {
        return Ok(None);
    }
    if line == "return" {
        return Ok(Some(Terminator::Return(None)));
    }
    if let Some(v) = line.strip_prefix("return ") {
        return Ok(Some(Terminator::Return(Some(local(v, ln)?))));
    }
    if let Some(t) = line.strip_prefix("goto bb") {
        let n = index(t.trim()).ok_or_else(|| err(ln, format!("bad jump target `{line}`")))?;
        return Ok(Some(Terminator::Jump(BlockId(n))));
    }
    if let Some(rest) = line.strip_prefix("if ") {
        let (cond, rest) = split_str(rest, " then bb")
            .ok_or_else(|| err(ln, "branch expects `if vC then bbA else bbB`"))?;
        let (then_txt, else_txt) = split_str(rest, " else bb")
            .ok_or_else(|| err(ln, "branch expects `if vC then bbA else bbB`"))?;
        let target = |t: &str| {
            index(t.trim())
                .map(BlockId)
                .ok_or_else(|| err(ln, "bad branch target"))
        };
        let (then_bb, else_bb) = (target(then_txt)?, target(else_txt)?);
        return Ok(Some(Terminator::Branch {
            cond: local(cond, ln)?,
            then_bb,
            else_bb,
        }));
    }
    Ok(None)
}

/// Whether `line` contains a marker of a paged (generated-only) form:
/// `FacadeRuntime.`, `Pools.`, `resolve(`, `typeIdOf(`, `lockPool.`,
/// `.pageRef` or `convert`; one scan, keyed by each marker's first byte.
fn is_generated(line: &str) -> bool {
    let bytes = line.as_bytes();
    (0..bytes.len()).any(|i| {
        let marker: &[u8] = match bytes[i] {
            b'F' => b"FacadeRuntime.",
            b'P' => b"Pools.",
            b'r' => b"resolve(",
            b't' => b"typeIdOf(",
            b'l' => b"lockPool.",
            b'.' => b".pageRef",
            b'c' => b"convert",
            _ => return false,
        };
        bytes[i..].starts_with(marker)
    })
}

/// A local, block or field index as the printer writes it: decimal digits
/// with no sign and no leading zero.
fn index<T: TryFrom<u64>>(s: &str) -> Option<T> {
    let digits = s.as_bytes();
    if digits.is_empty() || (digits[0] == b'0' && digits.len() > 1) {
        return None;
    }
    let mut n: u64 = 0;
    for &d in digits {
        if !d.is_ascii_digit() {
            return None;
        }
        n = n.checked_mul(10)?.checked_add(u64::from(d - b'0'))?;
    }
    T::try_from(n).ok()
}

/// `s.split_once(pat)` by a plain scan: lines are short, and the library's
/// two-way searcher costs more to set up than the scan it saves.
fn split_str<'s>(s: &'s str, pat: &str) -> Option<(&'s str, &'s str)> {
    let (hay, needle) = (s.as_bytes(), pat.as_bytes());
    let at = (0..(hay.len() + 1).checked_sub(needle.len())?)
        .find(|&i| hay[i] == needle[0] && hay[i..].starts_with(needle))?;
    Some((&s[..at], &s[at + needle.len()..]))
}

fn parse_local(s: &str) -> Option<Local> {
    s.strip_prefix('v').and_then(index).map(Local)
}

fn local(s: &str, ln: usize) -> Result<Local, ParseError> {
    parse_local(s.trim()).ok_or_else(|| err(ln, format!("expected a local, got `{s}`")))
}

/// Splits `vA[vB]` into its two locals.
fn split_index(s: &str) -> Option<(Local, Local)> {
    let open = s.find('[')?;
    let inner = s[open + 1..].strip_suffix(']')?;
    Some((parse_local(&s[..open])?, parse_local(inner)?))
}

/// Splits `vA.fK` into `vA` and `K`.
fn split_field(s: &str) -> Option<(Local, usize)> {
    let (base, f) = split_str(s, ".f")?;
    let slot = index(f)?;
    Some((parse_local(base)?, slot))
}

fn bin_op(s: &str) -> Option<BinOp> {
    Some(match s {
        "Add" => BinOp::Add,
        "Sub" => BinOp::Sub,
        "Mul" => BinOp::Mul,
        "Div" => BinOp::Div,
        "Rem" => BinOp::Rem,
        "And" => BinOp::And,
        "Or" => BinOp::Or,
        "Xor" => BinOp::Xor,
        "Shl" => BinOp::Shl,
        "Shr" => BinOp::Shr,
        _ => return None,
    })
}

fn cmp_op(s: &str) -> Option<CmpOp> {
    Some(match s {
        "Eq" => CmpOp::Eq,
        "Ne" => CmpOp::Ne,
        "Lt" => CmpOp::Lt,
        "Le" => CmpOp::Le,
        "Gt" => CmpOp::Gt,
        "Ge" => CmpOp::Ge,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::instr::BinOp;
    use crate::types::Ty;

    fn sample() -> Program {
        let mut pb = ProgramBuilder::new();
        let node = pb
            .class("Node")
            .field("v", Ty::I32)
            .field("next", Ty::Ref(crate::types::ClassId(0)))
            .build();
        let main = pb.class("Main").build();
        let mut m = pb.method(main, "main").static_();
        let n = m.new_object(node);
        let one = m.const_i32(1);
        m.set_field(n, "v", one);
        let loop_bb = m.block();
        let done = m.block();
        m.jump(loop_bb);
        m.switch_to(loop_bb);
        let v = m.get_field(n, "v");
        let ten = m.const_i32(10);
        let cond = m.cmp(crate::instr::CmpOp::Lt, v, ten);
        let body_bb = m.block();
        m.branch(cond, body_bb, done);
        m.switch_to(body_bb);
        let v2 = m.get_field(n, "v");
        let inc = m.const_i32(1);
        let sum = m.bin(BinOp::Add, v2, inc);
        m.set_field(n, "v", sum);
        m.jump(loop_bb);
        m.switch_to(done);
        let fin = m.get_field(n, "v");
        m.print(fin);
        m.ret(None);
        let id = m.finish();
        let mut p = pb.finish();
        p.set_entry(id);
        p
    }

    #[test]
    fn render_parse_round_trip_is_stable() {
        let p = sample();
        let text = p.render();
        let q = Program::parse(&text).unwrap();
        assert_eq!(q.render(), text);
        q.verify().unwrap();
        assert!(q.entry().is_some());
    }

    #[test]
    fn parses_interfaces_virtual_calls_and_arrays() {
        let mut pb = ProgramBuilder::new();
        let shape = pb.interface("Shape").build();
        let area = pb.abstract_method(shape, "area", vec![], Some(Ty::I32));
        let circle = pb.class("Circle").implements(shape).build();
        let mut m = pb.method(circle, "area").returns(Ty::I32);
        let _ = m.this_local();
        let v = m.const_i32(9);
        m.ret(Some(v));
        m.finish();
        let main = pb.class("Main").build();
        let mut m = pb.method(main, "main").static_();
        let c = m.new_object(circle);
        let up = m.local(Ty::Ref(shape));
        m.move_(up, c);
        let a = m.call_virtual(area, vec![up]).unwrap();
        let len = m.const_i32(3);
        let arr = m.new_array(Ty::I32, len);
        let zero = m.const_i32(0);
        m.array_set(arr, zero, a);
        let back = m.array_get(arr, zero);
        let n = m.array_len(arr);
        let s = m.bin(BinOp::Add, back, n);
        m.print(s);
        m.ret(None);
        let id = m.finish();
        let mut p = pb.finish();
        p.set_entry(id);
        let text = p.render();
        let q = Program::parse(&text).unwrap();
        assert_eq!(q.render(), text);
        q.verify().unwrap();
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let p = sample();
        let text = format!(";; golden header\n\n{}\n;; bound Node = 1\n", p.render());
        let q = Program::parse(&text).unwrap();
        assert_eq!(q.render(), p.render());
    }

    #[test]
    fn unknown_class_is_an_error() {
        let text = "class A {\n  Missing f;\n}\n";
        let e = Program::parse(text).unwrap_err();
        assert!(e.message.contains("unknown type `Missing`"), "{e}");
        assert_eq!(e.line, 2);
    }

    #[test]
    fn paged_forms_are_rejected() {
        let text =
            "class A {\n  static void m() {\n   locals: pageref\n   bb0:\n     return\n  }\n}\n";
        let e = Program::parse(text).unwrap_err();
        assert!(e.message.contains("generated form"), "{e}");
        let text = "class A {\n  static void m() {\n   locals:\n   bb0:\n     v0 = FacadeRuntime.allocate(A_TypeId, A_RecordSize)\n     return\n  }\n}\n";
        let e = Program::parse(text).unwrap_err();
        assert!(e.message.contains("not parseable"), "{e}");
    }

    #[test]
    fn duplicate_methods_are_rejected() {
        let text = "class A {\n  void m();\n  void m();\n}\n";
        let e = Program::parse(text).unwrap_err();
        assert!(e.message.contains("overloads"), "{e}");
    }

    #[test]
    fn indices_are_read_only_as_printed() {
        let body = |line: &str| {
            format!(
                "class A {{\n  i32 x;\n  static void m() {{\n   locals: i32, A\n   bb0:\n     {line}\n     return\n  }}\n}}\n"
            )
        };
        assert!(Program::parse(&body("v1.f0 = v0")).is_ok());
        for line in [
            "v+0 = 5",
            "v00 = 5",
            "v1.f+0 = v0",
            "v1.f00 = v0",
            "goto bb+0",
            "goto bb00",
        ] {
            let e = Program::parse(&body(line)).unwrap_err();
            assert_eq!(e.line, 6, "{line}: {e}");
        }
    }

    #[test]
    fn constants_are_read_only_as_printed() {
        let body = |line: &str| {
            format!(
                "class A {{\n  static void m() {{\n   locals: i32\n   bb0:\n     {line}\n     return\n  }}\n}}\n"
            )
        };
        for v in [
            "0",
            "-2147483648",
            "2147483647",
            "-9223372036854775808L",
            "0L",
            "-0f64",
            "0.1f64",
            &format!("{}f64", f64::MIN_POSITIVE / 4.0),
            "NaNf64",
            "-inff64",
            &format!("{}f64", 1e300),
        ] {
            let text = body(&format!("v0 = {v}"));
            assert_eq!(Program::parse(&text).unwrap().render(), text);
        }
        for v in [
            "+5",
            "007",
            "-0",
            "+5L",
            "-0L",
            "1e3f64",
            "+1f64",
            "1.0f64",
            "2147483648",
        ] {
            let e = Program::parse(&body(&format!("v0 = {v}"))).unwrap_err();
            assert_eq!(e.line, 5, "{v}: {e}");
        }
    }

    #[test]
    fn names_resolve_across_the_text() {
        let text = "class A {\n  B f;\n  static void m() {\n   locals: B\n   bb0:\n     v0 = static B::make()\n     return\n  }\n}\nclass B {\n  static B make() {\n   locals: B\n   bb0:\n     v0 = new B\n     return v0\n  }\n}\n";
        let p = Program::parse(text).unwrap();
        assert_eq!(p.render(), text);
        p.verify().unwrap();
        let text = text.replace("B::make()", "B::gone()");
        let e = Program::parse(&text).unwrap_err();
        assert_eq!(
            (e.line, e.message.as_str()),
            (6, "unknown method `B::gone`")
        );
    }

    #[test]
    fn entry_resolves_by_name() {
        let text = "class Main {\n  static void go() {\n   locals:\n   bb0:\n     return\n  }\n}\nentry Main::go\n";
        let p = Program::parse(text).unwrap();
        let entry = p.entry().unwrap();
        assert_eq!(p.method(entry).name, "go");
        let e = Program::parse(&text.replace("Main::go\n", "Main::gone\n")).unwrap_err();
        assert_eq!(
            (e.line, e.message.as_str()),
            (8, "unknown entry method `Main::gone`")
        );
    }

    #[test]
    fn a_second_entry_line_is_an_error() {
        let text = "class Main {\n  static void go() {\n   locals:\n   bb0:\n     return\n  }\n}\nentry Main::go\nentry Main::go\n";
        let e = Program::parse(text).unwrap_err();
        assert_eq!((e.line, e.message.as_str()), (9, "duplicate `entry` line"));
    }

    #[test]
    fn the_first_fault_met_is_reported() {
        let fault = |text: &str| {
            let e = Program::parse(text).unwrap_err();
            (e.line, e.message)
        };
        // A body fault below an undeclared type used higher up: the body
        // fault is met first, the type is unknown only at the end.
        let text = "class A {\n  Missing f;\n  static void m() {\n   locals: i32\n   bb0:\n     v0 = what\n     return\n  }\n}\n";
        assert_eq!(fault(text), (6, "unrecognized instruction `what`".into()));
        // An undeclared name on its own is reported at its first use.
        let text = text.replace("v0 = what", "v0 = new Missing");
        assert_eq!(fault(&text), (2, "unknown type `Missing`".into()));
        // Of an unknown method and an unknown class, the one used first.
        let method_first = "class A {\n  static void m() {\n   locals:\n   bb0:\n     static B::gone()\n     return\n  }\n}\nclass B extends Gone {\n}\n";
        assert_eq!(fault(method_first), (5, "unknown method `B::gone`".into()));
        let class_first = "class B extends Gone {\n}\nclass A {\n  static void m() {\n   locals:\n   bb0:\n     static B::gone()\n     return\n  }\n}\n";
        assert_eq!(fault(class_first), (1, "unknown class `Gone`".into()));
    }
}
