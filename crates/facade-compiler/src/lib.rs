//! The FACADE compiler.
//!
//! Given a program `P` and a user-provided list of *data classes* (§3: "a
//! user needs to provide a list of data classes that form the data path"),
//! the compiler produces a program `P'` in which:
//!
//! - every data record lives in paged native memory ([`facade_runtime`]),
//! - heap objects for data types are reduced to a statically bounded pool of
//!   *facades* per thread, and
//! - data crossing the control/data boundary is converted by synthesized
//!   conversion functions at *interaction points* (§3.5).
//!
//! The pipeline matches the paper:
//!
//! 1. closed-world checks — validate the reference- and type-closed-world
//!    assumptions (§3.1) over the whole program; violations are errors.
//! 2. reachability cut — methods the entry point cannot reach keep their
//!    declarations but lose their bodies (Soot's whole-program mode also
//!    starts from the entry point). Without an entry point nothing is cut.
//! 3. hierarchy generation — facade classes, record type IDs and layouts
//!    (§3.2) for the data classes the live code names.
//! 4. bound computation — per-type facade-pool bounds from every live call
//!    site (§3.3).
//! 5. [`transform`] (this crate's entry point) — rewrite instructions per
//!    Table 1: data-path methods become facade methods over page
//!    references; control-path call sites into the data path get
//!    conversions inserted.
//!
//! On top of the core transformation, the [`pipeline`] module drives the
//! whole multi-stage flow (parse → verify → transform → optimization
//! [`passes`] → re-verify) with per-stage IR snapshots, and [`corpus`]
//! loads the golden programs the snapshot and equivalence tests pin; the
//! corpus is the checked-in text `golden/<name>/source.ir`. See
//! `docs/COMPILER.md` for the stage-by-stage architecture.
//!
//! # Examples
//!
//! ```
//! use facade_compiler::{DataSpec, transform};
//! use facade_ir::{ProgramBuilder, Ty};
//!
//! let mut pb = ProgramBuilder::new();
//! let point = pb.class("Point").field("x", Ty::I32).build();
//! let mut get_x = pb.method(point, "getX").returns(Ty::I32);
//! let this = get_x.this_local();
//! let x = get_x.get_field(this, "x");
//! get_x.ret(Some(x));
//! get_x.finish();
//! let program = pb.finish();
//!
//! let out = transform(&program, &DataSpec::new(["Point"]))?;
//! assert_eq!(out.meta.data_classes.len(), 1);
//! assert!(out.program.class_by_name("Point$Facade").is_some());
//! # Ok::<(), facade_compiler::CompileError>(())
//! ```

#![deny(missing_docs)]

mod bounds;
mod closed_world;
pub mod corpus;
mod devirt;
mod error;
mod hierarchy;
mod meta;
pub mod passes;
pub mod pipeline;
mod report;
mod transform;

pub use devirt::{DevirtReport, devirtualize};
pub use error::CompileError;
pub use hierarchy::{elem_kind, field_kind};
pub use meta::PagedMeta;
pub use passes::{EpochStats, FastAllocStats, PassConfig, PromoteStats};
pub use pipeline::{
    Compiled, PassStats, PipelineError, Stage, StageRender, compile, compile_text,
    render_with_bounds,
};
pub use report::TransformReport;

use facade_ir::{ClassId, Instr, MethodId, Program, Ty};
use std::collections::BTreeSet;
use std::time::Instant;

/// The user's specification of the data path: the list of data classes
/// (by name) to be transformed.
#[derive(Debug, Clone, Default)]
pub struct DataSpec {
    names: BTreeSet<String>,
}

impl DataSpec {
    /// Creates a spec from class names.
    pub fn new<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Self {
            names: names.into_iter().map(Into::into).collect(),
        }
    }

    /// Adds a class name.
    pub fn add(&mut self, name: &str) -> &mut Self {
        self.names.insert(name.to_string());
        self
    }

    /// The specified names, sorted.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.names.iter().map(String::as_str)
    }

    /// Number of specified classes.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Returns `true` if no classes are specified.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// The result of a transformation: the generated program `P'`, the metadata
/// the runtime needs (type IDs, layouts, pool bounds), and a report with the
/// paper's compilation-speed statistics.
#[derive(Debug)]
pub struct TransformOutput {
    /// The transformed program. Control-path methods are rewritten in place;
    /// facade classes and methods are appended; the original data-path
    /// method bodies remain but become unreachable. A method unreachable
    /// from the entry point in `P` keeps only its declaration, and so does
    /// its facade counterpart; every [`facade_ir::MethodId`] of `P` still
    /// names the same method.
    pub program: Program,
    /// Runtime metadata for `P'`.
    pub meta: PagedMeta,
    /// The `P'` methods the entry point reaches, a data-path method as its
    /// facade counterpart (empty without an entry point).
    pub reachable: BTreeSet<MethodId>,
    /// Transformation statistics.
    pub report: TransformReport,
}

/// Runs the full FACADE transformation on `program`.
///
/// # Errors
///
/// Returns a [`CompileError`] when the spec names an unknown class or when a
/// closed-world assumption is violated (§3.1: "FACADE checks these two
/// assumptions before transformation and reports compilation errors upon
/// violations").
pub fn transform(program: &Program, spec: &DataSpec) -> Result<TransformOutput, CompileError> {
    let start = Instant::now();
    let data_classes = closed_world::check(program, spec)?;
    let mut program = program.clone();
    let instructions_before = program.instr_count();
    // The one reachability walk; without an entry point all of it is live.
    let reachable = program.entry().map(|_| passes::reachable_methods(&program));
    let (mut methods_cut, mut instructions_cut, mut reached) = (0, 0, data_classes);
    if let Some(live) = &reachable {
        (methods_cut, instructions_cut) = cut_unreachable(&mut program, live);
        reached = reached_data_classes(&program, &reached, live);
    }
    let mut meta = hierarchy::generate(&mut program, &reached);
    bounds::compute(&program, &mut meta);
    let ip_count = transform::run(&mut program, &mut meta)?;
    let devirt = devirt::devirtualize(&mut program);
    // A reached data-path method runs as its facade counterpart in `P'`.
    let reachable = reachable
        .unwrap_or_default()
        .into_iter()
        .map(|m| meta.method_map.get(&m).copied().unwrap_or(m))
        .collect();
    let duration = start.elapsed();
    let report = TransformReport {
        classes_transformed: meta.data_classes.len(),
        methods_transformed: meta.method_map.len(),
        methods_cut,
        instructions_transformed: instructions_before - instructions_cut,
        interaction_points: ip_count,
        devirtualized_calls: devirt.devirtualized,
        duration,
    };
    Ok(TransformOutput {
        program,
        meta,
        reachable,
        report,
    })
}

/// Strips the body of every method outside `reachable` and returns how
/// many methods and instructions went.
fn cut_unreachable(program: &mut Program, reachable: &BTreeSet<MethodId>) -> (usize, usize) {
    let dead: Vec<(MethodId, usize)> = program
        .methods()
        .filter(|(id, _)| !reachable.contains(id))
        .filter_map(|(id, def)| Some((id, def.body.as_ref()?.instr_count())))
        .collect();
    for &(m, _) in &dead {
        program.remove_body(m);
    }
    (dead.len(), dead.iter().map(|&(_, n)| n).sum())
}

/// The class a value of type `ty` (or, through arrays, its elements) is an
/// instance of.
fn class_of(ty: &Ty) -> Option<ClassId> {
    match ty {
        Ty::Ref(c) => Some(*c),
        Ty::Array(elem) => class_of(elem),
        _ => None,
    }
}

/// The data classes reachable code names — a reached method's class, its
/// signature and local types, and the classes of `new`, `instanceof` and
/// new arrays — closed over superclasses, subclasses and data-typed fields.
/// Every method of a data class or interface keeps a facade counterpart, so
/// the closure also takes in their signature types and interfaces.
fn reached_data_classes(
    program: &Program,
    data: &BTreeSet<ClassId>,
    reachable: &BTreeSet<MethodId>,
) -> BTreeSet<ClassId> {
    let mut named: Vec<ClassId> = Vec::new();
    for &m in reachable {
        let def = program.method(m);
        named.push(def.class);
        named.extend(def.params.iter().chain(&def.ret).filter_map(class_of));
        let Some(body) = &def.body else { continue };
        named.extend(body.locals.iter().filter_map(class_of));
        for instr in body.blocks.iter().flat_map(|b| &b.instrs) {
            match instr {
                Instr::New { class, .. } | Instr::InstanceOf { class, .. } => named.push(*class),
                Instr::NewArray { elem, .. } => named.extend(class_of(elem)),
                _ => {}
            }
        }
    }
    let mut seen = BTreeSet::new();
    while let Some(c) = named.pop() {
        let def = program.class(c);
        if !seen.insert(c) || !(data.contains(&c) || def.is_interface()) {
            continue;
        }
        named.extend(def.superclass);
        named.extend(&def.interfaces);
        named.extend(program.direct_subtypes(c));
        named.extend(def.fields.iter().filter_map(|f| class_of(&f.ty)));
        for &m in &def.methods {
            let sig = program.method(m);
            named.extend(sig.params.iter().chain(&sig.ret).filter_map(class_of));
        }
    }
    seen.retain(|c| data.contains(c));
    seen
}

#[cfg(test)]
mod tests {
    use super::*;
    use facade_ir::Instr;

    fn without_entry(program: &Program) -> Program {
        let text = program.render();
        let (body, _entry_line) = text.rsplit_once("entry ").expect("corpus entries have one");
        Program::parse(body).expect("a render parses back")
    }

    /// The conversions in `program`'s bodies.
    fn conversions(program: &Program) -> usize {
        program
            .methods()
            .filter_map(|(_, def)| def.body.as_ref())
            .flat_map(|body| &body.blocks)
            .flat_map(|block| &block.instrs)
            .filter(|i| matches!(i, Instr::ConvertToHeap { .. } | Instr::ConvertToPage { .. }))
            .count()
    }

    #[test]
    fn a_program_without_an_entry_point_compiles_whole() {
        for entry in corpus::all() {
            let program = without_entry(&entry.program);
            assert!(program.entry().is_none());
            let out = transform(&program, &entry.spec).unwrap();
            for (m, def) in program.methods() {
                assert_eq!(
                    out.program.method(m).body.is_some(),
                    def.body.is_some(),
                    "{}: {}",
                    entry.name,
                    program.render_method(m)
                );
            }
            assert_eq!(out.report.methods_cut, 0, "{}", entry.name);
            assert_eq!(
                out.report.interaction_points,
                conversions(&out.program),
                "{}",
                entry.name
            );
            assert_eq!(
                out.report.instructions_transformed,
                program.instr_count(),
                "{}",
                entry.name
            );
        }
        // figure2's counts as they were before the cut existed, then with
        // its entry point: `take3` (1 instruction) and `unusedHelper` (3)
        // are cut.
        let entry = corpus::figure2();
        let counts = |r: &TransformReport| {
            (
                r.classes_transformed,
                r.methods_transformed,
                r.methods_cut,
                r.instructions_transformed,
                r.interaction_points,
                r.devirtualized_calls,
            )
        };
        let whole = transform(&without_entry(&entry.program), &entry.spec).unwrap();
        assert_eq!(counts(&whole.report), (1, 2, 0, 29, 0, 0));
        let cut = transform(&entry.program, &entry.spec).unwrap();
        assert_eq!(counts(&cut.report), (1, 2, 2, 25, 0, 0));
    }
}
