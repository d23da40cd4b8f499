//! The deterministic multi-stage compilation pipeline.
//!
//! [`compile`] (and its textual twin [`compile_text`]) drives the paper's
//! whole loop on the compile side:
//!
//! ```text
//! parse/build IR → verify P → closed-world + hierarchy + bounds +
//! reachability cut + Table 1 transform + devirt → re-verify P' →
//! optimization passes (epoch, promote, fastalloc; each re-verified) →
//! P' + metadata
//! ```
//!
//! Every stage records a snapshot of the program (plus the facade-pool
//! bounds once they exist) and its wall-clock duration. A snapshot is a
//! [`Program`] clone — it shares every class and method definition with the
//! program the later stages keep editing, and a pass copies only the
//! definitions it rewrites — so taking one costs reference-count bumps, not
//! a copy of the IR. The pretty-printed text is produced on the first read
//! of [`Stage::render`] and kept; a compile whose text nobody reads renders
//! nothing. The golden tests in `tests/golden.rs` pin that text, and the
//! `compile_run` workload of `benchmark/` reports the durations as its
//! `facade_compiler.*` per-layer metrics. Executing the resulting `P` / `P'`
//! pair — and proving their outputs identical — is the runtime half of the
//! loop, in `facade_vm::run_dual`.

use crate::error::CompileError;
use crate::meta::PagedMeta;
use crate::passes::{self, EpochStats, FastAllocStats, PassConfig, PromoteStats};
use crate::report::TransformReport;
use crate::{DataSpec, transform};
use facade_ir::{ClassId, ParseError, Program, VerifyError};
use std::error::Error;
use std::fmt;
use std::ops::Deref;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// One pipeline stage's evidence: its name, the IR snapshot after it ran,
/// and how long it took.
#[derive(Debug, Clone)]
pub struct Stage {
    /// Stage name (`source`, `transformed`, `pass_epoch`, `pass_promote`,
    /// `pass_fastalloc`); also the golden snapshot's file stem.
    pub name: &'static str,
    /// Pretty-printed program after the stage, with a `;; bound` footer
    /// once pool bounds exist. Rendered on first read.
    pub render: StageRender,
    /// Wall-clock duration of the stage (snapshot included, rendering not).
    pub duration: Duration,
}

/// A stage's IR text, rendered from its snapshot on first read.
///
/// Dereferences to `str` (so `stage.render.lines()`, `.contains(..)` and
/// `&*stage.render` all work) and prints through `Display`. Every read
/// returns the same text; a clone renders identically.
#[derive(Clone)]
pub struct StageRender {
    program: Program,
    /// Footer lines: each data class with its pool bound, in type-ID
    /// order. Empty for the `source` stage, which has no bounds yet.
    bounds: Vec<(ClassId, u16)>,
    text: OnceLock<String>,
}

impl StageRender {
    fn snapshot(program: &Program, meta: Option<&PagedMeta>) -> Self {
        Self {
            program: program.clone(),
            bounds: meta.map(bounds_footer).unwrap_or_default(),
            text: OnceLock::new(),
        }
    }
}

impl Deref for StageRender {
    type Target = str;

    fn deref(&self) -> &str {
        self.text
            .get_or_init(|| render_text(&self.program, &self.bounds))
    }
}

impl fmt::Display for StageRender {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self)
    }
}

impl fmt::Debug for StageRender {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Per-pass statistics; `None` when the pass was disabled.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassStats {
    /// Epoch insertion.
    pub epoch: Option<EpochStats>,
    /// Non-escaping record promotion.
    pub promote: Option<PromoteStats>,
    /// Bump-pointer hints.
    pub fastalloc: Option<FastAllocStats>,
}

/// The pipeline's product: `P`, `P'`, runtime metadata, and the per-stage
/// evidence trail.
#[derive(Debug)]
pub struct Compiled {
    /// The verified source program `P`.
    pub source: Program,
    /// The transformed, optimized, re-verified program `P'`.
    pub transformed: Program,
    /// Runtime metadata (type IDs, layouts, pool bounds).
    pub meta: PagedMeta,
    /// The Table 1 transformation's own statistics.
    pub report: TransformReport,
    /// Snapshot + duration per stage, in execution order.
    pub stages: Vec<Stage>,
    /// What each enabled optimization pass did.
    pub passes: PassStats,
}

impl Compiled {
    /// The snapshot of stage `name`, if that stage ran.
    pub fn stage(&self, name: &str) -> Option<&Stage> {
        self.stages.iter().find(|s| s.name == name)
    }
}

/// A pipeline failure, tagged with the stage that detected it.
#[derive(Debug)]
pub enum PipelineError {
    /// The textual form did not parse.
    Parse(ParseError),
    /// A program failed verification at the named stage.
    Verify {
        /// The stage whose output failed to verify.
        stage: &'static str,
        /// The verifier's rejection.
        error: VerifyError,
    },
    /// The Table 1 transformation rejected the program.
    Compile(CompileError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Parse(e) => write!(f, "{e}"),
            PipelineError::Verify { stage, error } => {
                write!(f, "verification failed after stage `{stage}`: {error}")
            }
            PipelineError::Compile(e) => write!(f, "{e}"),
        }
    }
}

impl Error for PipelineError {}

impl From<ParseError> for PipelineError {
    fn from(e: ParseError) -> Self {
        PipelineError::Parse(e)
    }
}

impl From<CompileError> for PipelineError {
    fn from(e: CompileError) -> Self {
        PipelineError::Compile(e)
    }
}

fn bounds_footer(meta: &PagedMeta) -> Vec<(ClassId, u16)> {
    meta.data_classes
        .iter()
        .map(|&class| {
            let tid = facade_runtime::TypeId(meta.type_id(class));
            (class, meta.bounds.bound(tid))
        })
        .collect()
}

fn render_text(program: &Program, bounds: &[(ClassId, u16)]) -> String {
    use std::fmt::Write;
    let mut out = program.render();
    for &(class, bound) in bounds {
        writeln!(out, ";; bound {} = {bound}", program.class(class).name)
            .expect("writing to a String cannot fail");
    }
    out
}

/// Renders `program` with a `;; bound <Class> = N` footer per data class,
/// so the bounds are pinned in golden snapshots.
pub fn render_with_bounds(program: &Program, meta: &PagedMeta) -> String {
    render_text(program, &bounds_footer(meta))
}

/// Runs the full pipeline on an already-built program.
///
/// # Errors
///
/// [`PipelineError::Verify`] if `P` or any stage's output fails the type
/// checker, [`PipelineError::Compile`] if the transformation rejects the
/// program.
pub fn compile(
    source: &Program,
    spec: &DataSpec,
    config: &PassConfig,
) -> Result<Compiled, PipelineError> {
    compile_owned(source.clone(), spec, config)
}

fn compile_owned(
    source: Program,
    spec: &DataSpec,
    config: &PassConfig,
) -> Result<Compiled, PipelineError> {
    let mut stages = Vec::new();
    // Closes a stage: the verifier on its output, then the snapshot, both
    // inside the stage's duration.
    let mut stage = |name: &'static str,
                     program: &Program,
                     meta: Option<&PagedMeta>,
                     start: Instant|
     -> Result<(), PipelineError> {
        program
            .verify()
            .map_err(|error| PipelineError::Verify { stage: name, error })?;
        stages.push(Stage {
            name,
            render: StageRender::snapshot(program, meta),
            duration: start.elapsed(),
        });
        Ok(())
    };

    let start = Instant::now();
    stage("source", &source, None, start)?;

    let start = Instant::now();
    let out = transform(&source, spec)?;
    let mut program = out.program;
    let meta = out.meta;
    let report = out.report;
    stage("transformed", &program, Some(&meta), start)?;

    let mut pass_stats = PassStats::default();
    if config.epoch {
        let start = Instant::now();
        pass_stats.epoch = Some(passes::epoch(&mut program, &out.reachable));
        stage("pass_epoch", &program, Some(&meta), start)?;
    }
    if config.promote {
        let start = Instant::now();
        pass_stats.promote = Some(passes::promote(&mut program));
        stage("pass_promote", &program, Some(&meta), start)?;
    }
    if config.fastalloc {
        let start = Instant::now();
        pass_stats.fastalloc = Some(passes::fastalloc(&mut program));
        stage("pass_fastalloc", &program, Some(&meta), start)?;
    }

    Ok(Compiled {
        source,
        transformed: program,
        meta,
        report,
        stages,
        passes: pass_stats,
    })
}

/// Parses the textual IR form, then runs [`compile`] — the `facadec` entry
/// point. The parsed program becomes [`Compiled::source`] as is.
///
/// # Errors
///
/// Everything [`compile`] returns, plus [`PipelineError::Parse`].
pub fn compile_text(
    text: &str,
    spec: &DataSpec,
    config: &PassConfig,
) -> Result<Compiled, PipelineError> {
    compile_owned(Program::parse(text)?, spec, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus;

    #[test]
    fn pipeline_runs_all_stages_on_the_corpus() {
        for entry in corpus::all() {
            let compiled = compile(&entry.program, &entry.spec, &PassConfig::all())
                .unwrap_or_else(|e| panic!("{} failed: {e}", entry.name));
            let names: Vec<&str> = compiled.stages.iter().map(|s| s.name).collect();
            assert_eq!(
                names,
                [
                    "source",
                    "transformed",
                    "pass_epoch",
                    "pass_promote",
                    "pass_fastalloc"
                ],
                "{}",
                entry.name
            );
            compiled.transformed.verify().unwrap();
        }
    }

    #[test]
    fn disabled_passes_leave_no_stage() {
        let entry = corpus::figure2();
        let compiled = compile(&entry.program, &entry.spec, &PassConfig::none()).unwrap();
        assert!(compiled.stage("pass_epoch").is_none());
        assert!(compiled.stage("transformed").is_some());
        assert!(compiled.passes.epoch.is_none());
    }

    #[test]
    fn no_stage_is_rendered_until_read() {
        for entry in corpus::all() {
            let compiled = compile(&entry.program, &entry.spec, &PassConfig::all()).unwrap();
            for stage in &compiled.stages {
                assert!(stage.render.text.get().is_none(), "{}", stage.name);
            }
        }
    }

    #[test]
    fn snapshots_keep_the_text_of_their_stage_after_later_passes_ran() {
        // Copy-on-write is not aliasing: every pass below has already
        // rewritten `churn` by the time the earlier snapshots are read.
        let entry = corpus::epoch_scratch();
        let all = compile(&entry.program, &entry.spec, &PassConfig::all()).unwrap();
        let none = compile(&entry.program, &entry.spec, &PassConfig::none()).unwrap();
        let text = |c: &Compiled, stage: &str| c.stage(stage).unwrap().render.to_string();
        assert_eq!(text(&all, "source"), entry.program.render());
        assert_eq!(text(&all, "transformed"), text(&none, "transformed"));
        assert!(!text(&all, "transformed").contains("iterationStart"));
        assert!(text(&all, "pass_epoch").contains("iterationStart"));
        assert!(!text(&all, "pass_promote").contains("allocateFast"));
        assert!(text(&all, "pass_fastalloc").contains("allocateFast"));
        assert_eq!(
            text(&all, "pass_fastalloc"),
            render_with_bounds(&all.transformed, &all.meta)
        );
    }

    #[test]
    fn a_render_reads_the_same_str_every_time_and_clones_identically() {
        let entry = corpus::figure2();
        let compiled = compile(&entry.program, &entry.spec, &PassConfig::all()).unwrap();
        let stage = compiled.stage("pass_epoch").unwrap();
        let unread = stage.clone();
        let first: &str = &stage.render;
        let second: &str = &stage.render;
        assert!(std::ptr::eq(first, second));
        let read = stage.clone();
        assert_eq!(*unread.render, *first);
        assert_eq!(*read.render, *first);
        assert_eq!(format!("{}", stage.render), first);
        assert_eq!(format!("{:?}", stage.render), format!("{first:?}"));
    }

    #[test]
    fn text_round_trip_feeds_the_pipeline() {
        let entry = corpus::figure2();
        let text = entry.program.render();
        let compiled = compile_text(&text, &entry.spec, &PassConfig::all()).unwrap();
        assert_eq!(compiled.source.render(), text);
    }
}
