//! The deterministic multi-stage compilation pipeline.
//!
//! [`compile`] (and its textual twin [`compile_text`]) drives the paper's
//! whole loop on the compile side:
//!
//! ```text
//! parse/build IR → verify P → closed-world + hierarchy + bounds +
//! Table 1 transform + devirt → re-verify P' → optimization passes
//! (epoch, promote, fastalloc; each re-verified) → P' + metadata
//! ```
//!
//! Every stage records a pretty-printed snapshot of the program (plus the
//! facade-pool bounds once they exist) and its wall-clock duration; the
//! golden tests in `tests/golden.rs` pin those snapshots, and the
//! `compile_run` workload of `benchmark/` reports the durations as its
//! `facade_compiler.*` per-layer metrics. Executing the resulting `P` / `P'`
//! pair — and proving their outputs identical — is the runtime half of the
//! loop, in `facade_vm::run_dual`.

use crate::error::CompileError;
use crate::meta::PagedMeta;
use crate::passes::{self, EpochStats, FastAllocStats, PassConfig, PromoteStats};
use crate::report::TransformReport;
use crate::{DataSpec, transform};
use facade_ir::{ParseError, Program, VerifyError};
use std::error::Error;
use std::fmt;
use std::time::{Duration, Instant};

/// One pipeline stage's evidence: its name, the IR snapshot after it ran,
/// and how long it took.
#[derive(Debug, Clone)]
pub struct Stage {
    /// Stage name (`source`, `transformed`, `pass_epoch`, `pass_promote`,
    /// `pass_fastalloc`); also the golden snapshot's file stem.
    pub name: &'static str,
    /// Pretty-printed program after the stage, with a `;; bound` footer
    /// once pool bounds exist.
    pub render: String,
    /// Wall-clock duration of the stage.
    pub duration: Duration,
}

/// Per-pass statistics; `None` when the pass was disabled.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassStats {
    /// Bound shrinking + epoch insertion.
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
    /// Runtime metadata (type IDs, layouts, possibly shrunk pool bounds).
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

/// Renders `program` with a `;; bound <Class> = N` footer per data class,
/// so bound-shrinking is visible in golden snapshots.
pub fn render_with_bounds(program: &Program, meta: &PagedMeta) -> String {
    use std::fmt::Write;
    let mut out = program.render();
    for &class in &meta.data_classes {
        let tid = meta.type_id(class);
        writeln!(
            out,
            ";; bound {} = {}",
            program.class(class).name,
            meta.bounds.bound(facade_runtime::TypeId(tid))
        )
        .unwrap();
    }
    out
}

fn verified(program: &Program, stage: &'static str) -> Result<(), PipelineError> {
    program
        .verify()
        .map_err(|error| PipelineError::Verify { stage, error })
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
    let mut stages = Vec::new();

    let start = Instant::now();
    verified(source, "source")?;
    stages.push(Stage {
        name: "source",
        render: source.render(),
        duration: start.elapsed(),
    });

    let start = Instant::now();
    let out = transform(source, spec)?;
    let mut program = out.program;
    let mut meta = out.meta;
    let report = out.report;
    verified(&program, "transformed")?;
    stages.push(Stage {
        name: "transformed",
        render: render_with_bounds(&program, &meta),
        duration: start.elapsed(),
    });

    let mut pass_stats = PassStats::default();
    if config.epoch {
        let start = Instant::now();
        let stats = passes::epoch(&mut program, &mut meta);
        verified(&program, "pass_epoch")?;
        stages.push(Stage {
            name: "pass_epoch",
            render: render_with_bounds(&program, &meta),
            duration: start.elapsed(),
        });
        pass_stats.epoch = Some(stats);
    }
    if config.promote {
        let start = Instant::now();
        let stats = passes::promote(&mut program, &meta);
        verified(&program, "pass_promote")?;
        stages.push(Stage {
            name: "pass_promote",
            render: render_with_bounds(&program, &meta),
            duration: start.elapsed(),
        });
        pass_stats.promote = Some(stats);
    }
    if config.fastalloc {
        let start = Instant::now();
        let stats = passes::fastalloc(&mut program);
        verified(&program, "pass_fastalloc")?;
        stages.push(Stage {
            name: "pass_fastalloc",
            render: render_with_bounds(&program, &meta),
            duration: start.elapsed(),
        });
        pass_stats.fastalloc = Some(stats);
    }

    Ok(Compiled {
        source: source.clone(),
        transformed: program,
        meta,
        report,
        stages,
        passes: pass_stats,
    })
}

/// Parses the textual IR form, then runs [`compile`] — the `facadec` entry
/// point.
///
/// # Errors
///
/// Everything [`compile`] returns, plus [`PipelineError::Parse`].
pub fn compile_text(
    text: &str,
    spec: &DataSpec,
    config: &PassConfig,
) -> Result<Compiled, PipelineError> {
    let program = Program::parse(text)?;
    compile(&program, spec, config)
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
    fn text_round_trip_feeds_the_pipeline() {
        let entry = corpus::figure2();
        let text = entry.program.render();
        let compiled = compile_text(&text, &entry.spec, &PassConfig::all()).unwrap();
        assert_eq!(compiled.source.render(), text);
    }
}
