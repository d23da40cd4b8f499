//! `compile_run`: one generated textual-IR program compiled and
//! interpreted.
//!
//! Chosen because `facade-ir`, `facade-compiler` and `facade-vm` dominate
//! while the engines and the server are idle; compile time is a large share
//! of the facade leg (the heap leg pays parse + verify alone), so a compiler
//! change is visible end to end.

use super::{digest, push_gc, us};
use crate::harness::{Checks, Ctx, LegOutcome, Workload};
use crate::oracle;
use crate::report::Samples;
use crate::trace::LegSpans;
use datagen::SplitMix64;
use facade_compiler::{Compiled, DataSpec, PassConfig, PipelineError, compile, compile_text};
use facade_ir::Program;
use facade_vm::{Vm, VmConfig};
use managed_heap::HeapConfig;
use metrics::report::Backend;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Data classes in the generated program.
pub const CLASSES: usize = 200;
/// `churn` calls `main` makes, each on a seed-chosen class.
pub const CALLS: usize = 4;
/// Records one call allocates (`rounds × per`): four calls make the 300 ×
/// 400 allocation loop.
pub const RECORDS_PER_CALL: i32 = 30_000;
/// `rounds` choices; `per` is `RECORDS_PER_CALL / rounds`.
const ROUNDS: [i32; 6] = [50, 60, 75, 100, 120, 150];
/// Managed heap of both VMs (`P'` keeps its control objects there).
pub const HEAP_BYTES: usize = 4 << 20;

const CLASS_TEMPLATE: &str = include_str!("../../programs/temp_class.ir");

/// One `churn` call of the generated `main`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Call {
    /// Index of the class whose `churn` is called.
    pub class: usize,
    /// Outer loop count.
    pub rounds: i32,
    /// Inner loop count.
    pub per: i32,
}

/// The generated program and the lines it must print.
#[derive(Debug)]
pub struct CompileRun {
    text: String,
    spec: DataSpec,
    calls: Vec<Call>,
    expected: Vec<String>,
}

/// The seed-chosen calls: distinct classes, each with its own loop shape.
pub fn calls(seed: u64) -> Vec<Call> {
    let mut rng = SplitMix64::new(seed);
    let mut out: Vec<Call> = Vec::with_capacity(CALLS);
    while out.len() < CALLS {
        let class = rng.next_below(CLASSES as u64) as usize;
        if out.iter().any(|c| c.class == class) {
            continue;
        }
        let rounds = ROUNDS[rng.next_below(ROUNDS.len() as u64) as usize];
        out.push(Call {
            class,
            rounds,
            per: RECORDS_PER_CALL / rounds,
        });
    }
    out
}

/// Renders the program text: `CLASSES` clones of the class template and a
/// `main` that makes `calls` and prints each result.
pub fn program_text(calls: &[Call]) -> String {
    let mut text = String::with_capacity(CLASSES * 1_200);
    for class in 0..CLASSES {
        text.push_str(&CLASS_TEMPLATE.replace('@', &class.to_string()));
    }
    // Locals per call: rounds, per, result.
    let locals = vec!["i32, i32, i64"; calls.len()].join(", ");
    write!(
        text,
        "class Main {{\n  static void main() {{\n   locals: {locals}\n   bb0:\n"
    )
    .unwrap();
    for (i, call) in calls.iter().enumerate() {
        let (rounds, per, result) = (3 * i, 3 * i + 1, 3 * i + 2);
        write!(
            text,
            "     v{rounds} = {}\n     v{per} = {}\n     v{result} = static Temp{}::churn(v{rounds}, v{per})\n     print v{result}\n",
            call.rounds, call.per, call.class
        )
        .unwrap();
    }
    text.push_str("     return\n  }\n}\nentry Main::main\n");
    text
}

fn vm_config() -> VmConfig {
    VmConfig {
        heap: HeapConfig::with_capacity(HEAP_BYTES),
        ..VmConfig::default()
    }
}

fn steps_per_us(steps: u64, wall: Duration) -> f64 {
    steps as f64 / us(wall)
}

impl CompileRun {
    /// Counts the output check and, for the paged run, the boundedness
    /// check; returns the output digest.
    fn check_run(&self, vm: &Vm<'_>, compiled: Option<&Compiled>, checks: &mut Checks) -> u64 {
        checks.check(vm.output() == self.expected, || {
            format!(
                "VM printed {:?}, the native loop {:?}",
                vm.output(),
                self.expected
            )
        });
        if let Some(compiled) = compiled {
            let live = vm.pools().map_or(0, |p| p.facade_count());
            let bound = compiled.meta.bounds.facades_per_thread();
            checks.check(live <= bound, || {
                format!("object bound broken: {live} live facades > {bound}")
            });
        }
        digest(
            vm.output()
                .iter()
                .flat_map(|line| line.bytes())
                .map(u64::from),
        )
    }

    fn facade_leg(&self, ctx: &mut Ctx<'_>) -> LegOutcome {
        let mut spans = LegSpans::open(ctx.tracer.as_deref_mut(), "job.facade", ctx.rep);
        let started = Instant::now();
        let passes = PassConfig::all();
        // A plain rep compiles the way a user does; a decomposed rep makes
        // the same two calls `compile_text` makes, a span around each.
        let compiled = if spans.tracing() {
            spans
                .call("facade_ir.parse", || Program::parse(&self.text))
                .map_err(PipelineError::from)
                .and_then(|program| {
                    spans.call("facade_compiler.compile", || {
                        compile(&program, &self.spec, &passes)
                    })
                })
        } else {
            compile_text(&self.text, &self.spec, &passes)
        };
        let compiled = match compiled {
            Ok(compiled) => compiled,
            Err(e) => {
                spans.close();
                ctx.checks.check(false, || format!("compile failed: {e}"));
                return LegOutcome::default();
            }
        };
        let mut vm = spans.call("facade_vm.new", || {
            Vm::with_config(&compiled.transformed, Some(&compiled.meta), vm_config())
        });
        let run_started = Instant::now();
        let ran = spans.call("facade_vm.paged_run", || vm.run());
        let run_wall = run_started.elapsed();
        let wall = started.elapsed();
        spans.close();

        ctx.checks
            .check(ran.is_ok(), || format!("paged VM failed: {ran:?}"));
        let fingerprint = self.check_run(&vm, Some(&compiled), ctx.checks);
        let paged = vm.paged().stats();
        if ctx.tracer.is_some() {
            for (stage, metric) in [
                ("transformed", "facade_compiler.transform_us"),
                ("pass_epoch", "facade_compiler.pass_epoch_us"),
                ("pass_promote", "facade_compiler.pass_promote_us"),
                ("pass_fastalloc", "facade_compiler.pass_fastalloc_us"),
            ] {
                if let Some(stage) = compiled.stage(stage) {
                    ctx.samples.push(metric, us(stage.duration));
                }
            }
            let lines = |stage: &str| {
                compiled
                    .stage(stage)
                    .map_or(0, |s| s.render.lines().count()) as f64
            };
            ctx.samples
                .push("facade_compiler.ir_lines_source", lines("source"));
            ctx.samples
                .push("facade_compiler.ir_lines_final", lines("pass_fastalloc"));
            ctx.samples.push(
                "facade_vm.paged_msteps_per_s",
                steps_per_us(vm.steps(), run_wall),
            );
            let exec = vm.exec_stats();
            ctx.samples.push(
                "facade_vm.fast_alloc_hit_share",
                exec.fast_alloc_hits as f64
                    / (exec.fast_alloc_hits + exec.fast_alloc_misses).max(1) as f64,
            );
            ctx.samples
                .push("facade_vm.pages_recycled", paged.pages_recycled as f64);
            ctx.samples
                .push("facade_runtime.pages_created", paged.pages_created as f64);
            ctx.samples
                .push("facade_runtime.pages_recycled", paged.pages_recycled as f64);
            ctx.samples.push(
                "facade_runtime.recycle_share",
                paged.pages_recycled as f64
                    / (paged.pages_created + paged.pages_recycled).max(1) as f64,
            );
        }
        LegOutcome {
            wall,
            fingerprint,
            peak_bytes: paged.peak_bytes,
        }
    }

    fn heap_leg(&self, ctx: &mut Ctx<'_>) -> LegOutcome {
        let mut spans = LegSpans::open(ctx.tracer.as_deref_mut(), "job.heap", ctx.rep);
        let started = Instant::now();
        let program = match spans.call("facade_ir.parse", || Program::parse(&self.text)) {
            Ok(program) => program,
            Err(e) => {
                spans.close();
                ctx.checks.check(false, || format!("parse failed: {e}"));
                return LegOutcome::default();
            }
        };
        let verified = spans.call("facade_ir.verify", || program.verify());
        let mut vm = spans.call("facade_vm.new", || {
            Vm::with_config(&program, None, vm_config())
        });
        let run_started = Instant::now();
        let ran = spans.call("facade_vm.heap_run", || vm.run());
        let run_wall = run_started.elapsed();
        let wall = started.elapsed();
        spans.close();

        ctx.checks.check(verified.is_ok(), || {
            format!("source program failed verification: {verified:?}")
        });
        ctx.checks
            .check(ran.is_ok(), || format!("heap VM failed: {ran:?}"));
        let fingerprint = self.check_run(&vm, None, ctx.checks);
        if ctx.tracer.is_some() {
            ctx.samples.push(
                "facade_vm.heap_msteps_per_s",
                steps_per_us(vm.steps(), run_wall),
            );
            let gc = vm.heap().stats();
            push_gc(
                ctx.samples,
                gc.gc_time,
                gc.collections(),
                gc.pause_records.iter().copied(),
                wall,
            );
        }
        LegOutcome {
            wall,
            fingerprint,
            peak_bytes: 0,
        }
    }
}

impl Workload for CompileRun {
    const NAME: &'static str = "compile_run";
    // Matched on a 2-vCPU shared VM: see README.md, "Fixed sizes".
    const NATIVE_K: u32 = 20;
    const ASSERT_FACADE_FASTER: bool = false;

    fn setup(seed: u64, _samples: &mut Samples, _checks: &mut Checks) -> Self {
        let calls = calls(seed);
        CompileRun {
            text: program_text(&calls),
            spec: DataSpec::new((0..CLASSES).map(|i| format!("Temp{i}"))),
            expected: calls
                .iter()
                .map(|c| oracle::churn(c.rounds, c.per).to_string())
                .collect(),
            calls,
        }
    }

    fn native(&self) {
        for _ in 0..Self::NATIVE_K {
            for call in &self.calls {
                black_box(oracle::churn(black_box(call.rounds), black_box(call.per)));
            }
        }
    }

    fn leg(&mut self, backend: Backend, ctx: &mut Ctx<'_>) -> LegOutcome {
        match backend {
            Backend::Facade => self.facade_leg(ctx),
            Backend::Heap => self.heap_leg(ctx),
        }
    }

    fn probes(&mut self, samples: &mut Samples, checks: &mut Checks) {
        let program = match Program::parse(&self.text) {
            Ok(program) => program,
            Err(e) => return checks.check(false, || format!("parse failed: {e}")),
        };
        for _ in 0..15 {
            let started = Instant::now();
            black_box(program.render());
            samples.push("facade_ir.render_us", us(started.elapsed()));
        }
    }

    fn teardown(self, _checks: &mut Checks) {}
}
