//! **facadec**: the FACADE compiler driver — one command from source IR to
//! a proven-equivalent `P'`.
//!
//! ```text
//! facadec --list                          # show the golden corpus
//! facadec --corpus figure2                # compile + dual-run a corpus program
//! facadec prog.ir --data Node,Tree        # compile a textual IR file
//! ```
//!
//! By default facadec runs the full pipeline (verify → Table 1 transform →
//! devirt → epoch/promote/fastalloc passes, each re-verified), executes the
//! source program on the managed-heap backend and the transformed program
//! on the facade/paged backend, asserts the outputs are bit-identical, and
//! prints the object-boundedness report.
//!
//! Options:
//!
//! - `--no-epoch` / `--no-promote` / `--no-fastalloc` — disable a pass;
//! - `--emit <stage>` — print one stage's IR (`source`, `transformed`,
//!   `pass_epoch`, `pass_promote`, `pass_fastalloc`) and exit;
//! - `--no-run` — compile only (stage table, no execution).
//!
//! Exit status: 0 on success, 1 on compile/verify/equivalence failure,
//! 2 on usage errors.

use facade_compiler::{Compiled, DataSpec, PassConfig, compile, compile_text, corpus};
use facade_vm::{VmConfig, run_dual};
use std::process::ExitCode;

struct Args {
    input: Option<String>,
    corpus_name: Option<String>,
    data: Vec<String>,
    config: PassConfig,
    emit: Option<String>,
    run: bool,
    list: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: facadec (--list | --corpus <name> | <file.ir> --data A[,B...])\n\
         \x20      [--no-epoch] [--no-promote] [--no-fastalloc]\n\
         \x20      [--emit <stage>] [--no-run]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, ExitCode> {
    let mut args = Args {
        input: None,
        corpus_name: None,
        data: Vec::new(),
        config: PassConfig::all(),
        emit: None,
        run: true,
        list: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--list" => args.list = true,
            "--corpus" => {
                args.corpus_name = Some(it.next().ok_or_else(usage)?);
            }
            "--data" => {
                let names = it.next().ok_or_else(usage)?;
                args.data
                    .extend(names.split(',').map(|s| s.trim().to_string()));
            }
            "--no-epoch" => args.config.epoch = false,
            "--no-promote" => args.config.promote = false,
            "--no-fastalloc" => args.config.fastalloc = false,
            "--emit" => args.emit = Some(it.next().ok_or_else(usage)?),
            "--no-run" => args.run = false,
            "--help" | "-h" => return Err(usage()),
            _ if arg.starts_with('-') => {
                eprintln!("facadec: unknown option {arg}");
                return Err(usage());
            }
            _ if args.input.is_none() => args.input = Some(arg),
            _ => return Err(usage()),
        }
    }
    Ok(args)
}

fn print_stage_table(compiled: &Compiled) {
    eprintln!("stage            lines   duration");
    for stage in &compiled.stages {
        eprintln!(
            "{:<16} {:>5}   {:>9.3?}",
            stage.name,
            stage.render.lines().count(),
            stage.duration
        );
    }
    let r = &compiled.report;
    eprintln!(
        "transform: {} data classes reached, {} methods ({} unreachable cut), {} interaction points, {} devirtualized calls",
        r.classes_transformed,
        r.methods_transformed,
        r.methods_cut,
        r.interaction_points,
        r.devirtualized_calls
    );
    if let Some(e) = compiled.passes.epoch {
        eprintln!(
            "epoch: {} reachable methods, {} epochs inserted",
            e.reachable_methods, e.epochs_inserted
        );
    }
    if let Some(p) = compiled.passes.promote {
        eprintln!("promote: {} records promoted", p.records_promoted);
    }
    if let Some(f) = compiled.passes.fastalloc {
        eprintln!("fastalloc: {} sites marked", f.sites_marked);
    }
}

fn drive(compiled: &Compiled, emit: Option<&str>, run: bool) -> ExitCode {
    if let Some(stage) = emit {
        match compiled.stage(stage) {
            Some(s) => {
                print!("{}", s.render);
                return ExitCode::SUCCESS;
            }
            None => {
                eprintln!(
                    "facadec: no stage `{stage}` (have: {})",
                    compiled
                        .stages
                        .iter()
                        .map(|s| s.name)
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                return ExitCode::from(2);
            }
        }
    }
    print_stage_table(compiled);
    if !run {
        return ExitCode::SUCCESS;
    }
    match run_dual(
        &compiled.source,
        &compiled.transformed,
        &compiled.meta,
        &VmConfig::default(),
    ) {
        Ok(result) => {
            for line in &result.output {
                println!("{line}");
            }
            let b = &result.boundedness;
            eprintln!(
                "equivalence: OK ({} output lines bit-identical; P {} steps, P' {} steps)",
                result.output.len(),
                result.source_steps,
                result.transformed_steps
            );
            eprintln!(
                "boundedness: {} — {} live facades <= {} threads x {} facades/thread \
                 ({} records allocated, {} pages recycled, heap run kept {} objects live)",
                if b.is_bounded() { "OK" } else { "VIOLATED" },
                b.live_facades,
                b.threads,
                b.facades_per_thread,
                b.records_allocated,
                b.pages_recycled,
                b.heap_live_objects
            );
            if b.is_bounded() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("facadec: {e}");
            ExitCode::from(1)
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(code) => return code,
    };
    if args.list {
        for entry in corpus::all() {
            println!(
                "{:<16} data: {:<16} expected output: {:?}",
                entry.name,
                entry.spec.names().collect::<Vec<_>>().join(","),
                entry.expected
            );
        }
        return ExitCode::SUCCESS;
    }
    let compiled = if let Some(name) = &args.corpus_name {
        let Some(entry) = corpus::all().into_iter().find(|e| e.name == *name) else {
            eprintln!("facadec: no corpus program `{name}` (try --list)");
            return ExitCode::from(2);
        };
        match compile(&entry.program, &entry.spec, &args.config) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("facadec: {e}");
                return ExitCode::from(1);
            }
        }
    } else if let Some(path) = &args.input {
        if args.data.is_empty() {
            eprintln!("facadec: --data is required for file input");
            return usage();
        }
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("facadec: cannot read {path}: {e}");
                return ExitCode::from(2);
            }
        };
        match compile_text(
            &text,
            &DataSpec::new(args.data.iter().cloned()),
            &args.config,
        ) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("facadec: {e}");
                return ExitCode::from(1);
            }
        }
    } else {
        return usage();
    };
    drive(&compiled, args.emit.as_deref(), args.run)
}
