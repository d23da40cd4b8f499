//! Observable-behaviour pins for the interpreter.
//!
//! For every corpus program under all eight pass combinations, everything a
//! caller can observe about a run — printed output, `steps()` of `P` and
//! `P'`, the fast-alloc counters and the paged heap's allocation figures —
//! is compared against `vm_behaviour.txt` next to the program's golden IR
//! snapshots (`crates/facade-compiler/golden/<program>/`). The values were
//! recorded from the tree-walking interpreter this one replaced, so any
//! drift in instruction accounting or allocation order shows up here.
//! Regenerate with:
//!
//! ```text
//! FACADE_UPDATE_GOLDEN=1 cargo test -p facade-vm --test pins
//! ```

use facade_compiler::{PassConfig, compile, corpus};
use facade_vm::{Vm, VmConfig, VmError};
use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

fn all_pass_configs() -> impl Iterator<Item = PassConfig> {
    (0u8..8).map(|bits| PassConfig {
        epoch: bits & 1 != 0,
        promote: bits & 2 != 0,
        fastalloc: bits & 4 != 0,
    })
}

fn pins_path(program: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../facade-compiler/golden")
        .join(program)
        .join("vm_behaviour.txt")
}

fn update_mode() -> bool {
    std::env::var("FACADE_UPDATE_GOLDEN").is_ok_and(|v| v == "1")
}

fn observe(entry: &corpus::CorpusEntry) -> String {
    let mut out = String::new();
    for config in all_pass_configs() {
        let compiled = compile(&entry.program, &entry.spec, &config)
            .unwrap_or_else(|e| panic!("{} {config:?}: {e}", entry.name));
        let mut p = Vm::new_heap(&compiled.source);
        p.run().expect("P runs");
        let mut q = Vm::new_paged(&compiled.transformed, &compiled.meta);
        q.run().expect("P' runs");
        assert_eq!(p.output(), q.output(), "{} {config:?}", entry.name);
        let exec = q.exec_stats();
        let paged = q.paged().stats();
        writeln!(
            out,
            "[epoch={} promote={} fastalloc={}]\n\
             output: {:?}\n\
             steps: P={} P'={}\n\
             exec: fast_alloc_hits={} fast_alloc_misses={}\n\
             paged: records_allocated={} pages_created={} pages_recycled={} peak_bytes={}",
            config.epoch,
            config.promote,
            config.fastalloc,
            q.output(),
            p.steps(),
            q.steps(),
            exec.fast_alloc_hits,
            exec.fast_alloc_misses,
            paged.records_allocated,
            paged.pages_created,
            paged.pages_recycled,
            paged.peak_bytes,
        )
        .unwrap();
    }
    out
}

#[test]
fn corpus_runs_match_the_recorded_behaviour() {
    let mut mismatches = Vec::new();
    for entry in corpus::all() {
        let got = observe(&entry);
        let path = pins_path(entry.name);
        if update_mode() {
            fs::write(&path, &got).unwrap();
            continue;
        }
        let want = fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: missing {} ({e})", entry.name, path.display()));
        if want != got {
            mismatches.push(format!(
                "{}:\n--- recorded\n{want}--- now\n{got}",
                entry.name
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "behaviour drifted (FACADE_UPDATE_GOLDEN=1 to re-record):\n{}",
        mismatches.join("\n")
    );
}

/// A budget of exactly `steps()` lets the run finish; one less stops it at
/// the instruction that would have been the last, in both modes.
#[test]
fn step_budget_is_exact_in_both_modes() {
    let entry = corpus::epoch_scratch();
    let compiled = compile(&entry.program, &entry.spec, &PassConfig::all()).unwrap();
    let run = |paged: bool, step_budget: Option<u64>| {
        let config = VmConfig {
            step_budget,
            ..VmConfig::default()
        };
        let mut vm = if paged {
            Vm::with_config(&compiled.transformed, Some(&compiled.meta), config)
        } else {
            Vm::with_config(&compiled.source, None, config)
        };
        let result = vm.run().map(|_| vm.output().to_vec());
        (result, vm.steps())
    };
    for paged in [false, true] {
        let (free, steps) = run(paged, None);
        assert_eq!(free.unwrap(), entry.expected);

        let (exact, exact_steps) = run(paged, Some(steps));
        assert_eq!(exact.unwrap(), entry.expected, "paged={paged}");
        assert_eq!(exact_steps, steps);

        let (short, short_steps) = run(paged, Some(steps - 1));
        assert_eq!(short.unwrap_err(), VmError::StepBudgetExceeded);
        assert_eq!(short_steps, steps, "fails on the step that exceeds");
    }
}
