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

use facade_compiler::{Compiled, PassConfig, compile, corpus};
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

/// A VM whose budget ran out stops its next run too, on that run's first
/// instruction, one step further on.
#[test]
fn a_spent_budget_stops_the_next_run_on_its_first_step() {
    let entry = corpus::epoch_scratch();
    let compiled = compile(&entry.program, &entry.spec, &PassConfig::all()).unwrap();
    for paged in [false, true] {
        let mut vm = vm_with_budget(&compiled, paged, Some(100));
        for steps in [101, 102, 103] {
            assert_eq!(vm.run(), Err(VmError::StepBudgetExceeded), "paged={paged}");
            assert_eq!(vm.steps(), steps, "paged={paged}");
        }
    }
}

/// A VM for `P` (or, with `paged`, `P'`) under `step_budget`.
fn vm_with_budget(compiled: &Compiled, paged: bool, step_budget: Option<u64>) -> Vm<'_> {
    let config = VmConfig {
        step_budget,
        ..VmConfig::default()
    };
    if paged {
        Vm::with_config(&compiled.transformed, Some(&compiled.meta), config)
    } else {
        Vm::with_config(&compiled.source, None, config)
    }
}

/// One run under `step_budget`: its result, `steps()` and printed lines.
fn run_with_budget(
    compiled: &Compiled,
    paged: bool,
    step_budget: Option<u64>,
) -> (Result<(), VmError>, u64, Vec<String>) {
    let mut vm = vm_with_budget(compiled, paged, step_budget);
    let result = vm.run().map(drop);
    (result, vm.steps(), vm.output().to_vec())
}

fn budget_pins_path(program: &str) -> PathBuf {
    pins_path(program).with_file_name("vm_budget.txt")
}

/// Every budget short of a run's `steps()` stops it with
/// `StepBudgetExceeded` on the step that exceeds, having printed exactly the
/// lines of the steps before it. `vm_budget.txt`, next to `vm_behaviour.txt`,
/// pins `steps()` and the step that prints each line, for `P` and `P'` under
/// every pass and under none.
#[test]
fn every_budget_stops_on_the_step_that_exceeds() {
    let mut mismatches = Vec::new();
    for entry in corpus::all() {
        let mut got = String::new();
        for (passes, config) in [("all", PassConfig::all()), ("none", PassConfig::none())] {
            let compiled = compile(&entry.program, &entry.spec, &config).unwrap();
            for paged in [false, true] {
                let leg = if paged { "P'" } else { "P" };
                let what = format!("{} {leg} passes={passes}", entry.name);
                let (free, steps, full) = run_with_budget(&compiled, paged, None);
                free.unwrap_or_else(|e| panic!("{what}: {e}"));
                let (exact, exact_steps, exact_out) =
                    run_with_budget(&compiled, paged, Some(steps));
                assert_eq!((exact, exact_steps), (Ok(()), steps), "{what}");
                assert_eq!(exact_out, full, "{what}");
                // Line i is printed on the step that is the least budget
                // whose run printed it.
                let mut prints_at = Vec::new();
                for budget in 0..steps {
                    let (result, at, output) = run_with_budget(&compiled, paged, Some(budget));
                    assert_eq!(
                        result,
                        Err(VmError::StepBudgetExceeded),
                        "{what} budget {budget}"
                    );
                    assert_eq!(at, budget + 1, "{what} budget {budget}");
                    assert!(
                        full.starts_with(&output),
                        "{what} budget {budget}: {output:?}"
                    );
                    prints_at.resize(output.len(), budget);
                }
                prints_at.resize(full.len(), steps);
                writeln!(
                    got,
                    "[{leg} passes={passes}] steps={steps} prints_at={prints_at:?}"
                )
                .unwrap();
            }
        }
        let path = budget_pins_path(entry.name);
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
        "step accounting drifted (FACADE_UPDATE_GOLDEN=1 to re-record):\n{}",
        mismatches.join("\n")
    );
}

/// Programs that fail part-way through a block, with a line printed before
/// the failure and instructions left after it: the failure's `steps()` counts
/// the instructions reached, the failing one included, and nothing after it.
/// `data` names the data classes of `P'`; `None` runs `P` alone (the program
/// does not verify, so it has no `P'`).
const FAILURES: &[(&str, &str, Option<&str>)] = &[
    (
        "null_deref",
        "class T {
  i32 x;
}
class Main {
  static void main() {
   locals: i32, T, i32, i32
   bb0:
     v0 = 3
     print v0
     v1 = null
     v2 = v1.f0
     print v2
     v3 = 4
     v3 = v3 Add v0
     return
  }
}
entry Main::main
",
        Some("T"),
    ),
    (
        "division_by_zero",
        "class T {
  i32 x;
}
class Main {
  static void main() {
   locals: i32, i32, i32, T
   bb0:
     v3 = new T
     v0 = 7
     print v0
     v1 = 0
     v2 = v0 Div v1
     print v2
     v1 = v1 Add v0
     v2 = v0 Rem v1
     return
  }
}
entry Main::main
",
        Some("T"),
    ),
    (
        "call_depth",
        "class D {
  i32 x;
}
class Main {
  static i32 f(i32) {
   locals: i32, i32
   bb0:
     v1 = static Main::f(v0)
     v1 = v1 Add v0
     print v1
     return v1
  }
  static void main() {
   locals: i32, i32
   bb0:
     v0 = 1
     print v0
     v1 = static Main::f(v0)
     print v1
     v0 = v0 Add v1
     return
  }
}
entry Main::main
",
        Some("D"),
    ),
    (
        "null_virtual_dispatch",
        "class T {
  i32 x;
  void f() {
   locals: T
   bb0:
     return
  }
  static void go() {
   locals: T, i32
   bb0:
     v1 = 5
     print v1
     v0 = null
     virtual T::f(v0)
     v1 = v1 Add v1
     print v1
     return
  }
}
class Main {
  static void main() {
   locals: i32
   bb0:
     static T::go()
     v0 = 1
     print v0
     return
  }
}
entry Main::main
",
        Some("T"),
    ),
    (
        "illegal_move",
        "class Main {
  static void main() {
   locals: i32, i64, i32
   bb0:
     v0 = 1
     print v0
     v2 = v0 Add v0
     v1 = v0
     print v0
     v2 = v0 Add v0
     return
  }
}
entry Main::main
",
        None,
    ),
    (
        "illegal_branch",
        "class Main {
  static void main() {
   locals: i32, i64
   bb0:
     v0 = 1
     print v0
     v1 = 2L
     if v1 then bb1 else bb1
   bb1:
     print v0
     return
  }
}
entry Main::main
",
        None,
    ),
    (
        "array_index_out_of_range",
        include_str!("array_index_out_of_range.ir"),
        Some("D"),
    ),
    (
        "negative_array_index",
        "class D {
  i64 x;
  static void go() {
   locals: i32, i64[], i32, i64
   bb0:
     v0 = 3
     v1 = new i64[v0]
     v3 = 7L
     v2 = 2
     v1[v2] = v3
     print v3
     v2 = -1
     v1[v2] = v3
     print v2
     return
  }
}
class Main {
  static void main() {
   locals: i32
   bb0:
     static D::go()
     return
  }
}
entry Main::main
",
        Some("D"),
    ),
    (
        "negative_array_length",
        "class D {
  i32 x;
  static void go() {
   locals: i32, i32[], i32
   bb0:
     v0 = -3
     print v0
     v1 = new i32[v0]
     v2 = v1.length
     print v2
     return
  }
}
class Main {
  static void main() {
   locals: i32
   bb0:
     static D::go()
     return
  }
}
entry Main::main
",
        Some("D"),
    ),
];

/// `(error, steps(), output)` of each [`FAILURES`] program, `P` then `P'`,
/// recorded with the interpreter that counted one step per instruction as it
/// ran it. The three array entries came later: their steps are the
/// instructions reached, the failing one included, counted by hand.
const FAILURE_PINS: &[(&str, &str, u64, &[&str])] = &[
    (
        "null_deref P",
        "NullDeref(\"getfield at offset 0\")",
        4,
        &["3"],
    ),
    (
        "null_deref P'",
        "NullDeref(\"getfield at offset 0\")",
        4,
        &["3"],
    ),
    ("division_by_zero P", "DivisionByZero", 5, &["7"]),
    ("division_by_zero P'", "DivisionByZero", 5, &["7"]),
    ("call_depth P", "CallDepthExceeded", 65_538, &["1"]),
    ("call_depth P'", "CallDepthExceeded", 65_538, &["1"]),
    (
        "null_virtual_dispatch P",
        "NullDeref(\"virtual dispatch\")",
        5,
        &["5"],
    ),
    (
        "null_virtual_dispatch P'",
        "NullDeref(\"resolve\")",
        5,
        &["5"],
    ),
    (
        "illegal_move P",
        "IllegalInstruction(\"move: v0 is I32, expected I64\")",
        4,
        &["1"],
    ),
    (
        "illegal_branch P",
        "IllegalInstruction(\"branch condition: v1 is I64, expected I32\")",
        4,
        &["1"],
    ),
    (
        "array_index_out_of_range P",
        "ArrayIndexOutOfBounds { index: 5, len: 2 }",
        6,
        &["2"],
    ),
    (
        "array_index_out_of_range P'",
        "ArrayIndexOutOfBounds { index: 5, len: 2 }",
        6,
        &["2"],
    ),
    (
        "negative_array_index P",
        "ArrayIndexOutOfBounds { index: -1, len: 3 }",
        9,
        &["7"],
    ),
    (
        "negative_array_index P'",
        "ArrayIndexOutOfBounds { index: -1, len: 3 }",
        9,
        &["7"],
    ),
    (
        "negative_array_length P",
        "NegativeArrayLength(-3)",
        4,
        &["-3"],
    ),
    (
        "negative_array_length P'",
        "NegativeArrayLength(-3)",
        4,
        &["-3"],
    ),
];

#[test]
fn failures_pin_their_error_steps_and_output() {
    let mut got = Vec::new();
    for &(name, text, data) in FAILURES {
        let program = facade_ir::Program::parse(text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut record = |leg: &str, vm: &mut Vm<'_>| {
            let err = vm.run().expect_err(name);
            got.push((
                format!("{name} {leg}"),
                format!("{err:?}"),
                vm.steps(),
                vm.output().to_vec(),
            ));
        };
        match data {
            Some(class) => {
                let spec = facade_compiler::DataSpec::new([class]);
                let compiled = compile(&program, &spec, &PassConfig::none())
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
                record("P", &mut Vm::new_heap(&compiled.source));
                record(
                    "P'",
                    &mut Vm::new_paged(&compiled.transformed, &compiled.meta),
                );
            }
            None => {
                assert!(program.verify().is_err(), "{name} is meant to be refused");
                record("P", &mut Vm::new_heap(&program));
            }
        }
    }
    let want: Vec<_> = FAILURE_PINS
        .iter()
        .map(|&(what, err, steps, out)| {
            let out: Vec<String> = out.iter().map(|s| s.to_string()).collect();
            (what.to_string(), err.to_string(), steps, out)
        })
        .collect();
    assert_eq!(got, want);
}
