//! `Program::parse` on malformed text: seeded mutants of every checked-in
//! IR source, and the exact error each one gets.
//!
//! Each source — every `crates/facade-compiler/golden/*/source.ir` and
//! `crates/facade-vm/tests/runaway_recursion.ir` — is mutated with
//! `datagen::SplitMix64` six ways (line drop, duplicate and swap, token
//! swap, byte flip, truncation). For every mutant the parser must not
//! panic; an error must name a line in `1..=lines + 1`; an accepted text
//! must re-render to text that parses back to the same render.
//!
//! `tests/ir_parse_pins.txt` pins each mutant's outcome — `ok` with a digest
//! of the render, or the error's `line: message` — together with the
//! hand-written cases below, so a parser rewrite must reproduce every
//! diagnostic byte for byte. Regenerate after an intended change with:
//!
//! ```text
//! FACADE_UPDATE_GOLDEN=1 cargo test --test ir_parse_fuzz
//! ```
//!
//! Every input that parses goes on through `verify`; one that verifies goes
//! through the transform and a step-budgeted run of `P` and of `P'`, which
//! decodes each method it reaches. Each stage must give a typed error or
//! succeed, never panic, and [`PINS`] holds the outcome counts per source
//! and mutation kind.

mod common;

use common::{below, fnv};
use facade::compiler::{DataSpec, corpus, transform};
use facade::datagen::SplitMix64;
use facade::heap::HeapConfig;
use facade::ir::Program;
use facade::vm::{Vm, VmConfig, VmError};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::panic::{AssertUnwindSafe, catch_unwind};
use std::path::{Path, PathBuf};

/// Mutants per source and mutation kind.
const PER_KIND: usize = 20;

const KINDS: [&str; 6] = ["drop", "dup", "swap", "tokens", "flip", "truncate"];

/// Bytes a flip writes: the grammar's punctuation, digits and the letters
/// its keywords and locals start with.
const FLIP_BYTES: &[u8] = b"{}();:,.[]=+- 0123456789vbfLxnsieA\n";

/// Hand-written texts pinned beside the mutants: numerals the printer never
/// writes, in every position the grammar reads one.
const CASES: [(&str, &str); 15] = [
    ("label_plus", "bb+0:\n     return"),
    ("label_zero", "bb00:\n     return"),
    ("local_plus", "bb0:\n     v+0 = 5\n     return"),
    ("local_zero", "bb0:\n     v00 = 5\n     return"),
    ("use_zero", "bb0:\n     v0 = 5\n     print v00\n     return"),
    ("goto_plus", "bb0:\n     goto bb+1\n   bb1:\n     return"),
    ("goto_zero", "bb0:\n     goto bb01\n   bb1:\n     return"),
    (
        "then_plus",
        "bb0:\n     v0 = 1\n     if v0 then bb+1 else bb1\n   bb1:\n     return",
    ),
    (
        "else_zero",
        "bb0:\n     v0 = 1\n     if v0 then bb1 else bb01\n   bb1:\n     return",
    ),
    (
        "field_plus",
        "bb0:\n     v1 = new A\n     v1.f+0 = v0\n     return",
    ),
    ("int_plus", "bb0:\n     v0 = +5\n     return"),
    ("int_zero", "bb0:\n     v0 = 007\n     return"),
    ("int_minus_zero", "bb0:\n     v0 = -0\n     return"),
    ("long_plus", "bb0:\n     v0 = +5L\n     return"),
    ("f64_exponent", "bb0:\n     v0 = 1e3f64\n     return"),
];

/// Whole texts pinned beside the mutants: forward references, and inputs
/// with two faults, of which the parser reports the first it meets.
const TEXTS: [(&str, &str); 18] = [
    (
        "forward_refs",
        "class A {\n  B f;\n  static B m(B) {\n   locals: B, B\n   bb0:\n     v1 = new B\n     v0 = static B::k(v1)\n     return v0\n  }\n}\nclass B {\n  static B k(B) {\n   locals: B\n   bb0:\n     return v0\n  }\n}\nentry A::m\n",
    ),
    (
        "entry_first",
        "entry A::m\nclass A {\n  static void m() {\n   locals:\n   bb0:\n     return\n  }\n}\n",
    ),
    (
        "field_type_then_structure",
        "class A {\n  Missing f;\n}\nclass B {\n  junk\n}\n",
    ),
    (
        "field_type_then_duplicate_class",
        "class A {\n  Missing f;\n}\nclass A {\n}\n",
    ),
    (
        "body_then_signature",
        "class A {\n  static void m() {\n   locals:\n   bb0:\n     v0 = what\n     return\n  }\n}\nclass B {\n  static void n(Missing);\n}\n",
    ),
    (
        "signature_then_field",
        "class A {\n  static void n(Missing);\n}\nclass B {\n  Gone f;\n}\n",
    ),
    (
        "forward_unknown_then_syntax",
        "class A {\n  static void m() {\n   locals: i32\n   bb0:\n     v0 = static Later::gone(v0)\n     v0 = what\n     return\n  }\n}\nclass Later {\n}\n",
    ),
    (
        "unknown_local_type_then_no_blocks",
        "class A {\n  static void m() {\n   locals: Missing\n  }\n}\n",
    ),
    (
        "empty_body_and_duplicate_method",
        "class A {\n  static void m() {\n  }\n  void m();\n}\n",
    ),
    (
        "unknown_entry_method",
        "class A {\n  static void m() {\n   locals:\n   bb0:\n     return\n  }\n}\nentry A::gone\nentry A::m\nentry A::n\n",
    ),
    (
        "unknown_superclass_and_interface",
        "class A extends Gone implements Also {\n}\ninterface I {\n}\nclass B implements I, Nope {\n}\n",
    ),
    (
        "generated_call_to_unknown_class",
        "class A {\n  static void m() {\n   locals: i32\n   bb0:\n     v0 = static Gone::convert(v0)\n     return\n  }\n}\n",
    ),
    (
        "generated_new_of_a_known_class",
        "class resolve(A {\n}\nclass B {\n  static void m() {\n   locals: i32\n   bb0:\n     v0 = new resolve(A\n     return\n  }\n}\n",
    ),
    (
        "generated_field_read",
        "class A {\n  static void m() {\n   locals: i32\n   bb0:\n     v0 = v0.pageRef\n     return\n  }\n}\n",
    ),
    (
        "generated_marker_in_a_method_name",
        "class A {\n  static void lockPool.m();\n  static void n() {\n   locals: i32\n   bb0:\n     static A::lockPool.m()\n     return\n  }\n}\n",
    ),
    (
        "unterminated_block_then_unknown_class",
        "class A {\n  static void m() {\n   locals: i32\n   bb0:\n     v0 = new Gone\n   bb1:\n     v0 = 1\n  }\n}\n",
    ),
    (
        "two_entry_lines",
        "class A {\n  static void m() {\n   locals:\n   bb0:\n     return\n  }\n}\nentry A::m\nentry A::m\n",
    ),
    (
        "body_fault_below_undeclared_type",
        "class A {\n  Missing f;\n  static void m() {\n   locals: i32\n   bb0:\n     v0 = what\n     return\n  }\n}\n",
    ),
];

fn repo() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// `(name, text)` of every source the mutants start from, in a fixed order.
fn sources() -> Vec<(String, String)> {
    let golden = repo().join("crates/facade-compiler/golden");
    let mut dirs: Vec<PathBuf> = fs::read_dir(&golden)
        .expect("golden directory")
        .map(|e| e.expect("golden entry").path())
        .filter(|p| p.join("source.ir").is_file())
        .collect();
    dirs.sort();
    let read = |p: &Path| fs::read_to_string(p).unwrap_or_else(|e| panic!("{}: {e}", p.display()));
    let mut out: Vec<(String, String)> = dirs
        .iter()
        .map(|d| {
            let name = d.file_name().unwrap().to_string_lossy().into_owned();
            (name, read(&d.join("source.ir")))
        })
        .collect();
    let runaway = repo().join("crates/facade-vm/tests/runaway_recursion.ir");
    out.push(("runaway_recursion".into(), read(&runaway)));
    out
}

/// A body `bb0: …` wrapped in a class `A` with one `i32` field and a static
/// `m(i32)` whose locals are `i32, A`.
fn case_text(body: &str) -> String {
    format!(
        "class A {{\n  i32 x;\n  static void m(i32) {{\n   locals: i32, A\n   {body}\n  }}\n}}\n"
    )
}

/// The byte ranges of `text`'s whitespace-separated tokens.
fn tokens(text: &str) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut start = None;
    for (i, b) in text.bytes().enumerate() {
        match (b.is_ascii_whitespace(), start) {
            (true, Some(s)) => {
                out.push((s, i));
                start = None;
            }
            (false, None) => start = Some(i),
            _ => {}
        }
    }
    if let Some(s) = start {
        out.push((s, text.len()));
    }
    out
}

fn mutate(text: &str, kind: &str, rng: &mut SplitMix64) -> String {
    let mut lines: Vec<&str> = text.lines().collect();
    let n = lines.len();
    match kind {
        "drop" => {
            lines.remove(below(rng, n));
        }
        "dup" => {
            let i = below(rng, n);
            lines.insert(i + 1, lines[i]);
        }
        "swap" => {
            let (i, j) = (below(rng, n), below(rng, n));
            lines.swap(i, j);
        }
        "tokens" => {
            let toks = tokens(text);
            let (a, b) = (below(rng, toks.len()), below(rng, toks.len()));
            let (lo, hi) = (toks[a.min(b)], toks[a.max(b)]);
            if lo == hi {
                return text.to_string();
            }
            return format!(
                "{}{}{}{}{}",
                &text[..lo.0],
                &text[hi.0..hi.1],
                &text[lo.1..hi.0],
                &text[lo.0..lo.1],
                &text[hi.1..]
            );
        }
        "flip" => {
            let mut bytes = text.as_bytes().to_vec();
            // Only ASCII bytes are replaced, and only by ASCII, so the
            // mutant stays UTF-8.
            let ascii: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i].is_ascii()).collect();
            bytes[ascii[below(rng, ascii.len())]] = FLIP_BYTES[below(rng, FLIP_BYTES.len())];
            return String::from_utf8(bytes).expect("ASCII for ASCII keeps UTF-8");
        }
        "truncate" => {
            let mut at = below(rng, text.len());
            while !text.is_char_boundary(at) {
                at -= 1;
            }
            return text[..at].to_string();
        }
        other => unreachable!("mutation kind {other}"),
    }
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

/// Every pinned input: `(id, text)`.
fn inputs() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for (name, text) in sources() {
        for (k, kind) in KINDS.iter().enumerate() {
            let mut rng = SplitMix64::new(fnv(name.as_bytes()) ^ k as u64);
            for i in 0..PER_KIND {
                out.push((format!("{name} {kind} {i}"), mutate(&text, kind, &mut rng)));
            }
        }
    }
    for (name, body) in CASES {
        out.push((format!("case {name}"), case_text(body)));
    }
    for (name, text) in TEXTS {
        out.push((format!("text {name}"), text.to_string()));
    }
    out
}

/// Parses one input, checks the invariants, and returns its pin.
fn outcome(id: &str, text: &str) -> String {
    let parsed = catch_unwind(AssertUnwindSafe(|| Program::parse(text)))
        .unwrap_or_else(|_| panic!("{id}: Program::parse panicked on:\n{text}"));
    match parsed {
        Ok(program) => {
            let render = program.render();
            let again = Program::parse(&render)
                .unwrap_or_else(|e| panic!("{id}: the render of an accepted text fails: {e}"));
            assert_eq!(again.render(), render, "{id}: render does not round-trip");
            format!("ok {:016x}", fnv(render.as_bytes()))
        }
        Err(e) => {
            let lines = text.lines().count();
            assert!(
                (1..=lines + 1).contains(&e.line),
                "{id}: error line {} outside 1..={} ({e})",
                e.line,
                lines + 1
            );
            format!("{}: {}", e.line, e.message)
        }
    }
}

#[test]
fn parse_errors_match_the_pinned_corpus() {
    let mut got = String::from(
        ";; Program::parse outcome per input of tests/ir_parse_fuzz.rs: `ok <render digest>` or\n\
         ;; `<line>: <message>`. Regenerate: FACADE_UPDATE_GOLDEN=1 cargo test --test ir_parse_fuzz\n",
    );
    for (id, text) in inputs() {
        writeln!(got, "{id} -> {}", outcome(&id, &text)).unwrap();
    }
    let path = repo().join("tests/ir_parse_pins.txt");
    if std::env::var("FACADE_UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        fs::write(&path, &got).unwrap();
        return;
    }
    let want = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e}; run with FACADE_UPDATE_GOLDEN=1", path.display()));
    let diff: Vec<String> = want
        .lines()
        .zip(got.lines())
        .filter(|(w, g)| w != g)
        .map(|(w, g)| format!("  want {w}\n  got  {g}"))
        .collect();
    assert!(
        diff.is_empty() && want.lines().count() == got.lines().count(),
        "{} pins differ ({} pinned, {} produced):\n{}",
        diff.len(),
        want.lines().count(),
        got.lines().count(),
        diff.join("\n")
    );
}

/// Steps each leg may run: about ten times the longest corpus run, so a
/// mutant that loops forever stops within it.
const STEP_BUDGET: u64 = 30_000;

/// The data classes an input is transformed with: its source's corpus spec
/// (`D` for the runaway program, none for the hand-written texts).
fn spec_of(source: &str) -> DataSpec {
    match corpus::all().into_iter().find(|e| e.name == source) {
        Some(entry) => entry.spec,
        None if source == "runaway_recursion" => DataSpec::new(["D"]),
        None => DataSpec::new(Vec::<&str>::new()),
    }
}

/// The variant name of a typed error: its `Debug` up to the first field.
fn variant(error: &impl std::fmt::Debug) -> String {
    let debug = format!("{error:?}");
    debug[..debug.find(['(', ' ']).unwrap_or(debug.len())].to_string()
}

/// A run's outcome: `ok`, or the variant of its typed error.
fn ran(result: Result<Option<facade::vm::Value>, VmError>) -> String {
    result.map_or_else(|e| variant(&e), |_| "ok".into())
}

/// What a parsed program does past the parser: `P`'s run, and unless the
/// program fails `verify`, the transform's error or `P'`'s run. The VM
/// runs an unverified `P` too: its decoder must turn what the verifier
/// rejects into a typed error.
fn deep_outcome(program: &Program, spec: &DataSpec) -> String {
    let config = VmConfig {
        heap: HeapConfig::with_capacity(1 << 20),
        step_budget: Some(STEP_BUDGET),
    };
    let p = ran(Vm::with_config(program, None, config.clone()).run());
    if program.verify().is_err() {
        return format!("unverified, P {p}");
    }
    match transform(program, spec) {
        Err(e) => format!("P {p}, transform {}", variant(&e)),
        Ok(out) => {
            let q = ran(Vm::with_config(&out.program, Some(&out.meta), config).run());
            format!("P {p}, P' {q}")
        }
    }
}

#[test]
fn parsed_inputs_verify_transform_and_run_to_a_typed_outcome() {
    let mut got: BTreeMap<String, usize> = BTreeMap::new();
    for (id, text) in inputs() {
        let Ok(program) = Program::parse(&text) else {
            continue;
        };
        let (group, _) = id.rsplit_once(' ').expect("ids have a last word");
        let source = group.split(' ').next().expect("ids have a first word");
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            deep_outcome(&program, &spec_of(source))
        }))
        .unwrap_or_else(|_| panic!("{id}: verify, transform or run panicked on:\n{text}"));
        *got.entry(format!("{group}: {outcome}")).or_default() += 1;
    }
    let want: BTreeMap<String, usize> = PINS.iter().map(|&(k, n)| (k.to_string(), n)).collect();
    let table: String = got
        .iter()
        .map(|(k, n)| format!("    ({k:?}, {n}),\n"))
        .collect();
    assert!(got == want, "outcome counts moved; the run gave:\n{table}");
}

/// Parsed inputs per `(source, kind, outcome)`.
const PINS: &[(&str, usize)] = &[
    ("crossings drop: P NullDeref, P' NullDeref", 3),
    (
        "crossings drop: P StepBudgetExceeded, P' StepBudgetExceeded",
        1,
    ),
    ("crossings drop: P ok, P' ok", 6),
    ("crossings drop: unverified, P IllegalInstruction", 1),
    ("crossings dup: P ok, P' ok", 8),
    ("crossings flip: unverified, P IllegalInstruction", 1),
    ("crossings swap: P NullDeref, P' NullDeref", 1),
    ("crossings swap: unverified, P IllegalInstruction", 6),
    ("crossings tokens: unverified, P IllegalInstruction", 3),
    ("epoch_scratch drop: P NoEntry, P' NoEntry", 1),
    ("epoch_scratch drop: P NullDeref, P' NullDeref", 2),
    ("epoch_scratch drop: P ok, P' ok", 4),
    ("epoch_scratch dup: P ok, P' ok", 11),
    ("epoch_scratch flip: P ok, P' ok", 1),
    ("epoch_scratch swap: P NullDeref, P' NullDeref", 1),
    ("epoch_scratch swap: P ok, P' ok", 3),
    ("epoch_scratch tokens: P ok, P' ok", 1),
    ("epoch_scratch tokens: unverified, P IllegalInstruction", 1),
    ("figure2 drop: P NullDeref, P' NullDeref", 1),
    (
        "figure2 drop: P StepBudgetExceeded, P' StepBudgetExceeded",
        2,
    ),
    ("figure2 drop: P ok, P' ok", 6),
    ("figure2 dup: P ok, P' ok", 5),
    ("figure2 flip: P ok, P' ok", 1),
    ("figure2 swap: P ok, P' ok", 2),
    ("figure2 swap: unverified, P IllegalInstruction", 1),
    (
        "figure2 tokens: P StepBudgetExceeded, P' StepBudgetExceeded",
        2,
    ),
    ("figure2 tokens: P ok, P' ok", 1),
    ("promote_scratch drop: P NullDeref, P' NullDeref", 1),
    (
        "promote_scratch drop: P StepBudgetExceeded, P' StepBudgetExceeded",
        3,
    ),
    ("promote_scratch drop: P ok, P' ok", 9),
    ("promote_scratch dup: P ok, P' ok", 9),
    ("promote_scratch flip: P ok, P' ok", 4),
    ("promote_scratch flip: unverified, P IllegalInstruction", 1),
    ("promote_scratch swap: P NullDeref, P' NullDeref", 2),
    ("promote_scratch swap: P ok, P' ok", 2),
    ("promote_scratch swap: unverified, P IllegalInstruction", 2),
    ("promote_scratch tokens: P ok, P' ok", 1),
    (
        "promote_scratch tokens: unverified, P IllegalInstruction",
        1,
    ),
    ("runaway_recursion drop: P NoEntry, P' NoEntry", 2),
    (
        "runaway_recursion drop: P StepBudgetExceeded, P' StepBudgetExceeded",
        3,
    ),
    ("runaway_recursion drop: P ok, P' ok", 2),
    (
        "runaway_recursion dup: P StepBudgetExceeded, P' StepBudgetExceeded",
        5,
    ),
    (
        "runaway_recursion flip: P StepBudgetExceeded, P' StepBudgetExceeded",
        9,
    ),
    (
        "runaway_recursion swap: P StepBudgetExceeded, P' StepBudgetExceeded",
        2,
    ),
    (
        "runaway_recursion tokens: P StepBudgetExceeded, P' StepBudgetExceeded",
        5,
    ),
    (
        "runaway_recursion truncate: P NoEntry, transform UnknownClass",
        10,
    ),
    ("shapes drop: P NullDeref, P' NullDeref", 1),
    ("shapes drop: P ok, P' ok", 8),
    ("shapes drop: unverified, P IllegalInstruction", 1),
    ("shapes dup: P ok, P' ok", 9),
    ("shapes flip: P ok, P' ok", 1),
    ("shapes swap: P ok, P' ok", 2),
    ("shapes tokens: unverified, P IllegalInstruction", 2),
    ("shapes truncate: P NoEntry, transform UnknownClass", 1),
    ("shapes truncate: P ok, P' ok", 1),
    ("sum_list drop: P NoEntry, P' NoEntry", 1),
    ("sum_list drop: P NullDeref, P' NullDeref", 4),
    (
        "sum_list drop: P StepBudgetExceeded, P' StepBudgetExceeded",
        2,
    ),
    ("sum_list drop: P ok, P' ok", 5),
    ("sum_list drop: unverified, P IllegalInstruction", 1),
    ("sum_list dup: P ok, P' ok", 8),
    ("sum_list flip: unverified, P IllegalInstruction", 1),
    ("sum_list swap: unverified, P IllegalInstruction", 2),
    ("sum_list swap: unverified, P NullDeref", 1),
    ("sum_list tokens: unverified, P IllegalInstruction", 1),
    ("text: P IllegalInstruction, P' IllegalInstruction", 1),
    ("text: P ok, P' ok", 1),
];
