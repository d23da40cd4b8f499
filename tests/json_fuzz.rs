//! Seeded mutation fuzzing of the JSON the daemon reads and writes.
//!
//! The seeds are checked-in documents: `JobSpec::to_json` bodies (what
//! `POST /jobs` accepts) and `GET /jobs/<id>` status documents (what a
//! client of the daemon parses). Each seed is mutated six ways: byte flips,
//! truncation, nesting around a value deeper than the parser's depth bound,
//! bad and surrogate `\u` escapes inside a string, oversized and malformed
//! numbers, and one string grown to the HTTP layer's 256 KiB body cap.
//!
//! Every mutant must come back from `json::parse` and `JobSpec::from_json`
//! as a typed error or a value, never a panic or a hang (the whole run is
//! under a watchdog). A mutant accepted as a spec must round-trip through
//! `to_json`. The count of every outcome kind is pinned, so a change to the
//! parser that moves any outcome shows up here.

use datagen::SplitMix64;
use facade::job::JobSpec;
use facade::metrics::json;
use std::collections::BTreeMap;
use std::panic::{AssertUnwindSafe, catch_unwind};
use std::sync::mpsc;
use std::time::Duration;

/// `JobSpec::to_json` of four specs (`seeds_are_what_the_writers_print`
/// checks that each one is still what the writer prints).
const SPECS: [&str; 4] = [
    r#"{"workload": "word_count", "backend": "facade", "threads": 2, "workers": 4, "intervals": 8, "budget_bytes": 16777216, "frame_bytes": 16384}"#,
    r#"{"workload": "external_sort", "backend": "heap", "threads": 1, "workers": 4, "intervals": 8, "budget_bytes": 4194304, "frame_bytes": 16384, "tag": "es \"sort\"\nζ"}"#,
    r#"{"workload": "page_rank", "iterations": 4, "backend": "facade", "threads": 2, "workers": 4, "intervals": 8, "budget_bytes": 4194304, "frame_bytes": 16384, "checkpoint_dir": "ckpt/pr 1"}"#,
    r#"{"workload": "connected_components", "iterations": 20, "backend": "heap", "threads": 0, "workers": 1, "intervals": 12, "budget_bytes": 65536, "frame_bytes": 1}"#,
];

/// Bodies a daemon answered with (recorded from the router over its test
/// dataset): `GET /jobs/<id>` of a completed WordCount, ExternalSort and
/// PageRank and of a canceled job, a `POST /jobs` reply and `GET /jobs`.
const STATUSES: [&str; 6] = [
    r#"{"job": 1, "workload": "word_count", "status": "completed", "admission_shrinks": 0, "result": {"output": {"kind": "word_count", "distinct": 655, "total": 1416, "fingerprint": "f5c2aaafd9ef31b4"}, "elapsed_ms": 1, "resilience": {"retries": 0, "degradations": 0, "faults_injected": 0, "checkpoints_written": 0, "recoveries": 0}, "epoch": {"epoch": 1, "pages_out": 4, "pages_in": 6, "pages_created": 2, "reconciled": true}}}"#,
    r#"{"job": 2, "workload": "external_sort", "status": "completed", "admission_shrinks": 0, "result": {"output": {"kind": "external_sort", "rows": 1416, "checksum": "8469dab1fe6d88f6", "fingerprint": "2f1b56173b28fb25"}, "elapsed_ms": 0, "resilience": {"retries": 0, "degradations": 0, "faults_injected": 0, "checkpoints_written": 0, "recoveries": 0}}}"#,
    r#"{"job": 3, "workload": "page_rank", "status": "completed", "admission_shrinks": 0, "result": {"output": {"kind": "vertices", "vertices": 120, "fingerprint": "d219ec9b09fde9d0"}, "elapsed_ms": 3, "resilience": {"retries": 0, "degradations": 0, "faults_injected": 0, "checkpoints_written": 0, "recoveries": 0}, "epoch": {"epoch": 2, "pages_out": 51, "pages_in": 54, "pages_created": 3, "reconciled": true}}}"#,
    r#"{"job": 6, "workload": "page_rank", "status": "canceled", "admission_shrinks": 0, "error": {"error": "canceled", "message": "job canceled"}}"#,
    r#"{"job": 1, "status": "queued", "admission_shrinks": 0}"#,
    r#"{"jobs": [{"job": 1, "workload": "word_count", "status": "completed", "tag": ""}, {"job": 2, "workload": "external_sort", "status": "completed", "tag": "es"}]}"#,
];

/// The mutation kinds, in the order their seeds are drawn.
const KINDS: [&str; 6] = ["flip", "truncate", "nest", "escape", "number", "oversized"];

/// Mutants of each kind per seed (the oversized kind builds 256 KiB
/// documents, so it runs fewer).
fn mutants(kind: &str) -> usize {
    if kind == "oversized" { 4 } else { 96 }
}

/// The parser's nesting bound (`MAX_DEPTH` in `metrics::json`).
const MAX_DEPTH: usize = 128;

/// The HTTP layer's body cap, the largest document the daemon parses.
const BODY_CAP: usize = 256 * 1024;

/// What a byte flip writes: JSON's structural characters and a few others.
const FLIP_BYTES: &[u8] = b"{}[]\":,\\ 0123456789-+.eEtfnulrsa\t\n\0\x7f";

/// What the escape kind inserts into a string.
const ESCAPES: [&str; 14] = [
    r"\x",
    r"\u12",
    r"\u+041",
    r"\u-041",
    r"\ud800",
    r"\udc00",
    r"\ud83d\ude00",
    r"\ud83dA",
    r"\udbff\udfff",
    r"\uDFFF\uD800",
    r"\u0000",
    r"é",
    r"\",
    r#"\""#,
];

/// What the number kind writes in place of a number.
const NUMBERS: [&str; 16] = [
    "1e400",
    "-1e400",
    "1e-400",
    "18446744073709551616",
    "1e19",
    "9007199254740993",
    "-1",
    "-0",
    "1.5",
    "01",
    "1.",
    "-",
    "1e",
    "1e+",
    "0x10",
    "Infinity",
];

/// Inputs that once misbehaved, each kept by name with what it must give:
/// `Some(tag)` for a spec accepted with that tag, `None` for an error.
fn named() -> Vec<(&'static str, String, Option<String>)> {
    vec![
        // Copying a string one character at a time validated the whole rest
        // of the document per character: a string at the body cap took
        // seconds, and the oversized mutants tripped the watchdog.
        (
            "long_string_parses_in_linear_time",
            format!(r#"{{"tag": "{}"}}"#, "a".repeat(BODY_CAP)),
            Some("a".repeat(BODY_CAP)),
        ),
        // A surrogate pair, as most JSON writers escape a character outside
        // the BMP, decoded to two replacement characters.
        (
            "surrogate_pair_is_one_character",
            r#"{"tag": "\ud83d\ude00 \ud83dA \udc00"}"#.to_string(),
            Some("\u{1f600} \u{fffd}A \u{fffd}".to_string()),
        ),
        // `u32::from_str_radix` takes a sign, so `\u+041` read as `A`.
        (
            "sign_in_a_unicode_escape",
            r#"{"tag": "\u+041"}"#.to_string(),
            None,
        ),
    ]
}

fn below(rng: &mut SplitMix64, n: usize) -> usize {
    rng.next_below(n as u64) as usize
}

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The byte offsets at which a value starts after a `": "` separator.
fn value_starts(text: &str) -> Vec<usize> {
    text.match_indices(": ").map(|(i, _)| i + 2).collect()
}

/// The end of the value starting at `at`: the next `,` or `}` at the same
/// depth, outside strings.
fn value_end(text: &[u8], at: usize) -> usize {
    let (mut depth, mut in_str, mut i) = (0i32, false, at);
    while i < text.len() {
        match (text[i], in_str) {
            (b'\\', true) => i += 1,
            (b'"', _) => in_str = !in_str,
            (b'{' | b'[', false) => depth += 1,
            (b'}' | b']', false) if depth == 0 => return i,
            (b'}' | b']', false) => depth -= 1,
            (b',', false) if depth == 0 => return i,
            _ => {}
        }
        i += 1;
    }
    text.len()
}

/// The `(start, end)` of every number value.
fn numbers(text: &str) -> Vec<(usize, usize)> {
    value_starts(text)
        .into_iter()
        .filter(|&at| matches!(text.as_bytes()[at], b'-' | b'0'..=b'9'))
        .map(|at| (at, value_end(text.as_bytes(), at)))
        .collect()
}

/// The offset just inside every string value's opening quote.
fn string_bodies(text: &str) -> Vec<usize> {
    value_starts(text)
        .into_iter()
        .filter(|&at| text.as_bytes()[at] == b'"')
        .map(|at| at + 1)
        .collect()
}

fn mutate(text: &str, kind: &str, rng: &mut SplitMix64) -> Vec<u8> {
    let bytes = text.as_bytes();
    let splice = |at: usize, end: usize, with: &str| {
        let mut out = bytes[..at].to_vec();
        out.extend_from_slice(with.as_bytes());
        out.extend_from_slice(&bytes[end..]);
        out
    };
    match kind {
        "flip" => {
            let mut out = bytes.to_vec();
            for _ in 0..1 + below(rng, 3) {
                let at = below(rng, out.len());
                out[at] = if below(rng, 4) == 0 {
                    rng.next_u64() as u8
                } else {
                    FLIP_BYTES[below(rng, FLIP_BYTES.len())]
                };
            }
            out
        }
        "truncate" => bytes[..below(rng, bytes.len())].to_vec(),
        "nest" => {
            let starts = value_starts(text);
            let at = starts[below(rng, starts.len())];
            let end = value_end(bytes, at);
            let depth = [
                MAX_DEPTH - 2,
                MAX_DEPTH - 1,
                MAX_DEPTH,
                MAX_DEPTH + 1,
                100_000,
            ][below(rng, 5)];
            let (open, close) = if below(rng, 2) == 0 {
                ("[".repeat(depth), "]".repeat(depth))
            } else {
                ("{\"k\": ".repeat(depth), "}".repeat(depth))
            };
            // Some mutants lose the closing run: deep and unterminated.
            let close = if below(rng, 4) == 0 { "" } else { &close };
            splice(at, end, &format!("{open}{}{close}", &text[at..end]))
        }
        "escape" => {
            let strings = string_bodies(text);
            let at = strings[below(rng, strings.len())];
            splice(at, at, ESCAPES[below(rng, ESCAPES.len())])
        }
        "number" => {
            let nums = numbers(text);
            let (at, end) = nums[below(rng, nums.len())];
            let with = if below(rng, 4) == 0 {
                "9".repeat(1 + below(rng, 600))
            } else {
                NUMBERS[below(rng, NUMBERS.len())].to_string()
            };
            splice(at, end, &with)
        }
        "oversized" => {
            let strings = string_bodies(text);
            let at = strings[below(rng, strings.len())];
            let grow = BODY_CAP.saturating_sub(text.len());
            let with = match below(rng, 3) {
                0 => "a".repeat(grow),
                1 => "\\n".repeat(grow / 2),
                _ => "é".repeat(grow / 2),
            };
            splice(at, at, &with)
        }
        other => unreachable!("mutation kind {other}"),
    }
}

/// Parses one mutant, checks the invariants, and names its outcome.
fn outcome(id: &str, bytes: &[u8], is_spec: bool) -> String {
    // The daemon rejects a body that is not UTF-8 before it parses JSON.
    let Ok(text) = std::str::from_utf8(bytes) else {
        return "not utf-8".into();
    };
    let parsed = catch_unwind(AssertUnwindSafe(|| json::parse(text)))
        .unwrap_or_else(|_| panic!("{id}: json::parse panicked on {text:?}"));
    if !is_spec {
        return match parsed {
            Ok(_) => "ok".into(),
            Err(e) => format!("json: {}", e.message),
        };
    }
    let spec = catch_unwind(AssertUnwindSafe(|| JobSpec::from_json(text)))
        .unwrap_or_else(|_| panic!("{id}: JobSpec::from_json panicked on {text:?}"));
    match (parsed, spec) {
        (Err(e), Err(_)) => format!("json: {}", e.message),
        (Ok(_), Ok(spec)) => {
            let again = JobSpec::from_json(&spec.to_json());
            assert_eq!(
                again.as_ref(),
                Ok(&spec),
                "{id}: accepted spec does not round-trip"
            );
            "accepted".into()
        }
        (Ok(_), Err(_)) => "rejected".into(),
        (Err(e), Ok(_)) => panic!("{id}: from_json accepted what json::parse rejects ({e})"),
    }
}

/// Every mutant's outcome, counted per `(kind, outcome)`.
fn run() -> BTreeMap<String, usize> {
    let mut counts = BTreeMap::new();
    let seeds = SPECS.iter().map(|s| (true, *s));
    let seeds = seeds.chain(STATUSES.iter().map(|s| (false, *s)));
    for (s, (is_spec, seed)) in seeds.enumerate() {
        for (k, kind) in KINDS.iter().enumerate() {
            let mut rng = SplitMix64::new(fnv(seed.as_bytes()) ^ k as u64);
            for i in 0..mutants(kind) {
                let id = format!("seed {s} {kind} {i}");
                let mutant = mutate(seed, kind, &mut rng);
                let what = outcome(&id, &mutant, is_spec);
                let doc = if is_spec { "spec" } else { "status" };
                *counts.entry(format!("{doc} {kind}: {what}")).or_default() += 1;
            }
        }
    }
    counts
}

/// Runs `f` on a thread of its own and fails if it has not finished in
/// `limit`: a parser that loops or goes quadratic fails instead of hanging.
fn within<T: Send + 'static>(limit: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(limit) {
        Ok(value) => {
            worker.join().expect("the fuzz thread finished");
            value
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(worker.join().expect_err("the fuzz thread panicked"))
        }
        // The worker is left running: the failing test ends the process.
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("the fuzz run did not finish in {limit:?}"),
    }
}

#[test]
fn seeds_are_what_the_writers_print() {
    for seed in SPECS {
        let spec = JobSpec::from_json(seed).expect("a seed spec parses");
        assert_eq!(spec.to_json(), seed);
    }
    for seed in STATUSES {
        json::parse(seed).expect("a seed status parses");
    }
}

#[test]
fn named_inputs_give_their_pinned_outcome() {
    let outcomes = within(Duration::from_secs(60), || {
        named()
            .into_iter()
            .map(|(name, text, want)| (name, JobSpec::from_json(&text).ok().map(|s| s.tag), want))
            .collect::<Vec<_>>()
    });
    for (name, got, want) in outcomes {
        assert_eq!(got, want, "{name}");
    }
}

#[test]
fn mutant_outcomes_are_pinned() {
    let got = within(Duration::from_secs(120), run);
    let want: BTreeMap<String, usize> = PINS.iter().map(|&(k, n)| (k.to_string(), n)).collect();
    let table: String = got
        .iter()
        .map(|(k, n)| format!("    ({k:?}, {n}),\n"))
        .collect();
    assert!(got == want, "outcome counts moved; the run gave:\n{table}");
}

/// Mutant count per `(document, kind, outcome)`.
const PINS: &[(&str, usize)] = &[
    ("spec escape: accepted", 30),
    ("spec escape: json: invalid \\u escape", 76),
    ("spec escape: json: unknown escape character", 49),
    ("spec escape: rejected", 229),
    ("spec flip: accepted", 87),
    ("spec flip: json: expected '\"'", 58),
    ("spec flip: json: expected ',' or '}' in object", 35),
    ("spec flip: json: expected ':' after object key", 45),
    ("spec flip: json: expected a JSON value", 29),
    ("spec flip: json: invalid literal", 3),
    ("spec flip: json: invalid number", 2),
    ("spec flip: json: unknown escape character", 5),
    ("spec flip: json: unterminated string", 2),
    ("spec flip: not utf-8", 86),
    ("spec flip: rejected", 32),
    ("spec nest: accepted", 125),
    ("spec nest: json: expected ',' or ']' in array", 17),
    ("spec nest: json: expected ',' or '}' in object", 19),
    ("spec nest: json: nesting too deep", 223),
    ("spec number: accepted", 115),
    ("spec number: json: expected ',' or '}' in object", 12),
    ("spec number: json: expected a JSON value", 14),
    ("spec number: json: invalid number", 143),
    ("spec number: rejected", 100),
    ("spec oversized: accepted", 2),
    ("spec oversized: rejected", 14),
    ("spec truncate: json: expected '\"'", 43),
    ("spec truncate: json: expected ',' or '}' in object", 37),
    ("spec truncate: json: expected ':' after object key", 26),
    ("spec truncate: json: expected a JSON value", 36),
    ("spec truncate: json: unterminated string", 242),
    ("status escape: json: invalid \\u escape", 107),
    ("status escape: json: unknown escape character", 100),
    ("status escape: ok", 369),
    ("status flip: json: expected '\"'", 61),
    ("status flip: json: expected ',' or ']' in array", 2),
    ("status flip: json: expected ',' or '}' in object", 53),
    ("status flip: json: expected ':' after object key", 73),
    ("status flip: json: expected a JSON value", 29),
    ("status flip: json: invalid literal", 5),
    ("status flip: json: invalid number", 5),
    ("status flip: json: trailing characters after document", 3),
    ("status flip: json: unknown escape character", 5),
    ("status flip: json: unterminated string", 6),
    ("status flip: not utf-8", 154),
    ("status flip: ok", 180),
    ("status nest: json: expected ',' or ']' in array", 16),
    ("status nest: json: expected ',' or '}' in object", 8),
    ("status nest: json: nesting too deep", 483),
    ("status nest: ok", 69),
    ("status number: json: expected ',' or '}' in object", 21),
    ("status number: json: expected a JSON value", 22),
    ("status number: json: invalid number", 216),
    ("status number: ok", 317),
    ("status oversized: ok", 24),
    ("status truncate: json: expected '\"'", 55),
    ("status truncate: json: expected ',' or ']' in array", 1),
    ("status truncate: json: expected ',' or '}' in object", 27),
    ("status truncate: json: expected ':' after object key", 38),
    ("status truncate: json: expected a JSON value", 70),
    ("status truncate: json: invalid literal", 4),
    ("status truncate: json: unterminated string", 381),
];
