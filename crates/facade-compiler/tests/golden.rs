//! Golden-snapshot tests for the compiler pipeline.
//!
//! Every corpus program is compiled with all passes enabled; the
//! pretty-printed IR after each stage is compared byte-for-byte against the
//! checked-in snapshot under `golden/<program>/<stage>.ir`. Regenerate with:
//!
//! ```text
//! FACADE_UPDATE_GOLDEN=1 cargo test -p facade-compiler --test golden
//! ```
//!
//! The corpus *is* the `golden/<program>/source.ir` text: each entry is
//! parsed from it, so the `source` stage comparison also proves the text
//! round-trips through the parser and printer unchanged.

use facade_compiler::{PassConfig, compile};
use std::fs;
use std::path::PathBuf;

const STAGES: [&str; 5] = [
    "source",
    "transformed",
    "pass_epoch",
    "pass_promote",
    "pass_fastalloc",
];

fn golden_dir(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(name)
}

fn update_mode() -> bool {
    std::env::var("FACADE_UPDATE_GOLDEN").is_ok_and(|v| v == "1")
}

#[test]
fn golden_snapshots_match() {
    let mut mismatches = Vec::new();
    for entry in facade_compiler::corpus::all() {
        let compiled = compile(&entry.program, &entry.spec, &PassConfig::all())
            .unwrap_or_else(|e| panic!("{} failed to compile: {e}", entry.name));
        let names: Vec<&str> = compiled.stages.iter().map(|s| s.name).collect();
        assert_eq!(names, STAGES, "{}: unexpected stage list", entry.name);

        let dir = golden_dir(entry.name);
        if update_mode() {
            fs::create_dir_all(&dir).unwrap();
        }
        for stage in &compiled.stages {
            let path = dir.join(format!("{}.ir", stage.name));
            if update_mode() {
                fs::write(&path, &*stage.render).unwrap();
                continue;
            }
            let want = fs::read_to_string(&path).unwrap_or_else(|e| {
                panic!(
                    "{}: missing golden {} ({e}); run with FACADE_UPDATE_GOLDEN=1",
                    entry.name,
                    path.display()
                )
            });
            if want != *stage.render {
                mismatches.push(format!("{}/{}", entry.name, stage.name));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "golden mismatches (FACADE_UPDATE_GOLDEN=1 to regenerate): {mismatches:?}"
    );
}

#[test]
fn figure2_bound_counts_only_reachable_call_sites() {
    // figure2's unreachable `take3(Student, Student, Student)` is cut before
    // the bounds are computed, so the transform's own bound is 1 and no
    // later stage changes it.
    let entry = facade_compiler::corpus::figure2();
    let full = compile(&entry.program, &entry.spec, &PassConfig::all()).unwrap();
    for stage in &full.stages[1..] {
        assert!(
            stage.render.contains(";; bound Student = 1"),
            "{} should pin the bound 1:\n{}",
            stage.name,
            stage.render
        );
    }
}

#[test]
fn promote_pass_deletes_the_scratch_allocation() {
    let entry = facade_compiler::corpus::promote_scratch();
    let full = compile(&entry.program, &entry.spec, &PassConfig::all()).unwrap();
    assert!(
        full.passes.promote.expect("promote ran").records_promoted >= 1,
        "expected at least one promoted record"
    );
}

#[test]
fn fastalloc_pass_marks_loop_allocations() {
    let entry = facade_compiler::corpus::epoch_scratch();
    let full = compile(&entry.program, &entry.spec, &PassConfig::all()).unwrap();
    assert!(
        full.passes.fastalloc.expect("fastalloc ran").sites_marked >= 1,
        "expected at least one fast-alloc site"
    );
    assert!(
        full.stage("pass_fastalloc")
            .unwrap()
            .render
            .contains("allocateFast"),
        "fastalloc snapshot should show the hint"
    );
}
