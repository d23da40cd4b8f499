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
fn epoch_pass_shrinks_figure2_bound() {
    // figure2's unreachable take3(Student, Student, Student) inflates the
    // whole-program bound to 3; the reachability-based shrink restores 1.
    let entry = facade_compiler::corpus::figure2();
    let full = compile(&entry.program, &entry.spec, &PassConfig::all()).unwrap();
    let epoch = full.passes.epoch.expect("epoch pass ran");
    assert!(epoch.bounds_shrunk >= 1, "expected a shrunk bound");
    assert!(epoch.facades_removed >= 2, "expected facades removed");
    let snapshot = &full.stage("pass_epoch").unwrap().render;
    assert!(
        snapshot.contains(";; bound Student = 1"),
        "epoch snapshot should pin the shrunk bound:\n{snapshot}"
    );
    let before = &full.stage("transformed").unwrap().render;
    assert!(
        before.contains(";; bound Student = 3"),
        "pre-pass snapshot should show the inflated bound:\n{before}"
    );
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
