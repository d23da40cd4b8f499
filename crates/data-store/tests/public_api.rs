//! Public-API snapshot check: the `pub` surface of `data-store` — plus the
//! unified job API (`facade-job`), the daemon built on it (`facade-server`)
//! and the three files a run's configuration passes through on the way down
//! (`graphchi-rs/src/engine.rs`, `hyracks-rs/src/cluster.rs`,
//! `facade-runtime/src/pool.rs`) — is written out (declaration signatures,
//! per source file) and compared against the checked-in snapshot under
//! `api/`. An unreviewed API change — a renamed builder method, a struct
//! going private — fails this test before it reaches a consumer.
//!
//! To accept an intentional change, regenerate the snapshot:
//!
//! ```text
//! FACADE_UPDATE_API=1 cargo test -p data-store --test public_api
//! ```
//!
//! The extraction is textual (no nightly rustdoc JSON, no extra tooling):
//! every `pub` declaration line, with multi-line signatures joined and
//! whitespace collapsed. `pub(crate)`/`pub(super)` items are internal and
//! excluded; items inside `#[cfg(test)]` modules never reach the surface
//! because test modules are not `pub`.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// `true` when a trimmed line opens a public declaration (not a scoped
/// `pub(...)` one).
fn is_pub_decl(line: &str) -> bool {
    line.strip_prefix("pub")
        .is_some_and(|rest| rest.starts_with(' ') || rest.starts_with('\t'))
}

/// Joins a declaration that spans lines until its body brace or terminating
/// semicolon, then collapses whitespace. Signatures — not bodies — are the
/// snapshot's subject.
fn signature(lines: &[&str], start: usize) -> String {
    let mut sig = String::new();
    for line in &lines[start..] {
        let trimmed = line.trim();
        if !sig.is_empty() {
            sig.push(' ');
        }
        sig.push_str(trimmed);
        // A trailing comma ends a declaration only outside an argument
        // list (a struct field, not a wrapped `fn` parameter).
        let depth: i32 = sig
            .chars()
            .map(|c| match c {
                '(' => 1,
                ')' => -1,
                _ => 0,
            })
            .sum();
        if trimmed.ends_with('{')
            || trimmed.ends_with(';')
            || trimmed.ends_with('}')
            || (depth == 0 && trimmed.ends_with(','))
        {
            break;
        }
    }
    let sig = sig
        .trim_end_matches('{')
        .trim_end_matches(';')
        .trim_end_matches(',')
        .trim_end();
    sig.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Renders one crate's public surface into `entries`, one
/// `label/file: signature` line each (`file: signature` when the label is
/// empty, keeping historical data-store lines stable).
fn render_crate(entries: &mut Vec<String>, label: &str, src: &Path) {
    let mut files: Vec<PathBuf> = fs::read_dir(src)
        .expect("src dir exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    files.sort();

    for path in files {
        render_file(entries, label, &path);
    }
}

/// Renders one source file's public surface (see [`render_crate`]).
fn render_file(entries: &mut Vec<String>, label: &str, path: &Path) {
    let name = path.file_name().unwrap().to_string_lossy().into_owned();
    let name = if label.is_empty() {
        name
    } else {
        format!("{label}/{name}")
    };
    let text = fs::read_to_string(path).expect("source file reads");
    let lines: Vec<&str> = text.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        if is_pub_decl(line.trim()) {
            entries.push(format!("{name}: {}", signature(&lines, i)));
        }
    }
}

/// Renders the whole pinned surface: data-store, the job-API crates layered
/// on top of it and the engine-config / page-pool files beneath it, sorted
/// for stability.
fn render_surface() -> String {
    let crates_dir = manifest_dir().parent().unwrap().to_path_buf();
    let mut entries: Vec<String> = Vec::new();
    render_crate(&mut entries, "", &manifest_dir().join("src"));
    render_crate(
        &mut entries,
        "facade-job",
        &crates_dir.join("facade-job/src"),
    );
    render_crate(
        &mut entries,
        "facade-server",
        &crates_dir.join("facade-server/src"),
    );
    // The run-configuration path below the job API: the two engine configs
    // and the page pool. A config that grows a field shows up here.
    for (label, file) in [
        ("graphchi-rs", "graphchi-rs/src/engine.rs"),
        ("hyracks-rs", "hyracks-rs/src/cluster.rs"),
        ("facade-runtime", "facade-runtime/src/pool.rs"),
    ] {
        render_file(&mut entries, label, &crates_dir.join(file));
    }
    entries.sort();
    entries.dedup();
    let mut out = String::new();
    for entry in &entries {
        writeln!(out, "{entry}").unwrap();
    }
    out
}

#[test]
fn public_api_matches_snapshot() {
    let snapshot_path = manifest_dir().join("api/public-api.txt");
    let current = render_surface();

    if std::env::var("FACADE_UPDATE_API").is_ok() {
        fs::create_dir_all(snapshot_path.parent().unwrap()).unwrap();
        fs::write(&snapshot_path, &current).expect("write snapshot");
        eprintln!("updated {}", snapshot_path.display());
        return;
    }

    let snapshot = fs::read_to_string(&snapshot_path).unwrap_or_else(|e| {
        panic!(
            "no API snapshot at {} ({e}); generate one with \
             FACADE_UPDATE_API=1 cargo test -p data-store --test public_api",
            snapshot_path.display()
        )
    });
    if snapshot != current {
        let mut diff = String::new();
        for line in snapshot.lines() {
            if !current.contains(line) {
                writeln!(diff, "- {line}").unwrap();
            }
        }
        for line in current.lines() {
            if !snapshot.contains(line) {
                writeln!(diff, "+ {line}").unwrap();
            }
        }
        panic!(
            "the pinned public API (data-store / facade-job / facade-server / engine configs / pool) changed:\n{diff}\n\
             If intentional, review the diff and regenerate the snapshot:\n  \
             FACADE_UPDATE_API=1 cargo test -p data-store --test public_api"
        );
    }
}

/// The store builder and the unified job API are contracts: the one store
/// constructor, the spec/handle/runner trio and the dispatcher entry points
/// must stay on the snapshot so a consumer-breaking rename is a reviewed
/// change.
#[test]
fn snapshot_pins_the_builder_and_job_api_surface() {
    let snapshot = fs::read_to_string(manifest_dir().join("api/public-api.txt"))
        .expect("snapshot is checked in");
    for item in [
        "lib.rs: pub fn builder() -> StoreBuilder",
        "lib.rs: pub struct StoreBuilder",
        "facade-job/spec.rs: pub struct JobSpec",
        "facade-job/dispatch.rs: pub struct JobHandle",
        "facade-job/runner.rs: pub trait JobRunner: Send + Sync",
        "facade-job/dispatch.rs: pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, JobError>",
        "facade-job/runner.rs: pub fn default_runners() -> Vec<Box<dyn JobRunner>>",
        "facade-server/server.rs: pub struct FacadeServer",
        "facade-server/admission.rs: pub struct AdmissionController",
        "facade-server/server.rs: pub fn shutdown(self) -> ShutdownReport",
    ] {
        assert!(
            snapshot.contains(item),
            "snapshot must pin `{item}` on the public surface"
        );
    }
}

/// The `pub` fields of `pub struct <name>` in `text`, in declaration order.
fn struct_fields(text: &str, name: &str) -> Vec<String> {
    let open = format!("pub struct {name} {{");
    text.lines()
        .skip_while(|line| line.trim() != open)
        .skip(1)
        .take_while(|line| line.trim() != "}")
        .filter_map(|line| line.trim().strip_prefix("pub ")?.split_once(':'))
        .map(|(field, _)| field.to_string())
        .collect()
}

/// `true` when `line` reads `.field` as a field: not a longer identifier,
/// not a method call, not the target of an assignment.
fn reads_field(line: &str, field: &str) -> bool {
    let access = format!(".{field}");
    line.match_indices(&access).any(|(at, _)| {
        let rest = &line[at + access.len()..];
        let longer = rest.starts_with(|c: char| c.is_alphanumeric() || c == '_');
        let rest = rest.trim_start();
        let assigned = ["=", "+=", "-="]
            .iter()
            .any(|op| rest.starts_with(op) && !rest.starts_with("=="));
        !longer && !rest.starts_with('(') && !assigned
    })
}

/// Every non-test `.rs` line under `dir` (recursively), except in the files
/// whose paths end in one of `exclude`: `tests/` trees are skipped and a
/// file ends at its `#[cfg(test)]` module.
fn production_lines(dir: &Path, exclude: &[&str], out: &mut Vec<String>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for path in entries.map(|e| e.expect("dir entry").path()) {
        if path.is_dir() {
            if !path.ends_with("tests") {
                production_lines(&path, exclude, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs")
            && !exclude.iter().any(|file| path.ends_with(file))
        {
            let text = fs::read_to_string(&path).expect("source file reads");
            let lines = text.lines().take_while(|l| l.trim() != "#[cfg(test)]");
            out.extend(lines.map(str::to_string));
        }
    }
}

/// Telemetry is pulled (DESIGN.md §2): an engine fills a result field only
/// if something outside the engine reads it. For every `pub` field of the
/// three engine result structs, some production line outside the two
/// defining files — in a workspace crate, a bench bin or the benchmark —
/// must read `.field`.
#[test]
fn every_engine_result_field_has_a_reader() {
    const ENGINE: &str = "graphchi-rs/src/engine.rs";
    const CLUSTER: &str = "hyracks-rs/src/cluster.rs";
    let crates_dir = manifest_dir().parent().unwrap().to_path_buf();
    let snapshot = fs::read_to_string(manifest_dir().join("api/public-api.txt"))
        .expect("snapshot is checked in");

    let mut lines = Vec::new();
    for dir in [crates_dir.clone(), crates_dir.join("../benchmark/src")] {
        production_lines(&dir, &[ENGINE, CLUSTER], &mut lines);
    }

    let mut unread = Vec::new();
    for (file, name) in [
        (ENGINE, "RunOutcome"),
        (CLUSTER, "JobStats"),
        (CLUSTER, "WorkerReport"),
    ] {
        let text = fs::read_to_string(crates_dir.join(file)).expect("engine source reads");
        let fields = struct_fields(&text, name);
        assert!(
            !fields.is_empty(),
            "`pub struct {name}` not found in {file}"
        );
        for field in fields {
            // The snapshot labels an engine file `<crate>/<file>.rs`.
            let pinned = format!("{}: pub {field}: ", file.replace("/src/", "/"));
            assert!(
                snapshot.contains(&pinned),
                "snapshot must list {name}::{field}"
            );
            if !lines.iter().any(|line| reads_field(line, &field)) {
                unread.push(format!("{name}::{field}"));
            }
        }
    }
    assert!(
        unread.is_empty(),
        "written by an engine on every run, read by nothing outside it: {unread:?}\n\
         Delete the field, or let the reader take the figure on demand."
    );
}
