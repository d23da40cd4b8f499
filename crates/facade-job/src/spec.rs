//! Job specifications: what to run, on which backend, under which budget.

use metrics::json::{self, Json};
use metrics::report::Backend;
use std::fmt;
use std::path::{Component, Path, PathBuf};

/// The workloads the unified job API can run, spanning both engines: WC/ES
/// execute on the Hyracks-style cluster, PR/CC on the GraphChi-style
/// engine. One vocabulary, so a submitter (bench binary, HTTP client) does
/// not care which engine serves the request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Workload {
    /// MapReduce word count over the corpus (Table 3's WC).
    WordCount,
    /// External sort over the corpus (Table 3's ES).
    ExternalSort,
    /// PageRank over the graph, a fixed number of power iterations.
    PageRank {
        /// Power iterations to run (early convergence may stop sooner).
        iterations: usize,
    },
    /// Connected components by label propagation over the graph.
    ConnectedComponents {
        /// Upper bound on propagation passes.
        max_iterations: usize,
    },
}

impl Workload {
    /// The wire name used in JSON job submissions.
    pub fn kind(&self) -> &'static str {
        match self {
            Workload::WordCount => "word_count",
            Workload::ExternalSort => "external_sort",
            Workload::PageRank { .. } => "page_rank",
            Workload::ConnectedComponents { .. } => "connected_components",
        }
    }

    /// Whether this workload consumes the corpus (WC/ES) or the graph
    /// (PR/CC).
    pub fn uses_corpus(&self) -> bool {
        matches!(self, Workload::WordCount | Workload::ExternalSort)
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Workload::PageRank { iterations } => write!(f, "page_rank({iterations})"),
            Workload::ConnectedComponents { max_iterations } => {
                write!(f, "connected_components({max_iterations})")
            }
            w => f.write_str(w.kind()),
        }
    }
}

/// One job submission: workload + sizing + budget + checkpoint policy.
///
/// The spec is engine-agnostic — `workers`/`frame_bytes` only matter to
/// cluster workloads, `intervals` only to graph workloads; the irrelevant
/// knobs are ignored, so one schema serves every submission path (Rust
/// callers, the `facade-server` HTTP endpoint, bench binaries).
///
/// Round-trips through JSON via [`JobSpec::to_json`] / [`JobSpec::from_json`].
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// What to run.
    pub workload: Workload,
    /// Storage backend for the data path (`P` = heap, `P'` = facade).
    pub backend: Backend,
    /// OS threads executing the job (`0` = the engine's default).
    pub threads: usize,
    /// Data partitions for cluster workloads (fixes WC/ES output bit-for-bit).
    pub workers: usize,
    /// Execution intervals for graph workloads (the paper's shard count).
    pub intervals: usize,
    /// Memory budget in bytes — the whole-job budget for graph workloads,
    /// the per-worker budget for cluster workloads.
    pub budget_bytes: usize,
    /// Frame granularity for cluster workloads.
    pub frame_bytes: usize,
    /// Directory for phase/interval checkpoints (`None` = no durability).
    /// Setting it also means resume: a job that finds a verified checkpoint
    /// of the same spec and data there continues from it. Rust callers may
    /// name any directory; one that arrives over the wire
    /// ([`JobSpec::from_json`]) is confined to the host's working directory.
    pub checkpoint_dir: Option<PathBuf>,
    /// Free-form label echoed through reports and server listings.
    pub tag: String,
    /// Deterministic fault schedule for resilience testing; the runner
    /// installs it on the job's stores (never on a host-shared pool).
    /// Rust-only: [`JobSpec::from_json`] never reads one off the wire.
    pub fault_plan: Option<data_store::FaultPlan>,
}

impl Default for JobSpec {
    fn default() -> Self {
        Self {
            workload: Workload::WordCount,
            backend: Backend::Facade,
            threads: 2,
            workers: 4,
            intervals: 8,
            budget_bytes: 16 << 20,
            frame_bytes: 16 << 10,
            checkpoint_dir: None,
            tag: String::new(),
            fault_plan: None,
        }
    }
}

// Fault plans are live runtime objects (shared atomic counters) with no
// meaningful equality; spec equality covers everything a submission wire
// format can carry.
impl PartialEq for JobSpec {
    fn eq(&self, other: &Self) -> bool {
        self.workload == other.workload
            && self.backend == other.backend
            && self.threads == other.threads
            && self.workers == other.workers
            && self.intervals == other.intervals
            && self.budget_bytes == other.budget_bytes
            && self.frame_bytes == other.frame_bytes
            && self.checkpoint_dir == other.checkpoint_dir
            && self.tag == other.tag
    }
}

/// A rejected [`JobSpec`]: what was wrong, suitable for a 400 response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid job spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

/// Most power/propagation iterations a single job may ask for. Specs come
/// straight off the wire, and running jobs occupy an executor until they
/// finish — without a ceiling one `POST /jobs` with `iterations:
/// u64::MAX` parks an executor (and stalls drain-on-shutdown) for ever.
/// Real convergence runs use tens of iterations; the cap leaves three
/// orders of magnitude of headroom.
pub const MAX_ITERATIONS: usize = 10_000;

/// Ceiling on data partitions (`workers`) — each worker materializes
/// per-partition state, so the wire must not pick an arbitrary count.
pub const MAX_WORKERS: usize = 1_024;

/// Ceiling on OS threads a spec may request.
pub const MAX_THREADS: usize = 512;

/// Ceiling on execution intervals (the paper fixes 20; leave headroom).
pub const MAX_INTERVALS: usize = 10_000;

/// Longest `checkpoint_dir` the wire may carry, in bytes.
const MAX_WIRE_CHECKPOINT_DIR: usize = 255;

/// Checks a `checkpoint_dir` that came off the wire. The job will create,
/// rename and delete files there with the daemon's privileges, so a client
/// only gets to name a directory *below the daemon's working directory*: a
/// relative path of at most [`MAX_WIRE_CHECKPOINT_DIR`] bytes whose
/// `/`-separated components are all plain names — no root or prefix, no
/// `.` or `..`, nothing empty (so no `//` and no trailing `/`), no NUL.
fn wire_checkpoint_dir(raw: &str) -> Result<PathBuf, SpecError> {
    let plain_names = raw
        .split('/')
        .all(|c| !c.is_empty() && c != "." && c != ".." && !c.contains('\0'));
    // The component walk is what knows a platform's roots and prefixes.
    let relative = Path::new(raw)
        .components()
        .all(|c| matches!(c, Component::Normal(_)));
    if raw.len() <= MAX_WIRE_CHECKPOINT_DIR && plain_names && relative {
        Ok(PathBuf::from(raw))
    } else {
        Err(SpecError(format!(
            "checkpoint_dir must be a relative path of at most {MAX_WIRE_CHECKPOINT_DIR} bytes \
             made of plain names (no root, `.`, `..` or empty component), got {raw:?}"
        )))
    }
}

impl JobSpec {
    /// Checks the spec for shapes no engine can run. Returns the spec back
    /// so submission sites can validate-and-forward in one expression.
    pub fn validated(self) -> Result<JobSpec, SpecError> {
        if self.workers == 0 {
            return Err(SpecError("workers must be at least 1".into()));
        }
        if self.workers > MAX_WORKERS {
            return Err(SpecError(format!(
                "workers {} exceeds the cap of {MAX_WORKERS}",
                self.workers
            )));
        }
        if self.threads > MAX_THREADS {
            return Err(SpecError(format!(
                "threads {} exceeds the cap of {MAX_THREADS}",
                self.threads
            )));
        }
        if self.intervals == 0 {
            return Err(SpecError("intervals must be at least 1".into()));
        }
        if self.intervals > MAX_INTERVALS {
            return Err(SpecError(format!(
                "intervals {} exceeds the cap of {MAX_INTERVALS}",
                self.intervals
            )));
        }
        if self.budget_bytes < 64 << 10 {
            return Err(SpecError(format!(
                "budget_bytes {} is below the 64 KiB floor",
                self.budget_bytes
            )));
        }
        if self.frame_bytes == 0 {
            return Err(SpecError("frame_bytes must be nonzero".into()));
        }
        match self.workload {
            Workload::PageRank { iterations: 0 } => {
                Err(SpecError("page_rank needs at least 1 iteration".into()))
            }
            Workload::ConnectedComponents { max_iterations: 0 } => Err(SpecError(
                "connected_components needs at least 1 iteration".into(),
            )),
            Workload::PageRank { iterations: n }
            | Workload::ConnectedComponents { max_iterations: n }
                if n > MAX_ITERATIONS =>
            {
                Err(SpecError(format!(
                    "{n} iterations exceeds the cap of {MAX_ITERATIONS}"
                )))
            }
            _ => Ok(self),
        }
    }

    /// Serializes the spec as one JSON object — the body `POST /jobs`
    /// accepts. Fault plans are runtime objects and do not serialize; a
    /// round-trip drops them.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push('{');
        out.push_str(&format!("\"workload\": \"{}\"", self.workload.kind()));
        match &self.workload {
            Workload::PageRank { iterations } => {
                out.push_str(&format!(", \"iterations\": {iterations}"));
            }
            Workload::ConnectedComponents { max_iterations } => {
                out.push_str(&format!(", \"iterations\": {max_iterations}"));
            }
            _ => {}
        }
        out.push_str(&format!(
            ", \"backend\": \"{}\"",
            match self.backend {
                Backend::Heap => "heap",
                Backend::Facade => "facade",
            }
        ));
        out.push_str(&format!(", \"threads\": {}", self.threads));
        out.push_str(&format!(", \"workers\": {}", self.workers));
        out.push_str(&format!(", \"intervals\": {}", self.intervals));
        out.push_str(&format!(", \"budget_bytes\": {}", self.budget_bytes));
        out.push_str(&format!(", \"frame_bytes\": {}", self.frame_bytes));
        if let Some(dir) = &self.checkpoint_dir {
            out.push_str(&format!(
                ", \"checkpoint_dir\": \"{}\"",
                json::escape(&dir.display().to_string())
            ));
        }
        if !self.tag.is_empty() {
            out.push_str(&format!(", \"tag\": \"{}\"", json::escape(&self.tag)));
        }
        out.push('}');
        out
    }

    /// Parses a JSON job submission. Unknown keys are ignored (callers may
    /// decorate); missing keys fall back to [`JobSpec::default`]; the
    /// result is [`validated`](JobSpec::validated). This is the wire
    /// boundary, so a `checkpoint_dir` must be a relative path of plain
    /// names (it resolves against the host's working directory); anything
    /// else is a [`SpecError`].
    pub fn from_json(text: &str) -> Result<JobSpec, SpecError> {
        let doc = json::parse(text).map_err(|e| SpecError(format!("bad JSON: {e}")))?;
        let mut spec = JobSpec::default();
        let iterations = doc.get("iterations").and_then(Json::as_u64);
        if let Some(kind) = doc.get("workload").and_then(Json::as_str) {
            spec.workload = match kind {
                "word_count" => Workload::WordCount,
                "external_sort" => Workload::ExternalSort,
                "page_rank" => Workload::PageRank {
                    iterations: iterations.unwrap_or(4) as usize,
                },
                "connected_components" => Workload::ConnectedComponents {
                    max_iterations: iterations.unwrap_or(20) as usize,
                },
                other => return Err(SpecError(format!("unknown workload `{other}`"))),
            };
        }
        if let Some(backend) = doc.get("backend").and_then(Json::as_str) {
            spec.backend = match backend {
                "heap" => Backend::Heap,
                "facade" => Backend::Facade,
                other => return Err(SpecError(format!("unknown backend `{other}`"))),
            };
        }
        let usize_field = |key: &str, into: &mut usize| {
            if let Some(v) = doc.get(key).and_then(Json::as_u64) {
                *into = v as usize;
            }
        };
        usize_field("threads", &mut spec.threads);
        usize_field("workers", &mut spec.workers);
        usize_field("intervals", &mut spec.intervals);
        usize_field("budget_bytes", &mut spec.budget_bytes);
        usize_field("frame_bytes", &mut spec.frame_bytes);
        if let Some(dir) = doc.get("checkpoint_dir").and_then(Json::as_str) {
            spec.checkpoint_dir = Some(wire_checkpoint_dir(dir)?);
        }
        if let Some(tag) = doc.get("tag").and_then(Json::as_str) {
            spec.tag = tag.to_string();
        }
        spec.validated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_round_trip_through_json() {
        let specs = [
            JobSpec::default(),
            JobSpec {
                workload: Workload::PageRank { iterations: 7 },
                backend: Backend::Heap,
                threads: 3,
                workers: 6,
                intervals: 12,
                budget_bytes: 8 << 20,
                frame_bytes: 4 << 10,
                checkpoint_dir: Some(PathBuf::from("ckpt dir/job 7")),
                tag: "with \"quotes\" and\nnewline".into(),
                ..JobSpec::default()
            },
            JobSpec {
                workload: Workload::ConnectedComponents { max_iterations: 9 },
                ..JobSpec::default()
            },
            JobSpec {
                workload: Workload::ExternalSort,
                ..JobSpec::default()
            },
        ];
        for spec in specs {
            let back = JobSpec::from_json(&spec.to_json()).expect("round trip parses");
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn missing_fields_take_defaults_and_bad_specs_are_rejected() {
        let spec = JobSpec::from_json("{\"workload\": \"word_count\"}").unwrap();
        assert_eq!(spec, JobSpec::default());
        assert!(JobSpec::from_json("{\"workload\": \"mystery\"}").is_err());
        assert!(JobSpec::from_json("{\"workers\": 0}").is_err());
        assert!(JobSpec::from_json("{\"budget_bytes\": 1024}").is_err());
        assert!(JobSpec::from_json("not json").is_err());
        assert!(
            JobSpec::from_json("{\"workload\": \"page_rank\", \"iterations\": 0}").is_err(),
            "zero-iteration PR is unrunnable"
        );
    }

    #[test]
    fn the_wire_cannot_arm_a_fault_plan() {
        for plan in [
            "{\"seed\": 1, \"fail_nth_allocation\": 1}",
            "true",
            "\"torn\"",
        ] {
            let body = format!("{{\"workload\": \"word_count\", \"fault_plan\": {plan}}}");
            let spec = JobSpec::from_json(&body).expect("an unknown key is ignored");
            assert!(spec.fault_plan.is_none(), "{body} armed a plan");
        }
    }

    #[test]
    fn wire_checkpoint_dir_stays_below_the_working_directory() {
        let parse = |dir: &str| {
            JobSpec::from_json(&format!(
                "{{\"checkpoint_dir\": \"{}\"}}",
                json::escape(dir)
            ))
        };
        let longest = "d".repeat(MAX_WIRE_CHECKPOINT_DIR);
        for dir in ["ckpt", "ckpt/job1", "a b/c.d/..e", longest.as_str()] {
            let spec =
                parse(dir).unwrap_or_else(|e| panic!("{dir:?} is a plain relative path: {e}"));
            assert_eq!(spec.checkpoint_dir, Some(PathBuf::from(dir)));
        }
        let too_long = "d".repeat(MAX_WIRE_CHECKPOINT_DIR + 1);
        for dir in [
            "",
            "/tmp/x",
            "/",
            "../x",
            "a/../../x",
            "a/..",
            ".",
            "./a",
            "a/./b",
            "a//b",
            "a/",
            "a/b\0c",
            too_long.as_str(),
        ] {
            let err = parse(dir).expect_err(&format!("{dir:?} must be rejected"));
            assert!(err.0.contains("checkpoint_dir"), "{err}");
        }
        // The rule binds the wire only: a Rust caller's absolute temp dir
        // passes `validated()` untouched.
        let local = JobSpec {
            checkpoint_dir: Some(std::env::temp_dir()),
            ..JobSpec::default()
        };
        assert!(local.validated().is_ok());
    }

    #[test]
    fn wire_sizing_is_capped() {
        // One submission must not be able to park an executor indefinitely
        // or blow up per-partition state: every wire-ingested sizing knob
        // has a ceiling.
        for body in [
            format!(
                "{{\"workload\": \"page_rank\", \"iterations\": {}}}",
                u64::MAX
            ),
            format!(
                "{{\"workload\": \"connected_components\", \"iterations\": {}}}",
                MAX_ITERATIONS + 1
            ),
            format!("{{\"workers\": {}}}", MAX_WORKERS + 1),
            format!("{{\"threads\": {}}}", MAX_THREADS + 1),
            format!("{{\"intervals\": {}}}", MAX_INTERVALS + 1),
        ] {
            assert!(JobSpec::from_json(&body).is_err(), "must reject {body}");
        }
        // The caps themselves are accepted.
        let body = format!("{{\"workload\": \"page_rank\", \"iterations\": {MAX_ITERATIONS}}}");
        assert!(JobSpec::from_json(&body).is_ok());
    }
}
