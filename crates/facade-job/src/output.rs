//! Job outputs and the fingerprint used to prove bit-identical results.

use metrics::{FailureCause, JobFailure, json};

/// The semantically visible result of a completed job — exactly the data
/// the FACADE equivalence argument covers. Engine telemetry (timings,
/// resilience, pool counters) lives in the surrounding
/// [`JobReport`](crate::JobReport), not here, so two runs of the same spec
/// compare equal by [`fingerprint`](JobOutput::fingerprint) regardless of
/// thread count, degradation rungs, or injected faults survived.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutput {
    /// Word-count result: the full word-sorted count table.
    WordCount {
        /// Distinct words.
        distinct: u64,
        /// Total token count.
        total: i64,
        /// Per-word counts, word-sorted.
        counts: Vec<(String, i64)>,
    },
    /// External-sort result.
    ExternalSort {
        /// Records sorted.
        rows: u64,
        /// Order-sensitive checksum over the sorted output.
        checksum: u64,
    },
    /// Vertex-valued result (PageRank ranks, CC component labels).
    Vertices {
        /// Final value per vertex, indexed by vertex id.
        values: Vec<f64>,
    },
}

impl JobOutput {
    /// An order-sensitive 64-bit digest of the output. Two jobs produced
    /// the same bits iff their fingerprints match (up to hash collision) —
    /// the unit the server's determinism test and the acceptance criterion
    /// "per-job output bit-identical to a standalone run" compare.
    ///
    /// FNV-1a over a canonical byte rendering: float values contribute
    /// their IEEE bit patterns, so `0.1 + 0.2` and `0.3` fingerprint
    /// differently — bit-identical means bit-identical.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for b in bytes {
                h ^= u64::from(*b);
                h = h.wrapping_mul(PRIME);
            }
        };
        match self {
            JobOutput::WordCount {
                distinct,
                total,
                counts,
            } => {
                eat(b"wc");
                eat(&distinct.to_le_bytes());
                eat(&total.to_le_bytes());
                for (w, c) in counts {
                    eat(w.as_bytes());
                    eat(&c.to_le_bytes());
                }
            }
            JobOutput::ExternalSort { rows, checksum } => {
                eat(b"es");
                eat(&rows.to_le_bytes());
                eat(&checksum.to_le_bytes());
            }
            JobOutput::Vertices { values } => {
                eat(b"vx");
                for v in values {
                    eat(&v.to_bits().to_le_bytes());
                }
            }
        }
        h
    }

    /// A compact JSON summary (counts and vertex values elided to sizes +
    /// fingerprint) for job-status responses.
    pub fn summary_json(&self) -> String {
        match self {
            JobOutput::WordCount {
                distinct, total, ..
            } => format!(
                "{{\"kind\": \"word_count\", \"distinct\": {distinct}, \"total\": {total}, \
                 \"fingerprint\": \"{:016x}\"}}",
                self.fingerprint()
            ),
            JobOutput::ExternalSort { rows, checksum } => format!(
                "{{\"kind\": \"external_sort\", \"rows\": {rows}, \"checksum\": \"{checksum:016x}\", \
                 \"fingerprint\": \"{:016x}\"}}",
                self.fingerprint()
            ),
            JobOutput::Vertices { values } => format!(
                "{{\"kind\": \"vertices\", \"vertices\": {}, \"fingerprint\": \"{:016x}\"}}",
                values.len(),
                self.fingerprint()
            ),
        }
    }
}

/// How a job ended without a report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The spec could not be run as written.
    Invalid(String),
    /// Admission control refused the job (queue full, budget unplaceable).
    Rejected(String),
    /// The job was canceled before it ran.
    Canceled,
    /// The engine failed even after its retry/degradation ladder.
    Failed(String),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Invalid(m) => write!(f, "invalid job: {m}"),
            JobError::Rejected(m) => write!(f, "job rejected: {m}"),
            JobError::Canceled => f.write_str("job canceled"),
            JobError::Failed(m) => write!(f, "job failed: {m}"),
        }
    }
}

impl std::error::Error for JobError {}

/// An engine run that ended early: a host cancel is the job's
/// [`JobError::Canceled`], anything else fails it with the engine's
/// paper-convention rendering (`OME(n): …`).
impl From<JobFailure> for JobError {
    fn from(e: JobFailure) -> Self {
        match e.cause {
            FailureCause::Canceled => JobError::Canceled,
            _ => JobError::Failed(e.to_string()),
        }
    }
}

impl JobError {
    /// The JSON error body server responses carry.
    pub fn to_json(&self) -> String {
        let kind = match self {
            JobError::Invalid(_) => "invalid",
            JobError::Rejected(_) => "rejected",
            JobError::Canceled => "canceled",
            JobError::Failed(_) => "failed",
        };
        format!(
            "{{\"error\": \"{kind}\", \"message\": \"{}\"}}",
            json::escape(&self.to_string())
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_separate_unequal_outputs() {
        let a = JobOutput::Vertices {
            values: vec![1.0, 2.0],
        };
        let b = JobOutput::Vertices {
            values: vec![2.0, 1.0],
        };
        let c = JobOutput::Vertices {
            values: vec![1.0, 2.0],
        };
        assert_ne!(a.fingerprint(), b.fingerprint(), "order-sensitive");
        assert_eq!(a.fingerprint(), c.fingerprint(), "equal bits, equal print");
        let wc = JobOutput::WordCount {
            distinct: 2,
            total: 3,
            counts: vec![("a".into(), 1), ("b".into(), 2)],
        };
        assert_ne!(wc.fingerprint(), a.fingerprint());
        // The float path hashes bit patterns, not rendered decimals.
        let x = JobOutput::Vertices {
            values: vec![0.1 + 0.2],
        };
        let y = JobOutput::Vertices { values: vec![0.3] };
        assert_ne!(x.fingerprint(), y.fingerprint());
    }

    #[test]
    fn summaries_are_valid_json() {
        for out in [
            JobOutput::WordCount {
                distinct: 5,
                total: 9,
                counts: vec![],
            },
            JobOutput::ExternalSort {
                rows: 4,
                checksum: 0xdead,
            },
            JobOutput::Vertices { values: vec![1.0] },
        ] {
            let doc = metrics::json::parse(&out.summary_json()).expect("summary parses");
            assert!(doc.get("fingerprint").is_some());
        }
    }
}
