//! Seeded mutation fuzzing of real checkpoint manifests.
//!
//! Each engine's crashed run leaves a manifest behind: GraphChi PageRank
//! after its third committed interval, WordCount and ExternalSort after
//! their first phase. The fuzzer mutates those bytes two ways:
//!
//! - **unsealed**: byte flips, truncations, extensions, and rewritten
//!   section-count, payload-length and name fields, checksums left as they
//!   were. `read_manifest` must return a typed `RecoveryError` (bytes
//!   appended after the last payload are `Malformed`), and the engine run
//!   over that directory must still reach the oracle output, with the
//!   discard counted;
//! - **re-sealed**: edits of the decoded manifest (payload bytes, lengths
//!   and counts inside a payload, section names, the cursor, the
//!   fingerprint) encoded again by `encode_manifest`, which recomputes
//!   every xxh64. The engine's own decoders (`decode_resume`,
//!   `decode_pairs`, `decode_run`) then see garbage with valid checksums;
//!   the run must complete or fail with a typed `JobFailure`, never panic.
//!
//! The count of every outcome kind is pinned, so a change to the format or
//! to a decoder that moves any outcome shows up here.

mod common;

use common::below;
use datagen::SplitMix64;
use facade::datagen::{CorpusSpec, Graph, GraphSpec, corpus};
use facade::graphchi::{Backend, Engine, EngineConfig, PageRank};
use facade::hyracks::{Cluster, ClusterConfig};
use facade::metrics::JobFailure;
use facade::metrics::ResilienceReport;
use facade::store::checkpoint::{Manifest, decode_manifest, encode_manifest, read_manifest, xxh64};
use facade::store::test_support::TempDir;
use facade::store::{FaultPlan, RecoveryError, RunEnv};
use std::collections::BTreeMap;
use std::panic::{AssertUnwindSafe, catch_unwind};
use std::path::{Path, PathBuf};

/// Mutants of each kind per engine.
const MUTANTS: usize = 48;

/// The three engines whose crashed runs leave a manifest.
#[derive(Debug, Clone, Copy)]
enum Job {
    PageRank,
    WordCount,
    ExternalSort,
}

/// Inputs small enough that a debug build runs every mutant in seconds.
struct Inputs {
    graph: Graph,
    words: Vec<String>,
}

impl Inputs {
    fn new() -> Self {
        Self {
            graph: Graph::generate(&GraphSpec::new(120, 800, 53)),
            words: corpus(&CorpusSpec::new(3_000, 17)),
        }
    }

    /// Runs `job` (with `dir` as its checkpoint directory and `plan` as its
    /// fault plan) and digests its output.
    fn run(
        &self,
        job: Job,
        dir: Option<&Path>,
        plan: Option<FaultPlan>,
    ) -> Result<(u64, ResilienceReport), JobFailure> {
        let env = RunEnv {
            checkpoint_dir: dir.map(Path::to_path_buf),
            fault_plan: plan,
            ..RunEnv::default()
        };
        match job {
            Job::PageRank => {
                let config = EngineConfig {
                    backend: Backend::Facade,
                    budget_bytes: 8 << 20,
                    intervals: 4,
                    threads: 1,
                    env,
                    ..EngineConfig::default()
                };
                let out = Engine::new(&self.graph, config).execute(&PageRank::new(2))?;
                let bits: Vec<u8> = out.values.iter().flat_map(|v| v.to_le_bytes()).collect();
                Ok((xxh64(&bits, out.passes as u64), out.resilience))
            }
            Job::WordCount | Job::ExternalSort => {
                let cluster = Cluster::new(&ClusterConfig {
                    workers: 3,
                    threads: 1,
                    backend: Backend::Facade,
                    per_worker_budget: 8 << 20,
                    frame_bytes: 2 << 10,
                    env,
                });
                if let Job::WordCount = job {
                    let out = cluster.word_count(&self.words)?;
                    let digest = out.counts.iter().fold(0, |h, (word, count)| {
                        xxh64(word.as_bytes(), h ^ *count as u64)
                    });
                    Ok((digest, out.stats.resilience))
                } else {
                    let out = cluster.external_sort(&self.words)?;
                    let (records, checksum) = out.payload();
                    Ok((records ^ checksum.rotate_left(17), out.stats.resilience))
                }
            }
        }
    }

    /// The checkpoint file `job` uses in `dir`.
    fn checkpoint_path(&self, job: Job, dir: &Path) -> PathBuf {
        match job {
            Job::PageRank => Engine::checkpoint_path(dir),
            Job::WordCount | Job::ExternalSort => {
                let name = if let Job::WordCount = job { "wc" } else { "es" };
                ClusterConfig {
                    env: RunEnv {
                        checkpoint_dir: Some(dir.to_path_buf()),
                        ..RunEnv::default()
                    },
                    ..ClusterConfig::default()
                }
                .checkpoint_path(name)
                .expect("checkpoint_dir is set")
            }
        }
    }

    /// The manifest a crashed run of `job` leaves behind.
    fn crashed_manifest(&self, job: Job) -> Vec<u8> {
        let tmp = TempDir::new("fuzz-crash");
        let plan = match job {
            Job::PageRank => FaultPlan::builder(90).crash_at_interval(3).build(),
            Job::WordCount | Job::ExternalSort => FaultPlan::builder(92).crash_in_phase(0).build(),
        };
        self.run(job, Some(tmp.path()), Some(plan))
            .expect_err("the crash fault aborts the run");
        std::fs::read(self.checkpoint_path(job, tmp.path())).expect("the crash left a checkpoint")
    }
}

/// A short name for each `read_manifest` outcome.
fn read_kind(read: &Result<Manifest, RecoveryError>) -> &'static str {
    match read {
        Ok(_) => "ok",
        Err(RecoveryError::Truncated) => "truncated",
        Err(RecoveryError::BadMagic) => "bad_magic",
        Err(RecoveryError::BadVersion(_)) => "bad_version",
        Err(RecoveryError::ManifestChecksum) => "manifest_checksum",
        Err(RecoveryError::SectionChecksum { .. }) => "section_checksum",
        Err(RecoveryError::Malformed(_)) => "malformed",
        Err(other) => panic!("read_manifest returned {other}"),
    }
}

/// A value near `v` or at an extreme: what a corrupted length field holds.
fn odd_value(rng: &mut SplitMix64, v: u64, max: u64) -> u64 {
    match rng.next_below(5) {
        0 => 0,
        1 => v.saturating_sub(1),
        2 => v.saturating_add(1).min(max),
        3 => max,
        _ => rng.next_u64() & max,
    }
}

/// Byte offsets of each section's directory entry (`name_len` field) in
/// an encoded manifest.
fn directory_offsets(manifest: &Manifest) -> Vec<usize> {
    let mut at = 36;
    manifest
        .sections
        .iter()
        .map(|(name, _)| {
            let entry = at;
            at += 4 + name.len() + 16;
            entry
        })
        .collect()
}

/// One mutation of the encoded bytes that leaves every checksum as it was.
fn unsealed(rng: &mut SplitMix64, bytes: &[u8], manifest: &Manifest) -> (&'static str, Vec<u8>) {
    let mut out = bytes.to_vec();
    let entries = directory_offsets(manifest);
    let entry = entries[below(rng, entries.len())];
    let name_len = manifest.sections[entries.iter().position(|&e| e == entry).unwrap()]
        .0
        .len();
    let op = match rng.next_below(7) {
        0 => {
            let at = below(rng, out.len());
            out[at] ^= 1 + rng.next_below(255) as u8;
            "flip"
        }
        1 => {
            out.truncate(below(rng, out.len()));
            "truncate"
        }
        2 => {
            out.extend((0..1 + rng.next_below(64)).map(|_| rng.next_u64() as u8));
            "extend"
        }
        3 => {
            let n = odd_value(rng, manifest.sections.len() as u64, u64::from(u32::MAX));
            out[32..36].copy_from_slice(&(n as u32).to_le_bytes());
            "section_count"
        }
        4 => {
            let at = entry + 4 + name_len;
            let len = u64::from_le_bytes(out[at..at + 8].try_into().unwrap());
            let len = odd_value(rng, len, u64::MAX);
            out[at..at + 8].copy_from_slice(&len.to_le_bytes());
            "payload_len"
        }
        5 => {
            let n = odd_value(rng, name_len as u64, u64::from(u32::MAX));
            out[entry..entry + 4].copy_from_slice(&(n as u32).to_le_bytes());
            "name_len"
        }
        _ => {
            out[entry + 4 + below(rng, name_len)] ^= 1 + rng.next_below(255) as u8;
            "name"
        }
    };
    (op, out)
}

/// One edit of the decoded manifest, encoded again with fresh checksums.
fn resealed(rng: &mut SplitMix64, manifest: &Manifest) -> (&'static str, Vec<u8>) {
    let mut m = manifest.clone();
    let si = below(rng, m.sections.len());
    let payload = &mut m.sections[si].1;
    let op = match rng.next_below(9) {
        0 if !payload.is_empty() => {
            let at = below(rng, payload.len());
            payload[at] ^= 1 + rng.next_below(255) as u8;
            "payload_flip"
        }
        1 => {
            payload.truncate(below(rng, payload.len().max(1)));
            "payload_truncate"
        }
        2 => {
            payload.extend((0..1 + rng.next_below(16)).map(|_| rng.next_u64() as u8));
            "payload_extend"
        }
        3 if payload.len() >= 8 => {
            let n = u64::from_le_bytes(payload[..8].try_into().unwrap());
            let n = odd_value(rng, n, u64::MAX);
            payload[..8].copy_from_slice(&n.to_le_bytes());
            "payload_count"
        }
        4 if payload.len() >= 12 => {
            // A length or count field inside the payload, most often.
            let at = 8 + below(rng, payload.len() - 11);
            let n = odd_value(rng, 4, u64::from(u32::MAX)) as u32;
            payload[at..at + 4].copy_from_slice(&n.to_le_bytes());
            "payload_u32"
        }
        5 => {
            m.sections[si].0.push('x');
            "rename"
        }
        6 => {
            let section = m.sections[si].clone();
            if rng.next_below(2) == 0 {
                m.sections.push(section);
                "duplicate"
            } else {
                m.sections.remove(si);
                "drop"
            }
        }
        7 => {
            let word = below(rng, 2);
            m.cursor[word] = odd_value(rng, m.cursor[word], u64::MAX);
            "cursor"
        }
        _ => {
            m.fingerprint ^= 1 << rng.next_below(64);
            "fingerprint"
        }
    };
    (op, encode_manifest(&m))
}

/// What the engine did with a mutated checkpoint.
fn engine_kind(
    run: std::thread::Result<Result<(u64, ResilienceReport), JobFailure>>,
    oracle: u64,
    what: &str,
) -> &'static str {
    match run {
        Err(_) => panic!("{what}: the engine panicked"),
        Ok(Err(_)) => "failed",
        Ok(Ok((digest, r))) if r.recoveries == 1 => {
            assert_eq!(r.torn_checkpoints_discarded, 0, "{what}");
            if digest == oracle {
                "resumed"
            } else {
                "resumed_other"
            }
        }
        Ok(Ok((digest, r))) => {
            assert_eq!(r.torn_checkpoints_discarded, 1, "{what}: discard counted");
            assert_eq!(digest, oracle, "{what}: a cold start reaches the oracle");
            "discarded"
        }
    }
}

/// Fuzzes one engine's crashed manifest; returns every outcome count,
/// keyed `unsealed/<read kind>` and `resealed/<engine kind>`.
fn fuzz(inputs: &Inputs, job: Job, seed: u64) -> BTreeMap<String, usize> {
    let (oracle, _) = inputs.run(job, None, None).expect("oracle run");
    let bytes = inputs.crashed_manifest(job);
    let manifest = decode_manifest(&bytes).expect("the crash left a verified checkpoint");
    let tmp = TempDir::new("fuzz-mutant");
    let path = inputs.checkpoint_path(job, tmp.path());
    let mut rng = SplitMix64::new(seed);
    let mut outcomes = BTreeMap::new();
    let mut count = |key: String| *outcomes.entry(key).or_insert(0) += 1;

    for i in 0..MUTANTS {
        let (op, mutant) = unsealed(&mut rng, &bytes, &manifest);
        let what = format!("{job:?} unsealed mutant {i} ({op})");
        std::fs::write(&path, &mutant).unwrap();
        let read = catch_unwind(|| read_manifest(&path))
            .unwrap_or_else(|_| panic!("{what}: read_manifest panicked"));
        let kind = read_kind(&read);
        count(format!("unsealed/{kind}"));
        let (digest, r) = inputs
            .run(job, Some(tmp.path()), None)
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(digest, oracle, "{what}: the run reaches the oracle output");
        let resumed = read.is_ok();
        assert_eq!(r.recoveries, u64::from(resumed), "{what}");
        assert_eq!(r.torn_checkpoints_discarded, u64::from(!resumed), "{what}");
    }
    for i in 0..MUTANTS {
        let (op, mutant) = resealed(&mut rng, &manifest);
        let what = format!("{job:?} re-sealed mutant {i} ({op})");
        std::fs::write(&path, &mutant).unwrap();
        let read = read_manifest(&path);
        assert!(read.is_ok(), "{what}: re-sealed bytes verify");
        let run = catch_unwind(AssertUnwindSafe(|| inputs.run(job, Some(tmp.path()), None)));
        count(format!("resealed/{}", engine_kind(run, oracle, &what)));
        let _ = std::fs::remove_file(&path);
    }
    outcomes
}

/// The defect the fuzzer found: GraphChi resumed a re-sealed checkpoint
/// whose cursor lies past the run (one seeded PageRank `cursor` mutant).
/// No interval ran, and the run returned the checkpoint's mid-run values
/// with the cursor's pass as its pass count (18 446 744 073 709 551 615
/// for the first cursor below). Now the resume is discarded and the run
/// cold-starts.
#[test]
fn graphchi_cursor_outside_the_run_is_discarded() {
    let inputs = Inputs::new();
    let (oracle, _) = inputs.run(Job::PageRank, None, None).unwrap();
    let mut manifest = decode_manifest(&inputs.crashed_manifest(Job::PageRank)).unwrap();
    let tmp = TempDir::new("fuzz-cursor");
    let path = inputs.checkpoint_path(Job::PageRank, tmp.path());
    // PageRank::new(2) over 4 intervals: passes 0..2, intervals 0..=4.
    for cursor in [[u64::MAX, 7], [2, 0], [1, 5]] {
        manifest.cursor = cursor;
        std::fs::write(&path, encode_manifest(&manifest)).unwrap();
        let (digest, r) = inputs.run(Job::PageRank, Some(tmp.path()), None).unwrap();
        assert_eq!(r.recoveries, 0, "cursor {cursor:?}");
        assert_eq!(r.torn_checkpoints_discarded, 1, "cursor {cursor:?}");
        assert_eq!(digest, oracle, "cursor {cursor:?}");
    }
}

fn pinned(pairs: &[(&str, usize)]) -> BTreeMap<String, usize> {
    pairs.iter().map(|&(k, n)| (k.to_string(), n)).collect()
}

#[test]
fn mutated_manifests_fail_closed_or_recover() {
    let inputs = Inputs::new();
    let got: Vec<(Job, BTreeMap<String, usize>)> = [
        (Job::PageRank, 0xC4E0_0001),
        (Job::WordCount, 0xC4E0_0002),
        (Job::ExternalSort, 0xC4E0_0003),
    ]
    .into_iter()
    .map(|(job, seed)| (job, fuzz(&inputs, job, seed)))
    .collect();
    for (job, outcomes) in &got {
        println!("{job:?}: {outcomes:?}");
    }
    // Nothing panicked, and every re-sealed checkpoint was either rejected
    // by a decoder (a counted discard and a cold start) or resumed to
    // completion; see `graphchi_cursor_outside_the_run_is_discarded` for
    // the one PageRank mutant that resumed from past the run's end.
    let expected = [
        (
            Job::PageRank,
            pinned(&[
                ("unsealed/truncated", 12),
                ("unsealed/manifest_checksum", 19),
                ("unsealed/section_checksum", 9),
                ("unsealed/malformed", 8),
                ("resealed/resumed", 16),
                ("resealed/resumed_other", 4),
                ("resealed/discarded", 28),
            ]),
        ),
        (
            Job::WordCount,
            pinned(&[
                ("unsealed/truncated", 16),
                ("unsealed/manifest_checksum", 11),
                ("unsealed/section_checksum", 7),
                ("unsealed/malformed", 14),
                ("resealed/resumed", 5),
                ("resealed/resumed_other", 8),
                ("resealed/discarded", 35),
            ]),
        ),
        (
            Job::ExternalSort,
            pinned(&[
                ("unsealed/truncated", 17),
                ("unsealed/manifest_checksum", 13),
                ("unsealed/section_checksum", 8),
                ("unsealed/malformed", 10),
                ("resealed/resumed", 4),
                ("resealed/resumed_other", 4),
                ("resealed/discarded", 40),
            ]),
        ),
    ];
    for ((job, outcomes), (_, want)) in got.iter().zip(&expected) {
        assert_eq!(outcomes, want, "{job:?}: pinned outcome counts");
    }
}
