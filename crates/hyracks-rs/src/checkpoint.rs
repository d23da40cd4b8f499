//! Job-phase checkpointing for the simulated cluster.
//!
//! Both jobs checkpoint the output of their expensive first phase (WC's map
//! output, ES's sorted partitions) through the shared `Checkpointer` that
//! `cluster::job_checkpointer` builds; what lives here is only
//! what is specific to this engine: the job fingerprint, the section codecs
//! and the crash hook. A resumed job and a live one produce bit-identical
//! output, because the checkpoint stores exactly the phase payloads the
//! live run would have produced, in partition order.

use crate::cluster::ClusterConfig;
use crate::extsort::Run;
use data_store::RecoveryError;
use data_store::checkpoint::{self, Cursor};
use metrics::JobFailure;
use std::time::Instant;

/// Fingerprint of a job shape: see `cluster::job_checkpointer` for what
/// it covers and why. Computed only when checkpointing is configured.
pub(crate) fn job_fingerprint(job: &str, workers: usize, corpus: &[String]) -> u64 {
    let mut state = checkpoint::xxh64(job.as_bytes(), workers as u64);
    for word in corpus {
        state = checkpoint::xxh64(word.as_bytes(), state);
    }
    state
}

/// Serializes one phase partition of `(payload bytes, count)` pairs (WC map
/// output). Length-prefixed and order-preserving, so the decode is lossless
/// and the shuffle downstream of a resume sees the exact live-run input.
pub(crate) fn encode_pairs(pairs: &[(Vec<u8>, i64)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 * pairs.len() + 8);
    out.extend_from_slice(&(pairs.len() as u64).to_le_bytes());
    for (bytes, count) in pairs {
        out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(bytes);
        out.extend_from_slice(&count.to_le_bytes());
    }
    out
}

/// Inverse of [`encode_pairs`]; fails closed on any length mismatch.
pub(crate) fn decode_pairs(bytes: &[u8]) -> Result<Vec<(Vec<u8>, i64)>, RecoveryError> {
    let mut cursor = Cursor::new(bytes);
    let n = cursor.u64()?;
    // Not pre-sized from `n`: each entry is bounds-checked as it is read.
    let mut out = Vec::new();
    for _ in 0..n {
        let len = cursor.u32()? as usize;
        let word = cursor.take(len)?.to_vec();
        out.push((word, cursor.u64()? as i64));
    }
    cursor.finish()?;
    Ok(out)
}

/// Serializes one sorted partition (ES sort output): the key count, then
/// each key length-prefixed — [`encode_pairs`] without the counts.
pub(crate) fn encode_run(run: &Run) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + 4 * run.len() + run.key_bytes());
    out.extend_from_slice(&(run.len() as u64).to_le_bytes());
    for key in run.keys() {
        out.extend_from_slice(&(key.len() as u32).to_le_bytes());
        out.extend_from_slice(key);
    }
    out
}

/// Inverse of [`encode_run`]; fails closed on any length mismatch.
pub(crate) fn decode_run(bytes: &[u8]) -> Result<Run, RecoveryError> {
    let mut cursor = Cursor::new(bytes);
    let n = cursor.u64()?;
    // Not pre-sized from `n`: each key is bounds-checked as it is read.
    let mut run = Run::default();
    for _ in 0..n {
        let len = cursor.u32()? as usize;
        run.push(cursor.take(len)?);
    }
    cursor.finish()?;
    Ok(run)
}

/// Fires the fault plan's `crash_in_phase` fault: aborts the job with an
/// [`metrics::FailureCause::InjectedCrash`] directly after phase `phase`
/// committed (and checkpointed, when configured) — the crash point a
/// restarted job recovers from.
pub(crate) fn maybe_crash(
    config: &ClusterConfig,
    phase: u64,
    name: &str,
    started: Instant,
) -> Result<(), JobFailure> {
    if let Some(plan) = &config.env.fault_plan {
        if plan.should_crash_in_phase(phase) {
            return Err(JobFailure {
                after: started.elapsed(),
                cause: metrics::FailureCause::InjectedCrash(format!(
                    "crash after phase {name} ({phase})"
                )),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_roundtrip_and_fail_closed() {
        let pairs = vec![
            (b"word".to_vec(), 3i64),
            (Vec::new(), -1),
            (b"a much longer token".to_vec(), i64::MAX),
        ];
        let bytes = encode_pairs(&pairs);
        assert_eq!(decode_pairs(&bytes).expect("roundtrip"), pairs);
        for cut in 0..bytes.len() {
            assert!(
                decode_pairs(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes must fail closed"
            );
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(decode_pairs(&trailing).is_err(), "trailing bytes rejected");
    }

    #[test]
    fn run_roundtrip_and_fail_closed() {
        let mut run = Run::default();
        for key in [&b"b"[..], b"", b"aa"] {
            run.push(key);
        }
        let bytes = encode_run(&run);
        // The section's wire bytes, as the list-of-words codec wrote them:
        // a u64 count, then each key behind its u32 length.
        assert_eq!(
            bytes,
            [
                3, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 98, 0, 0, 0, 0, 2, 0, 0, 0, 97, 97
            ]
        );
        assert_eq!(decode_run(&bytes).expect("roundtrip"), run);
        for cut in 0..bytes.len() {
            assert!(decode_run(&bytes[..cut]).is_err(), "prefix {cut}");
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(decode_run(&trailing).is_err(), "trailing bytes rejected");
    }

    #[test]
    fn fingerprint_separates_job_corpus_and_partitioning() {
        let corpus: Vec<String> = ["a", "b", "c"].iter().map(|s| s.to_string()).collect();
        let base = job_fingerprint("wc", 4, &corpus);
        assert_eq!(base, job_fingerprint("wc", 4, &corpus), "deterministic");
        assert_ne!(base, job_fingerprint("es", 4, &corpus), "job name");
        assert_ne!(base, job_fingerprint("wc", 8, &corpus), "worker count");
        let other: Vec<String> = ["a", "b", "d"].iter().map(|s| s.to_string()).collect();
        assert_ne!(base, job_fingerprint("wc", 4, &other), "corpus content");
    }
}
