//! The external-sort job (ES of Table 3): budget-bounded run generation
//! over store records, sorted-run spilling, and k-way merging.

use crate::checkpoint::{decode_run, encode_run, maybe_crash};
use crate::cluster::{
    ClusterConfig, JobStats, finish_job, first_phase, job_checkpointer, round_robin, run_phase,
};
use crate::hashtable::hash_bytes;
use data_store::{ClassTag, ElemTy, Field, FieldTy, Rec, Store};
use metrics::{JobFailure, OutOfMemory};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::binary_heap::PeekMut;
use std::time::Instant;

/// The result of a completed ES job.
#[derive(Debug, Clone)]
pub struct EsOutput {
    /// Total records sorted across the cluster.
    pub total_records: u64,
    /// Order-sensitive checksum of every worker's sorted output
    /// (concatenated in worker order), for cross-backend validation.
    pub checksum: u64,
    /// Aggregate worker statistics.
    pub stats: JobStats,
}

impl EsOutput {
    /// Comparable payload (stats carry timings and differ between runs).
    pub fn payload(&self) -> (u64, u64) {
        (self.total_records, self.checksum)
    }
}

/// The `LineRecord` class (key length, key bytes) and its fields.
#[derive(Debug, Clone, Copy)]
struct LineRecord {
    class: ClassTag,
    len: Field,
    bytes: Field,
}

impl LineRecord {
    /// Registers the class on `store` and resolves its fields.
    fn register(store: &mut Store) -> Self {
        let class = store.register_class("LineRecord", &[FieldTy::I32, FieldTy::Ref]);
        Self {
            class,
            len: store.field(class, 0),
            bytes: store.field(class, 1),
        }
    }
}

/// Builds sorted runs through the record store, spills them, and merges.
/// `degrade_level` right-shifts the run length: shorter runs hold fewer
/// live records at once, and the k-way merge makes run partitioning
/// invisible in the output.
fn sort_worker(
    store: &mut Store,
    line: LineRecord,
    words: &[&String],
    budget: usize,
    degrade_level: u32,
) -> Result<Run, OutOfMemory> {
    // Run length derived from the memory budget, as the external sort
    // operator sizes its in-memory runs from the frame budget.
    let run_len = ((budget / 96) >> degrade_level.min(16)).clamp(16, 1 << 20);
    let mut runs: Vec<Run> = Vec::new();

    let operator = store.iteration_start();
    for chunk in words.chunks(run_len) {
        // One run = one sub-iteration: the run's records die at the spill.
        let sub = store.iteration_start();
        let arr = store.alloc_array(ElemTy::Ref, chunk.len())?;
        let root = store.add_root(arr);
        let mut build = || -> Result<(), OutOfMemory> {
            for (i, word) in chunk.iter().enumerate() {
                let r = store.alloc(line.class)?;
                store.array_set_rec(arr, i, r);
                store.set_i32(r, line.len, word.len() as i32);
                let bytes = store.alloc_bytes(word.as_bytes())?;
                store.set_rec(r, line.bytes, bytes);
            }
            Ok(())
        };
        let build_result = build();
        if build_result.is_err() {
            store.remove_root(root);
            store.iteration_end(sub);
            store.iteration_end(operator);
            build_result?;
        }

        // Sort an out-of-page array of (normalised key prefix, key array)
        // on the prefix alone, each record resolved once; then settle each
        // group of equal prefixes. The raw `Rec`s held here are outside
        // the roots, which is sound because no store allocation happens
        // from here to the end of the spill, so a heap-backend collection
        // cannot run (and move them) in between.
        let mut keys: Vec<(u64, Rec)> = (0..chunk.len())
            .map(|i| {
                let bytes = store.get_rec(store.array_get_rec(arr, i), line.bytes);
                (key_prefix(store.array_bytes(bytes)), bytes)
            })
            .collect();
        // Unstable is safe: keys that compare equal are byte-identical.
        keys.sort_unstable_by_key(|&(prefix, _)| prefix);
        for group in keys.chunk_by_mut(|a, b| a.0 == b.0) {
            // Keys of one length ≤ 8 that share a prefix are byte-identical,
            // so the group is already in order. Longer keys, or lengths that
            // differ only in trailing zeros (`"ab"` / `"ab\0"`), need bytes.
            let len = store.array_len(group[0].1);
            if len > 8 || group.iter().any(|&(_, k)| store.array_len(k) != len) {
                group.sort_unstable_by(|a, b| store.array_bytes(a.1).cmp(store.array_bytes(b.1)));
            }
        }

        // Spill the sorted run (records leave the data path).
        let mut run = Run::with_capacity(keys.len(), chunk.iter().map(|w| w.len()).sum());
        for &(_, bytes) in &keys {
            run.push(store.array_bytes(bytes));
        }
        runs.push(run);

        store.remove_root(root);
        store.iteration_end(sub);
    }
    store.iteration_end(operator);

    Ok(merge_runs(runs))
}

/// A key's first 8 bytes, zero-padded and read big-endian, so integer
/// order is unsigned bytewise order. Keys differing only past byte 8, or
/// in trailing zeros (`"ab"` vs `"ab\0"`), tie and need the full bytes.
fn key_prefix(key: &[u8]) -> u64 {
    let mut prefix = [0u8; 8];
    let n = key.len().min(8);
    prefix[..n].copy_from_slice(&key[..n]);
    u64::from_be_bytes(prefix)
}

/// A sorted run laid out as a run file: every key back to back, and the
/// offset at which each one ends. A spilled run is one, and so is a
/// partition's merged output, which the checksum and the checkpoint read in
/// place: a partition's keys cost two allocations, not one per key.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct Run {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl Run {
    pub(crate) fn with_capacity(keys: usize, bytes: usize) -> Self {
        Self {
            bytes: Vec::with_capacity(bytes),
            ends: Vec::with_capacity(keys),
        }
    }

    /// Appends `key` after the run's last key.
    pub(crate) fn push(&mut self, key: &[u8]) {
        self.bytes.extend_from_slice(key);
        self.ends.push(self.bytes.len());
    }

    /// The number of keys.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// The summed length of the keys.
    pub(crate) fn key_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// The `i`-th key, or `None` past the last.
    fn key(&self, i: usize) -> Option<&[u8]> {
        let end = *self.ends.get(i)?;
        let start = i.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        Some(&self.bytes[start..end])
    }

    /// The keys in run order.
    pub(crate) fn keys(&self) -> impl Iterator<Item = &[u8]> + '_ {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let key = &self.bytes[start..end];
            start = end;
            key
        })
    }
}

/// K-way merge of sorted runs into one (the merge phase reads spilled run
/// files, a control-path activity identical for both backends). The heap
/// borrows keys from the runs; each key is copied once, into the merged
/// run, and a single run is already merged.
fn merge_runs(mut runs: Vec<Run>) -> Run {
    if runs.len() == 1 {
        return runs.pop().expect("one run");
    }
    let keys = runs.iter().map(Run::len).sum();
    let bytes = runs.iter().map(Run::key_bytes).sum();
    let mut heap: BinaryHeap<Reverse<(&[u8], usize, usize)>> = runs
        .iter()
        .enumerate()
        .filter_map(|(r, run)| Some(Reverse((run.key(0)?, r, 0))))
        .collect();
    let mut out = Run::with_capacity(keys, bytes);
    while let Some(mut top) = heap.peek_mut() {
        let Reverse((key, r, i)) = *top;
        out.push(key);
        match runs[r].key(i + 1) {
            Some(next) => *top = Reverse((next, r, i + 1)),
            None => {
                PeekMut::pop(top);
            }
        }
    }
    out
}

/// Runs the ES job over `corpus` on the simulated cluster; the
/// implementation behind [`crate::Cluster::external_sort`].
///
/// With [`checkpoint_dir`](data_store::RunEnv::checkpoint_dir) set in the
/// config's `env`, the sorted partitions are
/// committed as a checksummed manifest the moment the sort phase completes;
/// a job that finds its own verified checkpoint there recomputes only the
/// checksum, bit-identical to an uninterrupted run.
///
/// # Errors
///
/// Returns [`JobFailure`] (`OME(n)`) if any worker exhausts its budget, or
/// an injected-crash failure when the fault plan's `crash_in_phase` fires
/// (phase 0 = sort, phase 1 = finish).
pub(crate) fn external_sort_job(
    corpus: &[String],
    config: &ClusterConfig,
) -> Result<EsOutput, JobFailure> {
    let started = Instant::now();
    let mut stats = JobStats::default();
    let pool = config.env.page_pool(config.backend);
    let ckpt = job_checkpointer(config, "es", corpus);

    // Sort phase (or its checkpoint: the order-sensitive checksum below
    // cannot tell decoded partitions from live ones).
    let budget = config.per_worker_budget;
    let sorted: Vec<Run> = first_phase(
        config,
        ckpt.as_ref(),
        &mut stats,
        started,
        ("sort", "sorted"),
        (encode_run, decode_run),
        |stats| {
            run_phase(
                config,
                "sort",
                started,
                round_robin(corpus, config.workers),
                stats,
                pool.as_ref(),
                LineRecord::register,
                |_, store, line, part, level| sort_worker(store, *line, part, budget, level),
            )
        },
    )?;

    let mut total = 0u64;
    let mut checksum = 0u64;
    for part in &sorted {
        total += part.len() as u64;
        for (i, w) in part.keys().enumerate() {
            checksum = checksum
                .wrapping_mul(31)
                .wrapping_add(u64::from(hash_bytes(w)) ^ i as u64);
        }
    }
    // A crash here restarts from the sort checkpoint and redoes only the
    // checksum.
    maybe_crash(config, 1, "finish", started)?;
    finish_job(config, &mut stats, started, pool.as_ref(), ckpt.as_ref());
    Ok(EsOutput {
        total_records: total,
        checksum,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{CorpusSpec, corpus};
    use metrics::report::Backend;

    fn config(backend: Backend) -> ClusterConfig {
        ClusterConfig {
            workers: 4,
            backend,
            per_worker_budget: 8 << 20,
            frame_bytes: 4 << 10,
            ..ClusterConfig::default()
        }
    }

    fn spill(keys: &[&str]) -> Run {
        let mut run = Run::with_capacity(keys.len(), 0);
        for key in keys {
            run.push(key.as_bytes());
        }
        run
    }

    #[test]
    fn merge_runs_produces_sorted_output() {
        let cases: [&[&[&str]]; 6] = [
            &[&["a", "m", "z"], &["b", "c"], &[]],
            &[],
            &[&[], &[], &[]],
            &[&["", "", "a", "ab", "b"]],
            &[&["", "a", "a", "c"], &["a", "b", "c"], &["", "c", "c"]],
            &[&[], &["x"], &[]],
        ];
        for runs in cases {
            let mut expected: Vec<&[u8]> = runs.concat().iter().map(|k| k.as_bytes()).collect();
            expected.sort();
            let spilled: Vec<Run> = runs.iter().map(|keys| spill(keys)).collect();
            let merged = merge_runs(spilled);
            assert_eq!(merged.keys().collect::<Vec<_>>(), expected, "{runs:?}");
        }
    }

    #[test]
    fn key_edge_cases_sort_like_a_byte_sort_on_both_backends() {
        let long = "x".repeat(100);
        let mut edge: Vec<String> = [
            "",
            "\0",
            "ab",
            "ab\0",
            "abc",
            "abcdefgh",
            "abcdefgh\0",
            "abcdefgh0",
            "abcdefgh1",
            "abcdefghij",
            "abcdefg\u{ff}",
            "é",
            "ÿ",
            "éa",
            "ÿÿ",
            "a\u{10ffff}",
        ]
        .map(String::from)
        .into();
        edge.extend([
            format!("{}y", &long[1..]),
            format!("{}\0", &long[1..]),
            long,
        ]);
        edge.extend(std::iter::repeat_n("dup".to_string(), 200));
        edge.extend(std::iter::repeat_n(String::new(), 20));
        edge.extend(std::iter::repeat_n("twelve bytes".to_string(), 50));
        // Spread the edge keys over the corpus so they land in many runs.
        let mut words = corpus(&CorpusSpec::new(10_000, 47));
        for (i, key) in edge.into_iter().enumerate() {
            let at = (i * 7919) % words.len();
            words.insert(at, key);
        }
        // Equal-prefix groups that only a byte sort settles, out of order at
        // the head of the input, so that the first run holds them whole at
        // every level: lengths ≤ 8 that differ, and two groups that share 8
        // bytes and differ after them.
        let head = [
            "ab\0\0",
            "ab",
            "ab\0",
            "prefix-B2",
            "prefix-A~",
            "prefix-B1\0",
            "prefix-A!",
            "prefix-B1",
            "prefix-A",
        ];
        words.splice(0..0, head.map(String::from));
        // The head of E3's smallest corpus at `table3_hyracks`' default unit
        // (4 MiB × 0.2), where most keys are longer than their prefix.
        let (_, e3) = &CorpusSpec::table3_series(838_860)[0];
        let mut e3 = corpus(e3);
        e3.truncate(1_500);

        // Levels 0 and 1 sort in one run, levels >= 2 in several.
        let budget = 96 * 2048;
        for words in [words, e3] {
            let mut expected: Vec<&[u8]> = words.iter().map(|w| w.as_bytes()).collect();
            expected.sort();
            let words: Vec<&String> = words.iter().collect();
            assert!(words.len() < 2048 && words.len() > 2048 >> 2);
            for backend in [Backend::Heap, Backend::Facade] {
                for level in 0..=6 {
                    let mut store = data_store::Store::builder()
                        .backend(backend)
                        .budget(16 << 20)
                        .build();
                    let line = LineRecord::register(&mut store);
                    let sorted = sort_worker(&mut store, line, &words, budget, level).unwrap();
                    let keys: Vec<&[u8]> = sorted.keys().collect();
                    assert_eq!(keys, expected, "{backend:?} level {level}");
                }
            }
        }
    }

    #[test]
    fn sort_is_correct_and_identical_across_backends() {
        let words = corpus(&CorpusSpec::new(30_000, 31));
        let heap = crate::Cluster::new(&config(Backend::Heap))
            .external_sort(&words)
            .unwrap();
        let facade = crate::Cluster::new(&config(Backend::Facade))
            .external_sort(&words)
            .unwrap();
        assert_eq!(heap.total_records, words.len() as u64);
        assert_eq!(heap.payload(), facade.payload());
    }

    #[test]
    fn worker_output_is_globally_sorted_per_worker() {
        let words = corpus(&CorpusSpec::new(20_000, 37));
        let mut store = data_store::Store::builder()
            .backend(Backend::Heap)
            .budget(16 << 20)
            .build();
        let line = LineRecord::register(&mut store);
        let words: Vec<&String> = words.iter().collect();
        let sorted = sort_worker(&mut store, line, &words, 64 << 10, 0).unwrap();
        assert_eq!(sorted.len(), words.len());
        let keys: Vec<&[u8]> = sorted.keys().collect();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn resume_replays_a_sort_checkpoint_bit_identically() {
        use crate::cluster::round_robin;
        let tmp = data_store::test_support::TempDir::new("es-resume");
        let words = corpus(&CorpusSpec::new(30_000, 31));
        let cfg = ClusterConfig {
            env: data_store::RunEnv {
                checkpoint_dir: Some(tmp.path().to_path_buf()),
                ..Default::default()
            },
            ..config(Backend::Facade)
        };
        let base = crate::Cluster::new(&cfg).external_sort(&words).unwrap();

        // Reconstruct the checkpoint a crashed run would have left after
        // the sort phase: each partition's words, sorted, under the job
        // fingerprint (sort output is a pure function of the partition).
        let path = cfg.checkpoint_path("es").unwrap();
        let sections = round_robin(&words, cfg.workers).into_iter().enumerate();
        let sections = sections.map(|(i, part)| {
            let mut sorted: Vec<&[u8]> = part.iter().map(|w| w.as_bytes()).collect();
            sorted.sort();
            let mut run = Run::default();
            for key in sorted {
                run.push(key);
            }
            (format!("sorted{i}"), encode_run(&run))
        });
        let ckpt = job_checkpointer(&cfg, "es", &words).expect("checkpoint_dir is set");
        ckpt.commit([1, 0], sections.collect(), &mut Default::default());

        // Cancel is polled between phases too: with the sort phase resumed
        // no partition is ever claimed, yet a canceled job stops short of
        // the checksum — and leaves the checkpoint for a later resubmission.
        cfg.env
            .cancel
            .store(true, std::sync::atomic::Ordering::Release);
        let canceled = crate::Cluster::new(&cfg).external_sort(&words).unwrap_err();
        assert!(
            matches!(canceled.cause, crate::FailureCause::Canceled),
            "{canceled}"
        );
        assert!(path.exists());
        cfg.env
            .cancel
            .store(false, std::sync::atomic::Ordering::Release);

        let resumed = crate::Cluster::new(&cfg).external_sort(&words).unwrap();
        assert_eq!(
            resumed.payload(),
            base.payload(),
            "resumed output is bit-identical to the uninterrupted run"
        );
        assert_eq!(resumed.stats.resilience.recoveries, 1);
        assert!(
            !resumed.stats.resilience.is_clean(),
            "a resumed run is not a clean run"
        );
        assert!(!path.exists(), "a resumed job still cleans up");
    }

    #[test]
    fn data_path_counts_are_pinned() {
        // Literals recorded before the sort moved out of page: the key
        // array must leave every store allocation, and so every page and
        // collection, exactly where it was.
        // The `(rows, checksum)` payload was recorded before the sort settled
        // equal-prefix groups in a pass of their own.
        const PAYLOAD: (u64, u64) = (5_593, 0x00ca_35e5_d9bd_67c5);
        let words = corpus(&CorpusSpec::new(40_000, 43));
        let run = |backend, per_worker_budget, threads| {
            crate::Cluster::new(&ClusterConfig {
                threads,
                per_worker_budget,
                ..config(backend)
            })
            .external_sort(&words)
            .unwrap()
        };
        let facade = run(Backend::Facade, 8 << 20, 1).stats;
        let heap = run(Backend::Heap, 256 << 10, 1).stats;
        assert_eq!(facade.pages_created, 3);
        assert_eq!(facade.records_allocated, 11_190);
        assert_eq!(heap.records_allocated, 11_190);
        assert_eq!(heap.gc_count, 8);
        for threads in [1, 2, 4] {
            for (backend, budget) in [(Backend::Facade, 8 << 20), (Backend::Heap, 256 << 10)] {
                let out = run(backend, budget, threads);
                assert_eq!(out.payload(), PAYLOAD, "{backend:?}, {threads} threads");
            }
        }
    }

    #[test]
    fn heap_run_generation_triggers_gc() {
        let words = corpus(&CorpusSpec::new(200_000, 41));
        let heap = crate::Cluster::new(&ClusterConfig {
            per_worker_budget: 512 << 10,
            ..config(Backend::Heap)
        })
        .external_sort(&words)
        .unwrap();
        let facade = crate::Cluster::new(&ClusterConfig {
            per_worker_budget: 512 << 10,
            ..config(Backend::Facade)
        })
        .external_sort(&words)
        .unwrap();
        assert!(heap.stats.gc_count > 0);
        assert_eq!(facade.stats.gc_count, 0);
        assert_eq!(heap.payload(), facade.payload());
    }
}
