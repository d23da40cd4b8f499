//! The external-sort job (ES of Table 3): budget-bounded run generation
//! over store records, sorted-run spilling, and k-way merging.

use crate::checkpoint::{decode_words, encode_words, maybe_crash};
use crate::cluster::{
    ClusterConfig, JobFailure, JobStats, finish_job, first_phase, job_checkpointer, round_robin,
    run_phase,
};
use crate::hashtable::hash_bytes;
use data_store::{ClassTag, ElemTy, FieldTy, Store};
use metrics::OutOfMemory;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
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

/// Builds sorted runs through the record store, spills them, and merges.
/// `degrade_level` right-shifts the run length: shorter runs hold fewer
/// live records at once, and the k-way merge makes run partitioning
/// invisible in the output.
fn sort_worker(
    store: &mut Store,
    line_class: ClassTag,
    words: Vec<String>,
    budget: usize,
    degrade_level: u32,
) -> Result<Vec<Vec<u8>>, OutOfMemory> {
    // Run length derived from the memory budget, as the external sort
    // operator sizes its in-memory runs from the frame budget.
    let run_len = ((budget / 96) >> degrade_level.min(16)).clamp(16, 1 << 20);
    let mut runs: Vec<Vec<Vec<u8>>> = Vec::new();

    let operator = store.iteration_start();
    for chunk in words.chunks(run_len) {
        // One run = one sub-iteration: the run's records die at the spill.
        let sub = store.iteration_start();
        let arr = store.alloc_array(ElemTy::Ref, chunk.len())?;
        let root = store.add_root(arr);
        let mut build = || -> Result<(), OutOfMemory> {
            for (i, word) in chunk.iter().enumerate() {
                let line = store.alloc(line_class)?;
                store.array_set_rec(arr, i, line);
                store.set_i32(line, 0, word.len() as i32);
                let bytes = store.alloc_array(ElemTy::U8, word.len())?;
                store.set_rec(line, 1, bytes);
                store.array_write_bytes(bytes, word.as_bytes());
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

        // Sort record indices, comparing through the store (the data-path
        // work the paper's ES pays for). Keys are compared in place,
        // borrowed from the store: a comparison allocates nothing.
        let key = |i: u32| store.get_rec(store.array_get_rec(arr, i as usize), 1);
        let mut order: Vec<u32> = (0..chunk.len() as u32).collect();
        order.sort_by(|&a, &b| store.array_bytes(key(a)).cmp(store.array_bytes(key(b))));

        // Spill the sorted run (records leave the data path).
        let run: Vec<Vec<u8>> = order
            .iter()
            .map(|&i| store.array_read_bytes(key(i)))
            .collect();
        runs.push(run);

        store.remove_root(root);
        store.iteration_end(sub);
    }
    store.iteration_end(operator);

    Ok(merge_runs(runs))
}

/// K-way merge of sorted runs (the merge phase reads spilled run files, a
/// control-path activity identical for both backends).
fn merge_runs(runs: Vec<Vec<Vec<u8>>>) -> Vec<Vec<u8>> {
    let total: usize = runs.iter().map(Vec::len).sum();
    let mut heap: BinaryHeap<Reverse<(Vec<u8>, usize, usize)>> = BinaryHeap::new();
    for (r, run) in runs.iter().enumerate() {
        if let Some(first) = run.first() {
            heap.push(Reverse((first.clone(), r, 0)));
        }
    }
    let mut out = Vec::with_capacity(total);
    while let Some(Reverse((key, r, i))) = heap.pop() {
        out.push(key);
        if let Some(next) = runs[r].get(i + 1) {
            heap.push(Reverse((next.clone(), r, i + 1)));
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
    let sorted: Vec<Vec<Vec<u8>>> = first_phase(
        config,
        ckpt.as_ref(),
        &mut stats,
        started,
        ("sort", "sorted"),
        (encode_words, decode_words),
        |stats| {
            run_phase(
                config,
                "sort",
                started,
                round_robin(corpus, config.workers),
                stats,
                pool.as_ref(),
                |store| store.register_class("LineRecord", &[FieldTy::I32, FieldTy::Ref]),
                |_, store, line_class, part, level| {
                    sort_worker(store, *line_class, part, budget, level)
                },
            )
        },
    )?;

    let mut total = 0u64;
    let mut checksum = 0u64;
    for part in &sorted {
        total += part.len() as u64;
        for (i, w) in part.iter().enumerate() {
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

    #[test]
    fn merge_runs_produces_sorted_output() {
        let runs = vec![
            vec![b"a".to_vec(), b"m".to_vec(), b"z".to_vec()],
            vec![b"b".to_vec(), b"c".to_vec()],
            vec![],
        ];
        let merged = merge_runs(runs);
        assert_eq!(merged.len(), 5);
        assert!(merged.windows(2).all(|w| w[0] <= w[1]));
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
        let line_class = store.register_class("LineRecord", &[FieldTy::I32, FieldTy::Ref]);
        let sorted = sort_worker(&mut store, line_class, words.clone(), 64 << 10, 0).unwrap();
        assert_eq!(sorted.len(), words.len());
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
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
            let mut sorted: Vec<Vec<u8>> = part.into_iter().map(String::into_bytes).collect();
            sorted.sort();
            (format!("sorted{i}"), encode_words(&sorted))
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
