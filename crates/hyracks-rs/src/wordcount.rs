//! The word-count job (WC of Table 3): a MapReduce-style pipeline with a
//! map phase (tokenize + local aggregation), a hash shuffle, and a reduce
//! phase, each worker's aggregation living in the record store.

use crate::checkpoint::{decode_pairs, encode_pairs, maybe_crash};
use crate::cluster::{
    ClusterConfig, JobStats, finish_job, first_phase, job_checkpointer, round_robin, run_phase,
};
use crate::hashtable::{WordTable, WordTableClasses, hash_bytes, register_classes};
use data_store::{ClassTag, Field, FieldTy, Store};
use metrics::{JobFailure, OutOfMemory};
use std::time::Instant;

/// The result of a completed WC job.
#[derive(Debug, Clone)]
pub struct WcOutput {
    /// Number of distinct words.
    pub distinct_words: u64,
    /// Total token count (must equal the corpus length).
    pub total_count: i64,
    /// Per-word counts, word-sorted — deterministic at every worker and
    /// thread count, and the resident result the serving layer answers
    /// word-lookup queries from.
    pub counts: Vec<(String, i64)>,
    /// Aggregate worker statistics.
    pub stats: JobStats,
}

impl WcOutput {
    /// The count for one `word`, or `None` if it never appeared.
    pub fn count_of(&self, word: &str) -> Option<i64> {
        self.counts
            .binary_search_by(|(w, _)| w.as_str().cmp(word))
            .ok()
            .map(|i| self.counts[i].1)
    }
}

/// One partition's map output: `(word bytes, partial count)` pairs — the
/// unit the map phase produces, the checkpoint persists, and the shuffle
/// consumes.
type MapPartition = Vec<(Vec<u8>, i64)>;

/// The record classes a WC worker needs, registered once per store by the
/// phase's `init` closure (pool threads keep a store across partitions, so
/// registration cannot live in the per-partition worker body).
struct WcSchema {
    classes: WordTableClasses,
    token_class: ClassTag,
    /// The token's length and hash fields.
    token_len: Field,
    token_hash: Field,
}

fn wc_schema(store: &mut Store) -> WcSchema {
    let classes = register_classes(store);
    let token_class = store.register_class("Token", &[FieldTy::I32, FieldTy::I32]);
    WcSchema {
        classes,
        token_class,
        token_len: store.field(token_class, 0),
        token_hash: store.field(token_class, 1),
    }
}

/// One frame's combiner: an open-addressing hash table over the frame's
/// distinct words, keyed by the FNV-1a hash the token record stores.
/// Entries sit in first-seen order; the index table maps a hash to an entry
/// at load ≤ ½. Both buffers are reused across frames, so once they reach
/// the largest frame's size, counting a frame allocates nothing. FNV is not
/// collision-resistant, but [`WordTable`] already buckets by it, and a
/// probe chain never outgrows one frame's tokens.
#[derive(Default)]
struct FrameCounts<'w> {
    entries: Vec<(&'w [u8], i64)>,
    /// `(hash, entry index)`, power-of-two length; an index of `FREE`
    /// marks a free slot.
    slots: Vec<(u32, u32)>,
}

impl<'w> FrameCounts<'w> {
    const FREE: u32 = u32::MAX;

    /// Empties the table and sizes it for a frame of `tokens` tokens.
    fn reset(&mut self, tokens: usize) {
        self.entries.clear();
        self.slots.clear();
        self.slots
            .resize((2 * tokens).next_power_of_two(), (0, Self::FREE));
    }

    /// Counts one occurrence of `key`, whose hash is `hash`; a new entry
    /// keeps `owned`, the same bytes borrowed from the input.
    fn add(&mut self, hash: u32, key: &[u8], owned: &'w [u8]) {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let (h, at) = self.slots[i];
            if at == Self::FREE {
                self.slots[i] = (hash, self.entries.len() as u32);
                self.entries.push((owned, 1));
                return;
            }
            if h == hash && self.entries[at as usize].0 == key {
                self.entries[at as usize].1 += 1;
                return;
            }
            i = (i + 1) & mask;
        }
    }

    /// The frame's `(word, count)` pairs in bytewise word order, the order a
    /// word-keyed sorted map would yield them in.
    fn sorted(&mut self) -> &[(&'w [u8], i64)] {
        self.entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        &self.entries
    }
}

/// One map worker: tokenizes its partition frame by frame, each frame a
/// sub-iteration of transient token records, aggregating into a
/// store-backed [`WordTable`] that lives for the whole operator iteration.
fn map_worker<'w>(
    store: &mut Store,
    schema: &WcSchema,
    words: &[&'w String],
    frame_bytes: usize,
) -> Result<MapPartition, OutOfMemory> {
    let WcSchema {
        classes,
        token_class,
        token_len,
        token_hash,
    } = *schema;

    let operator = store.iteration_start();
    let mut table = WordTable::new(store, &classes, 4096)?;
    let mut local = FrameCounts::default();

    let mut flush = |store: &mut Store,
                     table: &mut WordTable,
                     frame: &[&'w String]|
     -> Result<(), OutOfMemory> {
        if frame.is_empty() {
            return Ok(());
        }
        // One frame = one nested sub-iteration (§3.6): every token record
        // allocated here dies here.
        let sub = store.iteration_start();
        // The frame's combiner is keyed by the frame's own input bytes,
        // as Hyracks' frame tuple accessors address tuples in the frame
        // buffer: counting a token allocates nothing outside the store.
        local.reset(frame.len());
        for &word in frame {
            // The transient churn of the original user function: a byte
            // array and a token record per token.
            let bytes = store.alloc_bytes(word.as_bytes())?;
            // Count the token by the bytes read back from the store, and
            // before the next allocation: the array is unrooted
            // garbage-to-be, and a collection may reclaim it.
            let read = store.array_bytes(bytes);
            debug_assert_eq!(read, word.as_bytes());
            let hash = hash_bytes(read);
            local.add(hash, read, word.as_bytes());
            let token = store.alloc(token_class)?;
            store.set_i32(token, token_len, word.len() as i32);
            store.set_i32(token, token_hash, hash as i32);
        }
        store.iteration_end(sub);
        // Fold the frame's combiner output into the operator-lifetime
        // table (allocated between sub-iterations, so entries land in the
        // operator's page manager), in word order: the table's entries,
        // and so its pages and `extract` order, follow the fold order.
        for &(w, c) in local.sorted() {
            table.add(store, w, c)?;
        }
        Ok(())
    };

    let mut frame_start = 0;
    let mut frame_fill = 0usize;
    for (i, word) in words.iter().enumerate() {
        frame_fill += word.len() + 1;
        if frame_fill >= frame_bytes {
            flush(store, &mut table, &words[frame_start..=i])?;
            frame_start = i + 1;
            frame_fill = 0;
        }
    }
    flush(store, &mut table, &words[frame_start..])?;

    let out = table.extract(store);
    table.release(store);
    store.iteration_end(operator);
    Ok(out)
}

/// One reduce worker: merges the shuffled partial counts for its key range.
fn reduce_worker(
    store: &mut Store,
    schema: &WcSchema,
    pairs: &[(Vec<u8>, i64)],
) -> Result<MapPartition, OutOfMemory> {
    let operator = store.iteration_start();
    let mut table = WordTable::new(store, &schema.classes, 4096)?;
    for (w, c) in pairs {
        table.add(store, w, *c)?;
    }
    let out = table.extract(store);
    table.release(store);
    store.iteration_end(operator);
    Ok(out)
}

/// Runs the WC job over `corpus` on the simulated cluster; the
/// implementation behind [`crate::Cluster::word_count`].
///
/// With [`checkpoint_dir`](data_store::RunEnv::checkpoint_dir) set in the
/// config's `env`, the map phase's output is
/// committed as a checksummed manifest the moment it completes; a job that
/// finds its own verified checkpoint there goes straight to the shuffle,
/// bit-identical to an uninterrupted run.
///
/// # Errors
///
/// Returns [`JobFailure`] (`OME(n)`) if any worker exhausts its per-node
/// budget, or an injected-crash failure when the fault plan's
/// `crash_in_phase` fires (phase 0 = map, phase 1 = reduce).
pub(crate) fn wordcount_job(
    corpus: &[String],
    config: &ClusterConfig,
) -> Result<WcOutput, JobFailure> {
    let started = Instant::now();
    let mut stats = JobStats::default();
    let pool = config.env.page_pool(config.backend);
    let ckpt = job_checkpointer(config, "wc", corpus);

    // Map phase (or its checkpoint). A degraded retry halves the frame size
    // per rung: frames are sub-iteration granularity, invisible in the
    // counts, but smaller frames mean less transient churn alive at once.
    let map_out: Vec<MapPartition> = first_phase(
        config,
        ckpt.as_ref(),
        &mut stats,
        started,
        ("map", "map"),
        (|part: &MapPartition| encode_pairs(part), decode_pairs),
        |stats| {
            run_phase(
                config,
                "map",
                started,
                round_robin(corpus, config.workers),
                stats,
                pool.as_ref(),
                wc_schema,
                |_, store, schema, part, level| {
                    let frame = (config.frame_bytes >> level.min(16)).max(64);
                    map_worker(store, schema, part, frame)
                },
            )
        },
    )?;

    // Hash shuffle: word → reducer.
    let mut shuffled: Vec<MapPartition> = (0..config.workers).map(|_| Vec::new()).collect();
    for part in map_out {
        for (w, c) in part {
            let r = hash_bytes(&w) as usize % config.workers;
            shuffled[r].push((w, c));
        }
    }

    // Reduce phase, reusing the map phase's pages through the pool.
    let reduce_out = run_phase(
        config,
        "reduce",
        started,
        shuffled,
        &mut stats,
        pool.as_ref(),
        wc_schema,
        |_, store, schema, part, _level| reduce_worker(store, schema, part),
    )?;
    // A crash here restarts from the map checkpoint and redoes the reduce.
    maybe_crash(config, 1, "reduce", started)?;

    // Reducers own disjoint key ranges, so concatenating and word-sorting
    // their outputs yields one deterministic count table.
    let mut counts: Vec<(String, i64)> = reduce_out
        .into_iter()
        .flatten()
        .map(|(w, c)| {
            let word = String::from_utf8(w)
                .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned());
            (word, c)
        })
        .collect();
    counts.sort_unstable();
    let distinct = counts.len() as u64;
    let total = counts.iter().map(|(_, c)| c).sum::<i64>();
    finish_job(config, &mut stats, started, pool.as_ref(), ckpt.as_ref());
    Ok(WcOutput {
        distinct_words: distinct,
        total_count: total,
        counts,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{CorpusSpec, corpus};
    use metrics::report::Backend;
    use std::collections::BTreeMap;

    fn small_corpus() -> Vec<String> {
        corpus(&CorpusSpec::new(40_000, 11))
    }

    fn config(backend: Backend, budget: usize) -> ClusterConfig {
        ClusterConfig {
            workers: 4,
            backend,
            per_worker_budget: budget,
            frame_bytes: 4 << 10,
            ..ClusterConfig::default()
        }
    }

    #[test]
    fn counts_are_exact_on_both_backends() {
        let words = small_corpus();
        let mut truth: BTreeMap<&str, i64> = BTreeMap::new();
        for w in &words {
            *truth.entry(w).or_default() += 1;
        }
        for backend in [Backend::Heap, Backend::Facade] {
            let out = crate::Cluster::new(&config(backend, 32 << 20))
                .word_count(&words)
                .unwrap();
            assert_eq!(out.total_count, words.len() as i64);
            assert_eq!(out.distinct_words, truth.len() as u64);
            // The resident count table matches ground truth per word and is
            // word-sorted, so `count_of` lookups resolve every entry.
            assert!(out.counts.windows(2).all(|w| w[0].0 < w[1].0));
            for (word, count) in &truth {
                assert_eq!(out.count_of(word), Some(*count), "count of {word:?}");
            }
        }
    }

    #[test]
    fn checkpointed_job_counts_writes_and_cleans_up() {
        let tmp = data_store::test_support::TempDir::new("wc-ckpt");
        let words = small_corpus();
        let base = crate::Cluster::new(&config(Backend::Facade, 32 << 20))
            .word_count(&words)
            .unwrap();
        let cfg = ClusterConfig {
            env: data_store::RunEnv {
                checkpoint_dir: Some(tmp.path().to_path_buf()),
                ..Default::default()
            },
            ..config(Backend::Facade, 32 << 20)
        };
        let out = crate::Cluster::new(&cfg).word_count(&words).unwrap();
        assert_eq!(
            (out.distinct_words, out.total_count),
            (base.distinct_words, base.total_count),
            "durability must not perturb output"
        );
        assert_eq!(
            out.stats.resilience.checkpoints_written, 1,
            "one checkpoint after the map phase"
        );
        assert!(
            out.stats.resilience.is_clean(),
            "checkpoint writes alone don't dirty a run"
        );
        assert!(
            !cfg.checkpoint_path("wc").unwrap().exists(),
            "a completed job removes its checkpoint"
        );
        // Re-running with no checkpoint on disk is a routine cold start:
        // nothing recovered, nothing discarded.
        let resumed = crate::Cluster::new(&cfg).word_count(&words).unwrap();
        assert_eq!(resumed.stats.resilience.recoveries, 0);
        assert!(resumed.stats.resilience.is_clean());
        assert_eq!(resumed.total_count, base.total_count);
    }

    #[test]
    fn data_path_and_map_checkpoint_are_pinned() {
        // Literals recorded before the frame combiner became a hash table:
        // the combiner must leave every store allocation, every page, every
        // count and every map-output byte exactly where it was, on both
        // backends and at every thread count. Pages and collections are
        // pinned at one thread only: with more, which pool thread's store
        // serves which partition is a race, and so is what it inherits.
        use data_store::checkpoint::xxh64;
        use data_store::test_support::TempDir;
        const COUNTS: u64 = 0x263b_b8b3_df9e_c08c;
        const MAP_CHECKPOINT: u64 = 0x1a1a_4c50_5d5a_e668;
        let words = small_corpus();
        for (backend, budget, records, one_thread) in [
            (Backend::Facade, 32 << 20, 20_234, (3, 0)),
            (Backend::Heap, 1 << 20, 29_280, (0, 3)),
        ] {
            for threads in [1, 2, 4] {
                let cfg = ClusterConfig {
                    threads,
                    ..config(backend, budget)
                };
                let out = crate::Cluster::new(&cfg).word_count(&words).unwrap();
                let s = &out.stats;
                let at = format!("{backend:?}, {threads} threads");
                assert_eq!(s.records_allocated, records, "{at}");
                if threads == 1 {
                    assert_eq!((s.pages_created, s.gc_count), one_thread, "{at}");
                }
                let counts = out.counts.iter().fold(0, |h, (w, c)| {
                    xxh64(&c.to_le_bytes(), xxh64(w.as_bytes(), h))
                });
                assert_eq!(counts, COUNTS, "{at}");

                // The map phase's checkpoint, left behind by a crash after
                // the reduce phase.
                let tmp = TempDir::new(&format!("wc-pin-{threads}"));
                let crashing = ClusterConfig {
                    env: data_store::RunEnv {
                        checkpoint_dir: Some(tmp.path().to_path_buf()),
                        fault_plan: Some(
                            data_store::FaultPlan::builder(0).crash_in_phase(1).build(),
                        ),
                        ..Default::default()
                    },
                    ..cfg
                };
                crate::Cluster::new(&crashing)
                    .word_count(&words)
                    .unwrap_err();
                let ckpt = std::fs::read(crashing.checkpoint_path("wc").unwrap()).unwrap();
                assert_eq!(xxh64(&ckpt, 0), MAP_CHECKPOINT, "{at}");
            }
        }
    }

    #[test]
    fn heap_gcs_facade_does_not() {
        // Enough tokens that the per-worker transient churn overflows the
        // young generation repeatedly.
        let words = corpus(&CorpusSpec::new(400_000, 11));
        let heap = crate::Cluster::new(&config(Backend::Heap, 2 << 20))
            .word_count(&words)
            .unwrap();
        let facade = crate::Cluster::new(&config(Backend::Facade, 32 << 20))
            .word_count(&words)
            .unwrap();
        assert!(heap.stats.gc_count > 0, "P collects");
        assert_eq!(facade.stats.gc_count, 0, "P' does not collect");
        assert!(facade.stats.pages_created > 0);
        assert_eq!(heap.distinct_words, facade.distinct_words);
    }

    #[test]
    fn tight_budget_fails_heap_before_facade() {
        // Scale the corpus so the heap's per-word object quadruple exceeds
        // the budget while the facade's inlined records fit.
        let words = corpus(&CorpusSpec {
            bytes: 400_000,
            vocabulary: 8_000,
            exponent: 0.5, // flatter → more distinct words live
            seed: 23,
        });
        let budget = 512 << 10;
        let heap = crate::Cluster::new(&config(Backend::Heap, budget)).word_count(&words);
        let facade = crate::Cluster::new(&config(Backend::Facade, budget)).word_count(&words);
        assert!(heap.is_err(), "P should OME at this budget");
        assert!(
            facade.is_ok(),
            "P' should complete: {:?}",
            facade.err().map(|e| e.to_string())
        );
    }
}
