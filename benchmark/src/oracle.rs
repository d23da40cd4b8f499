//! The native references: every workload's job written in plain Rust over
//! plain `Vec`s, `HashMap`s and `Box`es.
//!
//! They serve twice. As *oracles* they give the answers every repetition's
//! outputs are checked against — none of them calls the code under test. As
//! the *normalising leg* they are timed next to the facade and heap legs of
//! the same repetition, so that the end-to-end metrics are ratios that a
//! drifting machine moves on both sides at once.
//!
//! This code is frozen: changing it changes what `1.0` means for
//! `facade_x_native` and `heap_x_native`, so it invalidates every recorded
//! baseline.

use std::collections::HashMap;

/// Synchronous PageRank (damping 0.15 / 0.85, ranks start at 1, edge values
/// carry `rank[src] / out_degree[src]`) — the recurrence the engine's
/// `PageRank` vertex program implements, without its asynchronous
/// within-pass visibility.
pub fn pagerank(vertices: usize, edges: &[(u32, u32)], passes: usize) -> Vec<f64> {
    let mut out_degree = vec![0u32; vertices];
    for &(s, _) in edges {
        out_degree[s as usize] += 1;
    }
    let mut rank = vec![1.0f64; vertices];
    let mut edge_value: Vec<f64> = edges
        .iter()
        .map(|&(s, _)| 1.0 / f64::from(out_degree[s as usize].max(1)))
        .collect();
    let mut sums = vec![0.0f64; vertices];
    for _ in 0..passes {
        sums.fill(0.0);
        for (&(_, d), &v) in edges.iter().zip(&edge_value) {
            sums[d as usize] += v;
        }
        for (r, s) in rank.iter_mut().zip(&sums) {
            *r = 0.15 + 0.85 * s;
        }
        for (&(s, _), v) in edges.iter().zip(edge_value.iter_mut()) {
            *v = rank[s as usize] / f64::from(out_degree[s as usize].max(1));
        }
    }
    rank
}

/// Index of the largest value (first on ties).
pub fn argmax(values: &[f64]) -> usize {
    let mut best = 0;
    for (i, v) in values.iter().enumerate() {
        if *v > values[best] {
            best = i;
        }
    }
    best
}

/// Connected components over the undirected edge set by union-find; the
/// label of a vertex is the smallest vertex id in its component, which is
/// what min-label propagation converges to.
pub fn components(vertices: usize, edges: &[(u32, u32)]) -> Vec<u32> {
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }
    let mut parent: Vec<u32> = (0..vertices as u32).collect();
    for &(a, b) in edges {
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        // The smaller root wins, so a root is always its component's minimum.
        if ra < rb {
            parent[rb as usize] = ra;
        } else {
            parent[ra as usize] = rb;
        }
    }
    (0..vertices as u32).map(|v| find(&mut parent, v)).collect()
}

/// Word counts as a word-sorted table.
pub fn word_count(words: &[String]) -> Vec<(String, i64)> {
    let mut counts: HashMap<&str, i64> = HashMap::new();
    for w in words {
        *counts.entry(w.as_str()).or_default() += 1;
    }
    let mut table: Vec<(String, i64)> = counts
        .into_iter()
        .map(|(w, c)| (w.to_string(), c))
        .collect();
    table.sort_unstable();
    table
}

/// 32-bit FNV-1a, the key hash the external-sort checksum is defined over.
fn fnv1a32(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// External sort's payload `(rows, checksum)`: the corpus dealt round-robin
/// over `partitions`, each partition sorted bytewise, and the
/// order-sensitive checksum `c = c·31 + (fnv1a32(key) ^ index)` folded over
/// the partitions in order.
pub fn external_sort(words: &[String], partitions: usize) -> (u64, u64) {
    let mut parts: Vec<Vec<&[u8]>> = vec![Vec::new(); partitions];
    for (i, w) in words.iter().enumerate() {
        parts[i % partitions].push(w.as_bytes());
    }
    let mut checksum = 0u64;
    for part in &mut parts {
        part.sort_unstable();
        for (i, key) in part.iter().enumerate() {
            checksum = checksum
                .wrapping_mul(31)
                .wrapping_add(u64::from(fnv1a32(key)) ^ i as u64);
        }
    }
    (words.len() as u64, checksum)
}

/// The record the `compile_run` program allocates, as a Rust value.
struct Temp {
    a: i64,
    b: i64,
    _link: Option<Box<Temp>>,
}

/// One `churn(rounds, per)` call of the `compile_run` program: `rounds ×
/// per` boxed records, each written, read back and dropped.
pub fn churn(rounds: i32, per: i32) -> i64 {
    let mut acc = 0i64;
    for _ in 0..rounds {
        for i in 0..per {
            let mut t = Box::new(Temp {
                a: i64::from(i),
                b: 0,
                _link: None,
            });
            // Keeps the allocation: without it the optimiser folds the loop
            // into a closed form and the reference measures nothing.
            std::hint::black_box(&mut t);
            t.b = t.a + t.a;
            acc += t.b;
        }
    }
    acc
}

/// The oracle's answers for one graph, and the comparisons a job's vertex
/// values must pass.
#[derive(Debug, Clone)]
pub struct GraphAnswers {
    /// Vertex with the highest synchronous PageRank.
    pub pr_top: usize,
    /// Total synchronous PageRank mass.
    pub pr_mass: f64,
    /// Component label (smallest member id) per vertex.
    pub cc_labels: Vec<u32>,
}

impl GraphAnswers {
    /// Computes the answers for `passes` PageRank passes.
    pub fn of(vertices: usize, edges: &[(u32, u32)], passes: usize) -> GraphAnswers {
        let ranks = pagerank(vertices, edges, passes);
        GraphAnswers {
            pr_top: argmax(&ranks),
            pr_mass: ranks.iter().sum(),
            cc_labels: components(vertices, edges),
        }
    }

    /// The engine updates asynchronously (later intervals see earlier ones'
    /// fresh values), so its PageRank matches the synchronous oracle only
    /// approximately: same top vertex, total mass within 15 %.
    pub fn pagerank_matches(&self, ranks: &[f64]) -> bool {
        let mass: f64 = ranks.iter().sum();
        ranks.len() == self.cc_labels.len()
            && argmax(ranks) == self.pr_top
            && ((mass - self.pr_mass) / self.pr_mass).abs() < 0.15
    }

    /// Whether `labels` equal the union-find labels exactly.
    pub fn components_match(&self, labels: &[f64]) -> bool {
        labels.len() == self.cc_labels.len()
            && labels
                .iter()
                .zip(&self.cc_labels)
                .all(|(got, want)| *got == f64::from(*want))
    }

    /// Number of vertices carrying `label`.
    pub fn component_size(&self, label: u32) -> usize {
        self.cc_labels.iter().filter(|l| **l == label).count()
    }
}

/// The oracle's answers for one corpus.
#[derive(Debug, Clone)]
pub struct CorpusAnswers {
    /// Word-sorted count table.
    pub wc_table: Vec<(String, i64)>,
    /// External sort's `(rows, checksum)`.
    pub es_payload: (u64, u64),
    /// Words in the corpus.
    pub words: usize,
}

impl CorpusAnswers {
    /// Computes the answers for a sort over `partitions` partitions.
    pub fn of(words: &[String], partitions: usize) -> CorpusAnswers {
        CorpusAnswers {
            wc_table: word_count(words),
            es_payload: external_sort(words, partitions),
            words: words.len(),
        }
    }

    /// Whether a word-count result equals the oracle's table.
    pub fn word_count_matches(&self, distinct: u64, total: i64, counts: &[(String, i64)]) -> bool {
        distinct == self.wc_table.len() as u64
            && total == self.words as i64
            && counts == self.wc_table
    }

    /// The oracle's count of `word` (0 if absent).
    pub fn count_of(&self, word: &str) -> i64 {
        self.wc_table
            .binary_search_by(|(w, _)| w.as_str().cmp(word))
            .map_or(0, |i| self.wc_table[i].1)
    }
}
