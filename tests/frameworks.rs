//! Cross-crate integration tests: the three framework substrates on shared
//! generated inputs, heap vs facade, plus reference-model checks.

use facade::datagen::{CorpusSpec, Graph, GraphSpec, corpus};
use facade::metrics::report::Backend;
use std::collections::HashMap;

/// Reference PageRank on plain Rust data structures (the oracle for both
/// engines).
fn reference_pagerank(graph: &Graph, iterations: usize) -> Vec<f64> {
    let n = graph.vertices as usize;
    let mut out_deg = vec![0u32; n];
    for &(s, _) in &graph.edges {
        out_deg[s as usize] += 1;
    }
    let mut rank = vec![1.0f64; n];
    // Edge values carry src_rank/out_deg, as the GraphChi engine does.
    let mut edge_vals: HashMap<(u32, u32), f64> = HashMap::new();
    for &(s, d) in &graph.edges {
        edge_vals.insert((s, d), 1.0 / f64::from(out_deg[s as usize].max(1)));
    }
    for _ in 0..iterations {
        let mut sums = vec![0.0f64; n];
        for &(s, d) in &graph.edges {
            sums[d as usize] += edge_vals[&(s, d)];
        }
        for v in 0..n {
            rank[v] = 0.15 + 0.85 * sums[v];
        }
        for &(s, d) in &graph.edges {
            edge_vals.insert(
                (s, d),
                rank[s as usize] / f64::from(out_deg[s as usize].max(1)),
            );
        }
    }
    rank
}

#[test]
fn graphchi_pagerank_is_close_to_reference() {
    // GraphChi's sliding-window update order makes later subintervals see
    // earlier ones' fresh values (asynchronous updates), so the comparison
    // is approximate: same ordering of top vertices, similar mass.
    use facade::graphchi::{Engine, EngineConfig, PageRank};
    let graph = Graph::generate(&GraphSpec::new(400, 3_000, 77));
    let reference = reference_pagerank(&graph, 8);
    let mut engine = Engine::new(
        &graph,
        EngineConfig {
            backend: Backend::Facade,
            budget_bytes: 16 << 20,
            intervals: 4,
            ..EngineConfig::default()
        },
    );
    let out = engine.execute(&PageRank::new(8)).unwrap();
    // Compare total mass within 15%.
    let ref_mass: f64 = reference.iter().sum();
    let got_mass: f64 = out.values.iter().sum();
    assert!(
        (ref_mass - got_mass).abs() / ref_mass < 0.15,
        "mass: ref {ref_mass} vs engine {got_mass}"
    );
    // The top vertex must agree.
    let top_ref = (0..reference.len()).max_by(|&a, &b| reference[a].total_cmp(&reference[b]));
    let top_got = (0..out.values.len()).max_by(|&a, &b| out.values[a].total_cmp(&out.values[b]));
    assert_eq!(top_ref, top_got);
}

#[test]
fn graphchi_cc_matches_union_find() {
    use facade::graphchi::{ConnectedComponents, Engine, EngineConfig};
    let graph = Graph::generate(&GraphSpec::new(300, 900, 5));
    // Union-find oracle over undirected edges.
    let mut parent: Vec<usize> = (0..graph.vertices as usize).collect();
    fn find(p: &mut Vec<usize>, x: usize) -> usize {
        if p[x] != x {
            let r = find(p, p[x]);
            p[x] = r;
        }
        p[x]
    }
    for &(a, b) in &graph.edges {
        let (ra, rb) = (find(&mut parent, a as usize), find(&mut parent, b as usize));
        if ra != rb {
            parent[ra] = rb;
        }
    }
    for backend in [Backend::Heap, Backend::Facade] {
        let mut engine = Engine::new(
            &graph,
            EngineConfig {
                backend,
                budget_bytes: 16 << 20,
                intervals: 3,
                ..EngineConfig::default()
            },
        );
        let out = engine.execute(&ConnectedComponents::new(100)).unwrap();
        // Two vertices share a CC label iff they share a union-find root.
        for a in 0..graph.vertices as usize {
            for b in (a + 1..graph.vertices as usize).step_by(37) {
                let same_ref = find(&mut parent, a) == find(&mut parent, b);
                let same_got = out.values[a] == out.values[b];
                assert_eq!(same_ref, same_got, "vertices {a},{b}");
            }
        }
    }
}

#[test]
fn wordcount_matches_hashmap_oracle() {
    use facade::hyracks::{Cluster, ClusterConfig};
    let words = corpus(&CorpusSpec::new(60_000, 3));
    let mut oracle: HashMap<&str, i64> = HashMap::new();
    for w in &words {
        *oracle.entry(w).or_default() += 1;
    }
    for backend in [Backend::Heap, Backend::Facade] {
        let out = Cluster::new(&ClusterConfig {
            workers: 3,
            backend,
            per_worker_budget: 32 << 20,
            frame_bytes: 8 << 10,
            ..ClusterConfig::default()
        })
        .word_count(&words)
        .unwrap();
        assert_eq!(out.distinct_words, oracle.len() as u64);
        assert_eq!(out.total_count, words.len() as i64);
    }
}

#[test]
fn external_sort_matches_std_sort() {
    use facade::hyracks::{Cluster, ClusterConfig};
    let words = corpus(&CorpusSpec::new(40_000, 9));
    let heap = Cluster::new(&ClusterConfig {
        workers: 2,
        backend: Backend::Heap,
        per_worker_budget: 8 << 20,
        frame_bytes: 8 << 10,
        ..ClusterConfig::default()
    })
    .external_sort(&words)
    .unwrap();
    let facade = Cluster::new(&ClusterConfig {
        workers: 2,
        backend: Backend::Facade,
        per_worker_budget: 8 << 20,
        frame_bytes: 8 << 10,
        ..ClusterConfig::default()
    })
    .external_sort(&words)
    .unwrap();
    assert_eq!(heap.total_records, words.len() as u64);
    assert_eq!(heap.payload(), facade.payload());
}

#[test]
fn gps_pagerank_mass_is_conserved_modulo_dangling() {
    use facade::gps::{GpsConfig, PageRank, run};
    let graph = Graph::generate(&GraphSpec::new(500, 4_000, 21));
    let out = run(
        &graph,
        &mut PageRank::new(6),
        &GpsConfig {
            workers: 3,
            backend: Backend::Facade,
            per_worker_budget: 16 << 20,
            batch_messages: 256,
            ..GpsConfig::default()
        },
    )
    .unwrap();
    let mass: f64 = out.values.iter().sum();
    // With damping 0.15 and dangling leakage, mass sits between 0.15n and
    // roughly n + fan-in concentration effects.
    assert!(mass > 0.15 * 500.0, "mass {mass}");
    assert!(out.values.iter().all(|&r| r >= 0.15));
}

#[test]
fn every_engine_runs_bit_identically_on_a_host_pool_and_its_epoch_reconciles() {
    // One run environment for all three engines: a job under a host pool
    // with a minted epoch equals its private-pool run bit for bit, and at
    // retirement every page the epoch drew is back, plus the fresh pages
    // the run created and donated.
    use facade::gps::{self, GpsConfig};
    use facade::graphchi::{self, Engine, EngineConfig};
    use facade::hyracks::{Cluster, ClusterConfig};
    use facade::store::{PagePool, RunEnv};
    use std::sync::Arc;

    let host = Arc::new(PagePool::with_default_config());
    // `job`: environment in, (output, pages created) out.
    fn check<T: PartialEq>(name: &str, host: &Arc<PagePool>, job: impl Fn(RunEnv) -> (T, u64)) {
        let (private, _) = job(RunEnv::default());
        let epoch = host.begin_epoch();
        let (hosted, pages_created) = job(RunEnv {
            pool: Some(Arc::clone(host)),
            epoch,
            ..RunEnv::default()
        });
        assert!(hosted == private, "{name}: output independent of the pool");
        let ledger = host.retire_epoch(epoch).expect("epoch was live");
        assert!(ledger.pages_in > 0, "{name}: traffic was tagged");
        assert_eq!(
            ledger.pages_in,
            ledger.pages_out + pages_created,
            "{name}: {ledger:?}, {pages_created} created"
        );
    }
    let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
    let graph = Graph::generate(&GraphSpec::new(400, 3_000, 5));
    let words = corpus(&CorpusSpec::new(40_000, 5));

    check("graphchi pagerank", &host, |env| {
        let config = EngineConfig {
            backend: Backend::Facade,
            budget_bytes: 16 << 20,
            intervals: 4,
            threads: 2,
            env,
            ..EngineConfig::default()
        };
        let out = Engine::new(&graph, config)
            .execute(&graphchi::PageRank::new(3))
            .unwrap();
        (bits(&out.values), out.stats.pages_created)
    });
    check("hyracks wordcount", &host, |env| {
        let config = ClusterConfig {
            workers: 4,
            threads: 2,
            backend: Backend::Facade,
            env,
            ..ClusterConfig::default()
        };
        let out = Cluster::new(&config).word_count(&words).unwrap();
        (out.counts, out.stats.pages_created)
    });
    check("gps pagerank", &host, |env| {
        let config = GpsConfig {
            workers: 3,
            backend: Backend::Facade,
            env,
            ..GpsConfig::default()
        };
        let out = gps::run(&graph, &mut gps::PageRank::new(4), &config).unwrap();
        (bits(&out.values), out.stats.pages_created)
    });
    assert_eq!(host.live_epochs(), 0);
}

#[test]
fn budget_ordering_facade_completes_at_least_as_much_as_heap() {
    // Sweep budgets; at no budget may the heap complete while the facade
    // fails (it would contradict the paper's scaling claim at our record
    // shapes).
    use facade::hyracks::{Cluster, ClusterConfig};
    let words = corpus(&CorpusSpec {
        bytes: 150_000,
        vocabulary: 4_000,
        exponent: 0.6,
        seed: 9,
    });
    for budget in [256 << 10, 512 << 10, 1 << 20, 4 << 20] {
        let mk = |backend| ClusterConfig {
            workers: 2,
            backend,
            per_worker_budget: budget,
            frame_bytes: 8 << 10,
            ..ClusterConfig::default()
        };
        let heap_ok = Cluster::new(&mk(Backend::Heap)).word_count(&words).is_ok();
        let facade_ok = Cluster::new(&mk(Backend::Facade))
            .word_count(&words)
            .is_ok();
        assert!(
            !heap_ok || facade_ok,
            "heap completed but facade failed at budget {budget}"
        );
    }
}

#[test]
fn checkpoint_dir_does_not_perturb_job_output_and_is_left_empty() {
    // The same spec with and without durability, through the job API, on
    // both engines: identical output, one checkpoint per durable boundary
    // (every committed interval for PR; the one first phase for WC/ES),
    // nothing resumed or discarded, nothing left behind.
    use facade::job::{Dataset, ExecContext, JobSpec, Workload, default_runners};
    use facade::store::test_support::TempDir;
    let data = Dataset::synthetic(300, 1_500, 20_000, 7);
    let runners = default_runners();
    let ctx = ExecContext::default();
    let (passes, intervals) = (3, 4);
    for (workload, boundaries) in [
        (
            Workload::PageRank { iterations: passes },
            passes * intervals,
        ),
        (Workload::WordCount, 1),
        (Workload::ExternalSort, 1),
    ] {
        let run = |spec: &JobSpec| {
            let runner = runners.iter().find(|r| r.supports(&spec.workload)).unwrap();
            runner.execute(spec, &data, &ctx).expect("job completes")
        };
        let tmp = TempDir::new(&format!("durable-{}", workload.kind()));
        let plain = JobSpec {
            workload: workload.clone(),
            intervals,
            ..JobSpec::default()
        };
        let durable = JobSpec {
            checkpoint_dir: Some(tmp.path().to_path_buf()),
            ..plain.clone()
        };
        let (base, out) = (run(&plain), run(&durable));
        assert_eq!(
            out.output.fingerprint(),
            base.output.fingerprint(),
            "{workload}"
        );
        assert_eq!(base.resilience.checkpoints_written, 0, "{workload}");
        assert_eq!(
            out.resilience.checkpoints_written, boundaries as u64,
            "{workload}"
        );
        assert!(out.resilience.is_clean(), "{workload}");
        let leftovers = std::fs::read_dir(tmp.path()).expect("dir exists").count();
        assert_eq!(leftovers, 0, "{workload}: directory empty after completion");
    }
}
