//! Crash-restart recovery, end to end: a run killed mid-job by the fault
//! plan's process-level crash faults restarts from the latest durable
//! checkpoint and produces output bit-identical to an uninterrupted run —
//! at 1, 2, and 4 threads, for both engines, in both the clean-crash and
//! torn-write (checkpoint truncated mid-write) scenarios.
//!
//! The torn-write legs prove the fail-closed half of the invariant: a
//! damaged checkpoint is *discarded* (typed error, counted in the
//! resilience report, never a panic) and the restart cold-starts to the
//! same bits instead of resuming from garbage.

use facade::datagen::{CorpusSpec, Graph, GraphSpec, corpus};
use facade::graphchi::{
    Backend, ConnectedComponents, Engine, EngineConfig, FailureCause, PageRank, ShortestPaths,
    VertexProgram,
};
use facade::hyracks::{Cluster, ClusterConfig};
use facade::job::{Dataset, ExecContext, GraphChiRunner, JobOutput, JobRunner, JobSpec, Workload};
use facade::store::checkpoint::read_manifest;
use facade::store::test_support::TempDir;
use facade::store::{FaultPlan, RecoveryError, RunEnv};

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

fn crash_graph() -> Graph {
    Graph::generate(&GraphSpec::new(600, 5_000, 53))
}

fn graphchi_config(threads: usize) -> EngineConfig {
    EngineConfig {
        backend: Backend::Facade,
        budget_bytes: 16 << 20,
        intervals: 4,
        threads,
        ..EngineConfig::default()
    }
}

/// GraphChi, clean crash: the run dies directly after committing (and
/// checkpointing) its fifth interval — one interval into the second pass —
/// and a fresh engine given the same checkpoint directory resumes from
/// that boundary.
#[test]
fn graphchi_recovers_bit_identically_at_every_thread_count() {
    let graph = crash_graph();
    let app = PageRank::new(3);
    let reference = Engine::new(&graph, graphchi_config(1))
        .execute(&app)
        .expect("uninterrupted run");

    for threads in THREAD_COUNTS {
        let tmp = TempDir::new(&format!("crash-graphchi-{threads}"));
        let ckpt = Engine::checkpoint_path(tmp.path());

        let mut config = graphchi_config(threads);
        config.env.checkpoint_dir = Some(tmp.path().to_path_buf());
        config.env.fault_plan = Some(FaultPlan::builder(90).crash_at_interval(5).build());
        let err = Engine::new(&graph, config.clone())
            .execute(&app)
            .expect_err("the crash fault must abort the run");
        assert!(
            matches!(
                &err.cause,
                FailureCause::InjectedCrash(m) if m == "after committing interval 0 of pass 1"
            ),
            "{err}"
        );
        assert!(ckpt.exists(), "the crash left a durable checkpoint behind");

        // Restart: fresh engine (fresh process, in spirit), no fault plan.
        config.env.fault_plan = None;
        read_manifest(&ckpt).expect("checkpoint verifies");
        let recovered = Engine::new(&graph, config)
            .execute(&app)
            .expect("resumed run completes");

        assert_eq!(
            recovered.values, reference.values,
            "threads={threads}: resumed PageRank vector must be bit-identical"
        );
        assert_eq!(recovered.passes, reference.passes);
        assert_eq!(recovered.edges_processed, reference.edges_processed);
        assert_eq!(recovered.resilience.recoveries, 1);
        assert_eq!(recovered.resilience.torn_checkpoints_discarded, 0);
        assert!(
            recovered.resilience.checkpoints_written > 0,
            "the resumed run keeps checkpointing"
        );
        assert!(!ckpt.exists(), "the completed run removes its checkpoint");
    }
}

/// GraphChi, torn write: every checkpoint write is truncated mid-file, so
/// the crash leaves only a damaged manifest. The restart must reject it
/// with a typed error — no panic — count the discard, and cold-start to
/// the same bits.
#[test]
fn graphchi_torn_checkpoint_falls_back_to_a_cold_start() {
    let graph = crash_graph();
    let app = PageRank::new(3);
    let reference = Engine::new(&graph, graphchi_config(1))
        .execute(&app)
        .expect("uninterrupted run");

    for threads in THREAD_COUNTS {
        let tmp = TempDir::new(&format!("torn-graphchi-{threads}"));
        let ckpt = Engine::checkpoint_path(tmp.path());

        let mut config = graphchi_config(threads);
        config.env.checkpoint_dir = Some(tmp.path().to_path_buf());
        config.env.fault_plan = Some(
            FaultPlan::builder(91)
                .crash_at_interval(5)
                .torn_checkpoint_writes()
                .build(),
        );
        Engine::new(&graph, config.clone())
            .execute(&app)
            .expect_err("the crash fault must abort the run");
        assert!(ckpt.exists(), "the torn checkpoint is still on disk");

        config.env.fault_plan = None;
        let err = read_manifest(&ckpt).expect_err("a torn checkpoint must fail verification");
        assert!(
            !matches!(err, RecoveryError::Missing(_)),
            "torn, not missing: {err}"
        );

        // The restart cold-starts: correct bits, discard on record.
        let recovered = Engine::new(&graph, config)
            .execute(&app)
            .expect("cold start completes");
        assert_eq!(
            recovered.values, reference.values,
            "threads={threads}: cold-started vector must be bit-identical"
        );
        assert_eq!(recovered.resilience.recoveries, 0);
        assert_eq!(recovered.resilience.torn_checkpoints_discarded, 1);
        assert!(
            !ckpt.exists(),
            "the completed run removes the torn leftover"
        );
    }
}

/// Crashes `crashed` (a graph and a program) one interval into its second
/// pass, then offers the checkpoint it left to each of `others` on the same
/// directory. Every one of them must discard it (counted), cold-start to
/// its own reference bits, and leave no file behind.
fn assert_foreign_checkpoint_is_discarded(
    seed: u64,
    crashed: (&Graph, &dyn VertexProgram),
    others: &[(&Graph, &dyn VertexProgram)],
) {
    let tmp = TempDir::new(&format!("foreign-graphchi-{seed}"));
    let ckpt = Engine::checkpoint_path(tmp.path());
    let mut config = graphchi_config(2);
    config.env.checkpoint_dir = Some(tmp.path().to_path_buf());
    config.env.fault_plan = Some(FaultPlan::builder(seed).crash_at_interval(5).build());
    Engine::new(crashed.0, config.clone())
        .execute(crashed.1)
        .expect_err("the crash fault must abort the run");
    config.env.fault_plan = None;
    let leftover = std::fs::read(&ckpt).expect("the crash left a checkpoint behind");

    for &(graph, app) in others {
        let reference = Engine::new(graph, graphchi_config(2))
            .execute(app)
            .expect("uninterrupted run");
        // The previous leg's completed run removed the file.
        std::fs::write(&ckpt, &leftover).expect("restore the leftover");
        read_manifest(&ckpt).expect("intact: only the fingerprint is foreign");
        let out = Engine::new(graph, config.clone())
            .execute(app)
            .expect("cold start completes");
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&out.values),
            bits(&reference.values),
            "{} x{}",
            app.name(),
            app.iterations()
        );
        assert_eq!(out.passes, reference.passes);
        assert_eq!(out.resilience.recoveries, 0, "{}", app.name());
        assert_eq!(out.resilience.torn_checkpoints_discarded, 1);
        assert!(!ckpt.exists());
    }
}

/// The fingerprint covers the program: a checkpoint a crashed
/// `PageRank::new(3)` left behind must not be replayed into a different
/// program, or the same program with a different iteration bound, run on
/// the same graph and directory.
#[test]
fn graphchi_checkpoint_of_another_program_is_discarded() {
    let graph = crash_graph();
    assert_foreign_checkpoint_is_discarded(
        96,
        (&graph, &PageRank::new(3)),
        &[
            (&graph, &ConnectedComponents::new(30)),
            (&graph, &PageRank::new(4)),
        ],
    );
}

/// ... and the program's parameters, and the graph's contents: the same
/// program from another source vertex, and the same program on a graph of
/// the same size with different edges, are foreign too. Resuming is
/// automatic, so either one slipping through would be silent wrong output.
#[test]
fn graphchi_checkpoint_of_other_parameters_or_another_graph_is_discarded() {
    let graph = Graph::generate(&GraphSpec::new(600, 3_000, 41));
    assert_foreign_checkpoint_is_discarded(
        98,
        (&graph, &ShortestPaths::new(0, 30)),
        &[(&graph, &ShortestPaths::new(7, 30))],
    );
    let sibling = Graph::generate(&GraphSpec::new(600, 3_000, 42));
    assert_eq!(
        (sibling.vertices, sibling.edges.len()),
        (graph.vertices, graph.edges.len()),
        "same shape, different edges"
    );
    assert_ne!(sibling.edges, graph.edges);
    assert_foreign_checkpoint_is_discarded(
        99,
        (&graph, &PageRank::new(3)),
        &[(&sibling, &PageRank::new(3))],
    );
}

/// The served path: a `JobSpec` with a `checkpoint_dir`, crashed through
/// `GraphChiRunner`, then the *same spec* resubmitted without the fault
/// plan. Supplying the directory is the whole recovery protocol.
#[test]
fn resubmitted_graph_job_resumes_from_its_checkpoint_dir() {
    let data = Dataset::new(Vec::new(), crash_graph());
    let ctx = ExecContext::default();
    let values = |spec: &JobSpec| {
        let report = GraphChiRunner.execute(spec, &data, &ctx);
        report.map(|r| match r.output {
            JobOutput::Vertices { values } => (values, r.resilience),
            other => panic!("PageRank produced {other:?}"),
        })
    };
    for threads in THREAD_COUNTS {
        let tmp = TempDir::new(&format!("crash-job-{threads}"));
        let spec = JobSpec {
            workload: Workload::PageRank { iterations: 3 },
            threads,
            intervals: 4,
            checkpoint_dir: Some(tmp.path().to_path_buf()),
            ..JobSpec::default()
        };
        let (reference, _) = values(&JobSpec {
            checkpoint_dir: None,
            ..spec.clone()
        })
        .expect("uninterrupted run");

        let crashing = JobSpec {
            fault_plan: Some(FaultPlan::builder(97).crash_at_interval(5).build()),
            ..spec.clone()
        };
        let err = values(&crashing).expect_err("the crash fault must abort the job");
        assert!(err.to_string().contains("injected crash"), "{err}");

        let (recovered, resilience) = values(&spec).expect("resubmitted job completes");
        assert_eq!(
            recovered.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "threads={threads}: resumed job must be bit-identical"
        );
        assert_eq!(resilience.recoveries, 1, "threads={threads}");
        assert_eq!(resilience.torn_checkpoints_discarded, 0);
        let leftovers = std::fs::read_dir(tmp.path()).expect("dir exists").count();
        assert_eq!(leftovers, 0, "a completed job leaves its directory empty");
    }
}

fn crash_corpus() -> Vec<String> {
    corpus(&CorpusSpec::new(25_000, 17))
}

fn cluster_config(threads: usize, dir: &TempDir) -> ClusterConfig {
    ClusterConfig {
        workers: 4,
        threads,
        backend: Backend::Facade,
        per_worker_budget: 16 << 20,
        frame_bytes: 4 << 10,
        env: RunEnv {
            checkpoint_dir: Some(dir.path().to_path_buf()),
            ..RunEnv::default()
        },
    }
}

/// Hyracks WC, clean crash after the map phase: the restart resumes from
/// the map checkpoint, skips straight to the shuffle, and reduces to the
/// same counts.
#[test]
fn wordcount_recovers_bit_identically_at_every_thread_count() {
    let words = crash_corpus();
    let reference = Cluster::new(&ClusterConfig {
        workers: 4,
        threads: 1,
        backend: Backend::Facade,
        frame_bytes: 4 << 10,
        ..ClusterConfig::default()
    })
    .word_count(&words)
    .expect("uninterrupted run");

    for threads in THREAD_COUNTS {
        let tmp = TempDir::new(&format!("crash-wc-{threads}"));
        let mut config = cluster_config(threads, &tmp);
        let ckpt = config.checkpoint_path("wc").unwrap();

        config.env.fault_plan = Some(FaultPlan::builder(92).crash_in_phase(0).build());
        let failure = Cluster::new(&config)
            .word_count(&words)
            .expect_err("crash aborts the job");
        assert!(failure.to_string().contains("injected crash"), "{failure}");
        assert!(ckpt.exists(), "the crash left a durable checkpoint behind");

        config.env.fault_plan = None;
        let recovered = Cluster::new(&config)
            .word_count(&words)
            .expect("resumed job completes");
        assert_eq!(
            (recovered.distinct_words, recovered.total_count),
            (reference.distinct_words, reference.total_count),
            "threads={threads}: resumed counts must match"
        );
        assert_eq!(recovered.stats.resilience.recoveries, 1);
        assert_eq!(recovered.stats.resilience.torn_checkpoints_discarded, 0);
        assert!(!ckpt.exists(), "the completed job removes its checkpoint");
    }
}

/// Hyracks ES: clean crash after the sort phase at every thread count,
/// plus the torn-write fallback — the es_checksum must come out identical
/// either way.
#[test]
fn extsort_recovers_and_survives_torn_checkpoints() {
    let words = crash_corpus();
    let reference = Cluster::new(&ClusterConfig {
        workers: 4,
        threads: 1,
        backend: Backend::Facade,
        frame_bytes: 4 << 10,
        ..ClusterConfig::default()
    })
    .external_sort(&words)
    .expect("uninterrupted run");

    for threads in THREAD_COUNTS {
        // Clean crash → verified resume.
        let tmp = TempDir::new(&format!("crash-es-{threads}"));
        let mut config = cluster_config(threads, &tmp);
        let ckpt = config.checkpoint_path("es").unwrap();
        config.env.fault_plan = Some(FaultPlan::builder(93).crash_in_phase(0).build());
        Cluster::new(&config)
            .external_sort(&words)
            .expect_err("crash aborts the job");
        assert!(ckpt.exists());

        config.env.fault_plan = None;
        let recovered = Cluster::new(&config)
            .external_sort(&words)
            .expect("resumed job completes");
        assert_eq!(
            recovered.payload(),
            reference.payload(),
            "threads={threads}: resumed es_checksum must be bit-identical"
        );
        assert_eq!(recovered.stats.resilience.recoveries, 1);
        assert!(!ckpt.exists());

        // Torn write → discarded checkpoint → cold start, same bits.
        let tmp = TempDir::new(&format!("torn-es-{threads}"));
        let mut config = cluster_config(threads, &tmp);
        let ckpt = config.checkpoint_path("es").unwrap();
        config.env.fault_plan = Some(
            FaultPlan::builder(94)
                .crash_in_phase(0)
                .torn_checkpoint_writes()
                .build(),
        );
        Cluster::new(&config)
            .external_sort(&words)
            .expect_err("crash aborts the job");
        assert!(ckpt.exists(), "the torn checkpoint is still on disk");

        config.env.fault_plan = None;
        let recovered = Cluster::new(&config)
            .external_sort(&words)
            .expect("cold start completes");
        assert_eq!(
            recovered.payload(),
            reference.payload(),
            "threads={threads}: cold-started es_checksum must be bit-identical"
        );
        assert_eq!(recovered.stats.resilience.recoveries, 0);
        assert_eq!(recovered.stats.resilience.torn_checkpoints_discarded, 1);
        assert!(!ckpt.exists());
    }
}

/// Corruption sweep over a real engine checkpoint: flip one byte at every
/// offset of the manifest a crashed GraphChi run left behind, and assert
/// every flip is rejected with a typed error (fail closed, no panic) while
/// the cold-start fallback still converges to the reference bits.
#[test]
fn corrupt_checkpoint_bytes_fail_closed_and_cold_start() {
    let graph = crash_graph();
    let app = PageRank::new(3);
    let reference = Engine::new(&graph, graphchi_config(1))
        .execute(&app)
        .expect("uninterrupted run");

    let tmp = TempDir::new("corrupt-graphchi");
    let ckpt = Engine::checkpoint_path(tmp.path());
    let mut config = graphchi_config(2);
    config.env.checkpoint_dir = Some(tmp.path().to_path_buf());
    config.env.fault_plan = Some(FaultPlan::builder(95).crash_at_interval(3).build());
    Engine::new(&graph, config.clone())
        .execute(&app)
        .expect_err("crash aborts the run");
    config.env.fault_plan = None;
    let pristine = std::fs::read(&ckpt).expect("checkpoint bytes");

    // Every-byte sweeps are quadratic in verify cost; probe a spread of
    // offsets covering the magic, header directory, and both payloads.
    let probes: Vec<usize> = (0..pristine.len())
        .step_by(97.max(pristine.len() / 64))
        .collect();
    for &offset in &probes {
        let mut damaged = pristine.clone();
        damaged[offset] ^= 0x20;
        std::fs::write(&ckpt, &damaged).expect("write damaged checkpoint");
        let err = read_manifest(&ckpt).expect_err("one flipped byte must fail verification");
        assert!(
            !matches!(err, RecoveryError::Missing(_)),
            "offset {offset}: corrupt, not missing"
        );
    }

    // The fallback after the last rejection: cold start, reference bits.
    assert!(read_manifest(&ckpt).is_err());
    let recovered = Engine::new(&graph, config)
        .execute(&app)
        .expect("cold start completes");
    assert_eq!(recovered.values, reference.values);
    assert_eq!(recovered.resilience.torn_checkpoints_discarded, 1);
}
