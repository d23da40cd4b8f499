//! Seed determinism: the same seed gives byte-identical inputs and the same
//! job order; another seed gives other inputs on which every oracle check
//! still passes.

use facade_benchmark::harness::single_rep;
use facade_benchmark::workloads::compile_run::{self, CompileRun};
use facade_benchmark::workloads::dataflow_batch::{self, DataflowBatch};
use facade_benchmark::workloads::graph_batch::{self, GraphBatch};
use facade_benchmark::workloads::serve_mix::{self, ServeMix};

const SEEDS: [u64; 2] = [42, 7];

#[test]
fn the_same_seed_gives_byte_identical_inputs() {
    for seed in SEEDS {
        assert_eq!(
            graph_batch::generate(seed).edges,
            graph_batch::generate(seed).edges
        );
        assert_eq!(
            dataflow_batch::generate(seed),
            dataflow_batch::generate(seed)
        );
        let calls = compile_run::calls(seed);
        assert_eq!(calls, compile_run::calls(seed));
        assert_eq!(
            compile_run::program_text(&calls).as_bytes(),
            compile_run::program_text(&calls).as_bytes()
        );
    }
}

#[test]
fn the_same_seed_gives_the_same_job_order_and_query_arguments() {
    for seed in SEEDS {
        for rep in [0, 1, 17] {
            for client in 0..serve_mix::CLIENTS {
                assert_eq!(
                    serve_mix::plan(seed, rep, client, 9_000),
                    serve_mix::plan(seed, rep, client, 9_000)
                );
            }
        }
    }
}

#[test]
fn another_seed_gives_other_inputs() {
    let [a, b] = SEEDS;
    assert_ne!(
        graph_batch::generate(a).edges,
        graph_batch::generate(b).edges
    );
    assert_ne!(dataflow_batch::generate(a), dataflow_batch::generate(b));
    assert_ne!(
        compile_run::program_text(&compile_run::calls(a)),
        compile_run::program_text(&compile_run::calls(b))
    );
    let rounds = |seed| -> Vec<_> {
        (0..8)
            .map(|rep| serve_mix::plan(seed, rep, 0, 9_000))
            .collect()
    };
    assert_ne!(rounds(a), rounds(b));
}

#[test]
fn every_round_holds_each_job_kind_once() {
    for rep in 0..50 {
        for client in 0..serve_mix::CLIENTS {
            let mut kinds: Vec<usize> = serve_mix::plan(3, rep, client, 100)
                .iter()
                .map(|s| s.kind)
                .collect();
            kinds.sort_unstable();
            assert_eq!(kinds, [0, 1, 2, 3]);
        }
    }
}

#[test]
fn the_generated_program_makes_the_300_by_400_allocation_loop() {
    for seed in 0..20 {
        let calls = compile_run::calls(seed);
        assert_eq!(calls.len(), compile_run::CALLS);
        let records: i32 = calls.iter().map(|c| c.rounds * c.per).sum();
        assert_eq!(records, 300 * 400);
    }
}

#[test]
fn oracles_pass_on_every_workload_for_both_seeds() {
    for seed in SEEDS {
        for (name, checks) in [
            ("graph_batch", single_rep::<GraphBatch>(seed)),
            ("dataflow_batch", single_rep::<DataflowBatch>(seed)),
            ("serve_mix", single_rep::<ServeMix>(seed)),
            ("compile_run", single_rep::<CompileRun>(seed)),
        ] {
            assert!(checks.attempted > 0, "{name} seed {seed} checked nothing");
            assert_eq!(
                checks.failed, 0,
                "{name} seed {seed}: {:?}",
                checks.failures
            );
        }
    }
}
