//! The BSP engine: workers, supersteps, message exchange.

use crate::kernels::{Outgoing, VertexKernel};
use data_store::recovery::scoped_each;
use data_store::{ClassTag, ElemTy, FieldTy, Iteration, Rec, RunEnv, Store, StoreStats};
use datagen::Graph;
use metrics::report::Backend;
use metrics::{FailureCause, JobFailure, OutOfMemory, PhaseTimer, phases};
use std::time::{Duration, Instant};

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct GpsConfig {
    /// Number of workers (GPS nodes).
    pub workers: usize,
    /// Storage backend for every worker's data path.
    pub backend: Backend,
    /// Per-worker memory budget in bytes.
    pub per_worker_budget: usize,
    /// Message batch size in messages (GPS's message buffer granularity).
    pub batch_messages: usize,
    /// What the host lends the run. The worker stores come from
    /// [`RunEnv::store`] over [`RunEnv::page_pool`], so a host pool, its
    /// epoch and a fault plan are honoured; GPS has no checkpoints and no
    /// cancellation point (it is not in the serving graph), so
    /// `checkpoint_dir` and `cancel` are not consulted.
    pub env: RunEnv,
}

impl Default for GpsConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            backend: Backend::Heap,
            per_worker_budget: 32 << 20,
            batch_messages: 1024,
            env: RunEnv::default(),
        }
    }
}

/// The result of a completed run.
#[derive(Debug)]
pub struct GpsOutcome {
    /// Final vertex values in vertex order.
    pub values: Vec<f64>,
    /// Supersteps executed.
    pub supersteps: usize,
    /// Phase timings (`UT` = compute, `LT` = message materialization,
    /// `GT` = GC).
    pub timer: PhaseTimer,
    /// Summed store statistics.
    pub stats: StoreStats,
    /// Edges traversed (message sends), the throughput numerator.
    pub edges_processed: u64,
}

/// Per-worker state persisting across supersteps.
struct Worker {
    store: Store,
    /// The whole run as one iteration: the value array lives in it, each
    /// superstep nests inside it, and ending it hands every page back.
    run_scope: Iteration,
    /// Local vertex values: one big primitive array (GPS style).
    values: Rec,
    /// Local vertex ids are `worker + i * workers`.
    local_count: usize,
    /// Out-adjacency of local vertices (control path, like GPS's immutable
    /// graph partition).
    out_offsets: Vec<u32>,
    out_dst: Vec<u32>,
    envelope: ClassTag,
    active: Vec<bool>,
}

/// Runs `kernel` over `graph` on the simulated GPS cluster.
///
/// # Errors
///
/// Returns [`JobFailure`] when a worker exhausts its memory budget, or
/// panics — e.g. on a kernel returning a `PerEdge` message vector whose
/// length differs from the vertex's out-degree.
pub fn run(
    graph: &Graph,
    kernel: &mut dyn VertexKernel,
    config: &GpsConfig,
) -> Result<GpsOutcome, JobFailure> {
    let started = Instant::now();
    let n_workers = config.workers.max(1);
    let n = graph.vertices as usize;
    let fail = |cause: FailureCause, started: Instant| JobFailure {
        after: started.elapsed(),
        cause,
    };

    // One shared page supply for every facade worker: a superstep's
    // message churn is iteration-scoped, so pages freed by one worker's
    // barrier feed the next superstep on all of them.
    let pool = config.env.page_pool(config.backend);

    // Partition vertices v → worker v % W; build per-worker CSR.
    let mut workers: Vec<Worker> = Vec::with_capacity(n_workers);
    {
        let mut adj: Vec<Vec<Vec<u32>>> = (0..n_workers).map(|_| Vec::new()).collect();
        for (w, lists) in adj.iter_mut().enumerate() {
            let local = (n + n_workers - 1 - w) / n_workers;
            lists.resize(local, Vec::new());
        }
        for &(s, d) in &graph.edges {
            let w = s as usize % n_workers;
            adj[w][s as usize / n_workers].push(d);
        }
        for (w, lists) in adj.into_iter().enumerate() {
            let mut store =
                config
                    .env
                    .store(config.backend, config.per_worker_budget, pool.as_ref());
            let run_scope = store.iteration_start();
            let envelope = store.register_class(
                "MessageEnvelope",
                &[FieldTy::I32, FieldTy::I32, FieldTy::Ref],
            );
            let local_count = lists.len();
            let values = store
                .alloc_array(ElemTy::I64, local_count.max(1))
                .map_err(|e| fail(e.into(), started))?;
            store.add_root(values);
            let mut out_offsets = Vec::with_capacity(local_count + 1);
            let mut out_dst = Vec::new();
            out_offsets.push(0);
            for list in &lists {
                out_dst.extend_from_slice(list);
                out_offsets.push(out_dst.len() as u32);
            }
            let mut worker = Worker {
                store,
                run_scope,
                values,
                local_count,
                out_offsets,
                out_dst,
                envelope,
                active: vec![true; local_count],
            };
            for i in 0..local_count {
                let v = (w + i * n_workers) as u32;
                let deg = worker.out_offsets[i + 1] - worker.out_offsets[i];
                let init = kernel.initial_value(v, deg);
                worker.store.array_set_f64(worker.values, i, init);
            }
            workers.push(worker);
        }
    }

    let mut timer = PhaseTimer::new();
    // Per-worker inboxes: messages (dst, value) delivered at the barrier.
    let mut inboxes: Vec<Vec<(u32, f64)>> = (0..n_workers).map(|_| Vec::new()).collect();
    let mut supersteps = 0usize;
    let mut edges_processed = 0u64;

    for superstep in 0..kernel.max_supersteps() {
        let globals = kernel.globals();
        let batch = config.batch_messages.max(1);
        let kernel_ref: &dyn VertexKernel = kernel;

        // One superstep on every worker (parallel, shared-nothing).
        let results = scoped_each(
            workers.iter_mut().zip(inboxes.iter_mut()),
            |w, (worker, inbox)| {
                superstep_on_worker(
                    w, n_workers, worker, inbox, kernel_ref, &globals, superstep, batch,
                )
            },
        );

        let mut any_message = false;
        let mut any_active = false;
        let mut acc = kernel.accumulator();
        let mut failure: Option<FailureCause> = None;
        let mut new_inboxes: Vec<Vec<(u32, f64)>> = (0..n_workers).map(|_| Vec::new()).collect();
        for result in results {
            match result {
                Ok(Ok((outgoing, contrib, sent, load_t, update_t))) => {
                    edges_processed += sent;
                    timer.add(phases::LOAD, load_t);
                    timer.add(phases::UPDATE, update_t);
                    for (w, msgs) in outgoing.into_iter().enumerate() {
                        any_message |= !msgs.is_empty();
                        new_inboxes[w].extend(msgs);
                    }
                    for (i, c) in contrib.into_iter().enumerate() {
                        if let Some(slot) = acc.get_mut(i) {
                            *slot += c;
                        }
                    }
                }
                Ok(Err(oom)) => failure = failure.or(Some(oom.into())),
                Err(panic) => failure = failure.or(Some(FailureCause::WorkerPanic(panic))),
            }
        }
        if let Some(cause) = failure {
            return Err(fail(cause, started));
        }
        inboxes = new_inboxes;
        supersteps = superstep + 1;
        for worker in &workers {
            any_active |= worker.active.iter().any(|&a| a);
        }
        let globals_changed = kernel.update_globals(acc);
        if !any_message && !any_active && !globals_changed {
            break;
        }
        // Aggregation-driven kernels (k-means) stop when globals stabilize.
        if !any_message && !globals_changed && !kernel.accumulator().is_empty() && superstep > 0 {
            break;
        }
    }

    // Gather values and stats.
    let mut values = vec![0.0f64; n];
    let mut stats = StoreStats::default();
    for (w, worker) in workers.iter_mut().enumerate() {
        for i in 0..worker.local_count {
            values[w + i * n_workers] = worker.store.array_get_f64(worker.values, i);
        }
        // Retire the store: with the run's iteration ended nothing is live,
        // so every page goes back to the pool and a host's epoch reconciles.
        worker.store.iteration_end(worker.run_scope);
        worker.store.release_pages();
        stats.merge(&worker.store.stats());
    }
    timer.add(phases::GC, stats.gc_time);
    timer.freeze_total();
    Ok(GpsOutcome {
        values,
        supersteps,
        timer,
        stats,
        edges_processed,
    })
}

/// Per-worker superstep output: per-destination outgoing messages, global
/// contributions, messages sent, and (load, update) timings.
type StepResult = (Vec<Vec<(u32, f64)>>, Vec<f64>, u64, Duration, Duration);

/// Executes one superstep on one worker.
#[allow(clippy::too_many_arguments)]
fn superstep_on_worker(
    w: usize,
    n_workers: usize,
    worker: &mut Worker,
    inbox: &mut Vec<(u32, f64)>,
    kernel: &dyn VertexKernel,
    globals: &[f64],
    superstep: usize,
    batch: usize,
) -> Result<StepResult, OutOfMemory> {
    let store = &mut worker.store;
    let it = store.iteration_start();

    // ---- message materialization (the per-superstep churn) -------------
    // GPS batches incoming messages into primitive arrays; each batch gets
    // an envelope record. Values land in per-vertex (sum, count) slots of
    // two further primitive arrays.
    let load_start = Instant::now();
    let msg_sum = store.alloc_array(ElemTy::I64, worker.local_count.max(1))?;
    let msg_count = store.alloc_array(ElemTy::I32, worker.local_count.max(1))?;
    let msg_roots = [store.add_root(msg_sum), store.add_root(msg_count)];
    let result = (|| -> Result<(), OutOfMemory> {
        for chunk in inbox.chunks(batch) {
            // One batch record pair: ids + payloads. Both stay rooted while
            // in use: later allocations may collect, and these arrays are
            // reachable from nothing else.
            let ids = store.alloc_array(ElemTy::I32, chunk.len())?;
            let ids_root = store.add_root(ids);
            for (i, &(dst, _)) in chunk.iter().enumerate() {
                store.array_set_i32(ids, i, dst as i32);
            }
            let payloads = store.alloc_array(ElemTy::I64, chunk.len())?;
            let payloads_root = store.add_root(payloads);
            for (i, &(_, value)) in chunk.iter().enumerate() {
                store.array_set_f64(payloads, i, value);
            }
            let env = store.alloc(worker.envelope)?;
            store.set_i32(env, 0, chunk.len() as i32);
            store.set_i32(env, 1, superstep as i32);
            store.set_rec(env, 2, payloads);
            // Deliver into the per-vertex slots.
            for i in 0..chunk.len() {
                let dst = store.array_get_i32(ids, i) as usize;
                let local = dst / n_workers;
                let v = store.array_get_f64(payloads, i);
                let s = store.array_get_f64(msg_sum, local);
                store.array_set_f64(msg_sum, local, s + v);
                let c = store.array_get_i32(msg_count, local);
                store.array_set_i32(msg_count, local, c + 1);
            }
            store.remove_root(ids_root);
            store.remove_root(payloads_root);
        }
        Ok(())
    })();
    let load_elapsed = load_start.elapsed();
    if let Err(e) = result {
        for root in msg_roots {
            store.remove_root(root);
        }
        store.iteration_end(it);
        return Err(e);
    }
    inbox.clear();

    // ---- compute --------------------------------------------------------
    let update_start = Instant::now();
    let mut outgoing: Vec<Vec<(u32, f64)>> = (0..n_workers).map(|_| Vec::new()).collect();
    let mut contrib = kernel.accumulator();
    let mut sent = 0u64;
    for i in 0..worker.local_count {
        let v = (w + i * n_workers) as u32;
        let deg = worker.out_offsets[i + 1] - worker.out_offsets[i];
        let value = store.array_get_f64(worker.values, i);
        let sum = store.array_get_f64(msg_sum, i);
        let count = store.array_get_i32(msg_count, i) as u32;
        if superstep > 0 && count == 0 && !worker.active[i] {
            kernel.contribute(v, value, &mut contrib);
            continue;
        }
        let (new_value, out, active) =
            kernel.compute(v, deg, value, sum, count, globals, superstep);
        store.array_set_f64(worker.values, i, new_value);
        worker.active[i] = active;
        kernel.contribute(v, new_value, &mut contrib);
        let edges =
            &worker.out_dst[worker.out_offsets[i] as usize..worker.out_offsets[i + 1] as usize];
        match out {
            Outgoing::None => {}
            Outgoing::Uniform(m) => {
                for &dst in edges {
                    outgoing[dst as usize % n_workers].push((dst, m));
                    sent += 1;
                }
            }
            Outgoing::PerEdge(values) => {
                assert_eq!(values.len(), edges.len(), "PerEdge arity mismatch");
                for (&dst, m) in edges.iter().zip(values) {
                    outgoing[dst as usize % n_workers].push((dst, m));
                    sent += 1;
                }
            }
        }
    }
    let update_elapsed = update_start.elapsed();

    for root in msg_roots {
        store.remove_root(root);
    }
    store.iteration_end(it);
    // The superstep's message records are dead; share the freed pages with
    // the other workers before the next barrier.
    store.release_pages();
    Ok((outgoing, contrib, sent, load_elapsed, update_elapsed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{KMeans, PageRank, RandomWalk};
    use datagen::GraphSpec;

    fn config(backend: Backend) -> GpsConfig {
        GpsConfig {
            workers: 3,
            backend,
            per_worker_budget: 16 << 20,
            batch_messages: 64,
            ..GpsConfig::default()
        }
    }

    #[test]
    fn pagerank_matches_across_backends() {
        let g = Graph::generate(&GraphSpec::new(500, 3_000, 5));
        let heap = run(&g, &mut PageRank::new(4), &config(Backend::Heap)).unwrap();
        let facade = run(&g, &mut PageRank::new(4), &config(Backend::Facade)).unwrap();
        assert_eq!(heap.values, facade.values);
        assert_eq!(heap.supersteps, 4);
        assert!(heap.values.iter().all(|&r| r >= 0.15));
    }

    #[test]
    fn pagerank_respects_graph_structure() {
        // A hub receiving all edges must out-rank a leaf.
        let g = Graph {
            vertices: 5,
            edges: vec![(1, 0), (2, 0), (3, 0), (4, 0), (0, 1)],
        };
        let out = run(&g, &mut PageRank::new(5), &config(Backend::Facade)).unwrap();
        assert!(out.values[0] > out.values[2]);
    }

    #[test]
    fn kmeans_converges_and_matches_across_backends() {
        let g = Graph::generate(&GraphSpec::new(400, 800, 7));
        let heap = run(&g, &mut KMeans::new(4, 30), &config(Backend::Heap)).unwrap();
        let facade = run(&g, &mut KMeans::new(4, 30), &config(Backend::Facade)).unwrap();
        assert_eq!(heap.values, facade.values);
        assert!(heap.supersteps < 30, "k-means should converge early");
        // Every vertex assigned to a cluster in 0..4.
        assert!(heap.values.iter().all(|&c| (0.0..4.0).contains(&c)));
    }

    #[test]
    fn random_walk_conserves_and_matches() {
        let g = Graph::generate(&GraphSpec::new(300, 2_000, 9));
        let heap = run(&g, &mut RandomWalk::new(6), &config(Backend::Heap)).unwrap();
        let facade = run(&g, &mut RandomWalk::new(6), &config(Backend::Facade)).unwrap();
        assert_eq!(heap.values, facade.values);
        let total: f64 = heap.values.iter().sum();
        assert!(total > 0.0);
    }

    #[test]
    fn gc_effort_is_modest_but_present_on_heap() {
        // §4.3: GPS's primitive-array style keeps GC small — but nonzero —
        // under P, and zero under P'.
        let g = Graph::generate(&GraphSpec::new(3_000, 60_000, 11));
        let heap = run(
            &g,
            &mut PageRank::new(6),
            &GpsConfig {
                per_worker_budget: 1 << 20,
                ..config(Backend::Heap)
            },
        )
        .unwrap();
        let facade = run(
            &g,
            &mut PageRank::new(6),
            &GpsConfig {
                per_worker_budget: 1 << 20,
                ..config(Backend::Facade)
            },
        )
        .unwrap();
        assert!(heap.stats.gc_count > 0);
        assert_eq!(facade.stats.gc_count, 0);
        assert_eq!(heap.values, facade.values);
    }

    #[test]
    fn uneven_vertex_counts_partition_correctly() {
        // 7 vertices over 3 workers: locals 3/2/2.
        let g = Graph {
            vertices: 7,
            edges: vec![(6, 0), (5, 6), (0, 5)],
        };
        let out = run(&g, &mut PageRank::new(2), &config(Backend::Heap)).unwrap();
        assert_eq!(out.values.len(), 7);
    }
}

#[cfg(test)]
mod failure_tests {
    use super::*;
    use crate::kernels::PageRank;
    use datagen::GraphSpec;

    #[test]
    fn worker_oom_surfaces_as_job_failure() {
        let g = Graph::generate(&GraphSpec::new(20_000, 300_000, 3));
        let config = GpsConfig {
            workers: 2,
            backend: Backend::Facade,
            per_worker_budget: 128 << 10, // far too small for the messages
            ..GpsConfig::default()
        };
        let err = run(&g, &mut PageRank::new(5), &config).unwrap_err();
        let text = err.to_string();
        assert!(text.starts_with("OME("), "{text}");
    }

    #[test]
    fn worker_panic_surfaces_as_job_failure() {
        /// Sends one message too many on every out-edge list.
        struct BadArity;
        impl VertexKernel for BadArity {
            fn name(&self) -> &'static str {
                "BAD"
            }
            fn max_supersteps(&self) -> usize {
                2
            }
            fn initial_value(&self, _: u32, _: u32) -> f64 {
                0.0
            }
            fn compute(
                &self,
                _: u32,
                out_degree: u32,
                value: f64,
                _: f64,
                _: u32,
                _: &[f64],
                _: usize,
            ) -> (f64, Outgoing, bool) {
                let per_edge = vec![1.0; out_degree as usize + 1];
                (value, Outgoing::PerEdge(per_edge), true)
            }
        }
        let g = Graph::generate(&GraphSpec::new(50, 200, 3));
        let err = run(&g, &mut BadArity, &GpsConfig::default()).unwrap_err();
        assert!(
            matches!(&err.cause, FailureCause::WorkerPanic(m) if m.contains("PerEdge arity")),
            "{err}"
        );
        assert!(err.to_string().starts_with("FAILED("), "{err}");
    }
}
