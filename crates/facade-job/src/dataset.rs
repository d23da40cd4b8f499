//! The resident dataset jobs run against.

use datagen::{CorpusSpec, Graph, GraphSpec, corpus};
use graphchi_rs::Csr;
use std::sync::{Arc, OnceLock, Weak};

/// The inputs a job host keeps resident: one corpus (WC/ES) and one graph
/// (PR/CC), shared by reference across every concurrent job — loading or
/// generating them is paid once, not per submission. So is the graph's
/// preprocessing: the first graph job builds its CSR ([`Dataset::csr`]),
/// and every later job, on this dataset or any clone of it, runs on that
/// one. Cloning a `Dataset` clones three `Arc`s.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// The text corpus cluster workloads consume.
    pub corpus: Arc<Vec<String>>,
    /// The graph the vertex workloads consume.
    pub graph: Arc<Graph>,
    /// The CSR of the graph it was built from, filled by the first
    /// [`Dataset::csr`] call and shared by every clone. The graph is held
    /// weakly: enough to tell it apart from a graph swapped into the
    /// `graph` field since (its allocation outlives it), without keeping
    /// its edges alive.
    csr: Arc<OnceLock<(Weak<Graph>, Arc<Csr>)>>,
}

impl Dataset {
    /// A dataset from already-loaded inputs.
    pub fn new(corpus: Vec<String>, graph: Graph) -> Dataset {
        Dataset {
            corpus: Arc::new(corpus),
            graph: Arc::new(graph),
            csr: Arc::default(),
        }
    }

    /// The deterministic synthetic dataset: `corpus_bytes` of Zipfian text
    /// and a `vertices`/`edges` power-law graph, both seeded — two hosts
    /// booted with the same arguments serve bit-identical jobs.
    pub fn synthetic(vertices: u32, edges: u64, corpus_bytes: usize, seed: u64) -> Dataset {
        Dataset::new(
            corpus(&CorpusSpec::new(corpus_bytes, seed)),
            Graph::generate(&GraphSpec::new(vertices, edges, seed)),
        )
    }

    /// The CSR of [`graph`](Dataset::graph): built on the first call (so a
    /// host that runs no graph job never pays for it), then the same `Arc`
    /// for every call on this dataset and its clones; concurrent first
    /// calls build it once. If the `graph` field no longer holds the graph
    /// the shared CSR was built from, this builds a fresh CSR of the
    /// current graph and does not cache it.
    pub fn csr(&self) -> Arc<Csr> {
        let (built_from, csr) = self.csr.get_or_init(|| {
            (
                Arc::downgrade(&self.graph),
                Arc::new(Csr::build(&self.graph)),
            )
        });
        if std::ptr::eq(built_from.as_ptr(), Arc::as_ptr(&self.graph)) {
            Arc::clone(csr)
        } else {
            Arc::new(Csr::build(&self.graph))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_datasets_are_deterministic_and_cheap_to_clone() {
        let a = Dataset::synthetic(200, 800, 10_000, 42);
        let b = Dataset::synthetic(200, 800, 10_000, 42);
        assert_eq!(*a.corpus, *b.corpus);
        assert_eq!(a.graph.edges.len(), b.graph.edges.len());
        let c = a.clone();
        assert!(Arc::ptr_eq(&a.corpus, &c.corpus), "clone shares the corpus");
    }

    #[test]
    fn the_csr_is_built_once_and_shared_by_clones() {
        let mut data = Dataset::synthetic(200, 800, 1_000, 42);
        let first = data.csr();
        assert!(Arc::ptr_eq(&first, &data.csr()), "a second call");
        let clone = data.clone();
        assert!(Arc::ptr_eq(&first, &clone.csr()), "a clone's call");
        assert_eq!(first.out_dst, Csr::build(&data.graph).out_dst);
        // A swapped-in graph is not the one the shared CSR was built from:
        // it gets its own, uncached, while the clone keeps the shared one.
        data.graph = Arc::new(Graph::generate(&GraphSpec::new(200, 800, 7)));
        let swapped = data.csr();
        assert!(!Arc::ptr_eq(&first, &swapped));
        assert!(!Arc::ptr_eq(&swapped, &data.csr()), "not cached");
        assert_eq!(swapped.out_dst, Csr::build(&data.graph).out_dst);
        assert!(Arc::ptr_eq(&first, &clone.csr()));
    }

    #[test]
    fn a_job_after_a_graph_swap_runs_on_the_new_graph() {
        use crate::{ExecContext, GraphChiRunner, JobOutput, JobRunner, JobSpec, Workload};
        use graphchi_rs::{Engine, EngineConfig, PageRank};
        use metrics::report::Backend;

        let mut data = Dataset::synthetic(300, 1_200, 1_000, 42);
        let spec = JobSpec {
            workload: Workload::PageRank { iterations: 3 },
            backend: Backend::Facade,
            budget_bytes: 8 << 20,
            threads: 1,
            ..JobSpec::default()
        };
        let ctx = ExecContext::default();
        let run = |data: &Dataset| {
            GraphChiRunner
                .execute(&spec, data, &ctx)
                .unwrap()
                .output
                .fingerprint()
        };
        let before = run(&data);
        let other = Graph::generate(&GraphSpec::new(300, 1_200, 7));
        let direct = Engine::new(
            &other,
            EngineConfig {
                backend: Backend::Facade,
                budget_bytes: 8 << 20,
                intervals: spec.intervals,
                threads: 1,
                ..EngineConfig::default()
            },
        )
        .execute(&PageRank::new(3))
        .unwrap();
        data.graph = Arc::new(other);
        let after = run(&data);
        assert_ne!(before, after, "the two graphs rank differently");
        assert_eq!(
            after,
            JobOutput::Vertices {
                values: direct.values
            }
            .fingerprint()
        );
    }
}
