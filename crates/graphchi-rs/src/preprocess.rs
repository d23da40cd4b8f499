//! Preprocessing: CSR construction (the stand-in for GraphChi's shard
//! creation) and interval layout.

use datagen::Graph;
use std::ops::Range;

/// In- and out-CSR indexes over a graph. An edge is named by its out-CSR
/// slot: that slot is its id and its index in the persistent edge-value
/// array, so a vertex's out-edge values are one contiguous run.
/// Built once in the control path; identical for `P` and `P'` runs.
#[derive(Debug, Clone)]
pub struct Csr {
    /// Number of vertices.
    pub vertices: u32,
    /// Number of edges.
    pub edges: u64,
    /// Out-adjacency offsets, length `vertices + 1`.
    pub out_offsets: Vec<u32>,
    /// Out-neighbors, ordered by source.
    pub out_dst: Vec<u32>,
    /// In-adjacency offsets, length `vertices + 1`.
    pub in_offsets: Vec<u32>,
    /// Edge id (out slot) of each in-adjacency slot's edge, ordered by
    /// destination. An edge's source is the vertex whose out run holds
    /// that slot.
    pub in_eid: Vec<u32>,
}

impl Csr {
    /// Builds both CSR directions from an edge list. Each vertex's out- and
    /// in-runs keep the input order of its edges, and each edge's id is the
    /// out slot it lands in.
    pub fn build(graph: &Graph) -> Self {
        let n = graph.vertices as usize;
        let m = graph.edges.len();

        let mut out_offsets = vec![0u32; n + 1];
        let mut in_offsets = vec![0u32; n + 1];
        for &(s, d) in &graph.edges {
            out_offsets[s as usize + 1] += 1;
            in_offsets[d as usize + 1] += 1;
        }
        for i in 0..n {
            out_offsets[i + 1] += out_offsets[i];
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut out_dst = vec![0u32; m];
        let mut in_eid = vec![0u32; m];
        let mut out_cursor = out_offsets.clone();
        let mut in_cursor = in_offsets.clone();
        for &(s, d) in &graph.edges {
            let o = out_cursor[s as usize];
            out_dst[o as usize] = d;
            out_cursor[s as usize] += 1;
            let i = in_cursor[d as usize] as usize;
            in_eid[i] = o;
            in_cursor[d as usize] += 1;
        }
        Self {
            vertices: graph.vertices,
            edges: m as u64,
            out_offsets,
            out_dst,
            in_offsets,
            in_eid,
        }
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, v: u32) -> u32 {
        self.out_offsets[v as usize + 1] - self.out_offsets[v as usize]
    }

    /// In-degree of `v`.
    pub fn in_degree(&self, v: u32) -> u32 {
        self.in_offsets[v as usize + 1] - self.in_offsets[v as usize]
    }

    /// The out slots of vertices `start..end`: one contiguous run of edge
    /// ids, in vertex order.
    pub fn out_slots(&self, start: u32, end: u32) -> Range<usize> {
        self.out_offsets[start as usize] as usize..self.out_offsets[end as usize] as usize
    }

    /// The in slots of vertices `start..end`, in vertex order.
    pub fn in_slots(&self, start: u32, end: u32) -> Range<usize> {
        self.in_offsets[start as usize] as usize..self.in_offsets[end as usize] as usize
    }

    /// Total degree (in + out) of `v` — the loading cost of the vertex.
    pub fn degree(&self, v: u32) -> u32 {
        self.out_degree(v) + self.in_degree(v)
    }

    /// Splits `0..vertices` into `count` equal-width intervals (GraphChi's
    /// execution intervals; the shard count of the paper's setup).
    pub fn intervals(&self, count: usize) -> Vec<(u32, u32)> {
        let count = count.clamp(1, self.vertices.max(1) as usize) as u32;
        let width = self.vertices.div_ceil(count);
        (0..count)
            .map(|i| (i * width, ((i + 1) * width).min(self.vertices)))
            .filter(|(a, b)| a < b)
            .collect()
    }

    /// Splits an interval into subintervals whose total degree stays within
    /// `edge_budget` (the adaptive loading of §4.1). Every subinterval
    /// contains at least one vertex.
    pub fn subintervals(&self, interval: (u32, u32), edge_budget: u64) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        let (mut start, end) = interval;
        while start < end {
            let mut v = start;
            let mut load = 0u64;
            while v < end {
                let d = u64::from(self.degree(v));
                if v > start && load + d > edge_budget {
                    break;
                }
                load += d;
                v += 1;
            }
            out.push((start, v));
            start = v;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::GraphSpec;

    fn small() -> Csr {
        let g = Graph {
            vertices: 4,
            // Not sorted by source, so an out slot is not an input index.
            edges: vec![(3, 0), (1, 2), (0, 1), (2, 3), (0, 2)],
        };
        Csr::build(&g)
    }

    #[test]
    fn csr_offsets_and_neighbors() {
        let c = small();
        assert_eq!(c.out_degree(0), 2);
        assert_eq!(c.in_degree(2), 2);
        assert_eq!(c.degree(2), 3);
        // Out-neighbors of 0 are {1, 2}.
        let o = c.out_offsets[0] as usize..c.out_offsets[1] as usize;
        let mut nbrs: Vec<u32> = c.out_dst[o].to_vec();
        nbrs.sort_unstable();
        assert_eq!(nbrs, vec![1, 2]);
    }

    /// The source of the edge in out slot `eid`: the vertex whose out run
    /// holds the slot.
    fn source_of(c: &Csr, eid: usize) -> u32 {
        (c.out_offsets.partition_point(|&o| o as usize <= eid) - 1) as u32
    }

    #[test]
    fn edge_ids_are_consistent_across_directions() {
        let c = small();
        // Edge (1, 2) is input edge 1. Its id is its out slot, 2: vertex
        // 0's two out-edges come first. The in slot of vertex 2 that holds
        // it names the same slot.
        let out_slot = c.out_slots(1, 2).find(|&i| c.out_dst[i] == 2).unwrap();
        assert_eq!(out_slot, 2);
        let in_slot = c
            .in_slots(2, 3)
            .find(|&i| source_of(&c, c.in_eid[i] as usize) == 1)
            .unwrap();
        assert_eq!(c.in_eid[in_slot], out_slot as u32);
    }

    #[test]
    fn every_in_slot_names_its_edges_out_slot() {
        let g = Graph::generate(&GraphSpec::new(700, 6_000, 29));
        let c = Csr::build(&g);
        let mut seen = vec![false; c.edges as usize];
        let mut edges = Vec::with_capacity(g.edges.len());
        for d in 0..c.vertices {
            for i in c.in_slots(d, d + 1) {
                let eid = c.in_eid[i] as usize;
                assert_eq!(c.out_dst[eid], d, "in slot {i} of {d}");
                assert!(
                    !std::mem::replace(&mut seen[eid], true),
                    "out slot {eid} twice"
                );
                edges.push((source_of(&c, eid), d));
            }
        }
        assert!(seen.iter().all(|&s| s), "every out slot has an in slot");
        // The in slots, read back through their out slots, are the input
        // edge list.
        let mut want = g.edges.clone();
        want.sort_unstable();
        edges.sort_unstable();
        assert_eq!(edges, want);
    }

    #[test]
    fn intervals_cover_the_vertex_set() {
        let g = Graph::generate(&GraphSpec::new(1000, 5000, 3));
        let c = Csr::build(&g);
        let ivs = c.intervals(7);
        assert_eq!(ivs[0].0, 0);
        assert_eq!(ivs.last().unwrap().1, 1000);
        for w in ivs.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
    }

    #[test]
    fn subintervals_respect_the_edge_budget() {
        let g = Graph::generate(&GraphSpec::new(1000, 20_000, 4));
        let c = Csr::build(&g);
        for iv in c.intervals(4) {
            for (a, b) in c.subintervals(iv, 500) {
                assert!(a < b);
                let load: u64 = (a..b).map(|v| u64::from(c.degree(v))).sum();
                // Within budget unless it is a single heavy vertex.
                assert!(load <= 500 || b - a == 1, "load {load} for {a}..{b}");
            }
        }
    }

    #[test]
    fn subintervals_concatenate_to_interval() {
        let g = Graph::generate(&GraphSpec::new(500, 3000, 5));
        let c = Csr::build(&g);
        let iv = (100, 300);
        let subs = c.subintervals(iv, 100);
        assert_eq!(subs[0].0, 100);
        assert_eq!(subs.last().unwrap().1, 300);
        for w in subs.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
    }
}
