//! Vertex programs: the update callbacks GraphChi applications implement,
//! plus the two applications the paper evaluates (PR and CC).

use data_store::{Field, Rec, Store};

/// The fields of the `ChiVertex` and `ChiPointer` record classes, resolved
/// once per store by `engine.rs`, which registers the classes.
///
/// Both backends share the class shapes; they differ in what the edge
/// fields point at. An edge carries only its value: nothing a program
/// reads needs more, and a neighbor id is the CSR's (`out_dst`, or for an
/// in-edge the vertex whose out run holds its `in_eid` slot), which both
/// backends share. Under the heap backend (`P`),
/// `in_edges`/`out_edges` are reference arrays of one-field `ChiPointer`
/// records — the Java object graph the paper profiles. Under the facade
/// backend (`P'`), the compiler's record-inlining optimization (§3.6:
/// FACADE "inlines all data records whose size can be statically
/// determined") flattens each such array into the primitive array of the
/// pointers' values, held in the same field.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChiFields {
    pub(crate) id: Field,
    pub(crate) value: Field,
    pub(crate) num_in: Field,
    pub(crate) num_out: Field,
    /// P: ref array of ChiPointer. P': f64 array of in-edge values.
    pub(crate) in_edges: Field,
    /// P: ref array of ChiPointer. P': f64 array of out-edge values.
    pub(crate) out_edges: Field,
    /// `ChiPointer`'s one field (P only): the edge value.
    pub(crate) pointer_value: Field,
}

/// A loaded vertex: the view a [`VertexProgram`] updates. All reads and
/// writes go through the record store — this *is* the data path. Each side
/// of the vertex is one `ChiVertex` field: under `P` an array of
/// `ChiPointer` records, under `P'` the inlined array of edge values.
#[derive(Debug)]
pub struct VertexView<'a> {
    pub(crate) store: &'a mut Store,
    pub(crate) vertex: Rec,
    pub(crate) inlined: bool,
    pub(crate) fields: &'a ChiFields,
}

impl VertexView<'_> {
    /// The vertex id.
    pub fn id(&self) -> u32 {
        self.store.get_i32(self.vertex, self.fields.id) as u32
    }

    /// The current vertex value.
    pub fn value(&self) -> f64 {
        self.store.get_f64(self.vertex, self.fields.value)
    }

    /// Sets the vertex value.
    pub fn set_value(&mut self, v: f64) {
        self.store.set_f64(self.vertex, self.fields.value, v);
    }

    /// Number of in-edges.
    pub fn num_in(&self) -> usize {
        self.store.get_i32(self.vertex, self.fields.num_in) as usize
    }

    /// Number of out-edges.
    pub fn num_out(&self) -> usize {
        self.store.get_i32(self.vertex, self.fields.num_out) as usize
    }

    /// The value of edge `i` of the side held in field `edges`.
    fn edge_value(&self, edges: Field, i: usize) -> f64 {
        let arr = self.store.get_rec(self.vertex, edges);
        if self.inlined {
            return self.store.array_get_f64(arr, i);
        }
        let e = self.store.array_get_rec(arr, i);
        self.store.get_f64(e, self.fields.pointer_value)
    }

    /// Writes the value of edge `i` of the side held in field `edges`.
    fn set_edge_value(&mut self, edges: Field, i: usize, v: f64) {
        let arr = self.store.get_rec(self.vertex, edges);
        if self.inlined {
            return self.store.array_set_f64(arr, i, v);
        }
        let e = self.store.array_get_rec(arr, i);
        self.store.set_f64(e, self.fields.pointer_value, v);
    }

    /// The value carried by in-edge `i`.
    pub fn in_edge_value(&self, i: usize) -> f64 {
        self.edge_value(self.fields.in_edges, i)
    }

    /// Writes the value of in-edge `i` (used by undirected algorithms such
    /// as connected components).
    pub fn set_in_edge_value(&mut self, i: usize, v: f64) {
        self.set_edge_value(self.fields.in_edges, i, v);
    }

    /// The value carried by out-edge `i`.
    pub fn out_edge_value(&self, i: usize) -> f64 {
        self.edge_value(self.fields.out_edges, i)
    }

    /// Writes the value of out-edge `i`.
    pub fn set_out_edge_value(&mut self, i: usize, v: f64) {
        self.set_edge_value(self.fields.out_edges, i, v);
    }

    // ----- sequential access ------------------------------------------------
    //
    // The per-edge accessors above are the random-access API: each call
    // re-reads the vertex's array field and resolves the array again. A
    // program that visits every edge of a side in order uses the methods
    // below, which read the field once and then walk the side: under `P'`
    // one bulk store call over the inlined value array, under `P` the
    // `ChiPointer` records one by one.

    /// Folds `f` over the values of the side held in field `edges`, in edge
    /// order.
    fn fold_edge_values<A>(&self, edges: Field, init: A, mut f: impl FnMut(A, f64) -> A) -> A {
        let arr = self.store.get_rec(self.vertex, edges);
        if self.inlined {
            return self.store.array_f64s(arr).fold(init, f);
        }
        let mut acc = init;
        for i in 0..self.store.array_len(arr) {
            let e = self.store.array_get_rec(arr, i);
            acc = f(acc, self.store.get_f64(e, self.fields.pointer_value));
        }
        acc
    }

    /// Replaces the value of each edge of the side held in field `edges` by
    /// `f` of it, in edge order. Under `P` an edge whose value `f` leaves
    /// unchanged is not written, as a program testing before `setValue`
    /// would not write it.
    fn map_edge_values(&mut self, edges: Field, mut f: impl FnMut(f64) -> f64) {
        let arr = self.store.get_rec(self.vertex, edges);
        if self.inlined {
            return self.store.array_map_f64s(arr, f);
        }
        for i in 0..self.store.array_len(arr) {
            let e = self.store.array_get_rec(arr, i);
            let old = self.store.get_f64(e, self.fields.pointer_value);
            let new = f(old);
            if new.to_bits() != old.to_bits() {
                self.store.set_f64(e, self.fields.pointer_value, new);
            }
        }
    }

    /// Copies the values of the side held in field `edges` into `run`, in
    /// edge order: the engine's in-side writeback, over the gathered run.
    pub(crate) fn read_edge_values(&self, edges: Field, run: &mut [f64]) {
        self.fold_edge_values(edges, 0, |i, v| {
            run[i] = v;
            i + 1
        });
    }

    /// Appends the values of the side held in field `edges` to `run`, in
    /// edge order: the engine's out-side writeback. Under `P'` one bulk
    /// extend from the inlined value array.
    pub(crate) fn append_edge_values(&self, edges: Field, run: &mut Vec<f64>) {
        let arr = self.store.get_rec(self.vertex, edges);
        if self.inlined {
            return run.extend(self.store.array_f64s(arr));
        }
        run.extend((0..self.store.array_len(arr)).map(|i| {
            let e = self.store.array_get_rec(arr, i);
            self.store.get_f64(e, self.fields.pointer_value)
        }));
    }

    /// Folds `f` over the in-edge values, in edge order.
    pub fn fold_in_edge_values<A>(&self, init: A, f: impl FnMut(A, f64) -> A) -> A {
        self.fold_edge_values(self.fields.in_edges, init, f)
    }

    /// Folds `f` over the out-edge values, in edge order.
    pub fn fold_out_edge_values<A>(&self, init: A, f: impl FnMut(A, f64) -> A) -> A {
        self.fold_edge_values(self.fields.out_edges, init, f)
    }

    /// Replaces every in-edge value by `f` of it, in edge order.
    pub fn map_in_edge_values(&mut self, f: impl FnMut(f64) -> f64) {
        self.map_edge_values(self.fields.in_edges, f);
    }

    /// Replaces every out-edge value by `f` of it, in edge order.
    pub fn map_out_edge_values(&mut self, f: impl FnMut(f64) -> f64) {
        self.map_edge_values(self.fields.out_edges, f);
    }

    /// Sets every out-edge value to `v`.
    pub fn fill_out_edge_values(&mut self, v: f64) {
        let arr = self.store.get_rec(self.vertex, self.fields.out_edges);
        if self.inlined {
            return self.store.array_map_f64s(arr, |_| v);
        }
        for i in 0..self.store.array_len(arr) {
            let e = self.store.array_get_rec(arr, i);
            self.store.set_f64(e, self.fields.pointer_value, v);
        }
    }
}

/// A GraphChi vertex program. `Sync` because the engine's workers share
/// one program across subinterval threads; programs hold read-only
/// parameters, not per-vertex state.
pub trait VertexProgram: Sync {
    /// Application name for reports (`PR`, `CC`, ...).
    fn name(&self) -> &'static str;

    /// Maximum number of full passes over the graph.
    fn iterations(&self) -> usize;

    /// Every constructor parameter that shapes the result beyond
    /// [`name`](Self::name) and [`iterations`](Self::iterations), as bytes.
    /// The engine hashes them into the checkpoint fingerprint, so a
    /// checkpoint is never resumed by the same program under different
    /// parameters; a parameterised program must override this.
    fn parameters(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Initial vertex value.
    fn initial_value(&self, vertex: u32, out_degree: u32) -> f64;

    /// Initial edge value, given the edge's source and its out-degree.
    fn initial_edge_value(&self, src: u32, src_out_degree: u32) -> f64;

    /// Whether updates write in-edges too (undirected propagation); the
    /// engine then persists in-edge values on writeback.
    fn writes_in_edges(&self) -> bool {
        false
    }

    /// Folds a written edge value into persistent edge storage. In real
    /// GraphChi both endpoints of an in-memory edge share one `ChiPointer`;
    /// with per-endpoint record copies, this hook defines how concurrent
    /// writes to the same edge combine. The default is last-writer-wins
    /// (fine when only one endpoint writes, as in PR); monotone algorithms
    /// like CC fold with `min` so a stale copy can never overwrite a fresher
    /// lower label.
    fn fold_edge_value(&self, stored: f64, written: f64) -> f64 {
        let _ = stored;
        written
    }

    /// Folds a run of written edge values into the stored run of the same
    /// edges, element by element and in order. The engine calls it once per
    /// contiguous run of out slots, so [`fold_edge_value`] is called
    /// statically here rather than through the program's vtable per edge.
    ///
    /// [`fold_edge_value`]: Self::fold_edge_value
    fn fold_edge_values(&self, stored: &mut [f64], written: &[f64]) {
        for (s, &w) in stored.iter_mut().zip(written) {
            *s = self.fold_edge_value(*s, w);
        }
    }

    /// Folds each written value into the stored value of the edge it
    /// names — `written[i]` into `stored[slots[i]]` — in order. The engine
    /// calls it once per vertex for its in-edges, whose out slots are
    /// scattered, so, as in [`fold_edge_values`], [`fold_edge_value`] is
    /// called statically here rather than through the vtable per edge.
    ///
    /// [`fold_edge_values`]: Self::fold_edge_values
    /// [`fold_edge_value`]: Self::fold_edge_value
    fn fold_scattered_edge_values(&self, stored: &mut [f64], slots: &[u32], written: &[f64]) {
        for (&e, &w) in slots.iter().zip(written) {
            let s = &mut stored[e as usize];
            *s = self.fold_edge_value(*s, w);
        }
    }

    /// Updates one vertex; returns `true` if the vertex changed (drives
    /// early convergence).
    fn update(&self, v: &mut VertexView<'_>) -> bool;
}

/// PageRank with the standard 0.15/0.85 damping, as run in Table 2.
#[derive(Debug, Clone)]
pub struct PageRank {
    iterations: usize,
}

impl PageRank {
    /// PageRank for `iterations` passes.
    pub fn new(iterations: usize) -> Self {
        Self { iterations }
    }
}

impl VertexProgram for PageRank {
    fn name(&self) -> &'static str {
        "PR"
    }

    fn iterations(&self) -> usize {
        self.iterations
    }

    fn initial_value(&self, _vertex: u32, _out_degree: u32) -> f64 {
        1.0
    }

    fn initial_edge_value(&self, _src: u32, src_out_degree: u32) -> f64 {
        1.0 / f64::from(src_out_degree.max(1))
    }

    fn update(&self, v: &mut VertexView<'_>) -> bool {
        let sum = v.fold_in_edge_values(0.0, |sum, x| sum + x);
        let rank = 0.15 + 0.85 * sum;
        v.set_value(rank);
        let share = rank / v.num_out().max(1) as f64;
        v.fill_out_edge_values(share);
        true
    }
}

/// Connected components by undirected min-label propagation, as run in
/// Table 2 (CC).
#[derive(Debug, Clone)]
pub struct ConnectedComponents {
    max_iterations: usize,
}

impl ConnectedComponents {
    /// CC with an upper bound on passes (propagation usually converges much
    /// earlier; the engine stops on a pass with no changes).
    pub fn new(max_iterations: usize) -> Self {
        Self { max_iterations }
    }
}

impl VertexProgram for ConnectedComponents {
    fn name(&self) -> &'static str {
        "CC"
    }

    fn iterations(&self) -> usize {
        self.max_iterations
    }

    fn initial_value(&self, vertex: u32, _out_degree: u32) -> f64 {
        f64::from(vertex)
    }

    fn initial_edge_value(&self, src: u32, _src_out_degree: u32) -> f64 {
        f64::from(src)
    }

    fn writes_in_edges(&self) -> bool {
        true
    }

    fn fold_edge_value(&self, stored: f64, written: f64) -> f64 {
        stored.min(written)
    }

    fn update(&self, v: &mut VertexView<'_>) -> bool {
        // Labels are vertex ids (finite, never -0.0), so a plain comparison
        // is `f64::min` without its NaN handling.
        let min = |a: f64, b: f64| if b < a { b } else { a };
        let label = v.fold_in_edge_values(v.value(), min);
        let label = v.fold_out_edge_values(label, min);
        let changed = label < v.value();
        v.set_value(label);
        // Labels may only *decrease*: an unconditional write would clobber
        // a fresher, lower label that a neighbour updated into the shared
        // edge earlier in the same pass, livelocking propagation.
        let lower = |x: f64| if label < x { label } else { x };
        v.map_in_edge_values(lower);
        v.map_out_edge_values(lower);
        changed
    }
}

/// Single-source shortest paths by relaxation over unit-weight edges — the
/// third classic GraphChi application shape (monotone like CC, but seeded
/// from one vertex).
#[derive(Debug, Clone)]
pub struct ShortestPaths {
    source: u32,
    max_iterations: usize,
}

impl ShortestPaths {
    /// SSSP from `source` with an upper bound on passes.
    pub fn new(source: u32, max_iterations: usize) -> Self {
        Self {
            source,
            max_iterations,
        }
    }
}

/// The "unreachable" distance.
pub const SSSP_INFINITY: f64 = 1.0e18;

impl VertexProgram for ShortestPaths {
    fn name(&self) -> &'static str {
        "SSSP"
    }

    fn iterations(&self) -> usize {
        self.max_iterations
    }

    fn parameters(&self) -> Vec<u8> {
        self.source.to_le_bytes().to_vec()
    }

    fn initial_value(&self, vertex: u32, _out_degree: u32) -> f64 {
        if vertex == self.source {
            0.0
        } else {
            SSSP_INFINITY
        }
    }

    fn initial_edge_value(&self, src: u32, _src_out_degree: u32) -> f64 {
        if src == self.source {
            1.0
        } else {
            SSSP_INFINITY
        }
    }

    fn fold_edge_value(&self, stored: f64, written: f64) -> f64 {
        stored.min(written)
    }

    fn update(&self, v: &mut VertexView<'_>) -> bool {
        // dist = min(dist, min over in-edges of (neighbor dist + 1)).
        let dist = v.fold_in_edge_values(v.value(), f64::min);
        let changed = dist < v.value();
        v.set_value(dist);
        // Out-edges carry dist + 1 to successors.
        let relaxed = dist + 1.0;
        v.map_out_edge_values(|x| if relaxed < x { relaxed } else { x });
        changed
    }
}
