//! Conflict graphs over demand instances — the input to MIS computations.
//!
//! Two demand instances are *conflicting* when they belong to the same
//! demand or they overlap (same network, shared edge); a feasible
//! unit-height solution is exactly an independent set in this graph
//! (Section 2 of the paper).
//!
//! [`ConflictGraph`](crate::conflict::ConflictGraph) stores the
//! adjacency in CSR layout (one flat neighbor array plus per-vertex
//! offsets), built with a degree-count pass so nothing is reallocated.
//! [`ActiveSubgraph`](crate::conflict::ActiveSubgraph) is a reusable
//! *view* onto a conflict graph: given an activity bitmap it produces
//! the induced subgraph on the active vertices — byte-identical to a
//! from-scratch [`ConflictGraph::build`](crate::conflict::ConflictGraph::build)
//! over the same members — while
//! reusing its internal buffers, so repeated filtering (the per-step MIS
//! input of the two-phase framework) allocates nothing in steady state.

use crate::{InstanceId, Problem};

/// A conflict graph over a subset of demand instances, with dense local
/// vertex indices for MIS algorithms. Adjacency is CSR: the neighbors of
/// vertex `i` are `adjacency()[offsets()[i]..offsets()[i+1]]`, sorted
/// ascending.
///
/// # Example
///
/// ```
/// use treenet_graph::{Tree, VertexId};
/// use treenet_model::{Demand, ProblemBuilder};
/// use treenet_model::conflict::ConflictGraph;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = ProblemBuilder::new();
/// let t = b.add_network(Tree::line(5))?;
/// b.add_demand(Demand::pair(VertexId(0), VertexId(3), 1.0), &[t])?;
/// b.add_demand(Demand::pair(VertexId(2), VertexId(4), 1.0), &[t])?;
/// let p = b.build()?;
/// let ids: Vec<_> = p.instances().map(|d| d.id).collect();
/// let g = ConflictGraph::build(&p, &ids);
/// assert_eq!(g.len(), 2);
/// assert_eq!(g.degree(0), 1); // the two instances overlap on edge 2
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct ConflictGraph {
    ids: Vec<InstanceId>,
    /// CSR offsets: `offsets[i]..offsets[i+1]` indexes `adj`.
    offsets: Vec<u32>,
    /// Flat neighbor array; each per-vertex slice is sorted ascending.
    adj: Vec<u32>,
    edge_count: usize,
}

impl ConflictGraph {
    /// Builds the conflict graph over `members` (order preserved; local
    /// vertex `i` is `members[i]`).
    ///
    /// Pairwise tests are grouped by network and by demand, so the cost is
    /// `O(k log k + Σ_T k_T² + Σ_a k_a²)` for `k` members, with no table
    /// sized by the problem: sorting the members by network and by demand
    /// lays each group out as one run. The pair list feeds a degree-count
    /// pass that sizes the CSR arrays exactly — no per-vertex `Vec`
    /// growth.
    pub fn build(problem: &Problem, members: &[InstanceId]) -> Self {
        let k = members.len();
        // (group key, local index) pairs; sorted, equal keys form a run.
        let keyed = |key: fn(&crate::DemandInstance) -> u32| {
            let mut keyed: Vec<(u32, u32)> = members
                .iter()
                .enumerate()
                .map(|(i, &d)| (key(problem.instance(d)), i as u32))
                .collect();
            keyed.sort_unstable();
            keyed
        };
        let by_network = keyed(|inst| inst.network.0);
        let by_demand = keyed(|inst| inst.demand.0);
        // Discover each conflicting pair exactly once: overlapping pairs of
        // distinct demands come from the per-network runs (an instance
        // lives on exactly one network), same-demand pairs from the
        // per-demand runs (skipped in the network pass).
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for group in by_network.chunk_by(|x, y| x.0 == y.0) {
            for (x, &(_, i)) in group.iter().enumerate() {
                let di = problem.instance(members[i as usize]);
                for &(_, j) in &group[x + 1..] {
                    let dj = problem.instance(members[j as usize]);
                    if di.demand == dj.demand {
                        continue;
                    }
                    if di.overlaps(dj) {
                        pairs.push((i, j));
                    }
                }
            }
        }
        for group in by_demand.chunk_by(|x, y| x.0 == y.0) {
            for (x, &(_, i)) in group.iter().enumerate() {
                for &(_, j) in &group[x + 1..] {
                    pairs.push((i, j));
                }
            }
        }
        // Degree-count pass → exact CSR sizing.
        let mut offsets = vec![0u32; k + 1];
        for &(i, j) in &pairs {
            offsets[i as usize + 1] += 1;
            offsets[j as usize + 1] += 1;
        }
        for v in 0..k {
            offsets[v + 1] += offsets[v];
        }
        let mut adj = vec![0u32; pairs.len() * 2];
        let mut cursor: Vec<u32> = offsets[..k].to_vec();
        for &(i, j) in &pairs {
            adj[cursor[i as usize] as usize] = j;
            cursor[i as usize] += 1;
            adj[cursor[j as usize] as usize] = i;
            cursor[j as usize] += 1;
        }
        for v in 0..k {
            adj[offsets[v] as usize..offsets[v + 1] as usize].sort_unstable();
        }
        ConflictGraph {
            ids: members.to_vec(),
            offsets,
            adj,
            edge_count: pairs.len(),
        }
    }

    /// Number of vertices (instances).
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Number of conflict edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// The instance id of local vertex `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn instance(&self, i: usize) -> InstanceId {
        self.ids[i]
    }

    /// All instance ids in local-vertex order.
    pub fn instances(&self) -> &[InstanceId] {
        &self.ids
    }

    /// The CSR offset array (`len() + 1` entries).
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The flat CSR neighbor array.
    pub fn adjacency(&self) -> &[u32] {
        &self.adj
    }

    /// Neighbors of local vertex `i`, sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn neighbors(&self, i: usize) -> &[u32] {
        &self.adj[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Degree of local vertex `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn degree(&self, i: usize) -> usize {
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Checks that `set` (local indices) is an independent set.
    pub fn is_independent(&self, set: &[u32]) -> bool {
        let mut marked = vec![false; self.len()];
        for &i in set {
            marked[i as usize] = true;
        }
        set.iter().all(|&i| {
            self.neighbors(i as usize)
                .iter()
                .all(|&j| !marked[j as usize])
        })
    }

    /// Checks that `set` (local indices) is a *maximal* independent set:
    /// independent, and every vertex outside has a neighbor inside.
    pub fn is_maximal_independent(&self, set: &[u32]) -> bool {
        if !self.is_independent(set) {
            return false;
        }
        let mut marked = vec![false; self.len()];
        for &i in set {
            marked[i as usize] = true;
        }
        (0..self.len()).all(|v| marked[v] || self.neighbors(v).iter().any(|&j| marked[j as usize]))
    }
}

/// Sentinel marking an inactive vertex in [`ActiveSubgraph`]'s dense map.
const INACTIVE: u32 = u32::MAX;

/// A reusable *active-subgraph view* over a [`ConflictGraph`].
///
/// [`ActiveSubgraph::rebuild`] filters the graph down to the vertices
/// marked active, producing the induced subgraph in CSR layout with
/// step-local dense indices `0..active_len()`, assigned in ascending
/// base-vertex order. Because base adjacency lists are sorted and the
/// dense relabeling is order-preserving, the produced adjacency is
/// **byte-identical** to `ConflictGraph::build` over the same member
/// subsequence — the invariant the incremental phase-1 engine relies on
/// (and that `crates/core/tests/incremental_oracle.rs` checks).
///
/// All buffers are retained across calls: after the first rebuild at the
/// high-water mark, further rebuilds allocate nothing. Deactivating a
/// vertex between steps is `O(degree)` work at the next rebuild (its
/// neighbors each skip one entry) rather than a full reconstruction.
#[derive(Clone, Debug, Default)]
pub struct ActiveSubgraph {
    /// Base-vertex → step-local index, or `INACTIVE`.
    dense: Vec<u32>,
    /// Step-local index → base vertex, ascending.
    verts: Vec<u32>,
    /// CSR offsets of the induced subgraph (`active_len() + 1` entries).
    offsets: Vec<u32>,
    /// Flat CSR neighbor array of the induced subgraph.
    adj: Vec<u32>,
    /// Per-step-local-vertex keys, copied from the base key table.
    keys: Vec<u64>,
}

impl ActiveSubgraph {
    /// Creates an empty view (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds the view as the subgraph of `graph` induced on the
    /// vertices with `active[v] == true`, relabeled to dense step-local
    /// indices. `base_keys[v]` supplies the per-vertex MIS key of base
    /// vertex `v`; the view exposes the active ones via [`Self::keys`].
    ///
    /// # Panics
    ///
    /// Panics if `active.len()` or `base_keys.len()` differ from
    /// `graph.len()`.
    pub fn rebuild(&mut self, graph: &ConflictGraph, base_keys: &[u64], active: &[bool]) {
        let n = graph.len();
        assert_eq!(active.len(), n, "one activity flag per vertex");
        assert_eq!(base_keys.len(), n, "one key per vertex");
        self.dense.clear();
        self.dense.resize(n, INACTIVE);
        self.verts.clear();
        self.keys.clear();
        for (v, &alive) in active.iter().enumerate() {
            if alive {
                self.dense[v] = self.verts.len() as u32;
                self.verts.push(v as u32);
                self.keys.push(base_keys[v]);
            }
        }
        self.offsets.clear();
        self.adj.clear();
        self.offsets.push(0);
        for &v in &self.verts {
            for &w in graph.neighbors(v as usize) {
                let dw = self.dense[w as usize];
                if dw != INACTIVE {
                    self.adj.push(dw);
                }
            }
            self.offsets.push(self.adj.len() as u32);
        }
    }

    /// Number of active vertices in the current view.
    pub fn active_len(&self) -> usize {
        self.verts.len()
    }

    /// Whether the current view has no active vertices.
    pub fn is_empty(&self) -> bool {
        self.verts.is_empty()
    }

    /// The base (epoch-local) vertex behind step-local vertex `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn base_vertex(&self, i: usize) -> usize {
        self.verts[i] as usize
    }

    /// CSR offsets of the induced subgraph (`active_len() + 1` entries).
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Flat CSR neighbor array of the induced subgraph.
    pub fn adjacency(&self) -> &[u32] {
        &self.adj
    }

    /// Per-step-local-vertex MIS keys.
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// Neighbors of step-local vertex `i`, sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn neighbors(&self, i: usize) -> &[u32] {
        &self.adj[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Demand, ProblemBuilder};
    use treenet_graph::{Tree, VertexId};

    fn sample() -> (Problem, Vec<InstanceId>) {
        let mut b = ProblemBuilder::new();
        let t0 = b.add_network(Tree::line(8)).unwrap();
        let t1 = b.add_network(Tree::line(8)).unwrap();
        // a0 on both networks, interval [0,4).
        b.add_demand(Demand::pair(VertexId(0), VertexId(4), 1.0), &[t0, t1])
            .unwrap();
        // a1 on t0 only, [3,6): overlaps a0's t0 instance.
        b.add_demand(Demand::pair(VertexId(3), VertexId(6), 1.0), &[t0])
            .unwrap();
        // a2 on t1 only, [5,7): overlaps nothing.
        b.add_demand(Demand::pair(VertexId(5), VertexId(7), 1.0), &[t1])
            .unwrap();
        let p = b.build().unwrap();
        let ids: Vec<InstanceId> = p.instances().map(|d| d.id).collect();
        (p, ids)
    }

    #[test]
    fn builds_expected_edges() {
        let (p, ids) = sample();
        let g = ConflictGraph::build(&p, &ids);
        assert_eq!(g.len(), 4);
        assert!(!g.is_empty());
        // Edges: (a0@t0, a0@t1) same demand; (a0@t0, a1@t0) overlap.
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(1), 1);
        assert_eq!(g.degree(2), 1);
        assert_eq!(g.degree(3), 0);
        assert_eq!(g.instance(3), ids[3]);
        assert_eq!(g.instances(), ids.as_slice());
        assert_eq!(g.neighbors(1), &[0]);
        assert_eq!(g.offsets().len(), g.len() + 1);
        assert_eq!(g.adjacency().len(), 2 * g.edge_count());
    }

    #[test]
    fn neighbors_are_sorted_and_unique() {
        let (p, ids) = sample();
        let g = ConflictGraph::build(&p, &ids);
        for v in 0..g.len() {
            let nb = g.neighbors(v);
            assert!(nb.windows(2).all(|w| w[0] < w[1]), "vertex {v}: {nb:?}");
        }
    }

    #[test]
    fn independence_checks() {
        let (p, ids) = sample();
        let g = ConflictGraph::build(&p, &ids);
        assert!(g.is_independent(&[1, 3]));
        assert!(!g.is_independent(&[0, 1]));
        // {a0@t1, a1@t0, a2@t1}: wait, a0@t1 and a2@t1 don't overlap —
        // {1, 2, 3} is independent and maximal (0 conflicts with 1 and 2).
        assert!(g.is_maximal_independent(&[1, 2, 3]));
        // {1, 3} is independent but not maximal (2 has no neighbor inside).
        assert!(!g.is_maximal_independent(&[1, 3]));
        assert!(!g.is_maximal_independent(&[0, 1]));
    }

    #[test]
    fn subset_graphs_use_local_indices() {
        let (p, ids) = sample();
        let g = ConflictGraph::build(&p, &[ids[0], ids[2]]);
        assert_eq!(g.len(), 2);
        assert_eq!(g.edge_count(), 1); // overlap on t0
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.instance(1), ids[2]);
    }

    #[test]
    fn empty_graph() {
        let (p, _) = sample();
        let g = ConflictGraph::build(&p, &[]);
        assert!(g.is_empty());
        assert_eq!(g.edge_count(), 0);
        assert!(g.is_independent(&[]));
        assert!(g.is_maximal_independent(&[]));
    }

    #[test]
    fn active_view_matches_fresh_build() {
        let (p, ids) = sample();
        let g = ConflictGraph::build(&p, &ids);
        let keys: Vec<u64> = (0..ids.len() as u64).map(|k| k * 10).collect();
        let mut view = ActiveSubgraph::new();
        // Every subset of the four vertices: the view must equal a
        // from-scratch build over the kept subsequence, byte for byte.
        for mask in 0u32..16 {
            let active: Vec<bool> = (0..4).map(|v| mask & (1 << v) != 0).collect();
            view.rebuild(&g, &keys, &active);
            let kept: Vec<InstanceId> = (0..4).filter(|&v| active[v]).map(|v| ids[v]).collect();
            let fresh = ConflictGraph::build(&p, &kept);
            assert_eq!(view.active_len(), fresh.len(), "mask {mask}");
            assert_eq!(view.offsets(), fresh.offsets(), "mask {mask}");
            assert_eq!(view.adjacency(), fresh.adjacency(), "mask {mask}");
            for i in 0..fresh.len() {
                assert_eq!(ids[view.base_vertex(i)], fresh.instance(i), "mask {mask}");
                assert_eq!(view.neighbors(i), fresh.neighbors(i), "mask {mask}");
                assert_eq!(view.keys()[i], keys[view.base_vertex(i)], "mask {mask}");
            }
        }
        assert!(view.is_empty() == (view.active_len() == 0));
    }

    #[test]
    fn active_view_reuses_buffers() {
        let (p, ids) = sample();
        let g = ConflictGraph::build(&p, &ids);
        let keys = vec![0u64; 4];
        let mut view = ActiveSubgraph::new();
        view.rebuild(&g, &keys, &[true; 4]);
        let cap = (
            view.dense.capacity(),
            view.verts.capacity(),
            view.offsets.capacity(),
            view.adj.capacity(),
            view.keys.capacity(),
        );
        // Shrinking rebuilds stay within the high-water capacities.
        view.rebuild(&g, &keys, &[true, false, true, false]);
        view.rebuild(&g, &keys, &[false; 4]);
        assert_eq!(
            cap,
            (
                view.dense.capacity(),
                view.verts.capacity(),
                view.offsets.capacity(),
                view.adj.capacity(),
                view.keys.capacity(),
            )
        );
    }
}
