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
//! The two-phase framework builds one per epoch and hands its CSR arrays
//! to the MIS with an activity mask over the still-unsatisfied members,
//! so a step builds no graph of its own.

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
        let keyed = |key: fn(crate::DemandInstance) -> u32| {
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
    }
}
