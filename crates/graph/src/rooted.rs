//! Rooted views of a tree: parents, depths, LCA, medians, paths.

use crate::{EdgeId, Tree, TreePath, VertexId};

/// A rooted view of a [`Tree`] with `O(n log n)` preprocessing supporting
/// `O(log n)` LCA queries, `O(1)` ancestor tests and path extraction in
/// time linear in the path length.
///
/// The struct owns only derived index arrays; pair it with the original
/// [`Tree`] when edge endpoints are needed (this keeps borrows out of
/// long-lived structures, avoiding the usual ownership friction of node
/// graphs in Rust).
///
/// Depths here are **0-based** (`depth(root) == 0`); the paper's Section 4
/// uses 1-based depths (`depth(root) == 1`). Use [`RootedTree::paper_depth`]
/// when comparing against statements from the paper.
///
/// # Example
///
/// ```
/// use treenet_graph::{Tree, RootedTree, VertexId};
///
/// # fn main() -> Result<(), treenet_graph::TreeError> {
/// let tree = Tree::from_edges(5, &[(0, 1), (0, 2), (1, 3), (1, 4)])?;
/// let rooted = RootedTree::new(&tree, VertexId(0));
/// assert_eq!(rooted.lca(VertexId(3), VertexId(4)), VertexId(1));
/// assert_eq!(rooted.median(VertexId(3), VertexId(4), VertexId(2)), VertexId(1));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct RootedTree {
    root: VertexId,
    parent: Vec<Option<VertexId>>,
    parent_edge: Vec<Option<EdgeId>>,
    depth: Vec<u32>,
    /// Euler tour entry/exit counters for O(1) ancestor tests.
    tin: Vec<u32>,
    tout: Vec<u32>,
    /// `up[k][v]` = the 2^k-th ancestor of `v` (root for overshoot).
    up: Vec<Vec<VertexId>>,
    /// Vertices in BFS order from the root (every vertex after its parent).
    order: Vec<VertexId>,
}

impl RootedTree {
    /// Roots `tree` at `root` and precomputes LCA tables.
    ///
    /// # Panics
    ///
    /// Panics if `root` is out of range for `tree`.
    pub fn new(tree: &Tree, root: VertexId) -> Self {
        let n = tree.len();
        assert!(
            root.index() < n,
            "root {root} out of range for {n} vertices"
        );
        let mut parent = vec![None; n];
        let mut parent_edge = vec![None; n];
        let mut depth = vec![0u32; n];
        let mut tin = vec![0u32; n];
        let mut tout = vec![0u32; n];
        let mut order = Vec::with_capacity(n);

        // Iterative DFS for tin/tout plus BFS-like order extraction.
        let mut timer = 0u32;
        let mut visited = vec![false; n];
        // Stack frames: (vertex, neighbor cursor).
        let mut stack: Vec<(VertexId, usize)> = vec![(root, 0)];
        visited[root.index()] = true;
        tin[root.index()] = timer;
        timer += 1;
        order.push(root);
        while let Some(&mut (u, ref mut cursor)) = stack.last_mut() {
            let neighbors = tree.neighbors(u);
            if *cursor < neighbors.len() {
                let (v, e) = neighbors[*cursor];
                *cursor += 1;
                if !visited[v.index()] {
                    visited[v.index()] = true;
                    parent[v.index()] = Some(u);
                    parent_edge[v.index()] = Some(e);
                    depth[v.index()] = depth[u.index()] + 1;
                    tin[v.index()] = timer;
                    timer += 1;
                    order.push(v);
                    stack.push((v, 0));
                }
            } else {
                tout[u.index()] = timer;
                timer += 1;
                stack.pop();
            }
        }

        // Binary lifting table.
        let levels = usize::BITS as usize - (n.max(2) - 1).leading_zeros() as usize;
        let levels = levels.max(1);
        let mut up: Vec<Vec<VertexId>> = Vec::with_capacity(levels);
        let base: Vec<VertexId> = (0..n)
            .map(|v| parent[v].unwrap_or(VertexId(v as u32)))
            .collect();
        up.push(base);
        for k in 1..levels {
            let prev = &up[k - 1];
            let next: Vec<VertexId> = (0..n).map(|v| prev[prev[v].index()]).collect();
            up.push(next);
        }

        RootedTree {
            root,
            parent,
            parent_edge,
            depth,
            tin,
            tout,
            up,
            order,
        }
    }

    /// The root vertex.
    #[inline]
    pub fn root(&self) -> VertexId {
        self.root
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.depth.len()
    }

    /// Always false; a rooted tree has at least its root.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Parent of `v`, or `None` for the root.
    #[inline]
    pub fn parent(&self, v: VertexId) -> Option<VertexId> {
        self.parent[v.index()]
    }

    /// The edge connecting `v` to its parent, or `None` for the root.
    #[inline]
    pub fn parent_edge(&self, v: VertexId) -> Option<EdgeId> {
        self.parent_edge[v.index()]
    }

    /// 0-based depth (`depth(root) == 0`).
    #[inline]
    pub fn depth(&self, v: VertexId) -> u32 {
        self.depth[v.index()]
    }

    /// 1-based depth as used by the paper (`depth(root) == 1`).
    #[inline]
    pub fn paper_depth(&self, v: VertexId) -> u32 {
        self.depth[v.index()] + 1
    }

    /// Height of the rooted tree: maximum 1-based depth over all vertices.
    pub fn height(&self) -> u32 {
        self.depth.iter().copied().max().unwrap_or(0) + 1
    }

    /// Vertices in depth-first discovery order from the root; every vertex
    /// appears after its parent, so a single forward scan can push values
    /// down and a reverse scan can aggregate values up.
    #[inline]
    pub fn order(&self) -> &[VertexId] {
        &self.order
    }

    /// True when `a` is an ancestor of `x` or `a == x`.
    #[inline]
    pub fn is_ancestor_or_self(&self, a: VertexId, x: VertexId) -> bool {
        self.tin[a.index()] <= self.tin[x.index()] && self.tout[x.index()] <= self.tout[a.index()]
    }

    /// True when `a` is a strict ancestor of `x` (the paper's convention: a
    /// vertex is not its own ancestor).
    #[inline]
    pub fn is_ancestor(&self, a: VertexId, x: VertexId) -> bool {
        a != x && self.is_ancestor_or_self(a, x)
    }

    /// The ancestor of `v` exactly `k` levels up, saturating at the root.
    pub fn ancestor_at(&self, v: VertexId, k: u32) -> VertexId {
        let mut v = v;
        let mut k = k.min(self.depth(v));
        let mut level = 0usize;
        while k > 0 {
            if k & 1 == 1 {
                v = self.up[level][v.index()];
            }
            k >>= 1;
            level += 1;
        }
        v
    }

    /// Least common ancestor of `u` and `v`.
    pub fn lca(&self, u: VertexId, v: VertexId) -> VertexId {
        if self.is_ancestor_or_self(u, v) {
            return u;
        }
        if self.is_ancestor_or_self(v, u) {
            return v;
        }
        let mut u = u;
        for k in (0..self.up.len()).rev() {
            let candidate = self.up[k][u.index()];
            if !self.is_ancestor_or_self(candidate, v) {
                u = candidate;
            }
        }
        self.up[0][u.index()]
    }

    /// Number of edges on the unique path between `u` and `v`.
    pub fn distance(&self, u: VertexId, v: VertexId) -> u32 {
        let w = self.lca(u, v);
        self.depth(u) + self.depth(v) - 2 * self.depth(w)
    }

    /// The *median* of three vertices: the unique vertex lying on all three
    /// pairwise paths.
    ///
    /// Used to find the *junction* in the ideal tree decomposition
    /// (Section 4.3, Case 2(b)) and *bending points* (Section 4.4): the
    /// bending point of the path `a ↝ b` with respect to `u` is
    /// `median(a, b, u)`.
    pub fn median(&self, a: VertexId, b: VertexId, c: VertexId) -> VertexId {
        // The median is the deepest of the three pairwise LCAs; the other
        // two coincide at the shallowest. When `c` hangs outside the
        // subtree of `ab = lca(a, b)`, both LCAs with `c` are above `ab`.
        // Otherwise `ab` is one of them, and the other is the median.
        let ab = self.lca(a, b);
        if !self.is_ancestor_or_self(ab, c) {
            return ab;
        }
        let ac = self.lca(a, c);
        if ac != ab {
            ac
        } else {
            self.lca(b, c)
        }
    }

    /// The unique path from `u` to `v` with vertex and edge sequences.
    ///
    /// Both sequences are allocated once at their exact length,
    /// `d(u) + d(v) − 2·d(lca)` edges: the ascent from `u` is written
    /// forward and the descent to `v` backward from `v`.
    pub fn path(&self, u: VertexId, v: VertexId) -> TreePath {
        let mut path = TreePath {
            vertices: Vec::new(),
            edges: Vec::new(),
        };
        self.path_in(u, v, &mut path);
        path
    }

    /// [`RootedTree::path`] written into `path`'s buffers, for a reader
    /// that walks many paths one at a time and keeps none: once the
    /// buffers hold the longest path, nothing is allocated.
    pub fn path_in(&self, u: VertexId, v: VertexId, path: &mut TreePath) {
        let w = self.lca(u, v);
        let up = (self.depth(u) - self.depth(w)) as usize;
        let len = up + (self.depth(v) - self.depth(w)) as usize;
        let TreePath { vertices, edges } = path;
        vertices.clear();
        vertices.reserve_exact(len + 1);
        vertices.resize(len + 1, w);
        edges.clear();
        edges.reserve_exact(len);
        edges.resize(len, EdgeId(0));
        // Ascend from u to w into positions 0..up.
        let mut x = u;
        for i in 0..up {
            vertices[i] = x;
            edges[i] = self.parent_edge(x).expect("non-root while ascending");
            x = self.parent(x).expect("non-root while ascending");
        }
        // Ascend from v to w into positions len..up, last first.
        let mut y = v;
        for i in (up..len).rev() {
            vertices[i + 1] = y;
            edges[i] = self.parent_edge(y).expect("non-root while ascending");
            y = self.parent(y).expect("non-root while ascending");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The example tree-network of Figure 6 of the paper, reconstructed
    /// from the narrative constraints of Sections 4.1/4.4 and Appendix A
    /// (vertices 1..14 mapped to 0..13):
    /// path(⟨4,13⟩) = 4-2-5-8-13, captured at 2 under root 1 with wings
    /// ⟨2,4⟩/⟨2,5⟩; C(2) = {2,4} with χ(2) = {1,5}; C(5) =
    /// {5,9,8,2,12,13,4} with χ(5) = {1}; bending points of ⟨4,13⟩ w.r.t.
    /// 3 and 9 are 2 and 5.
    fn figure6_tree() -> Tree {
        Tree::from_edges(
            14,
            &[
                (0, 1),   // 1-2
                (1, 3),   // 2-4
                (1, 4),   // 2-5
                (4, 7),   // 5-8
                (4, 8),   // 5-9
                (7, 12),  // 8-13
                (7, 11),  // 8-12
                (0, 5),   // 1-6
                (5, 2),   // 6-3
                (2, 6),   // 3-7
                (0, 13),  // 1-14
                (13, 9),  // 14-10
                (13, 10), // 14-11
            ],
        )
        .unwrap()
    }

    #[test]
    fn depths_and_parents_on_line() {
        let t = Tree::line(5);
        let r = RootedTree::new(&t, VertexId(0));
        assert_eq!(r.root(), VertexId(0));
        assert_eq!(r.len(), 5);
        assert!(!r.is_empty());
        assert_eq!(r.depth(VertexId(0)), 0);
        assert_eq!(r.paper_depth(VertexId(0)), 1);
        assert_eq!(r.depth(VertexId(4)), 4);
        assert_eq!(r.parent(VertexId(3)), Some(VertexId(2)));
        assert_eq!(r.parent(VertexId(0)), None);
        assert_eq!(r.parent_edge(VertexId(1)), Some(EdgeId(0)));
        assert_eq!(r.height(), 5);
    }

    #[test]
    fn lca_on_figure6() {
        // Rooted at node 1 (v0), the root-fixing view of Appendix A.
        let t = figure6_tree();
        let r = RootedTree::new(&t, VertexId(0));
        // LCA(2, 8) = 2 in T rooted at 1 (8 lies below 2).
        assert_eq!(r.lca(VertexId(1), VertexId(7)), VertexId(1));
        // LCA(10, 11) = 14.
        assert_eq!(r.lca(VertexId(9), VertexId(10)), VertexId(13));
        // LCA(4, 13) = 2: the capture node of the demand ⟨4, 13⟩.
        assert_eq!(r.lca(VertexId(3), VertexId(12)), VertexId(1));
        // LCA(7, 14) = 1.
        assert_eq!(r.lca(VertexId(6), VertexId(13)), VertexId(0));
        // Ancestor cases.
        assert_eq!(r.lca(VertexId(4), VertexId(7)), VertexId(4));
        assert_eq!(r.lca(VertexId(5), VertexId(5)), VertexId(5));
    }

    #[test]
    fn ancestor_tests() {
        let t = figure6_tree();
        let r = RootedTree::new(&t, VertexId(0));
        assert!(r.is_ancestor(VertexId(0), VertexId(10)));
        // 2 (v1) is an ancestor of 13 (v12).
        assert!(r.is_ancestor(VertexId(1), VertexId(12)));
        assert!(!r.is_ancestor(VertexId(12), VertexId(1)));
        assert!(!r.is_ancestor(VertexId(5), VertexId(13)));
        assert!(!r.is_ancestor(VertexId(4), VertexId(4)));
        assert!(r.is_ancestor_or_self(VertexId(4), VertexId(4)));
    }

    #[test]
    fn ancestor_at_saturates() {
        let t = Tree::line(6);
        let r = RootedTree::new(&t, VertexId(0));
        assert_eq!(r.ancestor_at(VertexId(5), 2), VertexId(3));
        assert_eq!(r.ancestor_at(VertexId(5), 5), VertexId(0));
        assert_eq!(r.ancestor_at(VertexId(5), 100), VertexId(0));
        assert_eq!(r.ancestor_at(VertexId(0), 3), VertexId(0));
    }

    #[test]
    fn distance_matches_path_len() {
        let t = figure6_tree();
        let r = RootedTree::new(&t, VertexId(0));
        for u in t.vertices() {
            for v in t.vertices() {
                assert_eq!(r.distance(u, v) as usize, r.path(u, v).len(), "{u} {v}");
            }
        }
    }

    #[test]
    fn path_endpoints_and_edges_are_consistent() {
        let t = figure6_tree();
        let r = RootedTree::new(&t, VertexId(0));
        for u in t.vertices() {
            for v in t.vertices() {
                let p = r.path(u, v);
                assert_eq!(p.source(), u);
                assert_eq!(p.target(), v);
                // Consecutive vertices joined by the listed edge.
                for (i, &e) in p.edges().iter().enumerate() {
                    let (a, b) = t.endpoints(e);
                    let (x, y) = (p.vertices()[i], p.vertices()[i + 1]);
                    assert!((a, b) == (x, y) || (a, b) == (y, x));
                }
            }
        }
    }

    #[test]
    fn median_lies_on_all_pairwise_paths() {
        let t = figure6_tree();
        let r = RootedTree::new(&t, VertexId(0));
        let vs: Vec<VertexId> = t.vertices().collect();
        for &a in &vs {
            for &b in &vs {
                for &c in &vs {
                    let m = r.median(a, b, c);
                    assert!(r.path(a, b).contains_vertex(m), "median {m} of {a},{b},{c}");
                    assert!(r.path(b, c).contains_vertex(m));
                    assert!(r.path(a, c).contains_vertex(m));
                }
            }
        }
    }

    #[test]
    fn median_examples() {
        let t = figure6_tree();
        let r = RootedTree::new(&t, VertexId(0));
        // Figure 6 narrative: w.r.t. node 3 (v2), the bending point of the
        // demand ⟨4,13⟩ (v3 ↝ v12) is node 2 (v1); w.r.t. node 9 (v8) it is
        // node 5 (v4).
        assert_eq!(
            r.median(VertexId(3), VertexId(12), VertexId(2)),
            VertexId(1)
        );
        assert_eq!(
            r.median(VertexId(3), VertexId(12), VertexId(8)),
            VertexId(4)
        );
    }

    #[test]
    fn single_vertex_tree_queries() {
        let t = Tree::from_edges(1, &[]).unwrap();
        let r = RootedTree::new(&t, VertexId(0));
        assert_eq!(r.lca(VertexId(0), VertexId(0)), VertexId(0));
        assert_eq!(r.distance(VertexId(0), VertexId(0)), 0);
        assert!(r.path(VertexId(0), VertexId(0)).is_empty());
        assert_eq!(r.height(), 1);
    }

    #[test]
    fn order_puts_parents_first() {
        let t = figure6_tree();
        let r = RootedTree::new(&t, VertexId(4));
        let pos: std::collections::BTreeMap<VertexId, usize> = r
            .order()
            .iter()
            .copied()
            .enumerate()
            .map(|(i, v)| (v, i))
            .collect();
        for v in t.vertices() {
            if let Some(p) = r.parent(v) {
                assert!(pos[&p] < pos[&v]);
            }
        }
        assert_eq!(r.order().len(), t.len());
    }
}
