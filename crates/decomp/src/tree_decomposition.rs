//! The [`TreeDecomposition`] structure shared by all three constructions.

use std::fmt;
use treenet_graph::component::{is_component, Membership};
use treenet_graph::{RootedTree, Tree, VertexId};

/// A tree decomposition `H` of a tree-network `T` (Section 4.1): a rooted
/// tree over the same vertex set satisfying
///
/// 1. **LCA closure** — every `T`-path through `x` and `y` also passes
///    through `LCA_H(x, y)`;
/// 2. **Component property** — for every `z`, the set `C(z)` of `z` and its
///    `H`-descendants induces a connected subtree of `T`.
///
/// The struct stores, for every node `z`, its parent, 1-based depth (the
/// paper's convention: the root has depth 1), Euler intervals for `O(1)`
/// `C(z)` membership tests, and the pivot set `χ(z) = Γ[C(z)]`.
#[derive(Clone, Debug)]
pub struct TreeDecomposition {
    root: VertexId,
    parent: Vec<Option<VertexId>>,
    depth: Vec<u32>,
    children: Vec<Vec<VertexId>>,
    tin: Vec<u32>,
    tout: Vec<u32>,
    /// The pivot sets as CSR: `χ(z)` is
    /// `pivots[pivot_offsets[z]..pivot_offsets[z + 1]]`, sorted.
    pivot_offsets: Vec<usize>,
    pivots: Vec<VertexId>,
}

/// Why a claimed tree decomposition is invalid.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecompositionError {
    /// The parent pointers do not form one rooted tree over all vertices.
    NotATree,
    /// `C(z)` is not connected in `T` for some `z`.
    ComponentDisconnected {
        /// The offending node.
        node: VertexId,
    },
    /// The LCA-closure property fails for a vertex pair.
    LcaViolation {
        /// First path end-point.
        x: VertexId,
        /// Second path end-point.
        y: VertexId,
        /// `LCA_H(x, y)`, which the `T`-path misses.
        lca: VertexId,
    },
    /// A stored pivot set differs from `Γ[C(z)]` recomputed from scratch.
    PivotMismatch {
        /// The offending node.
        node: VertexId,
    },
}

impl fmt::Display for DecompositionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecompositionError::NotATree => write!(f, "parent pointers do not form a rooted tree"),
            DecompositionError::ComponentDisconnected { node } => {
                write!(f, "C({node}) is not connected in T")
            }
            DecompositionError::LcaViolation { x, y, lca } => {
                write!(f, "path {x} ~ {y} misses LCA_H = {lca}")
            }
            DecompositionError::PivotMismatch { node } => {
                write!(f, "stored pivot set of {node} is not Γ[C({node})]")
            }
        }
    }
}

impl std::error::Error for DecompositionError {}

impl TreeDecomposition {
    /// Assembles a decomposition from parent pointers (exactly one `None`,
    /// the root) and computes depths, Euler intervals and pivot sets
    /// against the underlying tree-network `T`.
    ///
    /// # Panics
    ///
    /// Panics if the parent pointers do not describe a rooted tree over
    /// exactly the vertices of `tree`.
    pub fn from_parents(tree: &Tree, parent: Vec<Option<VertexId>>) -> Self {
        let n = tree.len();
        assert_eq!(parent.len(), n, "one parent entry per vertex");
        let mut children: Vec<Vec<VertexId>> = vec![Vec::new(); n];
        let mut root = None;
        for (v, entry) in parent.iter().enumerate() {
            match entry {
                None => {
                    assert!(root.is_none(), "exactly one root expected");
                    root = Some(VertexId(v as u32));
                }
                Some(p) => children[p.index()].push(VertexId(v as u32)),
            }
        }
        let root = root.expect("a root is required");

        // Depth + Euler intervals by iterative DFS over H.
        let mut depth = vec![0u32; n];
        let mut tin = vec![0u32; n];
        let mut tout = vec![0u32; n];
        let mut timer = 0u32;
        let mut visited = 0usize;
        let mut stack: Vec<(VertexId, usize)> = vec![(root, 0)];
        depth[root.index()] = 1;
        tin[root.index()] = timer;
        timer += 1;
        visited += 1;
        while let Some(&mut (u, ref mut cursor)) = stack.last_mut() {
            if *cursor < children[u.index()].len() {
                let c = children[u.index()][*cursor];
                *cursor += 1;
                depth[c.index()] = depth[u.index()] + 1;
                tin[c.index()] = timer;
                timer += 1;
                visited += 1;
                stack.push((c, 0));
            } else {
                tout[u.index()] = timer;
                timer += 1;
                stack.pop();
            }
        }
        assert_eq!(
            visited, n,
            "parent pointers must reach every vertex (no cycles)"
        );

        let mut decomposition = TreeDecomposition {
            root,
            parent,
            depth,
            children,
            tin,
            tout,
            pivot_offsets: Vec::new(),
            pivots: Vec::new(),
        };
        decomposition.compute_pivots(tree);
        decomposition
    }

    /// Computes `χ(z) = Γ[C(z)]` for every node from the edges of `T`.
    /// An edge `(a, b)` leaves `C(z)` exactly for the nodes `z` on the
    /// `H`-path from `a` (or `b`) up to, not including, `LCA_H(a, b)`,
    /// and each such `z` gains the other end-point as a pivot. So the
    /// cost is `O(Σ_z |χ(z)|)` plus one `H`-LCA per edge. (In a valid
    /// decomposition `LCA_H(a, b)` is `a` or `b`.)
    fn compute_pivots(&mut self, tree: &Tree) {
        let mut pairs: Vec<(VertexId, VertexId)> = Vec::new();
        for (_, (a, b)) in tree.edges() {
            let top = self.lca(a, b);
            for (inside, outside) in [(a, b), (b, a)] {
                let mut z = inside;
                while z != top {
                    pairs.push((z, outside));
                    z = self.parent[z.index()].expect("nodes below an LCA have a parent");
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        self.pivot_offsets = vec![0; tree.len() + 1];
        for &(z, _) in &pairs {
            self.pivot_offsets[z.index() + 1] += 1;
        }
        for z in 0..tree.len() {
            self.pivot_offsets[z + 1] += self.pivot_offsets[z];
        }
        self.pivots = pairs.into_iter().map(|(_, u)| u).collect();
    }

    /// The root `g` of `H`.
    #[inline]
    pub fn root(&self) -> VertexId {
        self.root
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Always false (a decomposition covers at least one vertex).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Parent of `z` in `H`, or `None` for the root.
    #[inline]
    pub fn parent(&self, z: VertexId) -> Option<VertexId> {
        self.parent[z.index()]
    }

    /// Children of `z` in `H`.
    #[inline]
    pub fn children(&self, z: VertexId) -> &[VertexId] {
        &self.children[z.index()]
    }

    /// 1-based depth of `z` in `H` (the paper's convention; root = 1).
    #[inline]
    pub fn node_depth(&self, z: VertexId) -> u32 {
        self.depth[z.index()]
    }

    /// Depth of the decomposition: `max_z node_depth(z)`.
    pub fn depth(&self) -> u32 {
        self.depth.iter().copied().max().unwrap_or(0)
    }

    /// Whether `x ∈ C(z)` (i.e. `x == z` or `x` is an `H`-descendant of
    /// `z`); `O(1)` via Euler intervals.
    #[inline]
    pub fn in_component(&self, z: VertexId, x: VertexId) -> bool {
        self.tin[z.index()] <= self.tin[x.index()] && self.tout[x.index()] <= self.tout[z.index()]
    }

    /// The members of `C(z)` (`z` first, then descendants in DFS order).
    pub fn component(&self, z: VertexId) -> Vec<VertexId> {
        let mut out = Vec::new();
        let mut stack = vec![z];
        while let Some(u) = stack.pop() {
            out.push(u);
            stack.extend(self.children[u.index()].iter().copied());
        }
        out
    }

    /// The pivot set `χ(z) = Γ[C(z)]`, sorted.
    #[inline]
    pub fn pivot(&self, z: VertexId) -> &[VertexId] {
        &self.pivots[self.pivot_offsets[z.index()]..self.pivot_offsets[z.index() + 1]]
    }

    /// The pivot size `θ = max_z |χ(z)|`.
    pub fn pivot_size(&self) -> usize {
        self.pivot_offsets
            .windows(2)
            .map(|w| w[1] - w[0])
            .max()
            .unwrap_or(0)
    }

    /// `LCA_H(x, y)`: the first `H`-ancestor of `x` (itself included)
    /// whose component holds `y`, found by climbing with the `O(1)`
    /// Euler-interval test (decomposition depths are small — `O(log n)`
    /// for balancing/ideal — so no lifting table is needed).
    pub fn lca(&self, x: VertexId, y: VertexId) -> VertexId {
        let mut a = x;
        while !self.in_component(a, y) {
            a = self.parent[a.index()].expect("the root's component holds every node");
        }
        a
    }

    /// Verifies both defining properties plus stored pivot sets against
    /// `tree`. `O(n²)` in the worst case — intended for tests and
    /// small-instance verification, not hot paths.
    ///
    /// # Errors
    ///
    /// Returns the first violated property.
    pub fn verify(&self, tree: &Tree) -> Result<(), DecompositionError> {
        let n = tree.len();
        if self.parent.iter().filter(|p| p.is_none()).count() != 1 {
            return Err(DecompositionError::NotATree);
        }
        // Property (ii): C(z) connected, and stored pivots correct.
        let mut membership = Membership::new(n);
        for z in tree.vertices() {
            let comp = self.component(z);
            membership.mark(&comp);
            if !is_component(tree, &comp, &membership) {
                membership.clear(&comp);
                return Err(DecompositionError::ComponentDisconnected { node: z });
            }
            let expected = treenet_graph::component::neighborhood(tree, &comp, &membership);
            membership.clear(&comp);
            if expected != self.pivot(z) {
                return Err(DecompositionError::PivotMismatch { node: z });
            }
        }
        // Property (i): LCA closure for all vertex pairs. A demand through
        // x and y follows the unique T-path, so it suffices that the T-path
        // visits LCA_H(x, y).
        let rooted = RootedTree::new(tree, self.root);
        for x in tree.vertices() {
            for y in tree.vertices() {
                if x >= y {
                    continue;
                }
                let l = self.lca(x, y);
                if !rooted.path(x, y).contains_vertex(l) {
                    return Err(DecompositionError::LcaViolation { x, y, lca: l });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-built decomposition of the path 0-1-2-3-4: root 2 with
    /// children 1 and 3, child 0 under 1, child 4 under 3.
    fn path_decomposition() -> (Tree, TreeDecomposition) {
        let tree = Tree::line(5);
        let parent = vec![
            Some(VertexId(1)),
            Some(VertexId(2)),
            None,
            Some(VertexId(2)),
            Some(VertexId(3)),
        ];
        let h = TreeDecomposition::from_parents(&tree, parent);
        (tree, h)
    }

    #[test]
    fn structure_accessors() {
        let (_, h) = path_decomposition();
        assert_eq!(h.root(), VertexId(2));
        assert_eq!(h.len(), 5);
        assert!(!h.is_empty());
        assert_eq!(h.node_depth(VertexId(2)), 1);
        assert_eq!(h.node_depth(VertexId(0)), 3);
        assert_eq!(h.depth(), 3);
        assert_eq!(h.parent(VertexId(4)), Some(VertexId(3)));
        assert_eq!(h.children(VertexId(2)), &[VertexId(1), VertexId(3)]);
    }

    #[test]
    fn component_membership() {
        let (_, h) = path_decomposition();
        assert!(h.in_component(VertexId(1), VertexId(0)));
        assert!(h.in_component(VertexId(1), VertexId(1)));
        assert!(!h.in_component(VertexId(1), VertexId(3)));
        assert!(h.in_component(VertexId(2), VertexId(4)));
        let mut c = h.component(VertexId(3));
        c.sort_unstable();
        assert_eq!(c, vec![VertexId(3), VertexId(4)]);
    }

    #[test]
    fn pivots_are_outside_neighbors() {
        let (_, h) = path_decomposition();
        // C(1) = {0, 1}: neighbor outside is 2.
        assert_eq!(h.pivot(VertexId(1)), &[VertexId(2)]);
        // C(2) = everything: no outside neighbors.
        assert!(h.pivot(VertexId(2)).is_empty());
        // C(4) = {4}: neighbor 3.
        assert_eq!(h.pivot(VertexId(4)), &[VertexId(3)]);
        assert_eq!(h.pivot_size(), 1);
    }

    #[test]
    fn lca_in_h() {
        let (_, h) = path_decomposition();
        assert_eq!(h.lca(VertexId(0), VertexId(4)), VertexId(2));
        assert_eq!(h.lca(VertexId(0), VertexId(1)), VertexId(1));
        assert_eq!(h.lca(VertexId(3), VertexId(3)), VertexId(3));
    }

    #[test]
    fn verify_accepts_valid() {
        let (tree, h) = path_decomposition();
        assert!(h.verify(&tree).is_ok());
    }

    #[test]
    fn verify_rejects_lca_violation() {
        // Root the path at an end but parent 4 under 0: C(z) stays fine for
        // leaves, but LCA fails. Build: root 0; 1<-0, 2<-1, 3<-2, 4<-0.
        let tree = Tree::line(5);
        let parent = vec![
            None,
            Some(VertexId(0)),
            Some(VertexId(1)),
            Some(VertexId(2)),
            Some(VertexId(0)),
        ];
        let h = TreeDecomposition::from_parents(&tree, parent);
        // C(4) = {4} is connected; but path 3~4 misses LCA_H(3,4) = 0? The
        // T-path 3-4 does not visit 0, so LCA closure fails.
        assert!(matches!(
            h.verify(&tree),
            Err(DecompositionError::LcaViolation { .. })
                | Err(DecompositionError::ComponentDisconnected { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "exactly one root")]
    fn from_parents_rejects_two_roots() {
        let tree = Tree::line(3);
        let _ = TreeDecomposition::from_parents(&tree, vec![None, None, Some(VertexId(1))]);
    }

    #[test]
    fn error_display() {
        let e = DecompositionError::ComponentDisconnected { node: VertexId(3) };
        assert!(e.to_string().contains("v3"));
        assert!(DecompositionError::NotATree
            .to_string()
            .contains("rooted tree"));
    }
}
