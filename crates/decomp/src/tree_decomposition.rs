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
/// The struct lists `H` in DFS preorder (the first visits of its Euler
/// tour) and keeps a sparse table of `H`-depths over that order, so
/// `LCA_H`, its depth and `C(z)` membership are `O(1)` for any depth
/// (up to `2^17` vertices; beyond, one table read per `2^16` vertices).
/// Children and the pivot sets `χ(z) = Γ[C(z)]` are CSR arrays.
#[derive(Clone, Debug)]
pub struct TreeDecomposition {
    root: VertexId,
    /// Preorder position of each vertex.
    pre: Vec<u32>,
    /// The `H`-parent of the vertex at each position ([`NO_PARENT`] for
    /// the root, at position 0).
    parent_at: Vec<u32>,
    /// The 1-based depth of the vertex at each position: level 0 of the
    /// depth table.
    depth_at: Vec<u32>,
    /// Levels `k = 1..=min(⌊log₂ n⌋, 16)` of the depth table, one after
    /// another: level `k` holds, for each position `i ≤ n − 2^k`, the
    /// offset from `i` of the shallowest vertex among `i..i + 2^k` (the
    /// first on ties). An offset below `2^16` fits in a `u16`, which
    /// keeps the table at most 32 bytes per vertex at any `n`.
    table: Vec<u16>,
    /// Children as CSR: the children of `z`, in vertex order, are
    /// `children[child_offsets[z]..child_offsets[z + 1]]`.
    child_offsets: Vec<u32>,
    children: Vec<VertexId>,
    /// The pivot sets as CSR: `χ(z)` is
    /// `pivots[pivot_offsets[z]..pivot_offsets[z + 1]]`, sorted.
    pivot_offsets: Vec<u32>,
    pivots: Vec<VertexId>,
}

/// The parent entry of the root.
const NO_PARENT: u32 = u32::MAX;

/// `⌊log₂ len⌋` for `len ≥ 1`.
#[inline]
fn floor_log2(len: usize) -> usize {
    (usize::BITS - 1 - len.leading_zeros()) as usize
}

/// The depth table's top level: its ranges are `2^16` positions long.
const TOP_LEVEL: usize = 16;

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
    /// the root) and computes its preorder, depth table and pivot sets
    /// against the underlying tree-network `T`.
    ///
    /// # Panics
    ///
    /// Panics if the parent pointers do not describe a rooted tree over
    /// exactly the vertices of `tree`.
    pub fn from_parents(tree: &Tree, parent: Vec<Option<VertexId>>) -> Self {
        let n = tree.len();
        assert_eq!(parent.len(), n, "one parent entry per vertex");
        let mut child_offsets = vec![0u32; n + 1];
        let mut root = None;
        for (v, entry) in parent.iter().enumerate() {
            match entry {
                None => {
                    assert!(root.is_none(), "exactly one root expected");
                    root = Some(VertexId(v as u32));
                }
                Some(p) => child_offsets[p.index() + 1] += 1,
            }
        }
        let root = root.expect("a root is required");
        for z in 0..n {
            child_offsets[z + 1] += child_offsets[z];
        }
        let mut children = vec![VertexId(0); n - 1];
        let mut fill = child_offsets.clone();
        for (v, entry) in parent.iter().enumerate() {
            if let Some(p) = entry {
                children[fill[p.index()] as usize] = VertexId(v as u32);
                fill[p.index()] += 1;
            }
        }
        drop(fill);

        // Preorder by iterative DFS over H, children in stored order.
        let mut pre = vec![0u32; n];
        let mut parent_at = vec![NO_PARENT; n];
        let mut depth_at = vec![0u32; n];
        let mut stack = Vec::with_capacity(n);
        stack.push((root, 1u32));
        let mut visited = 0usize;
        while let Some((u, depth)) = stack.pop() {
            pre[u.index()] = visited as u32;
            parent_at[visited] = parent[u.index()].map_or(NO_PARENT, |p| p.0);
            depth_at[visited] = depth;
            visited += 1;
            let kids =
                &children[child_offsets[u.index()] as usize..child_offsets[u.index() + 1] as usize];
            stack.extend(kids.iter().rev().map(|&c| (c, depth + 1)));
        }
        assert_eq!(
            visited, n,
            "parent pointers must reach every vertex (no cycles)"
        );
        drop(parent);

        let mut decomposition = TreeDecomposition {
            root,
            pre,
            parent_at,
            depth_at,
            table: Vec::new(),
            child_offsets,
            children,
            pivot_offsets: Vec::new(),
            pivots: Vec::new(),
        };
        decomposition.build_table();
        decomposition.compute_pivots(tree);
        decomposition
    }

    /// Where level `k ≥ 1` of the depth table starts in `table`: level
    /// `j` holds `n + 1 − 2^j` entries.
    #[inline]
    fn level_start(&self, k: usize) -> usize {
        (k - 1) * (self.len() + 1) + 2 - (1 << k)
    }

    /// Fills the depth table's levels, each from the one below it.
    fn build_table(&mut self) {
        let n = self.len();
        let levels = floor_log2(n).min(TOP_LEVEL);
        let mut table = Vec::with_capacity(if levels == 0 {
            0
        } else {
            self.level_start(levels + 1)
        });
        for k in 1..=levels {
            let half = 1 << (k - 1);
            let below = if k == 1 { 0 } else { self.level_start(k - 1) };
            for i in 0..=n - (1 << k) {
                let (a, b) = if k == 1 {
                    (i, i + 1)
                } else {
                    let b = i + half;
                    (i + table[below + i] as usize, b + table[below + b] as usize)
                };
                table.push((self.shallower(a, b) - i) as u16);
            }
        }
        self.table = table;
    }

    /// The shallower of two positions, the first on a tie.
    #[inline]
    fn shallower(&self, a: usize, b: usize) -> usize {
        if self.depth_at[b] < self.depth_at[a] {
            b
        } else {
            a
        }
    }

    /// The position of the shallowest vertex among `i..i + 2^k`, for
    /// `1 ≤ k ≤ TOP_LEVEL`.
    #[inline]
    fn entry(&self, k: usize, i: usize) -> usize {
        i + self.table[self.level_start(k) + i] as usize
    }

    /// The position of a shallowest vertex among positions `l..=r`: two
    /// overlapping table ranges, or, past `2^17` positions, one table
    /// range per `2^16` positions.
    #[inline]
    fn shallowest(&self, l: usize, r: usize) -> usize {
        let k = floor_log2(r - l + 1);
        if k == 0 {
            return l;
        }
        if k <= TOP_LEVEL {
            return self.shallower(self.entry(k, l), self.entry(k, r + 1 - (1 << k)));
        }
        let step = 1 << TOP_LEVEL;
        let mut best = self.entry(TOP_LEVEL, l);
        let mut i = l + step;
        while i + step <= r + 1 {
            best = self.shallower(best, self.entry(TOP_LEVEL, i));
            i += step;
        }
        self.shallower(best, self.entry(TOP_LEVEL, r + 1 - step))
    }

    /// For `x ≠ y`, the position of a shallowest vertex strictly after
    /// the earlier of the two in preorder, up to the later one. That
    /// range holds a child of `LCA_H(x, y)` on the way to the later
    /// one and nothing shallower, so every shallowest vertex in it is a
    /// child of the LCA.
    #[inline]
    fn below_lca(&self, x: VertexId, y: VertexId) -> usize {
        let (a, b) = (self.pre[x.index()] as usize, self.pre[y.index()] as usize);
        if a < b {
            self.shallowest(a + 1, b)
        } else {
            self.shallowest(b + 1, a)
        }
    }

    /// Computes `χ(z) = Γ[C(z)]` for every node from the edges of `T`.
    /// An edge `(a, b)` leaves `C(z)` exactly for the nodes `z` on the
    /// `H`-path from `a` (or `b`) up to, not including, `LCA_H(a, b)`,
    /// and each such `z` gains the other end-point as a pivot. So the
    /// cost is `O(Σ_z |χ(z)|)`: one pass counts each node's pivots, a
    /// second places them. (In a valid decomposition `LCA_H(a, b)` is
    /// `a` or `b`.)
    fn compute_pivots(&mut self, tree: &Tree) {
        let n = tree.len();
        let mut offsets = vec![0u32; n + 1];
        self.for_each_leaving(tree, |z, _| offsets[z.index() + 1] += 1);
        for z in 0..n {
            offsets[z + 1] += offsets[z];
        }
        let mut pivots = vec![VertexId(0); offsets[n] as usize];
        // Place each pivot at its node's cursor; the cursor of `z` ends
        // where `z + 1` starts, so shifting the cursors restores the
        // offsets.
        self.for_each_leaving(tree, |z, u| {
            pivots[offsets[z.index()] as usize] = u;
            offsets[z.index()] += 1;
        });
        offsets.copy_within(0..n, 1);
        offsets[0] = 0;
        // Sort each set and drop repeats (only an invalid decomposition,
        // with a disconnected C(z), meets an outside vertex twice).
        let mut kept = 0;
        for z in 0..n {
            let (start, end) = (offsets[z] as usize, offsets[z + 1] as usize);
            offsets[z] = kept as u32;
            pivots[start..end].sort_unstable();
            for i in start..end {
                if i == start || pivots[i] != pivots[i - 1] {
                    pivots[kept] = pivots[i];
                    kept += 1;
                }
            }
        }
        offsets[n] = kept as u32;
        pivots.truncate(kept);
        self.pivot_offsets = offsets;
        self.pivots = pivots;
    }

    /// Calls `f(z, outside)` once for every `T`-edge leaving `C(z)`
    /// through `outside`.
    fn for_each_leaving(&self, tree: &Tree, mut f: impl FnMut(VertexId, VertexId)) {
        for (_, (a, b)) in tree.edges() {
            let top = self.lca(a, b);
            for (inside, outside) in [(a, b), (b, a)] {
                let mut z = inside;
                while z != top {
                    f(z, outside);
                    z = self.parent(z).expect("nodes below an LCA have a parent");
                }
            }
        }
    }

    /// The root `g` of `H`.
    #[inline]
    pub fn root(&self) -> VertexId {
        self.root
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.pre.len()
    }

    /// Always false (a decomposition covers at least one vertex).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Parent of `z` in `H`, or `None` for the root.
    #[inline]
    pub fn parent(&self, z: VertexId) -> Option<VertexId> {
        let p = self.parent_at[self.pre[z.index()] as usize];
        (p != NO_PARENT).then_some(VertexId(p))
    }

    /// Children of `z` in `H`, in vertex order.
    #[inline]
    pub fn children(&self, z: VertexId) -> &[VertexId] {
        &self.children
            [self.child_offsets[z.index()] as usize..self.child_offsets[z.index() + 1] as usize]
    }

    /// 1-based depth of `z` in `H` (the paper's convention; root = 1).
    #[inline]
    pub fn node_depth(&self, z: VertexId) -> u32 {
        self.depth_at[self.pre[z.index()] as usize]
    }

    /// Depth of the decomposition: `max_z node_depth(z)`.
    pub fn depth(&self) -> u32 {
        self.depth_at.iter().copied().max().unwrap_or(0)
    }

    /// Whether `x ∈ C(z)` (i.e. `x == z` or `x` is an `H`-descendant of
    /// `z`); `O(1)`: a descendant follows `z` in preorder, and nothing
    /// from `z` up to it is as shallow as `z`.
    #[inline]
    pub fn in_component(&self, z: VertexId, x: VertexId) -> bool {
        let (a, b) = (self.pre[z.index()] as usize, self.pre[x.index()] as usize);
        a == b || (a < b && self.depth_at[self.shallowest(a + 1, b)] > self.depth_at[a])
    }

    /// The members of `C(z)` (`z` first, then descendants in DFS order).
    pub fn component(&self, z: VertexId) -> Vec<VertexId> {
        let mut out = Vec::new();
        let mut stack = vec![z];
        while let Some(u) = stack.pop() {
            out.push(u);
            stack.extend(self.children(u).iter().copied());
        }
        out
    }

    /// The pivot set `χ(z) = Γ[C(z)]`, sorted.
    #[inline]
    pub fn pivot(&self, z: VertexId) -> &[VertexId] {
        &self.pivots
            [self.pivot_offsets[z.index()] as usize..self.pivot_offsets[z.index() + 1] as usize]
    }

    /// The pivot size `θ = max_z |χ(z)|`.
    pub fn pivot_size(&self) -> usize {
        self.pivot_offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// `LCA_H(x, y)` in `O(1)`: the parent of a shallowest vertex between
    /// the two in preorder ([`TreeDecomposition::lca_depth`] is its
    /// depth).
    #[inline]
    pub fn lca(&self, x: VertexId, y: VertexId) -> VertexId {
        if x == y {
            return x;
        }
        VertexId(self.parent_at[self.below_lca(x, y)])
    }

    /// `node_depth(lca(x, y))` in `O(1)`, read off the depth table alone:
    /// the capture depth of an instance routed between `x` and `y`.
    #[inline]
    pub fn lca_depth(&self, x: VertexId, y: VertexId) -> u32 {
        if x == y {
            return self.node_depth(x);
        }
        self.depth_at[self.below_lca(x, y)] - 1
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
        if self.parent_at.iter().filter(|&&p| p == NO_PARENT).count() != 1 {
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
