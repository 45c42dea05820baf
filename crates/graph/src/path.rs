//! The unique path between two vertices of a tree.

use crate::{EdgeId, VertexId};

/// The unique path between two vertices `u ↝ v` of a [`crate::Tree`].
///
/// A demand instance `d = ⟨u, v⟩` scheduled on a tree-network *is* such a
/// path (`path(d)` in the paper). The path stores the vertex sequence from
/// `u` to `v` inclusive and the corresponding edge ids; a demand instance is
/// *active* on edge `e` (`d ∼ e`) iff `e` is among [`TreePath::edges`].
///
/// Produced by [`crate::RootedTree::path`].
///
/// # Example
///
/// ```
/// use treenet_graph::{Tree, RootedTree, VertexId};
///
/// # fn main() -> Result<(), treenet_graph::TreeError> {
/// let tree = Tree::line(5);
/// let rooted = RootedTree::new(&tree, VertexId(0));
/// let path = rooted.path(VertexId(1), VertexId(4));
/// assert_eq!(path.len(), 3);
/// assert_eq!(path.source(), VertexId(1));
/// assert_eq!(path.target(), VertexId(4));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TreePath {
    vertices: Vec<VertexId>,
    edges: Vec<EdgeId>,
}

impl TreePath {
    /// Creates a path from its vertex sequence and edge sequence.
    ///
    /// # Panics
    ///
    /// Panics unless `vertices.len() == edges.len() + 1` and the sequence is
    /// non-empty — a path always contains at least its source vertex.
    pub fn new(vertices: Vec<VertexId>, edges: Vec<EdgeId>) -> Self {
        assert!(
            !vertices.is_empty(),
            "a tree path contains at least one vertex"
        );
        assert_eq!(
            vertices.len(),
            edges.len() + 1,
            "a path over k edges visits k + 1 vertices"
        );
        TreePath { vertices, edges }
    }

    /// First vertex of the path (the demand end-point `u`).
    #[inline]
    pub fn source(&self) -> VertexId {
        self.vertices[0]
    }

    /// Last vertex of the path (the demand end-point `v`).
    #[inline]
    pub fn target(&self) -> VertexId {
        *self.vertices.last().expect("paths are non-empty")
    }

    /// Number of edges on the path (0 when `u == v`).
    #[inline]
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True when the path has no edges (`u == v`).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Vertex sequence from source to target, inclusive.
    #[inline]
    pub fn vertices(&self) -> &[VertexId] {
        &self.vertices
    }

    /// Edge sequence from source to target.
    #[inline]
    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }

    /// Whether the path visits vertex `x`.
    pub fn contains_vertex(&self, x: VertexId) -> bool {
        self.vertices.contains(&x)
    }

    /// Whether the path uses edge `e` (the paper's `d ∼ e`).
    pub fn contains_edge(&self, e: EdgeId) -> bool {
        self.edges.contains(&e)
    }

    /// The *wings* of vertex `y` on this path: the path edges incident to
    /// `y` (Section 4.4 of the paper).
    ///
    /// Returns one edge when `y` is an end-point of the path, two when `y`
    /// is interior, and none when `y` is not on the path.
    pub fn wings(&self, y: VertexId) -> Vec<EdgeId> {
        match self.vertices.iter().position(|&x| x == y) {
            None => Vec::new(),
            Some(i) => {
                let mut wings = Vec::with_capacity(2);
                if i > 0 {
                    wings.push(self.edges[i - 1]);
                }
                if i < self.edges.len() {
                    wings.push(self.edges[i]);
                }
                wings
            }
        }
    }

    /// Whether this path and `other` share at least one edge — the paper's
    /// *overlapping* relation for two demand instances on the same
    /// tree-network.
    pub fn overlaps(&self, other: &TreePath) -> bool {
        // Quadratic scan; path lengths are O(n) and this is only used by
        // verifiers and small-instance code. Hot paths use the model layer's
        // edge bitsets instead.
        self.edges.iter().any(|e| other.edges.contains(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vp(v: &[u32], e: &[u32]) -> TreePath {
        TreePath::new(
            v.iter().map(|&x| VertexId(x)).collect(),
            e.iter().map(|&x| EdgeId(x)).collect(),
        )
    }

    #[test]
    fn basic_accessors() {
        let p = vp(&[2, 1, 0, 3], &[1, 0, 2]);
        assert_eq!(p.source(), VertexId(2));
        assert_eq!(p.target(), VertexId(3));
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
        assert!(p.contains_vertex(VertexId(0)));
        assert!(!p.contains_vertex(VertexId(9)));
        assert!(p.contains_edge(EdgeId(0)));
        assert!(!p.contains_edge(EdgeId(7)));
    }

    #[test]
    fn trivial_path() {
        let p = vp(&[4], &[]);
        assert_eq!(p.source(), VertexId(4));
        assert_eq!(p.target(), VertexId(4));
        assert!(p.is_empty());
        assert_eq!(p.wings(VertexId(4)), vec![]);
    }

    #[test]
    #[should_panic(expected = "at least one vertex")]
    fn rejects_empty_vertex_list() {
        let _ = TreePath::new(vec![], vec![]);
    }

    #[test]
    #[should_panic(expected = "k + 1 vertices")]
    fn rejects_mismatched_lengths() {
        let _ = TreePath::new(vec![VertexId(0), VertexId(1)], vec![]);
    }

    #[test]
    fn wings_at_endpoint_and_interior() {
        let p = vp(&[2, 1, 0, 3], &[1, 0, 2]);
        // End-point: one wing.
        assert_eq!(p.wings(VertexId(2)), vec![EdgeId(1)]);
        assert_eq!(p.wings(VertexId(3)), vec![EdgeId(2)]);
        // Interior: two wings.
        assert_eq!(p.wings(VertexId(1)), vec![EdgeId(1), EdgeId(0)]);
        assert_eq!(p.wings(VertexId(0)), vec![EdgeId(0), EdgeId(2)]);
        // Absent vertex: none.
        assert_eq!(p.wings(VertexId(9)), vec![]);
    }

    /// The path `u ↝ v` by parent pointers alone: climb both ends to the
    /// root, drop the shared suffix, and join the two climbs.
    fn parent_walk(rooted: &crate::RootedTree, u: VertexId, v: VertexId) -> TreePath {
        let climb = |mut x: VertexId| {
            let mut chain = vec![x];
            while let Some(p) = rooted.parent(x) {
                chain.push(p);
                x = p;
            }
            chain
        };
        let (mut vertices, mut down) = (climb(u), climb(v));
        // Both climbs end at the root; drop what they share above the LCA.
        while vertices.len() > 1
            && down.len() > 1
            && vertices[vertices.len() - 2] == down[down.len() - 2]
        {
            vertices.pop();
            down.pop();
        }
        down.pop();
        vertices.extend(down.iter().rev());
        let edges = vertices
            .windows(2)
            .map(|w| match rooted.parent(w[0]) {
                Some(p) if p == w[1] => rooted.parent_edge(w[0]).unwrap(),
                _ => rooted.parent_edge(w[1]).unwrap(),
            })
            .collect();
        TreePath::new(vertices, edges)
    }

    #[test]
    fn rooted_paths_are_exactly_sized_parent_walks() {
        use crate::generators::{balanced_binary, caterpillar, random_tree, spider};
        use crate::{RootedTree, Tree};
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(23);
        let trees = [
            Tree::from_edges(1, &[]).unwrap(),
            Tree::line(9),
            balanced_binary(15, &mut rng),
            caterpillar(14, &mut rng),
            spider(13, &mut rng),
            random_tree(20, &mut rng),
        ];
        for tree in &trees {
            for root in [0, tree.len() as u32 / 2] {
                let rooted = RootedTree::new(tree, VertexId(root));
                for u in tree.vertices() {
                    for v in tree.vertices() {
                        let p = rooted.path(u, v);
                        assert_eq!(p, parent_walk(&rooted, u, v), "{u} ↝ {v}");
                        assert_eq!(p.vertices.capacity(), p.vertices.len(), "{u} ↝ {v}");
                        assert_eq!(p.edges.capacity(), p.edges.len(), "{u} ↝ {v}");
                    }
                }
            }
        }
    }

    #[test]
    fn overlap_is_edge_sharing() {
        let p = vp(&[0, 1, 2], &[0, 1]);
        let q = vp(&[1, 2, 3], &[1, 2]);
        let r = vp(&[3, 4], &[3]);
        assert!(p.overlaps(&q));
        assert!(q.overlaps(&p));
        assert!(!p.overlaps(&r));
        // Sharing only a vertex is NOT overlapping (edge-disjoint paths may
        // share vertices in the unit-height tree problem).
        let s = vp(&[2, 9], &[9]);
        assert!(!p.overlaps(&s));
    }
}
