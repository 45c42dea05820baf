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
    pub(crate) vertices: Vec<VertexId>,
    pub(crate) edges: Vec<EdgeId>,
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

    /// Replaces this path with the one through `vertices` and `edges`,
    /// reusing its buffers: for a caller that reads many paths one at a
    /// time and keeps none.
    ///
    /// # Panics
    ///
    /// As [`TreePath::new`].
    pub fn refill(
        &mut self,
        vertices: impl IntoIterator<Item = VertexId>,
        edges: impl IntoIterator<Item = EdgeId>,
    ) {
        self.vertices.clear();
        self.vertices.extend(vertices);
        self.edges.clear();
        self.edges.extend(edges);
        assert!(
            !self.vertices.is_empty(),
            "a tree path contains at least one vertex"
        );
        assert_eq!(
            self.vertices.len(),
            self.edges.len() + 1,
            "a path over k edges visits k + 1 vertices"
        );
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

    /// The path's end-points and edges as a [`PathView`], the form every
    /// reader of a stored demand instance's path takes.
    #[inline]
    pub fn view(&self) -> PathView<'_> {
        PathView::new(self.source(), self.target(), &self.edges)
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
}

/// A borrowed path `u ↝ v`: its end-points and its edge sequence, but
/// not its vertices.
///
/// What the paper reads of `path(d)` (its edges for `d ∼ e`, its
/// end-points for capture nodes and bending points) without the vertex
/// sequence, so a store of many paths can keep edges alone. A vertex's
/// position on the path follows from the depths of a rooted view of the
/// tree: the path climbs from `source` to `LCA(source, target)`, then
/// descends to `target`. Equality compares end-points and edges.
///
/// Produced by [`TreePath::view`], or over stored edges by
/// [`PathView::new`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct PathView<'a> {
    source: VertexId,
    target: VertexId,
    edges: &'a [EdgeId],
}

impl<'a> PathView<'a> {
    /// The path from `source` to `target` along `edges`, in path order.
    #[inline]
    pub fn new(source: VertexId, target: VertexId, edges: &'a [EdgeId]) -> Self {
        PathView {
            source,
            target,
            edges,
        }
    }

    /// First vertex of the path (the demand end-point `u`).
    #[inline]
    pub fn source(&self) -> VertexId {
        self.source
    }

    /// Last vertex of the path (the demand end-point `v`).
    #[inline]
    pub fn target(&self) -> VertexId {
        self.target
    }

    /// Edge sequence from source to target.
    #[inline]
    pub fn edges(&self) -> &'a [EdgeId] {
        self.edges
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

    /// Whether the path uses edge `e` (the paper's `d ∼ e`).
    pub fn contains_edge(&self, e: EdgeId) -> bool {
        self.edges.contains(&e)
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
        let view = p.view();
        assert_eq!((view.source(), view.target()), (VertexId(2), VertexId(3)));
        assert_eq!((view.edges(), view.len()), (p.edges(), 3));
        assert!(view.contains_edge(EdgeId(0)) && !view.contains_edge(EdgeId(7)));
        assert!(!view.is_empty() && vp(&[4], &[]).view().is_empty());
        assert_eq!(
            view,
            PathView::new(VertexId(2), VertexId(3), &[1, 0, 2].map(EdgeId))
        );
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
    fn refill_equals_a_fresh_path() {
        let mut p = vp(&[4], &[]);
        p.refill([2, 1, 0, 3].map(VertexId), [1, 0, 2].map(EdgeId));
        assert_eq!(p, vp(&[2, 1, 0, 3], &[1, 0, 2]));
        p.refill([5, 6].map(VertexId), [5].map(EdgeId));
        assert_eq!(p, vp(&[5, 6], &[5]));
    }

    #[test]
    #[should_panic(expected = "k + 1 vertices")]
    fn refill_rejects_mismatched_lengths() {
        let mut p = vp(&[4], &[]);
        p.refill([0, 1].map(VertexId), []);
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
                        let mut reused = parent_walk(&rooted, v, u);
                        rooted.path_in(u, v, &mut reused);
                        assert_eq!(reused, p, "{u} ↝ {v} into a used buffer");
                    }
                }
            }
        }
    }
}
