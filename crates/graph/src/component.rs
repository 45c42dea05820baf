//! Components (connected vertex subsets), neighborhoods and balancers.
//!
//! Section 4 of the paper builds its tree decompositions out of three
//! primitives on a tree `T`:
//!
//! * a **component** `C ⊆ V` is a vertex subset inducing a connected
//!   subtree;
//! * the **neighborhood** `Γ[C]` is the set of vertices outside `C`
//!   adjacent to some vertex of `C` — every path leaving `C` crosses it;
//! * a **balancer** of `C` is a vertex `z ∈ C` whose removal splits the
//!   induced subtree into components of size at most `⌊|C|/2⌋` (a centroid).
//!
//! Functions here take a scratch
//! [`Membership`](crate::component::Membership) buffer, and the balancer
//! and split routines a [`Scratch`](crate::component::Scratch), so that
//! recursive decomposition code allocates its per-vertex arrays once.

use crate::{Tree, VertexId};

/// Reusable membership bitmap over the vertices of one tree.
///
/// Marking and clearing are `O(|C|)`; queries are `O(1)`. The intended use
/// is mark → query during one decomposition step → clear.
///
/// # Example
///
/// ```
/// use treenet_graph::{Tree, VertexId};
/// use treenet_graph::component::Membership;
///
/// # fn main() -> Result<(), treenet_graph::TreeError> {
/// let tree = Tree::line(4);
/// let mut membership = Membership::new(tree.len());
/// membership.mark(&[VertexId(1), VertexId(2)]);
/// assert!(membership.contains(VertexId(1)));
/// assert!(!membership.contains(VertexId(3)));
/// membership.clear(&[VertexId(1), VertexId(2)]);
/// assert!(!membership.contains(VertexId(1)));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Membership {
    bits: Vec<bool>,
}

impl Membership {
    /// Creates an all-false membership map for `n` vertices.
    pub fn new(n: usize) -> Self {
        Membership {
            bits: vec![false; n],
        }
    }

    /// Marks every vertex in `members`.
    pub fn mark(&mut self, members: &[VertexId]) {
        for &v in members {
            self.bits[v.index()] = true;
        }
    }

    /// Clears every vertex in `members` (cheaper than zeroing the map).
    pub fn clear(&mut self, members: &[VertexId]) {
        for &v in members {
            self.bits[v.index()] = false;
        }
    }

    /// Whether `v` is currently marked.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        self.bits[v.index()]
    }

    /// Number of vertices this map covers.
    #[inline]
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the map covers zero vertices (never true for maps built for
    /// a real tree).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }
}

/// Returns whether `members` induces a connected subtree of `tree`.
///
/// `membership` must already have exactly `members` marked.
pub fn is_component(tree: &Tree, members: &[VertexId], membership: &Membership) -> bool {
    if members.is_empty() {
        return false;
    }
    let mut seen = vec![false; tree.len()];
    let mut stack = vec![members[0]];
    seen[members[0].index()] = true;
    let mut count = 1usize;
    while let Some(u) = stack.pop() {
        for &(v, _) in tree.neighbors(u) {
            if membership.contains(v) && !seen[v.index()] {
                seen[v.index()] = true;
                count += 1;
                stack.push(v);
            }
        }
    }
    count == members.len()
}

/// The neighborhood `Γ[C]`: vertices outside `C` adjacent to some member.
///
/// `membership` must have exactly `members` marked. The result is sorted
/// and duplicate-free.
pub fn neighborhood(tree: &Tree, members: &[VertexId], membership: &Membership) -> Vec<VertexId> {
    let mut out = Vec::new();
    for &u in members {
        for &(v, _) in tree.neighbors(u) {
            if !membership.contains(v) {
                out.push(v);
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Per-vertex scratch for [`split_at`] and [`find_balancer`], sized to
/// the tree once and passed down a recursive decomposition, so that a
/// call on component `C` costs `O(|C|)` rather than allocating arrays
/// sized to the whole tree.
///
/// Every entry a call reads is one it wrote earlier in the same call,
/// so no call needs the arrays reset.
#[derive(Clone, Debug)]
pub struct Scratch {
    /// The DFS parent of each vertex visited inside the current
    /// component (a DFS root is its own parent).
    parent: Vec<VertexId>,
    /// Subtree sizes below each visited vertex, within the component.
    size: Vec<u32>,
    /// Visited vertices in DFS discovery order.
    order: Vec<VertexId>,
    stack: Vec<VertexId>,
}

impl Scratch {
    /// Scratch for a tree with `n` vertices.
    pub fn new(n: usize) -> Self {
        Scratch {
            parent: vec![VertexId(0); n],
            size: vec![0; n],
            order: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Visits the members reachable from `start` without passing `from`,
    /// appending them to `out` in DFS discovery order. Inside a tree a
    /// visited vertex's only visited neighbour is its DFS parent, so
    /// skipping the parent is all the "seen" test the walk needs.
    fn walk(
        &mut self,
        tree: &Tree,
        membership: &Membership,
        start: VertexId,
        from: VertexId,
        out: &mut Vec<VertexId>,
    ) {
        self.parent[start.index()] = from;
        self.stack.push(start);
        while let Some(u) = self.stack.pop() {
            out.push(u);
            let up = self.parent[u.index()];
            for &(v, _) in tree.neighbors(u) {
                if v != up && membership.contains(v) {
                    self.parent[v.index()] = u;
                    self.stack.push(v);
                }
            }
        }
    }
}

/// Splits component `C` by removing `z ∈ C`: returns the vertex sets of the
/// connected components of the induced subtree on `C \ {z}`.
///
/// `membership` must have exactly `members` marked. Components are returned
/// in the order `z`'s incident edges are stored; each component is in
/// DFS-discovery order.
///
/// # Panics
///
/// Panics if `z` is not marked in `membership`.
pub fn split_at(
    tree: &Tree,
    members: &[VertexId],
    membership: &Membership,
    z: VertexId,
    scratch: &mut Scratch,
) -> Vec<Vec<VertexId>> {
    assert!(
        membership.contains(z),
        "split vertex {z} must belong to the component"
    );
    let _ = members;
    tree.neighbors(z)
        .iter()
        .filter(|&&(start, _)| membership.contains(start))
        .map(|&(start, _)| {
            let mut comp = Vec::new();
            scratch.walk(tree, membership, start, z, &mut comp);
            comp
        })
        .collect()
}

/// Finds a **balancer** (centroid) of the component `C`: a vertex whose
/// removal leaves pieces of size at most `⌊|C|/2⌋`.
///
/// Every component contains a balancer (observation in Section 4.2 of the
/// paper). `membership` must have exactly `members` marked. Runs in
/// `O(|C|)`.
///
/// # Panics
///
/// Panics if `members` is empty.
pub fn find_balancer(
    tree: &Tree,
    members: &[VertexId],
    membership: &Membership,
    scratch: &mut Scratch,
) -> VertexId {
    assert!(
        !members.is_empty(),
        "cannot find a balancer of an empty component"
    );
    let total = members.len();
    if total == 1 {
        return members[0];
    }
    // DFS from members[0] computing subtree sizes restricted to C, then
    // descend towards the heaviest side until no side exceeds total/2.
    let root = members[0];
    let mut order = std::mem::take(&mut scratch.order);
    order.clear();
    scratch.walk(tree, membership, root, root, &mut order);
    debug_assert_eq!(
        order.len(),
        total,
        "members must form a connected component"
    );
    for &u in &order {
        scratch.size[u.index()] = 1;
    }
    for &u in order[1..].iter().rev() {
        let p = scratch.parent[u.index()];
        scratch.size[p.index()] += scratch.size[u.index()];
    }
    scratch.order = order;
    // Walk from the root to the centroid.
    let half = (total / 2) as u32;
    let mut u = root;
    'walk: loop {
        let up = scratch.parent[u.index()];
        for &(v, _) in tree.neighbors(u) {
            if v != up && membership.contains(v) && scratch.size[v.index()] > half {
                u = v;
                continue 'walk;
            }
        }
        return u;
    }
}

/// Checks that `z` is a balancer for `C`: every piece of `C \ {z}` has at
/// most `⌊|C|/2⌋` vertices. Used by tests and decomposition verifiers.
pub fn is_balancer(
    tree: &Tree,
    members: &[VertexId],
    membership: &Membership,
    z: VertexId,
) -> bool {
    let half = members.len() / 2;
    split_at(tree, members, membership, z, &mut Scratch::new(tree.len()))
        .iter()
        .all(|c| c.len() <= half)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all(n: usize) -> Vec<VertexId> {
        (0..n as u32).map(VertexId).collect()
    }

    #[test]
    fn membership_marks_and_clears() {
        let mut m = Membership::new(5);
        assert_eq!(m.len(), 5);
        assert!(!m.is_empty());
        m.mark(&[VertexId(0), VertexId(3)]);
        assert!(m.contains(VertexId(0)));
        assert!(m.contains(VertexId(3)));
        assert!(!m.contains(VertexId(1)));
        m.clear(&[VertexId(0)]);
        assert!(!m.contains(VertexId(0)));
        assert!(m.contains(VertexId(3)));
    }

    #[test]
    fn connectivity_check() {
        let t = Tree::line(5);
        let mut m = Membership::new(5);
        let comp = vec![VertexId(1), VertexId(2), VertexId(3)];
        m.mark(&comp);
        assert!(is_component(&t, &comp, &m));
        m.clear(&comp);
        let broken = vec![VertexId(0), VertexId(2)];
        m.mark(&broken);
        assert!(!is_component(&t, &broken, &m));
    }

    #[test]
    fn neighborhood_of_interior_segment() {
        let t = Tree::line(6);
        let mut m = Membership::new(6);
        let comp = vec![VertexId(2), VertexId(3)];
        m.mark(&comp);
        assert_eq!(neighborhood(&t, &comp, &m), vec![VertexId(1), VertexId(4)]);
        m.clear(&comp);
        let full = all(6);
        m.mark(&full);
        assert!(neighborhood(&t, &full, &m).is_empty());
    }

    #[test]
    fn split_line_in_the_middle() {
        let t = Tree::line(7);
        let mut m = Membership::new(7);
        let comp = all(7);
        m.mark(&comp);
        let mut parts = split_at(&t, &comp, &m, VertexId(3), &mut Scratch::new(t.len()));
        parts.iter_mut().for_each(|p| p.sort_unstable());
        parts.sort();
        assert_eq!(
            parts,
            vec![
                vec![VertexId(0), VertexId(1), VertexId(2)],
                vec![VertexId(4), VertexId(5), VertexId(6)],
            ]
        );
    }

    #[test]
    fn split_star_center() {
        let t = Tree::from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        let mut m = Membership::new(4);
        let comp = all(4);
        m.mark(&comp);
        let parts = split_at(&t, &comp, &m, VertexId(0), &mut Scratch::new(t.len()));
        assert_eq!(parts.len(), 3);
        assert!(parts.iter().all(|p| p.len() == 1));
    }

    #[test]
    #[should_panic(expected = "must belong")]
    fn split_requires_member() {
        let t = Tree::line(3);
        let mut m = Membership::new(3);
        let comp = vec![VertexId(0), VertexId(1)];
        m.mark(&comp);
        let _ = split_at(&t, &comp, &m, VertexId(2), &mut Scratch::new(t.len()));
    }

    #[test]
    fn balancer_of_line_is_middle() {
        let t = Tree::line(9);
        let mut m = Membership::new(9);
        let comp = all(9);
        m.mark(&comp);
        let z = find_balancer(&t, &comp, &m, &mut Scratch::new(t.len()));
        assert!(is_balancer(&t, &comp, &m, z));
        assert_eq!(z, VertexId(4));
        // The end vertex is not a balancer.
        assert!(!is_balancer(&t, &comp, &m, VertexId(0)));
    }

    #[test]
    fn balancer_of_star_is_center() {
        let t = Tree::from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]).unwrap();
        let mut m = Membership::new(6);
        let comp = all(6);
        m.mark(&comp);
        assert_eq!(
            find_balancer(&t, &comp, &m, &mut Scratch::new(t.len())),
            VertexId(0)
        );
    }

    #[test]
    fn balancer_of_sub_component() {
        // Balancer restricted to a strict subset.
        let t = Tree::line(10);
        let mut m = Membership::new(10);
        let comp: Vec<VertexId> = (3..8).map(VertexId).collect();
        m.mark(&comp);
        let z = find_balancer(&t, &comp, &m, &mut Scratch::new(t.len()));
        assert!(is_balancer(&t, &comp, &m, z));
        assert_eq!(z, VertexId(5));
    }

    #[test]
    fn balancer_of_singleton() {
        let t = Tree::line(3);
        let mut m = Membership::new(3);
        let comp = vec![VertexId(1)];
        m.mark(&comp);
        assert_eq!(
            find_balancer(&t, &comp, &m, &mut Scratch::new(t.len())),
            VertexId(1)
        );
        assert!(is_balancer(&t, &comp, &m, VertexId(1)));
    }

    #[test]
    fn every_component_has_balancer_found() {
        // Exhaustive over all sub-paths of a small caterpillar.
        let t = Tree::from_edges(7, &[(0, 1), (1, 2), (2, 3), (1, 4), (2, 5), (3, 6)]).unwrap();
        let mut m = Membership::new(7);
        let full = all(7);
        m.mark(&full);
        let z = find_balancer(&t, &full, &m, &mut Scratch::new(t.len()));
        assert!(is_balancer(&t, &full, &m, z));
    }
}
