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
//! The checks here take a scratch
//! [`Membership`](crate::component::Membership) buffer; balancers and
//! splits run on a [`Splitter`](crate::component::Splitter), whose flat
//! per-vertex arrays a recursive decomposition allocates once.

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

/// One component listed by a [`Splitter`]: a contiguous range of its
/// order buffer, in DFS discovery order from the part's root, with a
/// membership stamp of its own.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Part {
    lo: u32,
    hi: u32,
    stamp: u32,
}

impl Part {
    /// Number of vertices in the part.
    #[inline]
    pub fn len(self) -> usize {
        (self.hi - self.lo) as usize
    }

    /// Always false: a split never lists an empty part.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.hi == self.lo
    }
}

/// The per-vertex state a [`Splitter`] keeps: the stamp of the part the
/// vertex was last listed in, its DFS parent there and the size of its
/// DFS subtree within that part.
#[derive(Copy, Clone, Debug)]
struct Slot {
    stamp: u32,
    parent: VertexId,
    size: u32,
}

/// The vertex stamp of no pending part: a balancer, once split at.
const RETIRED: u32 = 0;

/// Flat scratch for recursive decompositions of one tree, sized to it
/// once: every part lives in one order buffer, and one walk per part
/// lists it, stamps its membership and sizes its DFS subtrees.
///
/// [`Splitter::whole`] lists the whole tree; [`Splitter::split`] removes
/// a vertex from a part and lists each remaining piece over the part's
/// own range of the buffer. Everything a part needs later — its members,
/// membership, DFS parents and subtree sizes — stays valid until that
/// part is itself split, so its balancer is one centroid descent
/// ([`Splitter::balancer`]) with no second walk.
///
/// # Example
///
/// ```
/// use treenet_graph::{Tree, VertexId};
/// use treenet_graph::component::Splitter;
///
/// let tree = Tree::line(7);
/// let (mut splitter, whole) = Splitter::whole(&tree, VertexId(0));
/// let z = splitter.balancer(&tree, whole);
/// assert_eq!(z, VertexId(3));
/// let mut sizes = Vec::new();
/// splitter.split(&tree, whole, z, |_, part| sizes.push(part.len()));
/// assert_eq!(sizes, vec![3, 3]);
/// ```
#[derive(Clone, Debug)]
pub struct Splitter {
    slots: Vec<Slot>,
    /// Every pending part's vertices, each part a contiguous range.
    order: Vec<VertexId>,
    stack: Vec<VertexId>,
    /// The last stamp handed out.
    stamps: u32,
}

impl Splitter {
    /// Scratch for `tree` with the whole tree listed as one part, walked
    /// from `root` (whose DFS parent is itself).
    ///
    /// # Panics
    ///
    /// Panics if `root` is out of range.
    pub fn whole(tree: &Tree, root: VertexId) -> (Self, Part) {
        let n = tree.len();
        assert!(
            root.index() < n,
            "root {root} out of range for {n} vertices"
        );
        let whole = RETIRED + 1;
        let mut splitter = Splitter {
            slots: vec![
                Slot {
                    stamp: whole,
                    parent: root,
                    size: 0,
                };
                n
            ],
            order: vec![VertexId(0); n],
            stack: Vec::with_capacity(n),
            stamps: whole,
        };
        let part = splitter.walk(tree, root, root, whole, 0);
        (splitter, part)
    }

    /// The part's vertices in DFS discovery order.
    #[inline]
    pub fn members(&self, part: Part) -> &[VertexId] {
        &self.order[part.lo as usize..part.hi as usize]
    }

    /// The vertex the part's walk started from.
    #[inline]
    pub fn root(&self, part: Part) -> VertexId {
        self.order[part.lo as usize]
    }

    /// Whether `v` belongs to `part`, which must not have been split yet.
    #[inline]
    pub fn contains(&self, part: Part, v: VertexId) -> bool {
        self.slots[v.index()].stamp == part.stamp
    }

    /// The DFS parent of `v` in the part it was last listed in. A part's
    /// root has the vertex the part was split from (the whole tree's root
    /// has itself).
    #[inline]
    pub fn parent(&self, v: VertexId) -> VertexId {
        self.slots[v.index()].parent
    }

    /// A **balancer** (centroid) of `part`: a vertex whose removal leaves
    /// pieces of at most `⌊|part|/2⌋` vertices. It descends from the
    /// part's root towards the first (in adjacency order) side heavier
    /// than half, reading the subtree sizes the part's walk recorded.
    pub fn balancer(&self, tree: &Tree, part: Part) -> VertexId {
        let half = (part.len() / 2) as u32;
        let mut u = self.root(part);
        'descend: loop {
            let up = self.slots[u.index()].parent;
            for &(v, _) in tree.neighbors(u) {
                let slot = self.slots[v.index()];
                if v != up && slot.stamp == part.stamp && slot.size > half {
                    u = v;
                    continue 'descend;
                }
            }
            return u;
        }
    }

    /// Removes `z` from `part` and lists each connected piece of the
    /// rest over the part's own range, in the order `z`'s incident edges
    /// are stored, each walked from `z`'s neighbor in it. `each` sees
    /// every piece as soon as it is listed.
    ///
    /// # Panics
    ///
    /// Panics if `z` is not in `part`.
    pub fn split(
        &mut self,
        tree: &Tree,
        part: Part,
        z: VertexId,
        mut each: impl FnMut(&Self, Part),
    ) {
        assert!(
            self.contains(part, z),
            "split vertex {z} must belong to the component"
        );
        self.slots[z.index()].stamp = RETIRED;
        let mut at = part.lo;
        for &(start, _) in tree.neighbors(z) {
            if self.slots[start.index()].stamp == part.stamp {
                let piece = self.walk(tree, start, z, part.stamp, at);
                at = piece.hi;
                each(self, piece);
            }
        }
    }

    /// Where the DFS paths from `a` and from `b` to their part's root
    /// meet: the median of `a`, `b` and the root. Both must lie in one
    /// part that has not been split yet. A vertex's subtree is larger
    /// than any of its descendants', so the climb always moves the end
    /// with the smaller subtree, which cannot be the meeting point.
    pub fn meet(&self, mut a: VertexId, mut b: VertexId) -> VertexId {
        while a != b {
            let (sa, sb) = (self.slots[a.index()], self.slots[b.index()]);
            if sa.size < sb.size {
                a = sa.parent;
            } else {
                b = sb.parent;
            }
        }
        a
    }

    /// Lists the vertices stamped `within` reachable from `start` without
    /// passing `from`, at `order[at..]` in DFS discovery order, stamps
    /// them with a fresh stamp and sizes their subtrees. Inside a tree a
    /// vertex is first met from its DFS parent, and restamping it marks
    /// it seen.
    fn walk(&mut self, tree: &Tree, start: VertexId, from: VertexId, within: u32, at: u32) -> Part {
        self.stamps += 1;
        let stamp = self.stamps;
        self.slots[start.index()] = Slot {
            stamp,
            parent: from,
            size: 1,
        };
        self.stack.push(start);
        let mut end = at as usize;
        while let Some(u) = self.stack.pop() {
            self.order[end] = u;
            end += 1;
            for &(v, _) in tree.neighbors(u) {
                if self.slots[v.index()].stamp == within {
                    self.slots[v.index()] = Slot {
                        stamp,
                        parent: u,
                        size: 1,
                    };
                    self.stack.push(v);
                }
            }
        }
        for i in (at as usize + 1..end).rev() {
            let u = self.order[i];
            let Slot { parent, size, .. } = self.slots[u.index()];
            self.slots[parent.index()].size += size;
        }
        Part {
            lo: at,
            hi: end as u32,
            stamp,
        }
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
    let mut seen = vec![false; tree.len()];
    seen[z.index()] = true;
    tree.neighbors(z)
        .iter()
        .filter(|&&(start, _)| membership.contains(start))
        .all(|&(start, _)| {
            let mut stack = vec![start];
            seen[start.index()] = true;
            let mut count = 0;
            while let Some(u) = stack.pop() {
                count += 1;
                for &(v, _) in tree.neighbors(u) {
                    if membership.contains(v) && !seen[v.index()] {
                        seen[v.index()] = true;
                        stack.push(v);
                    }
                }
            }
            count <= half
        })
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

    /// The pieces `split` lists when `whole` (walked from `root`) is
    /// split at `z`.
    fn split_whole(t: &Tree, root: u32, z: u32) -> Vec<Vec<VertexId>> {
        let (mut s, whole) = Splitter::whole(t, VertexId(root));
        let mut parts = Vec::new();
        s.split(t, whole, VertexId(z), |s, part| {
            parts.push(s.members(part).to_vec())
        });
        parts
    }

    /// The balancer of the component `comp` of the line `0 - … - n-1`,
    /// cut out of the whole line by splitting at its outside neighbours.
    fn line_balancer(n: usize, comp: std::ops::Range<u32>) -> VertexId {
        let t = Tree::line(n);
        let (mut s, mut part) = Splitter::whole(&t, VertexId(0));
        for cut in [comp.start.checked_sub(1), Some(comp.end)] {
            let Some(cut) = cut.filter(|&c| (c as usize) < n) else {
                continue;
            };
            let mut kept = None;
            s.split(&t, part, VertexId(cut), |s, p| {
                if s.contains(p, VertexId(comp.start)) {
                    kept = Some(p);
                }
            });
            part = kept.unwrap();
        }
        assert_eq!(part.len(), comp.len());
        s.balancer(&t, part)
    }

    #[test]
    fn split_line_in_the_middle() {
        let t = Tree::line(7);
        let mut parts = split_whole(&t, 0, 3);
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
        let parts = split_whole(&t, 0, 0);
        assert_eq!(parts.len(), 3);
        assert!(parts.iter().all(|p| p.len() == 1));
    }

    #[test]
    #[should_panic(expected = "must belong")]
    fn split_requires_member() {
        let t = Tree::line(3);
        let (mut s, whole) = Splitter::whole(&t, VertexId(0));
        let mut pieces = Vec::new();
        s.split(&t, whole, VertexId(2), |_, p| pieces.push(p));
        s.split(&t, pieces[0], VertexId(2), |_, _| {});
    }

    #[test]
    fn balancer_of_line_is_middle() {
        let t = Tree::line(9);
        let mut m = Membership::new(9);
        let comp = all(9);
        m.mark(&comp);
        let (s, whole) = Splitter::whole(&t, VertexId(0));
        let z = s.balancer(&t, whole);
        assert!(is_balancer(&t, &comp, &m, z));
        assert_eq!(z, VertexId(4));
        // The end vertex is not a balancer.
        assert!(!is_balancer(&t, &comp, &m, VertexId(0)));
    }

    #[test]
    fn balancer_of_star_is_center() {
        let t = Tree::from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]).unwrap();
        for root in 0..6 {
            let (s, whole) = Splitter::whole(&t, VertexId(root));
            assert_eq!(s.balancer(&t, whole), VertexId(0));
        }
    }

    #[test]
    fn balancer_of_sub_component() {
        // Balancer restricted to a strict subset.
        let t = Tree::line(10);
        let mut m = Membership::new(10);
        let comp: Vec<VertexId> = (3..8).map(VertexId).collect();
        m.mark(&comp);
        let z = line_balancer(10, 3..8);
        assert!(is_balancer(&t, &comp, &m, z));
        assert_eq!(z, VertexId(5));
    }

    #[test]
    fn balancer_of_singleton() {
        let t = Tree::line(3);
        let mut m = Membership::new(3);
        let comp = vec![VertexId(1)];
        m.mark(&comp);
        assert_eq!(line_balancer(3, 1..2), VertexId(1));
        assert!(is_balancer(&t, &comp, &m, VertexId(1)));
    }

    #[test]
    fn every_component_has_balancer_found() {
        // Exhaustive over all sub-paths of a small caterpillar.
        let t = Tree::from_edges(7, &[(0, 1), (1, 2), (2, 3), (1, 4), (2, 5), (3, 6)]).unwrap();
        let mut m = Membership::new(7);
        let full = all(7);
        m.mark(&full);
        for root in t.vertices() {
            let (s, whole) = Splitter::whole(&t, root);
            assert_eq!(s.members(whole).len(), 7);
            assert!(is_balancer(&t, &full, &m, s.balancer(&t, whole)));
        }
    }

    #[test]
    fn meet_is_the_median_with_the_root() {
        // The caterpillar 0-1-2-3 with legs 1-4, 2-5, 3-6, walked from 0.
        let t = Tree::from_edges(7, &[(0, 1), (1, 2), (2, 3), (1, 4), (2, 5), (3, 6)]).unwrap();
        let (s, _) = Splitter::whole(&t, VertexId(0));
        assert_eq!(s.meet(VertexId(5), VertexId(6)), VertexId(2));
        assert_eq!(s.meet(VertexId(4), VertexId(6)), VertexId(1));
        assert_eq!(s.meet(VertexId(3), VertexId(6)), VertexId(3));
        assert_eq!(s.meet(VertexId(0), VertexId(6)), VertexId(0));
        assert_eq!(s.meet(VertexId(5), VertexId(5)), VertexId(5));
        assert_eq!(s.parent(VertexId(6)), VertexId(3));
        assert_eq!(s.parent(VertexId(0)), VertexId(0));
    }
}
