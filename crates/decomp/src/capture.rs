//! Capture nodes, bending points and critical edges (Section 4.4).
//!
//! For a demand instance `d` on a tree-network `T` with tree decomposition
//! `H`:
//!
//! * the **capture node** `µ(d)` is the minimum-depth `H`-node on
//!   `path(d)` (unique by LCA closure): `LCA_H` of the path's end-points;
//! * the **bending point** of `path(d)` w.r.t. an outside vertex `u` is
//!   the unique path vertex whose route to `u` avoids the rest of the path
//!   — computed as `median_T(endpoints, u)`;
//! * the **critical edges** `π(d)` (Lemma 4.2) are the wings of `µ(d)` on
//!   the path plus, for each pivot `u ∈ χ(µ(d))`, the wings of the bending
//!   point w.r.t. `u` — at most `2(θ+1)` edges.

use crate::TreeDecomposition;
use treenet_graph::{EdgeId, PathView, RootedTree, VertexId};

/// The capture node `µ(d)`: the path vertex with minimum `H`-depth,
/// found in `O(1)` as `ℓ = LCA_H(source, target)`.
///
/// Why `ℓ` is that vertex: LCA closure puts `ℓ` on the path, and both
/// end-points lie in `C(ℓ)`, which is connected in `T`, so the whole path
/// lies inside `C(ℓ)`. Every other vertex of `C(ℓ)` is a strict
/// `H`-descendant of `ℓ`, so `ℓ` is the unique minimum-depth path vertex.
pub fn capture_node(h: &TreeDecomposition, path: PathView<'_>) -> VertexId {
    h.lca(path.source(), path.target())
}

/// The bending point of `path` w.r.t. vertex `u`: the unique path vertex
/// `y` such that the `T`-path from `u` to `y` avoids every other path
/// vertex. Equal to `median_T(source, target, u)`.
///
/// `rooted` must be a rooted view of the same tree-network the path lives
/// in.
pub fn bending_point(rooted: &RootedTree, path: PathView<'_>, u: VertexId) -> VertexId {
    rooted.median(path.source(), path.target(), u)
}

/// The critical edge set `π(d)` of Lemma 4.2: wings of the capture node
/// plus wings of the bending points w.r.t. each pivot of the capture
/// node's component. Sorted and deduplicated; size at most `2(θ + 1)`.
pub fn critical_edges(
    h: &TreeDecomposition,
    rooted: &RootedTree,
    path: PathView<'_>,
) -> Vec<EdgeId> {
    let mut critical = Vec::new();
    push_critical_edges(h, rooted, path, capture_node(h, path), &mut critical);
    critical
}

/// Appends [`critical_edges`] of `path`, whose capture node is `mu`, to
/// `out`, without allocating.
pub(crate) fn push_critical_edges(
    h: &TreeDecomposition,
    rooted: &RootedTree,
    path: PathView<'_>,
    mu: VertexId,
    out: &mut Vec<EdgeId>,
) {
    let start = out.len();
    push_wings(rooted, path, mu, out);
    for &u in h.pivot(mu) {
        push_wings(rooted, path, bending_point(rooted, path, u), out);
    }
    out[start..].sort_unstable();
    let mut kept = start;
    for i in start..out.len() {
        if kept == start || out[i] != out[kept - 1] {
            out[kept] = out[i];
            kept += 1;
        }
    }
    out.truncate(kept);
}

/// Appends the *wings* of the path vertex `y` (Section 4.4): the path
/// edges incident to `y`, one at an end-point and two inside, as
/// [`TreePath::wings`](treenet_graph::TreePath::wings) lists them. `y` is
/// located from `rooted`'s depths, as the path stores no vertices: a path
/// `s ↝ t` climbs from `s` to `LCA_T(s, t)`, then descends to `t`. So
/// `y` sits `depth(s) − depth(y)` edges in when it is an ancestor of `s`,
/// and `depth(t) − depth(y)` edges before the end otherwise.
///
/// `rooted` must view the path's tree, and `y` must lie on the path.
pub fn push_wings(rooted: &RootedTree, path: PathView<'_>, y: VertexId, out: &mut Vec<EdgeId>) {
    let (s, t) = (path.source(), path.target());
    let i = if rooted.is_ancestor_or_self(y, s) {
        (rooted.depth(s) - rooted.depth(y)) as usize
    } else {
        path.len() - (rooted.depth(t) - rooted.depth(y)) as usize
    };
    debug_assert!(
        rooted.is_ancestor_or_self(rooted.lca(s, t), y)
            && (rooted.is_ancestor_or_self(y, s) || rooted.is_ancestor_or_self(y, t)),
        "{y} must lie on the path"
    );
    let edges = path.edges();
    if i > 0 {
        out.push(edges[i - 1]);
    }
    if i < edges.len() {
        out.push(edges[i]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ideal, root_fixing};
    use treenet_graph::Tree;

    /// The Figure 6 tree (see `treenet_model::fixtures`): paper labels
    /// 1..14 are vertices 0..13.
    fn figure6() -> Tree {
        Tree::from_edges(
            14,
            &[
                (0, 1),
                (1, 3),
                (1, 4),
                (4, 7),
                (4, 8),
                (7, 12),
                (7, 11),
                (0, 5),
                (5, 2),
                (2, 6),
                (0, 13),
                (13, 9),
                (13, 10),
            ],
        )
        .unwrap()
    }

    #[test]
    fn capture_node_matches_appendix_a_example() {
        // Appendix A: with the root-fixing decomposition rooted at node 1,
        // the demand ⟨4, 13⟩ (path 4-2-5-8-13) is captured at node 2, and
        // π(d) = {⟨2,4⟩, ⟨2,5⟩}.
        let tree = figure6();
        let h = root_fixing(&tree, VertexId(0));
        let rooted = RootedTree::new(&tree, VertexId(0));
        let path = rooted.path(VertexId(3), VertexId(12)); // 4 ↝ 13
        let mu = capture_node(&h, path.view());
        assert_eq!(mu, VertexId(1)); // node 2
        let wings = path.wings(mu);
        let e24 = tree.edge_between(VertexId(1), VertexId(3)).unwrap();
        let e25 = tree.edge_between(VertexId(1), VertexId(4)).unwrap();
        let mut wings_sorted = wings.clone();
        wings_sorted.sort_unstable();
        let mut expected = vec![e24, e25];
        expected.sort_unstable();
        assert_eq!(wings_sorted, expected);
    }

    #[test]
    fn bending_points_match_figure6_narrative() {
        // "With respect to nodes 3 and 9, the bending points of the demand
        // ⟨4, 13⟩ are 2 and 5."
        let tree = figure6();
        let rooted = RootedTree::new(&tree, VertexId(0));
        let path = rooted.path(VertexId(3), VertexId(12));
        assert_eq!(
            bending_point(&rooted, path.view(), VertexId(2)),
            VertexId(1)
        ); // node 3 → 2
        assert_eq!(
            bending_point(&rooted, path.view(), VertexId(8)),
            VertexId(4)
        ); // node 9 → 5
    }

    #[test]
    fn bending_point_of_path_vertex_is_itself() {
        let tree = figure6();
        let rooted = RootedTree::new(&tree, VertexId(0));
        let path = rooted.path(VertexId(3), VertexId(12));
        for &v in path.vertices() {
            assert_eq!(bending_point(&rooted, path.view(), v), v);
        }
    }

    #[test]
    fn critical_edges_bounded_by_two_theta_plus_one() {
        let tree = figure6();
        let rooted = RootedTree::new(&tree, VertexId(0));
        let h = ideal(&tree);
        let theta = h.pivot_size();
        assert!(theta <= 2);
        for u in tree.vertices() {
            for v in tree.vertices() {
                if u >= v {
                    continue;
                }
                let path = rooted.path(u, v);
                let pi = critical_edges(&h, &rooted, path.view());
                assert!(
                    pi.len() <= 2 * (theta + 1),
                    "π({u},{v}) has {} edges",
                    pi.len()
                );
                // Critical edges lie on the path.
                for e in &pi {
                    assert!(path.contains_edge(*e));
                }
                // The wings of the capture node are always included.
                let mu = capture_node(&h, path.view());
                for w in path.wings(mu) {
                    assert!(pi.contains(&w));
                }
            }
        }
    }

    #[test]
    fn single_edge_path_critical_edges() {
        let tree = Tree::line(4);
        let rooted = RootedTree::new(&tree, VertexId(0));
        let h = ideal(&tree);
        let path = rooted.path(VertexId(1), VertexId(2));
        let pi = critical_edges(&h, &rooted, path.view());
        assert_eq!(pi, vec![EdgeId(1)]);
    }
}
