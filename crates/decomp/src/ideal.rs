//! The ideal tree decomposition (Section 4.3, Lemma 4.1): depth
//! `O(log n)`, pivot size `θ ≤ 2`.
//!
//! The construction (`BuildIdealTD` in the paper) recursively picks a
//! balancer `z` of the current component `C` (which has at most two
//! outside neighbors `u₁, u₂` as a precondition). If some split piece ends
//! up with three neighbors `{z, u₁, u₂}` — i.e. the attachments of `u₁`
//! and `u₂` fall into the same piece (Case 2(b), Figure 5) — a *junction*
//! `j = median_T(u₁, u₂, z)` is introduced above `z` and that piece is
//! split again at `j`. Every recursive input then has at most two outside
//! neighbors, at most two `H`-levels are added per size-halving, and every
//! `C(x)` keeps at most two outside neighbors, giving
//! `⟨depth ≤ 2⌈log n⌉ + 1, θ ≤ 2⟩`.

use crate::TreeDecomposition;
use treenet_graph::component::{Part, Splitter};
use treenet_graph::{Tree, VertexId};

/// Builds the ideal tree decomposition of `tree` (Lemma 4.1).
///
/// # Example
///
/// ```
/// use treenet_graph::Tree;
/// use treenet_decomp::ideal;
///
/// let tree = Tree::line(128);
/// let h = ideal(&tree);
/// assert!(h.pivot_size() <= 2);
/// assert!(h.depth() <= 2 * 7 + 1); // 2⌈log₂ 128⌉ + 1
/// assert!(h.verify(&tree).is_ok());
/// ```
pub fn ideal(tree: &Tree) -> TreeDecomposition {
    ideal_with_stats(tree).0
}

/// Construction statistics of an [`ideal`] build, for diagnostics and
/// experiments.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct IdealStats {
    /// Number of times Case 2(b) fired (a junction node was introduced).
    pub junctions: usize,
    /// Number of balancer (centroid) selections.
    pub balancers: usize,
}

/// One pending `BuildIdealTD(C)`: the component, the `H`-node its root
/// hangs below, and its outside neighbours, each with its attachment
/// `(u, u')`: the edge from `u ∉ C` to `u' ∈ C`.
#[derive(Copy, Clone)]
struct Frame {
    part: Part,
    up: Option<VertexId>,
    attached: [(VertexId, VertexId); 2],
    count: usize,
}

impl Frame {
    /// The frame of `part`, split off `from` (which hangs it below `up`),
    /// keeping those of `inherited` attached inside it. `None` if two
    /// are: the part then has three neighbours, Case 2(b).
    fn new(
        splitter: &Splitter,
        part: Part,
        up: VertexId,
        from: VertexId,
        inherited: &[(VertexId, VertexId)],
    ) -> Option<Self> {
        let mut frame = Frame {
            part,
            up: Some(up),
            attached: [(from, splitter.root(part)); 2],
            count: 1,
        };
        for &(u, inner) in inherited {
            if splitter.contains(part, inner) {
                if frame.count == 2 {
                    return None;
                }
                frame.attached[1] = (u, inner);
                frame.count = 2;
            }
        }
        Some(frame)
    }
}

/// Like [`ideal`], additionally returning construction statistics.
///
/// The recursion runs on one [`Splitter`]: each component's walk lists
/// it, stamps it and sizes it, so its balancer is a centroid descent,
/// and its at most two attachments come down from its parent's frame.
/// The top level is a component with no neighbours, walked from vertex
/// 0.
pub fn ideal_with_stats(tree: &Tree) -> (TreeDecomposition, IdealStats) {
    let n = tree.len();
    let (mut splitter, whole) = Splitter::whole(tree, VertexId(0));
    let mut parent = vec![None; n];
    // The top-level balancer is counted even for a one-vertex tree.
    let mut stats = IdealStats {
        balancers: usize::from(n == 1),
        junctions: 0,
    };
    let mut work = Vec::with_capacity(n);
    work.push(Frame {
        part: whole,
        up: None,
        attached: [(VertexId(0), VertexId(0)); 2],
        count: 0,
    });
    while let Some(frame) = work.pop() {
        if frame.part.len() == 1 {
            parent[splitter.root(frame.part).index()] = frame.up;
            continue;
        }
        let z = splitter.balancer(tree, frame.part);
        stats.balancers += 1;
        let attached = &frame.attached[..frame.count];
        // Cases 1 / 2(a): every part keeps ≤ 2 neighbours ({z} plus at
        // most one of u₁/u₂); z roots them all. Case 2(b): both
        // attachments, neither of them z, fall in one part p1.
        let mut p1 = None;
        splitter.split(tree, frame.part, z, |s, part| {
            match Frame::new(s, part, z, z, attached) {
                Some(child) => work.push(child),
                None => p1 = Some(part),
            }
        });
        let Some(p1) = p1 else {
            parent[z.index()] = frame.up;
            continue;
        };
        stats.junctions += 1;
        // The junction j = median_T(u₁, u₂, z): the paths from u₁', u₂'
        // to the attachment w of z into p1, where p1's walk started,
        // meet at j (`w == j` is possible).
        let [(u1, a1), (u2, a2)] = frame.attached;
        let w = splitter.root(p1);
        let junction = splitter.meet(a1, a2);
        // j is the root; z hangs below j; the piece of p1 \ {j} holding
        // w (C'₁, if any) hangs below z; the other pieces below j; the
        // other parts of C \ {z} below z (pushed above).
        parent[junction.index()] = frame.up;
        parent[z.index()] = Some(junction);
        let inherited = [(z, w), (u1, a1), (u2, a2)];
        splitter.split(tree, p1, junction, |s, part| {
            let up = if w != junction && s.contains(part, w) {
                z
            } else {
                junction
            };
            let child = Frame::new(s, part, up, junction, &inherited);
            work.push(child.expect("precondition: a piece of p1 has at most two neighbours"));
        });
    }
    (TreeDecomposition::from_parents(tree, parent), stats)
}

/// The paper's depth bound for the ideal decomposition:
/// `2⌈log₂ n⌉ + 1` (two levels per size-halving plus the top balancer).
pub fn ideal_depth_bound(n: usize) -> u32 {
    let ceil_log2 = (usize::BITS - (n.max(1) - 1).leading_zeros()).max(1);
    2 * ceil_log2 + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use treenet_graph::generators::{random_tree, TreeFamily};

    #[test]
    fn pivot_size_at_most_two_everywhere() {
        let mut rng = SmallRng::seed_from_u64(21);
        for family in TreeFamily::ALL {
            for n in [2usize, 3, 7, 20, 65, 128] {
                let tree = family.generate(n, &mut rng);
                let h = ideal(&tree);
                assert!(
                    h.pivot_size() <= 2,
                    "{} n={n}: pivot {}",
                    family.name(),
                    h.pivot_size()
                );
            }
        }
    }

    #[test]
    fn depth_within_paper_bound() {
        let mut rng = SmallRng::seed_from_u64(22);
        for family in TreeFamily::ALL {
            for n in [2usize, 5, 16, 50, 127, 256, 513] {
                let tree = family.generate(n, &mut rng);
                let h = ideal(&tree);
                let bound = ideal_depth_bound(n);
                assert!(
                    h.depth() <= bound,
                    "{} n={n}: depth {} > bound {bound}",
                    family.name(),
                    h.depth()
                );
            }
        }
    }

    #[test]
    fn decomposition_properties_verified() {
        let mut rng = SmallRng::seed_from_u64(23);
        for n in [2usize, 3, 4, 9, 17, 40] {
            for seed in 0..5u64 {
                let tree = random_tree(n, &mut SmallRng::seed_from_u64(seed * 1000 + n as u64));
                let h = ideal(&tree);
                assert!(h.verify(&tree).is_ok(), "n={n} seed={seed}");
            }
            let tree = random_tree(n, &mut rng);
            let h = ideal(&tree);
            assert!(h.verify(&tree).is_ok());
        }
    }

    #[test]
    fn junction_case_fires_on_branching_trees() {
        // On a line the two attachments always fall into different split
        // pieces, so Case 2(b) never fires...
        let line = Tree::line(65);
        let (h, stats) = ideal_with_stats(&line);
        assert!(h.verify(&line).is_ok());
        assert_eq!(stats.junctions, 0);
        // ...but on branching trees it does, and exactly there the
        // balancing decomposition needs pivot ≥ 3 while ideal stays ≤ 2
        // (uniform tree n=63 seed=0: balancing pivot is 4).
        let tree = random_tree(63, &mut SmallRng::seed_from_u64(0));
        let (h, stats) = ideal_with_stats(&tree);
        assert!(h.verify(&tree).is_ok());
        assert!(h.pivot_size() <= 2);
        assert!(stats.junctions > 0, "expected Case 2(b) to fire");
        assert!(stats.balancers > 0);
        let bal = crate::balancing(&tree);
        assert!(bal.pivot_size() > 2);
    }

    #[test]
    fn tiny_trees() {
        for n in 1..=4usize {
            let tree = Tree::line(n);
            let h = ideal(&tree);
            assert!(h.verify(&tree).is_ok(), "n={n}");
            assert!(h.pivot_size() <= 2);
        }
    }

    #[test]
    fn figure6_tree_decomposes() {
        // The paper's example tree (via the model fixture shape).
        let tree = Tree::from_edges(
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
        .unwrap();
        let h = ideal(&tree);
        assert!(h.verify(&tree).is_ok());
        assert!(h.pivot_size() <= 2);
        assert!(h.depth() <= ideal_depth_bound(14));
    }
}
