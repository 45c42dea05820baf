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
use treenet_graph::component::{find_balancer, split_at, Membership, Scratch};
use treenet_graph::{RootedTree, Tree, VertexId};

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

/// Like [`ideal`], additionally returning construction statistics.
pub fn ideal_with_stats(tree: &Tree) -> (TreeDecomposition, IdealStats) {
    let n = tree.len();
    let rooted = RootedTree::new(tree, VertexId(0));
    let mut builder = IdealBuilder {
        tree,
        rooted: &rooted,
        parent: vec![None; n],
        membership: Membership::new(n),
        scratch: Scratch::new(n),
        stats: IdealStats::default(),
    };
    // Top level: a balancer g of the whole vertex set becomes the root;
    // every split piece has Γ = {g} ⊆ two neighbors, satisfying the
    // recursion's precondition.
    let all: Vec<VertexId> = tree.vertices().collect();
    builder.membership.mark(&all);
    let g = find_balancer(tree, &all, &builder.membership, &mut builder.scratch);
    let parts = split_at(tree, &all, &builder.membership, g, &mut builder.scratch);
    builder.membership.clear(&all);
    builder.stats.balancers += 1;
    for part in parts {
        let root = builder.build(part);
        builder.parent[root.index()] = Some(g);
    }
    let stats = builder.stats;
    (TreeDecomposition::from_parents(tree, builder.parent), stats)
}

struct IdealBuilder<'t> {
    tree: &'t Tree,
    rooted: &'t RootedTree,
    parent: Vec<Option<VertexId>>,
    membership: Membership,
    /// Per-vertex scratch shared by every balancer and split of the
    /// recursion.
    scratch: Scratch,
    stats: IdealStats,
}

impl IdealBuilder<'_> {
    /// `BuildIdealTD(C)`: returns the root of the subtree built for `comp`.
    ///
    /// Precondition: `comp` is a component of the tree with at most two
    /// outside neighbors (checked with `debug_assert`).
    fn build(&mut self, comp: Vec<VertexId>) -> VertexId {
        if comp.len() == 1 {
            return comp[0];
        }
        self.membership.mark(&comp);
        // Γ[C] and the attachments in one scan: each edge leaving C joins
        // an outside neighbor u to its attachment u' ∈ C, and u has just
        // one (two would close a cycle), so the scan meets each of the at
        // most two neighbors once.
        let mut attached = [(VertexId(0), VertexId(0)); 2];
        let mut count = 0;
        for &x in &comp {
            for &(u, _) in self.tree.neighbors(x) {
                if !self.membership.contains(u) {
                    debug_assert!(
                        count < 2,
                        "precondition: component has at most two neighbors"
                    );
                    attached[count] = (u, x);
                    count += 1;
                }
            }
        }
        let z = find_balancer(self.tree, &comp, &self.membership, &mut self.scratch);
        let parts = split_at(self.tree, &comp, &self.membership, z, &mut self.scratch);
        self.membership.clear(&comp);
        self.stats.balancers += 1;

        // Case 2(b) iff both attachments, neither of them z, lie in one
        // part, which would then have the three neighbors {z, u₁, u₂}.
        let shared = match attached[..count] {
            [(_, a1), (_, a2)] if a1 != z && a2 != z => parts
                .iter()
                .position(|p| p.contains(&a1))
                .filter(|&i| parts[i].contains(&a2)),
            _ => None,
        };

        match shared {
            None => {
                // Cases 1 / 2(a): every part keeps ≤ 2 neighbors ({z} plus
                // at most one of u₁/u₂); z roots them all.
                for part in parts {
                    let root = self.build(part);
                    self.parent[root.index()] = Some(z);
                }
                z
            }
            Some(pi) => {
                // Case 2(b): both attachments u₁', u₂' fall in parts[pi].
                self.stats.junctions += 1;
                let [(u1, _), (u2, _)] = attached;
                let junction = self.rooted.median(u1, u2, z);
                let p1 = parts[pi].clone();
                debug_assert!(
                    p1.contains(&junction),
                    "junction {junction} must lie in the three-neighbor part"
                );
                // The attachment of z into p1 (w): the unique p1 vertex
                // adjacent to z; `w == junction` is possible.
                self.membership.mark(&p1);
                let w = self
                    .tree
                    .neighbors(z)
                    .iter()
                    .map(|&(x, _)| x)
                    .find(|&x| self.membership.contains(x))
                    .expect("z is adjacent to every split piece");
                let subparts = split_at(
                    self.tree,
                    &p1,
                    &self.membership,
                    junction,
                    &mut self.scratch,
                );
                self.membership.clear(&p1);

                // j is the root; z hangs below j; the subpart containing w
                // (C'₁, if any) hangs below z; remaining subparts below j;
                // the other parts of comp \ {z} below z.
                self.parent[z.index()] = Some(junction);
                for subpart in subparts {
                    let is_c1 = w != junction && subpart.contains(&w);
                    let root = self.build(subpart);
                    self.parent[root.index()] = Some(if is_c1 { z } else { junction });
                }
                for (i, part) in parts.into_iter().enumerate() {
                    if i == pi {
                        continue;
                    }
                    let root = self.build(part);
                    self.parent[root.index()] = Some(z);
                }
                junction
            }
        }
    }
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
