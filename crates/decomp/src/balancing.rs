//! The balancing tree decomposition (Section 4.2): depth `⌈log n⌉ + 1`,
//! pivot size up to `⌈log n⌉` — classic centroid decomposition.

use crate::TreeDecomposition;
use treenet_graph::component::{find_balancer, split_at, Membership, Scratch};
use treenet_graph::{Tree, VertexId};

/// Builds the balancing decomposition (`BuildBalTD` in the paper): pick a
/// balancer (centroid) `z` of the current component, make it the root, and
/// recurse into the split pieces.
///
/// Component sizes halve at each level, so the depth is at most
/// `⌈log₂ n⌉ + 1`; the neighborhood of `C(z)` is contained in `z`'s `H`-
/// ancestors, so the pivot size can reach the depth (e.g. on a path).
///
/// # Example
///
/// ```
/// use treenet_graph::Tree;
/// use treenet_decomp::balancing;
///
/// let tree = Tree::line(64);
/// let h = balancing(&tree);
/// assert!(h.depth() <= 7); // ⌈log₂ 64⌉ + 1
/// assert!(h.verify(&tree).is_ok());
/// ```
pub fn balancing(tree: &Tree) -> TreeDecomposition {
    let n = tree.len();
    let mut parent: Vec<Option<VertexId>> = vec![None; n];
    let mut membership = Membership::new(n);
    let mut scratch = Scratch::new(n);
    let all: Vec<VertexId> = tree.vertices().collect();
    // Explicit work list of (component, parent-of-its-balancer) to avoid
    // deep recursion on adversarial shapes.
    let mut work: Vec<(Vec<VertexId>, Option<VertexId>)> = vec![(all, None)];
    while let Some((comp, attach)) = work.pop() {
        membership.mark(&comp);
        let z = find_balancer(tree, &comp, &membership, &mut scratch);
        let parts = split_at(tree, &comp, &membership, z, &mut scratch);
        membership.clear(&comp);
        parent[z.index()] = attach;
        for part in parts {
            work.push((part, Some(z)));
        }
    }
    TreeDecomposition::from_parents(tree, parent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use treenet_graph::generators::{random_tree, TreeFamily};

    fn log2_ceil(n: usize) -> u32 {
        (usize::BITS - (n.max(1) - 1).leading_zeros()).max(1)
    }

    #[test]
    fn depth_is_logarithmic() {
        let mut rng = SmallRng::seed_from_u64(7);
        for n in [2usize, 3, 9, 33, 100, 257] {
            let tree = random_tree(n, &mut rng);
            let h = balancing(&tree);
            assert!(
                h.depth() <= log2_ceil(n) + 1,
                "n={n} depth={} bound={}",
                h.depth(),
                log2_ceil(n) + 1
            );
        }
    }

    #[test]
    fn valid_on_all_families() {
        let mut rng = SmallRng::seed_from_u64(8);
        for family in TreeFamily::ALL {
            let tree = family.generate(33, &mut rng);
            let h = balancing(&tree);
            assert!(h.verify(&tree).is_ok(), "{}", family.name());
        }
    }

    #[test]
    fn pivot_is_bounded_by_depth_and_can_exceed_two() {
        // On a line every connected component has at most two outside
        // neighbors, so the pivot stays ≤ 2 ...
        let line = Tree::line(64);
        let h = balancing(&line);
        assert!(h.pivot_size() <= 2);
        // ... but on branching trees the balancing pivot exceeds 2 (it can
        // reach Θ(log n) in the worst case) — this is exactly why the
        // paper needs the ideal decomposition. Uniform tree, n=63, seed=0
        // gives pivot 4 (found by examples/scan_pivots.rs).
        let tree = random_tree(63, &mut SmallRng::seed_from_u64(0));
        let h = balancing(&tree);
        assert!(h.pivot_size() >= 3, "pivot = {}", h.pivot_size());
        assert!(h.pivot_size() <= h.depth() as usize);
    }

    #[test]
    fn root_is_a_balancer_of_the_whole_tree() {
        let tree = Tree::line(9);
        let h = balancing(&tree);
        // The centroid of a 9-path is vertex 4.
        assert_eq!(h.root(), VertexId(4));
        assert_eq!(h.depth(), 4);
    }

    #[test]
    fn single_and_two_vertex_trees() {
        let t1 = Tree::from_edges(1, &[]).unwrap();
        assert!(balancing(&t1).verify(&t1).is_ok());
        let t2 = Tree::line(2);
        let h = balancing(&t2);
        assert!(h.verify(&t2).is_ok());
        assert_eq!(h.depth(), 2);
    }
}
