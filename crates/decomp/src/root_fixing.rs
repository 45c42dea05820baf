//! The root-fixing tree decomposition (Section 4.2): `θ = 1`, depth up to
//! `n`.

use crate::TreeDecomposition;
use treenet_graph::component::Splitter;
use treenet_graph::{Tree, VertexId};

/// Builds the root-fixing decomposition: `H` is simply `T` rooted at `g`.
///
/// Every component `C(z)` is the `T`-subtree below `z`, whose only outside
/// neighbor is `z`'s parent — so the pivot size is `θ = 1` — but the depth
/// can be as large as `n` (e.g. rooting a path at an end). The sequential
/// Appendix-A algorithm implicitly uses this decomposition.
///
/// # Example
///
/// ```
/// use treenet_graph::{Tree, VertexId};
/// use treenet_decomp::root_fixing;
///
/// let tree = Tree::line(10);
/// let h = root_fixing(&tree, VertexId(0));
/// assert_eq!(h.pivot_size(), 1);
/// assert_eq!(h.depth(), 10);
/// ```
///
/// # Panics
///
/// Panics if `root` is out of range.
pub fn root_fixing(tree: &Tree, root: VertexId) -> TreeDecomposition {
    // A walk of the whole tree from `root` leaves every other vertex's
    // parent in `T` rooted there.
    let (splitter, _) = Splitter::whole(tree, root);
    let parent: Vec<Option<VertexId>> = tree
        .vertices()
        .map(|v| (v != root).then(|| splitter.parent(v)))
        .collect();
    TreeDecomposition::from_parents(tree, parent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use treenet_graph::generators::random_tree;

    #[test]
    fn pivot_size_is_one() {
        let mut rng = SmallRng::seed_from_u64(5);
        for n in [2usize, 5, 16, 40] {
            let tree = random_tree(n, &mut rng);
            let h = root_fixing(&tree, VertexId(0));
            assert!(h.pivot_size() <= 1, "n={n}");
            assert!(h.verify(&tree).is_ok(), "n={n}");
        }
    }

    #[test]
    fn depth_of_path_rooted_at_end_is_n() {
        let tree = Tree::line(12);
        let h = root_fixing(&tree, VertexId(0));
        assert_eq!(h.depth(), 12);
        // Rooted at the middle the depth halves (+1 for the root).
        let h = root_fixing(&tree, VertexId(6));
        assert_eq!(h.depth(), 7);
    }

    #[test]
    fn single_vertex() {
        let tree = Tree::from_edges(1, &[]).unwrap();
        let h = root_fixing(&tree, VertexId(0));
        assert_eq!(h.depth(), 1);
        assert_eq!(h.pivot_size(), 0);
        assert!(h.verify(&tree).is_ok());
    }
}
