//! Property-based tests for the graph substrate.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use treenet_graph::component::{
    find_balancer, is_balancer, is_component, neighborhood, split_at, Membership, Scratch,
};
use treenet_graph::generators::{prufer_to_tree, random_tree, TreeFamily};
use treenet_graph::{RootedTree, VertexId};

fn arb_prufer(max_n: usize) -> impl Strategy<Value = (usize, Vec<u32>)> {
    (3usize..max_n).prop_flat_map(|n| (Just(n), proptest::collection::vec(0u32..(n as u32), n - 2)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every Prüfer sequence decodes to a valid tree with the right degree
    /// profile: degree(v) = 1 + multiplicity of v in the sequence.
    #[test]
    fn prufer_degrees_match_multiplicity((n, seq) in arb_prufer(40)) {
        let tree = prufer_to_tree(n, &seq);
        for v in tree.vertices() {
            let mult = seq.iter().filter(|&&x| x == v.0).count();
            prop_assert_eq!(tree.degree(v), mult + 1);
        }
    }

    /// LCA is symmetric, idempotent on ancestors, and the path through the
    /// LCA has the length reported by `distance`.
    #[test]
    fn lca_and_distance_agree((n, seq) in arb_prufer(40), root in 0u32..40, a in 0u32..40, b in 0u32..40) {
        let tree = prufer_to_tree(n, &seq);
        let root = VertexId(root % n as u32);
        let a = VertexId(a % n as u32);
        let b = VertexId(b % n as u32);
        let r = RootedTree::new(&tree, root);
        prop_assert_eq!(r.lca(a, b), r.lca(b, a));
        let w = r.lca(a, b);
        prop_assert!(r.is_ancestor_or_self(w, a));
        prop_assert!(r.is_ancestor_or_self(w, b));
        prop_assert_eq!(r.distance(a, b) as usize, r.path(a, b).len());
        // The path visits the LCA.
        prop_assert!(r.path(a, b).contains_vertex(w));
    }

    /// The path is simple: no repeated vertices or edges.
    #[test]
    fn paths_are_simple((n, seq) in arb_prufer(30), a in 0u32..30, b in 0u32..30) {
        let tree = prufer_to_tree(n, &seq);
        let a = VertexId(a % n as u32);
        let b = VertexId(b % n as u32);
        let r = RootedTree::new(&tree, VertexId(0));
        let p = r.path(a, b);
        let mut vs: Vec<_> = p.vertices().to_vec();
        vs.sort_unstable();
        vs.dedup();
        prop_assert_eq!(vs.len(), p.vertices().len());
        let mut es: Vec<_> = p.edges().to_vec();
        es.sort_unstable();
        es.dedup();
        prop_assert_eq!(es.len(), p.edges().len());
    }

    /// Median is invariant under argument permutation and lies on all
    /// pairwise paths.
    #[test]
    fn median_permutation_invariant((n, seq) in arb_prufer(25), a in 0u32..25, b in 0u32..25, c in 0u32..25) {
        let tree = prufer_to_tree(n, &seq);
        let a = VertexId(a % n as u32);
        let b = VertexId(b % n as u32);
        let c = VertexId(c % n as u32);
        let r = RootedTree::new(&tree, VertexId(0));
        let m = r.median(a, b, c);
        prop_assert_eq!(m, r.median(b, c, a));
        prop_assert_eq!(m, r.median(c, a, b));
        prop_assert_eq!(m, r.median(b, a, c));
        prop_assert!(r.path(a, b).contains_vertex(m));
        prop_assert!(r.path(b, c).contains_vertex(m));
        prop_assert!(r.path(a, c).contains_vertex(m));
    }

    /// Balancers found by `find_balancer` satisfy the definition, and
    /// splitting at them partitions the component.
    #[test]
    fn balancer_definition_holds(seed in 0u64..500, n in 3usize..50) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let tree = random_tree(n, &mut rng);
        let members: Vec<VertexId> = tree.vertices().collect();
        let mut membership = Membership::new(n);
        membership.mark(&members);
        prop_assert!(is_component(&tree, &members, &membership));
        let mut scratch = Scratch::new(n);
        let z = find_balancer(&tree, &members, &membership, &mut scratch);
        prop_assert!(is_balancer(&tree, &members, &membership, z));
        let parts = split_at(&tree, &members, &membership, z, &mut scratch);
        let total: usize = parts.iter().map(Vec::len).sum();
        prop_assert_eq!(total, n - 1);
        for part in &parts {
            prop_assert!(part.len() <= n / 2);
            // Each part is itself a component whose neighborhood contains z.
            let mut sub = Membership::new(n);
            sub.mark(part);
            prop_assert!(is_component(&tree, part, &sub));
            prop_assert!(neighborhood(&tree, part, &sub).contains(&z));
        }
    }

    /// All generator families produce valid trees for arbitrary sizes.
    #[test]
    fn families_are_valid(seed in 0u64..200, n in 1usize..80) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for family in TreeFamily::ALL {
            let t = family.generate(n, &mut rng);
            prop_assert_eq!(t.len(), n);
        }
    }
}
