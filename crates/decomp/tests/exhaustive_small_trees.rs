//! Exhaustive verification of the paper's core contribution on *every*
//! labeled tree with up to 7 vertices (via Prüfer enumeration: `n^(n-2)`
//! trees per size, 16,807 at n = 7): the ideal decomposition always has
//! pivot ≤ 2, depth within the Lemma 4.1 bound, and satisfies both
//! defining properties — no sampling gaps on small cases.

use treenet_decomp::{
    capture_node, critical_edges, ideal_depth_bound, ideal_with_stats, push_wings, Strategy,
};
use treenet_graph::generators::prufer_to_tree;
use treenet_graph::{RootedTree, VertexId};

/// Iterates all Prüfer sequences of length `n - 2` over `n` labels.
fn for_all_trees(n: usize, mut f: impl FnMut(treenet_graph::Tree)) {
    assert!(n >= 3);
    let len = n - 2;
    let mut seq = vec![0u32; len];
    loop {
        f(prufer_to_tree(n, &seq));
        // Odometer increment.
        let mut i = 0;
        loop {
            if i == len {
                return;
            }
            seq[i] += 1;
            if (seq[i] as usize) < n {
                break;
            }
            seq[i] = 0;
            i += 1;
        }
    }
}

#[test]
fn ideal_decomposition_on_all_trees_up_to_six() {
    for n in 3..=6usize {
        let mut count = 0usize;
        for_all_trees(n, |tree| {
            let (h, _) = ideal_with_stats(&tree);
            assert!(
                h.pivot_size() <= 2,
                "n={n} tree #{count}: pivot {}",
                h.pivot_size()
            );
            assert!(h.depth() <= ideal_depth_bound(n), "n={n} tree #{count}");
            h.verify(&tree)
                .unwrap_or_else(|e| panic!("n={n} tree #{count}: {e}"));
            count += 1;
        });
        assert_eq!(count, n.pow(n as u32 - 2), "all labeled trees enumerated");
    }
}

#[test]
fn ideal_decomposition_on_all_trees_of_seven() {
    // 16,807 trees; structural checks only (full verify() is O(n²) and
    // already exhaustive up to n = 6).
    let n = 7usize;
    let mut count = 0usize;
    let mut junctions_seen = 0usize;
    for_all_trees(n, |tree| {
        let (h, stats) = ideal_with_stats(&tree);
        assert!(h.pivot_size() <= 2);
        assert!(h.depth() <= ideal_depth_bound(n));
        junctions_seen += stats.junctions;
        count += 1;
    });
    assert_eq!(count, 16_807);
    // At n = 7 the recursion bottoms out before two boundary attachments
    // can share a split piece, so Case 2(b) never fires — the junction
    // logic is exercised at larger sizes instead (see
    // `junction_case_fires_on_branching_trees` in the ideal module).
    assert_eq!(
        junctions_seen, 0,
        "junction at n = 7 would contradict the size analysis"
    );
}

#[test]
fn all_strategies_verified_on_all_trees_of_five() {
    for strategy in Strategy::ALL {
        for_all_trees(5, |tree| {
            let h = strategy.build(&tree);
            h.verify(&tree)
                .unwrap_or_else(|e| panic!("{} failed: {e}", strategy.name()));
        });
    }
}

#[test]
fn capture_node_is_the_lca_on_all_trees_up_to_seven() {
    // The layering takes the capture node µ(d) as LCA_H(u, v). Pin that
    // against the definition, the minimum-depth H-node on path(u, v),
    // found by scanning the path, for every vertex pair of every labeled
    // tree up to n = 7 under all three strategies. Pin the critical edges
    // built from it too, against the wings of the scanned capture node
    // and of the path vertex nearest each pivot, and every vertex's wings
    // located by depth against the path scan.
    let mut pairs = 0usize;
    for n in 3..=7usize {
        for_all_trees(n, |tree| {
            let rooted = RootedTree::new(&tree, VertexId(0));
            for strategy in Strategy::ALL {
                let h = strategy.build(&tree);
                for u in tree.vertices() {
                    for v in tree.vertices() {
                        let path = rooted.path(u, v);
                        let scanned = *path
                            .vertices()
                            .iter()
                            .min_by_key(|&&x| h.node_depth(x))
                            .unwrap();
                        assert_eq!(h.lca(u, v), scanned, "{} {u} {v}", strategy.name());
                        assert_eq!(capture_node(&h, path.view()), scanned);
                        let mut expected = path.wings(scanned);
                        for &pivot in h.pivot(scanned) {
                            let nearest = *path
                                .vertices()
                                .iter()
                                .min_by_key(|&&y| rooted.distance(pivot, y))
                                .unwrap();
                            expected.extend(path.wings(nearest));
                        }
                        expected.sort_unstable();
                        expected.dedup();
                        assert_eq!(critical_edges(&h, &rooted, path.view()), expected);
                        // The wings located by depth, as the stored paths
                        // (which keep no vertices) need them.
                        for &y in path.vertices() {
                            let mut wings = Vec::new();
                            push_wings(&rooted, path.view(), y, &mut wings);
                            assert_eq!(wings, path.wings(y), "{u} ↝ {v} at {y}");
                        }
                        pairs += 1;
                    }
                }
            }
        });
    }
    assert_eq!(
        pairs,
        (3..=7usize)
            .map(|n| 3 * n.pow(n as u32 - 2) * n * n)
            .sum::<usize>()
    );
}
