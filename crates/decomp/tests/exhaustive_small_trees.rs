//! Exhaustive verification of the paper's core contribution on *every*
//! labeled tree with up to 7 vertices (via Prüfer enumeration: `n^(n-2)`
//! trees per size, 16,807 at n = 7): the ideal decomposition always has
//! pivot ≤ 2, depth within the Lemma 4.1 bound, and satisfies both
//! defining properties — no sampling gaps on small cases.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use treenet_decomp::{
    capture_node, critical_edges, ideal_depth_bound, ideal_with_stats, push_wings, root_fixing,
    Strategy, TreeDecomposition,
};
use treenet_graph::generators::{prufer_to_tree, random_tree};
use treenet_graph::{RootedTree, Tree, VertexId};

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

/// The depth of `x` in `H` by climbing to the root (the root has depth 1).
fn climbed_depth(h: &TreeDecomposition, x: VertexId) -> u32 {
    let (mut x, mut depth) = (x, 1);
    while let Some(p) = h.parent(x) {
        x = p;
        depth += 1;
    }
    depth
}

/// `LCA_H(x, y)` by its definition: climb the deeper end to the other's
/// depth, then both ends until they meet.
fn climbed_lca(h: &TreeDecomposition, x: VertexId, y: VertexId) -> VertexId {
    let (mut x, mut y) = (x, y);
    let (mut dx, mut dy) = (climbed_depth(h, x), climbed_depth(h, y));
    while dx > dy {
        x = h.parent(x).unwrap();
        dx -= 1;
    }
    while dy > dx {
        y = h.parent(y).unwrap();
        dy -= 1;
    }
    while x != y {
        x = h.parent(x).unwrap();
        y = h.parent(y).unwrap();
    }
    x
}

/// Checks the decomposition's `O(1)` queries (depth, LCA, LCA depth and
/// `C(z)` membership) against climbing, for every `x` and each `y` of
/// `partners`.
fn assert_queries_match_climbing(
    h: &TreeDecomposition,
    tree: &Tree,
    partners: &[VertexId],
    label: &str,
) {
    for x in tree.vertices() {
        assert_eq!(h.node_depth(x), climbed_depth(h, x), "{label}: depth {x}");
        for &y in partners {
            let lca = climbed_lca(h, x, y);
            assert_eq!(h.lca(x, y), lca, "{label}: LCA_H({x}, {y})");
            assert_eq!(h.lca_depth(x, y), climbed_depth(h, lca), "{label} {x} {y}");
            assert_eq!(h.in_component(x, y), lca == x, "{label}: {y} ∈ C({x})");
        }
    }
}

#[test]
fn table_queries_equal_climbing_on_all_trees_up_to_seven() {
    let mut trees = 0usize;
    for n in 3..=7usize {
        for_all_trees(n, |tree| {
            let all: Vec<VertexId> = tree.vertices().collect();
            for strategy in Strategy::ALL {
                let h = strategy.build(&tree);
                assert_queries_match_climbing(&h, &tree, &all, strategy.name());
            }
            trees += 1;
        });
    }
    assert_eq!(
        trees,
        (3..=7usize).map(|n| n.pow(n as u32 - 2)).sum::<usize>()
    );
}

#[test]
fn table_queries_equal_climbing_past_byte_depths() {
    // Rooted at an end, a 300-vertex path has H-depths up to 300, past
    // what a byte holds.
    let path = Tree::line(300);
    let h = root_fixing(&path, VertexId(0));
    assert_eq!(h.depth(), 300);
    let all: Vec<VertexId> = path.vertices().collect();
    assert_queries_match_climbing(&h, &path, &all, "root-fixing path");
    // A 2,000-vertex random tree under every strategy, each vertex
    // against 61 partners spread over the labels.
    let tree = random_tree(2000, &mut SmallRng::seed_from_u64(31));
    let partners: Vec<VertexId> = (0..2000).step_by(33).map(VertexId).collect();
    for strategy in Strategy::ALL {
        let h = strategy.build(&tree);
        assert_queries_match_climbing(&h, &tree, &partners, strategy.name());
    }
}

#[test]
fn table_queries_equal_climbing_past_the_top_table_level() {
    // Past 2^17 vertices a long preorder range is read one 2^16-long
    // table range at a time. A path rooted at m lists m, m − 1, …, 0 and
    // then m + 1, …: between a vertex just below m and one near the far
    // end, the shallowest vertex, m + 1, lies in neither the first nor
    // the last range read.
    let (n, m) = ((1u32 << 18) + (1 << 16), 1u32 << 17);
    let path = Tree::line(n as usize);
    let h = root_fixing(&path, VertexId(m));
    let lca = |x: u32, y: u32| match (x <= m, y <= m) {
        (true, true) => x.max(y),
        (false, false) => x.min(y),
        _ => m,
    };
    let samples: Vec<u32> = (0..n).step_by(2477).chain([m - 10, n - 1]).collect();
    for &x in &samples {
        for &y in &samples {
            let (vx, vy) = (VertexId(x), VertexId(y));
            let l = lca(x, y);
            assert_eq!(h.lca(vx, vy), VertexId(l), "LCA_H({vx}, {vy})");
            assert_eq!(h.lca_depth(vx, vy), l.abs_diff(m) + 1);
            assert_eq!(h.in_component(vx, vy), l == x);
        }
    }
    // And an ideal decomposition of a random tree that large, against
    // climbing.
    let tree = random_tree(150_000, &mut SmallRng::seed_from_u64(32));
    let h = Strategy::Ideal.build(&tree);
    let partners: Vec<VertexId> = (0..150_000).step_by(4999).map(VertexId).collect();
    for x in (0..150_000).step_by(1013).map(VertexId) {
        for &y in &partners {
            let lca = climbed_lca(&h, x, y);
            assert_eq!(h.lca(x, y), lca, "ideal: LCA_H({x}, {y})");
            assert_eq!(h.lca_depth(x, y), climbed_depth(&h, lca));
        }
    }
}
