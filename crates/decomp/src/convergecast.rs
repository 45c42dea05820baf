//! The convergecast forest: rooted spanning trees of the processor
//! communication graph, used by the message-passing schedulers for
//! in-network aggregation (termination detection and the per-network
//! combiner).
//!
//! The communication graph is infrastructure knowledge — it derives from
//! which processors share a resource, not from any demand's private data
//! — and the rooting rule is chosen to be *locally computable*: every
//! vertex sits at BFS depth `d` below its component's smallest id (the
//! root/leader), and its parent is its **smallest-id neighbor at depth
//! `d − 1`**. A processor that knows only its own BFS distance and its
//! neighbors' distances can evaluate this rule with no further
//! information, which is exactly what the charged message-passing
//! prologue in `treenet-dist` does (distance flooding, then a local
//! parent pick); this module is the reference construction the prologue
//! is asserted against.

/// A rooted spanning forest of an undirected graph over `0..n`, with
/// parent pointers, children lists and depths — one tree per connected
/// component, rooted at the component's smallest vertex id.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConvergecastForest {
    parent: Vec<Option<u32>>,
    children: Vec<Vec<u32>>,
    depth: Vec<u32>,
    roots: Vec<u32>,
    height: u32,
}

impl ConvergecastForest {
    /// Builds the forest from adjacency lists (assumed symmetric): BFS
    /// depths below each component's smallest id, then parent = the
    /// smallest-id neighbor one layer up. The parent rule depends only
    /// on a vertex's own depth and its neighbors' depths — the locally
    /// computable form the distributed prologue reproduces — so input
    /// list order is irrelevant by construction.
    ///
    /// # Panics
    ///
    /// Panics if a neighbor index is out of range.
    pub fn from_adjacency(adj: &[Vec<usize>]) -> Self {
        let n = adj.len();
        let mut parent: Vec<Option<u32>> = vec![None; n];
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut depth: Vec<u32> = vec![0; n];
        let mut visited = vec![false; n];
        let mut roots = Vec::new();
        let mut height = 0u32;
        let mut queue = std::collections::VecDeque::new();
        for start in 0..n {
            if visited[start] {
                continue;
            }
            // Layer 1: BFS distances from the component's smallest id.
            roots.push(start as u32);
            visited[start] = true;
            queue.push_back(start);
            while let Some(v) = queue.pop_front() {
                for &w in adj[v].iter() {
                    assert!(w < n, "neighbor {w} out of range");
                    if !visited[w] {
                        visited[w] = true;
                        depth[w] = depth[v] + 1;
                        height = height.max(depth[w]);
                        queue.push_back(w);
                    }
                }
            }
        }
        // Layer 2: the local parent pick, one vertex at a time.
        for v in 0..n {
            if depth[v] == 0 {
                continue;
            }
            let p = adj[v]
                .iter()
                .copied()
                .filter(|&w| depth[w] + 1 == depth[v])
                .min()
                .expect("BFS leaves every non-root a neighbor one layer up");
            parent[v] = Some(p as u32);
            children[p].push(v as u32);
        }
        for list in &mut children {
            list.sort_unstable();
        }
        ConvergecastForest {
            parent,
            children,
            depth,
            roots,
            height,
        }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the forest has zero vertices.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// The BFS parent of `v`, or `None` when `v` is a component root.
    pub fn parent(&self, v: usize) -> Option<usize> {
        self.parent[v].map(|p| p as usize)
    }

    /// The BFS children of `v`, ascending.
    pub fn children(&self, v: usize) -> &[u32] {
        &self.children[v]
    }

    /// Depth of `v` below its component root (roots have depth 0).
    pub fn depth(&self, v: usize) -> u32 {
        self.depth[v]
    }

    /// The component roots (each component's smallest vertex id),
    /// ascending.
    pub fn roots(&self) -> &[u32] {
        &self.roots
    }

    /// The forest height: the maximum depth over all vertices (0 when
    /// every component is a singleton).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// The vertices of each tree (connected component), sorted
    /// ascending, ordered by root id.
    pub fn components(&self) -> Vec<Vec<usize>> {
        let mut components = Vec::with_capacity(self.roots.len());
        let mut stack = Vec::new();
        for &root in &self.roots {
            let mut members = Vec::new();
            stack.push(root as usize);
            while let Some(v) = stack.pop() {
                members.push(v);
                stack.extend(self.children(v).iter().map(|&c| c as usize));
            }
            members.sort_unstable();
            components.push(members);
        }
        components
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roots_are_component_minima() {
        // Components {0,1,2} (path) and {3,4} (edge) and singleton {5}.
        let adj = vec![vec![1], vec![0, 2], vec![1], vec![4], vec![3], vec![]];
        let f = ConvergecastForest::from_adjacency(&adj);
        assert_eq!(f.roots(), &[0, 3, 5]);
        assert_eq!(f.parent(0), None);
        assert_eq!(f.parent(1), Some(0));
        assert_eq!(f.parent(2), Some(1));
        assert_eq!(f.parent(4), Some(3));
        assert_eq!(f.parent(5), None);
        assert_eq!(f.children(0), &[1]);
        assert_eq!(f.children(1), &[2]);
        assert_eq!(f.depth(2), 2);
        assert_eq!(f.height(), 2);
        assert_eq!(f.len(), 6);
        assert!(!f.is_empty());
    }

    #[test]
    fn bfs_prefers_small_ids() {
        // A clique: everyone hangs off vertex 0 at depth 1.
        let adj: Vec<Vec<usize>> = (0..4)
            .map(|v| (0..4).filter(|&w| w != v).collect())
            .collect();
        let f = ConvergecastForest::from_adjacency(&adj);
        assert_eq!(f.roots(), &[0]);
        assert_eq!(f.children(0), &[1, 2, 3]);
        assert_eq!(f.height(), 1);
    }

    #[test]
    fn parents_are_deterministic_under_unsorted_input() {
        let sorted = vec![vec![1, 2], vec![0, 2], vec![0, 1]];
        let unsorted = vec![vec![2, 1], vec![2, 0], vec![1, 0]];
        assert_eq!(
            ConvergecastForest::from_adjacency(&sorted),
            ConvergecastForest::from_adjacency(&unsorted)
        );
    }

    #[test]
    fn components_are_whole_trees_ordered_by_root() {
        // Components: {0,1,2,3} (path), {4,5} (edge), {6} and {7}.
        let adj = vec![
            vec![1],
            vec![0, 2],
            vec![1, 3],
            vec![2],
            vec![5],
            vec![4],
            vec![],
            vec![],
        ];
        let f = ConvergecastForest::from_adjacency(&adj);
        assert_eq!(
            f.components(),
            vec![vec![0, 1, 2, 3], vec![4, 5], vec![6], vec![7]]
        );
    }

    #[test]
    fn singleton_forest_has_height_zero() {
        let f = ConvergecastForest::from_adjacency(&[Vec::new(), Vec::new()]);
        assert_eq!(f.height(), 0);
        assert_eq!(f.roots(), &[0, 1]);
        assert!(f.children(0).is_empty());
    }
}
