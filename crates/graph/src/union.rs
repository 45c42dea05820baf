//! A growable disjoint-set forest (union–find).
//!
//! Used by the online scheduling engine to maintain conflict components
//! over demands as arrivals merge them: an arrival can only *join*
//! components (it conflicts with everything on its path edges), and a
//! departure never has to split one — solving a conflict-closed superset
//! of a component is still exact, so over-merged components cost only
//! re-solve work, never correctness. That asymmetry is exactly what a
//! union-find supports in near-constant amortized time.
//!
//! Determinism: the representative of a set depends only on the sequence
//! of `make_set`/`union` calls, never on hashing or iteration order, so
//! component-keyed state (caches, dirty sets) is reproducible across runs.

/// A growable union–find over dense `u32` keys, with path halving and
/// union by size.
///
/// # Example
///
/// ```
/// use treenet_graph::UnionFind;
///
/// let mut uf = UnionFind::new(3);
/// assert_ne!(uf.find(0), uf.find(2));
/// uf.union(0, 2);
/// assert_eq!(uf.find(0), uf.find(2));
/// let fresh = uf.make_set();
/// assert_eq!(fresh, 3);
/// assert_eq!(uf.len(), 4);
/// assert_eq!(uf.set_count(), 3); // {0,2}, {1}, {3}
/// ```
#[derive(Clone, Debug, Default)]
pub struct UnionFind {
    /// `parent[x]` — a root points at itself.
    parent: Vec<u32>,
    /// Set size, meaningful at roots only.
    size: Vec<u32>,
    /// Number of disjoint sets.
    sets: usize,
}

impl UnionFind {
    /// Creates a forest of `n` singleton sets `0..n`.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            sets: n,
        }
    }

    /// Number of elements ever created.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the forest has no elements.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets.
    pub fn set_count(&self) -> usize {
        self.sets
    }

    /// Appends a fresh singleton set and returns its key.
    pub fn make_set(&mut self) -> u32 {
        let x = self.parent.len() as u32;
        self.parent.push(x);
        self.size.push(1);
        self.sets += 1;
        x
    }

    /// The representative of `x`'s set, compressing the path as it goes.
    ///
    /// # Panics
    ///
    /// Panics if `x` is out of range.
    pub fn find(&mut self, x: u32) -> u32 {
        let mut x = x;
        // Path halving: every node on the walk re-points to its
        // grandparent, keeping trees near-flat without recursion.
        while self.parent[x as usize] != x {
            let grandparent = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grandparent;
            x = grandparent;
        }
        x
    }

    /// Merges the sets of `a` and `b`; returns the surviving root, and
    /// whether the call actually merged two distinct sets.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of range.
    pub fn union(&mut self, a: u32, b: u32) -> (u32, bool) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return (ra, false);
        }
        // Union by size; ties go to the smaller key so the outcome is a
        // pure function of the call sequence.
        let (big, small) = match self.size[ra as usize].cmp(&self.size[rb as usize]) {
            std::cmp::Ordering::Greater => (ra, rb),
            std::cmp::Ordering::Less => (rb, ra),
            std::cmp::Ordering::Equal => (ra.min(rb), ra.max(rb)),
        };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
        self.sets -= 1;
        (big, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_then_unions() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.len(), 5);
        assert_eq!(uf.set_count(), 5);
        assert!(!uf.is_empty());
        for x in 0..5 {
            assert_eq!(uf.find(x), x);
        }
        let (_, merged) = uf.union(0, 1);
        assert!(merged);
        let (_, merged) = uf.union(0, 1);
        assert!(!merged);
        assert_eq!(uf.set_count(), 4);
        assert_eq!(uf.find(0), uf.find(1));
        assert_ne!(uf.find(0), uf.find(2));
    }

    #[test]
    fn grows_with_make_set() {
        let mut uf = UnionFind::new(0);
        assert!(uf.is_empty());
        let a = uf.make_set();
        let b = uf.make_set();
        assert_eq!((a, b), (0, 1));
        uf.union(a, b);
        let c = uf.make_set();
        assert_eq!(c, 2);
        assert_eq!(uf.set_count(), 2);
        assert_ne!(uf.find(a), uf.find(c));
    }

    #[test]
    fn representative_is_call_sequence_deterministic() {
        // Two forests fed the same unions agree on every representative.
        let build = || {
            let mut uf = UnionFind::new(8);
            for (a, b) in [(0, 1), (2, 3), (1, 3), (6, 7), (5, 6)] {
                uf.union(a, b);
            }
            uf
        };
        let mut x = build();
        let mut y = build();
        for k in 0..8 {
            assert_eq!(x.find(k), y.find(k));
        }
        // Equal-size tie goes to the smaller key.
        let mut uf = UnionFind::new(2);
        assert_eq!(uf.union(1, 0), (0, true));
    }

    #[test]
    fn transitive_merges_collapse_to_one_set() {
        let mut uf = UnionFind::new(100);
        for x in 1..100 {
            uf.union(x - 1, x);
        }
        assert_eq!(uf.set_count(), 1);
        let root = uf.find(0);
        for x in 0..100 {
            assert_eq!(uf.find(x), root);
        }
    }
}
