//! Central, round-faithful Luby MIS and the greedy baseline.
//!
//! [`MisBackend::run`] runs either round-faithful algorithm over any
//! [`Adjacency`] view — slice-of-`Vec` adjacency or a zero-copy
//! [`CsrAdjacency`] — restricted to the vertices an activity mask
//! selects, with a reusable [`MisScratch`] and output buffer, so the
//! two-phase framework's step loop builds and allocates nothing.

/// Read-only adjacency view the round-faithful MIS algorithms run over.
///
/// The algorithms only ever ask for a vertex's neighbor slice, so both
/// the classic `&[Vec<u32>]` shape and a flat CSR layout plug in without
/// copying. Implementations must return each neighbor list with a stable
/// order; the MIS outcome itself is order-independent (win tests reduce
/// over the whole neighborhood), but determinism of the iteration is
/// easiest to reason about with stable lists.
pub trait Adjacency {
    /// Number of vertices.
    fn len(&self) -> usize;
    /// Neighbors of vertex `v` as local indices.
    fn neighbors(&self, v: usize) -> &[u32];
    /// Whether the graph has no vertices.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Adjacency for [Vec<u32>] {
    fn len(&self) -> usize {
        <[Vec<u32>]>::len(self)
    }
    fn neighbors(&self, v: usize) -> &[u32] {
        &self[v]
    }
}

/// Zero-copy CSR adjacency: neighbors of `v` are
/// `adj[offsets[v]..offsets[v+1]]`.
#[derive(Copy, Clone, Debug)]
pub struct CsrAdjacency<'a> {
    offsets: &'a [u32],
    adj: &'a [u32],
}

impl<'a> CsrAdjacency<'a> {
    /// Wraps CSR arrays (`offsets` has one entry per vertex plus one
    /// terminator equal to `adj.len()`).
    ///
    /// # Panics
    ///
    /// Panics if `offsets` is empty or its last entry differs from
    /// `adj.len()`.
    pub fn new(offsets: &'a [u32], adj: &'a [u32]) -> Self {
        assert!(!offsets.is_empty(), "offsets needs a terminator entry");
        assert_eq!(
            *offsets.last().unwrap() as usize,
            adj.len(),
            "offsets terminator must equal the neighbor-array length"
        );
        CsrAdjacency { offsets, adj }
    }
}

impl Adjacency for CsrAdjacency<'_> {
    fn len(&self) -> usize {
        self.offsets.len() - 1
    }
    fn neighbors(&self, v: usize) -> &[u32] {
        &self.adj[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }
}

/// Reusable per-run state of [`MisBackend::run`]. Create once, pass to
/// every call: buffers are retained at their high-water capacity so
/// steady-state runs allocate nothing.
#[derive(Clone, Debug, Default)]
pub struct MisScratch {
    /// Whether each vertex still competes.
    alive: Vec<bool>,
    /// The competing vertices, ascending.
    live: Vec<u32>,
}

/// The per-(vertex, iteration) random value used by Luby's algorithm,
/// derived from public inputs by a SplitMix64-style hash.
///
/// All parties evaluating `luby_value` with the same arguments get the
/// same value, so a distributed node can compute its neighbors' draws
/// locally — this is the "common randomness" device that makes the
/// centralized and message-passing executions identical (see the crate
/// docs). Each output is computationally indistinguishable from an
/// independent uniform `u64`, which is all Luby's analysis needs.
///
/// `tag` namespaces independent MIS computations (the scheduler uses one
/// tag per (epoch, stage, step) tuple).
#[inline]
pub fn luby_value(seed: u64, tag: u64, vertex_key: u64, iteration: u64) -> u64 {
    let mut x = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(tag)
        .wrapping_mul(0xbf58_476d_1ce4_e5b9)
        .wrapping_add(vertex_key)
        .wrapping_mul(0x94d0_49bb_1331_11eb)
        .wrapping_add(iteration);
    // SplitMix64 finalizer.
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Whether vertex `v` beats vertex `w` in iteration `it` (strictly smaller
/// value; ties broken by vertex key, which is unique).
#[inline]
fn beats(seed: u64, tag: u64, it: u64, v_key: u64, w_key: u64) -> bool {
    let a = luby_value(seed, tag, v_key, it);
    let b = luby_value(seed, tag, w_key, it);
    (a, v_key) < (b, w_key)
}

/// Which MIS algorithm the schedulers plug in for the `Time(MIS)` factor.
///
/// The paper's bounds are stated relative to a black-box MIS routine:
/// Luby's randomized algorithm (`O(log N)` rounds) or a deterministic
/// alternative (they cite the `2^O(√log N)` network-decomposition method;
/// we provide the simpler deterministic *local-minimum* rule, whose round
/// count is the longest decreasing-key chain — `O(N)` worst case, small
/// in practice).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
// The hidden variant is a genuine test-only adversary, not a
// non-exhaustive marker.
#[allow(clippy::manual_non_exhaustive)]
pub enum MisBackend {
    /// Luby's randomized algorithm with common-randomness values.
    #[default]
    Luby,
    /// Deterministic rule: a vertex joins when its key is the minimum
    /// among still-active neighbors. Produces exactly the sequential
    /// greedy-by-key MIS, distributedly.
    DeterministicGreedy,
    /// Test-only adversary whose `beats` test never lets any vertex win
    /// against an active conflicting neighbor, so an MIS over a graph
    /// with at least one edge never makes progress. Exists to pin the
    /// iteration-budget bail-out paths of the runners (every shipped
    /// backend removes at least one vertex per iteration, making those
    /// paths otherwise unreachable). It has no central simulation:
    /// [`MisBackend::run`] panics.
    #[doc(hidden)]
    AdversarialStall,
}

impl MisBackend {
    /// Short stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            MisBackend::Luby => "luby",
            MisBackend::DeterministicGreedy => "det-greedy",
            MisBackend::AdversarialStall => "adversarial-stall",
        }
    }

    /// An MIS of the subgraph of `adj` induced on the vertices with
    /// `active[v]`, computed round-faithfully: `mis` is cleared and
    /// receives it as ascending indices of `adj`, and the iteration count
    /// is returned. Per iteration every still-active vertex that
    /// [`beats`](MisBackend::beats) its whole active neighborhood joins
    /// and deactivates its closed neighborhood. Inactive vertices neither
    /// compete nor block, so the outcome equals a run on the induced
    /// subgraph relabeled in ascending order.
    ///
    /// `keys[v]` is vertex `v`'s globally unique stable key (e.g. its
    /// instance id); `seed` and `tag` feed [`luby_value`]. Luby takes
    /// `O(log N)` iterations in expectation; both backends take at most
    /// `N`, since each iteration removes at least the smallest active
    /// vertex. The deterministic backend yields the sequential greedy MIS
    /// by increasing key (tested), at a worst-case `O(N)` round cost.
    ///
    /// # Panics
    ///
    /// Panics if `keys` or `active` differ in length from `adj`, if a
    /// neighbor is out of range, or for the test-only `AdversarialStall`.
    // Graph, keys, mask, the common randomness and the caller's reused
    // buffers: every argument is an input of the one MIS entry point.
    #[allow(clippy::too_many_arguments)]
    pub fn run<A: Adjacency + ?Sized>(
        self,
        adj: &A,
        keys: &[u64],
        active: &[bool],
        seed: u64,
        tag: u64,
        scratch: &mut MisScratch,
        mis: &mut Vec<u32>,
    ) -> u64 {
        assert!(
            self != MisBackend::AdversarialStall,
            "AdversarialStall is a test-only adversary for the distributed \
             runners' budget paths and has no central simulation"
        );
        let n = adj.len();
        assert_eq!(keys.len(), n, "one key per vertex");
        assert_eq!(active.len(), n, "one activity flag per vertex");
        let MisScratch { alive, live } = scratch;
        alive.clear();
        alive.extend_from_slice(active);
        live.clear();
        live.extend((0..n as u32).filter(|&v| active[v as usize]));
        mis.clear();
        let mut it = 0u64;
        while !live.is_empty() {
            // `mis` doubles as the winner accumulator: this iteration's
            // winners are `mis[round_start..]`, ascending.
            let round_start = mis.len();
            for &v in live.iter() {
                let v = v as usize;
                let wins = adj.neighbors(v).iter().all(|&w| {
                    let w = w as usize;
                    !alive[w] || self.beats(seed, tag, it, keys[v], keys[w])
                });
                if wins {
                    mis.push(v as u32);
                }
            }
            debug_assert!(mis.len() > round_start, "some vertex always wins");
            for &winner in &mis[round_start..] {
                let v = winner as usize;
                alive[v] = false;
                for &w in adj.neighbors(v) {
                    alive[w as usize] = false;
                }
            }
            live.retain(|&v| alive[v as usize]);
            it += 1;
        }
        mis.sort_unstable();
        it
    }

    /// Whether vertex with key `v_key` beats `w_key` in iteration `it`
    /// under this backend — shared by [`MisBackend::run`] and the
    /// message-passing nodes so executions stay bit-identical.
    #[inline]
    pub fn beats(self, seed: u64, tag: u64, it: u64, v_key: u64, w_key: u64) -> bool {
        match self {
            MisBackend::Luby => beats(seed, tag, it, v_key, w_key),
            MisBackend::DeterministicGreedy => v_key < w_key,
            MisBackend::AdversarialStall => false,
        }
    }
}

/// Deterministic greedy MIS: scan vertices in index order, take any vertex
/// whose neighbors are all untaken. The classic sequential baseline.
pub fn greedy_mis(adj: &[Vec<u32>]) -> Vec<u32> {
    let n = adj.len();
    let mut blocked = vec![false; n];
    let mut mis = Vec::new();
    for v in 0..n {
        if blocked[v] {
            continue;
        }
        mis.push(v as u32);
        blocked[v] = true;
        for &w in &adj[v] {
            blocked[w as usize] = true;
        }
    }
    mis
}

/// Checks that `mis` is independent and maximal in `adj`.
pub fn verify_mis(adj: &[Vec<u32>], mis: &[u32]) -> bool {
    let n = adj.len();
    let mut in_mis = vec![false; n];
    for &v in mis {
        if v as usize >= n {
            return false;
        }
        in_mis[v as usize] = true;
    }
    // Independent: no edge inside.
    for &v in mis {
        if adj[v as usize].iter().any(|&w| in_mis[w as usize]) {
            return false;
        }
    }
    // Maximal: every outside vertex has a neighbor inside.
    (0..n).all(|v| in_mis[v] || adj[v].iter().any(|&w| in_mis[w as usize]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> Vec<Vec<u32>> {
        (0..n)
            .map(|v| {
                let mut nb = Vec::new();
                if v > 0 {
                    nb.push(v as u32 - 1);
                }
                if v + 1 < n {
                    nb.push(v as u32 + 1);
                }
                nb
            })
            .collect()
    }

    /// An unmasked run: the MIS and the iteration count.
    fn run(
        backend: MisBackend,
        adj: &[Vec<u32>],
        keys: &[u64],
        seed: u64,
        tag: u64,
    ) -> (Vec<u32>, u64) {
        let mut mis = Vec::new();
        let active = vec![true; adj.len()];
        let mut scratch = MisScratch::default();
        let rounds = backend.run(adj, keys, &active, seed, tag, &mut scratch, &mut mis);
        (mis, rounds)
    }

    fn luby(adj: &[Vec<u32>], keys: &[u64], seed: u64, tag: u64) -> (Vec<u32>, u64) {
        run(MisBackend::Luby, adj, keys, seed, tag)
    }

    #[test]
    fn luby_on_path_is_valid() {
        for n in [1usize, 2, 3, 10, 57] {
            let adj = path_graph(n);
            let keys: Vec<u64> = (0..n as u64).map(|k| k + 1000).collect();
            for seed in 0..10u64 {
                let (mis, rounds) = luby(&adj, &keys, seed, 7);
                assert!(verify_mis(&adj, &mis), "n={n} seed={seed}");
                assert!(rounds >= 1);
            }
        }
    }

    #[test]
    fn luby_is_deterministic_per_seed_and_tag() {
        let adj = path_graph(20);
        let keys: Vec<u64> = (0..20).collect();
        let a = luby(&adj, &keys, 5, 1);
        let b = luby(&adj, &keys, 5, 1);
        assert_eq!(a, b);
        let c = luby(&adj, &keys, 5, 2);
        // Different tags are independent draws; on a 20-path they almost
        // surely differ.
        assert_ne!(a.0, c.0);
    }

    #[test]
    fn empty_and_singleton_graphs() {
        assert_eq!(luby(&[], &[], 1, 1), (vec![], 0));
        assert_eq!(luby(&[vec![]], &[9], 1, 1), (vec![0], 1));
    }

    #[test]
    fn complete_graph_yields_single_vertex() {
        let n = 8usize;
        let adj: Vec<Vec<u32>> = (0..n)
            .map(|v| (0..n as u32).filter(|&w| w as usize != v).collect())
            .collect();
        let keys: Vec<u64> = (0..n as u64).collect();
        let (mis, rounds) = luby(&adj, &keys, 3, 3);
        assert_eq!(mis.len(), 1);
        assert_eq!(rounds, 1);
        assert!(verify_mis(&adj, &mis));
    }

    #[test]
    fn mask_restricts_the_competition() {
        // Path 0-1-2-3 with keys = indices: unmasked, the local-minimum
        // rule takes 0, then 2; with vertex 0 masked out it runs on 1-2-3
        // and takes 1, then 3 — vertex 0 neither joins nor blocks.
        let adj = path_graph(4);
        let keys = [0, 1, 2, 3];
        let mut scratch = MisScratch::default();
        let mut mis = Vec::new();
        let backend = MisBackend::DeterministicGreedy;
        let rounds = backend.run(&adj[..], &keys, &[true; 4], 0, 0, &mut scratch, &mut mis);
        assert_eq!((&mis[..], rounds), (&[0, 2][..], 2));
        let rest = [false, true, true, true];
        let rounds = backend.run(&adj[..], &keys, &rest, 0, 0, &mut scratch, &mut mis);
        assert_eq!((&mis[..], rounds), (&[1, 3][..], 2));
        let rounds = backend.run(&adj[..], &keys, &[false; 4], 0, 0, &mut scratch, &mut mis);
        assert_eq!((mis.len(), rounds), (0, 0));
    }

    #[test]
    fn greedy_is_valid_and_prefers_low_indices() {
        let adj = path_graph(6);
        let mis = greedy_mis(&adj);
        assert_eq!(mis, vec![0, 2, 4]);
        assert!(verify_mis(&adj, &mis));
        assert_eq!(greedy_mis(&[]), Vec::<u32>::new());
    }

    #[test]
    fn verify_rejects_bad_sets() {
        let adj = path_graph(4);
        // Not independent.
        assert!(!verify_mis(&adj, &[0, 1]));
        // Not maximal.
        assert!(!verify_mis(&adj, &[0]));
        // Out of range.
        assert!(!verify_mis(&adj, &[9]));
        // Valid.
        assert!(verify_mis(&adj, &[0, 2]) || verify_mis(&adj, &[0, 3]));
    }

    #[test]
    fn luby_rounds_scale_logarithmically() {
        // Average rounds on random-ish graphs stays near log2(n): we check
        // a generous 4·log2(n) bound that holds with huge probability.
        for exp in 3..10u32 {
            let n = 1usize << exp;
            let adj = path_graph(n);
            let keys: Vec<u64> = (0..n as u64).collect();
            let mut total = 0u64;
            for seed in 0..20u64 {
                total += luby(&adj, &keys, seed, 0).1;
            }
            let avg = total as f64 / 20.0;
            assert!(
                avg <= 4.0 * (n as f64).log2().max(1.0),
                "n={n}: avg Luby rounds {avg}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "terminator")]
    fn csr_rejects_mismatched_arrays() {
        let _ = CsrAdjacency::new(&[0, 3], &[1]);
    }

    #[test]
    fn luby_value_differs_across_inputs() {
        let v = luby_value(1, 2, 3, 4);
        assert_ne!(v, luby_value(1, 2, 3, 5));
        assert_ne!(v, luby_value(1, 2, 4, 4));
        assert_ne!(v, luby_value(1, 3, 3, 4));
        assert_ne!(v, luby_value(2, 2, 3, 4));
        assert_eq!(v, luby_value(1, 2, 3, 4));
    }

    #[test]
    fn deterministic_equals_sequential_greedy_by_key() {
        // With keys = indices, the local-minimum rule reproduces the
        // sequential greedy MIS exactly.
        for n in [1usize, 2, 5, 12, 33] {
            let adj = path_graph(n);
            let keys: Vec<u64> = (0..n as u64).collect();
            let (mis, _) = run(MisBackend::DeterministicGreedy, &adj, &keys, 0, 0);
            assert_eq!(mis, greedy_mis(&adj), "n={n}");
            assert!(verify_mis(&adj, &mis));
        }
    }

    #[test]
    fn deterministic_respects_key_order_not_index_order() {
        let det =
            |adj: &[Vec<u32>], keys: &[u64]| run(MisBackend::DeterministicGreedy, adj, keys, 0, 0);
        // Reversed keys flip the greedy orientation on a 3-path:
        // keys (2,1,0) → vertex 2 wins, then vertex 0.
        assert_eq!(det(&path_graph(3), &[2, 1, 0]).0, vec![0, 2]);
        // Decreasing chain realizes the worst-case round count: keys
        // strictly decreasing along the path → one winner per round.
        let n = 9;
        let adj = path_graph(n);
        let keys: Vec<u64> = (0..n as u64).rev().collect();
        let (mis, rounds) = det(&adj, &keys);
        assert!(verify_mis(&adj, &mis));
        assert_eq!(rounds, 5, "decreasing keys serialize the rounds");
    }

    #[test]
    fn backend_dispatch() {
        let adj = path_graph(8);
        let keys: Vec<u64> = (0..8).collect();
        let (a, _) = run(MisBackend::Luby, &adj, &keys, 3, 4);
        let (b, _) = run(MisBackend::DeterministicGreedy, &adj, &keys, 3, 4);
        assert!(verify_mis(&adj, &a));
        assert!(verify_mis(&adj, &b));
        assert_eq!(b, greedy_mis(&adj));
        assert_eq!(MisBackend::Luby.name(), "luby");
        assert_eq!(MisBackend::DeterministicGreedy.name(), "det-greedy");
        assert_eq!(MisBackend::default(), MisBackend::Luby);
        // beats() agrees with the run outcomes' first-iteration logic.
        assert!(MisBackend::DeterministicGreedy.beats(0, 0, 0, 1, 2));
        assert!(!MisBackend::DeterministicGreedy.beats(0, 0, 0, 2, 1));
    }
}
