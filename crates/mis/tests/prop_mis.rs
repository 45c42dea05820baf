//! The activity mask of [`MisBackend::run`]: a masked run over a graph is
//! the run over the subgraph induced on the active vertices, relabeled in
//! ascending order — same MIS (mapped back through the kept indices) and
//! same iteration count, under both backends.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use treenet_mis::{verify_mis, CsrAdjacency, MisBackend, MisScratch};

const BACKENDS: [MisBackend; 2] = [MisBackend::Luby, MisBackend::DeterministicGreedy];

/// G(n, p) with sorted neighbor lists.
fn random_graph(n: usize, p: f64, rng: &mut SmallRng) -> Vec<Vec<u32>> {
    let mut adj = vec![Vec::new(); n];
    for a in 0..n {
        for b in a + 1..n {
            if rng.gen_bool(p) {
                adj[a].push(b as u32);
                adj[b].push(a as u32);
            }
        }
    }
    adj
}

/// Checks the masked run over `adj` (as CSR) against an unmasked run over
/// the induced subgraph (as `Vec` adjacency), for both backends.
fn check_mask(
    adj: &[Vec<u32>],
    keys: &[u64],
    active: &[bool],
    seed: u64,
    tag: u64,
) -> Result<(), TestCaseError> {
    let mut offsets = vec![0u32];
    let mut flat = Vec::new();
    for row in adj {
        flat.extend_from_slice(row);
        offsets.push(flat.len() as u32);
    }
    let csr = CsrAdjacency::new(&offsets, &flat);
    let kept: Vec<u32> = (0..adj.len() as u32)
        .filter(|&v| active[v as usize])
        .collect();
    let mut local = vec![u32::MAX; adj.len()];
    for (i, &v) in kept.iter().enumerate() {
        local[v as usize] = i as u32;
    }
    let induced: Vec<Vec<u32>> = kept
        .iter()
        .map(|&v| {
            adj[v as usize]
                .iter()
                .filter(|&&w| active[w as usize])
                .map(|&w| local[w as usize])
                .collect()
        })
        .collect();
    let induced_keys: Vec<u64> = kept.iter().map(|&v| keys[v as usize]).collect();
    let all = vec![true; kept.len()];
    let mut scratch = MisScratch::default();
    let (mut masked, mut sub) = (Vec::new(), Vec::new());
    for backend in BACKENDS {
        let rounds = backend.run(&csr, keys, active, seed, tag, &mut scratch, &mut masked);
        let sub_rounds = backend.run(
            induced.as_slice(),
            &induced_keys,
            &all,
            seed,
            tag,
            &mut scratch,
            &mut sub,
        );
        prop_assert!(verify_mis(&induced, &sub), "{:?}", backend);
        let mapped: Vec<u32> = sub.iter().map(|&i| kept[i as usize]).collect();
        prop_assert_eq!(&masked, &mapped, "{:?}", backend);
        prop_assert_eq!(rounds, sub_rounds, "{:?}", backend);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random graphs of every density, each under a random mask, the
    /// all-false mask and the all-true mask.
    #[test]
    fn masked_run_equals_induced_subgraph_run(seed in 0u64..1_000_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = rng.gen_range(0..40usize);
        let p = [0.0, 0.1, 0.3, 0.8][rng.gen_range(0..4usize)];
        let adj = random_graph(n, p, &mut rng);
        // Multiplying by an odd constant is a bijection: unique keys.
        let keys: Vec<u64> = (0..n as u64)
            .map(|v| (v ^ seed).wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        let density = rng.gen_range(0..=4u32) as f64 / 4.0;
        let random: Vec<bool> = (0..n).map(|_| rng.gen_bool(density)).collect();
        let tag = rng.gen::<u64>();
        for active in [random, vec![false; n], vec![true; n]] {
            check_mask(&adj, &keys, &active, seed, tag)?;
        }
    }
}

#[test]
fn empty_graph() {
    check_mask(&[], &[], &[], 1, 2).unwrap();
}
