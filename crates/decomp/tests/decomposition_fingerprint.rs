//! A fingerprint of every decomposition [`Strategy::build`] produces over
//! a fixed grid of trees: each family of [`TreeFamily::ALL`], sizes from
//! 1 to 1,000 vertices and six seeds per size. It hashes every vertex's
//! `H`-parent and pivot set with FNV-1a, written out here rather than
//! taken from `std`'s `DefaultHasher`, whose output may change between
//! Rust releases.
//!
//! The expected value was recorded before the balancer and split
//! routines started sharing scratch arrays across the recursion. An
//! optimisation of the builders must reproduce every parent and every
//! pivot set, so it must leave the fingerprint unchanged.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use treenet_decomp::Strategy;
use treenet_graph::generators::TreeFamily;

/// 64-bit FNV-1a.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn write_u32(&mut self, x: u32) {
        for byte in x.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

const SIZES: [usize; 11] = [1, 2, 3, 5, 9, 17, 40, 64, 127, 384, 1000];
const SEEDS: u64 = 6;

#[test]
fn decompositions_match_the_recorded_fingerprint() {
    let mut hash = Fnv1a::new();
    let mut builds = 0u32;
    for family in TreeFamily::ALL {
        for n in SIZES {
            for seed in 0..SEEDS {
                let rng_seed = seed * 10_007 + n as u64;
                let tree = family.generate(n, &mut SmallRng::seed_from_u64(rng_seed));
                for strategy in Strategy::ALL {
                    let h = strategy.build(&tree);
                    hash.write_u32(builds);
                    for v in tree.vertices() {
                        hash.write_u32(h.parent(v).map_or(u32::MAX, |p| p.0));
                        let pivot = h.pivot(v);
                        hash.write_u32(pivot.len() as u32);
                        for u in pivot {
                            hash.write_u32(u.0);
                        }
                    }
                    builds += 1;
                }
            }
        }
    }
    assert_eq!(builds, 7 * 11 * 6 * 3);
    assert_eq!(
        hash.0, 0x0ba4_6bdc_bf89_f942,
        "fingerprint {:#018x}",
        hash.0
    );
}
