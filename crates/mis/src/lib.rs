//! Luby's distributed maximal independent set (MIS) algorithm with
//! *common randomness*.
//!
//! The paper's round bounds all carry a `Time(MIS)` factor: the number of
//! communication rounds needed to find an MIS in the conflict graph. Its
//! reference instantiation is Luby's randomized algorithm (`O(log N)`
//! rounds in expectation, \[14\] in the paper). This crate provides:
//!
//! * [`luby_value`] — a seeded hash supplying the per-vertex random values.
//!   Because every node can recompute any other node's value from public
//!   inputs (seed, vertex key, round), the *centralized* simulation
//!   [`MisBackend::run`] and a message-passing execution perform
//!   bit-identical runs. The message-passing Luby is the
//!   `LubyEval`/`LubyCleanup` round pair of `treenet-dist`'s processor
//!   nodes (two communication rounds per Luby iteration); its tests prove
//!   the distributed run equals the logical one.
//! * [`MisBackend::run`] — the round-faithful central simulation of every
//!   backend: the MIS of the vertices an activity mask selects, and its
//!   iteration count. Masked-out vertices neither compete nor block, like
//!   processors that do not announce themselves in the distributed run.
//! * [`greedy_mis`] — deterministic sequential baseline.
//!
//! # Example
//!
//! ```
//! use treenet_mis::{greedy_mis, verify_mis, MisBackend, MisScratch};
//!
//! // A 4-cycle: 0-1-2-3-0.
//! let adj = vec![vec![1, 3], vec![0, 2], vec![1, 3], vec![0, 2]];
//! let keys = [10, 11, 12, 13];
//! let (mut scratch, mut mis) = (MisScratch::default(), Vec::new());
//! MisBackend::Luby.run(adj.as_slice(), &keys, &[true; 4], 42, 0, &mut scratch, &mut mis);
//! assert!(verify_mis(&adj, &mis));
//! assert!(verify_mis(&adj, &greedy_mis(&adj)));
//! // Masking vertex 0 out leaves the path 1-2-3, whose MIS is {1, 3} or {2}.
//! let rest = [false, true, true, true];
//! MisBackend::Luby.run(adj.as_slice(), &keys, &rest, 42, 0, &mut scratch, &mut mis);
//! assert!(mis == [1, 3] || mis == [2]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod luby;

pub use luby::{
    greedy_mis, luby_value, verify_mis, Adjacency, CsrAdjacency, MisBackend, MisScratch,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn api_surface_is_reexported() {
        let mut mis = Vec::new();
        let rounds = MisBackend::Luby.run(
            &[vec![]][..],
            &[0],
            &[true],
            1,
            2,
            &mut MisScratch::default(),
            &mut mis,
        );
        assert_eq!((mis, rounds), (vec![0], 1));
    }
}
