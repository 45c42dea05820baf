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
//!   [`luby_mis`] and a message-passing execution perform bit-identical
//!   runs. The message-passing Luby is the `LubyEval`/`LubyCleanup` round
//!   pair of `treenet-dist`'s processor nodes (two communication rounds
//!   per Luby iteration); its tests prove the distributed run equals the
//!   logical one.
//! * [`luby_mis`] — round-faithful central simulation returning the MIS and
//!   the number of Luby iterations.
//! * [`greedy_mis`] — deterministic sequential baseline.
//!
//! # Example
//!
//! ```
//! use treenet_mis::{luby_mis, greedy_mis, verify_mis};
//!
//! // A 4-cycle: 0-1-2-3-0.
//! let adj = vec![vec![1, 3], vec![0, 2], vec![1, 3], vec![0, 2]];
//! let keys = vec![10, 11, 12, 13];
//! let outcome = luby_mis(&adj, &keys, 42, 0);
//! assert!(verify_mis(&adj, &outcome.mis));
//! assert!(verify_mis(&adj, &greedy_mis(&adj)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod luby;

pub use luby::{
    deterministic_mis, deterministic_mis_with, greedy_mis, luby_mis, luby_mis_with, luby_value,
    verify_mis, Adjacency, CsrAdjacency, LubyOutcome, MisBackend, MisScratch,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn api_surface_is_reexported() {
        let outcome = luby_mis(&[vec![]], &[0], 1, 2);
        assert_eq!(outcome.mis, vec![0]);
    }
}
