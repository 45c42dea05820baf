//! Problem model for the throughput maximization problem on line and tree
//! networks (Sections 1, 2 and 7 of the paper).
//!
//! The model follows the paper's reformulation: each *demand* `a` owned by a
//! processor is expanded into *demand instances* — one copy per accessible
//! network (and, for window demands on line-networks, one copy per feasible
//! start time). A feasible [`Solution`] selects at most one instance per
//! demand such that the height load on every edge of every network stays
//! within the unit capacity.
//!
//! Main types:
//!
//! * [`Demand`] / [`DemandKind`] — a `⟨u, v⟩` pair or a `[release,
//!   deadline] × processing-time` window, with profit and height;
//! * [`Problem`] / [`ProblemBuilder`] — validated instances with
//!   materialized demand instances (in flat arrays, read through the
//!   borrowed [`DemandInstance`] view), fast overlap bitmasks and the
//!   processor communication graph;
//! * [`Solution`] — a set of selected instances with feasibility checking;
//! * [`conflict`] — the paper's *conflicting* relation and conflict graphs
//!   (the input to MIS);
//! * [`workload`] — random problem generators used by tests and the
//!   experiment harness;
//! * [`fixtures`] — the concrete examples drawn in Figures 1, 2 and 6 of
//!   the paper.
//!
//! # Example
//!
//! ```
//! use treenet_graph::{Tree, VertexId};
//! use treenet_model::{Demand, ProblemBuilder, Solution};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut builder = ProblemBuilder::new();
//! let net = builder.add_network(Tree::line(5))?;
//! let a = builder.add_demand(Demand::pair(VertexId(0), VertexId(2), 3.0), &[net])?;
//! let b = builder.add_demand(Demand::pair(VertexId(2), VertexId(4), 2.0), &[net])?;
//! let problem = builder.build()?;
//!
//! // The two demands use disjoint edge sets, so both fit.
//! let all: Vec<_> = problem.instances().map(|inst| inst.id).collect();
//! let solution = Solution::new(all);
//! assert!(solution.verify(&problem).is_ok());
//! assert_eq!(solution.profit(&problem), 5.0);
//! # let _ = (a, b);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Conflict graphs over demand instances — the input to MIS.
pub mod conflict;
mod demand;
/// The paper's figure examples as reusable test fixtures.
pub mod fixtures;
mod problem;
mod solution;
/// Serializable problem specifications (JSON round-trip).
pub mod spec;
/// Seeded workload generators (line and tree families).
pub mod workload;

pub use demand::{Demand, DemandKind, HeightClass};
pub use problem::{
    canonical_instance_key, DeltaEffect, DemandInstance, ModelError, Problem, ProblemBuilder,
    ProblemDelta,
};
pub use solution::{FeasibilityError, Solution, SolutionTracker};

use serde::{Deserialize, Serialize};
use std::fmt;

/// Numeric tolerance for capacity and profit comparisons.
pub const EPS: f64 = 1e-9;

macro_rules! dense_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default,
            Serialize, Deserialize,
        )]
        pub struct $name(pub u32);

        impl $name {
            /// Returns the underlying index as `usize` for array access.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            fn from(value: u32) -> Self {
                $name(value)
            }
        }
    };
}

dense_id!(
    /// Identifier of a demand (equivalently, of the processor owning it:
    /// the paper pairs each processor with exactly one demand).
    DemandId,
    "a"
);
dense_id!(
    /// Identifier of a materialized demand instance.
    InstanceId,
    "d"
);
dense_id!(
    /// Identifier of a network (tree-network or line resource).
    NetworkId,
    "T"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display_with_paper_prefixes() {
        assert_eq!(DemandId(3).to_string(), "a3");
        assert_eq!(InstanceId(0).to_string(), "d0");
        assert_eq!(NetworkId(2).to_string(), "T2");
        assert_eq!(DemandId::from(4u32).index(), 4);
        assert_eq!(InstanceId::from(4u32).index(), 4);
        assert_eq!(NetworkId::from(4u32).index(), 4);
    }
}
