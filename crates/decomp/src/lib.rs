//! Tree decompositions and layered decompositions (Section 4 of the paper).
//!
//! A **tree decomposition** of a tree-network `T` is a rooted tree `H` over
//! the same vertex set such that (i) for any demand path through vertices
//! `x` and `y`, the path also visits `LCA_H(x, y)`, and (ii) for every node
//! `z`, the set `C(z)` of `z` and its `H`-descendants induces a connected
//! subtree of `T`. Its efficacy is measured by its *depth* and its *pivot
//! size* `θ = max_z |χ(z)|` where `χ(z) = Γ[C(z)]` is the set of outside
//! neighbors of `C(z)`.
//!
//! Three constructions are provided (Sections 4.2–4.3):
//!
//! | builder | depth | pivot size θ |
//! |---|---|---|
//! | [`root_fixing`] | up to `n` | 1 |
//! | [`balancing`] | `⌈log n⌉ + 1` | up to `⌈log n⌉` |
//! | [`ideal`] | `≤ 2⌈log n⌉ + 1` | **2** |
//!
//! The ideal decomposition (Lemma 4.1) is the paper's core technical
//! contribution; [`LayeredDecomposition`] then transforms any tree
//! decomposition into an ordering of demand instances plus critical-edge
//! sets `π(d)` with `Δ = 2(θ+1)` (Lemma 4.2), and a specialized
//! length-class construction gives `Δ = 3` on line-networks (Section 7).
//!
//! # Example
//!
//! ```
//! use treenet_graph::{Tree, VertexId};
//! use treenet_decomp::{ideal, Strategy};
//!
//! let tree = Tree::line(64);
//! let h = ideal(&tree);
//! assert!(h.pivot_size() <= 2);
//! assert!(h.depth() as f64 <= 2.0 * 64.0_f64.log2().ceil() + 1.0);
//! assert!(h.verify(&tree).is_ok());
//! # let _ = Strategy::Ideal;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod balancing;
mod capture;
mod convergecast;
mod ideal;
mod layered;
mod line;
mod root_fixing;
mod tree_decomposition;

pub use balancing::balancing;
pub use capture::{bending_point, capture_node, critical_edges, push_wings};
pub use convergecast::ConvergecastForest;
pub use ideal::{ideal, ideal_depth_bound, ideal_with_stats, IdealStats};
pub use layered::{LayeredDecomposition, LayeredError, Layering};
pub use line::line_lmin;
pub use root_fixing::root_fixing;
pub use tree_decomposition::{DecompositionError, TreeDecomposition};

use treenet_graph::Tree;

/// Which tree-decomposition construction to use (Section 4).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Root the tree at vertex 0: `⟨depth ≤ n, θ = 1⟩`.
    RootFixing,
    /// Recursive balancers: `⟨depth ≤ ⌈log n⌉ + 1, θ ≤ ⌈log n⌉⟩`.
    Balancing,
    /// Balancers + junctions: `⟨depth ≤ 2⌈log n⌉ + 1, θ ≤ 2⟩` (Lemma 4.1).
    Ideal,
}

impl Strategy {
    /// All strategies in a stable order.
    pub const ALL: [Strategy; 3] = [Strategy::RootFixing, Strategy::Balancing, Strategy::Ideal];

    /// Short stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::RootFixing => "root-fixing",
            Strategy::Balancing => "balancing",
            Strategy::Ideal => "ideal",
        }
    }

    /// Builds the decomposition of `tree` using this strategy.
    pub fn build(self, tree: &Tree) -> TreeDecomposition {
        match self {
            Strategy::RootFixing => root_fixing(tree, treenet_graph::VertexId(0)),
            Strategy::Balancing => balancing(tree),
            Strategy::Ideal => ideal(tree),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_names() {
        assert_eq!(Strategy::Ideal.name(), "ideal");
        assert_eq!(Strategy::ALL.len(), 3);
    }

    #[test]
    fn strategy_build_dispatches() {
        let tree = Tree::line(8);
        for s in Strategy::ALL {
            let h = s.build(&tree);
            assert!(h.verify(&tree).is_ok(), "{}", s.name());
        }
    }
}
