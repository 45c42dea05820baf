//! Tree data structures and algorithms underpinning the `treenet` workspace.
//!
//! The paper ("Distributed Algorithms for Scheduling on Line and Tree
//! Networks", PODC 2012) works with *tree-networks*: trees defined over a
//! common vertex set `V`. This crate provides
//!
//! * [`Tree`] — a validated, undirected tree over `n` vertices with stable
//!   [`EdgeId`]s,
//! * [`RootedTree`] — parent/depth arrays, Euler intervals, binary-lifting
//!   LCA, tree medians and path extraction,
//! * [`TreePath`] — the unique path between two vertices, as both a vertex
//!   sequence and an edge set, and [`PathView`], its end-points and edges
//!   borrowed,
//! * [`component`] — vertex-subset components, neighborhoods `Γ[C]`,
//!   balancers (centroids) and splitting, the raw material of the paper's
//!   tree decompositions (Section 4),
//! * [`generators`] — random and structured tree families used by the
//!   experiment harness.
//!
//! # Example
//!
//! ```
//! use treenet_graph::{Tree, RootedTree, VertexId};
//!
//! # fn main() -> Result<(), treenet_graph::TreeError> {
//! // The path 0 - 1 - 2 - 3.
//! let tree = Tree::from_edges(4, &[(0, 1), (1, 2), (2, 3)])?;
//! let rooted = RootedTree::new(&tree, VertexId(0));
//! assert_eq!(rooted.lca(VertexId(1), VertexId(3)), VertexId(1));
//! assert_eq!(rooted.path(VertexId(0), VertexId(3)).len(), 3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Components, neighborhoods and balancers (Section 4 primitives).
pub mod component;
/// Random and structured tree families for tests and experiments.
pub mod generators;
mod path;
mod rooted;
mod tree;
mod union;

pub use path::{PathView, TreePath};
pub use rooted::RootedTree;
pub use tree::{Tree, TreeError};
pub use union::UnionFind;

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a vertex in the common vertex set `V`.
///
/// Vertices are dense indices `0..n`; the newtype prevents mixing vertex and
/// edge indices (the paper indexes both heavily).
#[derive(
    Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default, Serialize, Deserialize,
)]
pub struct VertexId(pub u32);

/// Identifier of an edge within one [`Tree`].
///
/// Edge ids are dense indices `0..n-1`, stable for the lifetime of the tree.
/// Note that edges of *different* tree-networks are unrelated even when they
/// connect the same pair of vertices; the model layer pairs an `EdgeId` with
/// a network id to form the global edge set `E` of the paper.
#[derive(
    Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default, Serialize, Deserialize,
)]
pub struct EdgeId(pub u32);

impl VertexId {
    /// Returns the underlying index as `usize` for array access.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// Returns the underlying index as `usize` for array access.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl From<u32> for VertexId {
    fn from(value: u32) -> Self {
        VertexId(value)
    }
}

impl From<u32> for EdgeId {
    fn from(value: u32) -> Self {
        EdgeId(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_ordered_and_displayable() {
        assert!(VertexId(1) < VertexId(2));
        assert!(EdgeId(0) < EdgeId(9));
        assert_eq!(VertexId(3).to_string(), "v3");
        assert_eq!(EdgeId(7).to_string(), "e7");
        assert_eq!(VertexId::from(5u32), VertexId(5));
        assert_eq!(EdgeId::from(5u32), EdgeId(5));
    }

    #[test]
    fn ids_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<VertexId>();
        assert_send_sync::<EdgeId>();
        assert_send_sync::<Tree>();
        assert_send_sync::<RootedTree>();
        assert_send_sync::<TreePath>();
    }
}
