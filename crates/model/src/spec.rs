//! Serializable problem descriptions for reproducible experiments.
//!
//! A [`ProblemSpec`](crate::spec::ProblemSpec) captures everything
//! needed to rebuild a [`Problem`]
//! — network edge lists, demands, accessibility — in a plain data form
//! that serializes with serde. The experiment harness uses it to persist
//! interesting workloads (e.g. a seed that produced a surprising ratio)
//! and tests use it to pin fixtures.

use crate::{Demand, ModelError, Problem, ProblemBuilder};
use serde::{Deserialize, Serialize};
use treenet_graph::{Tree, TreeError};

/// A plain-data description of a problem instance.
///
/// # Example
///
/// ```
/// use treenet_model::fixtures::figure2;
/// use treenet_model::spec::ProblemSpec;
///
/// let (problem, _) = figure2();
/// let spec = ProblemSpec::from_problem(&problem);
/// let rebuilt = spec.build().unwrap();
/// assert_eq!(rebuilt.instance_count(), problem.instance_count());
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProblemSpec {
    /// Vertex count shared by all networks.
    pub vertices: usize,
    /// Edge lists, one per network.
    pub networks: Vec<Vec<(u32, u32)>>,
    /// Demands with their access lists (network indices).
    pub demands: Vec<DemandSpec>,
}

/// One demand plus its accessibility.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DemandSpec {
    /// The demand (kind, profit, height).
    pub demand: Demand,
    /// Indices of accessible networks.
    pub access: Vec<u32>,
}

/// Error rebuilding a [`Problem`] from a spec.
#[derive(Debug)]
pub enum SpecError {
    /// An edge list does not describe a tree.
    Tree(TreeError),
    /// The assembled parts violate model invariants.
    Model(ModelError),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Tree(e) => write!(f, "invalid network: {e}"),
            SpecError::Model(e) => write!(f, "invalid problem: {e}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<TreeError> for SpecError {
    fn from(e: TreeError) -> Self {
        SpecError::Tree(e)
    }
}

impl From<ModelError> for SpecError {
    fn from(e: ModelError) -> Self {
        SpecError::Model(e)
    }
}

impl ProblemSpec {
    /// Extracts the spec of an existing problem.
    pub fn from_problem(problem: &Problem) -> Self {
        ProblemSpec {
            vertices: problem.vertex_count(),
            networks: problem
                .networks()
                .map(|t| {
                    problem
                        .network(t)
                        .edges()
                        .map(|(_, (u, v))| (u.0, v.0))
                        .collect()
                })
                .collect(),
            demands: problem
                .demands()
                .map(|a| DemandSpec {
                    demand: *problem.demand(a),
                    access: problem.access(a).iter().map(|t| t.0).collect(),
                })
                .collect(),
        }
    }

    /// Rebuilds the problem.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] if a network is not a tree or the demands
    /// violate model invariants.
    pub fn build(&self) -> Result<Problem, SpecError> {
        let mut builder = ProblemBuilder::new();
        let mut ids = Vec::with_capacity(self.networks.len());
        for edges in &self.networks {
            let tree = Tree::from_edges(self.vertices, edges)?;
            ids.push(builder.add_network(tree)?);
        }
        for spec in &self.demands {
            let access: Vec<_> = spec.access.iter().map(|&i| crate::NetworkId(i)).collect();
            builder.add_demand(spec.demand, &access)?;
        }
        Ok(builder.build()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{HeightMode, LineWorkload, TreeWorkload};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn round_trip_preserves_everything_observable() {
        let mut rng = SmallRng::seed_from_u64(11);
        let p = TreeWorkload::new(14, 12)
            .with_networks(3)
            .with_heights(HeightMode::Uniform { hmin: 0.3 })
            .generate(&mut rng);
        let spec = ProblemSpec::from_problem(&p);
        let q = spec.build().unwrap();
        assert_eq!(p.vertex_count(), q.vertex_count());
        assert_eq!(p.network_count(), q.network_count());
        assert_eq!(p.demand_count(), q.demand_count());
        assert_eq!(p.instance_count(), q.instance_count());
        for inst in p.instances() {
            let other = q.instance(inst.id);
            assert_eq!(inst.path(), other.path());
            assert_eq!(inst.canonical_key(), other.canonical_key());
        }
    }

    #[test]
    fn round_trip_through_serde() {
        let mut rng = SmallRng::seed_from_u64(12);
        let p = LineWorkload::new(20, 8)
            .with_window_slack(2)
            .generate(&mut rng);
        let spec = ProblemSpec::from_problem(&p);
        // serde_json is a dev-dependency of the workspace root, not this
        // crate; exercise the Serialize impl through the derive round trip
        // via the bench/persistence path instead — here we clone-compare.
        let clone = spec.clone();
        assert_eq!(spec, clone);
        let q = clone.build().unwrap();
        assert_eq!(p.instance_count(), q.instance_count());
    }

    #[test]
    fn rejects_broken_specs() {
        let spec = ProblemSpec {
            vertices: 3,
            networks: vec![vec![(0, 1)]], // missing an edge: not spanning
            demands: vec![],
        };
        assert!(matches!(spec.build(), Err(SpecError::Tree(_))));
        let spec = ProblemSpec {
            vertices: 3,
            networks: vec![vec![(0, 1), (1, 2)]],
            demands: vec![DemandSpec {
                demand: Demand::pair(treenet_graph::VertexId(0), treenet_graph::VertexId(9), 1.0),
                access: vec![0],
            }],
        };
        assert!(matches!(spec.build(), Err(SpecError::Model(_))));
    }

    #[test]
    fn solver_results_survive_the_round_trip() {
        // Same spec → same problem → same deterministic behaviour: the
        // reproducibility contract the harness depends on.
        let mut rng = SmallRng::seed_from_u64(13);
        let p = TreeWorkload::new(10, 8).generate(&mut rng);
        let q = ProblemSpec::from_problem(&p).build().unwrap();
        // Exact same conflict structure.
        for a in p.instances() {
            for b in p.instances() {
                assert_eq!(p.conflicting(a.id, b.id), q.conflicting(a.id, b.id));
            }
        }
    }
}
