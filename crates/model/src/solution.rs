//! Solutions and feasibility checking.

use crate::{DemandId, InstanceId, NetworkId, Problem, EPS};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use treenet_graph::EdgeId;

/// A (claimed) feasible solution: a set of selected demand instances.
///
/// Use [`Solution::verify`] to check feasibility against a [`Problem`]:
/// at most one instance per demand, and on every edge of every network the
/// selected heights sum to at most 1 (for unit heights this is exactly the
/// edge-disjoint paths condition of Section 2).
///
/// # Example
///
/// ```
/// use treenet_graph::{Tree, VertexId};
/// use treenet_model::{Demand, ProblemBuilder, Solution};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = ProblemBuilder::new();
/// let t = b.add_network(Tree::line(4))?;
/// let a = b.add_demand(Demand::pair(VertexId(0), VertexId(2), 1.0), &[t])?;
/// let problem = b.build()?;
/// let solution = Solution::new(vec![problem.instances_of(a)[0]]);
/// solution.verify(&problem)?;
/// assert_eq!(solution.profit(&problem), 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Solution {
    selected: Vec<InstanceId>,
}

/// Why a claimed solution is infeasible.
#[derive(Clone, Debug, PartialEq)]
pub enum FeasibilityError {
    /// An instance id does not exist in the problem.
    UnknownInstance {
        /// The offending id.
        instance: InstanceId,
    },
    /// A selected instance belongs to a departed demand, which takes
    /// part in no solve after its departure.
    DepartedDemand {
        /// The departed demand.
        demand: DemandId,
        /// The selected instance.
        instance: InstanceId,
    },
    /// Two selected instances belong to the same demand.
    DuplicateDemand {
        /// The demand selected twice.
        demand: DemandId,
        /// The first selected instance.
        first: InstanceId,
        /// The second selected instance.
        second: InstanceId,
    },
    /// The height load on an edge exceeds the unit capacity.
    CapacityExceeded {
        /// Network containing the edge.
        network: NetworkId,
        /// The overloaded edge.
        edge: EdgeId,
        /// Total selected height crossing the edge.
        load: f64,
    },
}

impl fmt::Display for FeasibilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FeasibilityError::UnknownInstance { instance } => {
                write!(f, "instance {instance} does not exist")
            }
            FeasibilityError::DepartedDemand { demand, instance } => {
                write!(f, "instance {instance} belongs to departed demand {demand}")
            }
            FeasibilityError::DuplicateDemand {
                demand,
                first,
                second,
            } => {
                write!(f, "demand {demand} selected twice ({first} and {second})")
            }
            FeasibilityError::CapacityExceeded {
                network,
                edge,
                load,
            } => {
                write!(f, "edge {edge} of {network} overloaded: {load} > 1")
            }
        }
    }
}

impl std::error::Error for FeasibilityError {}

impl Solution {
    /// Creates a solution from selected instance ids (sorted, deduplicated).
    pub fn new(mut selected: Vec<InstanceId>) -> Self {
        selected.sort_unstable();
        selected.dedup();
        Solution { selected }
    }

    /// An empty solution (profit 0, always feasible).
    pub fn empty() -> Self {
        Solution::default()
    }

    /// Selected instance ids in increasing order.
    pub fn selected(&self) -> &[InstanceId] {
        &self.selected
    }

    /// Number of selected instances.
    pub fn len(&self) -> usize {
        self.selected.len()
    }

    /// Whether no instance is selected.
    pub fn is_empty(&self) -> bool {
        self.selected.is_empty()
    }

    /// Whether instance `d` is selected (binary search).
    pub fn contains(&self, d: InstanceId) -> bool {
        self.selected.binary_search(&d).is_ok()
    }

    /// Total profit `p(S)` of the selected instances.
    ///
    /// # Panics
    ///
    /// Panics if an instance id is out of range for `problem`.
    pub fn profit(&self, problem: &Problem) -> f64 {
        self.selected.iter().map(|&d| problem.profit_of(d)).sum()
    }

    /// Verifies feasibility: every id exists and belongs to a live
    /// (non-departed) demand, at most one instance per demand, and the
    /// height load on every edge is at most `1 + EPS`.
    ///
    /// # Errors
    ///
    /// Returns the first violation found as a [`FeasibilityError`].
    pub fn verify(&self, problem: &Problem) -> Result<(), FeasibilityError> {
        let mut demand_pick: Vec<Option<InstanceId>> = vec![None; problem.demand_count()];
        let mut load: Vec<Vec<f64>> = problem
            .networks()
            .map(|t| vec![0.0f64; problem.network(t).edge_count()])
            .collect();
        for &d in &self.selected {
            if d.index() >= problem.instance_count() {
                return Err(FeasibilityError::UnknownInstance { instance: d });
            }
            let inst = problem.instance(d);
            if problem.is_departed(inst.demand) {
                return Err(FeasibilityError::DepartedDemand {
                    demand: inst.demand,
                    instance: d,
                });
            }
            match demand_pick[inst.demand.index()] {
                Some(first) => {
                    return Err(FeasibilityError::DuplicateDemand {
                        demand: inst.demand,
                        first,
                        second: d,
                    });
                }
                None => demand_pick[inst.demand.index()] = Some(d),
            }
            let h = problem.height_of(d);
            for &e in problem.path_edges(d) {
                let slot = &mut load[inst.network.index()][e.index()];
                *slot += h;
                if *slot > 1.0 + EPS {
                    return Err(FeasibilityError::CapacityExceeded {
                        network: inst.network,
                        edge: e,
                        load: *slot,
                    });
                }
            }
        }
        Ok(())
    }

    /// Adds an instance without checking feasibility (verification can
    /// be done at the end).
    pub fn push(&mut self, d: InstanceId) {
        match self.selected.binary_search(&d) {
            Ok(_) => {}
            Err(pos) => self.selected.insert(pos, d),
        }
    }
}

impl FromIterator<InstanceId> for Solution {
    fn from_iter<I: IntoIterator<Item = InstanceId>>(iter: I) -> Self {
        Solution::new(iter.into_iter().collect())
    }
}

/// An incremental feasibility tracker for building solutions instance by
/// instance in `O(path)` per operation — the workhorse of every solver's
/// second phase.
///
/// The tracker maintains per-edge residual capacities and the set of
/// used demands, so a fit test never scans the selection. It allocates
/// only for the networks and demands it touches, so a tracker over a
/// few instances of a large problem costs what those instances cost.
#[derive(Clone, Debug)]
pub struct SolutionTracker<'p> {
    problem: &'p Problem,
    /// Residual capacity per edge of every network an added instance
    /// uses; an untouched network has residual 1 on every edge.
    residual: BTreeMap<NetworkId, Vec<f64>>,
    used: BTreeSet<DemandId>,
    /// The added instances, in insertion order.
    selected: Vec<InstanceId>,
}

impl<'p> SolutionTracker<'p> {
    /// Creates an empty tracker for `problem`.
    pub fn new(problem: &'p Problem) -> Self {
        SolutionTracker {
            problem,
            residual: BTreeMap::new(),
            used: BTreeSet::new(),
            selected: Vec::new(),
        }
    }

    /// Whether instance `d` still fits.
    pub fn fits(&self, d: InstanceId) -> bool {
        let inst = self.problem.instance(d);
        if self.used.contains(&inst.demand) {
            return false;
        }
        let h = self.problem.height_of(d);
        let residual = self.residual.get(&inst.network);
        self.problem
            .path_edges(d)
            .iter()
            .all(|&e| residual.map_or(1.0, |r| r[e.index()]) + EPS >= h)
    }

    /// Adds instance `d` if it fits; returns whether it was added.
    pub fn try_add(&mut self, d: InstanceId) -> bool {
        if !self.fits(d) {
            return false;
        }
        let problem = self.problem;
        let inst = problem.instance(d);
        let h = problem.height_of(d);
        let residual = self
            .residual
            .entry(inst.network)
            .or_insert_with(|| vec![1.0f64; problem.network(inst.network).edge_count()]);
        for &e in problem.path_edges(d) {
            residual[e.index()] -= h;
        }
        self.used.insert(inst.demand);
        self.selected.push(d);
        true
    }

    /// Consumes the tracker, returning the built solution.
    pub fn into_solution(self) -> Solution {
        Solution::new(self.selected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Demand, ProblemBuilder};
    use treenet_graph::{Tree, VertexId};

    fn overlapping_problem() -> Problem {
        let mut b = ProblemBuilder::new();
        let t = b.add_network(Tree::line(6)).unwrap();
        // Demands [0,3], [2,5], [4,5] on one resource.
        b.add_demand(Demand::pair(VertexId(0), VertexId(3), 3.0), &[t])
            .unwrap();
        b.add_demand(Demand::pair(VertexId(2), VertexId(5), 2.0), &[t])
            .unwrap();
        b.add_demand(Demand::pair(VertexId(4), VertexId(5), 1.0), &[t])
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn verify_accepts_disjoint_selection() {
        let p = overlapping_problem();
        let s = Solution::new(vec![InstanceId(0), InstanceId(2)]);
        assert!(s.verify(&p).is_ok());
        assert_eq!(s.profit(&p), 4.0);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert!(s.contains(InstanceId(0)));
        assert!(!s.contains(InstanceId(1)));
    }

    #[test]
    fn verify_rejects_overlap() {
        let p = overlapping_problem();
        // Instances 0 and 1 share edge 2.
        let s = Solution::new(vec![InstanceId(0), InstanceId(1)]);
        assert!(matches!(
            s.verify(&p),
            Err(FeasibilityError::CapacityExceeded { .. })
        ));
    }

    #[test]
    fn verify_rejects_duplicate_demand() {
        let mut b = ProblemBuilder::new();
        let t0 = b.add_network(Tree::line(4)).unwrap();
        let t1 = b.add_network(Tree::line(4)).unwrap();
        b.add_demand(Demand::pair(VertexId(0), VertexId(1), 1.0), &[t0, t1])
            .unwrap();
        let p = b.build().unwrap();
        let s = Solution::new(vec![InstanceId(0), InstanceId(1)]);
        assert!(matches!(
            s.verify(&p),
            Err(FeasibilityError::DuplicateDemand { .. })
        ));
    }

    #[test]
    fn verify_rejects_a_departed_demand() {
        let mut p = overlapping_problem();
        let s = Solution::new(vec![InstanceId(0), InstanceId(2)]);
        assert!(s.verify(&p).is_ok());
        p.apply_delta(crate::ProblemDelta::Departure {
            demand: DemandId(2),
        })
        .unwrap();
        let err = s.verify(&p).unwrap_err();
        assert_eq!(
            err,
            FeasibilityError::DepartedDemand {
                demand: DemandId(2),
                instance: InstanceId(2),
            }
        );
        assert!(err.to_string().contains("departed demand"), "{err}");
        assert!(Solution::new(vec![InstanceId(0)]).verify(&p).is_ok());
    }

    #[test]
    fn verify_rejects_unknown_instance() {
        let p = overlapping_problem();
        let s = Solution::new(vec![InstanceId(99)]);
        assert!(matches!(
            s.verify(&p),
            Err(FeasibilityError::UnknownInstance { .. })
        ));
    }

    #[test]
    fn fractional_heights_respect_capacity() {
        let mut b = ProblemBuilder::new();
        let t = b.add_network(Tree::line(4)).unwrap();
        for _ in 0..3 {
            b.add_demand(
                Demand::pair(VertexId(0), VertexId(3), 1.0).with_height(0.4),
                &[t],
            )
            .unwrap();
        }
        let p = b.build().unwrap();
        let two = Solution::new(vec![InstanceId(0), InstanceId(1)]);
        assert!(two.verify(&p).is_ok());
        let three = Solution::new(vec![InstanceId(0), InstanceId(1), InstanceId(2)]);
        assert!(matches!(
            three.verify(&p),
            Err(FeasibilityError::CapacityExceeded { .. })
        ));
    }

    #[test]
    fn tracker_matches_verify() {
        let p = overlapping_problem();
        let mut tracker = SolutionTracker::new(&p);
        assert!(tracker.try_add(InstanceId(0)));
        assert!(!tracker.try_add(InstanceId(1)));
        assert!(tracker.fits(InstanceId(2)));
        assert!(tracker.try_add(InstanceId(2)));
        // An added instance's demand is used.
        assert!(!tracker.fits(InstanceId(0)));
        let s = tracker.into_solution();
        assert!(s.verify(&p).is_ok());
        assert_eq!(s.selected(), &[InstanceId(0), InstanceId(2)]);
    }

    #[test]
    fn from_iterator_dedups() {
        let s: Solution = vec![InstanceId(2), InstanceId(0), InstanceId(2)]
            .into_iter()
            .collect();
        assert_eq!(s.selected(), &[InstanceId(0), InstanceId(2)]);
        assert_eq!(Solution::empty().len(), 0);
    }

    #[test]
    fn error_display() {
        let e = FeasibilityError::DuplicateDemand {
            demand: DemandId(1),
            first: InstanceId(0),
            second: InstanceId(2),
        };
        assert!(e.to_string().contains("a1"));
    }
}
