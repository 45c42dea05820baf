//! The sequential Appendix-A algorithm: `Δ = 2`, `λ = 1`, one instance
//! raised per iteration — a 3-approximation for tree-networks (2 for a
//! single tree, where the `α` variables are unnecessary).
//!
//! The algorithm implicitly uses the root-fixing tree decomposition
//! (Figure 8): per network, instances are processed in descending order of
//! the depth of their capture node `µ(d)`, each raised with critical
//! edges `π(d)` = the wings of `µ(d)` (Observation A.1 then yields the
//! interference property with `Δ = 2`).

use crate::certificate::certified_ratio;
use crate::dual::{DualForm, DualState};
use treenet_decomp::{capture_node, root_fixing};
use treenet_graph::{EdgeId, VertexId};
use treenet_model::{InstanceId, Problem, Solution, SolutionTracker};

/// Result of the sequential algorithm.
#[derive(Clone, Debug)]
pub struct SequentialOutcome {
    /// The feasible solution extracted by the second phase.
    pub solution: Solution,
    /// The final dual assignment (fully satisfied: λ = 1).
    pub dual: DualState,
    /// Number of raise operations (= stack pushes).
    pub raises: u64,
    /// The per-raise objective cap: 3 in general, 2 for a single tree
    /// (where `α` is not raised).
    pub objective_cap: f64,
}

impl SequentialOutcome {
    /// Profit of the solution.
    pub fn profit(&self, problem: &Problem) -> f64 {
        self.solution.profit(problem)
    }

    /// Upper bound on `p(OPT)` (λ = 1, so this is just `val(α,β)`).
    pub fn opt_upper_bound(&self) -> f64 {
        self.dual.value()
    }

    /// Certified approximation factor.
    pub fn certified_ratio(&self, problem: &Problem) -> f64 {
        certified_ratio(self.opt_upper_bound(), self.profit(problem))
    }
}

/// Numeric guard: an instance counts as unsatisfied while its LHS is
/// below `p(d)` by more than this relative tolerance.
const GUARD: f64 = 1e-9;

/// Runs the sequential Appendix-A algorithm on a (unit-height)
/// tree-network problem.
///
/// With several networks the certified factor is 3; with exactly one
/// network the `α` raises are skipped (`δ = s/|π|`, β only) and the factor
/// improves to 2 — matching Lewin-Eytan et al. as cited by the paper.
///
/// # Example
///
/// ```
/// use treenet_model::fixtures::figure2;
/// use treenet_core::solve_sequential_tree;
///
/// let (problem, _) = figure2();
/// let outcome = solve_sequential_tree(&problem);
/// assert!(outcome.solution.verify(&problem).is_ok());
/// assert!(outcome.certified_ratio(&problem) <= 2.0 + 1e-9); // single tree
/// ```
pub fn solve_sequential_tree(problem: &Problem) -> SequentialOutcome {
    let single_tree = problem.network_count() == 1;
    let mut dual = DualState::new(problem, DualForm::Unit);
    let mut stack: Vec<InstanceId> = Vec::new();
    let mut raises = 0u64;

    for t in problem.networks() {
        let tree = problem.network(t);
        let h = root_fixing(tree, VertexId(0));
        // π(d): wings of the capture node; σ(T): descending capture depth.
        let mut ordered: Vec<(u32, InstanceId, Vec<EdgeId>)> = problem
            .instances_on(t)
            .iter()
            .map(|&d| {
                let path = &problem.instance(d).path;
                let mu = capture_node(&h, path);
                (h.node_depth(mu), d, path.wings(mu))
            })
            .collect();
        // Descending depth; ties broken by instance id for determinism.
        ordered.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));

        for (_, d, pi) in &ordered {
            let slack = dual.slack(problem, *d);
            if slack <= GUARD * problem.profit_of(*d) {
                continue; // already satisfied by earlier raises
            }
            debug_assert!(!pi.is_empty(), "capture node always has a wing");
            let inst = problem.instance(*d);
            if single_tree {
                // Appendix A, single-network special case: skip α.
                let delta = slack / pi.len() as f64;
                for &e in pi {
                    dual.raise_beta(inst.network, e, delta);
                }
            } else {
                let delta = slack / (pi.len() as f64 + 1.0);
                dual.raise_alpha(inst.demand, delta);
                for &e in pi {
                    dual.raise_beta(inst.network, e, delta);
                }
            }
            raises += 1;
            stack.push(*d);
        }
    }

    // Second phase: reverse greedy.
    let mut tracker = SolutionTracker::new(problem);
    for &d in stack.iter().rev() {
        let _ = tracker.try_add(d);
    }

    SequentialOutcome {
        solution: tracker.into_solution(),
        dual,
        raises,
        objective_cap: if single_tree { 2.0 } else { 3.0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use treenet_model::workload::TreeWorkload;

    #[test]
    fn feasible_and_fully_satisfied() {
        for seed in 0..10u64 {
            let p = TreeWorkload::new(18, 20)
                .with_networks(3)
                .generate(&mut SmallRng::seed_from_u64(seed));
            let out = solve_sequential_tree(&p);
            assert!(out.solution.verify(&p).is_ok(), "seed {seed}");
            // λ = 1: every instance's dual constraint is satisfied.
            let ids: Vec<InstanceId> = p.instances().map(|d| d.id).collect();
            let lambda = out.dual.min_satisfaction(&p, &ids);
            assert!(lambda >= 1.0 - 1e-6, "seed {seed}: λ = {lambda}");
        }
    }

    #[test]
    fn certified_three_approximation() {
        for seed in 0..10u64 {
            let p = TreeWorkload::new(18, 20)
                .with_networks(3)
                .generate(&mut SmallRng::seed_from_u64(seed));
            let out = solve_sequential_tree(&p);
            // val(α,β) ≤ 3·p(S) (Lemma 3.1 with Δ = 2, λ = 1).
            assert!(
                out.certified_ratio(&p) <= 3.0 + 1e-6,
                "seed {seed}: {}",
                out.certified_ratio(&p)
            );
        }
    }

    #[test]
    fn single_tree_is_two_approximation() {
        for seed in 0..10u64 {
            let p = TreeWorkload::new(18, 15)
                .with_networks(1)
                .generate(&mut SmallRng::seed_from_u64(seed));
            let out = solve_sequential_tree(&p);
            assert!(out.solution.verify(&p).is_ok());
            assert_eq!(out.objective_cap, 2.0);
            assert!(
                out.certified_ratio(&p) <= 2.0 + 1e-6,
                "seed {seed}: {}",
                out.certified_ratio(&p)
            );
        }
    }

    #[test]
    fn raises_bounded_by_instances() {
        let p = TreeWorkload::new(14, 12).generate(&mut SmallRng::seed_from_u64(5));
        let out = solve_sequential_tree(&p);
        assert!(out.raises as usize <= p.instance_count());
        assert!(out.raises > 0);
    }

    #[test]
    fn figure2_selects_the_profitable_demand() {
        // All three demands share an edge; the sequential algorithm must
        // pick exactly one of them (unit heights)... but which one is
        // certified within factor 2 of the best (profit 3).
        let (p, _) = treenet_model::fixtures::figure2();
        // Treat as unit height: rebuild with unit heights.
        let out = solve_sequential_tree(&p);
        assert!(out.solution.verify(&p).is_ok());
        assert!(!out.solution.is_empty());
    }
}
