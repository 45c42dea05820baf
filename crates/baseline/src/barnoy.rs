//! The classic *sequential* line-network algorithms the paper cites as
//! prior art (\[4\] Bar-Noy et al., \[5\] Berman–Dasgupta): a 2-approximation
//! for the unit height case and a 5-approximation for arbitrary heights,
//! both handling windows.
//!
//! Reformulated in the paper's own two-phase framework (as Section 3
//! observes is possible for the local-ratio originals): process demand
//! instances in **non-decreasing end-time order** and use the single
//! critical slot `π(d) = {e(d)}`. If `d₁` ends no later than `d₂` and
//! they overlap, then `s(d₂) ≤ e(d₁) ≤ e(d₂)` — the interference property
//! with `Δ = 1`, hence ratios `(Δ+1)/λ = 2` (unit, Lemma 3.1) and
//! `2·p(S₁) + (2Δ²+1)·p(S₂) = 5·p(S)` for the wide/narrow combination
//! (Lemma 6.1), with `λ = 1` since the pass is sequential.
//!
//! These are the "before" column of the paper's line-network story: the
//! same guarantees as the best sequential algorithms, but inherently
//! serialized — the distributed algorithms trade a constant factor for
//! polylogarithmic rounds.

use treenet_core::{DualState, FrameworkError, RaiseRule, SequentialOutcome};
use treenet_decomp::Layering;
use treenet_graph::EdgeId;
use treenet_model::{HeightClass, InstanceId, Problem, Solution, SolutionTracker};

/// Numeric guard for "already satisfied" checks.
const GUARD: f64 = 1e-9;

/// The end slot `e(d)`: the last edge of `d`'s path, its single critical
/// edge.
fn end_slot(problem: &Problem, d: InstanceId) -> EdgeId {
    *problem
        .instance(d)
        .path
        .edges()
        .last()
        .expect("demands use ≥ 1 slot")
}

/// End-time order over instances: last path edge index ascending, ties by
/// canonical key for determinism.
fn end_time_order(problem: &Problem, participants: &[InstanceId]) -> Vec<InstanceId> {
    let mut order = participants.to_vec();
    order.sort_by_key(|&d| (end_slot(problem, d), problem.instance(d).canonical_key()));
    order
}

/// Refuses a problem with a network that is not a canonical line, with
/// [`Layering::for_lines`]' reason, as the PS baselines do.
fn require_lines(problem: &Problem) -> Result<(), FrameworkError> {
    Layering::for_lines(problem)
        .map(drop)
        .map_err(|reason| FrameworkError::BadParameters { reason })
}

fn sequential_pass(
    problem: &Problem,
    rule: RaiseRule,
    participants: &[InstanceId],
) -> SequentialOutcome {
    let mut dual = DualState::new(problem, rule.dual_form());
    let mut stack: Vec<InstanceId> = Vec::new();
    for d in end_time_order(problem, participants) {
        if dual.slack(problem, d) <= GUARD * problem.profit_of(d) {
            continue;
        }
        // π(d) = {e(d)}, so |π| = 1 and the objective cap is the rule's
        // at Δ = 1.
        rule.raise(problem, &mut dual, d, &[end_slot(problem, d)]);
        stack.push(d);
    }
    let mut tracker = SolutionTracker::new(problem);
    for &d in stack.iter().rev() {
        let _ = tracker.try_add(d);
    }
    SequentialOutcome {
        solution: tracker.into_solution(),
        dual,
        raises: stack.len() as u64,
        objective_cap: rule.objective_cap(1),
    }
}

/// The sequential **2-approximation** for the unit height case of
/// line-networks with windows (\[4, 5\] in the paper).
///
/// # Errors
///
/// [`FrameworkError::BadParameters`] if some network is not a canonical
/// line.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use treenet_model::workload::LineWorkload;
/// use treenet_baseline::barnoy_line_unit;
///
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
/// let problem = LineWorkload::new(30, 15).with_window_slack(2).generate(&mut rng);
/// let outcome = barnoy_line_unit(&problem).unwrap();
/// assert!(outcome.solution.verify(&problem).is_ok());
/// assert!(outcome.certified_ratio(&problem) <= 2.0 + 1e-9);
/// ```
pub fn barnoy_line_unit(problem: &Problem) -> Result<SequentialOutcome, FrameworkError> {
    require_lines(problem)?;
    let all: Vec<InstanceId> = problem.instances().map(|d| d.id).collect();
    Ok(sequential_pass(problem, RaiseRule::Unit, &all))
}

/// The sequential **5-approximation** for the arbitrary height case of
/// line-networks with windows (\[4\] in the paper): wide instances through
/// the unit pass (cap 2), narrow instances through the modified raising
/// (cap 3), combined per resource — `p(OPT) ≤ 2·p(S₁) + 3·p(S₂) ≤ 5·p(S)`.
///
/// Returns `(combined, wide outcome, narrow outcome)`.
///
/// # Errors
///
/// As [`barnoy_line_unit`].
pub fn barnoy_line_arbitrary(
    problem: &Problem,
) -> Result<(Solution, SequentialOutcome, SequentialOutcome), FrameworkError> {
    require_lines(problem)?;
    let (wide_ids, narrow_ids) = HeightClass::split(problem, problem.instances().map(|d| d.id));
    let wide = sequential_pass(problem, RaiseRule::Unit, &wide_ids);
    let narrow = sequential_pass(problem, RaiseRule::Narrow, &narrow_ids);
    let combined = treenet_core::combine_by_network(problem, &wide.solution, &narrow.solution);
    Ok((combined, wide, narrow))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{exact_max_profit, weighted_interval_dp};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use treenet_model::workload::{HeightMode, LineWorkload};

    #[test]
    fn unit_is_certified_two_approximation() {
        for seed in 0..10u64 {
            let p = LineWorkload::new(40, 25)
                .with_resources(2)
                .with_window_slack(3)
                .with_len_range(1, 10)
                .generate(&mut SmallRng::seed_from_u64(seed));
            let out = barnoy_line_unit(&p).unwrap();
            assert!(out.solution.verify(&p).is_ok(), "seed {seed}");
            assert!(
                out.certified_ratio(&p) <= 2.0 + 1e-9,
                "seed {seed}: {}",
                out.certified_ratio(&p)
            );
            // λ = 1: every instance satisfied.
            let ids: Vec<InstanceId> = p.instances().map(|d| d.id).collect();
            assert!(out.dual.min_satisfaction(&p, &ids) >= 1.0 - 1e-9);
        }
    }

    #[test]
    fn unit_within_two_of_exact_dp() {
        for seed in 0..8u64 {
            let p = LineWorkload::new(30, 14)
                .with_resources(1)
                .with_window_slack(0)
                .with_len_range(1, 8)
                .generate(&mut SmallRng::seed_from_u64(seed));
            let out = barnoy_line_unit(&p).unwrap();
            let opt = weighted_interval_dp(&p).unwrap();
            assert!(
                opt.profit(&p) <= 2.0 * out.profit(&p) + 1e-9,
                "seed {seed}: OPT {} vs 2·{}",
                opt.profit(&p),
                out.profit(&p)
            );
        }
    }

    #[test]
    fn arbitrary_is_certified_five_approximation() {
        for seed in 0..8u64 {
            let p = LineWorkload::new(30, 18)
                .with_resources(2)
                .with_len_range(1, 8)
                .with_heights(HeightMode::Bimodal {
                    narrow_frac: 0.5,
                    hmin: 0.2,
                })
                .generate(&mut SmallRng::seed_from_u64(seed));
            let (combined, wide, narrow) = barnoy_line_arbitrary(&p).unwrap();
            assert!(combined.verify(&p).is_ok(), "seed {seed}");
            let bound = wide.opt_upper_bound() + narrow.opt_upper_bound();
            let profit = combined.profit(&p);
            assert!(profit > 0.0, "seed {seed}");
            assert!(
                bound / profit <= 5.0 + 1e-9,
                "seed {seed}: certified {}",
                bound / profit
            );
            // Cross-check against exact OPT where tractable.
            if let Ok(opt) = exact_max_profit(&p, 10_000_000) {
                assert!(opt.profit(&p) <= 5.0 * profit + 1e-9, "seed {seed}");
            }
        }
    }

    #[test]
    fn single_pass_raises_each_instance_at_most_once() {
        let p = LineWorkload::new(24, 12)
            .with_window_slack(4)
            .generate(&mut SmallRng::seed_from_u64(3));
        let out = barnoy_line_unit(&p).unwrap();
        assert!(out.raises as usize <= p.instance_count());
        assert_eq!(out.objective_cap, 2.0);
    }

    #[test]
    fn end_time_order_is_deterministic() {
        let p = LineWorkload::new(24, 12).generate(&mut SmallRng::seed_from_u64(5));
        let a = barnoy_line_unit(&p).unwrap();
        let b = barnoy_line_unit(&p).unwrap();
        assert_eq!(a.solution, b.solution);
    }

    #[test]
    fn rejects_tree_networks() {
        let mut b = treenet_model::ProblemBuilder::new();
        let star = treenet_graph::Tree::from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        let t = b.add_network(star).unwrap();
        b.add_demand(
            treenet_model::Demand::pair(
                treenet_graph::VertexId(1),
                treenet_graph::VertexId(2),
                1.0,
            ),
            &[t],
        )
        .unwrap();
        let p = b.build().unwrap();
        for err in [barnoy_line_unit(&p).err(), barnoy_line_arbitrary(&p).err()] {
            assert!(matches!(
                err,
                Some(FrameworkError::BadParameters { reason }) if reason.contains("canonical line")
            ));
        }
    }
}
