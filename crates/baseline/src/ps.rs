//! The Panconesi–Sozio line-network scheduler ([15, 16] in the paper),
//! reformulated in the two-phase framework exactly as Section 3.2 of the
//! paper describes it: length-class grouping with `Δ = 3`, one stage per
//! epoch, and early drop-out at `1/(5+ε)` satisfaction — the slackness
//! the paper's multi-stage refinement improves to `1-ε`.

use treenet_core::{certified_ratio, mis_tag, DualForm, DualState, RaiseRule};
use treenet_decomp::LayeredDecomposition;
use treenet_mis::luby_mis;
use treenet_model::conflict::ConflictGraph;
use treenet_model::{HeightClass, InstanceId, Problem, Solution, SolutionTracker};

/// Configuration of the PS baseline.
#[derive(Clone, Debug)]
pub struct PsConfig {
    /// The ε of the `1/(5+ε)` drop-out threshold.
    pub epsilon: f64,
    /// Common-randomness seed for the MIS.
    pub seed: u64,
    /// Safety valve on steps per epoch.
    pub max_steps_per_epoch: u64,
}

impl Default for PsConfig {
    fn default() -> Self {
        PsConfig {
            epsilon: 0.1,
            seed: 0xba5e,
            max_steps_per_epoch: 1_000_000,
        }
    }
}

/// Result of a PS baseline run.
#[derive(Clone, Debug)]
pub struct PsOutcome {
    /// The extracted feasible solution.
    pub solution: Solution,
    /// Final dual assignment.
    pub dual: DualState,
    /// Measured slackness λ (≈ `1/(5+ε)` by construction).
    pub lambda: f64,
    /// Steps (framework iterations) executed.
    pub steps: u64,
    /// Total Luby iterations.
    pub mis_rounds: u64,
    /// `Δ` of the layered decomposition (3 on lines).
    pub delta: usize,
}

impl PsOutcome {
    /// Profit of the solution.
    pub fn profit(&self, problem: &Problem) -> f64 {
        self.solution.profit(problem)
    }

    /// Certified upper bound on `p(OPT)`: `val(α,β)/λ`.
    pub fn opt_upper_bound(&self) -> f64 {
        self.dual.opt_upper_bound(self.lambda)
    }

    /// Certified approximation factor.
    pub fn certified_ratio(&self, problem: &Problem) -> f64 {
        certified_ratio(self.opt_upper_bound(), self.profit(problem))
    }
}

/// The single-stage two-phase loop (the PS scheme) over an arbitrary
/// layered decomposition and participant set — public so ablation
/// experiments can apply the PS drop-out rule to *tree* decompositions
/// and isolate what the paper's multi-stage refinement contributes.
pub fn single_stage_two_phase(
    problem: &Problem,
    layers: &LayeredDecomposition,
    rule: RaiseRule,
    config: &PsConfig,
    participants: &[InstanceId],
) -> PsOutcome {
    let threshold = 1.0 / (5.0 + config.epsilon);
    let form = match rule {
        RaiseRule::Unit => DualForm::Unit,
        RaiseRule::Narrow => DualForm::Capacitated,
    };
    let mut dual = DualState::new(problem, form);
    let mut stack: Vec<Vec<InstanceId>> = Vec::new();
    let mut steps = 0u64;
    let mut mis_rounds = 0u64;

    let num_groups = layers.num_groups() as u32;
    let mut groups: Vec<Vec<InstanceId>> = vec![Vec::new(); num_groups as usize + 1];
    for &d in participants {
        groups[layers.group_of(d) as usize].push(d);
    }

    for k in 1..=num_groups {
        let members = &groups[k as usize];
        if members.is_empty() {
            continue;
        }
        // Single stage: drop instances as soon as they reach the
        // threshold; iterate until the whole group has.
        let mut steps_this_epoch = 0u64;
        loop {
            let unsatisfied: Vec<InstanceId> = members
                .iter()
                .copied()
                .filter(|&d| dual.satisfaction(problem, d) < threshold - 1e-9)
                .collect();
            if unsatisfied.is_empty() {
                break;
            }
            assert!(
                steps_this_epoch < config.max_steps_per_epoch,
                "PS epoch diverged — broken decomposition"
            );
            let graph = ConflictGraph::build(problem, &unsatisfied);
            let adj: Vec<Vec<u32>> = (0..graph.len())
                .map(|v| graph.neighbors(v).to_vec())
                .collect();
            let keys: Vec<u64> = graph
                .instances()
                .iter()
                .map(|&d| problem.instance(d).canonical_key())
                .collect();
            let outcome = luby_mis(&adj, &keys, config.seed, mis_tag(k, 1, steps_this_epoch));
            mis_rounds += outcome.rounds;
            let raised: Vec<InstanceId> = outcome
                .mis
                .iter()
                .map(|&v| graph.instance(v as usize))
                .collect();
            for &d in &raised {
                // PS raise to tightness with the same δ rules.
                let inst = problem.instance(d);
                let slack = dual.slack(problem, d);
                let pi = layers.critical_of(d);
                match rule {
                    RaiseRule::Unit => {
                        let delta = slack / (pi.len() as f64 + 1.0);
                        dual.raise_alpha(inst.demand, delta);
                        for &e in pi {
                            dual.raise_beta(inst.network, e, delta);
                        }
                    }
                    RaiseRule::Narrow => {
                        let h = problem.height_of(d);
                        let delta = slack / (1.0 + 2.0 * h * (pi.len() as f64).powi(2));
                        dual.raise_alpha(inst.demand, delta);
                        for &e in pi {
                            dual.raise_beta(inst.network, e, 2.0 * pi.len() as f64 * delta);
                        }
                    }
                }
            }
            stack.push(raised);
            steps_this_epoch += 1;
        }
        steps += steps_this_epoch;
    }

    let mut tracker = SolutionTracker::new(problem);
    for entry in stack.iter().rev() {
        for &d in entry {
            let _ = tracker.try_add(d);
        }
    }
    let lambda = dual.min_satisfaction(problem, participants);
    PsOutcome {
        solution: tracker.into_solution(),
        dual,
        lambda,
        steps,
        mis_rounds,
        delta: layers.delta(),
    }
}

/// The Panconesi–Sozio `(20+ε)`-approximation for the unit height case of
/// line-networks (with windows): `Δ = 3` length classes, single-stage
/// epochs, drop-out at `1/(5+ε)`.
///
/// # Panics
///
/// Panics if some network is not a canonical line.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use treenet_model::workload::LineWorkload;
/// use treenet_baseline::{ps_line_unit, PsConfig};
///
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
/// let problem = LineWorkload::new(30, 15).generate(&mut rng);
/// let outcome = ps_line_unit(&problem, &PsConfig::default());
/// assert!(outcome.solution.verify(&problem).is_ok());
/// // λ sits near 1/(5+ε) — 5× worse than the paper's (1-ε).
/// assert!(outcome.lambda >= 1.0 / 5.1 - 1e-9);
/// ```
pub fn ps_line_unit(problem: &Problem, config: &PsConfig) -> PsOutcome {
    let layers = LayeredDecomposition::for_lines(problem);
    let all: Vec<InstanceId> = problem.instances().map(|d| d.id).collect();
    single_stage_two_phase(problem, &layers, RaiseRule::Unit, config, &all)
}

/// PS-style arbitrary-height baseline for line-networks: wide instances
/// through [`ps_line_unit`]'s scheme, narrow instances through the
/// modified raising with the same single-stage drop-out, combined per
/// network (the structure of their `(55+ε)` algorithm \[16\]; constants
/// are measured rather than matched, see the crate docs).
///
/// Returns `(combined solution, wide outcome, narrow outcome)`.
///
/// # Panics
///
/// Panics if some network is not a canonical line.
pub fn ps_line_arbitrary(problem: &Problem, config: &PsConfig) -> (Solution, PsOutcome, PsOutcome) {
    let layers = LayeredDecomposition::for_lines(problem);
    let (wide_ids, narrow_ids) = HeightClass::split(problem, problem.instances().map(|d| d.id));
    let wide = single_stage_two_phase(problem, &layers, RaiseRule::Unit, config, &wide_ids);
    let narrow = single_stage_two_phase(problem, &layers, RaiseRule::Narrow, config, &narrow_ids);
    let combined = treenet_core::combine_by_network(problem, &wide.solution, &narrow.solution);
    (combined, wide, narrow)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use treenet_model::workload::{HeightMode, LineWorkload};

    #[test]
    fn feasible_with_ps_lambda() {
        for seed in 0..6u64 {
            let p = LineWorkload::new(40, 20)
                .with_resources(2)
                .with_window_slack(2)
                .with_len_range(1, 10)
                .generate(&mut SmallRng::seed_from_u64(seed));
            let out = ps_line_unit(&p, &PsConfig::default());
            assert!(out.solution.verify(&p).is_ok(), "seed {seed}");
            // Everything at least 1/(5+ε)-satisfied.
            assert!(
                out.lambda >= 1.0 / 5.1 - 1e-9,
                "seed {seed}: λ = {}",
                out.lambda
            );
            // Certified ratio within the PS guarantee 4·(5+ε).
            assert!(
                out.certified_ratio(&p) <= 4.0 * 5.1 + 1e-6,
                "seed {seed}: {}",
                out.certified_ratio(&p)
            );
        }
    }

    #[test]
    fn lambda_strictly_below_ours() {
        // The PS drop-out leaves most instances barely 1/(5+ε)-satisfied;
        // our multi-stage loop reaches (1-ε). On any instance where some
        // demand is dropped early, PS's λ is far below 0.9.
        let p = LineWorkload::new(40, 30)
            .with_resources(2)
            .with_len_range(2, 10)
            .generate(&mut SmallRng::seed_from_u64(9));
        let ps = ps_line_unit(&p, &PsConfig::default());
        let ours = treenet_core::solve(
            &p,
            treenet_core::AutoChoice::LineUnit,
            &treenet_core::SolverConfig::default(),
        )
        .unwrap();
        assert!(ours.lambda >= 0.9 - 1e-9);
        assert!(ps.lambda < ours.lambda);
    }

    #[test]
    fn arbitrary_heights_combine_feasibly() {
        for seed in 0..4u64 {
            let p = LineWorkload::new(30, 16)
                .with_resources(2)
                .with_len_range(1, 8)
                .with_heights(HeightMode::Bimodal {
                    narrow_frac: 0.5,
                    hmin: 0.2,
                })
                .generate(&mut SmallRng::seed_from_u64(seed));
            let (combined, wide, narrow) = ps_line_arbitrary(&p, &PsConfig::default());
            assert!(combined.verify(&p).is_ok(), "seed {seed}");
            assert!(wide.solution.verify(&p).is_ok());
            assert!(narrow.solution.verify(&p).is_ok());
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let p = LineWorkload::new(24, 12).generate(&mut SmallRng::seed_from_u64(4));
        let a = ps_line_unit(&p, &PsConfig::default());
        let b = ps_line_unit(&p, &PsConfig::default());
        assert_eq!(a.solution, b.solution);
        assert_eq!(a.steps, b.steps);
    }
}
