//! The paper's schedulers, assembled from the framework. The theorem is
//! data: an [`AutoChoice`] names the layering (tree decompositions or
//! line length classes) and whether the heights split into a wide and a
//! narrow half, and [`solve`] runs any of the four:
//!
//! * [`AutoChoice::TreeUnit`] — Theorem 5.3, `(7+ε)`-approximation;
//! * [`AutoChoice::TreeArbitrary`] — Theorem 6.3, `(80+ε)`-approximation
//!   (wide/narrow split + per-network combiner);
//! * [`AutoChoice::LineUnit`] — Theorem 7.1, `(4+ε)`-approximation
//!   (windows supported via instance expansion);
//! * [`AutoChoice::LineArbitrary`] — Theorem 7.2, `(23+ε)`-approximation.
//!
//! [`AutoChoice::halves`] is the one map from a theorem to its runs,
//! shared with the message-passing runners of `treenet-dist`. All stage
//! factors `ξ` are derived from the layered decomposition's `Δ` exactly
//! as in the paper: `ξ = 2Δ′/(2Δ′+1)` with `Δ′ = Δ+1` for the unit rule
//! (`14/15` for trees, `8/9` for lines) and `ξ = c/(c+hmin)` with
//! `c = 2Δ²+1` for the narrow rule (73 for trees, 19 for lines — the
//! "suitable constant" of Section 6.1; see `narrow_xi` for the
//! derivation).

use crate::certificate::certified_ratio;
use crate::framework::{
    run_two_phase, validate_epsilon, FrameworkConfig, FrameworkError, Outcome, RaiseRule,
};
use treenet_decomp::{LayeredDecomposition, Layering, Strategy};
use treenet_model::{HeightClass, InstanceId, Problem, Solution};

/// User-facing configuration for the solvers.
#[derive(Clone, Debug)]
pub struct SolverConfig {
    /// Slackness target: phase 1 ends with everything `(1-ε)`-satisfied.
    pub epsilon: f64,
    /// Seed for the common-randomness MIS.
    pub seed: u64,
    /// Tree-decomposition strategy (ignored by line solvers).
    pub strategy: Strategy,
    /// Record raise traces for interference checking.
    pub record_trace: bool,
    /// Which MIS routine supplies the `Time(MIS)` factor (Luby by
    /// default; the deterministic backend trades rounds for determinism,
    /// as the paper's `Time(MIS)` discussion allows).
    pub mis_backend: treenet_mis::MisBackend,
    /// A-priori `hmin` for the arbitrary-height schedulers (Section 6's
    /// alternative assumption: "a value hmin is fixed a priori and all
    /// the demands are required to have height at least hmin"). `None`
    /// derives `hmin` from the instance (the default assumption that all
    /// processors know it).
    pub hmin: Option<f64>,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            epsilon: 0.1,
            seed: 0x7ee5,
            strategy: Strategy::Ideal,
            record_trace: false,
            mis_backend: treenet_mis::MisBackend::Luby,
            hmin: None,
        }
    }
}

impl SolverConfig {
    /// Builder-style setter for ε.
    #[must_use]
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Builder-style setter for the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style setter for the decomposition strategy.
    #[must_use]
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Builder-style setter for trace recording.
    #[must_use]
    pub fn with_trace(mut self, record: bool) -> Self {
        self.record_trace = record;
        self
    }

    /// Builder-style setter for the MIS backend.
    #[must_use]
    pub fn with_mis_backend(mut self, backend: treenet_mis::MisBackend) -> Self {
        self.mis_backend = backend;
        self
    }

    /// Builder-style setter for the a-priori `hmin` (Section 6).
    #[must_use]
    pub fn with_hmin(mut self, hmin: f64) -> Self {
        self.hmin = Some(hmin);
        self
    }
}

/// The unit-rule stage factor `ξ = 2Δ′/(2Δ′+1)`, `Δ′ = Δ+1` (Section 5):
/// `14/15` for `Δ = 6`, `8/9` for `Δ = 3`. This is exactly the largest ξ
/// for which a "kill" doubles profits (Claim 5.2), giving the
/// `O(log(pmax/pmin))` per-stage step bound.
pub fn unit_xi(delta: usize) -> f64 {
    let dp = 2.0 * (delta as f64 + 1.0);
    dp / (dp + 1.0)
}

/// The narrow-rule stage factor `ξ = c/(c+hmin)` with `c = 2Δ²+1`
/// (Section 6.1's "suitable constant"). Derivation of `c`: a kill of `d₂`
/// by `d₁` contributes at least `min(1, 2·hmin)·δ(d₁) = 2·hmin·δ(d₁)` to
/// the LHS of `d₂` (α path: `δ`; β path: `h(d₂)·2|π|δ ≥ 2·hmin·δ`), and
/// `δ(d₁) ≥ ξ^j·p(d₁)/c`; requiring the kill gap `(ξ^{j-1}-ξ^j)·p(d₂)` to
/// absorb that yields `p(d₂)/p(d₁) ≥ 2·hmin·ξ/((1-ξ)·c) = 2` exactly at
/// `ξ = c/(c+hmin)` — restoring the profit-doubling chain of Lemma 5.1
/// with `O((1/hmin)·log(1/ε))` stages per epoch.
pub fn narrow_xi(delta: usize, hmin: f64) -> f64 {
    assert!(
        hmin > 0.0 && hmin <= 0.5,
        "narrow instances have hmin ∈ (0, 1/2]"
    );
    let c = 2.0 * (delta as f64) * (delta as f64) + 1.0;
    c / (c + hmin)
}

pub(crate) fn framework_config(config: &SolverConfig, xi: f64) -> FrameworkConfig {
    FrameworkConfig {
        epsilon: config.epsilon,
        xi,
        seed: config.seed,
        max_steps_per_stage: Some(1_000_000),
        record_trace: config.record_trace,
        mis_backend: config.mis_backend,
    }
}

/// Result of an arbitrary-height run: the wide and narrow sub-runs plus
/// the combined solution — of Theorem 6.3 / 7.2 ([`solve`]), and of the
/// Panconesi–Sozio wide/narrow baseline (`treenet_baseline::ps_line_arbitrary`,
/// its two halves at the one-stage schedule).
#[derive(Clone, Debug)]
pub struct CombinedOutcome {
    /// The per-network combination of the two solutions.
    pub solution: Solution,
    /// Outcome of the unit-rule run on wide instances (`h > 1/2`).
    pub wide: Outcome,
    /// Outcome of the narrow-rule run on narrow instances (`h ≤ 1/2`).
    pub narrow: Outcome,
}

impl CombinedOutcome {
    /// Profit of the combined solution.
    pub fn profit(&self, problem: &Problem) -> f64 {
        self.solution.profit(problem)
    }

    /// The measured slackness of the combined run: the minimum of the
    /// wide and narrow λ (each the minimum satisfaction ratio over that
    /// run's participants).
    pub fn lambda(&self) -> f64 {
        self.wide.lambda.min(self.narrow.lambda)
    }

    /// Certified upper bound on `p(OPT)`:
    /// `p(OPT) ≤ p(OPT_wide) + p(OPT_narrow) ≤ val_w/λ_w + val_n/λ_n`.
    pub fn opt_upper_bound(&self) -> f64 {
        self.wide.opt_upper_bound() + self.narrow.opt_upper_bound()
    }

    /// Certified approximation factor of the combined solution.
    pub fn certified_ratio(&self, problem: &Problem) -> f64 {
        certified_ratio(self.opt_upper_bound(), self.profit(problem))
    }
}

/// Resolves the `hmin` of a narrow run: the a-priori value when `fixed`
/// (checked to be a height, validated against every narrow participant,
/// then clamped to 1/2), else the minimum participant height (1/2 when
/// empty — any valid value does, as an empty run performs no stages).
///
/// [`AutoChoice::halves`] derives the narrow `ξ` through this function,
/// for the logical solver, the distributed runners in `treenet-dist` and
/// the `DeltaEngine` alike. The error value is the human-readable reason
/// (callers wrap it in their error type).
///
/// # Errors
///
/// When `fixed` lies outside `(0, 1]` (NaN included), or exceeds some
/// participant's height (beyond the model tolerance), i.e. the a-priori
/// assumption is violated.
pub fn resolve_narrow_hmin(
    problem: &Problem,
    participants: &[InstanceId],
    fixed: Option<f64>,
) -> Result<f64, String> {
    match fixed {
        Some(fixed) => {
            if !(fixed > 0.0 && fixed <= 1.0) {
                return Err(format!("a-priori hmin must lie in (0, 1], got {fixed}"));
            }
            // The a-priori assumption: every narrow demand must respect it.
            if let Some(&offender) = participants
                .iter()
                .find(|&&d| problem.height_of(d) < fixed - treenet_model::EPS)
            {
                return Err(format!(
                    "a-priori hmin = {fixed} but instance {offender} has height {}",
                    problem.height_of(offender)
                ));
            }
            Ok(fixed.min(0.5))
        }
        None => Ok(participants
            .iter()
            .map(|&d| problem.height_of(d))
            .fold(0.5f64, f64::min)),
    }
}

/// The per-network combiner's tie-breaking predicate: the wide run wins
/// network `t` iff its profit there is at least the narrow run's. This is
/// the single definition shared by [`combine_by_network`] and the
/// in-network convergecast combiner of `treenet-dist`, so the two cannot
/// drift on ties.
///
/// Both callers must feed profit sums accumulated **in ascending instance
/// id order** (the order of `Solution::selected`) for the comparison to
/// be bit-identical across implementations.
#[inline]
pub fn combine_decision(wide_profit: f64, narrow_profit: f64) -> bool {
    wide_profit >= narrow_profit
}

/// Per-network combiner of Theorem 6.3: for each network keep whichever of
/// the two solutions earns more profit there. Feasible because the two
/// runs partition the demands by height class.
///
/// Runs in `O(|wide| + |narrow| + networks)`: one bucketing pass per
/// class, one decision per network, one emission pass per class. The
/// per-network profit sums fold in ascending instance id order (the
/// order of `Solution::selected`), so every [`combine_decision`] sees
/// bit-identical operands to a per-network filtered sum.
pub fn combine_by_network(problem: &Problem, wide: &Solution, narrow: &Solution) -> Solution {
    let nets = problem.network_count();
    let mut wide_profit = vec![0.0f64; nets];
    let mut narrow_profit = vec![0.0f64; nets];
    for &d in wide.selected() {
        wide_profit[problem.instance(d).network.0 as usize] += problem.profit_of(d);
    }
    for &d in narrow.selected() {
        narrow_profit[problem.instance(d).network.0 as usize] += problem.profit_of(d);
    }
    let pick_wide: Vec<bool> = (0..nets)
        .map(|t| combine_decision(wide_profit[t], narrow_profit[t]))
        .collect();
    let mut selected = Vec::with_capacity(wide.len().max(narrow.len()));
    for &d in wide.selected() {
        if pick_wide[problem.instance(d).network.0 as usize] {
            selected.push(d);
        }
    }
    for &d in narrow.selected() {
        if !pick_wide[problem.instance(d).network.0 as usize] {
            selected.push(d);
        }
    }
    Solution::new(selected)
}

/// One of the paper's four schedulers — the variant [`solve`] and
/// `treenet-dist`'s `run_distributed` take as data, and the theorem
/// [`solve_auto`] picks.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum AutoChoice {
    /// Line length classes, one unit-rule run → Theorem 7.1.
    LineUnit,
    /// Line length classes, wide/narrow split → Theorem 7.2.
    LineArbitrary,
    /// Tree decompositions, one unit-rule run → Theorem 5.3.
    TreeUnit,
    /// Tree decompositions, wide/narrow split → Theorem 6.3.
    TreeArbitrary,
}

/// One half of a theorem's run, as mapped by [`AutoChoice::halves`].
#[derive(Clone, Debug)]
pub struct Half {
    /// The participating height class; `None` when every demand takes
    /// part (the unit theorems).
    pub class: Option<HeightClass>,
    /// How the half raises duals.
    pub rule: RaiseRule,
    /// The stage factor: [`unit_xi`] or [`narrow_xi`] of `Δ`.
    pub xi: f64,
    /// The participating instances, ascending: the live instances of
    /// the half's class (a departed demand's instances never take part).
    pub participants: Vec<InstanceId>,
}

impl AutoChoice {
    /// The theorem for a network family and a height split: line length
    /// classes when every network is a canonical line, tree
    /// decompositions otherwise; a wide/narrow split when `split`. The
    /// one table behind [`auto_choice`] and the `DeltaEngine`.
    pub(crate) fn of(lines: bool, split: bool) -> AutoChoice {
        match (lines, split) {
            (true, false) => AutoChoice::LineUnit,
            (true, true) => AutoChoice::LineArbitrary,
            (false, false) => AutoChoice::TreeUnit,
            (false, true) => AutoChoice::TreeArbitrary,
        }
    }

    /// The layering the theorem runs on: tree decompositions built by
    /// `strategy` (Lemma 4.3, `Δ ≤ 6` for the ideal strategy) or the
    /// Section-7 length classes (`Δ ≤ 3`, `strategy` unused).
    ///
    /// # Errors
    ///
    /// For a line theorem, the reason some network is not a canonical
    /// line ([`Layering::for_lines`]).
    pub fn layering(self, problem: &Problem, strategy: Strategy) -> Result<Layering, String> {
        match self {
            AutoChoice::TreeUnit | AutoChoice::TreeArbitrary => {
                Ok(Layering::for_trees(problem, strategy))
            }
            AutoChoice::LineUnit | AutoChoice::LineArbitrary => Layering::for_lines(problem),
        }
    }

    /// The halves of the theorem's run over a layering of critical-set
    /// size `delta`. A unit theorem runs every live instance under the
    /// unit rule with `ξ = unit_xi(Δ)`. An arbitrary-height theorem runs
    /// the live wide instances that way, then the live narrow ones under
    /// the narrow rule with `ξ = narrow_xi(Δ, hmin)`, where
    /// [`resolve_narrow_hmin`] resolves `hmin` from the a-priori value
    /// (which the unit theorems ignore). A departed demand's instances
    /// take part in neither half.
    ///
    /// This is the one theorem → halves map: [`solve`], the in-network
    /// runner of `treenet-dist`, its driver-counted oracle and the
    /// `DeltaEngine` all run exactly these halves, in this order.
    ///
    /// # Errors
    ///
    /// The reason an a-priori `hmin` is not a height or is violated.
    pub fn halves(
        self,
        problem: &Problem,
        delta: usize,
        hmin: Option<f64>,
    ) -> Result<Vec<Half>, String> {
        let all = problem
            .instances()
            .filter(|inst| !problem.is_departed(inst.demand))
            .map(|inst| inst.id);
        let unit = |class, participants| Half {
            class,
            rule: RaiseRule::Unit,
            xi: unit_xi(delta),
            participants,
        };
        match self {
            AutoChoice::TreeUnit | AutoChoice::LineUnit => Ok(vec![unit(None, all.collect())]),
            AutoChoice::TreeArbitrary | AutoChoice::LineArbitrary => {
                let (wide, narrow) = HeightClass::split(problem, all);
                let hmin = resolve_narrow_hmin(problem, &narrow, hmin)?;
                Ok(vec![
                    unit(Some(HeightClass::Wide), wide),
                    Half {
                        class: Some(HeightClass::Narrow),
                        rule: RaiseRule::Narrow,
                        xi: narrow_xi(delta, hmin),
                        participants: narrow,
                    },
                ])
            }
        }
    }
}

/// The run [`solve`] executed — the mirror of `treenet-dist`'s
/// `DistAutoRun`. Both variants are boxed: a split holds two framework
/// runs, so unboxed variants would differ in size by a whole run.
#[derive(Clone, Debug)]
pub enum AutoRun {
    /// A single unit-rule run (the unit-height theorems).
    Single(Box<Outcome>),
    /// A wide/narrow split run (the arbitrary-height theorems).
    Split(Box<CombinedOutcome>),
}

impl AutoRun {
    /// The framework run of each half, in [`AutoChoice::halves`] order:
    /// the single run, or the wide run then the narrow run.
    pub fn halves(&self) -> Vec<&Outcome> {
        match self {
            AutoRun::Single(out) => vec![out.as_ref()],
            AutoRun::Split(out) => vec![&out.wide, &out.narrow],
        }
    }
}

/// Outcome of [`solve`]: the solution, which theorem ran, and the run.
#[derive(Clone, Debug)]
pub struct AutoOutcome {
    /// The extracted feasible solution.
    pub solution: Solution,
    /// The theorem that ran.
    pub choice: AutoChoice,
    /// Certified upper bound on `p(OPT)`.
    pub opt_upper_bound: f64,
    /// Measured slackness λ of the run (minimum over the wide and narrow
    /// halves for the arbitrary-height theorems) — the value the
    /// distributed runner `treenet-dist::run_distributed` reproduces
    /// bit-identically.
    pub lambda: f64,
    /// The underlying framework run(s).
    pub run: AutoRun,
}

impl AutoOutcome {
    /// Certified approximation factor.
    pub fn certified_ratio(&self, problem: &Problem) -> f64 {
        certified_ratio(self.opt_upper_bound, self.solution.profit(problem))
    }
}

/// Whether every network of `problem` is a canonical line — the family
/// test behind [`auto_choice`] and the `DeltaEngine`'s theorem.
pub(crate) fn all_canonical_lines(problem: &Problem) -> bool {
    problem
        .networks()
        .all(|t| problem.network(t).is_canonical_line())
}

/// The dispatch rule of [`solve_auto`], exposed as its own function: the
/// strongest applicable theorem for `problem` (line-networks get the
/// `Δ = 3` decomposition with its tighter ratios, unit heights skip the
/// wide/narrow split).
///
/// The heights are those of the live demands: once the last non-unit
/// demand departs, the unit theorem runs. The layering the theorem then
/// builds still ranges over every instance, departed ones included: its
/// `Δ` (hence `ξ`) and a line layering's `Lmin` count them.
///
/// This is the single definition shared with
/// `treenet-dist::run_distributed_auto`, so the logical and
/// message-passing dispatches cannot drift.
pub fn auto_choice(problem: &Problem) -> AutoChoice {
    let unit = problem
        .live_demands()
        .all(|a| problem.demand(a).is_unit_height());
    AutoChoice::of(all_canonical_lines(problem), !unit)
}

/// Runs the theorem `choice` as the logical distributed execution: lays
/// the problem out with [`AutoChoice::layering`], runs each of
/// [`AutoChoice::halves`] through the two-phase framework and, for a
/// wide/narrow split, keeps the better half per network
/// ([`combine_by_network`]). Certified factors: `7/(1-ε)` (Theorem 5.3),
/// `(7 + 73)/(1-ε)` (6.3), `4/(1-ε)` (7.1) and `(4 + 19)/(1-ε)` (7.2).
///
/// A unit theorem accepts non-unit heights too (they are simply
/// scheduled exclusively), but its guarantee applies to the unit case.
///
/// # Errors
///
/// [`FrameworkError::BadParameters`] for an `ε` outside `(0, 1)`, then
/// for a line theorem on a network that is not a canonical line, then
/// for a violated a-priori `hmin`;
/// [`FrameworkError::StageDiverged`] for a diverging stage.
///
/// # Example
///
/// ```
/// use treenet_model::fixtures::figure2;
/// use treenet_core::{solve, AutoChoice, SolverConfig};
///
/// let (problem, _) = figure2();
/// let outcome = solve(&problem, AutoChoice::TreeUnit, &SolverConfig::default()).unwrap();
/// assert!(outcome.solution.verify(&problem).is_ok());
/// ```
pub fn solve(
    problem: &Problem,
    choice: AutoChoice,
    config: &SolverConfig,
) -> Result<AutoOutcome, FrameworkError> {
    let bad = |reason| FrameworkError::BadParameters { reason };
    validate_epsilon(config.epsilon).map_err(bad)?;
    let layering = choice.layering(problem, config.strategy).map_err(bad)?;
    let layers = LayeredDecomposition::new(problem, layering);
    let halves = choice
        .halves(problem, layers.delta(), config.hmin)
        .map_err(bad)?;
    let mut runs = Vec::with_capacity(halves.len());
    for half in &halves {
        let framework = framework_config(config, half.xi);
        runs.push(run_two_phase(
            problem,
            &layers,
            half.rule,
            &framework,
            &half.participants,
        )?);
    }
    let mut runs = runs.into_iter();
    let run = match (runs.next(), runs.next()) {
        (Some(wide), Some(narrow)) => AutoRun::Split(Box::new(CombinedOutcome {
            solution: combine_by_network(problem, &wide.solution, &narrow.solution),
            wide,
            narrow,
        })),
        (Some(single), None) => AutoRun::Single(Box::new(single)),
        _ => unreachable!("every theorem runs one or two halves"),
    };
    let (solution, opt_upper_bound, lambda) = match &run {
        AutoRun::Single(out) => (out.solution.clone(), out.opt_upper_bound(), out.lambda),
        AutoRun::Split(out) => (out.solution.clone(), out.opt_upper_bound(), out.lambda()),
    };
    Ok(AutoOutcome {
        solution,
        choice,
        opt_upper_bound,
        lambda,
        run,
    })
}

/// Runs the strongest applicable theorem ([`auto_choice`]) through
/// [`solve`].
///
/// # Errors
///
/// Propagates [`FrameworkError`].
///
/// # Example
///
/// ```
/// use treenet_model::fixtures::figure1;
/// use treenet_core::{solve_auto, AutoChoice, SolverConfig};
///
/// let (problem, _) = figure1();
/// let out = solve_auto(&problem, &SolverConfig::default()).unwrap();
/// // Figure 1 lives on a line with fractional heights → Theorem 7.2.
/// assert_eq!(out.choice, AutoChoice::LineArbitrary);
/// assert!(out.solution.verify(&problem).is_ok());
/// ```
pub fn solve_auto(problem: &Problem, config: &SolverConfig) -> Result<AutoOutcome, FrameworkError> {
    solve(problem, auto_choice(problem), config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use treenet_model::workload::{HeightMode, LineWorkload, TreeWorkload};

    #[test]
    fn xi_constants_match_paper() {
        assert!((unit_xi(6) - 14.0 / 15.0).abs() < 1e-12);
        assert!((unit_xi(3) - 8.0 / 9.0).abs() < 1e-12);
        // c = 2·36+1 = 73 (trees), 2·9+1 = 19 (lines).
        assert!((narrow_xi(6, 0.5) - 73.0 / 73.5).abs() < 1e-12);
        assert!((narrow_xi(3, 0.25) - 19.0 / 19.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "hmin")]
    fn narrow_xi_rejects_wide_hmin() {
        let _ = narrow_xi(6, 0.9);
    }

    /// A theorem's test case: (theorem, seeds, workload, certified factor,
    /// the layering's `Δ` bound).
    type Case = (AutoChoice, u64, fn(u64) -> Problem, f64, usize);

    /// Every theorem, feasible and within its certified bound `factor/(1-ε)`.
    #[test]
    fn every_theorem_is_feasible_and_certified() {
        let cases: [Case; 4] = [
            (
                AutoChoice::TreeUnit,
                6,
                |seed| {
                    TreeWorkload::new(20, 24)
                        .with_networks(3)
                        .generate(&mut SmallRng::seed_from_u64(seed))
                },
                7.0,
                6,
            ),
            (
                AutoChoice::LineUnit,
                6,
                |seed| {
                    LineWorkload::new(40, 25)
                        .with_resources(2)
                        .with_window_slack(3)
                        .with_len_range(2, 10)
                        .generate(&mut SmallRng::seed_from_u64(seed))
                },
                4.0,
                3,
            ),
            (
                AutoChoice::TreeArbitrary,
                4,
                |seed| {
                    TreeWorkload::new(16, 20)
                        .with_networks(2)
                        .with_heights(HeightMode::Bimodal {
                            narrow_frac: 0.6,
                            hmin: 0.2,
                        })
                        .generate(&mut SmallRng::seed_from_u64(seed))
                },
                80.0,
                6,
            ),
            (
                AutoChoice::LineArbitrary,
                4,
                |seed| {
                    LineWorkload::new(36, 20)
                        .with_resources(2)
                        .with_window_slack(2)
                        .with_len_range(1, 9)
                        .with_heights(HeightMode::Uniform { hmin: 0.15 })
                        .generate(&mut SmallRng::seed_from_u64(seed))
                },
                23.0,
                3,
            ),
        ];
        for (choice, seeds, workload, factor, delta) in cases {
            for seed in 0..seeds {
                let p = workload(seed);
                let out = solve(&p, choice, &SolverConfig::default()).unwrap();
                assert!(out.solution.verify(&p).is_ok(), "{choice:?} seed {seed}");
                for half in out.run.halves() {
                    assert!(half.solution.verify(&p).is_ok());
                    assert!(half.delta <= delta, "{choice:?} seed {seed}");
                }
                // The combination is at least as good as each side.
                if let AutoRun::Split(split) = &out.run {
                    assert!(
                        split.profit(&p) + 1e-9
                            >= split
                                .wide
                                .solution
                                .profit(&p)
                                .max(split.narrow.solution.profit(&p))
                    );
                }
                assert!(
                    out.certified_ratio(&p) <= factor / 0.9 + 1e-6,
                    "{choice:?} seed {seed}: ratio {}",
                    out.certified_ratio(&p)
                );
            }
        }
    }

    #[test]
    fn all_unit_heights_go_wide() {
        let p = TreeWorkload::new(12, 10).generate(&mut SmallRng::seed_from_u64(1));
        let (wide, narrow) = HeightClass::split(&p, p.instances().map(|inst| inst.id));
        assert_eq!(wide.len(), p.instance_count());
        assert!(narrow.is_empty());
        // Arbitrary-height solver degenerates gracefully to the unit one.
        let out = solve(&p, AutoChoice::TreeArbitrary, &SolverConfig::default()).unwrap();
        assert!(out.run.halves()[1].solution.is_empty());
        assert!(out.solution.verify(&p).is_ok());
    }

    #[test]
    fn config_builders() {
        let cfg = SolverConfig::default()
            .with_epsilon(0.2)
            .with_seed(9)
            .with_strategy(Strategy::Balancing)
            .with_trace(true);
        assert_eq!(cfg.epsilon, 0.2);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.strategy, Strategy::Balancing);
        assert!(cfg.record_trace);
    }
}

#[cfg(test)]
mod hmin_tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use treenet_model::workload::{HeightMode, TreeWorkload};

    #[test]
    fn a_priori_hmin_is_honored() {
        let mut rng = SmallRng::seed_from_u64(8);
        let p = TreeWorkload::new(14, 12)
            .with_heights(HeightMode::Uniform { hmin: 0.3 })
            .generate(&mut rng);
        // Valid: every height ≥ 0.3 ≥ 0.25.
        let cfg = SolverConfig::default().with_hmin(0.25);
        let out = solve(&p, AutoChoice::TreeArbitrary, &cfg).unwrap();
        assert!(out.solution.verify(&p).is_ok());
        // Invalid: demanding hmin = 0.6 while narrow demands go down to
        // 0.3 violates the a-priori assumption — reported after a bad ε.
        if p.min_height() < 0.5 {
            let cfg = SolverConfig::default().with_hmin(0.6);
            let err = solve(&p, AutoChoice::TreeArbitrary, &cfg).unwrap_err();
            assert!(
                matches!(&err, FrameworkError::BadParameters { reason } if reason.contains("hmin"))
            );
            let err = solve(&p, AutoChoice::TreeArbitrary, &cfg.with_epsilon(2.0)).unwrap_err();
            assert!(
                matches!(&err, FrameworkError::BadParameters { reason } if reason.contains("epsilon"))
            );
        }
    }

    #[test]
    fn fixed_hmin_controls_stage_count() {
        // A smaller a-priori hmin means a ξ closer to 1 and thus more
        // stages — the O(1/hmin) factor is driven by the assumption, not
        // the realized heights.
        let mut rng = SmallRng::seed_from_u64(9);
        let p = TreeWorkload::new(12, 10)
            .with_heights(HeightMode::Uniform { hmin: 0.4 })
            .generate(&mut rng);
        let run = |hmin| {
            solve(
                &p,
                AutoChoice::TreeArbitrary,
                &SolverConfig::default().with_hmin(hmin),
            )
            .unwrap()
        };
        let (coarse, fine) = (run(0.4), run(0.05));
        assert!(fine.run.halves()[1].stats.stages >= coarse.run.halves()[1].stats.stages);
        assert!(coarse.solution.verify(&p).is_ok());
        assert!(fine.solution.verify(&p).is_ok());
    }
}

#[cfg(test)]
mod auto_tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use treenet_model::workload::{HeightMode, LineWorkload, TreeWorkload};

    #[test]
    fn dispatch_matches_problem_shape() {
        let mut rng = SmallRng::seed_from_u64(2);
        let cases: Vec<(Problem, AutoChoice)> = vec![
            (
                LineWorkload::new(20, 8).generate(&mut rng),
                AutoChoice::LineUnit,
            ),
            (
                LineWorkload::new(20, 8)
                    .with_heights(HeightMode::Uniform { hmin: 0.3 })
                    .generate(&mut rng),
                AutoChoice::LineArbitrary,
            ),
            (
                TreeWorkload::new(12, 8).generate(&mut rng),
                AutoChoice::TreeUnit,
            ),
            (
                TreeWorkload::new(12, 8)
                    .with_heights(HeightMode::Uniform { hmin: 0.3 })
                    .generate(&mut rng),
                AutoChoice::TreeArbitrary,
            ),
        ];
        for (problem, expected) in cases {
            let out = solve_auto(&problem, &SolverConfig::default()).unwrap();
            assert_eq!(out.choice, expected);
            assert!(out.solution.verify(&problem).is_ok());
            assert!(out.certified_ratio(&problem).is_finite());
        }
    }
}
