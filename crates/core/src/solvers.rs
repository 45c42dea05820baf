//! The paper's schedulers, assembled from the framework:
//!
//! * [`solve_tree_unit`] — Theorem 5.3, `(7+ε)`-approximation;
//! * [`solve_tree_arbitrary`] — Theorem 6.3, `(80+ε)`-approximation
//!   (wide/narrow split + per-network combiner);
//! * [`solve_line_unit`] — Theorem 7.1, `(4+ε)`-approximation (windows
//!   supported via instance expansion);
//! * [`solve_line_arbitrary`] — Theorem 7.2, `(23+ε)`-approximation.
//!
//! All stage factors `ξ` are derived from the layered decomposition's `Δ`
//! exactly as in the paper: `ξ = 2Δ′/(2Δ′+1)` with `Δ′ = Δ+1` for the unit
//! rule (`14/15` for trees, `8/9` for lines) and `ξ = c/(c+hmin)` with
//! `c = 2Δ²+1` for the narrow rule (73 for trees, 19 for lines — the
//! "suitable constant" of Section 6.1; see `narrow_xi` for the
//! derivation).

use crate::certificate::certified_ratio;
use crate::framework::{run_two_phase, FrameworkConfig, FrameworkError, Outcome, RaiseRule};
use treenet_decomp::{LayeredDecomposition, Strategy};
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

fn framework_config(config: &SolverConfig, xi: f64) -> FrameworkConfig {
    FrameworkConfig {
        epsilon: config.epsilon,
        xi,
        seed: config.seed,
        max_steps_per_stage: Some(1_000_000),
        record_trace: config.record_trace,
        mis_backend: config.mis_backend,
    }
}

/// Distributed scheduler for the **unit height case on tree-networks**
/// (Theorem 5.3): ideal tree decompositions → layered decomposition with
/// `Δ = 6` → two-phase framework with `ξ = 14/15`. Certified
/// approximation factor `(Δ+1)/λ = 7/(1-ε)`.
///
/// Accepts non-unit heights too (they are simply scheduled exclusively),
/// but the approximation guarantee applies to the unit case.
///
/// # Errors
///
/// Propagates [`FrameworkError`] for bad `ε` or a diverging stage.
///
/// # Example
///
/// ```
/// use treenet_model::fixtures::figure2;
/// use treenet_core::{solve_tree_unit, SolverConfig};
///
/// let (problem, _) = figure2();
/// let outcome = solve_tree_unit(&problem, &SolverConfig::default()).unwrap();
/// assert!(outcome.solution.verify(&problem).is_ok());
/// ```
pub fn solve_tree_unit(
    problem: &Problem,
    config: &SolverConfig,
) -> Result<Outcome, FrameworkError> {
    let layers = LayeredDecomposition::for_trees(problem, config.strategy);
    let all: Vec<InstanceId> = problem.instances().map(|d| d.id).collect();
    run_two_phase(
        problem,
        &layers,
        RaiseRule::Unit,
        &framework_config(config, unit_xi(layers.delta())),
        &all,
    )
}

/// Distributed scheduler for the **unit height case on line-networks with
/// windows** (Theorem 7.1): length-class layers with `Δ = 3`, `ξ = 8/9`.
/// Certified factor `4/(1-ε)`.
///
/// # Errors
///
/// Propagates [`FrameworkError`].
///
/// # Panics
///
/// Panics if some network is not a canonical line.
pub fn solve_line_unit(
    problem: &Problem,
    config: &SolverConfig,
) -> Result<Outcome, FrameworkError> {
    let layers = LayeredDecomposition::for_lines(problem);
    let all: Vec<InstanceId> = problem.instances().map(|d| d.id).collect();
    run_two_phase(
        problem,
        &layers,
        RaiseRule::Unit,
        &framework_config(config, unit_xi(layers.delta())),
        &all,
    )
}

/// Result of an arbitrary-height run: the wide and narrow sub-runs plus
/// the combined solution (Theorem 6.3 / 7.2).
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

/// Splits instances into wide and narrow classes by their demand height.
fn split_by_height(problem: &Problem) -> (Vec<InstanceId>, Vec<InstanceId>) {
    let mut wide = Vec::new();
    let mut narrow = Vec::new();
    for inst in problem.instances() {
        match problem.demand(inst.demand).height_class() {
            HeightClass::Wide => wide.push(inst.id),
            HeightClass::Narrow => narrow.push(inst.id),
        }
    }
    (wide, narrow)
}

/// Resolves the `hmin` of a narrow run: the a-priori value when `fixed`
/// (validated against every narrow participant, then clamped to 1/2),
/// else the minimum participant height (1/2 when empty — any valid value
/// does, as an empty run performs no stages).
///
/// This is the single definition shared by the logical arbitrary-height
/// solvers and the distributed runners in `treenet-dist`, so the two
/// sides derive the same `narrow_xi` by construction. The error value is
/// the human-readable reason (callers wrap it in their error type).
///
/// # Errors
///
/// When `fixed` exceeds some participant's height (beyond the model
/// tolerance), i.e. the a-priori assumption is violated.
pub fn resolve_narrow_hmin(
    problem: &Problem,
    participants: &[InstanceId],
    fixed: Option<f64>,
) -> Result<f64, String> {
    match fixed {
        Some(fixed) => {
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

fn solve_arbitrary(
    problem: &Problem,
    config: &SolverConfig,
    layers: &LayeredDecomposition,
) -> Result<CombinedOutcome, FrameworkError> {
    let (wide_ids, narrow_ids) = split_by_height(problem);
    let wide = run_two_phase(
        problem,
        layers,
        RaiseRule::Unit,
        &framework_config(config, unit_xi(layers.delta())),
        &wide_ids,
    )?;
    let hmin = resolve_narrow_hmin(problem, &narrow_ids, config.hmin)
        .map_err(|reason| FrameworkError::BadParameters { reason })?;
    let narrow = run_two_phase(
        problem,
        layers,
        RaiseRule::Narrow,
        &framework_config(config, narrow_xi(layers.delta(), hmin)),
        &narrow_ids,
    )?;
    let solution = combine_by_network(problem, &wide.solution, &narrow.solution);
    Ok(CombinedOutcome {
        solution,
        wide,
        narrow,
    })
}

/// Distributed scheduler for the **arbitrary height case on
/// tree-networks** (Theorem 6.3): wide instances (`h > 1/2`) through the
/// unit algorithm, narrow instances through the modified raising rule,
/// then the per-network combiner. Certified factor
/// `(7 + 73)/(1-ε) = (80+ε)`.
///
/// # Errors
///
/// Propagates [`FrameworkError`].
pub fn solve_tree_arbitrary(
    problem: &Problem,
    config: &SolverConfig,
) -> Result<CombinedOutcome, FrameworkError> {
    let layers = LayeredDecomposition::for_trees(problem, config.strategy);
    solve_arbitrary(problem, config, &layers)
}

/// Distributed scheduler for the **arbitrary height case on line-networks
/// with windows** (Theorem 7.2): same split with `Δ = 3`, certified
/// factor `(4 + 19)/(1-ε) = (23+ε)`.
///
/// # Errors
///
/// Propagates [`FrameworkError`].
///
/// # Panics
///
/// Panics if some network is not a canonical line.
pub fn solve_line_arbitrary(
    problem: &Problem,
    config: &SolverConfig,
) -> Result<CombinedOutcome, FrameworkError> {
    let layers = LayeredDecomposition::for_lines(problem);
    solve_arbitrary(problem, config, &layers)
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

    #[test]
    fn tree_unit_produces_feasible_certified_solutions() {
        for seed in 0..6u64 {
            let p = TreeWorkload::new(20, 24)
                .with_networks(3)
                .generate(&mut SmallRng::seed_from_u64(seed));
            let outcome = solve_tree_unit(&p, &SolverConfig::default()).unwrap();
            assert!(outcome.solution.verify(&p).is_ok());
            // Theorem 5.3 bound: 7/(1-ε).
            let bound = 7.0 / (1.0 - 0.1) + 1e-6;
            assert!(
                outcome.certified_ratio(&p) <= bound,
                "seed {seed}: ratio {}",
                outcome.certified_ratio(&p)
            );
        }
    }

    #[test]
    fn line_unit_with_windows() {
        for seed in 0..6u64 {
            let p = LineWorkload::new(40, 25)
                .with_resources(2)
                .with_window_slack(3)
                .with_len_range(2, 10)
                .generate(&mut SmallRng::seed_from_u64(seed));
            let outcome = solve_line_unit(&p, &SolverConfig::default()).unwrap();
            assert!(outcome.solution.verify(&p).is_ok());
            assert!(outcome.delta <= 3);
            // Theorem 7.1 bound: 4/(1-ε).
            assert!(
                outcome.certified_ratio(&p) <= 4.0 / 0.9 + 1e-6,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn tree_arbitrary_combines_feasibly() {
        for seed in 0..4u64 {
            let p = TreeWorkload::new(16, 20)
                .with_networks(2)
                .with_heights(HeightMode::Bimodal {
                    narrow_frac: 0.6,
                    hmin: 0.2,
                })
                .generate(&mut SmallRng::seed_from_u64(seed));
            let combined = solve_tree_arbitrary(&p, &SolverConfig::default()).unwrap();
            assert!(combined.solution.verify(&p).is_ok(), "seed {seed}");
            assert!(combined.wide.solution.verify(&p).is_ok());
            assert!(combined.narrow.solution.verify(&p).is_ok());
            // The combination is at least as good as each side.
            let pc = combined.profit(&p);
            assert!(
                pc + 1e-9
                    >= combined
                        .wide
                        .solution
                        .profit(&p)
                        .max(combined.narrow.solution.profit(&p))
            );
            // Theorem 6.3 bound: 80/(1-ε).
            assert!(
                combined.certified_ratio(&p) <= 80.0 / 0.9 + 1e-6,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn line_arbitrary_certified_within_23() {
        for seed in 0..4u64 {
            let p = LineWorkload::new(36, 20)
                .with_resources(2)
                .with_window_slack(2)
                .with_len_range(1, 9)
                .with_heights(HeightMode::Uniform { hmin: 0.15 })
                .generate(&mut SmallRng::seed_from_u64(seed));
            let combined = solve_line_arbitrary(&p, &SolverConfig::default()).unwrap();
            assert!(combined.solution.verify(&p).is_ok(), "seed {seed}");
            // Theorem 7.2 bound: 23/(1-ε).
            assert!(
                combined.certified_ratio(&p) <= 23.0 / 0.9 + 1e-6,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn all_unit_heights_go_wide() {
        let p = TreeWorkload::new(12, 10).generate(&mut SmallRng::seed_from_u64(1));
        let (wide, narrow) = split_by_height(&p);
        assert_eq!(wide.len(), p.instance_count());
        assert!(narrow.is_empty());
        // Arbitrary-height solver degenerates gracefully to the unit one.
        let combined = solve_tree_arbitrary(&p, &SolverConfig::default()).unwrap();
        assert!(combined.narrow.solution.is_empty());
        assert!(combined.solution.verify(&p).is_ok());
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
        let out = solve_tree_arbitrary(&p, &SolverConfig::default().with_hmin(0.25)).unwrap();
        assert!(out.solution.verify(&p).is_ok());
        // Invalid: demanding hmin = 0.6 while narrow demands go down to
        // 0.3 violates the a-priori assumption.
        if p.min_height() < 0.5 {
            let err = solve_tree_arbitrary(&p, &SolverConfig::default().with_hmin(0.6));
            assert!(matches!(err, Err(FrameworkError::BadParameters { .. })));
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
        let coarse = solve_tree_arbitrary(&p, &SolverConfig::default().with_hmin(0.4)).unwrap();
        let fine = solve_tree_arbitrary(&p, &SolverConfig::default().with_hmin(0.05)).unwrap();
        assert!(fine.narrow.stats.stages >= coarse.narrow.stats.stages);
        assert!(coarse.solution.verify(&p).is_ok());
        assert!(fine.solution.verify(&p).is_ok());
    }
}

/// Which solver [`solve_auto`] picked.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum AutoChoice {
    /// All canonical lines, all unit heights → Theorem 7.1.
    LineUnit,
    /// All canonical lines, mixed heights → Theorem 7.2.
    LineArbitrary,
    /// Trees, all unit heights → Theorem 5.3.
    TreeUnit,
    /// Trees, mixed heights → Theorem 6.3.
    TreeArbitrary,
}

/// Outcome of [`solve_auto`]: the solution plus which theorem applied.
#[derive(Clone, Debug)]
pub struct AutoOutcome {
    /// The extracted feasible solution.
    pub solution: Solution,
    /// The solver that was dispatched.
    pub choice: AutoChoice,
    /// Certified upper bound on `p(OPT)`.
    pub opt_upper_bound: f64,
    /// Measured slackness λ of the dispatched run (minimum over the wide
    /// and narrow sub-runs for the arbitrary-height solvers) — the value
    /// the distributed runner `treenet-dist::run_distributed_auto`
    /// reproduces bit-identically.
    pub lambda: f64,
}

impl AutoOutcome {
    /// Certified approximation factor.
    pub fn certified_ratio(&self, problem: &Problem) -> f64 {
        certified_ratio(self.opt_upper_bound, self.solution.profit(problem))
    }
}

/// The dispatch rule of [`solve_auto`], exposed as its own function: the
/// strongest applicable theorem for `problem` (line-networks get the
/// `Δ = 3` decomposition with its tighter ratios, unit heights skip the
/// wide/narrow split).
///
/// This is the single definition shared with
/// `treenet-dist::run_distributed_auto`, so the logical and
/// message-passing dispatches cannot drift.
pub fn auto_choice(problem: &Problem) -> AutoChoice {
    let all_lines = problem
        .networks()
        .all(|t| problem.network(t).is_canonical_line());
    match (all_lines, problem.is_unit_height()) {
        (true, true) => AutoChoice::LineUnit,
        (true, false) => AutoChoice::LineArbitrary,
        (false, true) => AutoChoice::TreeUnit,
        (false, false) => AutoChoice::TreeArbitrary,
    }
}

/// Dispatches to the strongest applicable theorem ([`auto_choice`]).
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
    let (choice, solution, bound, lambda) = match auto_choice(problem) {
        AutoChoice::LineUnit => {
            let out = solve_line_unit(problem, config)?;
            (
                AutoChoice::LineUnit,
                out.solution.clone(),
                out.opt_upper_bound(),
                out.lambda,
            )
        }
        AutoChoice::LineArbitrary => {
            let out = solve_line_arbitrary(problem, config)?;
            (
                AutoChoice::LineArbitrary,
                out.solution.clone(),
                out.opt_upper_bound(),
                out.lambda(),
            )
        }
        AutoChoice::TreeUnit => {
            let out = solve_tree_unit(problem, config)?;
            (
                AutoChoice::TreeUnit,
                out.solution.clone(),
                out.opt_upper_bound(),
                out.lambda,
            )
        }
        AutoChoice::TreeArbitrary => {
            let out = solve_tree_arbitrary(problem, config)?;
            (
                AutoChoice::TreeArbitrary,
                out.solution.clone(),
                out.opt_upper_bound(),
                out.lambda(),
            )
        }
    };
    Ok(AutoOutcome {
        solution,
        choice,
        opt_upper_bound: bound,
        lambda,
    })
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
