//! The Panconesi–Sozio line-network scheduler ([15, 16] in the paper),
//! as Section 3.2 of the paper casts it: the two-phase framework with
//! length-class grouping (`Δ = 3`) and a *one-stage* schedule, so an
//! instance drops out of the first phase as soon as it is
//! `1/(5+ε)`-satisfied — the slackness the paper's multi-stage
//! refinement improves to `1-ε`.
//!
//! The schedule is data: [`PsConfig::framework_config`] sets
//! `ε = ξ = 1 - 1/(5+ε)`, and [`run_two_phase`] runs it with one stage
//! per epoch at threshold `1 - ξ = 1/(5+ε)`.

use treenet_core::{
    run_two_phase, validate_epsilon, CombinedOutcome, FrameworkConfig, FrameworkError, Outcome,
    RaiseRule,
};
use treenet_decomp::{LayeredDecomposition, Layering};
use treenet_model::{HeightClass, InstanceId, Problem};

/// Configuration of the PS baseline.
#[derive(Clone, Debug)]
pub struct PsConfig {
    /// The ε of the `1/(5+ε)` drop-out threshold. Must lie in `(0, 1)`.
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

impl PsConfig {
    /// The framework configuration of PS's one-stage schedule:
    /// `ε = ξ = 1 - 1/(5+ε)`, so [`stages_for`](treenet_core::stages_for)
    /// yields one stage per epoch, whose threshold `1 - ξ` is the
    /// `1/(5+ε)` drop-out.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::BadParameters`] unless `ε` lies in `(0, 1)`.
    pub fn framework_config(&self) -> Result<FrameworkConfig, FrameworkError> {
        validate_epsilon(self.epsilon)
            .map_err(|reason| FrameworkError::BadParameters { reason })?;
        let xi = 1.0 - 1.0 / (5.0 + self.epsilon);
        Ok(FrameworkConfig {
            epsilon: xi,
            xi,
            seed: self.seed,
            max_steps_per_stage: Some(self.max_steps_per_epoch),
            ..FrameworkConfig::default()
        })
    }
}

/// The Panconesi–Sozio `(20+ε)`-approximation for the unit height case of
/// line-networks (with windows): `Δ = 3` length classes, single-stage
/// epochs, drop-out at `1/(5+ε)`.
///
/// # Errors
///
/// [`FrameworkError::BadParameters`] unless `ε` lies in `(0, 1)`, then
/// if some network is not a canonical line;
/// [`FrameworkError::StageDiverged`] if an epoch exceeds
/// [`PsConfig::max_steps_per_epoch`].
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
/// let outcome = ps_line_unit(&problem, &PsConfig::default()).unwrap();
/// assert!(outcome.solution.verify(&problem).is_ok());
/// // λ sits near 1/(5+ε) — 5× worse than the paper's (1-ε).
/// assert!(outcome.lambda >= 1.0 / 5.1 - 1e-9);
/// ```
pub fn ps_line_unit(problem: &Problem, config: &PsConfig) -> Result<Outcome, FrameworkError> {
    let framework = config.framework_config()?;
    let layers = line_layers(problem)?;
    let all: Vec<InstanceId> = problem.instances().map(|d| d.id).collect();
    run_two_phase(problem, &layers, RaiseRule::Unit, &framework, &all)
}

/// PS-style arbitrary-height baseline for line-networks: wide instances
/// through [`ps_line_unit`]'s scheme, narrow instances through the
/// modified raising with the same single-stage drop-out, combined per
/// network (the structure of their `(55+ε)` algorithm \[16\]; constants
/// are measured rather than matched, see the crate docs).
///
/// # Errors
///
/// As [`ps_line_unit`].
pub fn ps_line_arbitrary(
    problem: &Problem,
    config: &PsConfig,
) -> Result<CombinedOutcome, FrameworkError> {
    let framework = config.framework_config()?;
    let layers = line_layers(problem)?;
    let (wide_ids, narrow_ids) = HeightClass::split(problem, problem.instances().map(|d| d.id));
    let wide = run_two_phase(problem, &layers, RaiseRule::Unit, &framework, &wide_ids)?;
    let narrow = run_two_phase(problem, &layers, RaiseRule::Narrow, &framework, &narrow_ids)?;
    let solution = treenet_core::combine_by_network(problem, &wide.solution, &narrow.solution);
    Ok(CombinedOutcome {
        solution,
        wide,
        narrow,
    })
}

/// The length-class layering of `problem`, refused in-band when some
/// network is not a canonical line.
fn line_layers(problem: &Problem) -> Result<LayeredDecomposition, FrameworkError> {
    let layering =
        Layering::for_lines(problem).map_err(|reason| FrameworkError::BadParameters { reason })?;
    Ok(LayeredDecomposition::new(problem, layering))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use treenet_core::stages_for;
    use treenet_model::workload::{HeightMode, LineWorkload, TreeWorkload};

    #[test]
    fn feasible_with_ps_lambda() {
        for seed in 0..6u64 {
            let p = LineWorkload::new(40, 20)
                .with_resources(2)
                .with_window_slack(2)
                .with_len_range(1, 10)
                .generate(&mut SmallRng::seed_from_u64(seed));
            let out = ps_line_unit(&p, &PsConfig::default()).unwrap();
            assert!(out.solution.verify(&p).is_ok(), "seed {seed}");
            // One stage per epoch: the PS drop-out schedule.
            assert_eq!(out.stats.stages, out.stats.epochs, "seed {seed}");
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
    fn one_stage_per_epoch_at_the_drop_out_threshold() {
        for epsilon in [1e-6, 0.1, 0.5, 0.999] {
            let config = PsConfig {
                epsilon,
                ..PsConfig::default()
            }
            .framework_config()
            .unwrap();
            assert_eq!(config.epsilon, config.xi);
            assert_eq!(stages_for(config.epsilon, config.xi), 1, "ε = {epsilon}");
            let threshold = 1.0 - config.xi;
            assert!(
                (threshold - 1.0 / (5.0 + epsilon)).abs() < 1e-15,
                "ε = {epsilon}"
            );
        }
    }

    #[test]
    fn epsilon_outside_the_unit_interval_is_refused() {
        let p = LineWorkload::new(12, 6).generate(&mut SmallRng::seed_from_u64(1));
        for epsilon in [-4.5, f64::NAN, 0.0, 1.0, 2.0] {
            let config = PsConfig {
                epsilon,
                ..PsConfig::default()
            };
            for err in [
                config.framework_config().err(),
                ps_line_unit(&p, &config).err(),
                ps_line_arbitrary(&p, &config).err(),
            ] {
                assert!(
                    matches!(err, Some(FrameworkError::BadParameters { .. })),
                    "ε = {epsilon}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn tree_networks_are_refused() {
        let p = TreeWorkload::new(16, 12).generate(&mut SmallRng::seed_from_u64(3));
        assert!(p.networks().any(|t| !p.network(t).is_canonical_line()));
        let config = PsConfig::default();
        for err in [
            ps_line_unit(&p, &config).err(),
            ps_line_arbitrary(&p, &config).err(),
        ] {
            assert!(
                matches!(err, Some(FrameworkError::BadParameters { .. })),
                "{err:?}"
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
        let ps = ps_line_unit(&p, &PsConfig::default()).unwrap();
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
            let out = ps_line_arbitrary(&p, &PsConfig::default()).unwrap();
            assert!(out.solution.verify(&p).is_ok(), "seed {seed}");
            for half in [&out.wide, &out.narrow] {
                assert!(half.solution.verify(&p).is_ok());
                assert_eq!(half.stats.stages, half.stats.epochs, "seed {seed}");
            }
            assert!(out.lambda() >= 1.0 / 5.1 - 1e-9, "seed {seed}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let p = LineWorkload::new(24, 12).generate(&mut SmallRng::seed_from_u64(4));
        let a = ps_line_unit(&p, &PsConfig::default()).unwrap();
        let b = ps_line_unit(&p, &PsConfig::default()).unwrap();
        assert_eq!(a.solution, b.solution);
        assert_eq!(a.stats, b.stats);
    }
}
