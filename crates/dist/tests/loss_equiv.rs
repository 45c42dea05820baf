//! Fault-injection equivalence: across random mixed tree/line grids and
//! seeded loss models, every distributed runner under lossy links
//! produces *exactly* the lossless results — identical solutions,
//! `to_bits()`-exact λ, identical schedules, identical logical traffic —
//! while the recovery overhead stays within the computed bound
//! `retransmit_rounds ≤ treenet_core::retransmit_round_bound(dropped,
//! delayed, window)`, and `p = 0` is a byte-identical zero-overhead
//! passthrough. The ARQ window is part of the fuzzed surface: every
//! property that takes a window runs the sliding-window protocol from
//! stop-and-wait (`window = 1`) up through deep pipelines, including
//! whole-window burst drops and reordering within the window.
//!
//! The vendored proptest stand-in has no shrinking, so this file brings
//! its own: failing forced-drop sets are minimized by the ddmin-style
//! [`minimize_drops`] before reporting, and the shrinker itself is
//! tested to produce the minimal set on synthetic predicates.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use treenet_core::retransmit_round_bound;
use treenet_dist::{
    run_distributed_auto, run_distributed_auto_reference, run_distributed_line_arbitrary,
    run_distributed_line_unit, run_distributed_tree_unit, DistAutoRun, DistConfig,
};
use treenet_model::workload::{HeightMode, LineWorkload, TreeWorkload};
use treenet_model::Problem;
use treenet_netsim::{LossModel, Metrics, DEFAULT_ARQ_WINDOW};

/// The loss grid of the acceptance criteria.
const LOSS_RATES: [f64; 3] = [0.01, 0.05, 0.2];

fn mixed_problem(seed: u64, shape: usize) -> Problem {
    let mut rng = SmallRng::seed_from_u64(seed);
    match shape {
        0 => LineWorkload::new(30, 12)
            .with_resources(2)
            .with_window_slack(2)
            .with_len_range(1, 8)
            .generate(&mut rng),
        1 => LineWorkload::new(30, 12)
            .with_resources(2)
            .with_window_slack(2)
            .with_len_range(1, 8)
            .with_heights(HeightMode::Bimodal {
                narrow_frac: 0.5,
                hmin: 0.2,
            })
            .generate(&mut rng),
        2 => TreeWorkload::new(10, 8)
            .with_networks(2)
            .with_profit_ratio(4.0)
            .generate(&mut rng),
        _ => TreeWorkload::new(10, 8)
            .with_networks(2)
            .with_heights(HeightMode::Bimodal {
                narrow_frac: 0.5,
                hmin: 0.25,
            })
            .generate(&mut rng),
    }
}

fn lossy_config(seed: u64, model: LossModel) -> DistConfig {
    DistConfig {
        epsilon: 0.3,
        seed,
        loss: Some(model),
        ..DistConfig::default()
    }
}

/// Runs the auto dispatcher on `problem` under `cfg` and flattens the
/// comparable surface: solution, λ bits, per-half step schedules, and
/// metrics.
#[allow(clippy::type_complexity)]
fn auto_surface(
    problem: &Problem,
    cfg: &DistConfig,
) -> (
    treenet_model::Solution,
    u64,
    Vec<Vec<treenet_dist::StepRecord>>,
    Metrics,
) {
    let out = run_distributed_auto(problem, cfg).expect("run succeeds");
    let (schedules, metrics) = match &out.run {
        DistAutoRun::Single(run) => (vec![run.schedule.steps.clone()], run.metrics),
        DistAutoRun::Split(run) => (
            vec![
                run.wide.schedule.steps.clone(),
                run.narrow.schedule.steps.clone(),
            ],
            run.metrics,
        ),
    };
    (out.solution, out.lambda.to_bits(), schedules, metrics)
}

/// The core equivalence check at the default ARQ window.
fn check_loss_equiv(problem: &Problem, seed: u64, model: LossModel) -> Result<(), String> {
    check_loss_equiv_windowed(problem, seed, model, DEFAULT_ARQ_WINDOW)
}

/// The core equivalence check, reused by the properties and the
/// shrinker: the lossy run must match the lossless run on solution, λ,
/// schedules and logical traffic, with overhead within the computed
/// bound for `window`. Returns a human-readable mismatch instead of
/// panicking, so the shrinker can probe candidate drop sets.
fn check_loss_equiv_windowed(
    problem: &Problem,
    seed: u64,
    model: LossModel,
    window: u32,
) -> Result<(), String> {
    let lossless_cfg = DistConfig {
        epsilon: 0.3,
        seed,
        arq_window: window,
        ..DistConfig::default()
    };
    let (sol0, lambda0, sched0, m0) = auto_surface(problem, &lossless_cfg);
    let lossy_cfg = DistConfig {
        loss: Some(model),
        ..lossless_cfg
    };
    let (sol1, lambda1, sched1, m1) = auto_surface(problem, &lossy_cfg);
    if sol0 != sol1 {
        return Err(format!("solutions diverged: {sol0:?} vs {sol1:?}"));
    }
    if lambda0 != lambda1 {
        return Err(format!("λ bits diverged: {lambda0:x} vs {lambda1:x}"));
    }
    if sched0 != sched1 {
        return Err("schedules diverged".to_string());
    }
    // Logical traffic is identical: each unique payload delivered once.
    if (
        m0.messages,
        m0.bits,
        m0.by_class.map(|c| (c.messages, c.bits)),
    ) != (
        m1.messages,
        m1.bits,
        m1.by_class.map(|c| (c.messages, c.bits)),
    ) {
        return Err(format!(
            "logical traffic diverged: {} msgs/{} bits vs {} msgs/{} bits",
            m0.messages, m0.bits, m1.messages, m1.bits
        ));
    }
    // Round inflation is exactly the recovery slots, within the bound.
    if m1.rounds != m0.rounds + m1.retransmit_rounds {
        return Err(format!(
            "rounds {} != lossless {} + recovery {}",
            m1.rounds, m0.rounds, m1.retransmit_rounds
        ));
    }
    let bound = retransmit_round_bound(m1.dropped, m1.delayed, window as u64);
    if m1.retransmit_rounds > bound {
        return Err(format!(
            "recovery slots {} exceed the bound {} (dropped {}, delayed {})",
            m1.retransmit_rounds, bound, m1.dropped, m1.delayed
        ));
    }
    Ok(())
}

/// Greedy ddmin-style minimizer: removes drops one at a time (to a
/// fixed point) while `fails` keeps failing, yielding a 1-minimal
/// failing set — the smallest explanation of a reliability bug. The
/// vendored proptest cannot shrink, so the properties call this on
/// failure before reporting.
fn minimize_drops(drops: &[u64], fails: impl Fn(&[u64]) -> bool) -> Vec<u64> {
    let mut current: Vec<u64> = drops.to_vec();
    debug_assert!(fails(&current), "only failing sets can be minimized");
    loop {
        let mut shrunk = false;
        let mut i = 0;
        while i < current.len() {
            let mut candidate = current.clone();
            candidate.remove(i);
            if fails(&candidate) {
                current = candidate;
                shrunk = true;
            } else {
                i += 1;
            }
        }
        if !shrunk {
            return current;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The acceptance grid: random problems × p ∈ {0.01, 0.05, 0.2} ×
    /// loss seeds, all runners via the auto dispatch — bit-identical
    /// results, bounded overhead.
    #[test]
    fn lossy_runs_are_bit_identical(seed in 0u64..2000, shape in 0usize..4, p_idx in 0usize..3, loss_seed in 0u64..1000) {
        let p = LOSS_RATES[p_idx];
        let problem = mixed_problem(seed, shape);
        let model = LossModel::bernoulli(p, loss_seed);
        if let Err(e) = check_loss_equiv(&problem, seed, model) {
            return Err(TestCaseError::Fail(format!("p={p}: {e}")));
        }
    }

    /// Drops, duplicates and delays together, at the heavy end.
    #[test]
    fn mixed_fault_processes_are_recovered(seed in 0u64..2000, shape in 0usize..4, loss_seed in 0u64..1000) {
        let problem = mixed_problem(seed, shape);
        let model = LossModel::bernoulli(0.1, loss_seed)
            .with_duplicates(0.1)
            .with_delays(0.1);
        if let Err(e) = check_loss_equiv(&problem, seed, model) {
            return Err(TestCaseError::Fail(e));
        }
    }

    /// `p = 0` is a *byte-identical* passthrough: the full metrics —
    /// rounds, messages, every class bucket, every overhead counter —
    /// equal the no-model run exactly.
    #[test]
    fn p_zero_is_a_byte_identical_passthrough(seed in 0u64..2000, shape in 0usize..4) {
        let problem = mixed_problem(seed, shape);
        let plain_cfg = DistConfig { epsilon: 0.3, seed, ..DistConfig::default() };
        let (sol0, lambda0, sched0, m0) = auto_surface(&problem, &plain_cfg);
        let (sol1, lambda1, sched1, m1) =
            auto_surface(&problem, &lossy_config(seed, LossModel::bernoulli(0.0, 0x5eed)));
        prop_assert_eq!(sol0, sol1);
        prop_assert_eq!(lambda0, lambda1);
        prop_assert_eq!(sched0, sched1);
        prop_assert_eq!(m0, m1);
        prop_assert_eq!(m1.retransmits, 0);
        prop_assert_eq!(m1.acks, 0);
        prop_assert_eq!(m1.retransmit_rounds, 0);
    }

    /// Deterministic adversarial drops: random forced-drop sets over the
    /// early traffic must also be recovered exactly. On failure the
    /// ddmin shrinker reports the minimal dropped-message set.
    #[test]
    fn forced_drop_sets_are_recovered(seed in 0u64..2000, shape in 0usize..4, drops in collection::vec(0u64..400, 6)) {
        let problem = mixed_problem(seed, shape);
        let fails = |set: &[u64]| {
            check_loss_equiv(
                &problem,
                seed,
                LossModel::lossless(0).with_forced_drops(set.to_vec()),
            )
            .is_err()
        };
        if fails(&drops) {
            let minimal = minimize_drops(&drops, fails);
            let witness = check_loss_equiv(
                &problem,
                seed,
                LossModel::lossless(0).with_forced_drops(minimal.clone()),
            )
            .unwrap_err();
            return Err(TestCaseError::Fail(format!(
                "minimal dropped-message set {minimal:?} (shrunk from {drops:?}): {witness}"
            )));
        }
    }

    /// The window sweep: every window from stop-and-wait (1) through a
    /// deep pipeline, under Bernoulli loss across the acceptance grid —
    /// bit-identical results and the window-specific overhead bound.
    #[test]
    fn every_arq_window_is_bit_identical(seed in 0u64..2000, shape in 0usize..4, window in 1u32..9, p_idx in 0usize..3, loss_seed in 0u64..1000) {
        let problem = mixed_problem(seed, shape);
        let model = LossModel::bernoulli(LOSS_RATES[p_idx], loss_seed);
        if let Err(e) = check_loss_equiv_windowed(&problem, seed, model, window) {
            return Err(TestCaseError::Fail(format!("window={window}: {e}")));
        }
    }

    /// Whole-window burst drops: a contiguous block of forced drops at
    /// least as long as the window, so every in-flight transmission of
    /// some link is lost at once and recovery cannot lean on a
    /// partially-acked pipeline. Shrunk by ddmin on failure.
    #[test]
    fn whole_window_bursts_are_recovered(seed in 0u64..2000, shape in 0usize..4, window in 1u32..7, start in 0u64..300) {
        let problem = mixed_problem(seed, shape);
        let burst: Vec<u64> = (start..start + 2 * window as u64).collect();
        let fails = |set: &[u64]| {
            check_loss_equiv_windowed(
                &problem,
                seed,
                LossModel::lossless(0).with_forced_drops(set.to_vec()),
                window,
            )
            .is_err()
        };
        if fails(&burst) {
            let minimal = minimize_drops(&burst, fails);
            let witness = check_loss_equiv_windowed(
                &problem,
                seed,
                LossModel::lossless(0).with_forced_drops(minimal.clone()),
                window,
            )
            .unwrap_err();
            return Err(TestCaseError::Fail(format!(
                "window={window}: minimal dropped-message set {minimal:?} \
                 (shrunk from the burst {start}..{}): {witness}",
                start + 2 * window as u64
            )));
        }
    }

    /// Reordering within the window: heavy delays (which deliver late,
    /// out of order) composed with duplicates and drops, across windows.
    /// The cumulative-plus-selective ack scheme must reassemble the
    /// stream exactly.
    #[test]
    fn reordering_within_the_window_is_recovered(seed in 0u64..2000, shape in 0usize..4, window in 2u32..9, loss_seed in 0u64..1000) {
        let problem = mixed_problem(seed, shape);
        let model = LossModel::bernoulli(0.1, loss_seed)
            .with_delays(0.3)
            .with_duplicates(0.2);
        if let Err(e) = check_loss_equiv_windowed(&problem, seed, model, window) {
            return Err(TestCaseError::Fail(format!("window={window}: {e}")));
        }
    }

    /// Loss composed with adversarial delivery shuffling, from
    /// independent seeds: still bit-identical, and removing the loss at
    /// p=0 does not perturb the shuffled execution (the RNG stream
    /// split).
    #[test]
    fn loss_composes_with_delivery_shuffle(seed in 0u64..2000, shape in 0usize..4, loss_seed in 0u64..1000) {
        let problem = mixed_problem(seed, shape);
        let shuffled = DistConfig {
            epsilon: 0.3,
            seed,
            shuffle_delivery: Some(0xbeef),
            ..DistConfig::default()
        };
        let (sol0, lambda0, sched0, m0) = auto_surface(&problem, &shuffled);
        // Shuffle + inactive loss model: byte-identical to shuffle only.
        let zero = DistConfig {
            loss: Some(LossModel::bernoulli(0.0, loss_seed)),
            ..shuffled.clone()
        };
        let (sol1, lambda1, sched1, m1) = auto_surface(&problem, &zero);
        prop_assert_eq!(&sol0, &sol1);
        prop_assert_eq!(lambda0, lambda1);
        prop_assert_eq!(&sched0, &sched1);
        prop_assert_eq!(m0, m1);
        // Shuffle + real loss: same results, bounded overhead.
        let lossy = DistConfig {
            loss: Some(LossModel::bernoulli(0.1, loss_seed)),
            ..shuffled
        };
        let (sol2, lambda2, sched2, m2) = auto_surface(&problem, &lossy);
        prop_assert_eq!(&sol0, &sol2);
        prop_assert_eq!(lambda0, lambda2);
        prop_assert_eq!(&sched0, &sched2);
        prop_assert_eq!(m2.rounds, m0.rounds + m2.retransmit_rounds);
        prop_assert!(m2.retransmit_rounds <= retransmit_round_bound(
            m2.dropped,
            m2.delayed,
            DEFAULT_ARQ_WINDOW as u64
        ));
    }
}

#[test]
fn lossy_runners_match_the_logical_solvers_bitwise() {
    // The acceptance condition spelled out runner by runner (the
    // proptests above go through the auto dispatch): under every p of
    // the grid, solutions and λ equal the *logical* solvers bit-exactly.
    use treenet_core::{solve_line_arbitrary, solve_line_unit, solve_tree_unit, SolverConfig};
    for &p in &LOSS_RATES {
        let model = LossModel::bernoulli(p, 0xfa01);
        let scfg = SolverConfig::default().with_epsilon(0.3).with_seed(9);
        let cfg = DistConfig {
            loss: Some(model),
            ..DistConfig::from(&scfg)
        };

        let tree = mixed_problem(9, 2);
        let logical = solve_tree_unit(&tree, &scfg).unwrap();
        let lossy = run_distributed_tree_unit(&tree, &cfg).unwrap();
        assert_eq!(logical.solution, lossy.solution, "tree-unit p={p}");
        assert_eq!(logical.lambda.to_bits(), lossy.lambda.to_bits());

        let line = mixed_problem(9, 0);
        let logical = solve_line_unit(&line, &scfg).unwrap();
        let lossy = run_distributed_line_unit(&line, &cfg).unwrap();
        assert_eq!(logical.solution, lossy.solution, "line-unit p={p}");
        assert_eq!(logical.lambda.to_bits(), lossy.lambda.to_bits());

        let mixed = mixed_problem(9, 1);
        let logical = solve_line_arbitrary(&mixed, &scfg).unwrap();
        let lossy = run_distributed_line_arbitrary(&mixed, &cfg).unwrap();
        assert_eq!(logical.solution, lossy.solution, "line-arbitrary p={p}");
        assert_eq!(logical.lambda().to_bits(), lossy.lambda().to_bits());
        assert!(lossy.metrics.retransmits > 0 || lossy.metrics.dropped == 0);
    }
}

#[test]
fn reference_oracles_also_run_over_lossy_links() {
    // The driver-counted reference path shares build_engine, so the
    // oracle itself survives loss — and still matches the in-network
    // path exactly.
    let problem = mixed_problem(4, 1);
    let cfg = lossy_config(4, LossModel::bernoulli(0.1, 21));
    let fast = run_distributed_auto(&problem, &cfg).unwrap();
    let oracle = run_distributed_auto_reference(&problem, &cfg).unwrap();
    assert_eq!(fast.solution, oracle.solution);
    assert_eq!(fast.lambda.to_bits(), oracle.lambda.to_bits());
}

#[test]
fn shrinker_finds_the_minimal_failing_set() {
    // Synthetic predicate: fails iff the set contains both 3 and 7.
    let fails = |set: &[u64]| set.contains(&3) && set.contains(&7);
    let minimal = minimize_drops(&[9, 3, 1, 7, 7, 2], fails);
    assert_eq!(minimal, vec![3, 7]);
    // Single-element cause.
    let fails_on_5 = |set: &[u64]| set.contains(&5);
    assert_eq!(minimize_drops(&[8, 5, 5, 0], fails_on_5), vec![5]);
    // Already-minimal sets survive unchanged.
    assert_eq!(minimize_drops(&[3, 7], fails), vec![3, 7]);
    // Cardinality causes shrink to the smallest prefix that still fails.
    let fails_big = |set: &[u64]| set.len() >= 3;
    assert_eq!(minimize_drops(&[1, 2, 3, 4, 5], fails_big).len(), 3);
}

/// Nightly soak: the full acceptance grid at the heavy p = 0.2 end over
/// larger workloads — too slow for the PR lane, exercised by the
/// scheduled CI run (`--ignored`).
#[test]
#[ignore = "nightly soak: heavy loss grid at scale"]
fn soak_heavy_loss_at_scale() {
    for seed in 0..6u64 {
        let problem = LineWorkload::new(48, 24)
            .with_resources(2)
            .with_window_slack(2)
            .with_len_range(1, 8)
            .with_heights(HeightMode::Bimodal {
                narrow_frac: 0.5,
                hmin: 0.2,
            })
            .generate(&mut SmallRng::seed_from_u64(seed));
        for loss_seed in 0..4u64 {
            let model = LossModel::bernoulli(0.2, loss_seed)
                .with_duplicates(0.1)
                .with_delays(0.1);
            check_loss_equiv(&problem, seed, model)
                .unwrap_or_else(|e| panic!("seed {seed}/{loss_seed}: {e}"));
        }
    }
}
