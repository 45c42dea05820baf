//! The [`DeltaEngine`]'s theorem, pinned from outside the engine: which
//! theorem each (family × a-priori `hmin`) cell runs, and that its stage
//! factors come from the a-priori `Δ` bound, not the measured `Δ`.
//!
//! The delta oracles compare the engine only against itself, under its
//! own configurations, so a `ξ` that followed the measured `Δ` would pass
//! them all. Here the bootstrap run is recomputed independently: the
//! reference executor over the theorem's layering, with `ξ` spelled out
//! from [`IDEAL_DELTA_BOUND`], on tree problems whose measured `Δ` is
//! below the bound (so the two readings of `Δ` give different `ξ`).

use rand::rngs::SmallRng;
use rand::SeedableRng;
use treenet_core::{
    combine_by_network, narrow_xi, run_two_phase_reference, unit_xi, AutoChoice, DeltaEngine,
    FrameworkConfig, RaiseRule, SolverConfig, IDEAL_DELTA_BOUND,
};
use treenet_decomp::{LayeredDecomposition, Strategy};
use treenet_model::workload::{HeightMode, LineWorkload, TreeWorkload};
use treenet_model::{HeightClass, InstanceId, Problem, Solution};

const HMIN: f64 = 0.25;

fn tree_problem(seed: u64, hmin: Option<f64>) -> Problem {
    let workload = TreeWorkload::new(32, 64).with_networks(4);
    let workload = match hmin {
        Some(hmin) => workload.with_heights(HeightMode::Bimodal {
            narrow_frac: 0.5,
            hmin,
        }),
        None => workload,
    };
    workload.generate(&mut SmallRng::seed_from_u64(seed))
}

fn line_problem(seed: u64, hmin: Option<f64>) -> Problem {
    let workload = LineWorkload::new(36, 16)
        .with_resources(2)
        .with_window_slack(2)
        .with_len_range(2, 9);
    let workload = match hmin {
        Some(hmin) => workload.with_heights(HeightMode::Bimodal {
            narrow_frac: 0.6,
            hmin,
        }),
        None => workload,
    };
    workload.generate(&mut SmallRng::seed_from_u64(seed))
}

fn config(hmin: Option<f64>) -> SolverConfig {
    match hmin {
        Some(hmin) => SolverConfig::default().with_hmin(hmin),
        None => SolverConfig::default(),
    }
}

#[test]
fn each_cell_runs_its_theorem() {
    type Cell = (fn(u64, Option<f64>) -> Problem, Option<f64>, AutoChoice);
    let cells: [Cell; 4] = [
        (tree_problem, None, AutoChoice::TreeUnit),
        (tree_problem, Some(HMIN), AutoChoice::TreeArbitrary),
        (line_problem, None, AutoChoice::LineUnit),
        (line_problem, Some(HMIN), AutoChoice::LineArbitrary),
    ];
    for (problem, hmin, expected) in cells {
        let engine = DeltaEngine::new(problem(3, hmin), &config(hmin)).unwrap();
        assert_eq!(engine.choice(), expected);
        assert_eq!(engine.hmin(), hmin);
    }
}

#[test]
fn tree_stage_factors_are_the_a_priori_bound() {
    for hmin in [None, Some(HMIN)] {
        // Seeds on which a ξ from the measured Δ would have changed the
        // bootstrap: the check below has power only if some seed does.
        let mut told_apart = 0;
        for seed in 0..4u64 {
            let p = tree_problem(seed, hmin);
            let config = config(hmin);
            let mut engine = DeltaEngine::new(p.clone(), &config).unwrap();
            let warm = engine.resolve().unwrap();

            let layers = LayeredDecomposition::new(
                &p,
                engine.choice().layering(&p, Strategy::Ideal).unwrap(),
            );
            assert!(
                layers.delta() < IDEAL_DELTA_BOUND,
                "seed {seed}: measured Δ = {} cannot tell the bound from the measurement",
                layers.delta()
            );
            let reference = |rule, xi, participants: &[InstanceId]| {
                let framework = FrameworkConfig {
                    epsilon: config.epsilon,
                    xi,
                    seed: config.seed,
                    max_steps_per_stage: Some(1_000_000),
                    record_trace: false,
                    mis_backend: config.mis_backend,
                };
                run_two_phase_reference(&p, &layers, rule, &framework, participants).unwrap()
            };
            // The bootstrap run with every ξ taken at `delta`: the unit
            // half, or the wide and narrow halves combined per network.
            let bootstrap = |delta: usize| -> (u64, Solution) {
                let all: Vec<InstanceId> = p.instances().map(|inst| inst.id).collect();
                match hmin {
                    None => {
                        let out = reference(RaiseRule::Unit, unit_xi(delta), &all);
                        (out.lambda.to_bits(), out.solution)
                    }
                    Some(hmin) => {
                        let (wide, narrow) = HeightClass::split(&p, all);
                        let wide = reference(RaiseRule::Unit, unit_xi(delta), &wide);
                        let narrow_xi = narrow_xi(delta, hmin.min(0.5));
                        let narrow = reference(RaiseRule::Narrow, narrow_xi, &narrow);
                        (
                            wide.lambda.min(narrow.lambda).to_bits(),
                            combine_by_network(&p, &wide.solution, &narrow.solution),
                        )
                    }
                }
            };
            let expected = bootstrap(IDEAL_DELTA_BOUND);
            let solution = engine.solution();
            assert_eq!(warm.selected, solution.len());
            assert_eq!(
                (warm.lambda.to_bits(), solution),
                expected,
                "hmin {hmin:?} seed {seed}"
            );
            if bootstrap(layers.delta()) != expected {
                told_apart += 1;
            }
        }
        assert!(
            told_apart > 0,
            "hmin {hmin:?}: no seed tells the two Δ apart"
        );
    }
}
