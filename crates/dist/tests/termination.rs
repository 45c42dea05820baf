//! The in-network termination detector under adversarial delivery
//! orderings: `treenet-netsim` fixes *which* round a message arrives in,
//! not the order within an inbox, so the echo sweeps (and everything
//! else — duals, MIS, pops, combiner) must be invariant under per-round
//! inbox shuffling. Reordering must not move a single detected stage
//! boundary: schedules, sweep counts, solutions, λ and even the full
//! metrics must be identical.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use treenet_core::AutoChoice;
use treenet_dist::{
    run_distributed, run_distributed_auto, DistAutoOutcome, DistAutoRun, DistConfig,
};
use treenet_model::workload::{HeightMode, LineWorkload, TreeWorkload};
use treenet_model::Problem;

fn shuffled(seed: u64) -> DistConfig {
    DistConfig {
        shuffle_delivery: Some(seed),
        ..DistConfig::default()
    }
}

fn tree_problem(seed: u64) -> Problem {
    TreeWorkload::new(10, 8)
        .with_networks(2)
        .with_profit_ratio(4.0)
        .generate(&mut SmallRng::seed_from_u64(seed))
}

fn line_problem(seed: u64) -> Problem {
    LineWorkload::new(30, 12)
        .with_resources(2)
        .with_window_slack(2)
        .with_len_range(1, 8)
        .generate(&mut SmallRng::seed_from_u64(seed))
}

fn mixed_line_problem(seed: u64) -> Problem {
    LineWorkload::new(30, 12)
        .with_resources(2)
        .with_window_slack(2)
        .with_len_range(1, 8)
        .with_heights(HeightMode::Bimodal {
            narrow_frac: 0.5,
            hmin: 0.2,
        })
        .generate(&mut SmallRng::seed_from_u64(seed))
}

/// Everything a reordering must not move: the choice, solution and λ
/// (per half for a split), the detected boundaries — identical step
/// records AND identical sweep counts, not one sweep more or less — and,
/// since shuffling only permutes inboxes, the traffic itself down to the
/// per-class counters.
fn assert_same_run(plain: &DistAutoOutcome, out: &DistAutoOutcome, label: &str) {
    assert_eq!(plain.choice, out.choice, "{label}");
    assert_eq!(plain.solution, out.solution, "{label}");
    assert_eq!(plain.lambda.to_bits(), out.lambda.to_bits(), "{label}");
    if let (DistAutoRun::Split(a), DistAutoRun::Split(b)) = (&plain.run, &out.run) {
        assert_eq!(a.wide.lambda.to_bits(), b.wide.lambda.to_bits(), "{label}");
        assert_eq!(
            a.narrow.lambda.to_bits(),
            b.narrow.lambda.to_bits(),
            "{label}"
        );
    }
    assert_eq!(plain.run.schedules(), out.run.schedules(), "{label}");
    assert_eq!(plain.run.metrics(), out.run.metrics(), "{label}");
}

#[test]
fn tree_unit_is_invariant_under_inbox_reordering() {
    for seed in 0..4u64 {
        let p = tree_problem(seed);
        let run = |config: &DistConfig| run_distributed(&p, AutoChoice::TreeUnit, config).unwrap();
        let plain = run(&DistConfig::default());
        for shuffle_seed in [1u64, 0xdead, 0xbeef] {
            let out = run(&shuffled(shuffle_seed));
            assert_same_run(&plain, &out, &format!("seed {seed}/{shuffle_seed}"));
        }
    }
}

#[test]
fn line_unit_is_invariant_under_inbox_reordering() {
    for seed in 0..4u64 {
        let p = line_problem(seed);
        let run = |config: &DistConfig| run_distributed(&p, AutoChoice::LineUnit, config).unwrap();
        let out = run(&shuffled(0x5eed ^ seed));
        assert_same_run(&run(&DistConfig::default()), &out, &format!("seed {seed}"));
    }
}

#[test]
fn merged_split_and_combiner_are_invariant_under_inbox_reordering() {
    // The hardest case: two overlapping sub-runs, interleaved echo
    // sweeps of both tags, and the combiner's report/decide/apply rounds
    // all share inboxes. Reordering must change nothing — the combiner
    // sorts its contributions canonically before folding.
    for seed in 0..4u64 {
        let p = mixed_line_problem(seed);
        let run =
            |config: &DistConfig| run_distributed(&p, AutoChoice::LineArbitrary, config).unwrap();
        let out = run(&shuffled(seed * 31 + 7));
        assert_same_run(&run(&DistConfig::default()), &out, &format!("seed {seed}"));
    }
}

#[test]
fn auto_dispatch_is_invariant_under_inbox_reordering() {
    let mut rng = SmallRng::seed_from_u64(3);
    let problems = [
        LineWorkload::new(24, 10).generate(&mut rng),
        TreeWorkload::new(10, 8)
            .with_networks(2)
            .with_heights(HeightMode::Bimodal {
                narrow_frac: 0.5,
                hmin: 0.25,
            })
            .generate(&mut rng),
    ];
    for (i, p) in problems.iter().enumerate() {
        let plain = run_distributed_auto(p, &DistConfig::default()).unwrap();
        let out = run_distributed_auto(p, &shuffled(99 + i as u64)).unwrap();
        assert_same_run(&plain, &out, &format!("case {i}"));
    }
}
