//! A golden pin of the in-network runner: for every theorem on a fresh
//! seeded problem, over lossless links, over Bernoulli(0.2) drops at ARQ
//! window 6, and under an adversarial inbox shuffle, an FNV-1a digest of
//! everything [`run_distributed`] returns — the solution, λ bits, each
//! half's solution, λ, flag and [`DistSchedule`] (step records, pops,
//! sweeps, sweep and prologue depths, control stalls) — and every
//! [`Metrics`] field, each traffic class included.
//!
//! `BENCH_dist_loss.json` pins rounds and link counters at one window
//! and without shuffling; this file pins the rest. The values were
//! recorded while each processor still kept its duals and its
//! neighbors' instances in ordered maps; a change to how a processor
//! stores its state must leave them unchanged. On a mismatch the test
//! prints this build's values.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use treenet_core::AutoChoice;
use treenet_dist::{run_distributed, DistAutoRun, DistConfig, DistSchedule};
use treenet_model::workload::{HeightMode, LineWorkload, TreeWorkload};
use treenet_model::{Problem, Solution};
use treenet_netsim::{LossModel, Metrics};

/// 64-bit FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `words` into an FNV-1a digest, written out so the pinned values
/// do not depend on `std`'s hasher.
fn fnv1a(hash: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .flat_map(u64::to_le_bytes)
        .fold(hash, |h, byte| {
            (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// The theorem's problem: three tree-networks with partial access, or
/// two line resources, unit or bimodal heights.
fn problem(choice: AutoChoice, seed: u64) -> Problem {
    let mut rng = SmallRng::seed_from_u64(seed);
    let bimodal = |hmin| HeightMode::Bimodal {
        narrow_frac: 0.5,
        hmin,
    };
    let tree = TreeWorkload::new(16, 20).with_profit_ratio(4.0);
    let line = LineWorkload::new(40, 20)
        .with_resources(2)
        .with_window_slack(2)
        .with_len_range(1, 8);
    match choice {
        AutoChoice::TreeUnit => tree.generate(&mut rng),
        AutoChoice::TreeArbitrary => tree.with_heights(bimodal(0.25)).generate(&mut rng),
        AutoChoice::LineUnit => line.generate(&mut rng),
        AutoChoice::LineArbitrary => line.with_heights(bimodal(0.2)).generate(&mut rng),
    }
}

/// The link conditions each theorem runs under.
fn conditions(seed: u64) -> [(&'static str, DistConfig); 3] {
    let base = DistConfig {
        epsilon: 0.3,
        seed,
        ..DistConfig::default()
    };
    [
        ("lossless", base.clone()),
        (
            "bernoulli 0.2 window 6",
            DistConfig {
                loss: Some(LossModel::bernoulli(0.2, 0x601d + seed)),
                arq_window: 6,
                ..base.clone()
            },
        ),
        (
            "shuffle",
            DistConfig {
                shuffle_delivery: Some(0x5eed + seed),
                ..base
            },
        ),
    ]
}

fn solution_words(solution: &Solution) -> Vec<u64> {
    std::iter::once(solution.len() as u64)
        .chain(solution.selected().iter().map(|d| d.0 as u64))
        .collect()
}

fn schedule_words(schedule: &DistSchedule) -> Vec<u64> {
    let mut words = vec![schedule.steps.len() as u64];
    for s in &schedule.steps {
        words.extend([s.epoch as u64, s.stage as u64, s.step, s.luby_rounds]);
    }
    words.extend([
        schedule.pops,
        schedule.sweeps,
        schedule.sweep_rounds,
        schedule.control_stalls,
        schedule.prologue_rounds,
    ]);
    words
}

/// Digest of the outcome: the solution, λ bits, and each half's
/// solution, λ bits, final-unsatisfied flag and schedule.
fn outcome_digest(solution: &Solution, lambda: f64, run: &DistAutoRun) -> u64 {
    let mut hash = fnv1a(FNV_OFFSET, solution_words(solution));
    hash = fnv1a(hash, [lambda.to_bits()]);
    let halves = match run {
        DistAutoRun::Single(out) => vec![(
            &out.solution,
            out.lambda,
            out.final_unsatisfied,
            &out.schedule,
        )],
        DistAutoRun::Split(out) => [&out.wide, &out.narrow]
            .map(|h| (&h.solution, h.lambda, h.final_unsatisfied, &h.schedule))
            .to_vec(),
    };
    for (solution, lambda, unsatisfied, schedule) in halves {
        hash = fnv1a(hash, solution_words(solution));
        hash = fnv1a(hash, [lambda.to_bits(), unsatisfied as u64]);
        hash = fnv1a(hash, schedule_words(schedule));
    }
    hash
}

/// Every field of a [`Metrics`]: the twelve counters in declaration
/// order, and an FNV-1a digest of every class's four counters.
fn metrics_row(m: &Metrics) -> ([u64; 12], u64) {
    let classes = m
        .by_class
        .iter()
        .flat_map(|c| [c.messages, c.bits, c.retransmits, c.dup_suppressed]);
    let counters = [
        m.rounds,
        m.messages,
        m.bits,
        m.max_message_bits,
        m.dropped,
        m.duplicated,
        m.delayed,
        m.retransmits,
        m.acks,
        m.ack_bits,
        m.dup_suppressed,
        m.retransmit_rounds,
    ];
    (counters, fnv1a(FNV_OFFSET, classes))
}

/// One row per theorem and link condition: the outcome digest, the
/// twelve `Metrics` counters and the traffic-class digest.
type GoldenRow = (&'static str, u64, [u64; 12], u64);

const GOLDEN: &[GoldenRow] = &[
    (
        "TreeUnit lossless",
        0x3ea6ae8bac5449b0,
        [31, 2060, 190840, 352, 0, 0, 0, 0, 0, 0, 0, 0],
        0xea063a2d96363389,
    ),
    (
        "TreeUnit bernoulli 0.2 window 6",
        0x3ea6ae8bac5449b0,
        [33, 2060, 190840, 352, 1724, 0, 0, 6302, 33, 3168, 4644, 2],
        0x642cbcf5a45e62c6,
    ),
    (
        "TreeUnit shuffle",
        0x3ea6ae8bac5449b0,
        [31, 2060, 190840, 352, 0, 0, 0, 0, 0, 0, 0, 0],
        0xea063a2d96363389,
    ),
    (
        "TreeArbitrary lossless",
        0x59de7de2ee7e1078,
        [42, 1869, 162384, 352, 0, 0, 0, 0, 0, 0, 0, 0],
        0x1ca7050a8483c547,
    ),
    (
        "TreeArbitrary bernoulli 0.2 window 6",
        0x59de7de2ee7e1078,
        [49, 1869, 162384, 352, 1588, 0, 0, 5658, 125, 12000, 4106, 7],
        0x6ab1fb2e731a140a,
    ),
    (
        "TreeArbitrary shuffle",
        0x59de7de2ee7e1078,
        [42, 1869, 162384, 352, 0, 0, 0, 0, 0, 0, 0, 0],
        0x1ca7050a8483c547,
    ),
    (
        "LineUnit lossless",
        0x935bf83ec3e886f9,
        [37, 2415, 186592, 288, 0, 0, 0, 0, 0, 0, 0, 0],
        0xcdf3ba5066593ad2,
    ),
    (
        "LineUnit bernoulli 0.2 window 6",
        0x935bf83ec3e886f9,
        [42, 2415, 186592, 288, 2103, 0, 0, 7452, 206, 19776, 5450, 5],
        0xbc345007372408c1,
    ),
    (
        "LineUnit shuffle",
        0x935bf83ec3e886f9,
        [37, 2415, 186592, 288, 0, 0, 0, 0, 0, 0, 0, 0],
        0xcdf3ba5066593ad2,
    ),
    (
        "LineArbitrary lossless",
        0x6dae748da65b6b32,
        [48, 2729, 204040, 288, 0, 0, 0, 0, 0, 0, 0, 0],
        0x0de86e4cc31be2d4,
    ),
    (
        "LineArbitrary bernoulli 0.2 window 6",
        0x6dae748da65b6b32,
        [53, 2729, 204040, 288, 2345, 0, 0, 8398, 179, 17184, 6164, 5],
        0x003e3b18fb71ea8b,
    ),
    (
        "LineArbitrary shuffle",
        0x6dae748da65b6b32,
        [48, 2729, 204040, 288, 0, 0, 0, 0, 0, 0, 0, 0],
        0x0de86e4cc31be2d4,
    ),
];

#[test]
fn distributed_runs_match_the_recorded_golden() {
    let mut rows = Vec::new();
    for (seed, choice) in [
        AutoChoice::TreeUnit,
        AutoChoice::TreeArbitrary,
        AutoChoice::LineUnit,
        AutoChoice::LineArbitrary,
    ]
    .into_iter()
    .enumerate()
    {
        let seed = seed as u64 + 1;
        let p = problem(choice, seed);
        for (condition, config) in conditions(seed) {
            let out = run_distributed(&p, choice, &config).unwrap();
            let (counters, classes) = metrics_row(&out.run.metrics());
            rows.push((
                format!("{choice:?} {condition}"),
                outcome_digest(&out.solution, out.lambda, &out.run),
                counters,
                classes,
            ));
        }
    }
    let golden: Vec<(String, u64, [u64; 12], u64)> = GOLDEN
        .iter()
        .map(|&(label, outcome, counters, classes)| (label.to_string(), outcome, counters, classes))
        .collect();
    if rows != golden {
        for (label, outcome, counters, classes) in &rows {
            println!("    (\"{label}\", {outcome:#018x}, {counters:?}, {classes:#018x}),");
        }
        panic!("the distributed runs moved: the values above are this build's");
    }
}
