//! Communication-metrics coverage for the message-passing scheduler:
//! traffic exists whenever processors share resources, every message
//! respects the paper's `O(M)`-bit bound (one demand descriptor), and the
//! engine's round count follows the *exact* relation documented on
//! `DistSchedule`:
//!
//! * solo in-network runner:
//!   `rounds == schedule.total_rounds() + schedule.control_rounds() + 1`
//!   (compute + control stalls + one descriptor-exchange setup round —
//!   sweeps and the BFS prologue ride the data rounds, so the control
//!   plane only charges the rounds where a half idled waiting for an
//!   in-flight sweep or the prologue to drain);
//! * merged split runner (one shared engine, halves overlapping):
//!   `rounds == max(wide.engine_rounds(), narrow.engine_rounds()) + 1 +
//!   COMBINE_ROUNDS`;
//! * driver-counted reference paths have no sweeps: solo
//!   `rounds == total_rounds() + 1`, serial split
//!   `rounds == wide.total + narrow.total + 2`.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use treenet_core::AutoChoice;
use treenet_dist::{
    descriptor_bits, run_distributed, run_distributed_auto, run_distributed_reference,
    DistAutoOutcome, DistConfig, COMBINE_ROUNDS,
};
use treenet_graph::generators::TreeFamily;
use treenet_model::workload::{HeightMode, LineWorkload, TreeWorkload};
use treenet_model::Problem;

/// One demand descriptor — the paper's `M`, from the crate's single
/// definition (shared with the `MessageSize` accounting).
fn descriptor_bound(networks: usize) -> u64 {
    descriptor_bits(networks)
}

/// Runs theorem `choice` under the default configuration.
fn run(problem: &Problem, choice: AutoChoice) -> DistAutoOutcome {
    run_distributed(problem, choice, &DistConfig::default()).unwrap()
}

/// The in-network relation, exact: setup + the longest half (compute +
/// control) + the combiner after a split.
fn assert_round_relation(out: &DistAutoOutcome, label: &str) {
    let schedules = out.run.schedules();
    for schedule in &schedules {
        assert_eq!(
            schedule.engine_rounds(),
            schedule.total_rounds() + schedule.control_rounds(),
            "{label}"
        );
    }
    let combiner = if schedules.len() > 1 {
        COMBINE_ROUNDS
    } else {
        0
    };
    assert_eq!(
        Some(out.run.metrics().rounds),
        schedules
            .iter()
            .map(|s| s.engine_rounds() + 1 + combiner)
            .max(),
        "{label}: rounds != longest half + setup (+ combiner)"
    );
}

fn tree_problem(seed: u64) -> Problem {
    TreeWorkload::new(9, 7)
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

fn mixed_tree_problem(seed: u64) -> Problem {
    TreeWorkload::new(10, 8)
        .with_networks(2)
        .with_heights(HeightMode::Bimodal {
            narrow_frac: 0.5,
            hmin: 0.25,
        })
        .generate(&mut SmallRng::seed_from_u64(seed))
}

#[test]
fn messages_flow_and_respect_the_descriptor_bound() {
    // The same workload shapes as tests/distributed_pipeline.rs.
    for family in [TreeFamily::Path, TreeFamily::Star, TreeFamily::Uniform] {
        let p = TreeWorkload::new(9, 7)
            .with_networks(2)
            .with_family(family)
            .with_profit_ratio(4.0)
            .generate(&mut SmallRng::seed_from_u64(17));
        let out = run(&p, AutoChoice::TreeUnit);
        // Every participant ended phase 1 (1-ε)-satisfied.
        assert!(out.lambda >= 0.9 - 1e-9, "{}", family.name());
        let metrics = out.run.metrics();
        // Several processors share two networks: traffic must exist.
        assert!(metrics.messages > 0, "{}: no messages", family.name());
        assert!(metrics.bits > 0, "{}", family.name());
        // O(M) bits: no message — data, echo or combine — exceeds one
        // demand descriptor.
        assert!(
            metrics.max_message_bits <= descriptor_bound(p.network_count()),
            "{}: {} bits > descriptor bound",
            family.name(),
            metrics.max_message_bits
        );
        // The reliable engine never drops or duplicates.
        assert_eq!(metrics.dropped, 0);
        assert_eq!(metrics.duplicated, 0);
    }
}

#[test]
fn message_size_does_not_grow_with_processor_count() {
    let mut max_bits = Vec::new();
    for m in [4usize, 8, 16, 32] {
        let p = TreeWorkload::new(10, m)
            .with_networks(2)
            .with_profit_ratio(4.0)
            .generate(&mut SmallRng::seed_from_u64(5));
        let bits = run(&p, AutoChoice::TreeUnit).run.metrics().max_message_bits;
        assert!(bits <= descriptor_bound(2), "m = {m}");
        max_bits.push(bits);
    }
    // Flat in m: the maximum stays one descriptor regardless of scale
    // (it may sit below the bound when no demand accesses every network).
    let ceiling = *max_bits.iter().max().unwrap();
    assert!(
        ceiling <= descriptor_bound(2),
        "ceiling grew with m: {max_bits:?}"
    );
}

#[test]
fn rounds_follow_the_framework_schedule() {
    for seed in [3u64, 11, 29] {
        let p = TreeWorkload::new(8, 6)
            .with_networks(2)
            .with_profit_ratio(4.0)
            .generate(&mut SmallRng::seed_from_u64(seed));
        let cfg = DistConfig {
            epsilon: 0.4,
            seed,
            ..DistConfig::default()
        };
        let out = run_distributed(&p, AutoChoice::TreeUnit, &cfg).unwrap();
        let schedule = out.run.schedules()[0];
        // Schedule arithmetic: one boundary round plus two rounds per Luby
        // iteration per step, one round per phase-2 pop.
        let steps: u64 = schedule.steps.iter().map(|s| 2 * s.luby_rounds + 1).sum();
        assert_eq!(schedule.total_rounds(), steps + schedule.pops);
        assert_eq!(schedule.pops, schedule.num_steps() as u64);
        // Amortized control accounting: one certification sweep per
        // epoch that ran steps plus one refresh per 2^k completed steps
        // — far fewer sweeps than the per-step legacy schedule — and the
        // only charged rounds are the stalls where the half idled
        // waiting for an in-flight sweep (at most `sweep_rounds` each)
        // or the prologue to drain.
        let num_steps = schedule.num_steps() as u64;
        assert!(num_steps > 0, "workload ran steps");
        assert!(schedule.sweeps >= 1, "epochs with steps certify");
        assert!(
            schedule.sweeps <= num_steps + num_steps / 64,
            "more sweeps ({}) than certifications + refreshes allow for {} steps",
            schedule.sweeps,
            num_steps
        );
        assert!(
            schedule.control_rounds()
                <= schedule.sweeps * schedule.sweep_rounds + schedule.prologue_rounds,
            "stalls exceed the per-ticket drain bound"
        );
        // The exact engine relation: setup + compute + control.
        assert_round_relation(&out, "tree-unit");
        // Steps are recorded in schedule order: epochs ascend, stages
        // ascend within an epoch, step indices count from zero.
        for pair in schedule.steps.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            assert!(
                a.epoch < b.epoch
                    || (a.epoch == b.epoch && a.stage < b.stage)
                    || (a.epoch == b.epoch && a.stage == b.stage && a.step + 1 == b.step),
                "schedule out of order: {a:?} then {b:?}"
            );
        }
    }
}

#[test]
fn round_relation_is_exact_for_every_runner() {
    // The documented relations, audited for every theorem's in-network
    // run and reference run — exact equalities, never ranges.
    let cases = [
        (AutoChoice::TreeUnit, tree_problem(23)),
        (AutoChoice::LineUnit, line_problem(23)),
        (AutoChoice::LineArbitrary, mixed_line_problem(23)),
        (AutoChoice::TreeArbitrary, mixed_tree_problem(23)),
    ];
    for (choice, p) in &cases {
        let out = run(p, *choice);
        assert_round_relation(&out, &format!("{choice:?}"));
        let sweeps: u64 = out.run.schedules().iter().map(|s| s.sweeps).sum();
        assert!(sweeps > 0, "{choice:?}");

        // Reference paths: no sweeps, driver-counted boundaries, one
        // serial engine (with its setup round) per half.
        let out = run_distributed_reference(p, *choice, &DistConfig::default()).unwrap();
        let schedules = out.run.schedules();
        for schedule in &schedules {
            assert_eq!(schedule.sweeps, 0, "{choice:?}");
            assert_eq!(schedule.control_rounds(), 0, "{choice:?}");
        }
        assert_eq!(
            out.run.metrics().rounds,
            schedules.iter().map(|s| s.total_rounds() + 1).sum::<u64>(),
            "{choice:?}"
        );
    }

    // Auto dispatches to the same runs; its relation follows the
    // dispatched shape.
    let out = run_distributed_auto(&cases[2].1, &DistConfig::default()).unwrap();
    assert_round_relation(&out, "auto");
}

#[test]
fn per_class_traffic_accounts_for_the_control_plane() {
    // The engine's per-class counters split setup (0), sub-run data
    // (1/2), echo control (3) and combine control (4); the split runner
    // uses all five, the solo runner everything but the combiner.
    let metrics = run(&mixed_line_problem(7), AutoChoice::LineArbitrary)
        .run
        .metrics();
    let by = metrics.by_class;
    assert!(by[0].messages > 0, "setup descriptors");
    assert!(by[1].messages > 0, "wide-half data");
    assert!(by[2].messages > 0, "narrow-half data");
    assert!(by[3].messages > 0, "echo sweeps");
    assert!(by[4].messages > 0, "combiner");
    let total: u64 = by.iter().map(|c| c.messages).sum();
    assert_eq!(total, metrics.messages);

    let by = run(&line_problem(7), AutoChoice::LineUnit)
        .run
        .metrics()
        .by_class;
    assert_eq!(by[2].messages, 0, "no narrow half");
    assert_eq!(by[4].messages, 0, "no combiner");
    assert!(by[3].messages > 0, "echo sweeps");
}

#[test]
fn line_messages_respect_the_descriptor_bound() {
    // O(M) bits on the line runners too: windows expand to many
    // instances per demand, but every message still fits one descriptor.
    let p = LineWorkload::new(40, 16)
        .with_resources(2)
        .with_window_slack(3)
        .with_len_range(1, 10)
        .generate(&mut SmallRng::seed_from_u64(31));
    let metrics = run(&p, AutoChoice::LineUnit).run.metrics();
    assert!(metrics.messages > 0);
    assert!(metrics.max_message_bits <= descriptor_bound(p.network_count()));
}

#[test]
fn loss_overhead_lands_in_the_dedicated_counters() {
    // Under a loss model the *logical* accounting is untouched — the
    // per-class sums still equal the global message/bit counters, every
    // message still fits the O(M) bound — while the reliability overhead
    // is measurable in the retransmit/ack/dup counters and in the
    // recovery-slot inflation of rounds.
    use treenet_netsim::LossModel;
    let p = mixed_line_problem(7);
    let plain = run(&p, AutoChoice::LineArbitrary);
    let cfg = DistConfig {
        loss: Some(
            LossModel::bernoulli(0.1, 0x10af)
                .with_duplicates(0.1)
                .with_delays(0.1),
        ),
        ..DistConfig::default()
    };
    let lossy_run = run_distributed(&p, AutoChoice::LineArbitrary, &cfg).unwrap();
    let (plain_metrics, lossy) = (plain.run.metrics(), lossy_run.run.metrics());

    // Logical traffic identical, class by class.
    assert_eq!(plain_metrics.messages, lossy.messages);
    assert_eq!(plain_metrics.bits, lossy.bits);
    for k in 0..treenet_netsim::MESSAGE_CLASSES {
        assert_eq!(
            plain_metrics.by_class[k].messages, lossy.by_class[k].messages,
            "class {k}"
        );
    }
    let (m, b) = lossy
        .by_class
        .iter()
        .fold((0u64, 0u64), |(m, b), c| (m + c.messages, b + c.bits));
    assert_eq!((m, b), (lossy.messages, lossy.bits));
    // O(M): acks are link-layer control and never enter the payload max.
    assert!(lossy.max_message_bits <= descriptor_bound(p.network_count()));
    assert_eq!(lossy.max_message_bits, plain_metrics.max_message_bits);

    // Overhead exists and adds up: per-class retransmits sum to the
    // global counter, rounds inflate by exactly the recovery slots.
    assert!(lossy.dropped > 0 && lossy.retransmits > 0);
    let class_retransmits: u64 = lossy.by_class.iter().map(|c| c.retransmits).sum();
    assert_eq!(class_retransmits, lossy.retransmits);
    let class_dups: u64 = lossy.by_class.iter().map(|c| c.dup_suppressed).sum();
    assert_eq!(class_dups, lossy.dup_suppressed);
    assert_eq!(lossy.rounds, plain_metrics.rounds + lossy.retransmit_rounds);
    // Recovery slots respect the windowed bound from the shared core
    // definition (2 slots per loss event at window ≥ 2).
    assert!(
        lossy.retransmit_rounds
            <= treenet_core::retransmit_round_bound(
                lossy.dropped,
                lossy.delayed,
                treenet_netsim::DEFAULT_ARQ_WINDOW as u64
            ),
        "recovery slots exceed the windowed bound"
    );
    assert_eq!(lossy.ack_bits, lossy.acks * treenet_netsim::ACK_BITS);
    // The schedule (and thus every round relation on it) is unchanged.
    assert_eq!(plain.run.schedules(), lossy_run.run.schedules());
}

#[test]
fn solo_processor_is_silent() {
    // A single isolated processor is its own convergecast root: the echo
    // verdicts resolve locally, sweeps cost zero rounds and the whole
    // run exchanges zero messages.
    let mut b = treenet_model::ProblemBuilder::new();
    let t = b.add_network(treenet_graph::Tree::line(6)).unwrap();
    b.add_demand(
        treenet_model::Demand::pair(treenet_graph::VertexId(0), treenet_graph::VertexId(5), 2.0),
        &[t],
    )
    .unwrap();
    let p = b.build().unwrap();
    let out = run(&p, AutoChoice::TreeUnit);
    let metrics = out.run.metrics();
    assert_eq!(metrics.messages, 0);
    assert_eq!(metrics.bits, 0);
    assert_eq!(metrics.max_message_bits, 0);
    let schedule = out.run.schedules()[0];
    assert_eq!(schedule.sweep_rounds, 0, "height-0 forest");
    assert!(schedule.sweeps > 0, "sweeps still run, for free");
    assert_round_relation(&out, "solo");
    assert_eq!(out.solution.len(), 1);
}
