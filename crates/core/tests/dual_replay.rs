//! [`Outcome::dual`]'s public reads, pinned against an independent replay.
//!
//! A run keeps its duals in its participants' frame: an `α` per
//! participant demand and a `β` array per network a participant uses.
//! Here every recorded raise is replayed into plain dense arrays — `α` per
//! demand, `β` per network and edge — and the frame must answer every
//! read for every id of the problem exactly as the dense arrays do:
//! participants, the other half's instances and everything else. An MIS
//! never raises two instances that share a dual variable, so replaying a
//! step's raises one at a time is exact.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use treenet_core::{
    run_two_phase, solve, AutoChoice, DualForm, FrameworkConfig, Outcome, RaiseRule, SolverConfig,
};
use treenet_decomp::LayeredDecomposition;
use treenet_graph::EdgeId;
use treenet_model::workload::{HeightMode, LineWorkload, TreeWorkload};
use treenet_model::{InstanceId, Problem};

const HMIN: f64 = 0.25;

fn heights(arbitrary: bool) -> HeightMode {
    if arbitrary {
        HeightMode::Bimodal {
            narrow_frac: 0.5,
            hmin: HMIN,
        }
    } else {
        HeightMode::Unit
    }
}

fn problem(choice: AutoChoice, seed: u64) -> Problem {
    let mut rng = SmallRng::seed_from_u64(seed);
    match choice {
        AutoChoice::TreeUnit | AutoChoice::TreeArbitrary => TreeWorkload::new(14, 12)
            .with_networks(2)
            .with_profit_ratio(6.0)
            .with_heights(heights(choice == AutoChoice::TreeArbitrary))
            .generate(&mut rng),
        AutoChoice::LineUnit | AutoChoice::LineArbitrary => LineWorkload::new(24, 10)
            .with_resources(2)
            .with_window_slack(2)
            .with_len_range(1, 6)
            .with_heights(heights(choice == AutoChoice::LineArbitrary))
            .generate(&mut rng),
    }
}

/// Dense duals: `α` per demand, `β` per network and edge.
struct Dense {
    form: DualForm,
    alpha: Vec<f64>,
    beta: Vec<Vec<f64>>,
}

impl Dense {
    fn new(problem: &Problem, form: DualForm) -> Self {
        Dense {
            form,
            alpha: vec![0.0; problem.demand_count()],
            beta: problem
                .networks()
                .map(|t| vec![0.0; problem.network(t).edge_count()])
                .collect(),
        }
    }

    fn lhs(&self, problem: &Problem, d: InstanceId) -> f64 {
        let inst = problem.instance(d);
        let beta = &self.beta[inst.network.index()];
        let beta_sum: f64 = inst.path().edges().iter().map(|&e| beta[e.index()]).sum();
        let scale = match self.form {
            DualForm::Unit => 1.0,
            DualForm::Capacitated => problem.height_of(d),
        };
        self.alpha[inst.demand.index()] + scale * beta_sum
    }

    fn value(&self) -> f64 {
        let a: f64 = self.alpha.iter().sum();
        let b: f64 = self.beta.iter().map(|per| per.iter().sum::<f64>()).sum();
        a + b
    }
}

/// Replays `outcome`'s trace into dense arrays, checking each raise's `δ`
/// against the recorded one.
fn replay(problem: &Problem, layers: &LayeredDecomposition, outcome: &Outcome) -> Dense {
    let form = outcome.dual.form();
    let rule = match form {
        DualForm::Unit => RaiseRule::Unit,
        DualForm::Capacitated => RaiseRule::Narrow,
    };
    let mut dense = Dense::new(problem, form);
    let mut pi = Vec::new();
    for event in outcome.trace.as_ref().expect("trace recorded") {
        let d = event.instance;
        let inst = problem.instance(d);
        let critical = layers.critical_of(problem, d, &mut pi);
        let pi = critical.len() as f64;
        let slack = problem.profit_of(d) - dense.lhs(problem, d);
        let delta = rule.delta_for(slack, problem.height_of(d), pi);
        assert_eq!(delta.to_bits(), event.delta.to_bits(), "δ of {d}");
        dense.alpha[inst.demand.index()] += delta;
        for &e in critical {
            dense.beta[inst.network.index()][e.index()] += rule.beta_increment(pi, delta);
        }
    }
    dense
}

fn assert_reads_match(problem: &Problem, outcome: &Outcome, dense: &Dense, label: &str) {
    let dual = &outcome.dual;
    for a in problem.demands() {
        assert_eq!(
            dual.alpha(a).to_bits(),
            dense.alpha[a.index()].to_bits(),
            "{label}: α({a})"
        );
    }
    for t in problem.networks() {
        for e in 0..problem.network(t).edge_count() {
            let e = EdgeId(e as u32);
            assert_eq!(
                dual.beta(t, e).to_bits(),
                dense.beta[t.index()][e.index()].to_bits(),
                "{label}: β({t}, {e:?})"
            );
        }
    }
    for inst in problem.instances() {
        assert_eq!(
            dual.lhs(problem, inst.id).to_bits(),
            dense.lhs(problem, inst.id).to_bits(),
            "{label}: lhs({})",
            inst.id
        );
    }
    assert_eq!(
        dual.value().to_bits(),
        dense.value().to_bits(),
        "{label}: value"
    );
}

#[test]
fn every_read_matches_a_dense_replay() {
    for choice in [
        AutoChoice::TreeUnit,
        AutoChoice::TreeArbitrary,
        AutoChoice::LineUnit,
        AutoChoice::LineArbitrary,
    ] {
        for seed in 0..6u64 {
            let p = problem(choice, seed);
            let config = SolverConfig::default().with_seed(seed).with_trace(true);
            let layers =
                LayeredDecomposition::new(&p, choice.layering(&p, config.strategy).unwrap());
            let out = solve(&p, choice, &config).unwrap();
            let mut raised = 0;
            for (h, half) in out.run.halves().into_iter().enumerate() {
                let dense = replay(&p, &layers, half);
                assert_reads_match(
                    &p,
                    half,
                    &dense,
                    &format!("{choice:?} seed {seed} half {h}"),
                );
                raised += half.stats.raises;
            }
            assert!(raised > 0, "{choice:?} seed {seed}: nothing raised");
        }
    }
}

#[test]
fn an_empty_run_has_value_positive_zero() {
    // The dense sums run over at least one +0.0 entry, so they are +0.0;
    // the empty f64 sum is -0.0.
    let p = problem(AutoChoice::TreeUnit, 1);
    let layers = LayeredDecomposition::for_trees(&p, treenet_decomp::Strategy::Ideal);
    let out = run_two_phase(
        &p,
        &layers,
        RaiseRule::Unit,
        &FrameworkConfig::default(),
        &[],
    )
    .unwrap();
    assert_eq!(out.dual.value().to_bits(), 0.0f64.to_bits());
    assert_eq!(out.dual.lhs(&p, InstanceId(0)).to_bits(), 0.0f64.to_bits());
}
