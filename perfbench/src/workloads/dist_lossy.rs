//! `dist-lossy`: the message-passing runner over lossy links.
//!
//! Each op runs [`run_distributed_auto`] on its own line problem (Theorem
//! 7.2's merged wide/narrow run with the in-network combiner) under
//! Bernoulli drops recovered by the sliding-window ARQ, with a loss seed
//! per op. The traced run adds two probes per op: the lossless twin (the
//! same run with `loss: None`) and the logical twin ([`solve_auto`]).

use rand::rngs::SmallRng;
use rand::SeedableRng;
use treenet_core::{solve_auto, SolverConfig};
use treenet_dist::{run_distributed_auto, DistAutoOutcome, DistAutoRun, DistConfig, DistError};
use treenet_model::spec::ProblemSpec;
use treenet_model::workload::{HeightMode, LineWorkload};
use treenet_model::{Problem, Solution};
use treenet_netsim::{LossModel, Metrics};

use super::{by_op, derive_seed, ops_per_pass, span_p50, Checked, Workload};
use crate::report::{mean, median, metric, ratio, Metric};
use crate::trace::{count_samples, Trace};

/// Traffic classes of `treenet_dist::DistMsg`, by `Metrics::by_class` index.
const CLASSES: [&str; 6] = [
    "netsim.messages.descriptor",
    "netsim.messages.wide",
    "netsim.messages.narrow",
    "netsim.messages.echo",
    "netsim.messages.combine",
    "netsim.messages.bfs",
];

/// Bernoulli drop probability of every link.
const DROP: f64 = 0.2;

/// Slackness target.
const EPSILON: f64 = 0.3;

/// Size of the workload.
#[derive(Clone, Debug)]
pub struct DistLossy {
    /// Timeslots of each line.
    pub slots: usize,
    /// Demands per problem.
    pub demands: usize,
    /// Ops per second of `--seconds`, over all passes; a pass runs each
    /// of its problems once.
    pub ops_per_second: u64,
    /// Passes over the ops, each from a fresh set-up.
    pub passes: usize,
}

impl Default for DistLossy {
    fn default() -> Self {
        DistLossy {
            slots: 48,
            demands: 24,
            ops_per_second: 220,
            passes: 12,
        }
    }
}

/// Generated inputs: one problem and one lossy configuration per op.
pub struct Inputs {
    specs: Vec<ProblemSpec>,
    configs: Vec<DistConfig>,
    solver: SolverConfig,
}

/// The built problems.
pub struct State {
    problems: Vec<Problem>,
}

/// What one op produced.
#[derive(Clone, Debug, PartialEq)]
pub struct OpOutput {
    solution: Solution,
    lambda_bits: u64,
    metrics: Metrics,
    control_stalls: u64,
    sweeps: u64,
}

impl OpOutput {
    fn of(out: DistAutoOutcome) -> OpOutput {
        let (metrics, schedules) = match &out.run {
            DistAutoRun::Single(run) => (run.metrics, vec![&run.schedule]),
            DistAutoRun::Split(run) => {
                (run.metrics, vec![&run.wide.schedule, &run.narrow.schedule])
            }
        };
        OpOutput {
            control_stalls: schedules.iter().map(|s| s.control_stalls).sum(),
            sweeps: schedules.iter().map(|s| s.sweeps).sum(),
            metrics,
            lambda_bits: out.lambda.to_bits(),
            solution: out.solution,
        }
    }

    /// Messages on the wire: logical messages plus the reliable layer's
    /// retransmissions and standalone acks.
    fn wire_messages(&self) -> u64 {
        self.metrics.messages + self.metrics.retransmits + self.metrics.acks
    }
}

/// What one op yields.
pub type Out = Result<OpOutput, DistError>;

/// Every op's output (`None` when the run failed).
pub type Outputs = Vec<Option<OpOutput>>;

impl Workload for DistLossy {
    type Inputs = Inputs;
    type State = State;
    type Out = Out;
    type Outputs = Outputs;

    fn passes(&self) -> usize {
        self.passes
    }

    fn ops_mutate_state(&self) -> bool {
        false
    }

    fn generate(&self, seed: u64, seconds: u64) -> Inputs {
        let ops = ops_per_pass(seconds, self.ops_per_second, self.passes) as u64;
        let solver = SolverConfig::default().with_epsilon(EPSILON);
        let specs = (0..ops)
            .map(|k| {
                let problem = LineWorkload::new(self.slots, self.demands)
                    .with_resources(2)
                    .with_window_slack(2)
                    .with_len_range(1, 8)
                    .with_heights(HeightMode::Bimodal {
                        narrow_frac: 0.5,
                        hmin: 0.2,
                    })
                    .generate(&mut SmallRng::seed_from_u64(derive_seed(seed, k)));
                ProblemSpec::from_problem(&problem)
            })
            .collect();
        let loss_seed = derive_seed(seed, u64::MAX);
        let configs = (0..ops)
            .map(|k| DistConfig {
                loss: Some(LossModel::bernoulli(DROP, derive_seed(loss_seed, k))),
                threads: 1,
                ..DistConfig::from(&solver)
            })
            .collect();
        Inputs {
            specs,
            configs,
            solver,
        }
    }

    fn setup(&self, inputs: &Inputs, trace: &mut Trace) -> State {
        let problems = inputs
            .specs
            .iter()
            .map(|spec| {
                trace.time("model.build", || {
                    spec.build().expect("generated specs build")
                })
            })
            .collect();
        State { problems }
    }

    fn ops(&self, inputs: &Inputs) -> usize {
        inputs.specs.len()
    }

    fn op(&self, state: &mut State, inputs: &Inputs, i: usize) -> Out {
        run_distributed_auto(&state.problems[i], &inputs.configs[i]).map(OpOutput::of)
    }

    fn op_traced(
        &self,
        state: &mut State,
        inputs: &Inputs,
        i: usize,
        trace: &mut Trace,
    ) -> (Out, Vec<String>) {
        let id = i as u32;
        let (problem, config) = (&state.problems[i], &inputs.configs[i]);
        let span = trace.enter_op(id);
        let out = run_distributed_auto(problem, config);
        trace.exit(span);
        let out = match out {
            Ok(out) => OpOutput::of(out),
            Err(e) => return (Err(e), Vec::new()),
        };
        let lossless_config = DistConfig {
            loss: None,
            ..config.clone()
        };
        let lossless = trace.probe("dist.lossless", id, || {
            run_distributed_auto(problem, &lossless_config)
        });
        let logical = trace.probe("core.logical", id, || solve_auto(problem, &inputs.solver));
        let mut errors = Vec::new();
        match lossless.map(OpOutput::of) {
            Ok(twin) if (&twin.solution, twin.lambda_bits) == (&out.solution, out.lambda_bits) => {
                trace.count("dist.lossless_rounds", Some(id), twin.metrics.rounds as f64);
            }
            _ => errors.push(format!("op {i}: the lossless twin diverged")),
        }
        match logical {
            Ok(twin)
                if (&twin.solution, twin.lambda.to_bits()) == (&out.solution, out.lambda_bits) => {}
            _ => errors.push(format!("op {i}: the logical twin diverged")),
        }
        let m = &out.metrics;
        let counts = [
            ("dist.rounds", m.rounds),
            ("netsim.messages", m.messages),
            ("netsim.wire_messages", out.wire_messages()),
            ("netsim.retransmits", m.retransmits),
            ("netsim.acks", m.acks),
            ("netsim.dup_suppressed", m.dup_suppressed),
            ("netsim.retransmit_rounds", m.retransmit_rounds),
            ("dist.control_stalls", out.control_stalls),
            ("dist.sweeps", out.sweeps),
        ];
        for (name, value) in counts {
            trace.count(name, Some(id), value as f64);
        }
        for (class, name) in CLASSES.iter().enumerate() {
            trace.count(name, Some(id), m.by_class[class].messages as f64);
        }
        (Ok(out), errors)
    }

    fn book(&self, outputs: &mut Outputs, out: Out) -> bool {
        let ok = out.is_ok();
        outputs.push(out.ok());
        ok
    }

    fn check(&self, state: &mut State, _inputs: &Inputs, outputs: &Outputs) -> Checked {
        let mut errors = Vec::new();
        let mut profit = 0.0;
        for (i, (out, problem)) in outputs.iter().zip(&state.problems).enumerate() {
            let Some(out) = out else { continue };
            if let Err(e) = out.solution.verify(problem) {
                errors.push(format!("op {i}: infeasible schedule: {e}"));
            }
            profit += out.solution.profit(problem);
        }
        Checked { profit, errors }
    }

    fn layers(&self, trace: &Trace, self_ns: &[u64], _state: &State) -> Vec<Metric> {
        let counts = |name| count_samples(trace.counts(), name);
        let ops = by_op(trace, self_ns, crate::trace::OP);
        let lossless = by_op(trace, self_ns, "dist.lossless");
        let lossless_rounds: std::collections::BTreeMap<u32, f64> = trace
            .counts()
            .iter()
            .filter(|c| c.name == "dist.lossless_rounds")
            .filter_map(|c| c.op.map(|op| (op, c.value)))
            .collect();
        let arq_ms: Vec<f64> = ops
            .iter()
            .filter_map(|(op, ns)| lossless.get(op).map(|l| (ns - l) * 1e-6))
            .collect();
        let us_per_round: Vec<f64> = lossless
            .iter()
            .filter_map(|(op, ns)| lossless_rounds.get(op).map(|r| ratio(ns * 1e-3, *r)))
            .collect();
        let messages: f64 = counts("netsim.messages").iter().sum();
        let wire: f64 = counts("netsim.wire_messages").iter().sum();
        let mut found = vec![
            metric("dist.rounds_per_op", mean(&counts("dist.rounds")), "rounds"),
            metric(
                "netsim.wire_messages_per_op",
                mean(&counts("netsim.wire_messages")),
                "messages",
            ),
            metric("netsim.arq_ms", median(&arq_ms), "ms"),
            metric(
                "netsim.retransmits",
                median(&counts("netsim.retransmits")),
                "count",
            ),
            metric("netsim.acks", median(&counts("netsim.acks")), "count"),
            metric(
                "netsim.dup_suppressed",
                median(&counts("netsim.dup_suppressed")),
                "count",
            ),
            metric(
                "netsim.retransmit_rounds",
                median(&counts("netsim.retransmit_rounds")),
                "rounds",
            ),
            metric("netsim.useful_share", ratio(messages, wire), "share"),
            span_p50(trace, self_ns, "dist.lossless", "dist.lossless_ms", "ms"),
            metric("netsim.us_per_round", median(&us_per_round), "us"),
            metric(
                "dist.control_stalls",
                median(&counts("dist.control_stalls")),
                "rounds",
            ),
            metric("dist.sweeps", median(&counts("dist.sweeps")), "count"),
            span_p50(trace, self_ns, "core.logical", "core.logical_ms", "ms"),
        ];
        for name in CLASSES {
            found.push(metric(name, median(&counts(name)), "messages"));
        }
        found
    }
}
