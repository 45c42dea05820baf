//! `solve-flat`: the central solver, one global run per op.
//!
//! [`solve_auto`] back to back over a pool of flat (pod-free) tree
//! problems with bimodal heights, which dispatch to Theorem 6.3's
//! wide/narrow split. The traced run replays that split through the
//! public functions beneath `solve_auto`: layering, the wide and narrow
//! `run_two_phase` runs, and the per-network combiner.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use treenet_core::{
    auto_choice, combine_by_network, narrow_xi, resolve_narrow_hmin, run_two_phase, solve_auto,
    unit_xi, AutoChoice, FrameworkConfig, FrameworkError, RaiseRule, RunStats, SolverConfig,
};
use treenet_decomp::LayeredDecomposition;
use treenet_model::spec::ProblemSpec;
use treenet_model::workload::{HeightMode, TreeWorkload};
use treenet_model::{HeightClass, InstanceId, Problem, Solution};

use super::{derive_seed, ops_per_pass, span_p50, Checked, Workload};
use crate::report::{median, metric, ratio, Metric};
use crate::trace::{count_samples, Trace};

/// Tree networks per problem.
const NETWORKS: usize = 3;

/// Slackness target.
const EPSILON: f64 = 0.1;

/// Size of the workload.
#[derive(Clone, Debug)]
pub struct SolveFlat {
    /// Vertices per tree network.
    pub n: usize,
    /// Demands per problem.
    pub demands: usize,
    /// Distinct problems the ops cycle through.
    pub pool: usize,
    /// Ops per second of `--seconds`, over all passes.
    pub ops_per_second: u64,
    /// Passes over the ops, each from a fresh set-up.
    pub passes: usize,
}

impl Default for SolveFlat {
    fn default() -> Self {
        SolveFlat {
            n: 384,
            demands: 6400,
            pool: 16,
            ops_per_second: 50,
            passes: 12,
        }
    }
}

/// Generated inputs.
pub struct Inputs {
    specs: Vec<ProblemSpec>,
    config: SolverConfig,
    ops: usize,
}

/// The built problem pool.
pub struct State {
    problems: Vec<Problem>,
}

/// One op's schedule and λ bits.
pub type Out = Result<(Solution, u64), FrameworkError>;

/// Every op's schedule and λ bits (`None` when the solver failed).
pub type Outputs = Vec<Option<(Solution, u64)>>;

/// What the traced split of one op yields.
struct Split {
    solution: Solution,
    lambda: f64,
    wide: RunStats,
    narrow: RunStats,
}

/// The framework configuration `solve_auto` derives from `config`.
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

/// Theorem 6.3's scheduler, one span per public function beneath
/// `solve_auto`.
fn solve_traced(
    problem: &Problem,
    config: &SolverConfig,
    trace: &mut Trace,
) -> Result<Split, FrameworkError> {
    let layers = trace.time("decomp.layering", || {
        LayeredDecomposition::for_trees(problem, config.strategy)
    });
    let (mut wide_ids, mut narrow_ids): (Vec<InstanceId>, Vec<InstanceId>) =
        (Vec::new(), Vec::new());
    for inst in problem.instances() {
        match problem.demand(inst.demand).height_class() {
            HeightClass::Wide => wide_ids.push(inst.id),
            HeightClass::Narrow => narrow_ids.push(inst.id),
        }
    }
    let wide_config = framework_config(config, unit_xi(layers.delta()));
    let wide = trace.time("framework.wide", || {
        run_two_phase(problem, &layers, RaiseRule::Unit, &wide_config, &wide_ids)
    })?;
    let hmin = resolve_narrow_hmin(problem, &narrow_ids, config.hmin)
        .map_err(|reason| FrameworkError::BadParameters { reason })?;
    let narrow_config = framework_config(config, narrow_xi(layers.delta(), hmin));
    let narrow = trace.time("framework.narrow", || {
        run_two_phase(
            problem,
            &layers,
            RaiseRule::Narrow,
            &narrow_config,
            &narrow_ids,
        )
    })?;
    let solution = trace.time("core.combine", || {
        combine_by_network(problem, &wide.solution, &narrow.solution)
    });
    Ok(Split {
        solution,
        lambda: wide.lambda.min(narrow.lambda),
        wide: wide.stats,
        narrow: narrow.stats,
    })
}

impl Workload for SolveFlat {
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
        let specs = (0..self.pool as u64)
            .map(|k| {
                let problem = TreeWorkload::new(self.n, self.demands)
                    .with_networks(NETWORKS)
                    .with_profit_ratio(8.0)
                    .with_heights(HeightMode::Bimodal {
                        narrow_frac: 0.5,
                        hmin: 0.25,
                    })
                    .generate(&mut SmallRng::seed_from_u64(derive_seed(seed, k)));
                assert_eq!(
                    auto_choice(&problem),
                    AutoChoice::TreeArbitrary,
                    "the traced split mirrors Theorem 6.3's dispatch"
                );
                ProblemSpec::from_problem(&problem)
            })
            .collect();
        Inputs {
            specs,
            config: SolverConfig::default().with_epsilon(EPSILON),
            ops: ops_per_pass(seconds, self.ops_per_second, self.passes),
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
        inputs.ops
    }

    /// Every op on one pool problem does identical work.
    fn key(&self, inputs: &Inputs, i: usize) -> usize {
        i % inputs.specs.len()
    }

    fn op(&self, state: &mut State, inputs: &Inputs, i: usize) -> Out {
        let problem = &state.problems[i % state.problems.len()];
        solve_auto(problem, &inputs.config).map(|o| (o.solution, o.lambda.to_bits()))
    }

    fn op_traced(
        &self,
        state: &mut State,
        inputs: &Inputs,
        i: usize,
        trace: &mut Trace,
    ) -> (Out, Vec<String>) {
        let id = i as u32;
        let span = trace.enter_op(id);
        let split = solve_traced(
            &state.problems[i % state.problems.len()],
            &inputs.config,
            trace,
        );
        trace.exit(span);
        let out = split.map(|split| {
            let raises = split.wide.raises + split.narrow.raises;
            let per_op = [
                ("framework.steps", split.wide.steps + split.narrow.steps),
                (
                    "framework.mis_rounds",
                    split.wide.mis_rounds + split.narrow.mis_rounds,
                ),
                ("framework.raises", raises),
            ];
            for (name, value) in per_op {
                trace.count(name, Some(id), value as f64);
            }
            let kept = ratio(split.solution.len() as f64, raises as f64);
            trace.count("framework.kept_per_raise", Some(id), kept);
            (split.solution, split.lambda.to_bits())
        });
        (out, Vec::new())
    }

    fn book(&self, outputs: &mut Outputs, out: Out) -> bool {
        let ok = out.is_ok();
        outputs.push(out.ok());
        ok
    }

    fn check(&self, state: &mut State, inputs: &Inputs, outputs: &Outputs) -> Checked {
        let pool = state.problems.len();
        let floor = 1.0 - inputs.config.epsilon - 1e-9;
        let mut errors = Vec::new();
        // Each pool problem's output is checked once; every other op on
        // the same problem must have produced it bit for bit.
        let mut verified: Vec<Option<(&Solution, u64, f64)>> = vec![None; pool];
        let mut profit = 0.0;
        for (i, out) in outputs.iter().enumerate() {
            let Some((solution, bits)) = out else {
                continue;
            };
            let k = i % pool;
            match verified[k] {
                Some((first, first_bits, p)) => {
                    if (first, first_bits) != (solution, *bits) {
                        errors.push(format!(
                            "op {i}: output differs from an earlier op on problem {k}"
                        ));
                    }
                    profit += p;
                }
                None => {
                    let problem = &state.problems[k];
                    if let Err(e) = solution.verify(problem) {
                        errors.push(format!("op {i}: infeasible schedule: {e}"));
                    }
                    let lambda = f64::from_bits(*bits);
                    if lambda < floor {
                        errors.push(format!("op {i}: λ = {lambda} below 1 - ε"));
                    }
                    let p = solution.profit(problem);
                    verified[k] = Some((solution, *bits, p));
                    profit += p;
                }
            }
        }
        Checked { profit, errors }
    }

    fn layers(&self, trace: &Trace, self_ns: &[u64], _state: &State) -> Vec<Metric> {
        let count_p50 = |name| median(&count_samples(trace.counts(), name));
        vec![
            span_p50(
                trace,
                self_ns,
                "decomp.layering",
                "decomp.layering_ms",
                "ms",
            ),
            span_p50(trace, self_ns, "framework.wide", "framework.wide_ms", "ms"),
            span_p50(
                trace,
                self_ns,
                "framework.narrow",
                "framework.narrow_ms",
                "ms",
            ),
            metric("framework.steps", count_p50("framework.steps"), "count"),
            metric(
                "framework.mis_rounds",
                count_p50("framework.mis_rounds"),
                "count",
            ),
            metric("framework.raises", count_p50("framework.raises"), "count"),
            metric(
                "framework.kept_per_raise",
                count_p50("framework.kept_per_raise"),
                "share",
            ),
            span_p50(trace, self_ns, "core.combine", "core.combine_us", "us"),
        ]
    }
}
