//! `serve-churn`: the online service under long submit/withdraw churn.
//!
//! A unit-mode [`Server`] is bootstrapped with pod-structured tree
//! demands. One in-process client sends pre-rendered NDJSON lines to
//! [`Server::handle_line`]: 19 ops in 20 are a write (an `OpenLoop`
//! submit or withdraw, then `resolve`), every 20th is a `query` that
//! returns the full schedule.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde_json::Value;
use treenet_core::SolverConfig;
use treenet_model::spec::ProblemSpec;
use treenet_model::workload::TreeWorkload;
use treenet_serve::{OpenLoop, Request, Server};

use super::{
    by_op, derive_seed, ops_per_pass, per_setup_metric, span_p50, span_samples, Checked, Digest,
    Workload,
};
use crate::report::{median, metric, percentile, ratio, Metric};
use crate::trace::{self, Trace};

const RESOLVE: &str = r#"{"op":"resolve"}"#;
const QUERY: &str = r#"{"op":"query"}"#;
const CHECK: &str = r#"{"op":"check"}"#;

/// Slackness target of the server.
const EPSILON: f64 = 0.3;

/// Share of writes that withdraw, in percent: the live population stays
/// near the bootstrap level while departed slots pile up.
const DEPART_PERCENT: u32 = 50;

/// Every `READ_EVERY`-th op is a `query`.
const READ_EVERY: usize = 20;

/// Size and mix of the workload.
#[derive(Clone, Debug)]
pub struct ServeChurn {
    /// Vertices per tree network.
    pub n: usize,
    /// Demands queued at bootstrap.
    pub demands: usize,
    /// Independent pods of two networks each.
    pub pods: usize,
    /// Ops per second of `--seconds`, over all passes: sized so that a
    /// run takes about that long on the reference machine.
    pub ops_per_second: u64,
    /// Passes over the ops, each from a fresh set-up.
    pub passes: usize,
}

impl Default for ServeChurn {
    fn default() -> Self {
        ServeChurn {
            n: 24,
            demands: 20_000,
            pods: 500,
            ops_per_second: 340,
            passes: 12,
        }
    }
}

/// Generated inputs.
pub struct Inputs {
    spec: ProblemSpec,
    config: SolverConfig,
    /// The request line of each write; `None` is a read.
    ops: Vec<Option<String>>,
}

/// The bootstrapped server.
pub struct State {
    server: Server,
}

/// The response to a write and to its `resolve`, or to a read.
pub type Responses = (String, Option<String>);

fn is_ok(response: &str) -> bool {
    response.starts_with(r#"{"ok":true"#)
}

/// `Server::handle_line`, split into spans: parse, apply, serialize.
fn handle_traced(
    server: &mut Server,
    line: &str,
    apply: &'static str,
    serialize: &'static str,
    trace: &mut Trace,
) -> (String, Value) {
    let request = match trace.time("serve.parse", || Request::parse(line)) {
        Ok(request) => request,
        Err(message) => return (format!("unparsed: {message}"), Value::Null),
    };
    let response = trace.time(apply, || server.apply(&request));
    let text = trace.time(serialize, || {
        serde_json::to_string(&response).expect("responses serialize")
    });
    (text, response)
}

fn field(response: &Value, key: &str) -> f64 {
    match &response[key] {
        Value::Num(n) => *n,
        _ => 0.0,
    }
}

impl Workload for ServeChurn {
    type Inputs = Inputs;
    type State = State;
    type Out = Responses;
    type Outputs = Digest;

    fn passes(&self) -> usize {
        self.passes
    }

    fn generate(&self, seed: u64, seconds: u64) -> Inputs {
        let problem = TreeWorkload::new(self.n, self.demands)
            .with_networks(2)
            .with_pods(self.pods)
            .with_profit_ratio(8.0)
            .generate(&mut SmallRng::seed_from_u64(derive_seed(seed, 1)));
        let mut stream = OpenLoop::new(
            derive_seed(seed, 2),
            problem.vertex_count() as u32,
            problem.network_count() as u32,
        )
        .with_id_floor(self.demands as u64)
        .with_depart_percent(DEPART_PERCENT);
        let count = ops_per_pass(seconds, self.ops_per_second, self.passes);
        let ops = (0..count)
            .map(|i| (i % READ_EVERY != READ_EVERY - 1).then(|| stream.next_request().to_json()))
            .collect();
        Inputs {
            spec: ProblemSpec::from_problem(&problem),
            config: SolverConfig::default().with_epsilon(EPSILON),
            ops,
        }
    }

    fn setup(&self, inputs: &Inputs, trace: &mut Trace) -> State {
        let problem = trace.time("model.build", || {
            inputs.spec.build().expect("generated specs build")
        });
        let mut server = trace.time("delta.new", || {
            Server::new(problem, &inputs.config).expect("unit-height demands admit")
        });
        let bootstrap = trace.time("delta.bootstrap", || server.handle_line(RESOLVE));
        assert!(is_ok(&bootstrap), "bootstrap resolve failed: {bootstrap}");
        State { server }
    }

    fn ops(&self, inputs: &Inputs) -> usize {
        inputs.ops.len()
    }

    fn op(&self, state: &mut State, inputs: &Inputs, i: usize) -> Responses {
        let server = &mut state.server;
        match &inputs.ops[i] {
            Some(line) => {
                let write = server.handle_line(line);
                (write, Some(server.handle_line(RESOLVE)))
            }
            None => (server.handle_line(QUERY), None),
        }
    }

    fn op_traced(
        &self,
        state: &mut State,
        inputs: &Inputs,
        i: usize,
        trace: &mut Trace,
    ) -> (Responses, Vec<String>) {
        let server = &mut state.server;
        let id = i as u32;
        let span = trace.enter_op(id);
        let Some(line) = &inputs.ops[i] else {
            let (query, _) = handle_traced(
                server,
                QUERY,
                "delta.query_apply",
                "serve.query_serialize",
                trace,
            );
            trace.exit(span);
            return ((query, None), Vec::new());
        };
        let (write, _) = handle_traced(server, line, "delta.apply", "serve.serialize", trace);
        let (resolve, response) =
            handle_traced(server, RESOLVE, "delta.resolve", "serve.serialize", trace);
        trace.exit(span);
        // Global assembly on its own, outside the op.
        let assembled = trace.probe("delta.assemble", id, || {
            let engine = server.engine();
            (
                engine.solution(),
                engine.lambda(),
                engine.problem().live_instances(),
            )
        });
        std::hint::black_box(assembled);
        let instances = field(&response, "instances_resolved");
        trace.count("delta.instances_per_write", Some(id), instances);
        trace.count(
            "delta.live_instances",
            Some(id),
            field(&response, "live_instances"),
        );
        ((write, Some(resolve)), Vec::new())
    }

    fn book(&self, digest: &mut Digest, (first, second): Responses) -> bool {
        digest.feed(&first);
        let mut ok = is_ok(&first);
        if let Some(second) = second {
            digest.feed(&second);
            ok &= is_ok(&second);
        }
        ok
    }

    fn check(&self, state: &mut State, _inputs: &Inputs, _outputs: &Digest) -> Checked {
        let mut errors = Vec::new();
        let check = state.server.handle_line(CHECK);
        if !check.contains(r#""identical":true"#) {
            errors.push(format!("final check is not identical: {check}"));
        }
        let engine = state.server.engine();
        let solution = engine.solution();
        if let Err(e) = solution.verify(engine.problem()) {
            errors.push(format!("final schedule is infeasible: {e}"));
        }
        Checked {
            profit: solution.profit(engine.problem()),
            errors,
        }
    }

    fn layers(&self, trace: &Trace, self_ns: &[u64], state: &State) -> Vec<Metric> {
        let resolve_us = span_samples(trace, self_ns, "delta.resolve", 1e-3);
        let assemble = by_op(trace, self_ns, "delta.assemble");
        let solve_us: Vec<f64> = by_op(trace, self_ns, "delta.resolve")
            .into_iter()
            .filter_map(|(op, ns)| assemble.get(&op).map(|a| (ns - a) * 1e-3))
            .collect();
        let instances = trace::count_samples(trace.counts(), "delta.instances_per_write");
        let live = trace::count_samples(trace.counts(), "delta.live_instances");
        let problem = state.server.engine().problem();
        let slots = problem.instance_count() as f64;
        vec![
            per_setup_metric(trace, self_ns, "delta.new", "delta.new_s"),
            per_setup_metric(trace, self_ns, "delta.bootstrap", "delta.bootstrap_s"),
            span_p50(trace, self_ns, "serve.parse", "serve.parse_us", "us"),
            span_p50(
                trace,
                self_ns,
                "serve.serialize",
                "serve.serialize_us",
                "us",
            ),
            span_p50(
                trace,
                self_ns,
                "serve.query_serialize",
                "serve.query_serialize_ms",
                "ms",
            ),
            span_p50(trace, self_ns, "delta.apply", "delta.apply_us", "us"),
            metric("delta.resolve_us", median(&resolve_us), "us"),
            metric("delta.resolve_p90_us", percentile(&resolve_us, 0.9), "us"),
            span_p50(trace, self_ns, "delta.assemble", "delta.assemble_us", "us"),
            metric("delta.solve_us", median(&solve_us), "us"),
            span_p50(
                trace,
                self_ns,
                "delta.query_apply",
                "delta.query_apply_ms",
                "ms",
            ),
            metric("delta.instances_per_write", median(&instances), "count"),
            metric(
                "delta.instances_per_write_p90",
                percentile(&instances, 0.9),
                "count",
            ),
            metric(
                "delta.resolved_share",
                ratio(instances.iter().sum(), live.iter().sum()),
                "share",
            ),
            metric("model.slots", slots, "count"),
            metric(
                "model.departed_share",
                1.0 - ratio(problem.live_instances().len() as f64, slots),
                "share",
            ),
        ]
    }
}
