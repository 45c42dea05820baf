//! The server: client-id bookkeeping over a [`DeltaEngine`], request
//! dispatch, and the blocking line-protocol loop.

use std::collections::BTreeMap;
use std::io::{BufRead, Write};

use serde_json::Value;
use treenet_core::{DeltaEngine, DeltaEngineError, SolverConfig};
use treenet_graph::VertexId;
use treenet_model::{Demand, DemandId, NetworkId, Problem, ProblemDelta};

use crate::protocol::{Request, Shape};

/// The online scheduling server.
///
/// Wraps a [`DeltaEngine`] with the client-facing id space: demands are
/// submitted under client-chosen `u64` ids, mapped to the engine's dense
/// internal ids. Demands present in the bootstrap problem are registered
/// under client ids `0..demand_count` — pick fresh ids above that.
pub struct Server {
    engine: DeltaEngine,
    /// Client id → internal demand id, for every demand ever admitted
    /// (withdrawn demands stay mapped so a second withdraw reports
    /// "already departed", not "never admitted").
    ids: BTreeMap<u64, DemandId>,
    /// Internal demand index → client id, for schedule reporting.
    names: BTreeMap<u32, u64>,
    requests: u64,
    draining: bool,
}

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn ok_response(op: &str, mut rest: Vec<(&str, Value)>) -> Value {
    let mut pairs = vec![
        ("ok", Value::Bool(true)),
        ("op", Value::Str(op.to_string())),
    ];
    pairs.append(&mut rest);
    obj(pairs)
}

fn err_response(op: &str, error: impl Into<String>) -> Value {
    obj(vec![
        ("ok", Value::Bool(false)),
        ("op", Value::Str(op.to_string())),
        ("error", Value::Str(error.into())),
    ])
}

fn num(n: impl Into<f64>) -> Value {
    Value::Num(n.into())
}

impl Server {
    /// Builds a server over a bootstrap problem (possibly demand-free).
    ///
    /// # Errors
    ///
    /// Whatever [`DeltaEngine::new`] raises, in its check order:
    /// [`DeltaEngineError::Framework`] for an `ε` outside `(0, 1)`; then
    /// [`DeltaEngineError::NonUnitHeight`] if the bootstrap problem holds
    /// a non-unit-height demand and the config fixes no `hmin` floor, or
    /// [`DeltaEngineError::HeightBelowFloor`] for a bootstrap demand
    /// under the floor; then [`DeltaEngineError::Framework`] for an
    /// `hmin` outside `(0, 1]`. The `Framework` errors are the ones
    /// [`treenet_core::solve`] returns for the same config.
    pub fn new(problem: Problem, config: &SolverConfig) -> Result<Server, DeltaEngineError> {
        let seeded: Vec<DemandId> = problem.demands().collect();
        let engine = DeltaEngine::new(problem, config)?;
        let mut ids = BTreeMap::new();
        let mut names = BTreeMap::new();
        for a in seeded {
            ids.insert(u64::from(a.0), a);
            names.insert(a.0, u64::from(a.0));
        }
        Ok(Server {
            engine,
            ids,
            names,
            requests: 0,
            draining: false,
        })
    }

    /// The wrapped engine (read-only; the bench reads its stats).
    pub fn engine(&self) -> &DeltaEngine {
        &self.engine
    }

    /// Whether a `drain` request has been answered; the serve loop stops
    /// reading once this turns true.
    pub fn is_draining(&self) -> bool {
        self.draining
    }

    /// Handles one line of the wire protocol. Never panics: every failure
    /// is an in-band `{"ok":false,…}` response.
    pub fn handle_line(&mut self, line: &str) -> String {
        let response = match Request::parse(line) {
            Ok(request) => self.apply(&request),
            Err(message) => err_response("?", message),
        };
        serde_json::to_string(&response).expect("responses serialize")
    }

    /// Handles one parsed request (what [`Server::handle_line`] dispatches
    /// to; the bench calls it directly to keep JSON parsing out of the
    /// latency path).
    pub fn apply(&mut self, request: &Request) -> Value {
        self.requests += 1;
        let op = request.op();
        match request {
            Request::Submit {
                id,
                shape,
                profit,
                height,
                networks,
            } => self.submit(*id, *shape, *profit, *height, networks.as_deref()),
            Request::Withdraw { id } => self.withdraw(*id),
            Request::Resolve => self.resolve(op),
            Request::Query => self.query(),
            Request::Check => self.check(),
            Request::Snapshot => self.snapshot(),
            Request::Stats => self.stats(),
            Request::Drain => {
                let response = self.resolve(op);
                self.draining = true;
                response
            }
        }
    }

    fn submit(
        &mut self,
        id: u64,
        shape: Shape,
        profit: f64,
        height: Option<f64>,
        networks: Option<&[u32]>,
    ) -> Value {
        if self.ids.contains_key(&id) {
            return err_response("submit", format!("demand id {id} already admitted"));
        }
        let mut demand = match shape {
            Shape::Pair { u, v } => Demand::pair(VertexId(u), VertexId(v), profit),
            Shape::Window {
                release,
                deadline,
                processing,
            } => Demand::window(release, deadline, processing, profit),
        };
        if let Some(h) = height {
            demand = demand.with_height(h);
        }
        let access: Vec<NetworkId> = match networks {
            Some(nets) => nets.iter().map(|&t| NetworkId(t)).collect(),
            None => self.engine.problem().networks().collect(),
        };
        match self.engine.apply(ProblemDelta::Arrival { demand, access }) {
            Ok(effect) => {
                self.ids.insert(id, effect.demand);
                self.names.insert(effect.demand.0, id);
                ok_response(
                    "submit",
                    vec![
                        ("id", num(id as f64)),
                        ("instances", num(effect.new_instances.len() as f64)),
                    ],
                )
            }
            Err(e) => err_response("submit", e.to_string()),
        }
    }

    fn withdraw(&mut self, id: u64) -> Value {
        let Some(&internal) = self.ids.get(&id) else {
            return err_response("withdraw", format!("demand id {id} was never admitted"));
        };
        match self
            .engine
            .apply(ProblemDelta::Departure { demand: internal })
        {
            Ok(_) => ok_response("withdraw", vec![("id", num(id as f64))]),
            Err(e) => err_response("withdraw", e.to_string()),
        }
    }

    fn resolve(&mut self, op: &str) -> Value {
        match self.engine.resolve() {
            Ok(out) => ok_response(
                op,
                vec![
                    ("lambda", num(out.lambda)),
                    ("selected", num(out.selected as f64)),
                    ("components_resolved", num(out.components_resolved as f64)),
                    ("instances_resolved", num(out.instances_resolved as f64)),
                    ("live_instances", num(out.live_instances as f64)),
                ],
            ),
            Err(e) => err_response(op, e.to_string()),
        }
    }

    fn query(&mut self) -> Value {
        if let Err(e) = self.engine.resolve() {
            return err_response("query", e.to_string());
        }
        let solution = self.engine.solution();
        let schedule: Vec<Value> = solution
            .selected()
            .iter()
            .map(|&d| {
                let inst = self.engine.problem().instance(d);
                let client = self.names.get(&inst.demand.0).copied().unwrap_or(u64::MAX);
                obj(vec![
                    ("id", num(client as f64)),
                    ("network", num(f64::from(inst.network.0))),
                    ("instance", num(f64::from(d.0))),
                ])
            })
            .collect();
        ok_response(
            "query",
            vec![
                ("lambda", num(self.engine.lambda())),
                (
                    "live_demands",
                    num(self.engine.problem().live_demand_count() as f64),
                ),
                ("schedule", Value::Array(schedule)),
            ],
        )
    }

    fn check(&mut self) -> Value {
        if let Err(e) = self.engine.resolve() {
            return err_response("check", e.to_string());
        }
        let reference = match self.engine.reference_solve() {
            Ok(solve) => solve,
            Err(e) => return err_response("check", e.to_string()),
        };
        let identical = self.engine.lambda().to_bits() == reference.lambda.to_bits()
            && self.engine.solution().selected() == reference.solution.selected();
        ok_response(
            "check",
            vec![
                ("identical", Value::Bool(identical)),
                ("lambda", num(self.engine.lambda())),
                (
                    "live_instances",
                    num(self.engine.problem().live_instance_count() as f64),
                ),
                ("components", num(self.engine.component_count() as f64)),
            ],
        )
    }

    fn snapshot(&mut self) -> Value {
        let problem = self.engine.problem();
        let demands: Vec<Value> = self
            .names
            .iter()
            .map(|(&internal, &client)| {
                let a = DemandId(internal);
                obj(vec![
                    ("id", num(client as f64)),
                    ("live", Value::Bool(!problem.is_departed(a))),
                    ("profit", num(problem.demand(a).profit)),
                    ("instances", num(problem.instances_of(a).len() as f64)),
                ])
            })
            .collect();
        ok_response(
            "snapshot",
            vec![
                ("networks", num(problem.network_count() as f64)),
                ("vertices", num(problem.vertex_count() as f64)),
                ("live_demands", num(problem.live_demand_count() as f64)),
                ("demands", Value::Array(demands)),
            ],
        )
    }

    fn stats(&mut self) -> Value {
        let stats = self.engine.stats();
        ok_response(
            "stats",
            vec![
                ("requests", num(self.requests as f64)),
                ("deltas_applied", num(stats.deltas_applied as f64)),
                ("resolves", num(stats.resolves as f64)),
                ("components_resolved", num(stats.components_resolved as f64)),
                ("instances_resolved", num(stats.instances_resolved as f64)),
                ("components", num(self.engine.component_count() as f64)),
                (
                    "live_demands",
                    num(self.engine.problem().live_demand_count() as f64),
                ),
                (
                    "live_instances",
                    num(self.engine.problem().live_instance_count() as f64),
                ),
            ],
        )
    }

    /// Serves the blocking line protocol until EOF or a `drain` request.
    ///
    /// # Errors
    ///
    /// Propagates transport I/O failures (never protocol-level ones).
    pub fn run<R: BufRead, W: Write>(&mut self, reader: R, mut writer: W) -> std::io::Result<()> {
        // A drain ends one connection, not the server: re-arm on entry.
        self.draining = false;
        for line in reader.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let response = self.handle_line(&line);
            writeln!(writer, "{response}")?;
            writer.flush()?;
            if self.draining {
                break;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treenet_graph::Tree;
    use treenet_model::ProblemBuilder;

    fn server() -> Server {
        let mut b = ProblemBuilder::new();
        b.add_network(Tree::line(10)).unwrap();
        b.add_network(Tree::line(10)).unwrap();
        Server::new(b.build().unwrap(), &SolverConfig::default()).unwrap()
    }

    fn field_f64(response: &str, key: &str) -> f64 {
        let value: Value = serde_json::from_str(response).unwrap();
        match value.field(key) {
            Ok(Value::Num(n)) => *n,
            other => panic!("field {key} of {response}: {other:?}"),
        }
    }

    #[test]
    fn submit_resolve_withdraw_lifecycle() {
        let mut s = server();
        let r = s.handle_line(r#"{"op":"submit","id":5,"u":0,"v":4,"profit":2.0}"#);
        assert!(r.contains(r#""ok":true"#), "{r}");
        // Default access = both networks, so two instances materialize.
        assert_eq!(field_f64(&r, "instances"), 2.0);
        let r = s.handle_line(r#"{"op":"resolve"}"#);
        assert_eq!(field_f64(&r, "live_instances"), 2.0);
        assert_eq!(field_f64(&r, "selected"), 1.0);
        let r = s.handle_line(r#"{"op":"withdraw","id":5}"#);
        assert!(r.contains(r#""ok":true"#), "{r}");
        let r = s.handle_line(r#"{"op":"resolve"}"#);
        assert_eq!(field_f64(&r, "selected"), 0.0);
    }

    #[test]
    fn admission_errors_are_in_band() {
        let mut s = server();
        // Withdraw before admit.
        let r = s.handle_line(r#"{"op":"withdraw","id":1}"#);
        assert!(r.contains("never admitted"), "{r}");
        // Duplicate id.
        s.handle_line(r#"{"op":"submit","id":1,"u":0,"v":2,"profit":1.0}"#);
        let r = s.handle_line(r#"{"op":"submit","id":1,"u":3,"v":5,"profit":1.0}"#);
        assert!(r.contains("already admitted"), "{r}");
        // Double withdraw.
        s.handle_line(r#"{"op":"withdraw","id":1}"#);
        let r = s.handle_line(r#"{"op":"withdraw","id":1}"#);
        assert!(r.contains("already departed"), "{r}");
        // Model rejections pass through: unknown network.
        let r = s.handle_line(r#"{"op":"submit","id":2,"u":0,"v":2,"profit":1.0,"networks":[9]}"#);
        assert!(r.contains(r#""ok":false"#), "{r}");
        // A non-unit height on a unit-mode server is rejected in-band.
        let r = s.handle_line(r#"{"op":"submit","id":3,"u":0,"v":2,"profit":1.0,"height":0.5}"#);
        assert!(r.contains("hmin"), "{r}");
        // Malformed JSON keeps the connection usable.
        let r = s.handle_line("garbage");
        assert!(r.contains("bad JSON"), "{r}");
        let r = s.handle_line(r#"{"op":"stats"}"#);
        assert!(r.contains(r#""ok":true"#), "{r}");
    }

    #[test]
    fn check_reports_bitwise_identity() {
        let mut s = server();
        for (id, (u, v)) in [(1, (0, 3)), (2, (2, 6)), (3, (5, 9))] {
            let line = format!(r#"{{"op":"submit","id":{id},"u":{u},"v":{v},"profit":2.0}}"#);
            assert!(s.handle_line(&line).contains(r#""ok":true"#));
        }
        s.handle_line(r#"{"op":"withdraw","id":2}"#);
        let r = s.handle_line(r#"{"op":"check"}"#);
        assert!(r.contains(r#""identical":true"#), "{r}");
    }

    #[test]
    fn capacitated_server_accepts_heights_and_stays_identical() {
        let mut b = ProblemBuilder::new();
        b.add_network(Tree::line(10)).unwrap();
        b.add_network(Tree::line(10)).unwrap();
        let config = SolverConfig::default().with_hmin(0.25);
        let mut s = Server::new(b.build().unwrap(), &config).unwrap();
        // Mixed narrow and wide submits, windows included.
        for line in [
            r#"{"op":"submit","id":1,"u":0,"v":4,"profit":2.0,"height":0.3}"#,
            r#"{"op":"submit","id":2,"u":2,"v":7,"profit":3.0}"#,
            r#"{"op":"submit","id":3,"release":0,"deadline":8,"processing":3,"profit":1.5,"height":0.5,"networks":[1]}"#,
        ] {
            let r = s.handle_line(line);
            assert!(r.contains(r#""ok":true"#), "{r}");
        }
        // A height below the floor is rejected in-band.
        let r = s.handle_line(r#"{"op":"submit","id":4,"u":1,"v":3,"profit":1.0,"height":0.1}"#);
        assert!(r.contains("hmin"), "{r}");
        s.handle_line(r#"{"op":"withdraw","id":2}"#);
        let r = s.handle_line(r#"{"op":"check"}"#);
        assert!(r.contains(r#""identical":true"#), "{r}");
    }

    #[test]
    fn bad_epsilon_is_refused_at_construction() {
        let build = || {
            let mut b = ProblemBuilder::new();
            b.add_network(Tree::line(10)).unwrap();
            b.add_demand(Demand::pair(VertexId(0), VertexId(4), 1.0), &[NetworkId(0)])
                .unwrap();
            b.build().unwrap()
        };
        let config = SolverConfig::default().with_epsilon(2.0);
        let Err(err) = Server::new(build(), &config) else {
            panic!("a server with epsilon = 2 started");
        };
        let choice = treenet_core::auto_choice(&build());
        let solve_err = treenet_core::solve(&build(), choice, &config).unwrap_err();
        assert_eq!(err.to_string(), solve_err.to_string());
    }

    #[test]
    fn query_names_client_ids_in_the_schedule() {
        let mut s = server();
        s.handle_line(r#"{"op":"submit","id":41,"u":0,"v":3,"profit":2.0,"networks":[0]}"#);
        s.handle_line(r#"{"op":"submit","id":42,"u":5,"v":9,"profit":1.0,"networks":[1]}"#);
        let r = s.handle_line(r#"{"op":"query"}"#);
        let value: Value = serde_json::from_str(&r).unwrap();
        let Value::Array(schedule) = &value["schedule"] else {
            panic!("no schedule in {r}");
        };
        let mut ids: Vec<f64> = schedule
            .iter()
            .map(|entry| match &entry["id"] {
                Value::Num(n) => *n,
                other => panic!("bad id {other:?}"),
            })
            .collect();
        ids.sort_by(f64::total_cmp);
        assert_eq!(ids, vec![41.0, 42.0], "{r}");
    }

    #[test]
    fn run_loop_stops_on_drain() {
        let mut s = server();
        let input = concat!(
            r#"{"op":"submit","id":1,"u":0,"v":4,"profit":2.0}"#,
            "\n",
            "\n", // blank lines are skipped
            r#"{"op":"drain"}"#,
            "\n",
            r#"{"op":"stats"}"#,
            "\n", // never reached
        );
        let mut out = Vec::new();
        s.run(input.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert!(lines[1].contains(r#""op":"drain""#), "{text}");
        assert!(s.is_draining());
    }

    #[test]
    fn bootstrap_demands_are_addressable_by_index() {
        let mut b = ProblemBuilder::new();
        let t = b.add_network(Tree::line(6)).unwrap();
        b.add_demand(Demand::pair(VertexId(0), VertexId(3), 1.5), &[t])
            .unwrap();
        let mut s = Server::new(b.build().unwrap(), &SolverConfig::default()).unwrap();
        let r = s.handle_line(r#"{"op":"withdraw","id":0}"#);
        assert!(r.contains(r#""ok":true"#), "{r}");
        let r = s.handle_line(r#"{"op":"check"}"#);
        assert!(r.contains(r#""identical":true"#), "{r}");
    }

    #[test]
    fn snapshot_tracks_live_flags() {
        let mut s = server();
        s.handle_line(r#"{"op":"submit","id":7,"u":0,"v":2,"profit":1.0}"#);
        s.handle_line(r#"{"op":"submit","id":8,"u":4,"v":6,"profit":1.0}"#);
        s.handle_line(r#"{"op":"withdraw","id":7}"#);
        let r = s.handle_line(r#"{"op":"snapshot"}"#);
        assert!(r.contains(r#""live":false"#), "{r}");
        assert!(r.contains(r#""live":true"#), "{r}");
        assert_eq!(field_f64(&r, "live_demands"), 1.0);
    }
}
