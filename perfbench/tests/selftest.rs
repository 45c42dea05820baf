//! Self-tests of the benchmark: span arithmetic, bit-identity of the
//! traced replay, and agreement of the printed metrics with
//! `BENCHMARK.json`.

use perfbench::procfs::{parse_stat, ProcStat};
use perfbench::report::Report;
use perfbench::trace::{self, Span, Trace};
use perfbench::workloads::dist_lossy::DistLossy;
use perfbench::workloads::serve_churn::ServeChurn;
use perfbench::workloads::solve_flat::SolveFlat;
use perfbench::workloads::{closed_loop, run_workload, RunConfig, Workload, END_TO_END, PER_LAYER};
use serde_json::Value;

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        op: Some(0),
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let spans = vec![
        span("op", 0, 100, None),
        span("a", 10, 30, Some(0)),
        span("b", 20, 50, Some(0)), // overlaps `a`: covered once
        span("c", 60, 70, Some(0)),
        span("a.inner", 15, 25, Some(1)),
        span("late", 95, 120, Some(0)), // spills past its parent: clipped
    ];
    let self_ns = trace::self_times_ns(&spans);
    assert_eq!(self_ns, vec![100 - 40 - 10 - 5, 10, 30, 10, 10, 25]);
    assert_eq!(trace::self_samples(&spans, &self_ns, "a"), vec![10.0]);
}

#[test]
fn recorder_nests_spans_and_keeps_probes_outside_ops() {
    let mut t = Trace::new(true);
    let setup = t.enter(trace::SETUP);
    t.time("model.build", || ());
    t.time("model.build", || ());
    t.exit(setup);
    let op = t.enter_op(7);
    t.time("layer", || ());
    t.exit(op);
    t.probe("twin", 7, || ());
    t.count("things", Some(7), 3.0);

    let spans = t.spans();
    assert_eq!(spans.len(), 6);
    assert_eq!((spans[1].parent, spans[2].parent), (Some(0), Some(0)));
    assert_eq!((spans[4].parent, spans[4].op), (Some(3), Some(7)));
    assert_eq!(
        (spans[5].name, spans[5].parent, spans[5].op),
        ("twin", None, Some(7))
    );
    assert_eq!(trace::count_samples(t.counts(), "things"), vec![3.0]);
    let self_ns = trace::self_times_ns(spans);
    let builds = trace::per_setup_ns(spans, &self_ns, "model.build");
    assert_eq!(builds, vec![(self_ns[1] + self_ns[2]) as f64]);

    let mut off = Trace::new(false);
    let id = off.enter_op(1);
    off.time("layer", || ());
    off.exit(id);
    assert!(off.spans().is_empty());
}

#[test]
fn closed_loop_keeps_the_best_latency_per_key_and_counts_failures() {
    // Key 0 already has a best of 0 ms, which no op can beat; ops 1 and 2
    // share key 1, which has none yet.
    let mut best_ms = [0.0, f64::INFINITY, 5e3];
    let failed = closed_loop(&[0, 1, 1, 2], &mut best_ms, |i| i, |i| i != 1);
    assert_eq!(failed, 1);
    assert_eq!(best_ms[0], 0.0);
    assert!(best_ms[1].is_finite() && best_ms[1] >= 0.0);
    assert!(best_ms[2] < 5e3, "a fast op lowers a slow best");
}

#[test]
fn proc_stat_fields_are_counted_after_the_command_name() {
    // The command name may hold spaces and parentheses; from field 4 on,
    // each field here holds its own number.
    let line = "4242 (perf (bench) x) R 4 5 6 7 8 9 10 11 12 13 14 15 16 17";
    let stat = parse_stat(line).expect("well-formed line");
    assert_eq!((stat.minflt, stat.utime, stat.stime), (10, 14, 15));
    assert!(parse_stat("4242 (truncated) R 1 2").is_none());
    let live = ProcStat::read();
    assert!(live.since(live).sys_share() == 0.0);
}

fn small_serve() -> ServeChurn {
    ServeChurn {
        n: 16,
        demands: 300,
        pods: 10,
        ops_per_second: 40,
        passes: 2,
    }
}

fn small_solve() -> SolveFlat {
    SolveFlat {
        // Large enough that a wrong stage factor changes some schedule.
        n: 48,
        demands: 240,
        pool: 2,
        ops_per_second: 6,
        passes: 2,
    }
}

fn small_dist() -> DistLossy {
    DistLossy {
        slots: 16,
        demands: 8,
        ops_per_second: 8,
        passes: 2,
    }
}

fn config(traced: bool) -> RunConfig {
    RunConfig {
        seed: 5,
        seconds: 1,
        traced,
        trace_path: None,
    }
}

fn assert_clean(name: &str, report: &Report) {
    assert!(report.correct, "{name}: {:?}", report.errors);
    assert!(report.errors.is_empty(), "{name}: {:?}", report.errors);
    assert_eq!(report.failed, 0, "{name}");
    assert!(report.attempted > 0, "{name}");
}

#[test]
fn every_pass_runs_every_op() {
    // seconds × ops_per_second = 40 ops, split over 2 passes.
    let serve = small_serve();
    let report = run_workload(&serve, &config(false));
    assert_clean("serve-churn", &report);
    assert_eq!(report.attempted, 40);
    assert_eq!(serve.passes(), 2);
}

fn value(report: &Report, name: &str) -> f64 {
    report
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} not printed"))
        .value
}

#[test]
fn traced_solve_flat_split_reproduces_solve_auto() {
    // The traced replay compares every op's schedule and λ bits with the
    // untraced run and reports any divergence as an error.
    let report = run_workload(&small_solve(), &config(true));
    assert_clean("solve-flat", &report);
    assert!(value(&report, "framework.raises") > 0.0);
    assert!(value(&report, "framework.wide_ms") > 0.0);
}

#[test]
fn dist_lossy_twins_reproduce_the_lossy_run() {
    // Both twins (lossless and logical) must match every lossy op's
    // schedule and λ bits, and the replay must match the untraced run.
    let report = run_workload(&small_dist(), &config(true));
    assert_clean("dist-lossy", &report);
    assert!(value(&report, "netsim.retransmits") > 0.0);
    assert!(value(&report, "dist.lossless_ms") > 0.0);
}

#[test]
fn traced_serve_replay_reproduces_every_response() {
    let report = run_workload(&small_serve(), &config(true));
    assert_clean("serve-churn", &report);
    assert!(value(&report, "delta.resolve_us") > 0.0);
    assert!(value(&report, "serve.query_serialize_ms") > 0.0);
}

fn listed(json: &Value, key: &str) -> Vec<(String, String)> {
    let Value::Array(items) = &json[key] else {
        panic!("BENCHMARK.json has no {key} list");
    };
    items
        .iter()
        .map(|m| match (&m["name"], &m["unit"]) {
            (Value::Str(name), Value::Str(unit)) => (name.clone(), unit.clone()),
            other => panic!("malformed {key} entry {other:?}"),
        })
        .collect()
}

fn names(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn printed_metrics_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let json: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    assert_eq!(names(END_TO_END), listed(&json, "end_to_end"));
    assert_eq!(names(PER_LAYER), listed(&json, "per_layer"));
    let Value::Array(workloads) = &json["workloads"] else {
        panic!("BENCHMARK.json has no workloads");
    };
    let listed_workloads: Vec<&Value> = workloads.iter().map(|w| &w["name"]).collect();
    let expected: Vec<Value> = perfbench::workloads::NAMES
        .iter()
        .map(|n| Value::Str(n.to_string()))
        .collect();
    assert_eq!(listed_workloads, expected.iter().collect::<Vec<_>>());

    for traced in [false, true] {
        let want = names(if traced { PER_LAYER } else { END_TO_END });
        let reports = [
            ("serve-churn", run_workload(&small_serve(), &config(traced))),
            ("solve-flat", run_workload(&small_solve(), &config(traced))),
            ("dist-lossy", run_workload(&small_dist(), &config(traced))),
        ];
        for (name, report) in reports {
            assert_clean(name, &report);
            let got: Vec<(String, String)> = report
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(got, want, "{name} traced={traced}");
            // The result line carries exactly these metrics, by name.
            let line: Value =
                serde_json::from_str(&report.json_line()).expect("result line parses");
            let Value::Object(fields) = &line else {
                panic!("result line is not an object");
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let Value::Object(metrics) = &line["metrics"] else {
                panic!("no metrics object");
            };
            let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let expected: Vec<&str> = want.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(printed, expected, "{name} traced={traced}");
        }
    }
}

#[test]
fn trace_file_holds_one_json_object_per_line() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("selftest-trace.jsonl");
    let config = RunConfig {
        trace_path: Some(path.clone()),
        ..config(true)
    };
    let report = run_workload(&small_dist(), &config);
    assert_clean("dist-lossy", &report);
    let text = std::fs::read_to_string(&path).expect("trace file written");
    let mut spans = 0;
    for line in text.lines() {
        let v: Value = serde_json::from_str(line).expect("every line parses");
        if matches!(v["span"], Value::Str(_)) {
            spans += 1;
        }
    }
    assert!(
        spans > report.attempted as usize,
        "an op span per op, plus probes"
    );
}
