//! The workloads and the run protocol they share.

pub mod dist_lossy;
pub mod serve_churn;
pub mod solve_flat;

use std::path::PathBuf;
use std::time::Instant;

use serde_json::Value;

use crate::procfs::{peak_rss_mb, ProcStat};
use crate::report::{median, metric, percentile, ratio, Metric, Report};
use crate::trace::{self, Trace};

/// Every end-to-end metric, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("profit", "profit"),
    ("ok_rate", "share"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric, printed by every traced run. A layer that a
/// workload bypasses reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("model.build_s", "s"),
    ("proc.minflt_per_op", "count"),
    ("proc.sys_share", "share"),
    ("trace.overhead_share", "share"),
    // serve-churn
    ("delta.new_s", "s"),
    ("delta.bootstrap_s", "s"),
    ("serve.parse_us", "us"),
    ("serve.serialize_us", "us"),
    ("serve.query_serialize_ms", "ms"),
    ("delta.apply_us", "us"),
    ("delta.resolve_us", "us"),
    ("delta.resolve_p90_us", "us"),
    ("delta.assemble_us", "us"),
    ("delta.solve_us", "us"),
    ("delta.query_apply_ms", "ms"),
    ("delta.instances_per_write", "count"),
    ("delta.instances_per_write_p90", "count"),
    ("delta.resolved_share", "share"),
    ("model.slots", "count"),
    ("model.departed_share", "share"),
    // solve-flat
    ("decomp.layering_ms", "ms"),
    ("framework.wide_ms", "ms"),
    ("framework.narrow_ms", "ms"),
    ("framework.steps", "count"),
    ("framework.mis_rounds", "count"),
    ("framework.raises", "count"),
    ("framework.kept_per_raise", "share"),
    ("core.combine_us", "us"),
    // dist-lossy
    ("dist.rounds_per_op", "rounds"),
    ("netsim.wire_messages_per_op", "messages"),
    ("netsim.arq_ms", "ms"),
    ("netsim.retransmits", "count"),
    ("netsim.acks", "count"),
    ("netsim.dup_suppressed", "count"),
    ("netsim.retransmit_rounds", "rounds"),
    ("netsim.useful_share", "share"),
    ("dist.lossless_ms", "ms"),
    ("netsim.us_per_round", "us"),
    ("netsim.messages.descriptor", "messages"),
    ("netsim.messages.wide", "messages"),
    ("netsim.messages.narrow", "messages"),
    ("netsim.messages.echo", "messages"),
    ("netsim.messages.combine", "messages"),
    ("netsim.messages.bfs", "messages"),
    ("dist.control_stalls", "rounds"),
    ("dist.sweeps", "count"),
    ("core.logical_ms", "ms"),
];

/// The workloads, by name.
pub const NAMES: &[&str] = &["serve-churn", "solve-flat", "dist-lossy"];

/// Runs ops `0..keys.len()` back to back: op `i` starts when op `i - 1`
/// has returned. Only `op` is inside an op's latency, which lowers
/// `best_ms[keys[i]]` when it beats it; `consume` books the result (and
/// says whether it succeeded) between ops. Returns the number of ops that
/// failed.
pub fn closed_loop<T>(
    keys: &[usize],
    best_ms: &mut [f64],
    mut op: impl FnMut(usize) -> T,
    mut consume: impl FnMut(T) -> bool,
) -> u64 {
    let mut failed = 0;
    for (i, &key) in keys.iter().enumerate() {
        let t0 = Instant::now();
        let out = std::hint::black_box(op(i));
        best_ms[key] = best_ms[key].min(t0.elapsed().as_secs_f64() * 1e3);
        if !consume(out) {
            failed += 1;
        }
    }
    failed
}

/// What the output checks found.
#[derive(Clone, Debug, Default)]
pub struct Checked {
    /// Exact profit (final schedule, or summed over ops).
    pub profit: f64,
    /// Failed checks, one line each.
    pub errors: Vec<String>,
}

/// One workload: seeded inputs, set-up, one op at a time untraced or
/// traced, output checks and per-layer summaries.
pub trait Workload {
    /// Generated inputs: every problem as a `ProblemSpec`, every request
    /// rendered, before any clock starts.
    type Inputs;
    /// The program state a set-up hands to a pass.
    type State;
    /// What one op yields.
    type Out;
    /// Everything a timed phase outputs, compared bit for bit between the
    /// untraced and the traced replay.
    type Outputs: PartialEq + Default;

    /// Passes of the timed phase over the same ops, each from a fresh
    /// set-up; `setup_s` is the median of their set-ups.
    fn passes(&self) -> usize;
    /// Whether an op changes the state, so that the untraced replica of
    /// the traced replay needs a state of its own.
    fn ops_mutate_state(&self) -> bool {
        true
    }
    /// Seeded inputs for a run of about `seconds` seconds.
    fn generate(&self, seed: u64, seconds: u64) -> Self::Inputs;
    /// Ops in one pass.
    fn ops(&self, inputs: &Self::Inputs) -> usize;
    /// The work op `i` does, as a key from 0 up: ops with one key do
    /// identical work, so their latencies sample one cost.
    fn key(&self, _inputs: &Self::Inputs, i: usize) -> usize {
        i
    }
    /// Program work before the first op (timed as `setup_s`).
    fn setup(&self, inputs: &Self::Inputs, trace: &mut Trace) -> Self::State;
    /// Op `i`, untraced: only the user-facing entry point.
    fn op(&self, state: &mut Self::State, inputs: &Self::Inputs, i: usize) -> Self::Out;
    /// Op `i`, traced: an `op` span over spans around the public functions
    /// beneath the entry point, then probes and counts outside it.
    /// Returns the op's result and any disagreement of a probe with it.
    fn op_traced(
        &self,
        state: &mut Self::State,
        inputs: &Self::Inputs,
        i: usize,
        trace: &mut Trace,
    ) -> (Self::Out, Vec<String>);
    /// Books an op's result; says whether the op succeeded.
    fn book(&self, outputs: &mut Self::Outputs, out: Self::Out) -> bool;
    /// Output checks, after the clock stops.
    fn check(
        &self,
        state: &mut Self::State,
        inputs: &Self::Inputs,
        outputs: &Self::Outputs,
    ) -> Checked;
    /// Workload-specific per-layer metrics from the traced replay.
    fn layers(&self, trace: &Trace, self_ns: &[u64], state: &Self::State) -> Vec<Metric>;
}

/// How to run one workload.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Input seed.
    pub seed: u64,
    /// Target length of the timed phase.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub traced: bool,
    /// Where a traced run writes its spans and counts.
    pub trace_path: Option<PathBuf>,
}

/// One set-up wrapped in a `setup` span; returns the state and the
/// set-up's wall time in s.
fn set_up<W: Workload>(w: &W, inputs: &W::Inputs, trace: &mut Trace) -> (W::State, f64) {
    let id = trace.enter(trace::SETUP);
    let t0 = Instant::now();
    let state = w.setup(inputs, trace);
    let seconds = t0.elapsed().as_secs_f64();
    trace.exit(id);
    (state, seconds)
}

/// What the untraced timed phase measured.
struct Timed<S, O> {
    /// Wall time of each pass's set-up, in s.
    setup_s: Vec<f64>,
    /// Per op, the lowest latency of its work over the passes, in ms.
    best_ms: Vec<f64>,
    /// Ops refused or failed, over all passes.
    failed: u64,
    /// Process counters summed over the passes' op loops.
    proc: ProcStat,
    /// The first pass's outputs; every later pass must repeat them.
    outputs: O,
    /// The last pass's final state.
    state: S,
    /// Passes whose outputs differ from the first pass's.
    diverged: Vec<usize>,
}

/// The untraced timed phase: the same ops, pass after pass, each pass
/// from a fresh set-up. The program is deterministic and every pass does
/// the same work, so the best latency of an op's work, over every pass
/// and every op with its key, is its cost at the host's full speed
/// whenever one of those ops met that speed: the host slows down by up to
/// 1.6× in episodes of seconds to minutes, and an episode shorter than the
/// run misses some pass of every op.
fn timed_passes<W: Workload>(
    w: &W,
    inputs: &W::Inputs,
    trace: &mut Trace,
) -> Timed<W::State, W::Outputs> {
    let passes = w.passes().max(1);
    let keys: Vec<usize> = (0..w.ops(inputs)).map(|i| w.key(inputs, i)).collect();
    let mut best_by_key = vec![f64::INFINITY; keys.iter().max().map_or(0, |k| k + 1)];
    let mut setup_s = Vec::with_capacity(passes);
    let (mut failed, mut proc) = (0, ProcStat::default());
    let mut state = None;
    let mut first: Option<W::Outputs> = None;
    let mut diverged = Vec::new();
    for pass in 0..passes {
        // Only one state is alive at a time.
        drop(state.take());
        let (mut s, seconds) = set_up(w, inputs, trace);
        setup_s.push(seconds);
        let mut outputs = W::Outputs::default();
        let before = ProcStat::read();
        failed += closed_loop(
            &keys,
            &mut best_by_key,
            |i| w.op(&mut s, inputs, i),
            |out| w.book(&mut outputs, out),
        );
        proc = proc.plus(ProcStat::read().since(before));
        match &first {
            None => first = Some(outputs),
            Some(expected) if *expected != outputs => diverged.push(pass),
            Some(_) => {}
        }
        state = Some(s);
    }
    Timed {
        setup_s,
        best_ms: keys.iter().map(|&k| best_by_key[k]).collect(),
        failed,
        proc,
        outputs: first.expect("at least one pass ran"),
        state: state.expect("at least one pass ran"),
        diverged,
    }
}

/// What the traced replay produced.
struct Replay<O> {
    traced: O,
    replica: O,
    replica_s: f64,
    errors: Vec<String>,
}

/// The traced replay of one pass. Each traced op runs next to the same op
/// run untraced on a replica state, so both see the same host speed and
/// their time ratio is the tracing overhead. Which of the two goes first
/// alternates, since the second finds the first one's data in cache.
/// Returns the traced side's final state.
fn replay<W: Workload>(
    w: &W,
    inputs: &W::Inputs,
    trace: &mut Trace,
) -> (Replay<W::Outputs>, W::State) {
    let (mut state, _) = set_up(w, inputs, trace);
    // Where ops leave the state alone, both sides share it: a second
    // copy would sit elsewhere in the heap and run at its own speed.
    let mut own_replica = w.ops_mutate_state().then(|| set_up(w, inputs, trace).0);
    let mut out = Replay {
        traced: W::Outputs::default(),
        replica: W::Outputs::default(),
        replica_s: 0.0,
        errors: Vec::new(),
    };
    for i in 0..w.ops(inputs) {
        for traced in [i % 2 == 1, i % 2 == 0] {
            if traced {
                let (result, mut errors) = w.op_traced(&mut state, inputs, i, trace);
                w.book(&mut out.traced, result);
                out.errors.append(&mut errors);
            } else {
                let t0 = Instant::now();
                let replica = own_replica.as_mut().unwrap_or(&mut state);
                let result = std::hint::black_box(w.op(replica, inputs, i));
                out.replica_s += t0.elapsed().as_secs_f64();
                w.book(&mut out.replica, result);
            }
        }
    }
    (out, state)
}

/// Runs one workload under `config` and reports what it measured: the
/// end-to-end metrics of an untraced run, or the per-layer metrics of a
/// traced one. Both first run the timed phase untraced and check it.
pub fn run_workload<W: Workload>(w: &W, config: &RunConfig) -> Report {
    let inputs = w.generate(config.seed, config.seconds);
    let mut trace = Trace::new(config.traced);
    let Timed {
        setup_s,
        best_ms,
        failed,
        proc,
        outputs,
        mut state,
        diverged,
    } = timed_passes(w, &inputs, &mut trace);
    let peak_rss = peak_rss_mb();
    let checked = w.check(&mut state, &inputs, &outputs);

    let attempted = (best_ms.len() * setup_s.len()) as u64;
    let mut report = Report {
        correct: true,
        attempted,
        failed,
        metrics: Vec::new(),
        errors: checked.errors,
    };
    report.errors.extend(
        diverged
            .iter()
            .map(|pass| format!("pass {pass} diverged from the first pass's outputs")),
    );
    if config.traced {
        drop(state);
        let (replay, state) = replay(w, &inputs, &mut trace);
        report.errors.extend(replay.errors);
        if replay.traced != outputs || replay.replica != outputs {
            let diverged = "the traced replay diverged from the untraced outputs";
            report.errors.push(diverged.to_string());
        }
        let self_ns = trace::self_times_ns(trace.spans());
        let traced_s: f64 = trace
            .spans()
            .iter()
            .filter(|s| s.name == trace::OP)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .sum();
        let mut found = vec![
            per_setup_metric(&trace, &self_ns, "model.build", "model.build_s"),
            metric(
                "proc.minflt_per_op",
                ratio(proc.minflt as f64, attempted as f64),
                "count",
            ),
            metric("proc.sys_share", proc.sys_share(), "share"),
            metric(
                "trace.overhead_share",
                1.0 - ratio(replay.replica_s, traced_s),
                "share",
            ),
        ];
        found.extend(w.layers(&trace, &self_ns, &state));
        if let Some(extra) = found
            .iter()
            .find(|m| !PER_LAYER.iter().any(|&(n, _)| n == m.name))
        {
            report
                .errors
                .push(format!("unlisted per-layer metric {}", extra.name));
        }
        // Every listed metric, in order; a layer the workload bypasses
        // reads 0.
        report.metrics = PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let found = found.iter().find(|m| m.name == name);
                metric(name, found.map_or(0.0, |m| m.value), unit)
            })
            .collect();
        if let Some(path) = &config.trace_path {
            let header = vec![
                ("seed".to_string(), Value::Num(config.seed as f64)),
                ("seconds".to_string(), Value::Num(config.seconds as f64)),
            ];
            if let Err(e) = trace.write(path, header) {
                report
                    .errors
                    .push(format!("cannot write {}: {e}", path.display()));
            }
        }
    } else {
        report.metrics = vec![
            metric("setup_s", median(&setup_s), "s"),
            metric("latency_p50_ms", median(&best_ms), "ms"),
            metric("latency_p90_ms", percentile(&best_ms, 0.9), "ms"),
            metric(
                "ops_per_s",
                ratio(best_ms.len() as f64, best_ms.iter().sum::<f64>() * 1e-3),
                "1/s",
            ),
            metric("profit", checked.profit, "profit"),
            metric(
                "ok_rate",
                1.0 - ratio(failed as f64, attempted as f64),
                "share",
            ),
            metric("peak_rss_mb", peak_rss, "MB"),
        ];
    }
    for m in &report.metrics {
        if !m.value.is_finite() {
            report
                .errors
                .push(format!("metric {} is not finite", m.name));
        }
    }
    report.correct = report.errors.is_empty();
    report
}

/// Latency samples of the spans named `name`, scaled from ns by `scale`.
pub fn span_samples(trace: &Trace, self_ns: &[u64], name: &str, scale: f64) -> Vec<f64> {
    trace::self_samples(trace.spans(), self_ns, name)
        .into_iter()
        .map(|ns| ns * scale)
        .collect()
}

/// Metric `name`: the p50 self time of the spans named `span`, in `unit`
/// (`us`, `ms` or `s`).
pub fn span_p50(
    trace: &Trace,
    self_ns: &[u64],
    span: &str,
    name: &'static str,
    unit: &'static str,
) -> Metric {
    let scale = match unit {
        "us" => 1e-3,
        "ms" => 1e-6,
        "s" => 1e-9,
        other => panic!("{name}: no time unit `{other}`"),
    };
    metric(
        name,
        median(&span_samples(trace, self_ns, span, scale)),
        unit,
    )
}

/// Self time in ns of the spans named `name`, keyed by op id.
pub fn by_op(trace: &Trace, self_ns: &[u64], name: &str) -> std::collections::BTreeMap<u32, f64> {
    trace
        .spans()
        .iter()
        .zip(self_ns)
        .filter(|(s, _)| s.name == name)
        .filter_map(|(s, &ns)| s.op.map(|op| (op, ns as f64)))
        .collect()
}

/// `name` in s: the median over set-up repetitions of the summed self
/// time of the `span` spans in each.
pub fn per_setup_metric(trace: &Trace, self_ns: &[u64], span: &str, name: &'static str) -> Metric {
    let per_rep = trace::per_setup_ns(trace.spans(), self_ns, span);
    metric(name, median(&per_rep) * 1e-9, "s")
}

/// Ops in one pass of a run of `seconds` at `ops_per_second` over all
/// `passes` (at least one).
pub fn ops_per_pass(seconds: u64, ops_per_second: u64, passes: usize) -> usize {
    ((seconds * ops_per_second) as usize / passes.max(1)).max(1)
}

/// Order-sensitive digest (64-bit FNV-1a) of a sequence of responses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Digest {
    items: u64,
    hash: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Digest {
            items: 0,
            hash: 0xcbf2_9ce4_8422_2325,
        }
    }
}

impl Digest {
    /// Folds one response in.
    pub fn feed(&mut self, text: &str) {
        self.items += 1;
        for &b in text.as_bytes().iter().chain(b"\n") {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Derives an independent 64-bit seed for stream `stream` of `seed`
/// (SplitMix64 finaliser).
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
