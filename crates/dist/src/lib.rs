//! The message-passing schedulers: the paper's distributed algorithms
//! (Sections 5–7, Figure 7) executed on `treenet-netsim`'s synchronous
//! engine, one protocol node per processor.
//!
//! [`run_distributed`] takes the theorem as data — a
//! `treenet_core::AutoChoice` — and runs it as the message-passing twin
//! of `treenet_core::solve` with the same theorem:
//!
//! | `AutoChoice` | paper |
//! |---|---|
//! | `TreeUnit` | Theorem 5.3, `(7+ε)` |
//! | `TreeArbitrary` | Theorem 6.3, `(80+ε)` |
//! | `LineUnit` | Theorem 7.1, `(4+ε)` |
//! | `LineArbitrary` | Theorem 7.2, `(23+ε)` |
//!
//! [`run_distributed_auto`] runs the strongest applicable theorem (the
//! dispatch of `solve_auto`), and [`run_distributed_reference`] is the
//! driver-counted oracle of [`run_distributed`]. All three run the halves
//! of `AutoChoice::halves`, the one theorem → halves map in
//! `treenet-core`.
//!
//! Every run is provably equivalent to its logical twin in
//! `treenet-core`: same solution, bit-identical duals (`λ` matches
//! `to_bits()`-exactly). The equivalence rests on three design points,
//! shared with the logical runner:
//!
//! 1. **Common randomness** — Luby draws come from the seeded hash
//!    [`treenet_mis::luby_value`] over *canonical keys* computable from
//!    public information, so every processor evaluates any instance's
//!    draw locally.
//! 2. **Local dual tracking** — a processor tracks `β(e)` for exactly the
//!    edges on its own paths; every raise touching such an edge comes
//!    from an overlapping instance, whose owner is a communication
//!    neighbor, so the announcement always arrives. Summation orders and
//!    raising arithmetic mirror `DualState`/`RaiseRule` (the shared
//!    single definitions), making the floats bit-identical.
//! 3. **A public schedule** — epochs, stages and step boundaries are
//!    globally known (the paper's synchronous-model assumption). The
//!    driver sets the mode of every round and paces the schedule from
//!    node-local hints read between rounds:
//!
//!    * **The charged prologue.** The convergecast forest the control
//!      plane rides on is no longer free infrastructure: from the first
//!      round every node floods a BFS/leader-election label (class-5
//!      `Bfs` messages) and derives its parent locally — the runner
//!      asserts the flooded forest equals the public
//!      `ConvergecastForest` on every node. The flood overlaps the
//!      first data rounds; it costs wall-clock only when a run is
//!      shorter than `treenet_core::prologue_rounds(height)`.
//!    * **Amortized termination detection.** The driver paces steps from
//!      node-local hints — the summed `count_unsatisfied`/`has_group`
//!      predicates, exactly the state the `Active`/`Died` broadcasts
//!      disseminate — and *audits* that pacing with echo sweeps on the
//!      forest: unsatisfied counts aggregate up each component's tree
//!      and the root's verdict floods back down. Sweeps are armed on an
//!      amortized cadence (one certification sweep per worked epoch,
//!      plus a refresh every `2^k` steps,
//!      [`DistConfig::sweep_interval_log2`]) and ride the data rounds
//!      instead of stopping them; every verdict is asserted equal to
//!      the hint snapshot taken when the sweep was armed — a sweep can
//!      neither terminate early nor miss termination. Each MIS ends on
//!      the driver's `any(has_active)` scan, which no sweep audits.
//!    * **The per-network combiner.** After a wide/narrow split run, each
//!      selected instance is reported to its network's leader (the
//!      minimum-id accessor, a direct neighbor since accessors of a
//!      network form a clique); the leader folds the per-half profit sums
//!      in ascending instance-id order — the exact float fold of the
//!      logical `combine_by_network` — and broadcasts the winning half
//!      per network. The driver performs no profit sums.
//!
//! The wide and narrow halves of an arbitrary-height run execute as one
//! merged engine pass with messages namespaced by [`RunTag`], so the two
//! independent computations overlap in wall-clock rounds instead of
//! running serially. The serial, driver-counted formulation is
//! preserved as the executable oracle ([`run_distributed_reference`],
//! mirroring `run_two_phase_reference` in `treenet-core`) and proptested
//! for identical schedules, λ and solutions.
//!
//! # Round accounting
//!
//! Per-half *compute* rounds are unchanged and still match
//! `RunStats::comm_rounds`: per step, one boundary round plus two rounds
//! per Luby iteration, plus one round per phase-2 pop
//! ([`DistSchedule::total_rounds`]). The control plane is overlapped:
//! prologue and echo messages ride the data rounds, so control only
//! costs wall-clock when the half must *idle* — waiting for an
//! in-flight sweep to drain before certifying or finishing, or for the
//! prologue to complete — counted in
//! [`DistSchedule::control_stalls`]. The exact engine relations are
//! documented on [`DistSchedule`] and asserted for every runner in
//! `tests/metrics.rs`.
//!
//! # Fault tolerance
//!
//! Links need not be reliable: [`DistConfig::loss`] runs the whole
//! protocol — data plane, prologue, echo sweeps, combiner — over seeded
//! Bernoulli drop/duplicate/delay processes, recovered by
//! `treenet-netsim`'s reliable-delivery sublayer (per-edge sequence
//! numbers, a sliding send window of [`DistConfig::arq_window`]
//! messages with eager pipelined retransmission and proactive
//! repetition, cumulative + SACK acks, duplicate suppression). Every
//! node, the `HalfDriver` state machines and the echo-sweep termination
//! path run *unchanged*: the sublayer reassembles each logical round's
//! inbox in canonical order, so solutions, λ and schedules stay
//! bit-identical at any loss rate and any window, while the overhead is
//! measurable in `Metrics` (`retransmits`, `acks`, `dup_suppressed`,
//! and `retransmit_rounds` — bounded by
//! [`treenet_core::retransmit_round_bound`]). The `tests/loss_equiv.rs`
//! proptests pin the equivalence and the bound; `exp_f_dist_loss`
//! charts the round/message inflation against the `p = 0` baseline.
//!
//! # Example
//!
//! ```
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//! use treenet_core::{solve, AutoChoice, SolverConfig};
//! use treenet_dist::{run_distributed, DistConfig};
//! use treenet_model::workload::LineWorkload;
//!
//! let problem = LineWorkload::new(30, 10)
//!     .with_window_slack(2)
//!     .generate(&mut SmallRng::seed_from_u64(5));
//! let config = SolverConfig::default().with_epsilon(0.3).with_seed(5);
//! let theorem = AutoChoice::LineUnit;
//! let logical = solve(&problem, theorem, &config).unwrap();
//! let distributed = run_distributed(&problem, theorem, &DistConfig::from(&config)).unwrap();
//! assert_eq!(logical.solution, distributed.solution);
//! assert_eq!(logical.lambda.to_bits(), distributed.lambda.to_bits());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod node;
mod reference;

use std::fmt;
use std::sync::Arc;

use node::{Mode, ProcessorNode, PublicInfo, MAX_INSTANCES_PER_PROCESSOR, SATISFACTION_GUARD};
use treenet_core::{
    auto_choice, echo_sweep_rounds, mis_tag, prologue_rounds, stage_threshold, stages_for,
    validate_epsilon, AutoChoice, RaiseRule, SolverConfig,
};
use treenet_decomp::{ConvergecastForest, LayeredDecomposition, Strategy};
use treenet_mis::MisBackend;
use treenet_model::{HeightClass, Problem, Solution};
use treenet_netsim::{Engine, LossModel, Metrics, Topology};

pub use node::{descriptor_bits, Descriptor, DistMsg, RunTag};
pub use reference::run_distributed_reference;

/// Engine rounds of the in-network combiner phase appended to every
/// merged wide/narrow run: report to the network leaders, fold and
/// broadcast the per-network choices, record them.
pub const COMBINE_ROUNDS: u64 = 3;

/// Configuration of a distributed run. [`DistConfig::from`] a
/// [`SolverConfig`] yields the settings under which the distributed
/// execution reproduces the logical one exactly.
#[derive(Clone, Debug)]
pub struct DistConfig {
    /// Slackness target: phase 1 ends with everything `(1-ε)`-satisfied.
    pub epsilon: f64,
    /// Seed of the common-randomness hash.
    pub seed: u64,
    /// Tree-decomposition strategy (public knowledge; ignored by the line
    /// runners, which always use the Section-7 length classes).
    pub strategy: Strategy,
    /// MIS backend supplying the `Time(MIS)` factor.
    pub mis_backend: MisBackend,
    /// Abort when a stage exceeds this many steps (`None` disables).
    pub max_steps_per_stage: Option<u64>,
    /// A-priori `hmin` for the arbitrary-height runners (Section 6's
    /// alternative assumption); `None` derives `hmin` from the narrow
    /// participants, mirroring `SolverConfig::hmin`.
    pub hmin: Option<f64>,
    /// Shuffle each node's per-round inbox with this seed before
    /// delivery (`None` keeps the engine's sender-order delivery). The
    /// synchronous model fixes arrival *rounds*, not the order within an
    /// inbox; the schedulers are order-independent and the adversarial
    /// delivery tests pin that down.
    pub shuffle_delivery: Option<u64>,
    /// Run over lossy links, recovered by `treenet-netsim`'s
    /// reliable-delivery sublayer (`None` keeps perfectly reliable
    /// links). The sublayer presents the protocol with byte-identical
    /// logical rounds, so every runner — solutions, bit-exact λ,
    /// schedules — is unchanged under any seeded loss process; only
    /// `Metrics::rounds` (recovery slots) and the retransmit/ack
    /// counters grow. A lossless model is a zero-overhead passthrough.
    /// The loss seed and [`DistConfig::shuffle_delivery`]'s seed feed
    /// independent RNG streams (documented in
    /// [`treenet_netsim::reliable`]), so the two compose
    /// deterministically: adding loss at `p = 0` perturbs neither the
    /// shuffle order nor any metric.
    pub loss: Option<LossModel>,
    /// ARQ send window of the reliable sublayer under
    /// [`DistConfig::loss`]: how many unacked messages each directed
    /// edge may have in flight before eager retransmission throttles
    /// back to the timer. Clamped to ≥ 1; `1` reproduces classic
    /// stop-and-wait. Ignored on lossless links. The default is
    /// [`treenet_netsim::DEFAULT_ARQ_WINDOW`].
    pub arq_window: u32,
    /// Refresh-sweep cadence of the amortized termination detection:
    /// beyond the one certification sweep armed at the end of every
    /// epoch that ran steps, an extra echo sweep is armed after every
    /// `2^sweep_interval_log2` completed steps (the counter resets on
    /// every launch). `0` arms a sweep after *every* step — the dense
    /// pre-amortization cadence, kept as the proptest reference.
    /// Sweeps overlap the data rounds, so the cadence changes neither
    /// schedules nor λ — only the auditing density.
    pub sweep_interval_log2: u32,
    /// Worker threads for the engine's sharded round executor. Nodes are
    /// partitioned into at most this many shards of whole connected
    /// components ([`treenet_netsim::ShardPlan::by_components`]), so
    /// every run is bit-identical — schedules, λ, `Metrics` — at any
    /// thread count; `1` keeps the single-threaded executor.
    pub threads: usize,
}

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig {
            epsilon: 0.1,
            seed: 0x7ee5,
            strategy: Strategy::Ideal,
            mis_backend: MisBackend::Luby,
            max_steps_per_stage: Some(1_000_000),
            hmin: None,
            shuffle_delivery: None,
            loss: None,
            arq_window: treenet_netsim::DEFAULT_ARQ_WINDOW,
            sweep_interval_log2: 6,
            threads: 1,
        }
    }
}

impl From<&SolverConfig> for DistConfig {
    fn from(config: &SolverConfig) -> Self {
        DistConfig {
            epsilon: config.epsilon,
            seed: config.seed,
            strategy: config.strategy,
            mis_backend: config.mis_backend,
            hmin: config.hmin,
            ..DistConfig::default()
        }
    }
}

/// One framework step as executed: its schedule coordinates and the
/// number of Luby iterations its MIS computation took.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct StepRecord {
    /// Epoch (1-based).
    pub epoch: u32,
    /// Stage within the epoch (1-based).
    pub stage: u32,
    /// Step within the stage (0-based).
    pub step: u64,
    /// Luby iterations of this step's MIS (2 communication rounds each).
    pub luby_rounds: u64,
}

/// The executed schedule of one (sub-)run: phase-1 steps, phase-2 pops,
/// and the overlapped control plane (echo sweeps and the BFS prologue).
///
/// # Round relations (exact, asserted in `tests/metrics.rs`)
///
/// With `compute = total_rounds()` and `stalls = control_stalls`:
///
/// * **single-rule in-network run** ([`run_distributed`] on a unit
///   theorem): `Metrics::rounds == compute + stalls + 1` (the `+1` is
///   the setup round exchanging demand descriptors; prologue and sweep
///   messages ride the counted rounds);
/// * **merged split run** ([`run_distributed`] on an arbitrary-height
///   theorem): the halves share one engine and overlap, so
///   `Metrics::rounds == max(wide.engine_rounds(), narrow.engine_rounds())
///   + 1 + COMBINE_ROUNDS`;
/// * **reference (driver-counted) paths** have `stalls == 0` and
///   `sweeps == 0`: solo `Metrics::rounds == compute + 1`, and the
///   serial split merges two engines:
///   `Metrics::rounds == wide.compute + narrow.compute + 2`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DistSchedule {
    /// Phase-1 steps in execution order (= framework stack order).
    pub steps: Vec<StepRecord>,
    /// Phase-2 stack pops (one communication round each).
    pub pops: u64,
    /// In-network termination-detection sweeps armed: one certification
    /// sweep per epoch that ran steps, plus one refresh sweep per
    /// `2^`[`DistConfig::sweep_interval_log2`] completed steps. Zero on
    /// the driver-counted reference path.
    pub sweeps: u64,
    /// Engine rounds one sweep needs to drain —
    /// `treenet_core::echo_sweep_rounds` of the convergecast-forest
    /// height (zero when every processor is isolated). Sweeps overlap
    /// the data rounds, so this is pipeline depth, not per-sweep cost.
    pub sweep_rounds: u64,
    /// Engine rounds this half *idled* on the control plane: waiting for
    /// an in-flight sweep to drain before arming a certification sweep
    /// or finishing, or for the BFS prologue to complete. The only
    /// wall-clock rounds the control plane costs.
    pub control_stalls: u64,
    /// Engine rounds the charged BFS/leader-election prologue needs —
    /// `treenet_core::prologue_rounds` of the forest height. The flood
    /// overlaps the data rounds; only the part of it that outlives the
    /// schedule shows up as `control_stalls`.
    pub prologue_rounds: u64,
}

impl DistSchedule {
    /// Scheduled *compute* communication rounds: `Σ_steps
    /// step_comm_rounds(luby) + pops` — the per-step formula is
    /// [`treenet_core::step_comm_rounds`], shared with the logical
    /// runner's `RunStats::comm_rounds` accounting so the two
    /// implementations cannot silently diverge. Control-plane idling is
    /// accounted separately in [`DistSchedule::control_rounds`].
    pub fn total_rounds(&self) -> u64 {
        self.steps
            .iter()
            .map(|s| treenet_core::step_comm_rounds(s.luby_rounds))
            .sum::<u64>()
            + self.pops
    }

    /// Engine rounds spent idle on in-network control — the
    /// [`DistSchedule::control_stalls`] counter. Sweeps and the prologue
    /// themselves ride the data rounds for free.
    pub fn control_rounds(&self) -> u64 {
        self.control_stalls
    }

    /// Total engine rounds this (sub-)run occupies: compute plus control
    /// stalls.
    pub fn engine_rounds(&self) -> u64 {
        self.total_rounds() + self.control_stalls
    }

    /// Number of phase-1 steps.
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }
}

/// Result of a distributed run with a single rule (the unit-height
/// theorems).
#[derive(Clone, Debug)]
pub struct DistOutcome {
    /// The feasible solution extracted by the distributed second phase.
    pub solution: Solution,
    /// Measured slackness: the minimum satisfaction ratio over the run's
    /// participants, bit-identical to the logical run's λ.
    pub lambda: f64,
    /// True if some participant ended phase 1 below `(1-ε)`-satisfaction.
    pub final_unsatisfied: bool,
    /// Engine communication metrics (rounds, messages, bits, max bits).
    pub metrics: Metrics,
    /// The executed epoch/stage/step schedule.
    pub schedule: DistSchedule,
}

/// One half of a wide/narrow split run. The halves of a merged run share
/// a single engine, so communication metrics live on the enclosing
/// [`DistCombinedOutcome`] (with per-half traffic split by
/// `Metrics::by_class`).
#[derive(Clone, Debug)]
pub struct DistRunReport {
    /// The half's own (pre-combination) solution.
    pub solution: Solution,
    /// Measured slackness of the half, bit-identical to the logical λ.
    pub lambda: f64,
    /// True if some participant ended phase 1 below `(1-ε)`-satisfaction.
    pub final_unsatisfied: bool,
    /// The half's executed epoch/stage/step schedule.
    pub schedule: DistSchedule,
}

/// Result of a distributed arbitrary-height run (Theorems 6.3 / 7.2):
/// the wide and narrow message-passing halves plus the in-network
/// per-network combination, mirroring `treenet_core::CombinedOutcome`.
#[derive(Clone, Debug)]
pub struct DistCombinedOutcome {
    /// The per-network combination of the two halves, decided in-network
    /// by the convergecast/broadcast combiner — bit-identical to the
    /// logical `combine_by_network`.
    pub solution: Solution,
    /// The unit-rule half over wide demands (`h > 1/2`).
    pub wide: DistRunReport,
    /// The narrow-rule half over narrow demands (`h ≤ 1/2`).
    pub narrow: DistRunReport,
    /// Communication metrics of the whole run (merged runs: one shared
    /// engine; reference runs: both serial engines merged).
    pub metrics: Metrics,
}

impl DistCombinedOutcome {
    /// The measured slackness of the combined run — bit-identical to
    /// `CombinedOutcome::lambda()` of the logical twin.
    pub fn lambda(&self) -> f64 {
        self.wide.lambda.min(self.narrow.lambda)
    }

    /// Scheduled *compute* communication rounds across both halves (the
    /// logical accounting; a merged engine overlaps the halves, see
    /// [`DistSchedule`] for the wall-clock relation).
    pub fn total_rounds(&self) -> u64 {
        self.wide.schedule.total_rounds() + self.narrow.schedule.total_rounds()
    }
}

/// The run [`run_distributed`] executed — the mirror of
/// `treenet_core::AutoRun`.
#[derive(Clone, Debug)]
pub enum DistAutoRun {
    /// A single-rule run (the unit-height theorems).
    Single(DistOutcome),
    /// A wide/narrow split run (the arbitrary-height theorems).
    Split(DistCombinedOutcome),
}

impl DistAutoRun {
    /// Communication metrics of the whole run.
    pub fn metrics(&self) -> Metrics {
        match self {
            DistAutoRun::Single(out) => out.metrics,
            DistAutoRun::Split(out) => out.metrics,
        }
    }

    /// The executed schedule of each half, in `AutoChoice::halves`
    /// order: the single run's, or the wide then the narrow half's.
    pub fn schedules(&self) -> Vec<&DistSchedule> {
        match self {
            DistAutoRun::Single(out) => vec![&out.schedule],
            DistAutoRun::Split(out) => vec![&out.wide.schedule, &out.narrow.schedule],
        }
    }
}

/// Outcome of [`run_distributed`]: the solution, which theorem ran, the
/// measured λ, and the underlying run.
#[derive(Clone, Debug)]
pub struct DistAutoOutcome {
    /// The extracted feasible solution.
    pub solution: Solution,
    /// The theorem that ran.
    pub choice: AutoChoice,
    /// Measured slackness λ — bit-identical to `AutoOutcome::lambda`.
    pub lambda: f64,
    /// The underlying run with its schedules and metrics.
    pub run: DistAutoRun,
}

impl DistAutoOutcome {
    /// Assembles the outcome of theorem `choice` from its per-half
    /// reports: a single-rule run, or the wide and narrow halves with
    /// their per-network combination.
    fn assemble(
        choice: AutoChoice,
        reports: Vec<DistRunReport>,
        combined: Option<Solution>,
        metrics: Metrics,
    ) -> Self {
        let mut reports = reports.into_iter();
        let run = match (reports.next(), reports.next(), combined) {
            (Some(wide), Some(narrow), Some(solution)) => DistAutoRun::Split(DistCombinedOutcome {
                solution,
                wide,
                narrow,
                metrics,
            }),
            (Some(half), None, None) => DistAutoRun::Single(DistOutcome {
                solution: half.solution,
                lambda: half.lambda,
                final_unsatisfied: half.final_unsatisfied,
                metrics,
                schedule: half.schedule,
            }),
            _ => unreachable!("a run has one half, or two halves and their combination"),
        };
        let (solution, lambda) = match &run {
            DistAutoRun::Single(out) => (out.solution.clone(), out.lambda),
            DistAutoRun::Split(out) => (out.solution.clone(), out.lambda()),
        };
        DistAutoOutcome {
            solution,
            choice,
            lambda,
            run,
        }
    }
}

/// Distributed-run failure.
#[derive(Clone, Debug, PartialEq)]
pub enum DistError {
    /// `ε` outside `(0, 1)`, a line theorem on a network that is not a
    /// canonical line, an a-priori `hmin` violated by a narrow demand, or
    /// a demand with more instances than one processor can own (64, the
    /// width of its participation mask).
    BadParameters {
        /// Human-readable reason.
        reason: String,
    },
    /// A stage exceeded [`DistConfig::max_steps_per_stage`].
    StageDiverged {
        /// Epoch (1-based).
        epoch: u32,
        /// Stage (1-based).
        stage: u32,
    },
    /// An MIS computation exhausted its iteration budget without going
    /// quiescent. Every shipped backend removes at least one vertex per
    /// iteration, so this indicates a broken backend — the run is
    /// aborted rather than silently returning a schedule built from a
    /// truncated phase 1.
    MisBudgetExhausted {
        /// Epoch (1-based).
        epoch: u32,
        /// Stage (1-based).
        stage: u32,
        /// Step within the stage (0-based).
        step: u64,
    },
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::BadParameters { reason } => write!(f, "bad parameters: {reason}"),
            DistError::StageDiverged { epoch, stage } => {
                write!(f, "stage {stage} of epoch {epoch} exceeded the step budget")
            }
            DistError::MisBudgetExhausted { epoch, stage, step } => write!(
                f,
                "MIS of step {step} (stage {stage}, epoch {epoch}) exhausted its \
                 iteration budget without quiescing"
            ),
        }
    }
}

impl std::error::Error for DistError {}

pub(crate) fn descriptor_of(problem: &Problem, a: treenet_model::DemandId) -> Descriptor {
    Descriptor {
        id: a,
        demand: *problem.demand(a),
        access: problem.access(a).to_vec(),
    }
}

/// The processor communication graph as plain adjacency lists — the
/// input of both the engine topology and the public convergecast forest.
pub(crate) fn comm_adjacency(problem: &Problem) -> Vec<Vec<usize>> {
    problem
        .communication_graph()
        .into_iter()
        .map(|list| list.into_iter().map(|d| d.index()).collect())
        .collect()
}

/// Builds the shared engine (topology + optional adversarial delivery
/// shuffle + optional lossy links under the reliable sublayer) for a
/// node set. Used by the in-network and the reference paths alike, so
/// both run over the same link model.
pub(crate) fn build_engine(
    nodes: Vec<ProcessorNode>,
    problem: &Problem,
    config: &DistConfig,
) -> Engine<ProcessorNode> {
    let topology = Topology::from_adjacency(comm_adjacency(problem));
    let mut engine = Engine::new(nodes, topology)
        .with_arq_window(config.arq_window)
        .with_threads(config.threads);
    if let Some(seed) = config.shuffle_delivery {
        engine = engine.with_delivery_shuffle(seed);
    }
    if let Some(model) = &config.loss {
        engine = engine.with_loss_model(model.clone());
    }
    engine
}

/// One (sub-)run as the runners execute it: the raise rule, stage
/// factor and participating height class of a `treenet_core::Half`,
/// plus its message namespace and epoch count.
struct HalfPlan {
    tag: RunTag,
    rule: RaiseRule,
    xi: f64,
    num_groups: u32,
    class: Option<HeightClass>,
}

/// Validates `config` and plans theorem `choice`: one [`HalfPlan`] per
/// half of `AutoChoice::halves` — the primary message namespace for the
/// first half, the narrow one for the second — and the public
/// information every processor knows: the theorem's layering, the
/// rooted networks, the seed, the MIS backend and the convergecast
/// forest. Refuses, after the theorem's own checks, a demand with more
/// instances than its processor can own.
pub(crate) fn plan(
    problem: &Problem,
    choice: AutoChoice,
    config: &DistConfig,
) -> Result<(Arc<PublicInfo>, Vec<HalfPlan>), DistError> {
    validate_epsilon(config.epsilon).map_err(|reason| DistError::BadParameters { reason })?;
    let layering = choice
        .layering(problem, config.strategy)
        .map_err(|reason| DistError::BadParameters { reason })?;
    let layers = LayeredDecomposition::new(problem, layering);
    let num_groups = layers.num_groups() as u32;
    let halves = choice
        .halves(problem, layers.delta(), config.hmin)
        .map_err(|reason| DistError::BadParameters { reason })?;
    if let Some(a) = problem
        .demands()
        .find(|&a| problem.instances_of(a).len() > MAX_INSTANCES_PER_PROCESSOR)
    {
        return Err(DistError::BadParameters {
            reason: format!(
                "demand {a} has {} instances, but a processor owns at most \
                 {MAX_INSTANCES_PER_PROCESSOR} (the width of its participation mask)",
                problem.instances_of(a).len()
            ),
        });
    }
    let plans = halves
        .into_iter()
        .zip([RunTag::Primary, RunTag::Narrow])
        .map(|(half, tag)| HalfPlan {
            tag,
            rule: half.rule,
            xi: half.xi,
            num_groups,
            class: half.class,
        })
        .collect();
    let public = Arc::new(PublicInfo {
        rooted: problem
            .networks()
            .map(|t| problem.rooted(t).clone())
            .collect(),
        layering: layers.into_layering(),
        seed: config.seed,
        backend: config.mis_backend,
        forest: ConvergecastForest::from_adjacency(&comm_adjacency(problem)),
    });
    Ok((public, plans))
}

/// Where one half's public-schedule state machine stands. Each variant
/// with a `return` in the driver consumes exactly one engine round; the
/// others are zero-round transitions, so a half's engine-round usage is
/// exactly `schedule.engine_rounds()`.
#[derive(Copy, Clone, Debug)]
enum HalfState {
    /// Enter epoch `epoch` (or phase 2 when past the last group).
    EpochStart { epoch: u32 },
    /// Decide the next move within `stage` from the pacing hints: start
    /// a step, advance the stage, or close the epoch.
    StageCheck { epoch: u32, stage: u32 },
    /// The announce round of a step just ran.
    AfterAnnounce { epoch: u32, stage: u32 },
    /// A Luby evaluation round just ran.
    AfterEval { epoch: u32, stage: u32 },
    /// A Luby cleanup round just ran: check quiescence.
    AfterCleanup { epoch: u32, stage: u32 },
    /// The epoch ran steps and finished: arm its certification sweep as
    /// soon as the sweep pipeline (and the prologue) is clear.
    CertifyEpoch { epoch: u32 },
    /// The pop round for global step `step` runs next.
    PopNext { step: u32 },
    /// Pops finished: park the half's nodes.
    FinishPops,
    /// The schedule is consumed; idle until the last sweep drains and
    /// the prologue completes.
    DrainControl,
    /// The half consumed its whole schedule and control plane.
    Done,
}

/// One in-flight echo sweep: the hint snapshot taken when it was armed
/// and the engine rounds left until every root holds its verdict. The
/// sweep rides the data rounds; the driver only tracks the pipeline
/// depth and, on completion, asserts the in-network verdict equals the
/// snapshot — amortized sweeps can neither terminate a stage early nor
/// miss termination.
#[derive(Copy, Clone, Debug)]
struct SweepTicket {
    /// `(unsatisfied, members)` summed from the node-local hints at arm
    /// time — what the echo aggregation must reproduce.
    expected: (u64, bool),
    /// Engine rounds until the verdict is readable at every root.
    remaining: u64,
}

/// Drives one half's public schedule over the shared engine: it sets
/// node modes (the timing signal), paces steps from the node-local
/// hints, and arms overlapped echo sweeps whose in-network verdicts
/// audit every pacing decision. It never sums profits itself.
struct HalfDriver {
    plan: HalfPlan,
    /// The live demands of this half, ascending.
    node_ids: Vec<usize>,
    stages_per_epoch: u32,
    max_steps_per_stage: Option<u64>,
    schedule: DistSchedule,
    state: HalfState,
    step_in_stage: u64,
    luby_rounds: u64,
    budget: u64,
    /// The at-most-one sweep currently riding the data rounds.
    ticket: Option<SweepTicket>,
    /// Completed steps since the last sweep was armed.
    steps_since_sweep: u64,
    /// Refresh-sweep cadence: `2^sweep_interval_log2` steps.
    sweep_interval: u64,
    /// Whether the current epoch recorded at least one step (empty
    /// epochs are skipped without certification — nothing moved).
    epoch_had_steps: bool,
}

impl HalfDriver {
    fn new(
        plan: HalfPlan,
        node_ids: Vec<usize>,
        epsilon: f64,
        config: &DistConfig,
        forest: &ConvergecastForest,
    ) -> Self {
        let stages_per_epoch = stages_for(epsilon, plan.xi);
        HalfDriver {
            plan,
            node_ids,
            stages_per_epoch,
            max_steps_per_stage: config.max_steps_per_stage,
            schedule: DistSchedule {
                sweep_rounds: echo_sweep_rounds(forest.height()),
                prologue_rounds: prologue_rounds(forest.height()),
                ..DistSchedule::default()
            },
            state: HalfState::EpochStart { epoch: 1 },
            step_in_stage: 0,
            luby_rounds: 0,
            budget: 0,
            ticket: None,
            steps_since_sweep: 0,
            sweep_interval: 1u64 << config.sweep_interval_log2.min(63),
            epoch_had_steps: false,
        }
    }

    fn set_modes(&self, nodes: &mut [ProcessorNode], mode: Mode) {
        for &i in &self.node_ids {
            nodes[i].mode = mode.clone();
        }
    }

    /// Stage `stage`'s satisfaction threshold `1 - ξ^stage`.
    fn threshold_for(&self, stage: u32) -> f64 {
        stage_threshold(self.plan.xi, stage)
    }

    /// The driver's pacing hint: this half's summed unsatisfied count
    /// for epoch group `k` at `threshold`, and whether the group is
    /// populated — the same node-local predicates the announce round
    /// and `begin_echo` evaluate, so an armed sweep's verdict must
    /// reproduce the snapshot bit-for-bit.
    fn hint(&self, nodes: &[ProcessorNode], k: u32, threshold: f64) -> (u64, bool) {
        let mut unsatisfied = 0u64;
        let mut members = false;
        for &i in &self.node_ids {
            unsatisfied += nodes[i].count_unsatisfied(k, threshold) as u64;
            members |= nodes[i].has_group(k);
        }
        (unsatisfied, members)
    }

    /// Arms an overlapped echo sweep over epoch `epoch` at stage
    /// `stage`'s threshold: **every** node snapshots its contribution
    /// (off-half nodes contribute zero but relay) and the sweep rides
    /// the following data rounds. Isolated-only forests complete
    /// instantly (zero rounds, zero messages).
    fn arm_sweep(
        &mut self,
        nodes: &mut [ProcessorNode],
        forest: &ConvergecastForest,
        epoch: u32,
        stage: u32,
    ) {
        debug_assert!(self.ticket.is_none(), "one sweep pipeline per half");
        let threshold = self.threshold_for(stage);
        let expected = self.hint(nodes, epoch, threshold);
        for node in nodes.iter_mut() {
            node.begin_echo(self.plan.tag, epoch, threshold);
        }
        self.schedule.sweeps += 1;
        self.steps_since_sweep = 0;
        if self.schedule.sweep_rounds == 0 {
            self.verify_sweep(nodes, forest, expected);
        } else {
            self.ticket = Some(SweepTicket {
                expected,
                remaining: self.schedule.sweep_rounds,
            });
        }
    }

    /// The completed sweep's audit: the in-network verdict must equal
    /// the hint snapshot taken when the sweep was armed. `begin_echo`
    /// froze every node's contribution at arm time, so data rounds the
    /// sweep overlapped cannot perturb the aggregate.
    fn verify_sweep(
        &self,
        nodes: &[ProcessorNode],
        forest: &ConvergecastForest,
        expected: (u64, bool),
    ) {
        let verdict = self.read_verdict(nodes, forest);
        assert_eq!(
            verdict, expected,
            "echo sweep verdict must equal the hint snapshot taken when it was armed"
        );
    }

    /// The global sweep verdict: the sum (and OR) of the in-network
    /// per-component verdicts over the forest roots.
    fn read_verdict(&self, nodes: &[ProcessorNode], forest: &ConvergecastForest) -> (u64, bool) {
        let mut unsatisfied = 0u64;
        let mut members = false;
        for &root in forest.roots() {
            let (u, m) = nodes[root as usize]
                .echo_verdict(self.plan.tag)
                .expect("sweep completed: every root holds its component verdict");
            unsatisfied += u as u64;
            members |= m;
        }
        (unsatisfied, members)
    }

    /// Whether a new sweep may be armed: the single pipeline slot is
    /// free and the prologue has finished building the forest the sweep
    /// rides on (`rounds_run` counts executed engine rounds, setup
    /// included).
    fn can_arm(&self, rounds_run: u64) -> bool {
        self.ticket.is_none() && rounds_run >= self.schedule.prologue_rounds
    }

    /// Prepares the next engine round for this half. Returns `Ok(true)`
    /// when the half needs the round, `Ok(false)` once it has consumed
    /// its whole schedule. `rounds_run` is the number of engine rounds
    /// already executed.
    fn pre_round(
        &mut self,
        nodes: &mut [ProcessorNode],
        forest: &ConvergecastForest,
        rounds_run: u64,
    ) -> Result<bool, DistError> {
        // Sweep pipeline: exactly one engine round ran since the last
        // call (a half never reports done with a live ticket, so calls
        // map 1:1 to rounds until the ticket drains).
        if let Some(ticket) = &mut self.ticket {
            ticket.remaining -= 1;
            if ticket.remaining == 0 {
                let expected = ticket.expected;
                self.ticket = None;
                self.verify_sweep(nodes, forest, expected);
            }
        }
        loop {
            match self.state {
                HalfState::Done => return Ok(false),
                HalfState::EpochStart { epoch } => {
                    if epoch > self.plan.num_groups {
                        self.schedule.pops = self.schedule.steps.len() as u64;
                        if self.schedule.steps.is_empty() {
                            self.state = HalfState::FinishPops;
                        } else {
                            self.state = HalfState::PopNext {
                                step: self.schedule.steps.len() as u32 - 1,
                            };
                        }
                        continue;
                    }
                    // Group membership is threshold-independent: probe
                    // at stage 1. Empty groups are skipped at zero
                    // rounds and zero sweeps — nothing moved, so there
                    // is nothing to certify.
                    let (_, members) = self.hint(nodes, epoch, self.threshold_for(1));
                    if !members {
                        self.state = HalfState::EpochStart { epoch: epoch + 1 };
                        continue;
                    }
                    self.step_in_stage = 0;
                    self.epoch_had_steps = false;
                    self.state = HalfState::StageCheck { epoch, stage: 1 };
                }
                HalfState::StageCheck { epoch, stage } => {
                    let (unsatisfied, _) = self.hint(nodes, epoch, self.threshold_for(stage));
                    if unsatisfied == 0 {
                        if stage < self.stages_per_epoch {
                            self.step_in_stage = 0;
                            self.state = HalfState::StageCheck {
                                epoch,
                                stage: stage + 1,
                            };
                        } else if self.epoch_had_steps {
                            self.state = HalfState::CertifyEpoch { epoch };
                        } else {
                            self.state = HalfState::EpochStart { epoch: epoch + 1 };
                        }
                        continue;
                    }
                    if let Some(limit) = self.max_steps_per_stage {
                        if self.step_in_stage >= limit {
                            return Err(DistError::StageDiverged { epoch, stage });
                        }
                    }
                    self.budget = unsatisfied + 4;
                    let namespace = mis_tag(epoch, stage, self.step_in_stage);
                    let threshold = self.threshold_for(stage);
                    let global_step = self.schedule.steps.len() as u32;
                    for &i in &self.node_ids {
                        nodes[i].begin_step(epoch, namespace, threshold, global_step);
                    }
                    self.state = HalfState::AfterAnnounce { epoch, stage };
                    return Ok(true);
                }
                HalfState::AfterAnnounce { epoch, stage } => {
                    self.luby_rounds = 0;
                    self.set_modes(nodes, Mode::LubyEval);
                    self.state = HalfState::AfterEval { epoch, stage };
                    return Ok(true);
                }
                HalfState::AfterEval { epoch, stage } => {
                    self.set_modes(nodes, Mode::LubyCleanup);
                    self.state = HalfState::AfterCleanup { epoch, stage };
                    return Ok(true);
                }
                HalfState::AfterCleanup { epoch, stage } => {
                    self.luby_rounds += 1;
                    let active = self.node_ids.iter().any(|&i| nodes[i].has_active());
                    if active {
                        if self.luby_rounds >= self.budget {
                            // Every shipped backend removes at least one
                            // vertex per iteration, so only a broken
                            // backend lands here. Abort hard: a schedule
                            // built from a truncated phase 1 must never
                            // reach phase 2.
                            return Err(DistError::MisBudgetExhausted {
                                epoch,
                                stage,
                                step: self.step_in_stage,
                            });
                        }
                        self.set_modes(nodes, Mode::LubyEval);
                        self.state = HalfState::AfterEval { epoch, stage };
                        return Ok(true);
                    }
                    self.schedule.steps.push(StepRecord {
                        epoch,
                        stage,
                        step: self.step_in_stage,
                        luby_rounds: self.luby_rounds,
                    });
                    self.step_in_stage += 1;
                    self.epoch_had_steps = true;
                    self.steps_since_sweep += 1;
                    // Refresh sweep on the geometric cadence: state
                    // moved, so re-audit the in-network view (the sweep
                    // rides the next data rounds). Skipped while the
                    // pipeline is busy — the counter keeps the pressure
                    // until a slot frees up.
                    if self.steps_since_sweep >= self.sweep_interval && self.can_arm(rounds_run) {
                        self.arm_sweep(nodes, forest, epoch, stage);
                    }
                    self.state = HalfState::StageCheck { epoch, stage };
                }
                HalfState::CertifyEpoch { epoch } => {
                    if !self.can_arm(rounds_run) {
                        // The pipeline (or the prologue) must clear
                        // before the certification sweep can be armed:
                        // idle one engine round.
                        self.set_modes(nodes, Mode::Idle);
                        self.schedule.control_stalls += 1;
                        return Ok(true);
                    }
                    // Certify at the epoch's final threshold, then move
                    // on — the sweep overlaps whatever runs next.
                    self.arm_sweep(nodes, forest, epoch, self.stages_per_epoch);
                    self.state = HalfState::EpochStart { epoch: epoch + 1 };
                }
                HalfState::PopNext { step } => {
                    self.set_modes(nodes, Mode::Pop(step));
                    self.state = if step == 0 {
                        HalfState::FinishPops
                    } else {
                        HalfState::PopNext { step: step - 1 }
                    };
                    return Ok(true);
                }
                HalfState::FinishPops => {
                    self.set_modes(nodes, Mode::Idle);
                    self.state = HalfState::DrainControl;
                }
                HalfState::DrainControl => {
                    if self.ticket.is_some() || rounds_run < self.schedule.prologue_rounds {
                        self.schedule.control_stalls += 1;
                        return Ok(true);
                    }
                    self.state = HalfState::Done;
                }
            }
        }
    }
}

/// Executes one in-network run: one engine pass over all halves, with
/// messages namespaced per half, termination detected by echo sweeps,
/// and (for split runs) the per-network combination decided by the
/// convergecast combiner. The driver's only outputs into the network are
/// the public timing signal; its inputs are the node-local pacing hints
/// (audited by the in-network sweep aggregates), the MIS quiescence
/// scan and the final results.
fn execute_in_network(
    problem: &Problem,
    config: &DistConfig,
    public: &Arc<PublicInfo>,
    plans: Vec<HalfPlan>,
) -> Result<(Vec<DistRunReport>, Option<Solution>, Metrics), DistError> {
    let split = plans.len() > 1;
    // A departed demand's processor keeps relaying the control plane but
    // stays silent on the data plane, like an off-class node of the
    // serial reference.
    let nodes: Vec<ProcessorNode> = problem
        .demands()
        .map(|a| {
            let plan = plans
                .iter()
                .find(|p| {
                    p.class
                        .is_none_or(|c| problem.demand(a).height_class() == c)
                })
                .expect("every demand belongs to exactly one half");
            ProcessorNode::new(
                Arc::clone(public),
                descriptor_of(problem, a),
                problem.instances_of(a).to_vec(),
                plan.rule,
                plan.tag,
                !problem.is_departed(a),
            )
        })
        .collect();
    let mut engine = build_engine(nodes, problem, config);

    // Setup round: every processor broadcasts its demand descriptor to
    // its communication neighbors (one O(M)-bit message each) — shared
    // by all halves, and the single non-schedule round of the run. The
    // BFS prologue's first flood rides this same round.
    engine.step();
    let mut rounds_run: u64 = 1;

    let mut drivers: Vec<HalfDriver> = plans
        .into_iter()
        .map(|plan| {
            let node_ids: Vec<usize> = problem
                .live_demands()
                .filter(|&a| {
                    plan.class
                        .is_none_or(|c| problem.demand(a).height_class() == c)
                })
                .map(|a| a.index())
                .collect();
            HalfDriver::new(plan, node_ids, config.epsilon, config, &public.forest)
        })
        .collect();

    loop {
        let mut any = false;
        for driver in &mut drivers {
            any |= driver.pre_round(engine.nodes_mut(), &public.forest, rounds_run)?;
        }
        if !any {
            break;
        }
        engine.step();
        rounds_run += 1;
    }

    // The charged prologue has completed by now (every driver drains it
    // before reporting done): assert the in-network flood rebuilt the
    // reference forest exactly — labels and parents both.
    let forest = &public.forest;
    for component in forest.components() {
        let leader = component[0] as u32;
        for v in component {
            let node = &engine.nodes()[v];
            assert_eq!(
                node.bfs_label(),
                (leader, forest.depth(v)),
                "prologue label of node {v}"
            );
            assert_eq!(
                node.bfs_parent(),
                forest.parent(v),
                "prologue parent of node {v}"
            );
        }
    }

    // The in-network combiner (split runs only): report → decide → apply.
    let combined = if split {
        for mode in [Mode::CombineReport, Mode::CombineDecide, Mode::CombineApply] {
            for node in engine.nodes_mut() {
                node.mode = mode.clone();
            }
            engine.step();
        }
        let mut selected = Vec::new();
        for node in engine.nodes() {
            selected.extend(node.combined_selected());
        }
        Some(Solution::new(selected))
    } else {
        None
    };

    // Collect per-half results (instance-id order mirrors the logical
    // run for both the solution and the λ fold).
    let mut results = Vec::new();
    for driver in drivers {
        let mut selected = Vec::new();
        let mut lambda = 1.0f64;
        let mut final_unsatisfied = false;
        for a in problem.demands() {
            let node = &engine.nodes()[a.index()];
            if node.run_tag() != driver.plan.tag || !node.is_participating() {
                continue;
            }
            selected.extend_from_slice(node.selected());
            for local in 0..problem.instances_of(a).len() {
                let satisfaction = node.satisfaction(local);
                lambda = lambda.min(satisfaction);
                if satisfaction < 1.0 - config.epsilon - SATISFACTION_GUARD {
                    final_unsatisfied = true;
                }
            }
        }
        results.push(DistRunReport {
            solution: Solution::new(selected),
            lambda,
            final_unsatisfied,
            schedule: driver.schedule,
        });
    }

    Ok((results, combined, engine.metrics()))
}

/// Runs theorem `choice` as a synchronous message-passing computation
/// and returns the solution, the measured slackness λ, the executed
/// schedules and the communication metrics. A unit theorem runs one
/// half; an arbitrary-height theorem runs its wide half (unit rule) and
/// narrow half (narrow rule) as one merged engine pass, messages
/// namespaced per half, then the in-network per-network combiner. Stage
/// and epoch boundaries are detected in-network (echo sweeps on the
/// convergecast forest).
///
/// Under `DistConfig::from(&solver_config)` the result equals
/// `treenet_core::solve` with the same theorem exactly: identical
/// solutions and bit-identical λ, per half (see the crate docs for why).
///
/// # Errors
///
/// [`DistError::BadParameters`] for an out-of-range `ε`, then for a line
/// theorem on a network that is not a canonical line, then for a
/// violated a-priori `hmin`, then for a demand with more than 64
/// instances (one processor's mask width); [`DistError::StageDiverged`]
/// if a stage exceeds the step budget; [`DistError::MisBudgetExhausted`]
/// if the MIS backend stops making progress (impossible for the shipped
/// backends).
pub fn run_distributed(
    problem: &Problem,
    choice: AutoChoice,
    config: &DistConfig,
) -> Result<DistAutoOutcome, DistError> {
    let (public, plans) = plan(problem, choice, config)?;
    let (reports, combined, metrics) = execute_in_network(problem, config, &public, plans)?;
    Ok(DistAutoOutcome::assemble(
        choice, reports, combined, metrics,
    ))
}

/// Runs the strongest applicable theorem through [`run_distributed`] —
/// exactly the dispatch of `treenet_core::solve_auto` (the shared
/// `auto_choice`): line-networks get the `Δ = 3` length classes, unit
/// heights skip the wide/narrow split.
///
/// Under `DistConfig::from(&solver_config)` the result equals
/// `solve_auto` exactly: same choice, identical solutions, bit-identical
/// λ.
///
/// # Errors
///
/// Same contract as [`run_distributed`].
pub fn run_distributed_auto(
    problem: &Problem,
    config: &DistConfig,
) -> Result<DistAutoOutcome, DistError> {
    run_distributed(problem, auto_choice(problem), config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use treenet_core::{solve, solve_auto, DeltaEngine};
    use treenet_graph::{Tree, VertexId};
    use treenet_model::workload::{HeightMode, LineWorkload, TreeWorkload};
    use treenet_model::{Demand, DemandId, ProblemBuilder};

    fn problem(seed: u64) -> Problem {
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

    fn mixed_tree_problem(seed: u64) -> Problem {
        TreeWorkload::new(10, 8)
            .with_networks(2)
            .with_heights(HeightMode::Bimodal {
                narrow_frac: 0.5,
                hmin: 0.25,
            })
            .generate(&mut SmallRng::seed_from_u64(seed))
    }

    /// A seeded problem generator.
    type Workload = fn(u64) -> Problem;

    /// Every theorem with its workload and seed count.
    const THEOREMS: [(AutoChoice, Workload, u64); 4] = [
        (AutoChoice::TreeUnit, problem, 8),
        (AutoChoice::LineUnit, line_problem, 8),
        (AutoChoice::LineArbitrary, mixed_line_problem, 6),
        (AutoChoice::TreeArbitrary, mixed_tree_problem, 4),
    ];

    /// Each half's measured λ and whether it ended phase 1 unsatisfied.
    fn half_results(run: &DistAutoRun) -> Vec<(f64, bool)> {
        match run {
            DistAutoRun::Single(out) => vec![(out.lambda, out.final_unsatisfied)],
            DistAutoRun::Split(out) => [&out.wide, &out.narrow]
                .map(|half| (half.lambda, half.final_unsatisfied))
                .to_vec(),
        }
    }

    #[test]
    fn every_theorem_equals_logical_execution_bitwise() {
        for (choice, workload, seeds) in THEOREMS {
            for seed in 0..seeds {
                let p = workload(seed);
                let cfg = SolverConfig::default().with_epsilon(0.3).with_seed(seed);
                let logical = solve(&p, choice, &cfg).unwrap();
                let distributed = run_distributed(&p, choice, &DistConfig::from(&cfg)).unwrap();
                let label = format!("{choice:?} seed {seed}");
                assert_eq!(logical.solution, distributed.solution, "{label}");
                assert_eq!(
                    logical.lambda.to_bits(),
                    distributed.lambda.to_bits(),
                    "{label}: λ {} vs {}",
                    logical.lambda,
                    distributed.lambda
                );
                // Per half: bit-identical λ, every participant
                // (1-ε)-satisfied, and the shared compute-round accounting.
                let schedules = distributed.run.schedules();
                let halves = logical.run.halves();
                assert_eq!(halves.len(), schedules.len(), "{label}");
                for ((logical, (lambda, unsatisfied)), schedule) in halves
                    .iter()
                    .zip(half_results(&distributed.run))
                    .zip(&schedules)
                {
                    assert_eq!(logical.lambda.to_bits(), lambda.to_bits(), "{label}");
                    assert!(!unsatisfied, "{label}");
                    assert_eq!(
                        schedule.total_rounds(),
                        logical.stats.comm_rounds,
                        "{label}"
                    );
                }
                // The engine adds the setup round (and the combiner's
                // rounds after a split) to the longest half.
                let longest = schedules.iter().map(|s| s.engine_rounds()).max();
                let extra = if schedules.len() > 1 {
                    COMBINE_ROUNDS
                } else {
                    0
                };
                assert_eq!(
                    Some(distributed.run.metrics().rounds),
                    longest.map(|rounds| rounds + 1 + extra),
                    "{label}"
                );
                distributed.solution.verify(&p).unwrap();
            }
        }
    }

    #[test]
    fn auto_equals_logical_dispatch() {
        let mut rng = SmallRng::seed_from_u64(11);
        let problems: Vec<Problem> = vec![
            LineWorkload::new(24, 8).generate(&mut rng),
            LineWorkload::new(24, 8)
                .with_heights(HeightMode::Uniform { hmin: 0.3 })
                .generate(&mut rng),
            TreeWorkload::new(10, 8).generate(&mut rng),
            TreeWorkload::new(10, 8)
                .with_heights(HeightMode::Uniform { hmin: 0.3 })
                .generate(&mut rng),
        ];
        for (i, p) in problems.iter().enumerate() {
            let cfg = SolverConfig::default()
                .with_epsilon(0.3)
                .with_seed(i as u64);
            let logical = solve_auto(p, &cfg).unwrap();
            let distributed = run_distributed_auto(p, &DistConfig::from(&cfg)).unwrap();
            assert_eq!(logical.choice, distributed.choice, "case {i}");
            assert_eq!(logical.solution, distributed.solution, "case {i}");
            assert_eq!(
                logical.lambda.to_bits(),
                distributed.lambda.to_bits(),
                "case {i}"
            );
        }
    }

    /// The theorem follows the live demands' heights: once the only
    /// non-unit demand departs, the logical solver, the in-network runner
    /// and its reference oracle all run the unit theorem and agree bit
    /// for bit.
    #[test]
    fn the_theorem_forgets_a_departed_non_unit_demand() {
        let mut b = ProblemBuilder::new();
        let t = b.add_network(Tree::line(10)).unwrap();
        b.add_demand(Demand::pair(VertexId(0), VertexId(4), 1.0), &[t])
            .unwrap();
        let low = b
            .add_demand(
                Demand::pair(VertexId(2), VertexId(7), 2.0).with_height(0.3),
                &[t],
            )
            .unwrap();
        let mut p = b.build().unwrap();
        assert_eq!(auto_choice(&p), AutoChoice::LineArbitrary);
        p.apply_delta(treenet_model::ProblemDelta::Departure { demand: low })
            .unwrap();
        assert_eq!(auto_choice(&p), AutoChoice::LineUnit);
        let cfg = SolverConfig::default().with_epsilon(0.3);
        let logical = solve_auto(&p, &cfg).unwrap();
        let dist = DistConfig::from(&cfg);
        let distributed = run_distributed_auto(&p, &dist).unwrap();
        let oracle = run_distributed_reference(&p, auto_choice(&p), &dist).unwrap();
        assert_eq!(logical.choice, AutoChoice::LineUnit);
        assert_eq!(distributed.choice, AutoChoice::LineUnit);
        assert_eq!(oracle.choice, AutoChoice::LineUnit);
        assert_eq!(logical.solution.selected(), &[treenet_model::InstanceId(0)]);
        for (runner, solution, lambda) in [
            (
                "run_distributed_auto",
                &distributed.solution,
                distributed.lambda,
            ),
            ("run_distributed_reference", &oracle.solution, oracle.lambda),
        ] {
            assert_eq!(solution, &logical.solution, "{runner}");
            assert_eq!(lambda.to_bits(), logical.lambda.to_bits(), "{runner}");
        }
    }

    /// A departed demand takes part in no later solve: once the demand of
    /// a selected instance departs, the logical solver, the in-network
    /// runner and its reference oracle all leave it out, and still agree
    /// bit for bit.
    #[test]
    fn departed_demands_are_never_scheduled() {
        let window_line = |seed| {
            LineWorkload::new(24, 10)
                .with_resources(2)
                .with_window_slack(1)
                .generate(&mut SmallRng::seed_from_u64(seed))
        };
        let mut cases: Vec<(String, Problem, u64)> = vec![("windows".into(), window_line(3), 3)];
        for (choice, workload, _) in THEOREMS {
            for seed in 0..2 {
                cases.push((format!("{choice:?}"), workload(seed), seed));
            }
        }
        for (name, mut p, seed) in cases {
            let cfg = SolverConfig::default().with_epsilon(0.3).with_seed(seed);
            let before = solve_auto(&p, &cfg).unwrap();
            let first = before.solution.selected()[0];
            let gone = p.instance(first).demand;
            p.apply_delta(treenet_model::ProblemDelta::Departure { demand: gone })
                .unwrap();
            assert_eq!(
                Solution::new(vec![first]).verify(&p),
                Err(treenet_model::FeasibilityError::DepartedDemand {
                    demand: gone,
                    instance: first,
                })
            );
            let label = format!("{name} seed {seed}, {gone} departed");
            let logical = solve_auto(&p, &cfg).unwrap();
            let dist = DistConfig::from(&cfg);
            let distributed = run_distributed_auto(&p, &dist).unwrap();
            let oracle = run_distributed_reference(&p, logical.choice, &dist).unwrap();
            for (runner, solution, lambda) in [
                ("solve_auto", &logical.solution, logical.lambda),
                (
                    "run_distributed_auto",
                    &distributed.solution,
                    distributed.lambda,
                ),
                ("run_distributed_reference", &oracle.solution, oracle.lambda),
            ] {
                assert!(
                    solution
                        .selected()
                        .iter()
                        .all(|&d| p.instance(d).demand != gone),
                    "{label}: {runner} selected the departed demand"
                );
                solution.verify(&p).unwrap();
                assert_eq!(solution, &logical.solution, "{label}: {runner}");
                assert_eq!(
                    lambda.to_bits(),
                    logical.lambda.to_bits(),
                    "{label}: {runner}"
                );
            }
        }
    }

    #[test]
    fn in_network_equals_reference_oracle() {
        // The driver-counted serial path is the executable spec: same
        // solutions, bit-identical λ, and identical compute schedules
        // (steps + pops; the oracle has no sweeps by construction).
        for (choice, workload, _) in THEOREMS {
            for seed in 0..4u64 {
                let p = workload(seed);
                let cfg = DistConfig {
                    epsilon: 0.3,
                    seed,
                    ..DistConfig::default()
                };
                let fast = run_distributed(&p, choice, &cfg).unwrap();
                let oracle = run_distributed_reference(&p, choice, &cfg).unwrap();
                let label = format!("{choice:?} seed {seed}");
                assert_eq!(oracle.choice, choice);
                assert_eq!(fast.solution, oracle.solution, "{label}");
                assert_eq!(fast.lambda.to_bits(), oracle.lambda.to_bits(), "{label}");
                assert_eq!(
                    half_results(&fast.run),
                    half_results(&oracle.run),
                    "{label}"
                );
                let schedules = oracle.run.schedules();
                for (a, b) in fast.run.schedules().iter().zip(&schedules) {
                    assert_eq!(a.steps, b.steps, "{label}");
                    assert_eq!(a.pops, b.pops, "{label}");
                    assert_eq!(b.sweeps, 0, "{label}");
                }
                // One serial engine per half, one setup round each.
                assert_eq!(
                    oracle.run.metrics().rounds,
                    schedules.iter().map(|s| s.total_rounds() + 1).sum::<u64>(),
                    "{label}"
                );
            }
        }
    }

    #[test]
    fn merged_split_overlaps_the_halves() {
        // The merged engine interleaves the halves: its wall-clock rounds
        // stay strictly below the serial reference's sum whenever both
        // halves do real work.
        let p = mixed_line_problem(1);
        let cfg = DistConfig {
            epsilon: 0.3,
            seed: 1,
            ..DistConfig::default()
        };
        let merged = run_distributed(&p, AutoChoice::LineArbitrary, &cfg).unwrap();
        let reference = run_distributed_reference(&p, AutoChoice::LineArbitrary, &cfg).unwrap();
        let control: u64 = merged
            .run
            .schedules()
            .iter()
            .map(|s| s.control_rounds())
            .sum();
        assert!(
            merged.run.metrics().rounds < reference.run.metrics().rounds + control,
            "merged {} vs serial {} (+control)",
            merged.run.metrics().rounds,
            reference.run.metrics().rounds
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let p = problem(3);
        let run = || run_distributed(&p, AutoChoice::TreeUnit, &DistConfig::default()).unwrap();
        let (a, b) = (run(), run());
        assert_eq!(a.solution, b.solution);
        assert_eq!(a.run.metrics(), b.run.metrics());
        assert_eq!(a.run.schedules(), b.run.schedules());
    }

    #[test]
    fn rejects_bad_epsilon() {
        for (choice, workload, _) in THEOREMS {
            let p = workload(0);
            for eps in [0.0, 1.0, -0.5, 2.0] {
                let cfg = DistConfig {
                    epsilon: eps,
                    ..DistConfig::default()
                };
                for result in [
                    run_distributed(&p, choice, &cfg),
                    run_distributed_reference(&p, choice, &cfg),
                ] {
                    assert!(
                        matches!(result, Err(DistError::BadParameters { .. })),
                        "{choice:?} ε = {eps}"
                    );
                }
            }
        }
    }

    #[test]
    fn line_theorems_refuse_tree_networks() {
        let p = mixed_tree_problem(0);
        assert!(p.networks().any(|t| !p.network(t).is_canonical_line()));
        for choice in [AutoChoice::LineUnit, AutoChoice::LineArbitrary] {
            for result in [
                run_distributed(&p, choice, &DistConfig::default()),
                run_distributed_reference(&p, choice, &DistConfig::default()),
            ] {
                assert!(
                    matches!(result, Err(DistError::BadParameters { .. })),
                    "{choice:?}"
                );
            }
        }
    }

    /// A demand with more instances than a processor's participation
    /// mask holds is refused by every runner, although the logical solver
    /// schedules it.
    #[test]
    fn refuses_a_demand_wider_than_the_participation_mask() {
        let mut b = ProblemBuilder::new();
        let t = b.add_network(Tree::line(80)).unwrap();
        b.add_demand(Demand::window(0, 75, 1, 2.0), &[t]).unwrap();
        let p = b.build().unwrap();
        assert_eq!(p.instances_of(DemandId(0)).len(), 76);
        assert!(solve(&p, AutoChoice::LineUnit, &SolverConfig::default()).is_ok());
        let cfg = DistConfig::default();
        for result in [
            run_distributed(&p, AutoChoice::LineUnit, &cfg),
            run_distributed_auto(&p, &cfg),
            run_distributed_reference(&p, AutoChoice::LineUnit, &cfg),
        ] {
            assert!(
                matches!(&result, Err(DistError::BadParameters { reason })
                    if reason.contains("demand a0 has 76 instances")
                        && reason.contains("at most 64")),
                "{result:?}"
            );
        }
    }

    #[test]
    fn a_priori_hmin_is_validated() {
        let p = TreeWorkload::new(10, 8)
            .with_heights(HeightMode::Uniform { hmin: 0.3 })
            .generate(&mut SmallRng::seed_from_u64(8));
        let theorem = AutoChoice::TreeArbitrary;
        // Valid a-priori bound reproduces the logical run.
        let cfg = SolverConfig::default()
            .with_epsilon(0.3)
            .with_seed(8)
            .with_hmin(0.25);
        let logical = solve(&p, theorem, &cfg).unwrap();
        let distributed = run_distributed(&p, theorem, &DistConfig::from(&cfg)).unwrap();
        assert_eq!(logical.solution, distributed.solution);
        assert_eq!(logical.lambda.to_bits(), distributed.lambda.to_bits());
        // A bound above some narrow height is rejected, like the logical
        // solver — after a bad ε, which is reported first.
        if p.min_height() < 0.5 {
            let bad = DistConfig {
                hmin: Some(0.6),
                ..DistConfig::from(&cfg)
            };
            let worse = DistConfig {
                epsilon: 2.0,
                ..bad.clone()
            };
            for (config, reason) in [(&bad, "hmin"), (&worse, "epsilon")] {
                for result in [
                    run_distributed(&p, theorem, config),
                    run_distributed_reference(&p, theorem, config),
                ] {
                    assert!(
                        matches!(&result, Err(DistError::BadParameters { reason: r }) if r.contains(reason)),
                        "expected a {reason} error, got {result:?}"
                    );
                }
            }
        }
    }

    /// An a-priori `hmin` outside `(0, 1]` is refused in-band by every
    /// arbitrary-height runner and by the online engine, with the same
    /// `bad parameters` error naming `hmin`.
    #[test]
    fn rejects_an_a_priori_hmin_that_is_not_a_height() {
        for (choice, workload, _) in THEOREMS {
            if matches!(choice, AutoChoice::TreeUnit | AutoChoice::LineUnit) {
                continue;
            }
            let p = workload(0);
            for hmin in [0.0, -1.0, f64::NAN] {
                let cfg = SolverConfig::default().with_hmin(hmin);
                let dist = DistConfig::from(&cfg);
                let results = [
                    (
                        "solve",
                        solve(&p, choice, &cfg).map(drop).map_err(|e| e.to_string()),
                    ),
                    (
                        "run_distributed",
                        run_distributed(&p, choice, &dist)
                            .map(drop)
                            .map_err(|e| e.to_string()),
                    ),
                    (
                        "run_distributed_reference",
                        run_distributed_reference(&p, choice, &dist)
                            .map(drop)
                            .map_err(|e| e.to_string()),
                    ),
                    (
                        "DeltaEngine::new",
                        DeltaEngine::new(p.clone(), &cfg)
                            .map(drop)
                            .map_err(|e| e.to_string()),
                    ),
                ];
                for (runner, result) in results {
                    assert!(
                        matches!(&result, Err(e) if e.starts_with("bad parameters") && e.contains("hmin")),
                        "{runner} {choice:?} hmin = {hmin}: {result:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn deterministic_backend_also_reproduces_logical_run() {
        let p = problem(5);
        let cfg = SolverConfig::default()
            .with_epsilon(0.3)
            .with_seed(5)
            .with_mis_backend(MisBackend::DeterministicGreedy);
        let logical = solve(&p, AutoChoice::TreeUnit, &cfg).unwrap();
        let distributed =
            run_distributed(&p, AutoChoice::TreeUnit, &DistConfig::from(&cfg)).unwrap();
        assert_eq!(logical.solution, distributed.solution);
        assert_eq!(logical.lambda.to_bits(), distributed.lambda.to_bits());
    }

    #[test]
    fn stalled_mis_is_a_hard_error() {
        // Two demands with identical paths: same length class, overlapping
        // paths, so under the adversarial backend (beats ≡ false) neither
        // ever wins its MIS — the budget must trip and the run must abort
        // instead of running phase 2 over a truncated schedule.
        let mut b = treenet_model::ProblemBuilder::new();
        let t = b.add_network(treenet_graph::Tree::line(7)).unwrap();
        for _ in 0..2 {
            b.add_demand(
                treenet_model::Demand::pair(VertexId(1), VertexId(4), 2.0),
                &[t],
            )
            .unwrap();
        }
        let p = b.build().unwrap();
        let cfg = DistConfig {
            mis_backend: MisBackend::AdversarialStall,
            ..DistConfig::default()
        };
        for result in [
            run_distributed(&p, AutoChoice::TreeUnit, &cfg),
            run_distributed(&p, AutoChoice::LineUnit, &cfg),
            run_distributed_reference(&p, AutoChoice::TreeUnit, &cfg),
        ] {
            match result {
                Err(DistError::MisBudgetExhausted { epoch, stage, step }) => {
                    assert_eq!((stage, step), (1, 0), "first step of epoch {epoch} stalls");
                }
                other => panic!("expected MisBudgetExhausted, got {other:?}"),
            }
        }
    }

    #[test]
    fn error_display() {
        let e = DistError::StageDiverged { epoch: 2, stage: 3 };
        assert!(e.to_string().contains("stage 3"));
        let e = DistError::BadParameters { reason: "x".into() };
        assert!(e.to_string().contains("x"));
        let e = DistError::MisBudgetExhausted {
            epoch: 1,
            stage: 2,
            step: 3,
        };
        assert!(e.to_string().contains("step 3"));
    }
}
