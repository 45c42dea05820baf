//! The message-passing schedulers: the paper's distributed algorithms
//! (Sections 5–7, Figure 7) executed on `treenet-netsim`'s synchronous
//! engine, one protocol node per processor.
//!
//! | runner | logical twin | paper |
//! |---|---|---|
//! | [`run_distributed_tree_unit`] | `solve_tree_unit` | Theorem 5.3, `(7+ε)` |
//! | [`run_distributed_tree_arbitrary`] | `solve_tree_arbitrary` | Theorem 6.3, `(80+ε)` |
//! | [`run_distributed_line_unit`] | `solve_line_unit` | Theorem 7.1, `(4+ε)` |
//! | [`run_distributed_line_arbitrary`] | `solve_line_arbitrary` | Theorem 7.2, `(23+ε)` |
//! | [`run_distributed_auto`] | `solve_auto` | strongest applicable |
//!
//! Every runner is provably equivalent to its logical twin in
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
//!    driver supplies only the timing signal between rounds:
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
//!      neither terminate early nor miss termination.
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
//! running serially. The pre-PR serial, driver-counted formulation is
//! preserved as the executable oracle (`run_distributed_*_reference`,
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
//! use treenet_core::{solve_line_unit, SolverConfig};
//! use treenet_dist::{run_distributed_line_unit, DistConfig};
//! use treenet_model::workload::LineWorkload;
//!
//! let problem = LineWorkload::new(30, 10)
//!     .with_window_slack(2)
//!     .generate(&mut SmallRng::seed_from_u64(5));
//! let config = SolverConfig::default().with_epsilon(0.3).with_seed(5);
//! let logical = solve_line_unit(&problem, &config).unwrap();
//! let distributed = run_distributed_line_unit(&problem, &DistConfig::from(&config)).unwrap();
//! assert_eq!(logical.solution, distributed.solution);
//! assert_eq!(logical.lambda.to_bits(), distributed.lambda.to_bits());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod node;
mod reference;

use std::fmt;
use std::sync::Arc;

use node::{Mode, ProcessorNode, PublicInfo, SATISFACTION_GUARD};
use treenet_core::{
    auto_choice, echo_sweep_rounds, mis_tag, narrow_xi, prologue_rounds, stages_for, unit_xi,
    AutoChoice, RaiseRule, SolverConfig,
};
use treenet_decomp::{ConvergecastForest, LayeredDecomposition, Layering, Strategy};
use treenet_graph::{RootedTree, VertexId};
use treenet_mis::MisBackend;
use treenet_model::{HeightClass, InstanceId, Problem, Solution};
use treenet_netsim::{Engine, LossModel, Metrics, Topology};

pub use node::{descriptor_bits, Descriptor, DistMsg, RunTag};
pub use reference::{
    run_distributed_auto_reference, run_distributed_line_arbitrary_reference,
    run_distributed_line_unit_reference, run_distributed_tree_arbitrary_reference,
    run_distributed_tree_unit_reference,
};

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
/// * **solo in-network runner** (`run_distributed_tree_unit`,
///   `run_distributed_line_unit`):
///   `Metrics::rounds == compute + stalls + 1` (the `+1` is the setup
///   round exchanging demand descriptors; prologue and sweep messages
///   ride the counted rounds);
/// * **merged split runner** (`run_distributed_tree_arbitrary`,
///   `run_distributed_line_arbitrary`): the halves share one engine and
///   overlap, so
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
/// runners).
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

/// Which runner [`run_distributed_auto`] executed, plus its outcome.
#[derive(Clone, Debug)]
pub enum DistAutoRun {
    /// A single-rule run (unit-height problems).
    Single(DistOutcome),
    /// A wide/narrow split run (arbitrary-height problems).
    Split(DistCombinedOutcome),
}

/// Outcome of [`run_distributed_auto`]: the solution, which theorem
/// applied (shared with `treenet_core::solve_auto`), the measured λ, and
/// the underlying run.
#[derive(Clone, Debug)]
pub struct DistAutoOutcome {
    /// The extracted feasible solution.
    pub solution: Solution,
    /// The solver that was dispatched (same dispatch as `solve_auto`).
    pub choice: AutoChoice,
    /// Measured slackness λ — bit-identical to `AutoOutcome::lambda`.
    pub lambda: f64,
    /// The underlying run with its schedules and metrics.
    pub run: DistAutoRun,
}

/// Distributed-run failure.
#[derive(Clone, Debug, PartialEq)]
pub enum DistError {
    /// `ε` outside `(0, 1)`, or an a-priori `hmin` violated by a narrow
    /// demand.
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

pub(crate) fn validate(config: &DistConfig) -> Result<(), DistError> {
    if !(config.epsilon > 0.0 && config.epsilon < 1.0) {
        return Err(DistError::BadParameters {
            reason: format!("epsilon must lie in (0,1), got {}", config.epsilon),
        });
    }
    Ok(())
}

pub(crate) fn descriptor_of(problem: &Problem, a: treenet_model::DemandId) -> Descriptor {
    Descriptor {
        id: a,
        demand: *problem.demand(a),
        access: problem.access(a).to_vec(),
    }
}

pub(crate) fn rooted_views(problem: &Problem) -> Vec<RootedTree> {
    problem
        .networks()
        .map(|t| RootedTree::new(problem.network(t), VertexId(0)))
        .collect()
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

/// Public info over `layering`, plus the layered decomposition it
/// induces (for `Δ` and the group count — both public).
pub(crate) fn public_info(
    problem: &Problem,
    config: &DistConfig,
    layering: Layering,
) -> (Arc<PublicInfo>, LayeredDecomposition) {
    let layers = LayeredDecomposition::new(problem, &layering);
    let public = Arc::new(PublicInfo {
        rooted: rooted_views(problem),
        layering,
        seed: config.seed,
        backend: config.mis_backend,
        forest: ConvergecastForest::from_adjacency(&comm_adjacency(problem)),
    });
    (public, layers)
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

/// Parameters of one (sub-)run: its message namespace, stage factor,
/// raise rule, epoch count, and (for wide/narrow splits) the
/// participating height class.
struct HalfPlan {
    tag: RunTag,
    rule: RaiseRule,
    xi: f64,
    num_groups: u32,
    class: Option<HeightClass>,
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
    /// The demands of this half, ascending.
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
        1.0 - self.plan.xi.powi(stage as i32)
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

/// Per-half result of a merged execution.
struct HalfResult {
    solution: Solution,
    lambda: f64,
    final_unsatisfied: bool,
    schedule: DistSchedule,
}

/// Executes one in-network run: one engine pass over all halves, with
/// messages namespaced per half, termination detected by echo sweeps,
/// and (for split runs) the per-network combination decided by the
/// convergecast combiner. The driver's only outputs into the network are
/// the public timing signal; its only inputs are in-network aggregates
/// and the final results.
fn execute_in_network(
    problem: &Problem,
    config: &DistConfig,
    public: &Arc<PublicInfo>,
    plans: Vec<HalfPlan>,
) -> Result<(Vec<HalfResult>, Option<Solution>, Metrics), DistError> {
    let split = plans.len() > 1;
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
                true,
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
                .demands()
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
            if node.run_tag() != driver.plan.tag {
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
        results.push(HalfResult {
            solution: Solution::new(selected),
            lambda,
            final_unsatisfied,
            schedule: driver.schedule,
        });
    }

    Ok((results, combined, engine.metrics()))
}

/// Runs a single-rule in-network execution and wraps it as a
/// [`DistOutcome`].
fn run_solo(
    problem: &Problem,
    config: &DistConfig,
    public: &Arc<PublicInfo>,
    layers: &LayeredDecomposition,
) -> Result<DistOutcome, DistError> {
    let plan = HalfPlan {
        tag: RunTag::Primary,
        rule: RaiseRule::Unit,
        xi: unit_xi(layers.delta()),
        num_groups: layers.num_groups() as u32,
        class: None,
    };
    let (mut halves, _, metrics) = execute_in_network(problem, config, public, vec![plan])?;
    let half = halves.pop().expect("one half per solo run");
    Ok(DistOutcome {
        solution: half.solution,
        lambda: half.lambda,
        final_unsatisfied: half.final_unsatisfied,
        metrics,
        schedule: half.schedule,
    })
}

/// Resolves the narrow-run `hmin` through the single shared definition
/// [`treenet_core::resolve_narrow_hmin`] — the same collection order and
/// arithmetic as `solve_tree_arbitrary`/`solve_line_arbitrary`, so the
/// two sides derive the same `narrow_xi` by construction.
pub(crate) fn resolve_hmin(problem: &Problem, config: &DistConfig) -> Result<f64, DistError> {
    let narrow_ids: Vec<InstanceId> = problem
        .instances()
        .filter(|inst| problem.demand(inst.demand).height_class() == HeightClass::Narrow)
        .map(|inst| inst.id)
        .collect();
    treenet_core::resolve_narrow_hmin(problem, &narrow_ids, config.hmin)
        .map_err(|reason| DistError::BadParameters { reason })
}

/// The wide/narrow split shared by the arbitrary-height runners: both
/// halves as one merged, message-namespaced engine pass, then the
/// in-network per-network combination.
fn run_split(
    problem: &Problem,
    config: &DistConfig,
    public: &Arc<PublicInfo>,
    layers: &LayeredDecomposition,
) -> Result<DistCombinedOutcome, DistError> {
    let delta = layers.delta();
    let num_groups = layers.num_groups() as u32;
    let hmin = resolve_hmin(problem, config)?;
    let plans = vec![
        HalfPlan {
            tag: RunTag::Primary,
            rule: RaiseRule::Unit,
            xi: unit_xi(delta),
            num_groups,
            class: Some(HeightClass::Wide),
        },
        HalfPlan {
            tag: RunTag::Narrow,
            rule: RaiseRule::Narrow,
            xi: narrow_xi(delta, hmin),
            num_groups,
            class: Some(HeightClass::Narrow),
        },
    ];
    let (halves, combined, metrics) = execute_in_network(problem, config, public, plans)?;
    let mut iter = halves.into_iter();
    let (wide, narrow) = (
        iter.next().expect("wide half"),
        iter.next().expect("narrow half"),
    );
    Ok(DistCombinedOutcome {
        solution: combined.expect("split runs produce the combined solution in-network"),
        wide: DistRunReport {
            solution: wide.solution,
            lambda: wide.lambda,
            final_unsatisfied: wide.final_unsatisfied,
            schedule: wide.schedule,
        },
        narrow: DistRunReport {
            solution: narrow.solution,
            lambda: narrow.lambda,
            final_unsatisfied: narrow.final_unsatisfied,
            schedule: narrow.schedule,
        },
        metrics,
    })
}

/// Runs the unit-height tree scheduler (Theorem 5.3) as a synchronous
/// message-passing computation and returns the solution, the measured
/// slackness λ and the communication metrics. Stage and epoch boundaries
/// are detected in-network (echo sweeps on the convergecast forest).
///
/// Under `DistConfig::from(&solver_config)` the result equals
/// [`treenet_core::solve_tree_unit`] exactly: identical solutions and
/// bit-identical λ (see the crate docs for why).
///
/// # Errors
///
/// [`DistError::BadParameters`] for an out-of-range `ε`;
/// [`DistError::StageDiverged`] if a stage exceeds the step budget;
/// [`DistError::MisBudgetExhausted`] if the MIS backend stops making
/// progress (impossible for the shipped backends).
pub fn run_distributed_tree_unit(
    problem: &Problem,
    config: &DistConfig,
) -> Result<DistOutcome, DistError> {
    validate(config)?;
    let (public, layers) = public_info(
        problem,
        config,
        Layering::for_trees(problem, config.strategy),
    );
    run_solo(problem, config, &public, &layers)
}

/// Runs the unit-height line scheduler (Theorem 7.1, windows supported)
/// as a synchronous message-passing computation: Section-7 length-class
/// layering with `Δ ≤ 3` and `ξ = 8/9`, termination detected in-network.
///
/// Under `DistConfig::from(&solver_config)` the result equals
/// [`treenet_core::solve_line_unit`] exactly: identical solutions and
/// bit-identical λ.
///
/// # Errors
///
/// Same contract as [`run_distributed_tree_unit`].
///
/// # Panics
///
/// Panics if some network is not a canonical line.
pub fn run_distributed_line_unit(
    problem: &Problem,
    config: &DistConfig,
) -> Result<DistOutcome, DistError> {
    validate(config)?;
    let (public, layers) = public_info(problem, config, Layering::for_lines(problem));
    run_solo(problem, config, &public, &layers)
}

/// Runs the arbitrary-height tree scheduler (Theorem 6.3) as one merged
/// message-passing computation (wide via the unit rule, narrow via the
/// narrow rule, sharing the engine through namespaced messages) plus the
/// in-network per-network combiner.
///
/// Under `DistConfig::from(&solver_config)` the result equals
/// [`treenet_core::solve_tree_arbitrary`] exactly: identical combined
/// solutions and bit-identical wide/narrow λ.
///
/// # Errors
///
/// Same contract as [`run_distributed_tree_unit`], plus
/// [`DistError::BadParameters`] when an a-priori `hmin` is violated.
pub fn run_distributed_tree_arbitrary(
    problem: &Problem,
    config: &DistConfig,
) -> Result<DistCombinedOutcome, DistError> {
    validate(config)?;
    let (public, layers) = public_info(
        problem,
        config,
        Layering::for_trees(problem, config.strategy),
    );
    run_split(problem, config, &public, &layers)
}

/// Runs the arbitrary-height line scheduler (Theorem 7.2) as one merged
/// message-passing computation over the Section-7 length-class layering
/// plus the in-network per-network combiner.
///
/// Under `DistConfig::from(&solver_config)` the result equals
/// [`treenet_core::solve_line_arbitrary`] exactly: identical combined
/// solutions and bit-identical wide/narrow λ.
///
/// # Errors
///
/// Same contract as [`run_distributed_tree_arbitrary`].
///
/// # Panics
///
/// Panics if some network is not a canonical line.
pub fn run_distributed_line_arbitrary(
    problem: &Problem,
    config: &DistConfig,
) -> Result<DistCombinedOutcome, DistError> {
    validate(config)?;
    let (public, layers) = public_info(problem, config, Layering::for_lines(problem));
    run_split(problem, config, &public, &layers)
}

/// Dispatches to the strongest applicable distributed runner by
/// inspecting the problem — exactly the dispatch of
/// [`treenet_core::solve_auto`]: line-networks get the `Δ = 3` length
/// classes, unit heights skip the wide/narrow split.
///
/// Under `DistConfig::from(&solver_config)` the result equals
/// `solve_auto` exactly: same choice, identical solutions, bit-identical
/// λ.
///
/// # Errors
///
/// Same contract as the dispatched runner.
pub fn run_distributed_auto(
    problem: &Problem,
    config: &DistConfig,
) -> Result<DistAutoOutcome, DistError> {
    // The dispatch is the single shared definition `auto_choice`, so the
    // logical and message-passing dispatches cannot drift.
    let choice = auto_choice(problem);
    let (solution, lambda, run) = match choice {
        AutoChoice::LineUnit => {
            let out = run_distributed_line_unit(problem, config)?;
            (out.solution.clone(), out.lambda, DistAutoRun::Single(out))
        }
        AutoChoice::LineArbitrary => {
            let out = run_distributed_line_arbitrary(problem, config)?;
            (out.solution.clone(), out.lambda(), DistAutoRun::Split(out))
        }
        AutoChoice::TreeUnit => {
            let out = run_distributed_tree_unit(problem, config)?;
            (out.solution.clone(), out.lambda, DistAutoRun::Single(out))
        }
        AutoChoice::TreeArbitrary => {
            let out = run_distributed_tree_arbitrary(problem, config)?;
            (out.solution.clone(), out.lambda(), DistAutoRun::Split(out))
        }
    };
    Ok(DistAutoOutcome {
        solution,
        choice,
        lambda,
        run,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use treenet_core::{
        solve_auto, solve_line_arbitrary, solve_line_unit, solve_tree_arbitrary, solve_tree_unit,
    };
    use treenet_model::workload::{HeightMode, LineWorkload, TreeWorkload};

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

    #[test]
    fn equals_logical_execution_bitwise() {
        for seed in 0..8u64 {
            let p = problem(seed);
            let cfg = SolverConfig::default().with_epsilon(0.3).with_seed(seed);
            let logical = solve_tree_unit(&p, &cfg).unwrap();
            let distributed = run_distributed_tree_unit(&p, &DistConfig::from(&cfg)).unwrap();
            assert_eq!(logical.solution, distributed.solution, "seed {seed}");
            assert_eq!(
                logical.lambda.to_bits(),
                distributed.lambda.to_bits(),
                "seed {seed}: λ {} vs {}",
                logical.lambda,
                distributed.lambda
            );
            assert!(!distributed.final_unsatisfied);
            distributed.solution.verify(&p).unwrap();
        }
    }

    #[test]
    fn line_unit_equals_logical_execution_bitwise() {
        for seed in 0..8u64 {
            let p = line_problem(seed);
            let cfg = SolverConfig::default().with_epsilon(0.3).with_seed(seed);
            let logical = solve_line_unit(&p, &cfg).unwrap();
            let distributed = run_distributed_line_unit(&p, &DistConfig::from(&cfg)).unwrap();
            assert_eq!(logical.solution, distributed.solution, "seed {seed}");
            assert_eq!(
                logical.lambda.to_bits(),
                distributed.lambda.to_bits(),
                "seed {seed}: λ {} vs {}",
                logical.lambda,
                distributed.lambda
            );
            assert_eq!(
                distributed.schedule.total_rounds(),
                logical.stats.comm_rounds,
                "seed {seed}"
            );
            assert!(!distributed.final_unsatisfied);
            distributed.solution.verify(&p).unwrap();
        }
    }

    #[test]
    fn line_arbitrary_equals_logical_execution_bitwise() {
        for seed in 0..6u64 {
            let p = mixed_line_problem(seed);
            let cfg = SolverConfig::default().with_epsilon(0.3).with_seed(seed);
            let logical = solve_line_arbitrary(&p, &cfg).unwrap();
            let distributed = run_distributed_line_arbitrary(&p, &DistConfig::from(&cfg)).unwrap();
            assert_eq!(logical.solution, distributed.solution, "seed {seed}");
            assert_eq!(
                logical.wide.lambda.to_bits(),
                distributed.wide.lambda.to_bits(),
                "seed {seed} (wide)"
            );
            assert_eq!(
                logical.narrow.lambda.to_bits(),
                distributed.narrow.lambda.to_bits(),
                "seed {seed} (narrow)"
            );
            assert_eq!(
                distributed.wide.schedule.total_rounds(),
                logical.wide.stats.comm_rounds
            );
            assert_eq!(
                distributed.narrow.schedule.total_rounds(),
                logical.narrow.stats.comm_rounds
            );
            distributed.solution.verify(&p).unwrap();
        }
    }

    #[test]
    fn tree_arbitrary_equals_logical_execution_bitwise() {
        for seed in 0..4u64 {
            let p = TreeWorkload::new(10, 8)
                .with_networks(2)
                .with_heights(HeightMode::Bimodal {
                    narrow_frac: 0.5,
                    hmin: 0.25,
                })
                .generate(&mut SmallRng::seed_from_u64(seed));
            let cfg = SolverConfig::default().with_epsilon(0.3).with_seed(seed);
            let logical = solve_tree_arbitrary(&p, &cfg).unwrap();
            let distributed = run_distributed_tree_arbitrary(&p, &DistConfig::from(&cfg)).unwrap();
            assert_eq!(logical.solution, distributed.solution, "seed {seed}");
            assert_eq!(
                logical.lambda().to_bits(),
                distributed.lambda().to_bits(),
                "seed {seed}"
            );
            distributed.solution.verify(&p).unwrap();
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

    #[test]
    fn in_network_equals_reference_oracle() {
        // The driver-counted serial path is the executable spec: same
        // solutions, bit-identical λ, and identical compute schedules
        // (steps + pops; the oracle has no sweeps by construction).
        for seed in 0..4u64 {
            let p = problem(seed);
            let cfg = DistConfig {
                epsilon: 0.3,
                seed,
                ..DistConfig::default()
            };
            let fast = run_distributed_tree_unit(&p, &cfg).unwrap();
            let oracle = run_distributed_tree_unit_reference(&p, &cfg).unwrap();
            assert_eq!(fast.solution, oracle.solution, "seed {seed}");
            assert_eq!(fast.lambda.to_bits(), oracle.lambda.to_bits());
            assert_eq!(fast.schedule.steps, oracle.schedule.steps);
            assert_eq!(fast.schedule.pops, oracle.schedule.pops);
            assert_eq!(oracle.schedule.sweeps, 0);
            assert_eq!(oracle.metrics.rounds, oracle.schedule.total_rounds() + 1);

            let p = mixed_line_problem(seed);
            let fast = run_distributed_line_arbitrary(&p, &cfg).unwrap();
            let oracle = run_distributed_line_arbitrary_reference(&p, &cfg).unwrap();
            assert_eq!(fast.solution, oracle.solution, "seed {seed}");
            for (label, a, b) in [
                ("wide", &fast.wide, &oracle.wide),
                ("narrow", &fast.narrow, &oracle.narrow),
            ] {
                assert_eq!(a.solution, b.solution, "seed {seed} {label}");
                assert_eq!(
                    a.lambda.to_bits(),
                    b.lambda.to_bits(),
                    "seed {seed} {label}"
                );
                assert_eq!(a.schedule.steps, b.schedule.steps, "seed {seed} {label}");
                assert_eq!(a.schedule.pops, b.schedule.pops, "seed {seed} {label}");
            }
            // Serial reference: two engines, one setup round each.
            assert_eq!(
                oracle.metrics.rounds,
                oracle.wide.schedule.total_rounds() + oracle.narrow.schedule.total_rounds() + 2
            );
        }
    }

    #[test]
    fn merged_split_overlaps_the_halves() {
        // The merged engine interleaves the halves: its wall-clock rounds
        // follow the documented max-relation, strictly below the serial
        // reference's sum whenever both halves do real work.
        let p = mixed_line_problem(1);
        let cfg = DistConfig {
            epsilon: 0.3,
            seed: 1,
            ..DistConfig::default()
        };
        let merged = run_distributed_line_arbitrary(&p, &cfg).unwrap();
        assert_eq!(
            merged.metrics.rounds,
            merged
                .wide
                .schedule
                .engine_rounds()
                .max(merged.narrow.schedule.engine_rounds())
                + 1
                + COMBINE_ROUNDS
        );
        let reference = run_distributed_line_arbitrary_reference(&p, &cfg).unwrap();
        assert!(
            merged.metrics.rounds
                < reference.metrics.rounds
                    + merged.wide.schedule.control_rounds()
                    + merged.narrow.schedule.control_rounds(),
            "merged {} vs serial {} (+control)",
            merged.metrics.rounds,
            reference.metrics.rounds
        );
    }

    #[test]
    fn comm_rounds_match_logical_accounting() {
        // The logical RunStats::comm_rounds equals the schedule's compute
        // round count, and the engine adds the setup round plus the
        // in-network control rounds.
        for seed in 0..4u64 {
            let p = problem(seed);
            let cfg = SolverConfig::default().with_epsilon(0.3).with_seed(seed);
            let logical = solve_tree_unit(&p, &cfg).unwrap();
            let distributed = run_distributed_tree_unit(&p, &DistConfig::from(&cfg)).unwrap();
            assert_eq!(
                distributed.schedule.total_rounds(),
                logical.stats.comm_rounds,
                "seed {seed}"
            );
            assert_eq!(
                distributed.metrics.rounds,
                distributed.schedule.engine_rounds() + 1
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let p = problem(3);
        let a = run_distributed_tree_unit(&p, &DistConfig::default()).unwrap();
        let b = run_distributed_tree_unit(&p, &DistConfig::default()).unwrap();
        assert_eq!(a.solution, b.solution);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.schedule, b.schedule);
    }

    #[test]
    fn rejects_bad_epsilon() {
        let p = problem(0);
        for eps in [0.0, 1.0, -0.5, 2.0] {
            let cfg = DistConfig {
                epsilon: eps,
                ..DistConfig::default()
            };
            assert!(matches!(
                run_distributed_tree_unit(&p, &cfg),
                Err(DistError::BadParameters { .. })
            ));
            assert!(matches!(
                run_distributed_line_unit(&line_problem(0), &cfg),
                Err(DistError::BadParameters { .. })
            ));
        }
    }

    #[test]
    fn a_priori_hmin_is_validated() {
        let p = TreeWorkload::new(10, 8)
            .with_heights(HeightMode::Uniform { hmin: 0.3 })
            .generate(&mut SmallRng::seed_from_u64(8));
        // Valid a-priori bound reproduces the logical run.
        let cfg = SolverConfig::default()
            .with_epsilon(0.3)
            .with_seed(8)
            .with_hmin(0.25);
        let logical = solve_tree_arbitrary(&p, &cfg).unwrap();
        let distributed = run_distributed_tree_arbitrary(&p, &DistConfig::from(&cfg)).unwrap();
        assert_eq!(logical.solution, distributed.solution);
        assert_eq!(logical.lambda().to_bits(), distributed.lambda().to_bits());
        // A bound above some narrow height is rejected, like the logical
        // solver.
        if p.min_height() < 0.5 {
            let bad = DistConfig {
                hmin: Some(0.6),
                ..DistConfig::from(&cfg)
            };
            assert!(matches!(
                run_distributed_tree_arbitrary(&p, &bad),
                Err(DistError::BadParameters { .. })
            ));
        }
    }

    #[test]
    fn deterministic_backend_also_reproduces_logical_run() {
        let p = problem(5);
        let cfg = SolverConfig::default()
            .with_epsilon(0.3)
            .with_seed(5)
            .with_mis_backend(MisBackend::DeterministicGreedy);
        let logical = solve_tree_unit(&p, &cfg).unwrap();
        let distributed = run_distributed_tree_unit(&p, &DistConfig::from(&cfg)).unwrap();
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
            run_distributed_tree_unit(&p, &cfg),
            run_distributed_line_unit(&p, &cfg),
            run_distributed_tree_unit_reference(&p, &cfg),
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
