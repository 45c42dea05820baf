//! The two-phase primal-dual framework (Section 3.2) and the distributed
//! first-phase schedule of Section 5 (epochs → stages → steps).
//!
//! The runner is parametrized by
//!
//! * a [`LayeredDecomposition`] supplying the epoch grouping and the
//!   critical edges `π(d)` (derived when `d` is raised),
//! * a [`RaiseRule`] — the unit scheme of Section 3 or the narrow scheme
//!   of Section 6.1,
//! * a [`FrameworkConfig`] fixing `ε`, the stage factor `ξ`, and the
//!   common-randomness seed.
//!
//! Epoch `k` processes group `G_k`. Stage `j` of an epoch drives every
//! group member to `(1 - ξ^j)`-satisfaction; each step computes an MIS of
//! the still-unsatisfied members' conflict graph (Luby with common
//! randomness — bit-identical to the message-passing execution in
//! `treenet-dist`) and raises all its members simultaneously, pushing the
//! set onto the framework stack. The second phase pops the stack and
//! greedily extracts a feasible solution.
//!
//! # The incremental phase-1 engine
//!
//! [`run_two_phase`] does *not* rebuild its MIS input from scratch on
//! every step, and it does no work sized by the problem. Once per call it
//! builds a **participant frame**, the [`DualState`] over the
//! participants ([`DualState::for_participants`]: an `α` per participant
//! demand, a dense `β` array per touched network, an LHS cache slot per
//! participant, started at `+0.0` without walking a path), and buckets the
//! participants by epoch group. The conflict-graph grouping
//! ([`ConflictGraph::build`] sorts its members instead of bucketing them
//! into problem-sized tables) and the phase-2 [`SolutionTracker`] touch
//! only what the participants touch, so a call costs
//! `O(|P| + Σ_{d∈P} |path(d)| + Σ_{touched T} |E(T)|)` plus the work of
//! its steps.
//!
//! Per epoch it builds one CSR [`ConflictGraph`] over the group's active
//! members and tracks their satisfaction through the frame's LHS cache.
//! Each step runs the MIS on that graph masked to the still-unsatisfied
//! members, as `treenet-dist`'s processors do (a satisfied instance never
//! announces itself), so a step builds nothing. Three invariants keep the
//! execution bit-identical to the from-scratch formulation (preserved as
//! [`run_two_phase_reference`]) and therefore to the message-passing run
//! in `treenet-dist`:
//!
//! 1. **The mask is the induced subgraph.** A Luby iteration's win test
//!    skips inactive neighbours and deactivating an inactive vertex does
//!    nothing, so each iteration picks the same winners as on the graph
//!    the reference rebuilds over the unsatisfied members. Winners are
//!    collected in ascending epoch order and draws depend only on
//!    canonical keys, so the raised set, its order and the iteration
//!    count are unchanged.
//! 2. **Refresh-by-recompute.** A raise never *adds deltas into* a cached
//!    LHS; it re-evaluates the LHS (same summation order as
//!    [`DualState::lhs`] and the distributed nodes) of every epoch member
//!    whose constraint the raise may have touched: the raised member and
//!    its epoch-graph neighbours, which are its demand's members (α) and,
//!    by the layered property, every member overlapping it — each uses
//!    one of its critical edges (β). A participant outside the epoch is
//!    re-evaluated when it is next read instead: at its own epoch's
//!    filter, or by the final λ read if it can lower λ.
//! 3. **Monotone activity.** Duals only grow, so a member leaves the
//!    unsatisfied set and never returns within a stage; stage boundaries
//!    re-sweep the cached satisfactions against the new threshold — the
//!    same predicate, same guard, same float compares as the reference.
//!    A stage sweeps only when the epoch *floor* is below its threshold:
//!    the least cached satisfaction of an active member, taken by the
//!    epoch filter and re-taken by every sweep. Otherwise the sweep would
//!    find no one unsatisfied, so the epoch jumps past the stage, which
//!    still counts in [`RunStats::stages`]. Satisfaction only grows, so a
//!    floor taken before later raises is only ever low: after a stage
//!    that stepped, the next stage sweeps and re-takes it. The narrow
//!    rule's `ξ = c/(c+hmin)` schedules hundreds of stages per epoch for
//!    a handful of steps, so most stages are empty; the thresholds
//!    `1 - ξ^j` they compare against are computed once per run, not once
//!    per stage.
//!
//! λ is read off the cache at the end of phase 1. Every cache slot holds
//! a lower bound on its satisfaction: the `+0.0` fill or an exact LHS
//! from an earlier refresh, since duals only grow and every float
//! operation of the fixed-order `α + h·Σβ` and the `/p` is monotone. The
//! last epoch's active members were kept exact, so λ starts as their
//! minimum; any other slot is re-walked only if its bound is below the
//! running minimum, and is flagged stale otherwise. The minimum of
//! non-negative, non-NaN values does not depend on the order of the fold,
//! so λ is bit for bit the minimum over freshly walked paths, while only a
//! handful of the stale slots are walked. Communication rounds are
//! accounted through the shared [`step_comm_rounds`] formula also used by
//! `treenet-dist`.

use crate::certificate::certified_ratio;
use crate::dual::{DualForm, DualState};
use std::fmt;
use treenet_decomp::LayeredDecomposition;
use treenet_graph::EdgeId;
use treenet_mis::{CsrAdjacency, MisBackend, MisScratch};
use treenet_model::conflict::ConflictGraph;
use treenet_model::{InstanceId, Problem, Solution, SolutionTracker};

/// How dual variables are raised for a demand instance with slack `s` and
/// critical set `π(d)` (Sections 3.2 and 6.1).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum RaiseRule {
    /// Unit height: `δ = s/(|π|+1)`; `α += δ`; `β(e) += δ` on critical
    /// edges. Objective grows by at most `(Δ+1)·δ` per raise.
    Unit,
    /// Narrow instances: `δ = s/(1 + 2h|π|²)`; `α += δ`;
    /// `β(e) += 2|π|·δ` on critical edges. Objective grows by at most
    /// `(2Δ²+1)·δ` per raise.
    Narrow,
}

impl RaiseRule {
    /// The matching dual form.
    pub fn dual_form(self) -> DualForm {
        match self {
            RaiseRule::Unit => DualForm::Unit,
            RaiseRule::Narrow => DualForm::Capacitated,
        }
    }

    /// The per-raise objective growth cap as a function of `Δ`:
    /// `Δ+1` (unit, Lemma 3.1) or `2Δ²+1` (narrow, Lemma 6.1).
    pub fn objective_cap(self, delta: usize) -> f64 {
        match self {
            RaiseRule::Unit => (delta + 1) as f64,
            RaiseRule::Narrow => (2 * delta * delta + 1) as f64,
        }
    }

    /// The raise amount `δ(d)` for an instance with slack `slack`,
    /// height `height` (ignored by the unit rule) and `|π(d)| = pi`.
    ///
    /// This is the single definition of the raising arithmetic, shared
    /// with the message-passing processors in `treenet-dist` so the two
    /// executions compute bit-identical floats.
    #[inline]
    pub fn delta_for(self, slack: f64, height: f64, pi: f64) -> f64 {
        match self {
            RaiseRule::Unit => slack / (pi + 1.0),
            RaiseRule::Narrow => slack / (1.0 + 2.0 * height * pi * pi),
        }
    }

    /// The `β` increment applied to each critical edge for a raise of
    /// `delta` with `|π(d)| = pi`: `δ` (unit) or `2|π|·δ` (narrow). Shared
    /// with `treenet-dist` like [`RaiseRule::delta_for`].
    #[inline]
    pub fn beta_increment(self, pi: f64, delta: f64) -> f64 {
        match self {
            RaiseRule::Unit => delta,
            RaiseRule::Narrow => 2.0 * pi * delta,
        }
    }

    /// Raises instance `d` to tightness; returns `δ(d)`.
    ///
    /// Public so oracle tests and alternative runners can replay the
    /// exact raising arithmetic of the framework.
    ///
    /// # Panics
    ///
    /// Panics if `d`'s demand or network lies outside `dual`'s frame.
    pub fn raise(
        self,
        problem: &Problem,
        dual: &mut DualState,
        d: InstanceId,
        critical: &[treenet_graph::EdgeId],
    ) -> f64 {
        let slots = dual.var_slots_of(problem, d);
        self.raise_in(problem, dual, d, slots, critical)
    }

    /// [`RaiseRule::raise`] for `d` whose demand and network sit in the
    /// given `(α, β)` slots of `dual`.
    fn raise_in(
        self,
        problem: &Problem,
        dual: &mut DualState,
        d: InstanceId,
        slots: (usize, usize),
        critical: &[treenet_graph::EdgeId],
    ) -> f64 {
        let slack = problem.profit_of(d) - dual.lhs_in(problem, d, slots);
        debug_assert!(slack > 0.0, "raised instances must be unsatisfied");
        let pi = critical.len() as f64;
        let delta = self.delta_for(slack, problem.height_of(d), pi);
        dual.raise_in(slots, delta, critical, self.beta_increment(pi, delta));
        delta
    }
}

/// Configuration of a framework run.
#[derive(Clone, Debug)]
pub struct FrameworkConfig {
    /// Target slackness: run stages until everything is `(1-ε)`-satisfied.
    /// Must lie in `(0, 1)`.
    pub epsilon: f64,
    /// Stage shrink factor `ξ ∈ (0, 1)`: stage `j` targets
    /// `(1-ξ^j)`-satisfaction. Section 5 uses `14/15` for trees, Section 7
    /// uses `8/9` for lines, Section 6 uses `c/(c+hmin)`.
    pub xi: f64,
    /// Seed of the common-randomness hash driving Luby's MIS.
    pub seed: u64,
    /// Safety valve: abort if a stage exceeds this many steps (`None`
    /// disables). Lemma 5.1 bounds steps by `1 + log₂(pmax/pmin)` — the
    /// default in [`FrameworkConfig::default`] is far above that.
    pub max_steps_per_stage: Option<u64>,
    /// Record the raise order for interference-property checking.
    pub record_trace: bool,
    /// Which MIS routine supplies the `Time(MIS)` factor.
    pub mis_backend: MisBackend,
}

impl Default for FrameworkConfig {
    fn default() -> Self {
        FrameworkConfig {
            epsilon: 0.1,
            xi: 14.0 / 15.0,
            seed: 0x5eed,
            max_steps_per_stage: Some(100_000),
            record_trace: false,
            mis_backend: MisBackend::Luby,
        }
    }
}

/// One recorded raise (for interference checking and diagnostics).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct RaiseEvent {
    /// The raised instance.
    pub instance: InstanceId,
    /// The raise amount `δ(d)`.
    pub delta: f64,
    /// Epoch (1-based), stage (1-based), step (0-based) of the raise.
    pub at: (u32, u32, u64),
}

/// Counters of a framework run — the quantities Theorems 5.3/6.3/7.1/7.2
/// bound.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Epochs executed (= number of non-empty groups scanned).
    pub epochs: u64,
    /// Total stages across epochs.
    pub stages: u64,
    /// Total steps (framework iterations) across stages.
    pub steps: u64,
    /// Largest step count of any single stage (Lemma 5.1 bounds this by
    /// `O(log(pmax/pmin))`).
    pub max_steps_in_stage: u64,
    /// Total Luby iterations across all MIS computations (`Time(MIS)`
    /// accounting).
    pub mis_rounds: u64,
    /// Number of raise operations.
    pub raises: u64,
    /// Synchronous communication rounds of the equivalent message-passing
    /// execution: per step, two rounds per Luby iteration plus one round
    /// to broadcast the new dual values, plus one round per phase-2 stack
    /// pop.
    pub comm_rounds: u64,
}

/// Result of a framework run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The feasible solution extracted by the second phase.
    pub solution: Solution,
    /// The dual assignment at the end of the first phase, held in the
    /// run's participant frame (reads answer every id; zero outside).
    pub dual: DualState,
    /// Round/step counters.
    pub stats: RunStats,
    /// The measured slackness λ: the minimum satisfaction ratio over all
    /// participating instances (≥ `1 - ε` when the run succeeds).
    pub lambda: f64,
    /// The critical set size `Δ` of the layered decomposition used.
    pub delta: usize,
    /// The per-raise objective cap `Δ+1` (unit) or `2Δ²+1` (narrow) —
    /// dividing by λ gives the certified approximation factor.
    pub objective_cap: f64,
    /// Raise order, when tracing was requested.
    pub trace: Option<Vec<RaiseEvent>>,
    /// The stack of independent sets as pushed in phase 1 (innermost
    /// last); kept for the distributed equivalence tests.
    pub stack: Vec<StackEntry>,
}

/// One stack entry: the independent set raised in one step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StackEntry {
    /// (epoch, stage, step) tuple identifying the framework iteration.
    pub at: (u32, u32, u64),
    /// The raised independent set.
    pub instances: Vec<InstanceId>,
}

impl Outcome {
    /// Profit `p(S)` of the extracted solution.
    pub fn profit(&self, problem: &Problem) -> f64 {
        self.solution.profit(problem)
    }

    /// Certified upper bound on `p(OPT)`: `val(α,β)/λ` (weak duality).
    pub fn opt_upper_bound(&self) -> f64 {
        self.dual.opt_upper_bound(self.lambda)
    }

    /// Certified approximation factor `opt_upper_bound / p(S)` (∞ for an
    /// empty solution with positive dual value).
    pub fn certified_ratio(&self, problem: &Problem) -> f64 {
        certified_ratio(self.opt_upper_bound(), self.profit(problem))
    }
}

/// Framework failure.
#[derive(Clone, Debug, PartialEq)]
pub enum FrameworkError {
    /// `ε` or `ξ` outside `(0, 1)`.
    BadParameters {
        /// Human-readable reason.
        reason: String,
    },
    /// A stage exceeded [`FrameworkConfig::max_steps_per_stage`].
    StageDiverged {
        /// Epoch (1-based).
        epoch: u32,
        /// Stage (1-based).
        stage: u32,
    },
}

impl fmt::Display for FrameworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameworkError::BadParameters { reason } => write!(f, "bad parameters: {reason}"),
            FrameworkError::StageDiverged { epoch, stage } => {
                write!(f, "stage {stage} of epoch {epoch} exceeded the step budget")
            }
        }
    }
}

impl std::error::Error for FrameworkError {}

/// Tolerance for satisfaction comparisons: an instance counts as
/// `ξ`-unsatisfied only if its LHS is below `ξ·p(d)` by more than this
/// relative guard, keeping float jitter from spinning the step loop.
/// Public because the message-passing nodes in `treenet-dist` must apply
/// the *same* guard for participation decisions to be bit-identical (the
/// sequential and Bar-Noy solvers share it too).
pub const SATISFACTION_GUARD: f64 = 1e-9;

/// Communication rounds of one framework step: two per Luby iteration
/// (`Joined` raises, then `Died` cleanups) plus one step-boundary round
/// broadcasting participation. This is the single definition shared by
/// [`RunStats::comm_rounds`] accounting here and by
/// `treenet-dist`'s schedule accounting, so the two can't silently
/// diverge.
#[inline]
pub fn step_comm_rounds(luby_rounds: u64) -> u64 {
    2 * luby_rounds + 1
}

/// Communication rounds of one in-network termination-detection sweep
/// (convergecast + echo broadcast) over a convergecast forest of the
/// given height: a report climbs `height` hops, the root's verdict
/// descends `height` hops, and the deepest processors need one more
/// round to consume it — `2·height + 1` rounds, or zero when every
/// component is a singleton (each processor *is* its root and resolves
/// the verdict locally, with no messages at all).
///
/// This is the single definition shared by the `treenet-dist` schedule
/// accounting and its metrics tests, so the documented round relation
/// cannot silently drift from the implementation.
#[inline]
pub fn echo_sweep_rounds(height: u32) -> u64 {
    if height == 0 {
        0
    } else {
        2 * height as u64 + 1
    }
}

/// Upper bound on the link-layer recovery slots the reliable-delivery
/// sublayer (`treenet-netsim`'s loss-model path) may add to a run that
/// suffered `dropped` dropped and `delayed` delayed transmissions under
/// a sliding send window of `window` in-flight copies per packet:
/// `2 · (dropped + delayed)` for `window ≥ 2`, degrading to the
/// stop-and-wait `4 · (dropped + delayed)` at `window ≤ 1`.
///
/// Derivation. A round only enters recovery when its first slot lost or
/// delayed a transmission, so recovery *episodes* number at most
/// `dropped + delayed`. With `window ≥ 2` the ARQ retransmits an
/// unacknowledged packet in **every** recovery slot until `window`
/// copies are in flight (eager pipelining), so each slot a packet stays
/// undelivered consumes one fresh loss event of that packet — copies are
/// only re-lost, never left waiting on a timer — and a delayed copy
/// occupies exactly one slot before landing. Past the window the
/// two-slot pacing timer takes over, costing at most two slots per
/// further event. Either way every charged slot is attributable to a
/// distinct drop or delay plus at most one trailing pacing slot per
/// event: `slots ≤ 2·(dropped + delayed)`. At `window ≤ 1` the eager
/// phase is empty and only the two-slot timer drives recovery; any two
/// consecutive slots without a fresh loss event finish an episode, so an
/// episode spans at most `2·(events_inside + 1)` slots and summing gives
/// `slots ≤ 2·events + 2·episodes ≤ 4·(dropped + delayed)`. In both
/// regimes the bound is zero when nothing was lost — the zero-overhead
/// passthrough at `p = 0`.
///
/// `dropped`/`delayed` count *transmissions* (originals, retransmissions
/// and proactive redundant copies alike), which only loosens the bound.
/// This is the single shared definition used by the fault-injection
/// proptests in `treenet-dist` and the `exp_f_dist_loss` experiment, so
/// the documented bound cannot drift from what is asserted.
#[inline]
pub fn retransmit_round_bound(dropped: u64, delayed: u64, window: u64) -> u64 {
    let per_event = if window >= 2 { 2u64 } else { 4u64 };
    per_event.saturating_mul(dropped.saturating_add(delayed))
}

/// Communication rounds of the charged BFS/leader-election prologue that
/// builds the convergecast forest in-network by flooding
/// `(candidate root, distance)` pairs: a node at depth `d` of the final
/// forest adopts its true `(root, d)` label by round `d + 1` (the
/// minimum root id travels one hop per round and every improvement is
/// rebroadcast), so after `height + 1` rounds all labels are final and
/// one more round delivers the last rebroadcasts — after which every
/// node also knows its neighbors' final distances and can resolve its
/// parent (smallest-id neighbor one layer up) locally. `height + 2`
/// rounds in total, or zero when every component is a singleton (an
/// isolated processor is its own root and sends nothing).
#[inline]
pub fn prologue_rounds(height: u32) -> u64 {
    if height == 0 {
        0
    } else {
        height as u64 + 2
    }
}

/// Runs the two-phase framework over `participants` (pass all instances
/// for the plain algorithm; subsets are used by the wide/narrow combiner
/// and the online engine's components).
///
/// # Errors
///
/// [`FrameworkError::BadParameters`] for out-of-range `ε`/`ξ`;
/// [`FrameworkError::StageDiverged`] if a stage exceeds the step budget
/// (indicates a broken layered decomposition).
///
/// # Panics
///
/// Panics unless `participants` is strictly ascending.
pub fn run_two_phase(
    problem: &Problem,
    layers: &LayeredDecomposition,
    rule: RaiseRule,
    config: &FrameworkConfig,
    participants: &[InstanceId],
) -> Result<Outcome, FrameworkError> {
    validate(config)?;
    // b = smallest integer with ξ^b ≤ ε.
    let stages_per_epoch = stages_for(config.epsilon, config.xi);

    // The participant frame: everything below is indexed by cache slot
    // (the participant's position), never by a problem-wide id.
    let mut dual = DualState::for_participants(problem, rule.dual_form(), participants);
    let mut stats = RunStats::default();
    let mut stack: Vec<StackEntry> = Vec::new();
    let mut trace: Option<Vec<RaiseEvent>> = config.record_trace.then(Vec::new);

    let num_groups = layers.num_groups() as u32;
    let groups = Groups::new(layers, participants);

    // Scratch shared across every epoch/stage/step — after the first
    // steps at the high-water mark, the steady-state step loop performs
    // no allocation beyond the raised sets it hands to the stack.
    let mut mis_scratch = MisScratch::default();
    let mut mis_buf: Vec<u32> = Vec::new();
    let mut epoch_keys: Vec<u64> = Vec::new();
    let mut is_unsat: Vec<bool> = Vec::new();
    // Current-epoch members whose cached LHS went stale during the step;
    // refreshed (once each) and re-bucketed at the step boundary.
    let mut stale_members: Vec<u32> = Vec::new();
    // Members that can still participate in the current epoch (below the
    // final stage threshold at epoch start): their slots and ids.
    let mut active_members: Vec<u32> = Vec::new();
    let mut active_ids: Vec<InstanceId> = Vec::new();
    // π(d) of the instance being raised.
    let mut pi_buf: Vec<EdgeId> = Vec::new();
    // The stage thresholds, guard subtracted: stage `j` has a member
    // unsatisfied iff its satisfaction is below `bars[j - 1]`. Every
    // epoch compares against the same values, so they are computed once
    // per run — and not at all for an empty run, which has no epoch.
    let bars: Vec<f64> = if participants.is_empty() {
        Vec::new()
    } else {
        (1..=stages_per_epoch)
            .map(|j| stage_threshold(config.xi, j) - SATISFACTION_GUARD)
            .collect()
    };

    // ---- First phase: epochs / stages / steps (Figure 7). ----
    for k in 1..=num_groups {
        let members = groups.of(k);
        if members.is_empty() {
            continue;
        }
        stats.epochs += 1;
        // Every stage of the epoch counts, stepped or skipped.
        stats.stages += u64::from(stages_per_epoch);
        // Epoch filter: satisfaction only ever grows, so a member already
        // `(1-ξ^b)`-satisfied (the *final* stage threshold) can never be
        // unsatisfied at any stage of this epoch — raises from earlier
        // epochs typically retire most of a group before it starts. Only
        // the potential participants enter the epoch graph.
        let final_bar = bars[bars.len() - 1];
        active_members.clear();
        // The epoch floor: the least cached satisfaction of an active
        // member as of the last pass over them (this filter or a stage
        // sweep). Satisfaction only grows, so a floor taken before later
        // raises can only be low: a stage whose threshold it meets has
        // no one unsatisfied and nothing to sweep.
        let mut floor = f64::INFINITY;
        for &i in members {
            // A member was never active before its own epoch, so its slot
            // still holds the zero fill: exact until the first raise.
            if stats.raises > 0 {
                dual.refresh_cached_lhs(problem, i as usize);
            }
            let satisfaction = dual.cached_satisfaction(problem, i as usize);
            if satisfaction < final_bar {
                active_members.push(i);
                floor = floor.min(satisfaction);
            }
        }
        active_ids.clear();
        active_ids.extend(active_members.iter().map(|&i| participants[i as usize]));
        // Epoch setup — one conflict-graph build and one key table for the
        // whole epoch; every step below masks it.
        let graph = ConflictGraph::build(problem, &active_ids);
        let adjacency = CsrAdjacency::new(graph.offsets(), graph.adjacency());
        epoch_keys.clear();
        epoch_keys.extend(
            active_ids
                .iter()
                .map(|&d| problem.instance(d).canonical_key()),
        );
        is_unsat.clear();
        is_unsat.resize(active_members.len(), false);

        // Stages whose threshold the floor meets have no member below
        // the threshold: the sweep would find no one unsatisfied and the
        // stage would take no step. So the epoch jumps to the next stage
        // whose threshold the floor does not meet. (`floor` is never NaN:
        // `f64::min` skips NaN operands.)
        let mut from = 0;
        while let Some(at) = bars[from..].iter().position(|&bar| floor < bar) {
            let at = from + at;
            let (bar, j) = (bars[at], at as u32 + 1);
            from = at + 1;
            // Stage sweep: one pass over cached satisfactions re-buckets
            // the potential participants against the new threshold — no
            // path walks (the cache is fresh for epoch members) — and
            // re-takes the floor. If the stage steps, that floor is below
            // this threshold, so the next stage sweeps again.
            let mut unsat_count = 0usize;
            floor = f64::INFINITY;
            for (x, &i) in active_members.iter().enumerate() {
                let satisfaction = dual.cached_satisfaction(problem, i as usize);
                let unsat = satisfaction < bar;
                is_unsat[x] = unsat;
                unsat_count += unsat as usize;
                floor = floor.min(satisfaction);
            }
            let mut steps_this_stage = 0u64;
            while unsat_count > 0 {
                if let Some(limit) = config.max_steps_per_stage {
                    if steps_this_stage >= limit {
                        return Err(FrameworkError::StageDiverged { epoch: k, stage: j });
                    }
                }
                // MIS of the still-unsatisfied members — the epoch graph
                // masked by `is_unsat` — with common randomness tagged by
                // (epoch, stage, step).
                let tag = mis_tag(k, j, steps_this_stage);
                let rounds = config.mis_backend.run(
                    &adjacency,
                    &epoch_keys,
                    &is_unsat,
                    config.seed,
                    tag,
                    &mut mis_scratch,
                    &mut mis_buf,
                );
                stats.mis_rounds += rounds;
                // Raise every MIS member; they are pairwise non-conflicting
                // so the raises commute (the parallelism of the framework).
                let mut raised: Vec<InstanceId> = Vec::with_capacity(mis_buf.len());
                for &x in &mis_buf {
                    let x = x as usize;
                    let (i, d) = (active_members[x] as usize, active_ids[x]);
                    let critical = layers.critical_of(problem, d, &mut pi_buf);
                    let slots = dual.var_slots(i);
                    let delta = rule.raise_in(problem, &mut dual, d, slots, critical);
                    stats.raises += 1;
                    if let Some(t) = trace.as_mut() {
                        t.push(RaiseEvent {
                            instance: d,
                            delta,
                            at: (k, j, steps_this_stage),
                        });
                    }
                    raised.push(d);
                    // Mark the epoch members whose constraint this raise
                    // touched as stale: the member itself and its epoch
                    // graph neighbours — its demand's members (α) and, by
                    // the layered property, every member overlapping it,
                    // each of which uses one of its critical edges (β).
                    // Marking is an O(1) flag; the path re-walk happens at
                    // most once per member per step, in the boundary sweep
                    // below. Other participants are re-walked when next
                    // read: at their own epoch's filter or, if they can
                    // lower it, the final λ.
                    debug_assert!(critical.iter().all(|&e| problem.instance(d).active_on(e)));
                    for &y in std::iter::once(&(x as u32)).chain(graph.neighbors(x)) {
                        if dual.mark_stale(active_members[y as usize] as usize) {
                            stale_members.push(y);
                        }
                    }
                }
                // Step-boundary sweep: refresh each stale member once and
                // move it between the unsatisfied/satisfied buckets. Each
                // refresh reads only its own slot, so the order is free:
                // ascending slots walk the instance arrays front to back
                // instead of in the graph's neighbour order.
                stale_members.sort_unstable();
                for &x in &stale_members {
                    let i = active_members[x as usize] as usize;
                    dual.refresh_cached_lhs(problem, i);
                    let now = dual.cached_satisfaction(problem, i) < bar;
                    let was = &mut is_unsat[x as usize];
                    if *was != now {
                        *was = now;
                        if now {
                            unsat_count += 1;
                        } else {
                            unsat_count -= 1;
                        }
                    }
                }
                stale_members.clear();
                stack.push(StackEntry {
                    at: (k, j, steps_this_stage),
                    instances: raised,
                });
                stats.comm_rounds += step_comm_rounds(rounds);
                steps_this_stage += 1;
            }
            stats.steps += steps_this_stage;
            stats.max_steps_in_stage = stats.max_steps_in_stage.max(steps_this_stage);
        }
    }

    let solution = extract_solution(problem, &stack, &mut stats);
    // λ off the cache: the last epoch's active members (ascending) were
    // kept exact; every other slot is a lower bound, re-walked only if it
    // is below the running minimum.
    let lambda = dual.min_satisfaction_bounded(problem, &active_members);
    Ok(Outcome {
        solution,
        dual,
        stats,
        lambda,
        delta: layers.delta(),
        objective_cap: rule.objective_cap(layers.delta()),
        trace,
        stack,
    })
}

/// Rejects an `ε` outside `(0, 1)` (NaN included): the one ε check of
/// the framework, [`solve`](crate::solve), the
/// [`DeltaEngine`](crate::DeltaEngine) and the runners of
/// `treenet-dist`. The error value is the human-readable reason (callers
/// wrap it in their error type).
///
/// # Errors
///
/// The reason `epsilon` is rejected.
pub fn validate_epsilon(epsilon: f64) -> Result<(), String> {
    if !(epsilon > 0.0 && epsilon < 1.0) {
        return Err(format!("epsilon must lie in (0,1), got {epsilon}"));
    }
    Ok(())
}

fn validate(config: &FrameworkConfig) -> Result<(), FrameworkError> {
    validate_epsilon(config.epsilon).map_err(|reason| FrameworkError::BadParameters { reason })?;
    if !(config.xi > 0.0 && config.xi < 1.0) {
        return Err(FrameworkError::BadParameters {
            reason: format!("xi must lie in (0,1), got {}", config.xi),
        });
    }
    Ok(())
}

/// The positions of a run's participants bucketed by epoch group,
/// ascending within each group: one counting sort into a CSR, with no
/// allocation per group.
struct Groups {
    /// Group `k`'s positions are `slots[first[k]..first[k + 1]]`.
    first: Vec<usize>,
    slots: Vec<u32>,
}

impl Groups {
    fn new(layers: &LayeredDecomposition, participants: &[InstanceId]) -> Self {
        let mut first = vec![0usize; layers.num_groups() + 2];
        for &d in participants {
            first[layers.group_of(d) as usize + 1] += 1;
        }
        for k in 1..first.len() {
            first[k] += first[k - 1];
        }
        let mut next = first.clone();
        let mut slots = vec![0u32; participants.len()];
        for (i, &d) in participants.iter().enumerate() {
            let g = layers.group_of(d) as usize;
            slots[next[g]] = i as u32;
            next[g] += 1;
        }
        Groups { first, slots }
    }

    /// The positions in group `k` (1-based).
    fn of(&self, k: u32) -> &[u32] {
        &self.slots[self.first[k as usize]..self.first[k as usize + 1]]
    }
}

/// The second phase: reverse greedy over the stack, one communication
/// round per pop.
fn extract_solution(problem: &Problem, stack: &[StackEntry], stats: &mut RunStats) -> Solution {
    let mut tracker = SolutionTracker::new(problem);
    for entry in stack.iter().rev() {
        for &d in &entry.instances {
            let _ = tracker.try_add(d);
        }
        stats.comm_rounds += 1;
    }
    tracker.into_solution()
}

/// The from-scratch formulation of the first phase, kept as the
/// executable specification of [`run_two_phase`]: every step rebuilds
/// the conflict graph of the unsatisfied members and rescans the whole
/// group's satisfaction by re-walking path edges. Produces bit-identical
/// outcomes (solutions, duals, λ, stack, stats) at a per-step cost
/// proportional to the *group* rather than the active set — the
/// `exp_perf_phase1` benchmark measures the gap, and the proptest in
/// `crates/core/tests/incremental_oracle.rs` pins the equivalence.
///
/// # Errors
///
/// Same contract as [`run_two_phase`].
pub fn run_two_phase_reference(
    problem: &Problem,
    layers: &LayeredDecomposition,
    rule: RaiseRule,
    config: &FrameworkConfig,
    participants: &[InstanceId],
) -> Result<Outcome, FrameworkError> {
    validate(config)?;
    let stages_per_epoch = stages_for(config.epsilon, config.xi);

    let mut dual = DualState::new(problem, rule.dual_form());
    let mut stats = RunStats::default();
    let mut stack: Vec<StackEntry> = Vec::new();
    let mut trace: Option<Vec<RaiseEvent>> = config.record_trace.then(Vec::new);

    let num_groups = layers.num_groups() as u32;
    let groups = Groups::new(layers, participants);
    let mut mis_scratch = MisScratch::default();
    let mut mis: Vec<u32> = Vec::new();
    let mut pi_buf: Vec<EdgeId> = Vec::new();

    for k in 1..=num_groups {
        let members: Vec<InstanceId> = groups
            .of(k)
            .iter()
            .map(|&i| participants[i as usize])
            .collect();
        if members.is_empty() {
            continue;
        }
        stats.epochs += 1;
        for j in 1..=stages_per_epoch {
            stats.stages += 1;
            let threshold = stage_threshold(config.xi, j);
            let mut steps_this_stage = 0u64;
            loop {
                // U = group members still (1-ξ^j)-unsatisfied.
                let unsatisfied: Vec<InstanceId> = members
                    .iter()
                    .copied()
                    .filter(|&d| dual.satisfaction(problem, d) < threshold - SATISFACTION_GUARD)
                    .collect();
                if unsatisfied.is_empty() {
                    break;
                }
                if let Some(limit) = config.max_steps_per_stage {
                    if steps_this_stage >= limit {
                        return Err(FrameworkError::StageDiverged { epoch: k, stage: j });
                    }
                }
                let graph = ConflictGraph::build(problem, &unsatisfied);
                // Canonical keys (not dense ids) so the message-passing
                // implementation draws identical common randomness.
                let keys: Vec<u64> = graph
                    .instances()
                    .iter()
                    .map(|&d| problem.instance(d).canonical_key())
                    .collect();
                let tag = mis_tag(k, j, steps_this_stage);
                let rounds = config.mis_backend.run(
                    &CsrAdjacency::new(graph.offsets(), graph.adjacency()),
                    &keys,
                    &vec![true; graph.len()],
                    config.seed,
                    tag,
                    &mut mis_scratch,
                    &mut mis,
                );
                stats.mis_rounds += rounds;
                let raised: Vec<InstanceId> =
                    mis.iter().map(|&v| graph.instance(v as usize)).collect();
                for &d in &raised {
                    let critical = layers.critical_of(problem, d, &mut pi_buf);
                    let delta = rule.raise(problem, &mut dual, d, critical);
                    stats.raises += 1;
                    if let Some(t) = trace.as_mut() {
                        t.push(RaiseEvent {
                            instance: d,
                            delta,
                            at: (k, j, steps_this_stage),
                        });
                    }
                }
                stack.push(StackEntry {
                    at: (k, j, steps_this_stage),
                    instances: raised,
                });
                stats.comm_rounds += step_comm_rounds(rounds);
                steps_this_stage += 1;
            }
            stats.steps += steps_this_stage;
            stats.max_steps_in_stage = stats.max_steps_in_stage.max(steps_this_stage);
        }
    }

    let solution = extract_solution(problem, &stack, &mut stats);
    let lambda = dual.min_satisfaction(problem, participants);
    Ok(Outcome {
        solution,
        dual,
        stats,
        lambda,
        delta: layers.delta(),
        objective_cap: rule.objective_cap(layers.delta()),
        trace,
        stack,
    })
}

/// The MIS namespace tag for (epoch, stage, step): all processors derive
/// the same tag from the public schedule, so common randomness is shared.
pub fn mis_tag(epoch: u32, stage: u32, step: u64) -> u64 {
    ((epoch as u64) << 48) ^ ((stage as u64) << 32) ^ step
}

/// Number of stages per epoch: the smallest `b` with `ξ^b ≤ ε` (so the
/// last stage reaches `(1-ε)`-satisfaction). Public, so every processor
/// of the message-passing implementation derives the same schedule.
///
/// # Panics
///
/// Panics unless both parameters lie in `(0, 1)`.
pub fn stages_for(epsilon: f64, xi: f64) -> u32 {
    assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon in (0,1)");
    assert!(xi > 0.0 && xi < 1.0, "xi in (0,1)");
    (epsilon.ln() / xi.ln()).ceil().max(1.0) as u32
}

/// Stage `stage`'s satisfaction threshold `1 - ξ^stage` (1-based; stage
/// [`stages_for`] is the epoch's final one). The single definition of
/// the schedule's targets, shared with `treenet-dist`'s runners so every
/// participation decision compares against the same bits.
#[inline]
pub fn stage_threshold(xi: f64, stage: u32) -> f64 {
    1.0 - xi.powi(stage as i32)
}

/// Checks the interference property (Section 3.2) on a recorded trace:
/// for every pair of overlapping instances `d₁` raised before `d₂`,
/// `path(d₂)` must include a critical edge of `d₁`. Returns the first
/// violating pair, if any. `O(R²)` — for tests.
pub fn check_interference(
    problem: &Problem,
    layers: &LayeredDecomposition,
    trace: &[RaiseEvent],
) -> Option<(InstanceId, InstanceId)> {
    let mut buf = Vec::new();
    for (i, first) in trace.iter().enumerate() {
        let d1 = problem.instance(first.instance);
        let critical = layers.critical_of(problem, first.instance, &mut buf);
        for second in &trace[i + 1..] {
            // Simultaneous raises (same step) are independent by
            // construction; the property concerns strictly-later raises.
            if second.at == first.at {
                continue;
            }
            let d2 = problem.instance(second.instance);
            if !d1.overlaps(d2) {
                continue;
            }
            if !critical.iter().any(|&e| d2.active_on(e)) {
                return Some((first.instance, second.instance));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use treenet_decomp::Strategy;
    use treenet_model::workload::TreeWorkload;

    fn small_problem(seed: u64) -> Problem {
        TreeWorkload::new(16, 14)
            .with_networks(2)
            .with_profit_ratio(8.0)
            .generate(&mut SmallRng::seed_from_u64(seed))
    }

    fn run(problem: &Problem, seed: u64) -> (LayeredDecomposition, Outcome) {
        let layers = LayeredDecomposition::for_trees(problem, Strategy::Ideal);
        let config = FrameworkConfig {
            seed,
            record_trace: true,
            ..FrameworkConfig::default()
        };
        let participants: Vec<InstanceId> = problem.instances().map(|d| d.id).collect();
        let outcome =
            run_two_phase(problem, &layers, RaiseRule::Unit, &config, &participants).unwrap();
        (layers, outcome)
    }

    #[test]
    fn produces_feasible_solutions() {
        for seed in 0..10u64 {
            let p = small_problem(seed);
            let (_, outcome) = run(&p, seed);
            assert!(outcome.solution.verify(&p).is_ok(), "seed {seed}");
            assert!(!outcome.solution.is_empty(), "seed {seed}: empty solution");
        }
    }

    #[test]
    fn all_instances_end_lambda_satisfied() {
        for seed in 0..10u64 {
            let p = small_problem(seed);
            let (_, outcome) = run(&p, seed);
            assert!(
                outcome.lambda >= 1.0 - 0.1 - 1e-9,
                "seed {seed}: λ = {}",
                outcome.lambda
            );
        }
    }

    #[test]
    fn dual_value_bounded_by_cap_times_profit() {
        // The heart of Lemma 3.1's proof: val(α,β) ≤ (Δ+1)·p(S).
        for seed in 0..10u64 {
            let p = small_problem(seed);
            let (_, outcome) = run(&p, seed);
            let profit = outcome.profit(&p);
            assert!(
                outcome.dual.value() <= outcome.objective_cap * profit + 1e-6,
                "seed {seed}: val {} > cap {} · p(S) {}",
                outcome.dual.value(),
                outcome.objective_cap,
                profit
            );
        }
    }

    #[test]
    fn final_lambda_rewalks_only_slots_that_can_lower_it() {
        let mut stale = 0;
        for seed in 0..10u64 {
            let p = small_problem(seed);
            let (_, outcome) = run(&p, seed);
            let dual = &outcome.dual;
            let mut least = 1.0f64;
            for (i, &d) in dual.participants().iter().enumerate() {
                let dense = dual.satisfaction(&p, d);
                let (lhs, flagged) = dual.cache_entry(i);
                let cached = lhs / p.profit_of(d);
                assert!(cached <= dense, "seed {seed} slot {i}: {cached} > {dense}");
                if flagged {
                    stale += 1;
                } else {
                    assert_eq!(cached.to_bits(), dense.to_bits(), "seed {seed} slot {i}");
                }
                least = least.min(dense);
            }
            assert_eq!(outcome.lambda.to_bits(), least.to_bits(), "seed {seed}");
        }
        assert!(stale > 0, "every slot was re-walked");
    }

    #[test]
    fn interference_property_holds_on_trace() {
        for seed in 0..10u64 {
            let p = small_problem(seed);
            let (layers, outcome) = run(&p, seed);
            let trace = outcome.trace.as_ref().unwrap();
            assert_eq!(check_interference(&p, &layers, trace), None, "seed {seed}");
        }
    }

    #[test]
    fn certified_ratio_within_theorem_bound() {
        // Theorem 5.3: ratio ≤ (Δ+1)/λ = 7/(1-ε).
        for seed in 0..10u64 {
            let p = small_problem(seed);
            let (_, outcome) = run(&p, seed);
            let bound = outcome.objective_cap / outcome.lambda;
            assert!(
                outcome.certified_ratio(&p) <= bound + 1e-6,
                "seed {seed}: {} > {}",
                outcome.certified_ratio(&p),
                bound
            );
        }
    }

    #[test]
    fn steps_per_stage_within_lemma_bound() {
        // Lemma 5.1: ≤ 1 + log₂(pmax/pmin) steps per stage (+1 slack for
        // the final empty check).
        for seed in 0..10u64 {
            let p = small_problem(seed);
            let (pmin, pmax) = p.profit_bounds();
            let (_, outcome) = run(&p, seed);
            let bound = 2.0 + (pmax / pmin).log2().max(0.0);
            assert!(
                (outcome.stats.max_steps_in_stage as f64) <= bound,
                "seed {seed}: {} steps > {}",
                outcome.stats.max_steps_in_stage,
                bound
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let p = small_problem(3);
        let (_, a) = run(&p, 11);
        let (_, b) = run(&p, 11);
        assert_eq!(a.solution, b.solution);
        assert_eq!(a.stats, b.stats);
        let (_, c) = run(&p, 12);
        // Different seeds may change the MIS choices; stats usually differ.
        let _ = c;
    }

    #[test]
    fn rejects_bad_parameters() {
        let p = small_problem(0);
        let layers = LayeredDecomposition::for_trees(&p, Strategy::Ideal);
        let participants: Vec<InstanceId> = p.instances().map(|d| d.id).collect();
        for (eps, xi) in [(0.0, 0.9), (1.0, 0.9), (0.1, 0.0), (0.1, 1.0)] {
            let config = FrameworkConfig {
                epsilon: eps,
                xi,
                ..FrameworkConfig::default()
            };
            assert!(matches!(
                run_two_phase(&p, &layers, RaiseRule::Unit, &config, &participants),
                Err(FrameworkError::BadParameters { .. })
            ));
        }
    }

    #[test]
    fn empty_participants_yield_empty_outcome() {
        let p = small_problem(1);
        let layers = LayeredDecomposition::for_trees(&p, Strategy::Ideal);
        let outcome = run_two_phase(
            &p,
            &layers,
            RaiseRule::Unit,
            &FrameworkConfig::default(),
            &[],
        )
        .unwrap();
        assert!(outcome.solution.is_empty());
        assert_eq!(outcome.stats.raises, 0);
        assert_eq!(outcome.lambda, 1.0);
        assert_eq!(outcome.certified_ratio(&p), 1.0);
    }

    #[test]
    fn incremental_equals_reference_bitwise() {
        // The executable spec: the incremental engine reproduces the
        // from-scratch formulation exactly — stack, stats, solution, and
        // bit-identical λ.
        for seed in 0..10u64 {
            let p = small_problem(seed);
            let layers = LayeredDecomposition::for_trees(&p, Strategy::Ideal);
            let config = FrameworkConfig {
                seed,
                record_trace: true,
                ..FrameworkConfig::default()
            };
            let participants: Vec<InstanceId> = p.instances().map(|d| d.id).collect();
            let fast = run_two_phase(&p, &layers, RaiseRule::Unit, &config, &participants).unwrap();
            let oracle =
                run_two_phase_reference(&p, &layers, RaiseRule::Unit, &config, &participants)
                    .unwrap();
            assert_eq!(fast.solution, oracle.solution, "seed {seed}");
            assert_eq!(fast.stats, oracle.stats, "seed {seed}");
            assert_eq!(fast.stack, oracle.stack, "seed {seed}");
            assert_eq!(fast.trace, oracle.trace, "seed {seed}");
            assert_eq!(
                fast.lambda.to_bits(),
                oracle.lambda.to_bits(),
                "seed {seed}: λ {} vs {}",
                fast.lambda,
                oracle.lambda
            );
            assert_eq!(fast.dual.value().to_bits(), oracle.dual.value().to_bits());
        }
    }

    #[test]
    fn comm_round_formula_is_shared() {
        // One step = 2 rounds per Luby iteration + 1 boundary broadcast.
        assert_eq!(step_comm_rounds(0), 1);
        assert_eq!(step_comm_rounds(1), 3);
        assert_eq!(step_comm_rounds(5), 11);
        // The accounting in RunStats::comm_rounds follows the formula:
        // a run's total equals Σ steps step_comm_rounds(luby) + pops, so
        // with the stack length known we can cross-check one run.
        let p = small_problem(2);
        let (_, outcome) = run(&p, 2);
        let pops = outcome.stack.len() as u64;
        let steps = outcome.stats.steps;
        // comm_rounds = Σ (2·luby_i + 1) + pops = 2·mis_rounds + steps + pops.
        assert_eq!(
            outcome.stats.comm_rounds,
            2 * outcome.stats.mis_rounds + steps + pops
        );
    }

    #[test]
    fn retransmit_round_bound_formula() {
        // Zero loss events ⇒ zero recovery slots (the p=0 passthrough),
        // at any window.
        assert_eq!(retransmit_round_bound(0, 0, 1), 0);
        assert_eq!(retransmit_round_bound(0, 0, 4), 0);
        // Stop-and-wait (window ≤ 1): 4 slots per loss event, drops and
        // delays alike.
        assert_eq!(retransmit_round_bound(1, 0, 1), 4);
        assert_eq!(retransmit_round_bound(0, 1, 0), 4);
        assert_eq!(retransmit_round_bound(3, 2, 1), 20);
        // Windowed ARQ (window ≥ 2): eager pipelining halves the bound.
        assert_eq!(retransmit_round_bound(1, 0, 2), 2);
        assert_eq!(retransmit_round_bound(0, 1, 4), 2);
        assert_eq!(retransmit_round_bound(3, 2, 8), 10);
        // Saturating at the extremes instead of wrapping.
        assert_eq!(retransmit_round_bound(u64::MAX, 1, 1), u64::MAX);
        assert_eq!(retransmit_round_bound(u64::MAX / 2 + 1, 0, 4), u64::MAX);
    }

    #[test]
    fn prologue_round_formula() {
        // Singleton components: every processor is its own root, no
        // flood at all.
        assert_eq!(prologue_rounds(0), 0);
        // Height h: labels final by round h+1, last rebroadcasts land in
        // round h+2.
        assert_eq!(prologue_rounds(1), 3);
        assert_eq!(prologue_rounds(12), 14);
    }

    #[test]
    fn mis_tags_are_unique_per_tuple() {
        let mut seen = std::collections::BTreeSet::new();
        for k in 1..5u32 {
            for j in 1..5u32 {
                for s in 0..5u64 {
                    assert!(seen.insert(mis_tag(k, j, s)));
                }
            }
        }
    }

    #[test]
    fn error_display() {
        let e = FrameworkError::StageDiverged { epoch: 2, stage: 3 };
        assert!(e.to_string().contains("stage 3"));
        let e = FrameworkError::BadParameters { reason: "x".into() };
        assert!(e.to_string().contains("x"));
    }
}
