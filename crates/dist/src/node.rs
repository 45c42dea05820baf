//! The per-processor protocol node.
//!
//! One node per processor (= demand). A node knows only
//!
//! * **public information**: the networks, their layering (tree
//!   decompositions for tree-networks, the length-class `Lmin` for
//!   line-networks), the schedule parameters (`ε`, `ξ`, seed, MIS
//!   backend) and the convergecast forest of the communication graph
//!   (infrastructure knowledge) — wrapped in [`PublicInfo`];
//! * **its own demand**, from which it derives its demand instances,
//!   their paths, canonical keys, epoch groups and critical edges;
//! * **what neighbors told it**: demand descriptors exchanged in the
//!   setup round (one `O(M)`-bit message each), and the per-round
//!   liveness/raise/selection announcements of the protocol proper.
//!
//! From raise announcements a node tracks the dual values `β(e)` for
//! exactly the edges on its own paths — sufficient because any raise
//! touching such an edge comes from an overlapping instance, whose owner
//! shares a network and is therefore a communication neighbor.
//!
//! The node is parametrized by the run's [`RaiseRule`] and by its
//! [`RunTag`]: in a merged wide/narrow execution both sub-runs share one
//! engine and every protocol message is namespaced by its sub-run, so a
//! node simply ignores data messages of the other half (they cannot
//! affect its duals — exactly as in the serial reference execution,
//! where the other half's messages did not exist). Three always-on
//! layers sit outside the sub-run namespaces:
//!
//! * the **prologue layer** (BFS/leader election): from the first round
//!   every non-isolated node floods its best `(root, dist)` label — the
//!   smallest processor id it has heard of and its hop distance to it —
//!   and each node then picks as parent its smallest-id neighbor one hop
//!   closer to the leader. This *charges* for the convergecast
//!   infrastructure the control plane rides on: the flood reproduces
//!   [`ConvergecastForest::from_adjacency`] exactly (the runner asserts
//!   it), and it overlaps the first data rounds instead of preceding
//!   them;
//! * the **echo layer** (termination detection): per sweep, every node —
//!   including nodes of the other half, which act as relays — aggregates
//!   unsatisfied counts up the public convergecast forest and floods the
//!   root's verdict back down, so the driver's step pacing is audited
//!   in-network;
//! * the **combine layer** (per-network combiner): after both halves
//!   finish, every node reports its selected instance to the leader of
//!   its network (the minimum-id accessor — a neighbor, since accessors
//!   of a network form a clique), the leader reproduces the logical
//!   `combine_by_network` profit fold bit-exactly (ascending instance id)
//!   and broadcasts the per-network choice back.
//!
//! The node is written against *logical* synchronous rounds and never
//! sees the link layer: under [`DistConfig::loss`](crate::DistConfig)
//! the engine's reliable-delivery sublayer absorbs drops, duplicates
//! and delays beneath it, delivering byte-identical inboxes — which is
//! why fault tolerance required no change here at all.

use std::collections::BTreeMap;
use std::sync::Arc;

use treenet_core::RaiseRule;
use treenet_decomp::{ConvergecastForest, Layering};
use treenet_graph::{EdgeId, RootedTree, TreePath, VertexId};
use treenet_mis::MisBackend;
use treenet_model::{Demand, DemandId, DemandKind, InstanceId, NetworkId};
use treenet_netsim::{Context, Envelope, MessageSize, Protocol};

/// Satisfaction comparison guard — imported from the framework so
/// participation decisions are bit-identical by construction.
pub(crate) use treenet_core::SATISFACTION_GUARD;

/// Which sub-run a namespaced protocol message belongs to. Solo runners
/// and the wide half of a merged wide/narrow execution use
/// [`RunTag::Primary`]; the narrow half uses [`RunTag::Narrow`]. The tag
/// is what lets both halves share one `treenet-netsim` engine pass
/// without their message streams interfering.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RunTag {
    /// The solo run, or the wide half of a split run.
    Primary,
    /// The narrow half of a split run.
    Narrow,
}

impl RunTag {
    /// Dense index for per-tag state arrays.
    #[inline]
    pub(crate) fn index(self) -> usize {
        match self {
            RunTag::Primary => 0,
            RunTag::Narrow => 1,
        }
    }
}

/// Public knowledge shared by every processor: the networks (rooted views
/// plus the layering), the schedule parameters, and the convergecast
/// forest of the communication graph. Everything here is a deterministic
/// function of inputs the paper assumes are known to all processors — the
/// forest derives from the (public) resource-sharing infrastructure, not
/// from any demand's private data, and corresponds operationally to the
/// standard O(diameter) leader-election/BFS preprocessing.
#[derive(Debug)]
pub(crate) struct PublicInfo {
    /// Every network's rooted tree, indexed by `NetworkId`.
    pub rooted: Vec<RootedTree>,
    /// How every network's instances are layered (tree decompositions
    /// or line length classes over the public `Lmin`).
    pub layering: Layering,
    /// Common-randomness seed every processor derives its coins from.
    pub seed: u64,
    /// Which MIS implementation the run uses.
    pub backend: MisBackend,
    /// BFS spanning forest used for echo/convergecast sweeps.
    pub forest: ConvergecastForest,
}

impl PublicInfo {
    /// Derives the instance views of a demand descriptor, in the canonical
    /// order (accessible networks ascending, window starts ascending) that
    /// both the owner and every receiver reproduce independently.
    pub fn views(&self, descriptor: &Descriptor) -> Vec<InstView> {
        let mut views = Vec::new();
        for &t in &descriptor.access {
            match descriptor.demand.kind {
                DemandKind::Pair { u, v } => {
                    let path = self.rooted[t.index()].path(u, v);
                    views.push(self.make_view(descriptor, t, path, None));
                }
                DemandKind::Window {
                    release,
                    deadline,
                    processing,
                } => {
                    for s in release..=(deadline + 1 - processing) {
                        let vertices: Vec<VertexId> = (s..=s + processing).map(VertexId).collect();
                        let edges: Vec<EdgeId> = (s..s + processing).map(EdgeId).collect();
                        let path = TreePath::new(vertices, edges);
                        views.push(self.make_view(descriptor, t, path, Some(s)));
                    }
                }
            }
        }
        views
    }

    fn make_view(
        &self,
        descriptor: &Descriptor,
        network: NetworkId,
        path: TreePath,
        start: Option<u32>,
    ) -> InstView {
        // Group and critical edges come from the same per-instance
        // definition the logical LayeredDecomposition uses.
        let (group, critical) = self
            .layering
            .layer(&self.rooted[network.index()], network, &path);
        let key = treenet_model::canonical_instance_key(descriptor.id, network, start);
        let mut sorted_edges: Vec<EdgeId> = path.edges().to_vec();
        sorted_edges.sort_unstable();
        InstView {
            key,
            network,
            edges: path.edges().to_vec(),
            sorted_edges,
            group,
            critical,
            height: descriptor.demand.height,
            profit: descriptor.demand.profit,
        }
    }
}

/// A demand descriptor — the `O(M)` bits of the paper's message bound:
/// one demand (kind, profit, height) plus its accessible networks.
#[derive(Clone, Debug, PartialEq)]
pub struct Descriptor {
    /// The public id of the owning processor/demand.
    pub id: DemandId,
    /// The demand itself.
    pub demand: Demand,
    /// Accessible networks, ascending.
    pub access: Vec<NetworkId>,
}

/// Everything derivable about one demand instance from its owner's
/// descriptor plus public information.
#[derive(Clone, Debug)]
pub(crate) struct InstView {
    /// Canonical common-randomness key (matches
    /// `DemandInstance::canonical_key`).
    pub key: u64,
    /// Network this view routes through.
    pub network: NetworkId,
    /// Path edges in path order (the dual-LHS summation order).
    pub edges: Vec<EdgeId>,
    /// Path edges sorted, for overlap tests.
    pub sorted_edges: Vec<EdgeId>,
    /// 1-based epoch group.
    pub group: u32,
    /// Critical edges `π(d)`, sorted.
    pub critical: Vec<EdgeId>,
    /// Bandwidth demand `h(d)`.
    pub height: f64,
    /// Profit `p(d)` of selecting this instance.
    pub profit: f64,
}

impl InstView {
    /// Whether the two views overlap: same network and a shared edge.
    pub fn overlaps(&self, other: &InstView) -> bool {
        if self.network != other.network {
            return false;
        }
        let (mut i, mut j) = (0, 0);
        while i < self.sorted_edges.len() && j < other.sorted_edges.len() {
            match self.sorted_edges[i].cmp(&other.sorted_edges[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }
}

/// Protocol messages. Every payload is bounded by one demand descriptor —
/// the paper's `O(M)` bits. Data messages carry their sub-run's
/// [`RunTag`] so merged wide/narrow executions can share one engine;
/// echo and combine messages form the in-network control plane.
#[derive(Clone, Debug)]
pub enum DistMsg {
    /// Setup round: the sender's demand descriptor (shared by all
    /// sub-runs).
    Descriptor(Descriptor),
    /// Prologue layer (BFS/leader election): the sender's current best
    /// label — the smallest processor id it has heard of (the eventual
    /// component leader) and its hop distance to it. Flooded from the
    /// first round, re-broadcast on every improvement.
    Bfs {
        /// Smallest processor id known to the sender (candidate leader).
        root: u32,
        /// The sender's hop distance to `root`.
        dist: u32,
    },
    /// Step boundary: which of the sender's instances (canonical order,
    /// bit `i` = instance `i`) participate in this step's MIS.
    Active {
        /// The sub-run this announcement belongs to.
        run: RunTag,
        /// Participation bitmask over the sender's instances.
        mask: u64,
    },
    /// The sender's instance `idx` joined the MIS and was raised by
    /// `delta` (α of its demand; each receiver re-derives the rule's β
    /// increment from `delta` and the instance's public `|π|`).
    Joined {
        /// The sub-run this raise belongs to.
        run: RunTag,
        /// Canonical instance index within the sender.
        idx: u8,
        /// The raise amount `δ(d)`.
        delta: f64,
    },
    /// The sender's instance `idx` left this step's MIS computation.
    Died {
        /// The sub-run this death belongs to.
        run: RunTag,
        /// Canonical instance index within the sender.
        idx: u8,
    },
    /// Phase 2: the sender's instance `idx` entered the solution.
    Selected {
        /// The sub-run this selection belongs to.
        run: RunTag,
        /// Canonical instance index within the sender.
        idx: u8,
    },
    /// Termination detection, convergecast half: the aggregate of the
    /// sender's subtree — how many of its instances are still below the
    /// sweep's threshold, and whether any instance belongs to the swept
    /// epoch group at all.
    EchoUp {
        /// The sub-run being swept.
        run: RunTag,
        /// Unsatisfied instances in the sender's subtree.
        unsatisfied: u32,
        /// Whether the subtree has any member of the swept epoch group.
        members: bool,
    },
    /// Termination detection, broadcast half: the component root's
    /// verdict flooding back down the convergecast tree.
    EchoDown {
        /// The sub-run being swept.
        run: RunTag,
        /// Unsatisfied instances in the whole component.
        unsatisfied: u32,
        /// Whether the component has any member of the swept epoch group.
        members: bool,
    },
    /// Combiner, convergecast half: the sender's selected instance `idx`
    /// (its network, profit and sub-run are derivable from the sender's
    /// descriptor), reported to the leader of the instance's network.
    CombineReport {
        /// The sub-run (= height-class half) the selection came from.
        run: RunTag,
        /// Canonical instance index within the sender.
        idx: u8,
    },
    /// Combiner, broadcast half: the per-network choice, from the
    /// network's leader to every accessor.
    CombineChoice {
        /// The decided network.
        network: u32,
        /// Whether the wide (Primary) half won the network.
        wide_wins: bool,
    },
}

/// The size in bits of one demand descriptor over `networks` accessible
/// networks: kind/id header + profit + height (160 bits) plus one word
/// per network — the paper's `M`, and the bound every protocol message
/// respects. The single definition behind the `MessageSize` accounting
/// and every `O(M)`-bit assertion in tests and experiments.
pub fn descriptor_bits(networks: usize) -> u64 {
    160 + 64 * networks as u64
}

impl MessageSize for DistMsg {
    fn size_bits(&self) -> u64 {
        match self {
            DistMsg::Descriptor(d) => descriptor_bits(d.access.len()),
            DistMsg::Bfs { .. } => 64,
            DistMsg::Active { .. } => 80,
            DistMsg::Joined { .. } => 88,
            DistMsg::Died { .. } => 24,
            DistMsg::Selected { .. } => 24,
            DistMsg::EchoUp { .. } | DistMsg::EchoDown { .. } => 48,
            DistMsg::CombineReport { .. } => 16,
            DistMsg::CombineChoice { .. } => 40,
        }
    }

    /// Traffic classes for the per-class engine counters: 0 = setup
    /// descriptors, 1/2 = Primary/Narrow sub-run data, 3 = echo control,
    /// 4 = combine control, 5 = BFS prologue.
    fn traffic_class(&self) -> usize {
        match self {
            DistMsg::Descriptor(_) => 0,
            DistMsg::Active { run, .. }
            | DistMsg::Joined { run, .. }
            | DistMsg::Died { run, .. }
            | DistMsg::Selected { run, .. } => 1 + run.index(),
            DistMsg::EchoUp { .. } | DistMsg::EchoDown { .. } => 3,
            DistMsg::CombineReport { .. } | DistMsg::CombineChoice { .. } => 4,
            DistMsg::Bfs { .. } => 5,
        }
    }
}

/// What the driver schedules for the next synchronous round. The paper's
/// model assumes the epoch/stage/step schedule is globally known; the
/// driver supplies exactly that timing signal (and nothing else) by
/// setting the mode before each engine round, pacing stage and epoch
/// boundaries from node-local hints and auditing them with overlapped
/// echo sweeps; the per-network combination is computed in-network.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Mode {
    /// Broadcast the own demand descriptor.
    Setup,
    /// No compute action this round (echo sweeps, or the other half's
    /// turn in a merged run). The always-on echo layer still relays.
    Idle,
    /// Step boundary: decide participation, broadcast `Active`.
    Announce,
    /// Luby iteration, first half: evaluate wins, winners broadcast
    /// `Joined` and apply their raise.
    LubyEval,
    /// Luby iteration, second half: apply received raises, the newly dead
    /// broadcast `Died`.
    LubyCleanup,
    /// Phase 2: pop the given global step index of the framework stack.
    Pop(u32),
    /// Combiner round 1: report the selected instance to its network's
    /// leader.
    CombineReport,
    /// Combiner round 2: leaders fold the reports in canonical order and
    /// broadcast the per-network choice.
    CombineDecide,
    /// Combiner round 3: record the received choices.
    CombineApply,
}

/// Per-sub-run state of one termination-detection sweep on the
/// convergecast forest. Every node keeps one per [`RunTag`] because the
/// two halves of a merged run sweep on independent schedules and every
/// node relays both.
#[derive(Clone, Debug, Default)]
struct EchoState {
    /// Whether a sweep is in progress (or just finished) for this tag.
    active: bool,
    /// Children whose subtree reports are still outstanding.
    pending_children: usize,
    /// Aggregated unsatisfied count (own + received subtrees).
    unsatisfied: u32,
    /// Aggregated members flag (own + received subtrees).
    members: bool,
    /// Whether the subtree report went up already (roots: whether the
    /// verdict was finalized).
    sent_up: bool,
    /// The component verdict, once known.
    verdict: Option<(u32, bool)>,
    /// Whether the verdict was forwarded to the children already.
    announced_down: bool,
}

/// Resolves a neighbor's instance view from the received-descriptor map.
/// A free function over the field (rather than a `&self` method) so call
/// sites keep disjoint mutable borrows of the node's other fields.
fn neighbor_view(
    neighbors: &BTreeMap<usize, Vec<InstView>>,
    node: usize,
    idx: u8,
) -> Option<&InstView> {
    neighbors
        .get(&node)
        .and_then(|views| views.get(idx as usize))
}

/// Per-instance state within the current step's MIS computation.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum MisState {
    Out,
    Active,
    InMis,
    Dead,
}

struct OwnInstance {
    /// Dense instance id, carried only for reporting the final solution.
    id: InstanceId,
    view: InstView,
    state: MisState,
    /// Raised at these global step indices (phase-2 pop schedule).
    raised_at: Vec<u32>,
}

/// One combiner contribution at a network leader: `(demand, idx)` is the
/// canonical instance coordinate (ascending = ascending instance id).
#[derive(Copy, Clone, Debug)]
struct Contribution {
    network: u32,
    demand: u32,
    idx: u8,
    run: RunTag,
    profit: f64,
}

/// One processor of the message-passing scheduler.
pub(crate) struct ProcessorNode {
    public: Arc<PublicInfo>,
    descriptor: Descriptor,
    /// The sub-run this node's demand belongs to (Primary for solo runs
    /// and the wide half; Narrow for the narrow half of a merged run).
    tag: RunTag,
    /// The run's raising rule (fixes δ, the β increment and the dual LHS
    /// form — taken from the shared `treenet-core` definitions).
    rule: RaiseRule,
    /// Whether this node's demand participates in the current run (false
    /// only for the off-class half of the *serial reference* path, where
    /// each engine pass runs one half and the other stays silent).
    participating: bool,
    own: Vec<OwnInstance>,
    /// α of the own demand.
    alpha: f64,
    /// β(e) for every edge on an own path, keyed by (network, edge).
    beta: BTreeMap<(u32, u32), f64>,
    /// Phase-2 residual capacity for every edge on an own path.
    residual: BTreeMap<(u32, u32), f64>,
    /// Neighbor views, derived from received descriptors.
    neighbors: BTreeMap<usize, Vec<InstView>>,
    /// Instances of neighbors participating in the current step's MIS.
    neighbor_active: BTreeMap<(usize, u8), bool>,
    /// Deaths to announce in the next cleanup round.
    pending_died: Vec<u8>,
    /// Reusable winner buffer for the Luby evaluation rounds (steady-state
    /// rounds allocate nothing).
    scratch_winners: Vec<usize>,
    /// Luby iteration counter within the current step.
    iteration: u64,
    /// MIS namespace tag of the current step.
    mis_namespace: u64,
    /// Current stage threshold `1 - ξ^j`.
    threshold: f64,
    /// Epoch of the current step.
    epoch: u32,
    /// Global index of the current step (phase-1 stack position).
    global_step: u32,
    /// Whether this node's demand already entered the solution.
    demand_used: bool,
    selected: Vec<InstanceId>,
    /// Per-tag termination-detection sweep state (every node relays both
    /// halves' sweeps).
    echo: [EchoState; 2],
    /// Prologue: own best `(leader, dist)` label, lexicographic minimum
    /// over everything heard so far; starts at `(me, 0)`.
    bfs_label: (u32, u32),
    /// Prologue: whether the own label must be (re)broadcast.
    bfs_changed: bool,
    /// Prologue: best label heard per neighbor (labels only improve, so
    /// the minimum is the neighbor's final label once the flood settles).
    neighbor_bfs: BTreeMap<usize, (u32, u32)>,
    /// Combiner contributions collected at this node for the networks it
    /// leads, in arrival order (sorted canonically before folding).
    contributions: Vec<Contribution>,
    /// Per-network combine choices received (network → wide half wins).
    choices: Vec<(u32, bool)>,
    pub(crate) mode: Mode,
}

impl ProcessorNode {
    /// Builds the processor for one demand from the public inputs and
    /// its private descriptor, pre-deriving every instance view.
    pub fn new(
        public: Arc<PublicInfo>,
        descriptor: Descriptor,
        ids: Vec<InstanceId>,
        rule: RaiseRule,
        tag: RunTag,
        participating: bool,
    ) -> Self {
        let views = public.views(&descriptor);
        assert_eq!(
            views.len(),
            ids.len(),
            "canonical enumeration matches the problem"
        );
        assert!(
            views.len() <= 64,
            "at most 64 instances per processor (mask width)"
        );
        let mut beta = BTreeMap::new();
        let mut residual = BTreeMap::new();
        for view in &views {
            for &e in &view.edges {
                beta.insert((view.network.0, e.0), 0.0f64);
                residual.insert((view.network.0, e.0), 1.0f64);
            }
        }
        let own = ids
            .into_iter()
            .zip(views)
            .map(|(id, view)| OwnInstance {
                id,
                view,
                state: MisState::Out,
                raised_at: Vec::new(),
            })
            .collect();
        let me = descriptor.id.index() as u32;
        ProcessorNode {
            public,
            descriptor,
            tag,
            rule,
            participating,
            own,
            alpha: 0.0,
            beta,
            residual,
            neighbors: BTreeMap::new(),
            neighbor_active: BTreeMap::new(),
            pending_died: Vec::new(),
            scratch_winners: Vec::new(),
            iteration: 0,
            mis_namespace: 0,
            threshold: 0.0,
            epoch: 0,
            global_step: 0,
            demand_used: false,
            selected: Vec::new(),
            echo: [EchoState::default(), EchoState::default()],
            bfs_label: (me, 0),
            bfs_changed: true,
            neighbor_bfs: BTreeMap::new(),
            contributions: Vec::new(),
            choices: Vec::new(),
            mode: Mode::Setup,
        }
    }

    /// This node's index in the topology / convergecast forest.
    #[inline]
    fn me(&self) -> usize {
        self.descriptor.id.index()
    }

    /// The sub-run this node's demand belongs to.
    pub fn run_tag(&self) -> RunTag {
        self.tag
    }

    /// Whether this node's demand participates in the run.
    pub fn is_participating(&self) -> bool {
        self.participating
    }

    /// The dual LHS of own instance `i` — same summation order and form
    /// (`α + scale·Σβ`, with `scale = 1` for the unit rule and `h(d)`
    /// for the narrow rule) as the logical `DualState::lhs`, so the float
    /// result is bit-identical.
    fn lhs(&self, i: usize) -> f64 {
        let view = &self.own[i].view;
        let beta_sum: f64 = view
            .edges
            .iter()
            .map(|e| self.beta[&(view.network.0, e.0)])
            .sum();
        let scale = match self.rule {
            RaiseRule::Unit => 1.0,
            RaiseRule::Narrow => view.height,
        };
        self.alpha + scale * beta_sum
    }

    /// Satisfaction ratio of own instance `i`.
    pub fn satisfaction(&self, i: usize) -> f64 {
        self.lhs(i) / self.own[i].view.profit
    }

    /// Whether any own participating instance belongs to epoch group `k`
    /// — the node-local pacing hint both driver paths read between
    /// rounds (the same bit the `Active` broadcasts disseminate; the
    /// in-network path additionally audits it with echo sweeps).
    pub fn has_group(&self, k: u32) -> bool {
        self.participating && self.own.iter().any(|inst| inst.view.group == k)
    }

    /// Number of own group-`k` instances below `threshold`-satisfaction —
    /// the same predicate the announce round and [`Self::begin_echo`]
    /// use, so a sweep's verdict must reproduce the summed hints exactly.
    /// Zero for passive nodes.
    pub fn count_unsatisfied(&self, k: u32, threshold: f64) -> usize {
        if !self.participating {
            return 0;
        }
        (0..self.own.len())
            .filter(|&i| {
                self.own[i].view.group == k && self.satisfaction(i) < threshold - SATISFACTION_GUARD
            })
            .count()
    }

    /// Whether any own instance is still undecided in the current MIS.
    pub fn has_active(&self) -> bool {
        self.own.iter().any(|inst| inst.state == MisState::Active)
    }

    /// The prologue's learned label: `(component leader id, hop
    /// distance)`. Final once `prologue_rounds(forest height)` engine
    /// rounds have run.
    pub fn bfs_label(&self) -> (u32, u32) {
        self.bfs_label
    }

    /// The prologue's local parent pick — the smallest-id neighbor one
    /// hop closer to the leader, the exact rule of
    /// [`ConvergecastForest::from_adjacency`] — or `None` for leaders.
    pub fn bfs_parent(&self) -> Option<usize> {
        let (root, dist) = self.bfs_label;
        if dist == 0 {
            return None;
        }
        self.neighbor_bfs
            .iter()
            .filter(|&(_, &(r, d))| r == root && d + 1 == dist)
            .map(|(&n, _)| n)
            .min()
    }

    /// Instances selected by phase 2 for this node's sub-run.
    pub fn selected(&self) -> &[InstanceId] {
        &self.selected
    }

    /// The selected instances that survive the in-network per-network
    /// combination: an instance on network `t` is kept iff the broadcast
    /// choice for `t` favors this node's half.
    ///
    /// # Panics
    ///
    /// Panics if a choice for the instance's network never arrived —
    /// impossible in a completed run, because a node with a selection on
    /// `t` is an accessor of `t` and therefore receives its leader's
    /// broadcast.
    pub fn combined_selected(&self) -> Vec<InstanceId> {
        self.selected
            .iter()
            .filter(|&&d| {
                let i = self
                    .own
                    .iter()
                    .position(|inst| inst.id == d)
                    .expect("selected instances are own instances");
                let t = self.own[i].view.network.0;
                let wide_wins = self
                    .choices
                    .iter()
                    .find(|(network, _)| *network == t)
                    .map(|(_, w)| *w)
                    .expect("combine choice arrived for the own selection's network");
                wide_wins == (self.tag == RunTag::Primary)
            })
            .copied()
            .collect()
    }

    /// The driver's sweep-start signal (public schedule only): snapshot
    /// the own contribution to the `run` sweep over epoch group `k` at
    /// `threshold`, and arm the echo layer. Called on **every** node —
    /// off-run nodes contribute zero but still relay.
    pub fn begin_echo(&mut self, run: RunTag, k: u32, threshold: f64) {
        let (unsatisfied, members) = if self.participating && self.tag == run {
            let mut unsatisfied = 0u32;
            let mut members = false;
            for i in 0..self.own.len() {
                if self.own[i].view.group == k {
                    members = true;
                    if self.satisfaction(i) < threshold - SATISFACTION_GUARD {
                        unsatisfied += 1;
                    }
                }
            }
            (unsatisfied, members)
        } else {
            (0, false)
        };
        let me = self.me();
        let forest = &self.public.forest;
        let state = &mut self.echo[run.index()];
        state.active = true;
        state.pending_children = forest.children(me).len();
        state.unsatisfied = unsatisfied;
        state.members = members;
        state.sent_up = false;
        state.announced_down = false;
        state.verdict = None;
        // Isolated processors are their own root: the verdict is local
        // and the sweep costs zero rounds and zero messages.
        if state.pending_children == 0 && forest.parent(me).is_none() {
            state.sent_up = true;
            state.verdict = Some((unsatisfied, members));
        }
    }

    /// The component verdict of the last `run` sweep, once the echo
    /// broadcast reached this node (roots know it first).
    pub fn echo_verdict(&self, run: RunTag) -> Option<(u32, bool)> {
        self.echo[run.index()].verdict
    }

    /// The driver's step-boundary signal (public schedule only).
    pub fn begin_step(&mut self, epoch: u32, mis_namespace: u64, threshold: f64, global_step: u32) {
        self.epoch = epoch;
        self.mis_namespace = mis_namespace;
        self.threshold = threshold;
        self.global_step = global_step;
        self.iteration = 0;
        self.neighbor_active.clear();
        self.pending_died.clear();
        for inst in &mut self.own {
            inst.state = MisState::Out;
        }
        self.mode = Mode::Announce;
    }

    /// Applies a raise announced by a neighbor: β on the raised instance's
    /// critical edges, restricted to the edges this node tracks. The β
    /// increment is re-derived from the broadcast δ and the public `|π|`
    /// via the shared `RaiseRule::beta_increment`, so it is bit-identical
    /// to the logical raise. (Field-disjoint borrows of `neighbors` and
    /// `beta` keep this loop allocation-free.)
    fn apply_neighbor_raise(&mut self, node: usize, idx: u8, delta: f64) {
        let Some(view) = neighbor_view(&self.neighbors, node, idx) else {
            return;
        };
        let beta_inc = self.rule.beta_increment(view.critical.len() as f64, delta);
        let network = view.network.0;
        for &e in &view.critical {
            if let Some(slot) = self.beta.get_mut(&(network, e.0)) {
                *slot += beta_inc;
            }
        }
    }

    /// Kills own active instances conflicting with a neighbor's MIS
    /// winner; the deaths are announced in the next cleanup round.
    fn kill_conflicting_with(&mut self, node: usize, idx: u8) {
        let Some(winner) = neighbor_view(&self.neighbors, node, idx) else {
            return;
        };
        for (i, inst) in self.own.iter_mut().enumerate() {
            if inst.state == MisState::Active && inst.view.overlaps(winner) {
                inst.state = MisState::Dead;
                self.pending_died.push(i as u8);
            }
        }
    }

    /// Win test for own instance `i` against the frozen activity view —
    /// exactly the central `luby_mis`/`deterministic_mis` predicate.
    fn wins(&self, i: usize) -> bool {
        let backend = self.public.backend;
        let (seed, tag, it) = (self.public.seed, self.mis_namespace, self.iteration);
        let my_key = self.own[i].view.key;
        // Own siblings always conflict (same demand).
        for (j, other) in self.own.iter().enumerate() {
            if j != i
                && other.state == MisState::Active
                && !backend.beats(seed, tag, it, my_key, other.view.key)
            {
                return false;
            }
        }
        // Active neighbor instances that overlap.
        for (&(node, idx), _) in self.neighbor_active.iter().filter(|(_, &alive)| alive) {
            let Some(view) = neighbor_view(&self.neighbors, node, idx) else {
                continue;
            };
            if self.own[i].view.overlaps(view) && !backend.beats(seed, tag, it, my_key, view.key) {
                return false;
            }
        }
        true
    }

    /// The leader of network `t`: the minimum demand id among `t`'s
    /// accessors. Computable locally by every accessor because accessors
    /// of a shared network are mutual communication neighbors, so their
    /// descriptors all arrived in the setup round.
    fn leader_of(&self, t: u32) -> usize {
        let mut leader = self.me();
        for (&node, views) in &self.neighbors {
            if node < leader && views.iter().any(|v| v.network.0 == t) {
                leader = node;
            }
        }
        leader
    }

    /// Always-on echo layer: relays convergecast reports and verdict
    /// broadcasts for both sub-run tags, independently of the compute
    /// mode (a node can relay the other half's sweep while running its
    /// own Luby iteration).
    fn echo_round(&mut self, ctx: &mut Context<'_, DistMsg>) {
        let me = self.me();
        let forest = &self.public.forest;
        for (index, run) in [(0usize, RunTag::Primary), (1, RunTag::Narrow)] {
            let state = &mut self.echo[index];
            if !state.active {
                continue;
            }
            if !state.sent_up && state.pending_children == 0 {
                state.sent_up = true;
                match forest.parent(me) {
                    Some(parent) => ctx.send(
                        parent,
                        DistMsg::EchoUp {
                            run,
                            unsatisfied: state.unsatisfied,
                            members: state.members,
                        },
                    ),
                    // Roots finalize the component verdict.
                    None => state.verdict = Some((state.unsatisfied, state.members)),
                }
            }
            if let Some((unsatisfied, members)) = state.verdict {
                if !state.announced_down {
                    state.announced_down = true;
                    for &child in forest.children(me) {
                        ctx.send(
                            child as usize,
                            DistMsg::EchoDown {
                                run,
                                unsatisfied,
                                members,
                            },
                        );
                    }
                }
            }
        }
    }

    fn round_setup(&mut self, ctx: &mut Context<'_, DistMsg>) {
        ctx.broadcast(DistMsg::Descriptor(self.descriptor.clone()));
    }

    fn round_announce(&mut self, ctx: &mut Context<'_, DistMsg>) {
        let mut mask = 0u64;
        for i in 0..self.own.len() {
            if self.own[i].view.group == self.epoch
                && self.satisfaction(i) < self.threshold - SATISFACTION_GUARD
            {
                self.own[i].state = MisState::Active;
                mask |= 1 << i;
            }
        }
        if mask != 0 {
            ctx.broadcast(DistMsg::Active {
                run: self.tag,
                mask,
            });
        }
    }

    fn round_luby_eval(&mut self, inbox: &[Envelope<DistMsg>], ctx: &mut Context<'_, DistMsg>) {
        for env in inbox {
            match &env.msg {
                DistMsg::Active { run, mask } if *run == self.tag => {
                    if let Some(views) = self.neighbors.get(&env.from) {
                        for idx in 0..views.len().min(64) {
                            if mask & (1 << idx) != 0 {
                                self.neighbor_active.insert((env.from, idx as u8), true);
                            }
                        }
                    }
                }
                DistMsg::Died { run, idx } if *run == self.tag => {
                    self.neighbor_active.insert((env.from, *idx), false);
                }
                _ => {}
            }
        }
        // Frozen-snapshot evaluation: collect all winners first, into the
        // reusable scratch buffer (take/put-back keeps the borrow checker
        // happy without reallocating).
        let mut winners = std::mem::take(&mut self.scratch_winners);
        winners.clear();
        winners.extend(
            (0..self.own.len()).filter(|&i| self.own[i].state == MisState::Active && self.wins(i)),
        );
        for &i in &winners {
            self.own[i].state = MisState::InMis;
            self.own[i].raised_at.push(self.global_step);
            // The run's raising rule, via the shared definitions:
            // δ = slack/(|π|+1) (unit) or slack/(1+2h|π|²) (narrow).
            let slack = self.own[i].view.profit - self.lhs(i);
            let pi = self.own[i].view.critical.len() as f64;
            let delta = self.rule.delta_for(slack, self.own[i].view.height, pi);
            let beta_inc = self.rule.beta_increment(pi, delta);
            self.alpha += delta;
            let network = self.own[i].view.network.0;
            for &e in &self.own[i].view.critical {
                *self
                    .beta
                    .get_mut(&(network, e.0))
                    .expect("critical edges lie on own paths") += beta_inc;
            }
            ctx.broadcast(DistMsg::Joined {
                run: self.tag,
                idx: i as u8,
                delta,
            });
            // Siblings always conflict with a winner; they die now and
            // announce it in the cleanup round.
            for j in 0..self.own.len() {
                if j != i && self.own[j].state == MisState::Active {
                    self.own[j].state = MisState::Dead;
                    self.pending_died.push(j as u8);
                }
            }
        }
        self.scratch_winners = winners;
    }

    fn round_luby_cleanup(&mut self, inbox: &[Envelope<DistMsg>], ctx: &mut Context<'_, DistMsg>) {
        for env in inbox {
            if let DistMsg::Joined { run, idx, delta } = env.msg {
                if run != self.tag {
                    continue;
                }
                self.neighbor_active.insert((env.from, idx), false);
                self.apply_neighbor_raise(env.from, idx, delta);
                self.kill_conflicting_with(env.from, idx);
            }
        }
        // Drain without dropping the buffer's capacity.
        let mut died = std::mem::take(&mut self.pending_died);
        for &idx in &died {
            ctx.broadcast(DistMsg::Died { run: self.tag, idx });
        }
        died.clear();
        self.pending_died = died;
        self.iteration += 1;
    }

    fn round_pop(
        &mut self,
        step: u32,
        inbox: &[Envelope<DistMsg>],
        ctx: &mut Context<'_, DistMsg>,
    ) {
        for env in inbox {
            if let DistMsg::Selected { run, idx } = env.msg {
                if run != self.tag {
                    continue;
                }
                let Some(view) = neighbor_view(&self.neighbors, env.from, idx) else {
                    continue;
                };
                let (network, height) = (view.network.0, view.height);
                for &e in &view.edges {
                    if let Some(slot) = self.residual.get_mut(&(network, e.0)) {
                        *slot -= height;
                    }
                }
            }
        }
        for i in 0..self.own.len() {
            if !self.own[i].raised_at.contains(&step) {
                continue;
            }
            // The tracker's `fits` test on the locally tracked residuals.
            let view = &self.own[i].view;
            let fits = !self.demand_used
                && view.edges.iter().all(|e| {
                    self.residual[&(view.network.0, e.0)] + treenet_model::EPS >= view.height
                });
            if fits {
                self.demand_used = true;
                let id = self.own[i].id;
                if !self.selected.contains(&id) {
                    self.selected.push(id);
                }
                let network = view.network.0;
                let height = view.height;
                for &e in &self.own[i].view.edges {
                    *self
                        .residual
                        .get_mut(&(network, e.0))
                        .expect("own path edges are tracked") -= height;
                }
                ctx.broadcast(DistMsg::Selected {
                    run: self.tag,
                    idx: i as u8,
                });
            }
        }
    }

    /// Combiner round 1: report the own selected instance (at most one —
    /// a demand enters the solution at most once) to the leader of its
    /// network; a self-led report is recorded directly.
    fn round_combine_report(&mut self, ctx: &mut Context<'_, DistMsg>) {
        let Some(&d) = self.selected.first() else {
            return;
        };
        let i = self
            .own
            .iter()
            .position(|inst| inst.id == d)
            .expect("selected instances are own instances");
        let t = self.own[i].view.network.0;
        let leader = self.leader_of(t);
        if leader == self.me() {
            self.contributions.push(Contribution {
                network: t,
                demand: self.me() as u32,
                idx: i as u8,
                run: self.tag,
                profit: self.own[i].view.profit,
            });
        } else {
            ctx.send(
                leader,
                DistMsg::CombineReport {
                    run: self.tag,
                    idx: i as u8,
                },
            );
        }
    }

    /// Combiner round 2 (leaders): collect the reports, fold the per-run
    /// profit sums **in ascending (demand, idx) order** — i.e. ascending
    /// instance id, the exact order of `Solution::selected` that the
    /// logical `combine_by_network` folds in — and broadcast each decided
    /// network's choice to its accessors.
    fn round_combine_decide(
        &mut self,
        inbox: &[Envelope<DistMsg>],
        ctx: &mut Context<'_, DistMsg>,
    ) {
        for env in inbox {
            if let DistMsg::CombineReport { run, idx } = env.msg {
                let Some(view) = neighbor_view(&self.neighbors, env.from, idx) else {
                    continue;
                };
                self.contributions.push(Contribution {
                    network: view.network.0,
                    demand: env.from as u32,
                    idx,
                    run,
                    profit: view.profit,
                });
            }
        }
        if self.contributions.is_empty() {
            return;
        }
        self.contributions
            .sort_unstable_by_key(|c| (c.network, c.demand, c.idx));
        let mut start = 0usize;
        while start < self.contributions.len() {
            let t = self.contributions[start].network;
            let mut end = start;
            let mut wide_profit = 0.0f64;
            let mut narrow_profit = 0.0f64;
            while end < self.contributions.len() && self.contributions[end].network == t {
                let c = self.contributions[end];
                match c.run {
                    RunTag::Primary => wide_profit += c.profit,
                    RunTag::Narrow => narrow_profit += c.profit,
                }
                end += 1;
            }
            let wide_wins = treenet_core::combine_decision(wide_profit, narrow_profit);
            self.choices.push((t, wide_wins));
            // Every accessor of t is a neighbor of its leader.
            let mut accessors: Vec<usize> = self
                .neighbors
                .iter()
                .filter(|(_, views)| views.iter().any(|v| v.network.0 == t))
                .map(|(&node, _)| node)
                .collect();
            accessors.sort_unstable();
            for node in accessors {
                ctx.send(
                    node,
                    DistMsg::CombineChoice {
                        network: t,
                        wide_wins,
                    },
                );
            }
            start = end;
        }
    }

    /// Combiner round 3: record the broadcast per-network choices.
    fn round_combine_apply(&mut self, inbox: &[Envelope<DistMsg>]) {
        for env in inbox {
            if let DistMsg::CombineChoice { network, wide_wins } = env.msg {
                if !self.choices.iter().any(|(t, _)| *t == network) {
                    self.choices.push((network, wide_wins));
                }
            }
        }
    }
}

impl Protocol for ProcessorNode {
    type Msg = DistMsg;

    fn on_start(&mut self, _ctx: &mut Context<'_, DistMsg>) {}

    fn on_round(
        &mut self,
        _round: u64,
        inbox: &[Envelope<DistMsg>],
        ctx: &mut Context<'_, DistMsg>,
    ) {
        // Mode-independent intake: descriptors, the BFS prologue flood
        // and the echo layer's aggregates — every node relays the
        // control layers, including nodes that are passive for the data
        // protocol. Both the prologue and the echo intake are min/sum
        // folds, so inbox order is irrelevant by construction.
        for env in inbox {
            match &env.msg {
                DistMsg::Descriptor(descriptor) => {
                    let views = self.public.views(descriptor);
                    self.neighbors.insert(env.from, views);
                }
                DistMsg::Bfs { root, dist } => {
                    let label = (*root, *dist);
                    let slot = self.neighbor_bfs.entry(env.from).or_insert(label);
                    if label < *slot {
                        *slot = label;
                    }
                    let candidate = (*root, dist + 1);
                    if candidate < self.bfs_label {
                        self.bfs_label = candidate;
                        self.bfs_changed = true;
                    }
                }
                DistMsg::EchoUp {
                    run,
                    unsatisfied,
                    members,
                } => {
                    let state = &mut self.echo[run.index()];
                    state.unsatisfied += unsatisfied;
                    state.members |= members;
                    state.pending_children = state.pending_children.saturating_sub(1);
                }
                DistMsg::EchoDown {
                    run,
                    unsatisfied,
                    members,
                } => {
                    self.echo[run.index()].verdict = Some((*unsatisfied, *members));
                }
                _ => {}
            }
        }
        // Prologue flood: (re)broadcast the own label on improvement.
        // Isolated processors broadcast to nobody, so they stay silent.
        if self.bfs_changed {
            self.bfs_changed = false;
            ctx.broadcast(DistMsg::Bfs {
                root: self.bfs_label.0,
                dist: self.bfs_label.1,
            });
        }
        self.echo_round(ctx);

        // Data-plane compute, gated on participation (the serial
        // reference path keeps off-class nodes fully silent; merged runs
        // make every node a participant of exactly one half).
        if !self.participating {
            return;
        }
        match self.mode.clone() {
            Mode::Setup => self.round_setup(ctx),
            Mode::Idle => {}
            Mode::Announce => self.round_announce(ctx),
            Mode::LubyEval => self.round_luby_eval(inbox, ctx),
            Mode::LubyCleanup => self.round_luby_cleanup(inbox, ctx),
            Mode::Pop(step) => self.round_pop(step, inbox, ctx),
            Mode::CombineReport => self.round_combine_report(ctx),
            Mode::CombineDecide => self.round_combine_decide(inbox, ctx),
            Mode::CombineApply => self.round_combine_apply(inbox),
        }
    }

    fn is_done(&self) -> bool {
        true
    }
}
