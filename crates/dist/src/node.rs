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
//! The node's state is dense. Its own edges — every `(network, edge)` on
//! an own path — form one sorted table built at construction, and `β(e)`
//! and the phase-2 residuals are vectors indexed by a *slot* of that
//! table. Each own instance keeps its path (in path order, the dual-LHS
//! summation order) and `π(d)` as slots, and caches its dual LHS,
//! recomputed only after a round in which α or one of its β slots
//! moved. A neighbor's instances are resolved once, when its descriptor
//! arrives, into one flat table ordered by sender id: each entry holds
//! the mask of own instances it overlaps and its path and `π(d)` as
//! own-edge slots, so every later message costs a table lookup.
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
use std::ops::Range;
use std::sync::Arc;

use treenet_core::RaiseRule;
use treenet_decomp::{ConvergecastForest, Layering};
use treenet_graph::{EdgeId, RootedTree, TreePath, VertexId};
use treenet_mis::MisBackend;
use treenet_model::{Demand, DemandId, InstanceId, NetworkId};
use treenet_netsim::{Context, Envelope, MessageSize, Protocol};

/// Satisfaction comparison guard — imported from the framework so
/// participation decisions are bit-identical by construction.
pub(crate) use treenet_core::SATISFACTION_GUARD;

/// The most instances one processor can own: the width of the
/// [`DistMsg::Active`] participation mask. The runners refuse a demand
/// with more before they build any node.
pub(crate) const MAX_INSTANCES_PER_PROCESSOR: usize = u64::BITS as usize;

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
    /// Walks the instances of a demand descriptor in the canonical order
    /// (accessible networks ascending, window starts ascending) that both
    /// the owner and every receiver reproduce independently, handing `f`
    /// each instance's canonical key (`DemandInstance::canonical_key`),
    /// network, path, 1-based epoch group and critical edges `π(d)` — the
    /// per-instance definition the logical `LayeredDecomposition` uses.
    fn for_each_instance(
        &self,
        descriptor: &Descriptor,
        mut f: impl FnMut(u64, NetworkId, &TreePath, u32, &[EdgeId]),
    ) {
        let mut critical = Vec::new();
        // One path buffer for every instance of the descriptor.
        let mut path = TreePath::new(vec![VertexId(0)], Vec::new());
        for &t in &descriptor.access {
            let rooted = &self.rooted[t.index()];
            descriptor
                .demand
                .for_each_instance_path_in(rooted, &mut path, |path, start| {
                    critical.clear();
                    let group = self.layering.layer(rooted, t, path.view(), &mut critical);
                    let key = treenet_model::canonical_instance_key(descriptor.id, t, start);
                    f(key, t, path, group, &critical);
                });
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

/// One instance resolved against a node's own-edge table: the tracked
/// part of its path (in path order) and of `π(d)`, as a run of slots in
/// the node's slot pool.
#[derive(Copy, Clone, Debug)]
struct Resolved {
    /// Canonical common-randomness key.
    key: u64,
    /// Network the instance routes through.
    network: u32,
    /// `|π(d)|`, tracked or not: receivers re-derive the β increment
    /// from it.
    pi_len: u32,
    /// `pool[start..mid]` holds the path slots, `pool[mid..end]` the
    /// `π(d)` slots.
    start: u32,
    mid: u32,
    end: u32,
}

impl Resolved {
    /// The pool range of the tracked path edges, in path order.
    fn path(&self) -> Range<usize> {
        self.start as usize..self.mid as usize
    }

    /// The pool range of the tracked critical edges.
    fn critical(&self) -> Range<usize> {
        self.mid as usize..self.end as usize
    }
}

/// Resolves one instance of `network` against the own-edge table
/// `table` (sorted `(network, edge)` pairs), appending to `pool` the
/// slots of those path edges, then of those critical edges, that the
/// table holds. Own and neighbor instances go through this one function;
/// an own instance's edges are all tracked.
fn resolve(
    table: &[(u32, u32)],
    pool: &mut Vec<u32>,
    key: u64,
    network: NetworkId,
    path: &[EdgeId],
    critical: &[EdgeId],
) -> Resolved {
    let network = network.0;
    // The network's edges form one run of the sorted table.
    let lo = table.partition_point(|&(t, _)| t < network);
    let run = &table[lo..lo + table[lo..].partition_point(|&(t, _)| t == network)];
    let push_tracked = |pool: &mut Vec<u32>, edges: &[EdgeId]| {
        for e in edges {
            if let Ok(k) = run.binary_search_by_key(&e.0, |&(_, edge)| edge) {
                pool.push((lo + k) as u32);
            }
        }
    };
    let start = pool.len() as u32;
    push_tracked(pool, path);
    let mid = pool.len() as u32;
    push_tracked(pool, critical);
    Resolved {
        key,
        network,
        pi_len: critical.len() as u32,
        start,
        mid,
        end: pool.len() as u32,
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
    /// 1-based epoch group.
    group: u32,
    /// Key, network and slots (every path and critical edge is tracked).
    inst: Resolved,
    /// The dual LHS, as of the last round that moved α or a β slot of
    /// the path — read through [`ProcessorNode::lhs`].
    lhs: f64,
    state: MisState,
    /// Raised at these global step indices (phase-2 pop schedule).
    raised_at: Vec<u32>,
}

/// An instance of a neighbor, resolved when the neighbor's descriptor
/// arrived.
#[derive(Copy, Clone, Debug)]
struct NeighborInstance {
    /// Key, network, `|π|` and the own-edge slots of path and `π(d)`.
    inst: Resolved,
    /// Bandwidth demand `h(d)`.
    height: f64,
    /// Profit `p(d)` of selecting this instance.
    profit: f64,
    /// Bit `i` set iff the instance shares an edge with own instance `i`.
    overlaps: u64,
}

/// One neighbor's run of [`ProcessorNode::remote`]: its instances in
/// canonical order.
#[derive(Copy, Clone, Debug)]
struct Neighbor {
    id: usize,
    first: u32,
    count: u32,
}

impl Neighbor {
    /// The neighbor's instances' indices in the flat table.
    fn range(&self) -> Range<usize> {
        self.first as usize..(self.first + self.count) as usize
    }
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
    /// for a departed demand, and for the off-class half of the *serial
    /// reference* path, where each engine pass runs one half and the
    /// other stays silent).
    participating: bool,
    own: Vec<OwnInstance>,
    /// Own instances whose cached LHS is out of date (bit `i` = own
    /// instance `i`); empty between rounds.
    stale: u64,
    /// α of the own demand.
    alpha: f64,
    /// The own-edge table: every `(network, edge)` on an own path,
    /// sorted. An edge's index here is its *slot*.
    edges: Vec<(u32, u32)>,
    /// Per slot: the own instances whose path holds the edge.
    slot_users: Vec<u64>,
    /// β(e) per slot.
    beta: Vec<f64>,
    /// Phase-2 residual capacity per slot.
    residual: Vec<f64>,
    /// The slot runs of every resolved instance, own and neighbor.
    pool: Vec<u32>,
    /// Neighbors whose descriptor arrived, ascending by id.
    neighbors: Vec<Neighbor>,
    /// Every neighbor instance, resolved at intake; each neighbor's
    /// instances are one run.
    remote: Vec<NeighborInstance>,
    /// Per neighbor instance: whether it takes part in the current
    /// step's MIS (announced active, not yet joined or dead).
    neighbor_active: Vec<bool>,
    /// The neighbor instances announced active this step — the entries
    /// of `neighbor_active` the step may have set.
    announced: Vec<u32>,
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
    /// its private descriptor: the own-edge table and every own
    /// instance's slots and LHS.
    pub fn new(
        public: Arc<PublicInfo>,
        descriptor: Descriptor,
        ids: Vec<InstanceId>,
        rule: RaiseRule,
        tag: RunTag,
        participating: bool,
    ) -> Self {
        // The own instances' paths and π(d), flat, in canonical order.
        let mut raw = Vec::with_capacity(ids.len());
        let (mut paths, mut criticals) = (Vec::new(), Vec::new());
        public.for_each_instance(&descriptor, |key, network, path, group, critical| {
            paths.extend_from_slice(path.edges());
            criticals.extend_from_slice(critical);
            raw.push((key, network, group, paths.len(), criticals.len()));
        });
        assert_eq!(
            raw.len(),
            ids.len(),
            "canonical enumeration matches the problem"
        );
        assert!(
            raw.len() <= MAX_INSTANCES_PER_PROCESSOR,
            "at most {MAX_INSTANCES_PER_PROCESSOR} instances per processor (mask width)"
        );
        let mut edges = Vec::with_capacity(paths.len());
        let mut path_start = 0;
        for &(_, network, _, path_end, _) in &raw {
            edges.extend(paths[path_start..path_end].iter().map(|e| (network.0, e.0)));
            path_start = path_end;
        }
        edges.sort_unstable();
        edges.dedup();
        let mut pool = Vec::with_capacity(paths.len() + criticals.len());
        let mut slot_users = vec![0u64; edges.len()];
        let mut own = Vec::with_capacity(ids.len());
        let (mut path_start, mut critical_start) = (0, 0);
        for (i, ((key, network, group, path_end, critical_end), id)) in
            raw.into_iter().zip(ids).enumerate()
        {
            let inst = resolve(
                &edges,
                &mut pool,
                key,
                network,
                &paths[path_start..path_end],
                &criticals[critical_start..critical_end],
            );
            debug_assert_eq!(inst.path().len(), path_end - path_start);
            for &s in &pool[inst.path()] {
                slot_users[s as usize] |= 1 << i;
            }
            own.push(OwnInstance {
                id,
                group,
                inst,
                lhs: 0.0,
                state: MisState::Out,
                raised_at: Vec::new(),
            });
            (path_start, critical_start) = (path_end, critical_end);
        }
        let me = descriptor.id.index() as u32;
        let mut node = ProcessorNode {
            public,
            descriptor,
            tag,
            rule,
            participating,
            stale: 0,
            own,
            alpha: 0.0,
            beta: vec![0.0; edges.len()],
            residual: vec![1.0; edges.len()],
            edges,
            slot_users,
            pool,
            neighbors: Vec::new(),
            remote: Vec::new(),
            neighbor_active: Vec::new(),
            announced: Vec::new(),
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
        };
        node.stale = node.own_mask();
        node.refresh_lhs();
        node
    }

    /// The mask of every own instance.
    fn own_mask(&self) -> u64 {
        u64::MAX
            .checked_shr(u64::BITS - self.own.len() as u32)
            .unwrap_or(0)
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

    /// The dual LHS of own instance `i`, summed now — same summation
    /// order and form (`α + scale·Σβ`, with `scale = 1` for the unit rule
    /// and `h(d)` for the narrow rule) as the logical `DualState::lhs`,
    /// so the float result is bit-identical.
    fn lhs_now(&self, i: usize) -> f64 {
        let beta_sum: f64 = self.pool[self.own[i].inst.path()]
            .iter()
            .map(|&s| self.beta[s as usize])
            .sum();
        let scale = match self.rule {
            RaiseRule::Unit => 1.0,
            RaiseRule::Narrow => self.descriptor.demand.height,
        };
        self.alpha + scale * beta_sum
    }

    /// The cached dual LHS of own instance `i`.
    fn lhs(&self, i: usize) -> f64 {
        debug_assert!(
            self.stale & (1 << i) == 0 && self.own[i].lhs.to_bits() == self.lhs_now(i).to_bits(),
            "cached LHS of own instance {i} is stale"
        );
        self.own[i].lhs
    }

    /// Re-sums the LHS of every own instance whose α or a β slot moved
    /// since the last refresh. Called at the end of each round that can
    /// move them, so every read between rounds hits a fresh cache.
    fn refresh_lhs(&mut self) {
        let mut stale = std::mem::take(&mut self.stale);
        while stale != 0 {
            let i = stale.trailing_zeros() as usize;
            stale &= stale - 1;
            self.own[i].lhs = self.lhs_now(i);
        }
    }

    /// Satisfaction ratio of own instance `i`.
    pub fn satisfaction(&self, i: usize) -> f64 {
        self.lhs(i) / self.descriptor.demand.profit
    }

    /// Whether any own participating instance belongs to epoch group `k`
    /// — the node-local pacing hint both driver paths read between
    /// rounds (the same bit the `Active` broadcasts disseminate; the
    /// in-network path additionally audits it with echo sweeps).
    pub fn has_group(&self, k: u32) -> bool {
        self.participating && self.own.iter().any(|inst| inst.group == k)
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
                self.own[i].group == k && self.satisfaction(i) < threshold - SATISFACTION_GUARD
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
                let t = self.own[i].inst.network;
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
                if self.own[i].group == k {
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
        for &r in &self.announced {
            self.neighbor_active[r as usize] = false;
        }
        self.announced.clear();
        self.pending_died.clear();
        for inst in &mut self.own {
            inst.state = MisState::Out;
        }
        self.mode = Mode::Announce;
    }

    /// The flat-table index of neighbor `node`'s instance `idx`, if its
    /// descriptor arrived.
    fn remote_of(&self, node: usize, idx: u8) -> Option<usize> {
        let pos = self.neighbors.binary_search_by_key(&node, |n| n.id).ok()?;
        let neighbor = self.neighbors[pos];
        (u32::from(idx) < neighbor.count).then(|| neighbor.first as usize + usize::from(idx))
    }

    /// Whether `neighbor` has an instance on network `t`, i.e. accesses it.
    fn accesses(&self, neighbor: &Neighbor, t: u32) -> bool {
        self.remote[neighbor.range()]
            .iter()
            .any(|d| d.inst.network == t)
    }

    /// Resolves a neighbor's descriptor, once, into the flat table: each
    /// instance's key, network, `|π|`, height and profit, the mask of own
    /// instances it overlaps, and its path and `π(d)` as own-edge slots.
    /// The table stays ordered by sender id whatever the inbox order.
    fn resolve_neighbor(&mut self, from: usize, descriptor: &Descriptor) {
        let first = self.remote.len() as u32;
        let (edges, pool, users, remote) = (
            &self.edges,
            &mut self.pool,
            &self.slot_users,
            &mut self.remote,
        );
        let demand = &descriptor.demand;
        self.public
            .for_each_instance(descriptor, |key, network, path, _, critical| {
                let inst = resolve(edges, pool, key, network, path.edges(), critical);
                let overlaps = pool[inst.path()]
                    .iter()
                    .fold(0, |mask, &s| mask | users[s as usize]);
                remote.push(NeighborInstance {
                    inst,
                    height: demand.height,
                    profit: demand.profit,
                    overlaps,
                });
            });
        self.neighbor_active.resize(self.remote.len(), false);
        let entry = Neighbor {
            id: from,
            first,
            count: self.remote.len() as u32 - first,
        };
        let pos = self.neighbors.partition_point(|n| n.id < from);
        self.neighbors.insert(pos, entry);
    }

    /// Applies a raise announced by a neighbor: β on the raised instance's
    /// tracked critical slots, and the neighbor's conflicting own active
    /// instances die (announced in the next cleanup round). The β
    /// increment is re-derived from the broadcast δ and the public `|π|`
    /// via the shared `RaiseRule::beta_increment`, so it is bit-identical
    /// to the logical raise.
    fn apply_neighbor_raise(&mut self, r: usize, delta: f64) {
        let d = self.remote[r];
        let beta_inc = self.rule.beta_increment(d.inst.pi_len as f64, delta);
        for &s in &self.pool[d.inst.critical()] {
            self.beta[s as usize] += beta_inc;
            self.stale |= self.slot_users[s as usize];
        }
        for (i, inst) in self.own.iter_mut().enumerate() {
            if inst.state == MisState::Active && d.overlaps & (1 << i) != 0 {
                inst.state = MisState::Dead;
                self.pending_died.push(i as u8);
            }
        }
    }

    /// Win test for own instance `i` against the frozen activity view —
    /// exactly the predicate of the central `MisBackend::run`.
    fn wins(&self, i: usize) -> bool {
        let backend = self.public.backend;
        let (seed, tag, it) = (self.public.seed, self.mis_namespace, self.iteration);
        let my_key = self.own[i].inst.key;
        // Own siblings always conflict (same demand).
        for (j, other) in self.own.iter().enumerate() {
            if j != i
                && other.state == MisState::Active
                && !backend.beats(seed, tag, it, my_key, other.inst.key)
            {
                return false;
            }
        }
        // Active neighbor instances that overlap.
        for &r in &self.announced {
            let d = &self.remote[r as usize];
            if self.neighbor_active[r as usize]
                && d.overlaps & (1 << i) != 0
                && !backend.beats(seed, tag, it, my_key, d.inst.key)
            {
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
        let me = self.me();
        self.neighbors
            .iter()
            .take_while(|n| n.id < me)
            .find(|n| self.accesses(n, t))
            .map_or(me, |n| n.id)
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
            if self.own[i].group == self.epoch
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
                    let Ok(pos) = self.neighbors.binary_search_by_key(&env.from, |n| n.id) else {
                        continue;
                    };
                    let neighbor = self.neighbors[pos];
                    for idx in 0..(neighbor.count as usize).min(MAX_INSTANCES_PER_PROCESSOR) {
                        if mask & (1 << idx) != 0 {
                            let r = neighbor.first + idx as u32;
                            self.neighbor_active[r as usize] = true;
                            self.announced.push(r);
                        }
                    }
                }
                DistMsg::Died { run, idx } if *run == self.tag => {
                    if let Some(r) = self.remote_of(env.from, *idx) {
                        self.neighbor_active[r] = false;
                    }
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
        let (height, profit) = (self.descriptor.demand.height, self.descriptor.demand.profit);
        for &i in &winners {
            // An earlier winner of this round moved α.
            self.refresh_lhs();
            self.own[i].state = MisState::InMis;
            self.own[i].raised_at.push(self.global_step);
            // The run's raising rule, via the shared definitions:
            // δ = slack/(|π|+1) (unit) or slack/(1+2h|π|²) (narrow).
            let slack = profit - self.lhs(i);
            let inst = self.own[i].inst;
            let pi = inst.pi_len as f64;
            let delta = self.rule.delta_for(slack, height, pi);
            let beta_inc = self.rule.beta_increment(pi, delta);
            self.alpha += delta;
            for &s in &self.pool[inst.critical()] {
                self.beta[s as usize] += beta_inc;
            }
            // α is in every own LHS.
            self.stale = self.own_mask();
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
        self.refresh_lhs();
    }

    fn round_luby_cleanup(&mut self, inbox: &[Envelope<DistMsg>], ctx: &mut Context<'_, DistMsg>) {
        for env in inbox {
            if let DistMsg::Joined { run, idx, delta } = env.msg {
                if run != self.tag {
                    continue;
                }
                if let Some(r) = self.remote_of(env.from, idx) {
                    self.neighbor_active[r] = false;
                    self.apply_neighbor_raise(r, delta);
                }
            }
        }
        self.refresh_lhs();
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
                let Some(r) = self.remote_of(env.from, idx) else {
                    continue;
                };
                let d = &self.remote[r];
                for &s in &self.pool[d.inst.path()] {
                    self.residual[s as usize] -= d.height;
                }
            }
        }
        let height = self.descriptor.demand.height;
        for i in 0..self.own.len() {
            if !self.own[i].raised_at.contains(&step) {
                continue;
            }
            // The tracker's `fits` test on the locally tracked residuals.
            let path = &self.pool[self.own[i].inst.path()];
            let fits = !self.demand_used
                && path
                    .iter()
                    .all(|&s| self.residual[s as usize] + treenet_model::EPS >= height);
            if fits {
                self.demand_used = true;
                let id = self.own[i].id;
                if !self.selected.contains(&id) {
                    self.selected.push(id);
                }
                for &s in path {
                    self.residual[s as usize] -= height;
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
        let t = self.own[i].inst.network;
        let leader = self.leader_of(t);
        if leader == self.me() {
            self.contributions.push(Contribution {
                network: t,
                demand: self.me() as u32,
                idx: i as u8,
                run: self.tag,
                profit: self.descriptor.demand.profit,
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
                let Some(r) = self.remote_of(env.from, idx) else {
                    continue;
                };
                self.contributions.push(Contribution {
                    network: self.remote[r].inst.network,
                    demand: env.from as u32,
                    idx,
                    run,
                    profit: self.remote[r].profit,
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
            // Every accessor of t is a neighbor of its leader; the table
            // lists them in ascending id order.
            for neighbor in &self.neighbors {
                if self.accesses(neighbor, t) {
                    ctx.send(
                        neighbor.id,
                        DistMsg::CombineChoice {
                            network: t,
                            wide_wins,
                        },
                    );
                }
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
                // Only a participant ever reads its neighbors' instances.
                DistMsg::Descriptor(descriptor) if self.participating => {
                    self.resolve_neighbor(env.from, descriptor);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{descriptor_of, plan, DistConfig};
    use rand::rngs::SmallRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use std::collections::BTreeSet;
    use treenet_core::AutoChoice;
    use treenet_decomp::LayeredDecomposition;
    use treenet_model::workload::{HeightMode, TreeWorkload};
    use treenet_model::DemandInstance;

    /// The `(network, edge)` pairs of `inst`'s edges that lie in `own`,
    /// in the order given.
    fn tracked(
        inst: DemandInstance<'_>,
        edges: &[EdgeId],
        own: &BTreeSet<(u32, u32)>,
    ) -> Vec<(u32, u32)> {
        edges
            .iter()
            .map(|e| (inst.network.0, e.0))
            .filter(|k| own.contains(k))
            .collect()
    }

    /// Oracle for the slot tables, checked against the problem itself on
    /// tree problems with four networks and partial access: every node
    /// is fed its neighbors' descriptors in a seeded shuffled order, then
    /// for each own instance `i` and each neighbor instance `d`
    ///
    /// * mask bit `i` is set iff the two instances overlap;
    /// * the π slots are exactly `critical_of(d)` ∩ own edges;
    /// * the path slots are exactly `d`'s path ∩ own edges, in path
    ///   order;
    ///
    /// and each entry carries `d`'s key, network, `|π|`, height and
    /// profit. Own instances resolve to their whole path and `π(d)`.
    #[test]
    fn neighbor_resolution_matches_the_problem() {
        let mut partial_access = false;
        for seed in 0..6u64 {
            let mut workload = TreeWorkload::new(14, 16).with_networks(4);
            if seed % 2 == 1 {
                workload = workload.with_heights(HeightMode::Bimodal {
                    narrow_frac: 0.5,
                    hmin: 0.25,
                });
            }
            let p = workload.generate(&mut SmallRng::seed_from_u64(seed));
            let (public, _) = plan(&p, AutoChoice::TreeUnit, &DistConfig::default()).unwrap();
            let layers = LayeredDecomposition::new(&p, public.layering.clone());
            let mut pi = Vec::new();
            let graph = p.communication_graph();
            let mut rng = SmallRng::seed_from_u64(0x0dd5 + seed);
            for a in p.demands() {
                let mut node = ProcessorNode::new(
                    Arc::clone(&public),
                    descriptor_of(&p, a),
                    p.instances_of(a).to_vec(),
                    RaiseRule::Unit,
                    RunTag::Primary,
                    true,
                );
                let mut arrivals = graph[a.index()].clone();
                arrivals.shuffle(&mut rng);
                for &b in &arrivals {
                    node.resolve_neighbor(b.index(), &descriptor_of(&p, b));
                }
                let own: BTreeSet<(u32, u32)> = p
                    .instances_of(a)
                    .iter()
                    .flat_map(|&d| {
                        let inst = p.instance(d);
                        inst.path()
                            .edges()
                            .iter()
                            .map(move |e| (inst.network.0, e.0))
                    })
                    .collect();
                assert_eq!(node.edges, own.iter().copied().collect::<Vec<_>>());
                let edges_of = |range: Range<usize>| -> Vec<(u32, u32)> {
                    node.pool[range]
                        .iter()
                        .map(|&s| node.edges[s as usize])
                        .collect()
                };
                let sorted = |mut v: Vec<(u32, u32)>| {
                    v.sort_unstable();
                    v
                };
                for (i, &d) in p.instances_of(a).iter().enumerate() {
                    let (inst, mine) = (p.instance(d), &node.own[i]);
                    assert_eq!(
                        (mine.id, mine.inst.key, mine.group),
                        (d, inst.canonical_key(), layers.group_of(d))
                    );
                    assert_eq!(
                        edges_of(mine.inst.path()),
                        tracked(inst, inst.path().edges(), &own)
                    );
                    assert_eq!(
                        sorted(edges_of(mine.inst.critical())),
                        tracked(inst, layers.critical_of(&p, d, &mut pi), &own)
                    );
                }
                for &b in &graph[a.index()] {
                    partial_access |= p.access(a) != p.access(b);
                    let theirs = p.instances_of(b);
                    for (idx, &d) in theirs.iter().enumerate() {
                        let label = format!("seed {seed}: node {a}, instance {idx} of {b}");
                        let inst = p.instance(d);
                        let r = node.remote_of(b.index(), idx as u8).expect(&label);
                        let entry = node.remote[r];
                        assert_eq!(
                            (entry.inst.key, entry.inst.network, entry.inst.pi_len),
                            (
                                inst.canonical_key(),
                                inst.network.0,
                                layers.critical_of(&p, d, &mut pi).len() as u32
                            ),
                            "{label}"
                        );
                        assert_eq!(
                            (entry.height, entry.profit),
                            (p.height_of(d), p.profit_of(d)),
                            "{label}"
                        );
                        for (i, &mine) in p.instances_of(a).iter().enumerate() {
                            assert_eq!(
                                entry.overlaps & (1 << i) != 0,
                                p.instance(mine).overlaps(inst),
                                "{label}: overlap with own instance {i}"
                            );
                        }
                        assert_eq!(
                            sorted(edges_of(entry.inst.critical())),
                            tracked(inst, layers.critical_of(&p, d, &mut pi), &own),
                            "{label}: π slots"
                        );
                        assert_eq!(
                            edges_of(entry.inst.path()),
                            tracked(inst, inst.path().edges(), &own),
                            "{label}: path slots"
                        );
                    }
                    assert_eq!(node.remote_of(b.index(), theirs.len() as u8), None);
                }
                assert_eq!(
                    node.remote_of(a.index(), 0),
                    None,
                    "no entry for the node itself"
                );
            }
        }
        assert!(partial_access, "some neighbors access different networks");
    }
}
