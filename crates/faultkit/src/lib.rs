//! `faultkit` — deterministic, seed-driven fault injection for the
//! simulated cluster.
//!
//! The checkpoint/restart protocol's transparency claim (the paper's §3) is
//! only credible if it survives the failures it was designed around: lost
//! or reordered coordinator messages, processes and nodes dying mid-stage,
//! network partitions, and checkpoint images torn mid-write. This crate
//! injects exactly those faults, reproducibly from a single [`DetRng`]
//! seed, through two hooks the simulated kernel exposes:
//!
//! * [`oskit::world::World::net_fault`] — consulted on every
//!   `conn_transmit`, i.e. below the socket layer and above the wire. A
//!   verdict can drop a packet or defer its arrival.
//! * [`oskit::world::World::image_fault`] — consulted between "checkpoint
//!   bytes produced" and "file committed", the window where a real torn
//!   write lives.
//!
//! The DMTCP layer (which this crate deliberately does *not* depend on)
//! notifies faultkit of protocol progress: which connections carry
//! coordinator traffic, when a checkpoint generation starts, when each
//! barrier stage is released, and how far a restored process's background
//! memory fill has got. Faults are armed against a named stage of a named
//! generation, so a test cell like "drop one protocol message during DRAIN
//! of generation 2, seed 0x5EED" is fully deterministic.
//!
//! ## Stream safety
//!
//! All faulted streams stay *byte-stream-consistent*: a drop loses one
//! whole transmit unit (protocol messages are framed one-per-send, so
//! framing survives), and delays respect a per-direction FIFO floor except
//! for explicit reorder faults, which let later frames overtake earlier
//! ones without ever splitting a frame.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use oskit::net::ConnId;
use oskit::proc::sig;
use oskit::world::{NetFault, NetPacket, NodeId, OsSim, Pid, World};
use simkit::{DetRng, Nanos};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

/// The installed plan's shared state (a typed world extension).
#[derive(Default)]
struct Installed(Option<Rc<RefCell<FaultState>>>);

/// Margin added after a partition window before delayed packets arrive.
const PARTITION_EPS: Nanos = Nanos(50_000); // 50 µs

/// What kind of fault a plan injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Silently lose one coordinator protocol message.
    DropMsg,
    /// Delay one coordinator protocol message (FIFO preserved).
    DelayMsg,
    /// Delay one coordinator protocol message and let later frames overtake
    /// it (reordering; frames are never split).
    ReorderMsg,
    /// SIGKILL one checkpointed process at the target stage's release.
    KillProc,
    /// SIGKILL every checkpointed process on one non-coordinator node at
    /// the target stage's release.
    KillNode,
    /// Partition the coordinator's node from another node for a bounded
    /// virtual-time window starting at the target stage.
    Partition,
    /// Truncate one checkpoint image mid-write (torn write).
    TornTruncate,
    /// Flip one bit in one checkpoint image mid-write.
    TornBitFlip,
    /// Delete one primary checkpoint image after the checkpoint completes —
    /// the plain file *and* the writing node's local chunk store — modeling
    /// node-local disk loss. Restart must proceed from a replica.
    ImageDelete,
    /// Whole-node loss *during a live migration*: at the
    /// [`migration_started`] notification, SIGKILL every process on the
    /// victim node and wipe its node-local disk (plain images and chunk
    /// store). Pin the victim with [`FaultState::pin_victim_node`] — the
    /// source node exercises the replica transfer channel, the target
    /// node kills the restore before it commits. Not in
    /// [`FaultKind::ALL`]: it only fires from the migration notification,
    /// so it runs as targeted cells on top of the standard matrix.
    NodeLoss,
    /// SIGKILL one per-node relay (hierarchical topology) at the target
    /// stage's release — the relay's whole node drops out of the protocol
    /// at once. Not in [`FaultKind::ALL`]: relay faults only make sense
    /// under `Topology::Hierarchical`, so they run as targeted cells on
    /// top of the standard matrix.
    RelayKill,
    /// Permanently sever one relay's uplink to the root coordinator from
    /// the target stage's release on: every packet in either direction is
    /// dropped (an asymmetric, unhealing partition). Also excluded from
    /// [`FaultKind::ALL`]; see [`FaultKind::RelayKill`].
    RelaySever,
}

impl FaultKind {
    /// All kinds, in matrix order.
    pub const ALL: [FaultKind; 9] = [
        FaultKind::DropMsg,
        FaultKind::DelayMsg,
        FaultKind::ReorderMsg,
        FaultKind::KillProc,
        FaultKind::KillNode,
        FaultKind::Partition,
        FaultKind::TornTruncate,
        FaultKind::TornBitFlip,
        FaultKind::ImageDelete,
    ];

    /// Short stable name (seed reports, logs).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::DropMsg => "drop-msg",
            FaultKind::DelayMsg => "delay-msg",
            FaultKind::ReorderMsg => "reorder-msg",
            FaultKind::KillProc => "kill-proc",
            FaultKind::KillNode => "kill-node",
            FaultKind::Partition => "partition",
            FaultKind::TornTruncate => "torn-truncate",
            FaultKind::TornBitFlip => "torn-bitflip",
            FaultKind::ImageDelete => "image-delete",
            FaultKind::NodeLoss => "node-loss",
            FaultKind::RelayKill => "relay-kill",
            FaultKind::RelaySever => "relay-sever",
        }
    }
}

/// A point in a restored process's background fill, where
/// [`fill_progress`] notifications arrive and a plan aimed there with
/// [`FaultState::target_fill`] fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillPoint {
    /// The hot set is mapped and the restored threads may run.
    HotMapped,
    /// Halfway from then to the last cold region landing.
    MidFill,
    /// The last cold region lands.
    LastRegion,
}

impl FillPoint {
    /// All points, in fill order.
    pub const ALL: [FillPoint; 3] = [
        FillPoint::HotMapped,
        FillPoint::MidFill,
        FillPoint::LastRegion,
    ];

    /// Short stable name (cell ids, logs).
    pub fn name(self) -> &'static str {
        match self {
            FillPoint::HotMapped => "hot-mapped",
            FillPoint::MidFill => "mid-fill",
            FillPoint::LastRegion => "last-region",
        }
    }
}

/// A fully specified fault to inject: what, at which protocol stage, into
/// which checkpoint generation, parameterized by a seed. Everything random
/// about the injection (which message, how long a delay, where the tear
/// lands) derives from `seed`, so a failing cell reproduces exactly.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// Seed driving all injection randomness.
    pub seed: u64,
    /// Fault kind.
    pub kind: FaultKind,
    /// Protocol stage the fault targets (the DMTCP barrier-stage number;
    /// torn-write kinds ignore it — they fire at image-write time).
    pub stage: u8,
    /// Checkpoint generation the fault targets.
    pub target_gen: u64,
}

struct PartitionWindow {
    a: NodeId,
    b: NodeId,
    until: Nanos,
}

/// Live injection state, shared between the kernel hooks and the protocol
/// notifications via `Rc<RefCell<..>>` in the world's extension slots.
pub struct FaultState {
    plan: FaultPlan,
    rng: DetRng,
    protocol_conns: BTreeSet<ConnId>,
    /// Per-(conn, sending end) FIFO floor: no packet in that direction may
    /// arrive earlier than this (keeps streams ordered under delays).
    floors: BTreeMap<(u64, usize), Nanos>,
    msg_armed: bool,
    msg_budget: u32,
    skip_packets: u64,
    partition: Option<PartitionWindow>,
    /// Per-node relays (hierarchical topology), victims for `RelayKill`.
    relay_procs: Vec<(Pid, NodeId)>,
    /// Relay → root uplinks, victims for `RelaySever`.
    relay_conns: Vec<ConnId>,
    /// Connections severed by `RelaySever`: every packet dropped, forever.
    severed: BTreeSet<ConnId>,
    torn_armed: bool,
    torn_skip_writes: u64,
    /// Node the next node-scoped fault must hit, when the driver pins one
    /// (migration cells name their victim; the matrix default is random).
    pinned_node: Option<NodeId>,
    /// Fire the kill/node-loss at this point of a restore's fill instead.
    fill_point: Option<FillPoint>,
    killed: bool,
    image_deleted: bool,
    /// Images reported written this generation: (gen, writer node, path).
    images: Vec<(u64, NodeId, String)>,
    injected: Vec<String>,
}

impl FaultState {
    fn new(plan: FaultPlan) -> Self {
        let mut rng = DetRng::seed_from_u64(plan.seed);
        let skip_packets = rng.below(3);
        let torn_skip_writes = rng.below(2);
        FaultState {
            plan,
            rng,
            protocol_conns: BTreeSet::new(),
            floors: BTreeMap::new(),
            msg_armed: false,
            msg_budget: 0,
            skip_packets,
            partition: None,
            relay_procs: Vec::new(),
            relay_conns: Vec::new(),
            severed: BTreeSet::new(),
            torn_armed: false,
            torn_skip_writes,
            pinned_node: None,
            fill_point: None,
            killed: false,
            image_deleted: false,
            images: Vec::new(),
            injected: Vec::new(),
        }
    }

    /// The plan this state was built from.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Human-readable log of every fault actually injected.
    pub fn injected(&self) -> &[String] {
        &self.injected
    }

    /// Pin the victim of node-scoped faults ([`FaultKind::KillNode`],
    /// [`FaultKind::NodeLoss`]) to `node` instead of a seeded random pick.
    /// Migration cells use this to choose "source dies" vs "target dies".
    pub fn pin_victim_node(&mut self, node: NodeId) {
        self.pinned_node = Some(node);
    }

    /// Aim a [`FaultKind::KillProc`] or [`FaultKind::NodeLoss`] plan at
    /// `point` of a restore of the target generation ([`fill_progress`])
    /// instead of at a barrier release or a migration's start.
    pub fn target_fill(&mut self, point: FillPoint) {
        self.fill_point = Some(point);
    }

    /// Start the injection window for message/partition faults.
    fn arm_window(&mut self, now: Nanos, candidates: &[(Pid, NodeId)], coord_node: NodeId) {
        match self.plan.kind {
            FaultKind::DropMsg | FaultKind::DelayMsg | FaultKind::ReorderMsg => {
                self.msg_armed = true;
                self.msg_budget = 1;
            }
            FaultKind::Partition => {
                if self.partition.is_some() {
                    return;
                }
                let Some(b) = candidates.iter().map(|c| c.1).find(|n| *n != coord_node) else {
                    return; // single-node cluster: nothing to partition
                };
                let dur = Nanos::from_micros(self.rng.range(10_000, 40_000));
                self.injected.push(format!(
                    "partition node{} | node{} for {:?}",
                    coord_node.0, b.0, dur
                ));
                self.partition = Some(PartitionWindow {
                    a: coord_node,
                    b,
                    until: now + dur,
                });
            }
            _ => {}
        }
    }

    fn disarm_window(&mut self) {
        self.msg_armed = false;
    }

    /// Pick the processes to kill at the target stage.
    fn victims(&mut self, candidates: &[(Pid, NodeId)], coord_node: NodeId) -> Vec<Pid> {
        match self.plan.kind {
            FaultKind::KillProc => {
                if candidates.is_empty() {
                    return Vec::new();
                }
                let idx = self.rng.below(candidates.len() as u64) as usize;
                vec![candidates[idx].0]
            }
            FaultKind::KillNode => {
                let nodes: Vec<NodeId> = {
                    let mut seen = BTreeSet::new();
                    candidates
                        .iter()
                        .map(|c| c.1)
                        .filter(|n| *n != coord_node && seen.insert(*n))
                        .collect()
                };
                if nodes.is_empty() {
                    return Vec::new();
                }
                let node = match self.pinned_node {
                    Some(p) if nodes.contains(&p) => p,
                    _ => nodes[self.rng.below(nodes.len() as u64) as usize],
                };
                self.injected.push(format!("kill-node node{}", node.0));
                candidates
                    .iter()
                    .filter(|c| c.1 == node)
                    .map(|c| c.0)
                    .collect()
            }
            _ => Vec::new(),
        }
    }
}

fn on_packet(state: &Rc<RefCell<FaultState>>, pkt: &NetPacket<'_>) -> NetFault {
    let mut st = state.borrow_mut();
    // A severed relay uplink drops everything in both directions, forever —
    // an unhealing partition of one node's control path.
    if st.severed.contains(&pkt.cid) {
        return NetFault::Drop;
    }
    let key = (pkt.cid.0, pkt.end);
    let floor = st.floors.get(&key).copied().unwrap_or(Nanos::ZERO);
    let mut final_at = pkt.arrival.max(floor);
    let mut raise_floor = true;

    if let Some(p) = &st.partition {
        let crossing = (pkt.src == p.a && pkt.dst == p.b) || (pkt.src == p.b && pkt.dst == p.a);
        if crossing && pkt.now < p.until {
            final_at = final_at.max(p.until + PARTITION_EPS);
        }
    }

    if st.msg_armed && st.msg_budget > 0 && st.protocol_conns.contains(&pkt.cid) {
        if st.skip_packets > 0 {
            st.skip_packets -= 1;
        } else {
            st.msg_budget -= 1;
            match st.plan.kind {
                FaultKind::DropMsg => {
                    let line = format!(
                        "drop {}B on conn {} end {} at {:?}",
                        pkt.bytes.len(),
                        pkt.cid.0,
                        pkt.end,
                        pkt.now
                    );
                    st.injected.push(line);
                    // Floor untouched: the bytes never arrive.
                    return NetFault::Drop;
                }
                FaultKind::DelayMsg => {
                    let d = Nanos::from_micros(st.rng.range(5_000, 60_000));
                    final_at += d;
                    let line = format!(
                        "delay {}B on conn {} end {} by {d:?}",
                        pkt.bytes.len(),
                        pkt.cid.0,
                        pkt.end
                    );
                    st.injected.push(line);
                }
                FaultKind::ReorderMsg => {
                    let d = Nanos::from_micros(st.rng.range(2_000, 15_000));
                    final_at += d;
                    raise_floor = false; // later frames may overtake this one
                    let line = format!(
                        "reorder {}B on conn {} end {} (+{d:?})",
                        pkt.bytes.len(),
                        pkt.cid.0,
                        pkt.end
                    );
                    st.injected.push(line);
                }
                _ => {}
            }
        }
    }

    if raise_floor && final_at > floor {
        st.floors.insert(key, final_at);
    }
    if final_at > pkt.arrival {
        NetFault::DeliverAt(final_at)
    } else {
        NetFault::Deliver
    }
}

fn on_image(state: &Rc<RefCell<FaultState>>, path: &str, blob: &mut oskit::fs::Blob) -> bool {
    let mut st = state.borrow_mut();
    if !st.torn_armed {
        return false;
    }
    if st.torn_skip_writes > 0 {
        st.torn_skip_writes -= 1;
        return false;
    }
    st.torn_armed = false;
    match st.plan.kind {
        FaultKind::TornTruncate => {
            let len = blob.len();
            if len < 2 {
                return false;
            }
            let keep = st.rng.range(1, len);
            blob.truncate(keep);
            st.injected
                .push(format!("torn-truncate {path}: {len} -> {keep} bytes"));
            true
        }
        FaultKind::TornBitFlip => {
            let real = blob.real_len();
            if real == 0 {
                return false;
            }
            let off = st.rng.below(real);
            let bit = (st.rng.next_u32() & 7) as u8;
            blob.flip_bit(off, bit);
            st.injected
                .push(format!("torn-bitflip {path}: byte {off} bit {bit}"));
            true
        }
        _ => false,
    }
}

/// Install a fault plan into the world: registers the kernel hooks and the
/// shared state. Returns the state handle (also reachable via [`state`]).
pub fn install(w: &mut World, plan: FaultPlan) -> Rc<RefCell<FaultState>> {
    let st = Rc::new(RefCell::new(FaultState::new(plan)));
    let net = st.clone();
    w.net_fault = Some(Box::new(move |pkt| on_packet(&net, pkt)));
    let img = st.clone();
    w.image_fault = Some(Box::new(move |path, blob| on_image(&img, path, blob)));
    w.ext::<Installed>().0 = Some(st.clone());
    st
}

/// Remove the hooks and state; the world behaves perfectly again. Packets
/// already scheduled (including delayed ones) still arrive as scheduled.
pub fn uninstall(w: &mut World) {
    w.net_fault = None;
    w.image_fault = None;
    w.ext_remove::<Installed>();
}

/// Like [`uninstall`], but journals a `fault.uninstall` flight-recorder
/// event at `now` first. Recorded runs must use this variant: removing the
/// hooks mid-run changes packet timing (e.g. an open partition window stops
/// applying), so a replay has to re-deliver the removal at the same virtual
/// time — which requires it to be on the recorded timeline.
pub fn uninstall_at(w: &mut World, now: Nanos) {
    w.obs.journal.record(
        now,
        obs::journal::CLASS_FAULT,
        "fault.uninstall",
        None,
        &[],
        "",
    );
    uninstall(w);
}

/// The installed state, if any.
pub fn state(w: &World) -> Option<Rc<RefCell<FaultState>>> {
    w.ext_ref::<Installed>()?.0.clone()
}

/// Mark `cid` as carrying coordinator protocol traffic (called by the
/// checkpoint layer when a manager or the coordinator sets up a control
/// connection). Message faults only target these connections.
pub fn note_protocol_conn(w: &mut World, cid: ConnId) {
    if let Some(st) = state(w) {
        st.borrow_mut().protocol_conns.insert(cid);
    }
}

/// Notification: a per-node relay was spawned on `node` (hierarchical
/// topology). `RelayKill` picks its victim from these.
pub fn note_relay(w: &mut World, pid: Pid, node: NodeId) {
    if let Some(st) = state(w) {
        st.borrow_mut().relay_procs.push((pid, node));
    }
}

/// Notification: `cid` is a relay's uplink to the root coordinator.
/// `RelaySever` picks its victim from these.
pub fn note_relay_conn(w: &mut World, cid: ConnId) {
    if let Some(st) = state(w) {
        st.borrow_mut().relay_conns.push(cid);
    }
}

/// Notification: a checkpoint manager finished writing `path` on `node`
/// for generation `gen` (called by the DMTCP layer after `write_image`).
/// Image-delete faults pick their victim from these records.
pub fn image_written(w: &mut World, gen: u64, node: NodeId, path: &str) {
    if let Some(st) = state(w) {
        st.borrow_mut().images.push((gen, node, path.to_string()));
    }
}

/// Journal injections appended during the current notification as
/// `fault.inject` flight-recorder events. The packet and image-write hooks
/// have no world access, so their effects are journaled by the kernel taps
/// (`fault.net.*`, `fault.image`) instead; this covers the kill/partition/
/// image-delete/relay faults fired from the protocol notifications below.
fn journal_new_injections(w: &mut World, now: Nanos, st: &Rc<RefCell<FaultState>>, before: usize) {
    if !w.obs.journal.wants(obs::journal::CLASS_FAULT) {
        return;
    }
    let lines: Vec<String> = st.borrow().injected[before..].to_vec();
    for line in lines {
        w.obs.journal.record(
            now,
            obs::journal::CLASS_FAULT,
            "fault.inject",
            None,
            &[],
            &line,
        );
    }
}

/// Notification: the coordinator just broadcast a checkpoint request for
/// `gen`. Arms torn-write faults for this generation and, for faults
/// targeting the first barrier stage, the message/partition window.
pub fn checkpoint_requested(
    w: &mut World,
    sim: &mut OsSim,
    gen: u64,
    first_stage: u8,
    candidates: &[(Pid, NodeId)],
    coord_node: NodeId,
) {
    let Some(st) = state(w) else {
        return;
    };
    let before = st.borrow().injected.len();
    let mut s = st.borrow_mut();
    if gen != s.plan.target_gen {
        return;
    }
    if matches!(
        s.plan.kind,
        FaultKind::TornTruncate | FaultKind::TornBitFlip
    ) {
        s.torn_armed = true;
    }
    if s.plan.stage == first_stage {
        s.arm_window(sim.now(), candidates, coord_node);
    }
    drop(s);
    journal_new_injections(w, sim.now(), &st, before);
}

/// Notification: the coordinator just released barrier `stg` of `gen`.
/// Arms the injection window when the *next* stage is the target (its
/// messages start flowing now), fires kill faults when `stg` itself is the
/// target, and closes the window once the target stage has been passed.
pub fn stage_released(
    w: &mut World,
    sim: &mut OsSim,
    gen: u64,
    stg: u8,
    candidates: &[(Pid, NodeId)],
    coord_node: NodeId,
) {
    let Some(st) = state(w) else {
        return;
    };
    let before = st.borrow().injected.len();
    let mut s = st.borrow_mut();
    if gen != s.plan.target_gen {
        return;
    }
    if stg + 1 == s.plan.stage {
        s.arm_window(sim.now(), candidates, coord_node);
    }
    if stg == s.plan.stage {
        s.disarm_window();
        if s.plan.kind == FaultKind::ImageDelete && !s.image_deleted {
            let victims: Vec<(NodeId, String)> = s
                .images
                .iter()
                .filter(|(g, _, _)| *g == gen)
                .map(|(_, n, p)| (*n, p.clone()))
                .collect();
            if !victims.is_empty() {
                s.image_deleted = true;
                let (node, path) = victims[s.rng.below(victims.len() as u64) as usize].clone();
                s.injected
                    .push(format!("image-delete node{} {}", node.0, path));
                drop(s);
                delete_primary_image(w, node, &path);
                journal_new_injections(w, sim.now(), &st, before);
                return;
            }
        }
        if matches!(s.plan.kind, FaultKind::KillProc | FaultKind::KillNode)
            && !s.killed
            && s.fill_point.is_none()
        {
            s.killed = true;
            let victims = s.victims(candidates, coord_node);
            for pid in &victims {
                s.injected.push(format!("kill pid {}", pid.0));
            }
            drop(s);
            for pid in victims {
                sim.soon(move |w: &mut World, sim| {
                    w.signal(sim, pid, sig::SIGKILL);
                });
            }
            journal_new_injections(w, sim.now(), &st, before);
            return;
        }
        if s.plan.kind == FaultKind::RelayKill && !s.killed && !s.relay_procs.is_empty() {
            s.killed = true;
            let n = s.relay_procs.len() as u64;
            let idx = s.rng.below(n) as usize;
            let (pid, node) = s.relay_procs[idx];
            s.injected
                .push(format!("relay-kill pid {} node{}", pid.0, node.0));
            drop(s);
            sim.soon(move |w: &mut World, sim| {
                w.signal(sim, pid, sig::SIGKILL);
            });
            journal_new_injections(w, sim.now(), &st, before);
            return;
        }
        if s.plan.kind == FaultKind::RelaySever && s.severed.is_empty() && !s.relay_conns.is_empty()
        {
            let n = s.relay_conns.len() as u64;
            let idx = s.rng.below(n) as usize;
            let cid = s.relay_conns[idx];
            s.severed.insert(cid);
            s.injected.push(format!("relay-sever conn {}", cid.0));
        }
    }
    drop(s);
    journal_new_injections(w, sim.now(), &st, before);
}

/// Notification: a live migration of generation `gen` is about to restore
/// its movers (images committed and validated, restore not yet started).
/// Fires [`FaultKind::NodeLoss`] against the pinned victim node: every
/// process there is killed and its node-local disk (plain images + chunk
/// store) wiped on the next simulation step — a source-node victim forces
/// the restore through replicas, a target-node victim kills the restore
/// before the movers commit.
pub fn migration_started(w: &mut World, sim: &mut OsSim, gen: u64) {
    let Some(st) = state(w) else {
        return;
    };
    let before = st.borrow().injected.len();
    let mut s = st.borrow_mut();
    if s.plan.kind != FaultKind::NodeLoss
        || s.killed
        || s.fill_point.is_some()
        || gen != s.plan.target_gen
    {
        return;
    }
    let Some(node) = s.pinned_node else {
        return;
    };
    s.killed = true;
    s.injected.push(format!("node-loss node{}", node.0));
    drop(s);
    lose_node(sim, node);
    journal_new_injections(w, sim.now(), &st, before);
}

/// Whether the installed plan waits on [`fill_progress`] notifications. The
/// restart layer only schedules them then, so every other run keeps its
/// exact event sequence.
pub fn wants_fill(w: &World) -> bool {
    state(w).is_some_and(|st| st.borrow().fill_point.is_some())
}

/// Notification: the fill of process `pid`, restored on `node` from
/// generation `gen`, reached `point`. A plan aimed there fires now:
/// [`FaultKind::KillProc`] kills `pid`; [`FaultKind::NodeLoss`] takes down
/// `node` — or waits for a restore on the pinned victim node, if one is
/// pinned.
pub fn fill_progress(
    w: &mut World,
    sim: &mut OsSim,
    gen: u64,
    point: FillPoint,
    pid: Pid,
    node: NodeId,
) {
    let Some(st) = state(w) else {
        return;
    };
    let before = st.borrow().injected.len();
    let mut s = st.borrow_mut();
    if s.killed || s.fill_point != Some(point) || gen != s.plan.target_gen {
        return;
    }
    let kind = s.plan.kind;
    match kind {
        FaultKind::KillProc => {
            s.killed = true;
            s.injected
                .push(format!("kill pid {} at {}", pid.0, point.name()));
            drop(s);
            sim.soon(move |w: &mut World, sim| w.signal(sim, pid, sig::SIGKILL));
        }
        FaultKind::NodeLoss if s.pinned_node.is_none_or(|n| n == node) => {
            s.killed = true;
            s.injected
                .push(format!("node-loss node{} at {}", node.0, point.name()));
            drop(s);
            lose_node(sim, node);
        }
        _ => return,
    }
    journal_new_injections(w, sim.now(), &st, before);
}

/// On the next simulation step, kill every process on `node` and wipe its
/// node-local disk (plain images and chunk store alike).
fn lose_node(sim: &mut OsSim, node: NodeId) {
    sim.soon(move |w: &mut World, sim| {
        for pid in w.procs_on(node) {
            w.signal(sim, pid, sig::SIGKILL);
        }
        let doomed: Vec<String> = w.nodes[node.0 as usize]
            .fs
            .list_prefix("/")
            .map(|s| s.to_string())
            .collect();
        for p in doomed {
            w.nodes[node.0 as usize].fs.remove(&p).ok();
        }
        w.obs.metrics.inc("faultkit.node_loss", node.0 as u64);
    });
}

/// Node-local disk loss for one image: remove the plain file (when the
/// image was written as one) and wipe the writer node's entire local chunk
/// store, so nothing of the primary copy survives. Replicas on other nodes
/// are untouched — that is what restart falls back to.
fn delete_primary_image(w: &mut World, node: NodeId, path: &str) {
    w.fs_for_mut(node, path).remove(path).ok();
    let doomed: Vec<String> = w.nodes[node.0 as usize]
        .fs
        .list_prefix(oskit::fs::STORE_ROOT)
        .map(|s| s.to_string())
        .collect();
    for p in doomed {
        w.nodes[node.0 as usize].fs.remove(&p).ok();
    }
    w.obs.metrics.inc("faultkit.image_delete", node.0 as u64);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(kind: FaultKind) -> FaultPlan {
        FaultPlan {
            seed: 0x5EED,
            kind,
            stage: 4,
            target_gen: 2,
        }
    }

    fn pkt(cid: u64, end: usize, now: u64, arrival: u64) -> (Vec<u8>, u64, u64, u64, usize) {
        (vec![0u8; 16], cid, now, arrival, end)
    }

    fn verdict(st: &Rc<RefCell<FaultState>>, p: &(Vec<u8>, u64, u64, u64, usize)) -> NetFault {
        let packet = NetPacket {
            cid: ConnId(p.1),
            end: p.4,
            bytes: &p.0,
            now: Nanos(p.2),
            arrival: Nanos(p.3),
            src: NodeId(0),
            dst: NodeId(1),
        };
        on_packet(st, &packet)
    }

    #[test]
    fn same_seed_same_decisions() {
        let a = Rc::new(RefCell::new(FaultState::new(plan(FaultKind::DelayMsg))));
        let b = Rc::new(RefCell::new(FaultState::new(plan(FaultKind::DelayMsg))));
        for st in [&a, &b] {
            let mut s = st.borrow_mut();
            s.protocol_conns.insert(ConnId(7));
            s.msg_armed = true;
            s.msg_budget = 1;
            s.skip_packets = 0;
        }
        let p = pkt(7, 0, 1000, 2000);
        assert_eq!(verdict(&a, &p), verdict(&b, &p));
    }

    #[test]
    fn fifo_floor_keeps_delayed_streams_ordered() {
        let st = Rc::new(RefCell::new(FaultState::new(plan(FaultKind::DelayMsg))));
        {
            let mut s = st.borrow_mut();
            s.protocol_conns.insert(ConnId(7));
            s.msg_armed = true;
            s.msg_budget = 1;
            s.skip_packets = 0;
        }
        // First packet gets delayed well past its natural arrival.
        let first = verdict(&st, &pkt(7, 0, 1000, 2000));
        let NetFault::DeliverAt(t1) = first else {
            panic!("expected a delay, got {first:?}");
        };
        assert!(t1 > Nanos(2000));
        // Budget is spent, but the floor still holds the next packet back.
        let second = verdict(&st, &pkt(7, 0, 1500, 2500));
        let NetFault::DeliverAt(t2) = second else {
            panic!("expected floor to apply, got {second:?}");
        };
        assert!(t2 >= t1, "FIFO violated: {t2:?} < {t1:?}");
        // The opposite direction is unaffected.
        assert_eq!(verdict(&st, &pkt(7, 1, 1500, 2500)), NetFault::Deliver);
    }

    #[test]
    fn reorder_lets_later_packets_overtake() {
        let st = Rc::new(RefCell::new(FaultState::new(plan(FaultKind::ReorderMsg))));
        {
            let mut s = st.borrow_mut();
            s.protocol_conns.insert(ConnId(7));
            s.msg_armed = true;
            s.msg_budget = 1;
            s.skip_packets = 0;
        }
        let first = verdict(&st, &pkt(7, 0, 1000, 2000));
        assert!(matches!(first, NetFault::DeliverAt(t) if t > Nanos(2000)));
        // Floor was not raised: the next packet sails through on time.
        assert_eq!(verdict(&st, &pkt(7, 0, 1500, 2500)), NetFault::Deliver);
    }

    #[test]
    fn drop_consumes_budget_and_leaves_floor_alone() {
        let st = Rc::new(RefCell::new(FaultState::new(plan(FaultKind::DropMsg))));
        {
            let mut s = st.borrow_mut();
            s.protocol_conns.insert(ConnId(7));
            s.msg_armed = true;
            s.msg_budget = 1;
            s.skip_packets = 0;
        }
        assert_eq!(verdict(&st, &pkt(7, 0, 1000, 2000)), NetFault::Drop);
        assert_eq!(verdict(&st, &pkt(7, 0, 1100, 2100)), NetFault::Deliver);
        assert_eq!(st.borrow().injected().len(), 1);
    }

    #[test]
    fn non_protocol_conns_untouched_by_message_faults() {
        let st = Rc::new(RefCell::new(FaultState::new(plan(FaultKind::DropMsg))));
        {
            let mut s = st.borrow_mut();
            s.protocol_conns.insert(ConnId(7));
            s.msg_armed = true;
            s.msg_budget = 1;
            s.skip_packets = 0;
        }
        assert_eq!(verdict(&st, &pkt(99, 0, 1000, 2000)), NetFault::Deliver);
    }

    #[test]
    fn partition_defers_cross_pair_traffic_until_window_end() {
        let st = Rc::new(RefCell::new(FaultState::new(plan(FaultKind::Partition))));
        {
            let mut s = st.borrow_mut();
            s.partition = Some(PartitionWindow {
                a: NodeId(0),
                b: NodeId(1),
                until: Nanos(1_000_000),
            });
        }
        let v = verdict(&st, &pkt(7, 0, 1000, 2000));
        assert!(
            matches!(v, NetFault::DeliverAt(t) if t >= Nanos(1_000_000)),
            "got {v:?}"
        );
        // After the window, traffic flows normally.
        let v = verdict(&st, &pkt(7, 0, 2_000_000, 2_000_500));
        assert_eq!(v, NetFault::Deliver);
    }

    #[test]
    fn image_delete_wipes_plain_file_and_node_store() {
        use oskit::program::Registry;
        use oskit::HwSpec;
        let mut w = World::new(HwSpec::cluster(), 2, Registry::new());
        let mut sim: OsSim = simkit::Sim::new();
        install(
            &mut w,
            FaultPlan {
                seed: 0x5EED,
                kind: FaultKind::ImageDelete,
                stage: 5,
                target_gen: 2,
            },
        );
        // Primary copies on node 0, a replica manifest on node 1.
        w.nodes[0]
            .fs
            .write_all("/ckpt/a_gen2.dmtcp", b"img")
            .unwrap();
        w.nodes[0]
            .fs
            .write_all("/ckptstore/manifests/a_gen2.dmtcp", b"m")
            .unwrap();
        w.nodes[1]
            .fs
            .write_all("/ckptstore/manifests/a_gen2.dmtcp", b"m")
            .unwrap();
        image_written(&mut w, 2, NodeId(0), "/ckpt/a_gen2.dmtcp");
        stage_released(&mut w, &mut sim, 2, 5, &[], NodeId(0));
        assert!(!w.nodes[0].fs.exists("/ckpt/a_gen2.dmtcp"));
        assert!(!w.nodes[0].fs.exists("/ckptstore/manifests/a_gen2.dmtcp"));
        assert!(
            w.nodes[1].fs.exists("/ckptstore/manifests/a_gen2.dmtcp"),
            "replicas must survive"
        );
        let st = state(&w).unwrap();
        assert_eq!(st.borrow().injected().len(), 1);
        // Fires at most once.
        stage_released(&mut w, &mut sim, 2, 5, &[], NodeId(0));
        assert_eq!(st.borrow().injected().len(), 1);
    }

    #[test]
    fn torn_truncate_shrinks_the_blob_once() {
        let st = Rc::new(RefCell::new(FaultState::new(plan(FaultKind::TornTruncate))));
        {
            let mut s = st.borrow_mut();
            s.torn_armed = true;
            s.torn_skip_writes = 0;
        }
        let mut blob = oskit::fs::Blob::from_bytes(vec![7u8; 4096]);
        assert!(on_image(&st, "/ckpt/a.dmtcp", &mut blob));
        assert!(blob.len() < 4096 && !blob.is_empty());
        // Disarmed after one hit.
        let mut blob2 = oskit::fs::Blob::from_bytes(vec![7u8; 4096]);
        assert!(!on_image(&st, "/ckpt/b.dmtcp", &mut blob2));
        assert_eq!(blob2.len(), 4096);
    }
}
