//! The checkpoint coordinator.
//!
//! One coordinator process serves a whole computation: it implements the
//! six global barriers of the checkpoint algorithm (§4.3), the discovery
//! service restart needs to find migrated peers (§4.4), interval
//! checkpointing (`--interval`), and the commit of each generation into the
//! catalog ([`crate::catalog`], which renders the restart script). The paper
//! notes the centralized coordinator is not a bottleneck at 32 nodes and
//! could be replaced by a distributed implementation; `bench/ablation`
//! measures exactly that claim.

use crate::catalog::GenRecord;
use crate::gsid::Gsid;
use crate::peers::{send_frame, wake_after, Peer, PeerSet};
use crate::proto::Msg;
use mtcp::ImageName;
use obs::json::JsonWriter;
use oskit::program::{Program, Step};
use oskit::world::{NodeId, Pid, Tid, World};
use oskit::{Fd, Kernel};
use simkit::Nanos;
use std::collections::{BTreeMap, BTreeSet};

/// Default coordinator port (the real default is 7779).
pub const COORD_PORT: u16 = 7779;

/// Checkpoint barrier stages, numbered as in Figure 1.
pub mod stage {
    use std::collections::{BTreeMap, BTreeSet};

    /// User threads suspended.
    pub const SUSPENDED: u8 = 2;
    /// Shared-fd leader election completed.
    pub const ELECTED: u8 = 3;
    /// Kernel buffers drained, handshakes done.
    pub const DRAINED: u8 = 4;
    /// Checkpoint image written.
    pub const CHECKPOINTED: u8 = 5;
    /// Kernel buffers refilled.
    pub const REFILLED: u8 = 6;
    /// Checkpoint images durable on storage. For in-line (non-forked)
    /// writes this coincides with `CHECKPOINTED`; for forked checkpointing
    /// it is the end of the overlapped drain phase — the background
    /// compress+write pipeline finished *after* user threads resumed at
    /// `REFILLED`. The generation commits only once this releases.
    pub const CKPT_WRITTEN: u8 = 7;
    /// Restart: memory and threads restored (Figure 2 step 5).
    pub const RESTORED: u8 = 11;
    /// Restart: kernel buffers refilled (Figure 2 step 6).
    pub const RESTART_REFILLED: u8 = 12;

    /// Figure 1's barriers, in the order a checkpoint releases them. An
    /// in-line writer *reaches* `CKPT_WRITTEN` before `CHECKPOINTED` (its
    /// image is durable there), but the coordinator releases it last.
    pub const CHECKPOINT: [u8; 6] = [
        SUSPENDED,
        ELECTED,
        DRAINED,
        CHECKPOINTED,
        REFILLED,
        CKPT_WRITTEN,
    ];
    /// Figure 2's barriers, in the order a restart releases them.
    pub const RESTART: [u8; 2] = [RESTORED, RESTART_REFILLED];

    /// Release span names, in [`CHECKPOINT`] then [`RESTART`] order.
    const RELEASE: [&str; 8] = [
        "release.suspended",
        "release.elected",
        "release.drained",
        "release.checkpointed",
        "release.refilled",
        "release.ckpt_written",
        "release.restored",
        "release.restart_refilled",
    ];
    /// The `core.stage.*` histogram and `stage.*` span of each
    /// stop-the-world step: the first five stages of [`CHECKPOINT`], each
    /// timed from the release before it (or the request) to its own.
    const STEPS: [(&str, &str); 5] = [
        ("core.stage.suspend", "stage.suspend"),
        ("core.stage.elect", "stage.elect"),
        ("core.stage.drain", "stage.drain"),
        ("core.stage.write", "stage.write"),
        ("core.stage.refill", "stage.refill"),
    ];

    fn index(stg: u8) -> Option<usize> {
        CHECKPOINT.iter().chain(&RESTART).position(|&s| s == stg)
    }

    /// Span name of a barrier-release instant (`obs` naming scheme).
    pub fn release_name(stg: u8) -> &'static str {
        index(stg).map_or("release.unknown", |i| RELEASE[i])
    }

    /// The `(metric, span)` names of the stop-the-world step that ends at
    /// `stg`'s release; `None` for the stages that time nothing.
    pub fn step_names(stg: u8) -> Option<(&'static str, &'static str)> {
        STEPS.get(index(stg)?).copied()
    }

    /// The stage after `stg` in its table, or `None` after the last.
    pub fn next(stg: u8) -> Option<u8> {
        [&CHECKPOINT[..], &RESTART[..]]
            .into_iter()
            .find_map(|table| {
                let at = table.iter().position(|&s| s == stg)?;
                Some(table.get(at + 1).copied())
            })?
    }

    /// Remove generation `gen`'s barriers at stage `from` or later from a
    /// `(gen, stage)`-keyed set. It walks that generation's keys only,
    /// where a `retain` would visit every barrier ever released.
    pub(crate) fn forget(set: &mut BTreeSet<(u64, u8)>, gen: u64, from: u8) {
        while let Some(&key) = set.range((gen, from)..=(gen, u8::MAX)).next() {
            set.remove(&key);
        }
    }

    /// [`forget`] for a `(gen, stage)`-keyed map.
    pub(crate) fn forget_keys<V>(map: &mut BTreeMap<(u64, u8), V>, gen: u64, from: u8) {
        while let Some((&key, _)) = map.range((gen, from)..=(gen, u8::MAX)).next() {
            map.remove(&key);
        }
    }
}

/// Barrier timing for one checkpoint generation (benchmark input).
#[derive(Debug, Clone)]
pub struct GenStat {
    /// Generation number.
    pub gen: u64,
    /// When the coordinator broadcast the request.
    pub requested_at: Nanos,
    /// Release time of each barrier stage.
    pub releases: BTreeMap<u8, Nanos>,
    /// Number of participating processes.
    pub participants: u32,
    /// The generation was abandoned (a participant died mid-protocol); its
    /// images, if any, must not be trusted and it has no catalog record.
    pub aborted: bool,
}

impl GenStat {
    /// Wall-clock from request to the "checkpointed" barrier — the paper's
    /// reported checkpoint time (user threads are suspended from request to
    /// resume; the image is safe at stage 5).
    pub fn checkpoint_time(&self) -> Option<Nanos> {
        self.releases
            .get(&stage::CHECKPOINTED)
            .map(|t| *t - self.requested_at)
    }

    /// Wall-clock until user threads resumed (stage 6 released). With
    /// forked checkpointing on, this is the *perceived downtime*: the only
    /// window in which the application is stopped.
    pub fn total_pause(&self) -> Option<Nanos> {
        self.releases
            .get(&stage::REFILLED)
            .map(|t| *t - self.requested_at)
    }

    /// Wall-clock from request until every image was durable and
    /// acknowledged (`CKPT_WRITTEN` released) — the *total checkpoint
    /// time*. Equals `total_pause` for in-line writes; strictly larger in
    /// forked mode, where the overlapped drain runs behind the
    /// application. `None` while the drain is still in flight (or the
    /// generation aborted before finishing).
    pub fn written_time(&self) -> Option<Nanos> {
        self.releases
            .get(&stage::CKPT_WRITTEN)
            .map(|t| *t - self.requested_at)
    }
}

/// What of a coordinator must outlive it: its request mailbox, its pid, its
/// generations' timings and the images of the generation in flight. Kept
/// in a world extension so drivers and benches can read it after the run;
/// the barrier bookkeeping stays in the [`Coordinator`] (read in place
/// through `World::program`). Per-process stage breakdowns
/// (Table 1 input) live in the world's metrics registry under
/// `core.stage.*` / `core.restart.*` histograms, labeled by generation.
#[derive(Debug, Default)]
pub struct CoordShared {
    /// Trigger flag posted by `dmtcp command --checkpoint` / the interval
    /// timer.
    pub ckpt_request_pending: bool,
    /// Coordinator process (for waking on mailbox posts).
    pub coord_pid: Option<Pid>,
    /// Barrier timing per generation.
    pub gen_stats: Vec<GenStat>,
    /// `(host, checkpoint directory, vpid)` of every image written so far
    /// in the generation in flight. Scratch only: cleared at request and at
    /// abort, moved into the generation's catalog record at commit.
    pub last_images: Vec<(String, String, u32)>,
}

impl CoordShared {
    /// The newest stats of generation `gen`. Generation numbers are reused
    /// (a restart rolls the counter back and re-arms the generation it
    /// restores), so "the" stats of a generation are the last pushed.
    pub fn newest(&self, gen: u64) -> Option<&GenStat> {
        self.gen_stats.iter().rev().find(|g| g.gen == gen)
    }
}

/// Every root coordinator's [`CoordShared`], by listening port (one typed
/// world extension; see `oskit::World::ext`).
#[derive(Debug, Default)]
struct CoordPorts(BTreeMap<u16, CoordShared>);

/// Access the shared state of the coordinator listening on `port`. Each
/// root coordinator owns an independent [`CoordShared`] keyed by its port,
/// which is what lets many coordinators (dmtcpd shards) coexist in one
/// world without sharing generation counters or image lists.
pub fn coord_shared_for(w: &mut World, port: u16) -> &mut CoordShared {
    w.ext::<CoordPorts>().0.entry(port).or_default()
}

/// Relay-specific state of a root client (see `crate::relay`): the root
/// tracks relays and direct managers uniformly — a direct client always
/// contributes exactly one barrier participant, a relay contributes as many
/// as it currently fronts.
struct RelayInfo {
    /// Local participants the relay currently fronts (its latest
    /// `RelayMembership` report).
    members: u32,
    /// Last time anything arrived from this relay — liveness input. A relay
    /// pings while a generation is in flight, so prolonged silence inside
    /// one means the relay (and with it a whole node) is gone.
    last_heard: Nanos,
}

/// What the root knows about one accepted connection. The connection's
/// serial (unique per accept) keys a relay's barrier contribution — a vpid
/// cannot, relays have none.
#[derive(Default)]
struct ClientInfo {
    vpid: u32,
    /// Registered before the latest `RestartPlan`: almost certainly a
    /// zombie connection of the crashed computation whose EOF is still in
    /// flight. Its hang-up must not abort the restarted generation; any
    /// message it sends proves it alive and clears the flag.
    stale: bool,
    /// `Some` once the connection identified itself as a per-node relay.
    relay: Option<RelayInfo>,
}

impl ClientInfo {
    /// A registered, non-stale direct participant (what
    /// `Coordinator::participants` counts).
    fn is_participant(&self) -> bool {
        !self.stale && self.vpid != 0
    }
}

type Client = Peer<ClientInfo>;

impl Client {
    /// Barrier-accounting key: direct clients are keyed by vpid (stable
    /// across reconnects), relays by their connection serial offset past
    /// the vpid space.
    fn contrib_key(&self) -> u64 {
        if self.info.relay.is_some() {
            RELAY_KEY_BASE | self.serial
        } else {
            self.info.vpid as u64
        }
    }

    /// How many barrier participants this connection speaks for.
    fn quota(&self) -> u32 {
        self.info.relay.as_ref().map(|r| r.members).unwrap_or(1)
    }
}

/// One pending barrier: each connection's cumulative contribution and their
/// running total, so an arrival costs O(1) however many have arrived.
#[derive(Default)]
struct Barrier {
    by_client: BTreeMap<u64, u32>,
    total: u32,
}

/// Relay contribution keys live above the 32-bit vpid space.
const RELAY_KEY_BASE: u64 = 1 << 32;

/// The coordinator program. It is *not* checkpointed (same as real DMTCP,
/// where a new coordinator is started for restart), so its state need not
/// be serializable.
pub struct Coordinator {
    pub(crate) port: u16,
    interval: Option<Nanos>,
    clients: PeerSet<ClientInfo>,
    /// How many clients are registered and not stale. The migration driver
    /// watches this to know when the killed movers' EOFs have been reaped
    /// before it re-arms the restart barriers.
    pub(crate) participants: u32,
    gen: u64,
    in_progress: bool,
    /// The overlapped drain phase of `gen` is still open: user threads
    /// resumed (`REFILLED` released) but not every `CKPT_WRITTEN` ack has
    /// arrived. A new checkpoint request is queued behind it.
    drain_open: bool,
    /// A checkpoint request arrived while one was in flight; start it as
    /// soon as the current generation fully settles.
    queued: bool,
    expected: u32,
    /// Per-connection barrier contributions for each pending barrier,
    /// keyed by `Client::contrib_key`. Direct clients contribute 1 (the map
    /// keeps retransmitted `BarrierReached` idempotent); relays contribute
    /// their cumulative `BarrierAckN` count, merged monotonically so
    /// retransmissions and reordering are idempotent too.
    barrier_counts: BTreeMap<(u64, u8), Barrier>,
    /// Barriers already released; a late `BarrierReached` for one of these
    /// means our release may have been lost — re-send it to that client.
    released: BTreeSet<(u64, u8)>,
    /// Generations abandoned mid-protocol; stale messages for them are
    /// dropped silently.
    aborted_gens: BTreeSet<u64>,
    discovery: BTreeMap<Gsid, (String, u16)>,
    requested_at: Nanos,
    /// Retransmit deadline for the in-flight `CkptRequest` (the one
    /// coordinator message with no manager-side retry).
    retry_at: Option<Nanos>,
    retry_backoff: Nanos,
    /// A `RestartPlan` re-armed the barriers: relay liveness timeouts and
    /// relay membership-loss reports must not abort the restart (relays
    /// only front the *pre*-restart computation; restored managers register
    /// directly with the root).
    restarting: bool,
    /// A `MigratePlan` is in flight: (generation, mover count). The
    /// restart-stage barriers of that generation release when the *moving*
    /// subset reaches them — live bystanders never enter the restart stages
    /// and must not be counted against them.
    migrating: Option<(u64, u32)>,
    /// Next relay-liveness check deadline (armed only while a generation
    /// with relays is in flight, so an idle coordinator stays quiescent).
    liveness_at: Option<Nanos>,
}

/// Initial `CkptRequest` retransmit timeout (doubles on each retry).
const CKPT_RETRY_INITIAL: Nanos = Nanos(50_000_000); // 50 ms

/// A relay silent for this long inside an in-flight generation is treated
/// as a lost participant (its whole node is presumed gone). Comfortably
/// above the relay's 25 ms ping cadence.
const RELAY_TIMEOUT: Nanos = Nanos(200_000_000); // 200 ms

/// Cadence of the relay-liveness sweep while a generation is in flight.
const LIVENESS_CHECK: Nanos = Nanos(60_000_000); // 60 ms

impl Coordinator {
    /// A coordinator listening on `port`, checkpointing every `interval`
    /// when set.
    pub fn new(port: u16, interval: Option<Nanos>) -> Self {
        Coordinator {
            port,
            interval,
            clients: PeerSet::default(),
            participants: 0,
            gen: 0,
            in_progress: false,
            drain_open: false,
            queued: false,
            expected: 0,
            barrier_counts: BTreeMap::new(),
            released: BTreeSet::new(),
            aborted_gens: BTreeSet::new(),
            discovery: BTreeMap::new(),
            requested_at: Nanos::ZERO,
            retry_at: None,
            retry_backoff: CKPT_RETRY_INITIAL,
            restarting: false,
            migrating: None,
            liveness_at: None,
        }
    }

    fn send_to(&mut self, k: &mut Kernel<'_>, fd: Fd, msg: &Msg) {
        // Every wire message in or out of the root is counted per
        // generation — the scale bench's O(processes) vs O(nodes) metric.
        k.obs().metrics.inc("coord.root_msgs", self.gen);
        send_frame(k, fd, msg);
    }

    fn broadcast(&mut self, k: &mut Kernel<'_>, msg: &Msg) {
        let fds: Vec<Fd> = self.clients.iter().map(|c| c.fd).collect();
        for fd in fds {
            self.send_to(k, fd, msg);
        }
    }

    /// Note liveness input from client `from` (refreshes a relay's
    /// `last_heard`; no-op for direct clients).
    fn heard_from(&mut self, k: &mut Kernel<'_>, from: usize) {
        let now = k.now();
        if let Some(r) = self.clients[from].info.relay.as_mut() {
            r.last_heard = now;
        }
    }

    /// Post a checkpoint request to ourselves one `interval` from now.
    fn arm_interval(&self, k: &mut Kernel<'_>) {
        if let Some(iv) = self.interval {
            let (pid, port) = (k.getpid_real(), self.port);
            k.sim.after(iv, move |w: &mut World, sim| {
                coord_shared_for(w, port).ckpt_request_pending = true;
                w.wake(sim, (pid, Tid(0)));
            });
        }
    }

    /// Open the `GenStat` of a generation of `participants` requested now.
    fn push_gen_stat(&mut self, k: &mut Kernel<'_>, gen: u64, participants: u32) {
        self.requested_at = k.now();
        coord_shared_for(k.w, self.port).gen_stats.push(GenStat {
            gen,
            requested_at: self.requested_at,
            releases: BTreeMap::new(),
            participants,
            aborted: false,
        });
    }

    /// The newest `GenStat` of `gen`.
    fn gen_stat<'w>(&self, k: &'w mut Kernel<'_>, gen: u64) -> Option<&'w mut GenStat> {
        let stats = &mut coord_shared_for(k.w, self.port).gen_stats;
        stats.iter_mut().rev().find(|g| g.gen == gen)
    }

    /// A plan message re-armed the barriers; participants may have raced
    /// their barrier messages ahead of it, so re-check every pending one.
    fn recheck_pending(&mut self, k: &mut Kernel<'_>) {
        let pending: Vec<(u64, u8)> = self.barrier_counts.keys().copied().collect();
        for (g, s) in pending {
            self.check_release(k, g, s);
        }
    }

    fn start_checkpoint(&mut self, k: &mut Kernel<'_>) {
        if self.clients.is_empty() {
            return;
        }
        if self.in_progress || self.drain_open {
            // A generation is still in its stop-the-world phase or its
            // overlapped drain; checkpoints are serialized — remember the
            // request and start it once `CKPT_WRITTEN` releases.
            self.queued = true;
            return;
        }
        let expected: u32 = self.clients.iter().map(Client::quota).sum();
        if expected == 0 {
            // Only empty relays are connected; nothing to checkpoint.
            return;
        }
        self.gen += 1;
        self.in_progress = true;
        self.drain_open = true;
        self.restarting = false;
        self.expected = expected;
        self.push_gen_stat(k, self.gen, expected);
        coord_shared_for(k.w, self.port).last_images.clear();
        // A restart may have rolled the counter back: generations from this
        // one up are about to have their image files overwritten.
        crate::catalog::discard_from(k.w, self.port, self.gen);
        // Relay liveness counts from the request; arm the sweep if any
        // relay participates.
        let now = k.now();
        let mut have_relays = false;
        for c in self.clients.iter_mut() {
            if let Some(r) = c.info.relay.as_mut() {
                r.last_heard = now;
                have_relays = true;
            }
        }
        if have_relays {
            self.liveness_at = Some(now + LIVENESS_CHECK);
            wake_after(k, LIVENESS_CHECK);
        }
        let (gen, expected) = (self.gen, self.expected);
        k.obs().metrics.inc("core.ckpt.requests", 0);
        let (at, track) = (k.now(), k.track());
        k.obs()
            .spans
            .instant(at, track, "ckpt.request", "coord", vec![("gen", gen)]);
        k.obs().journal.record(
            at,
            obs::journal::CLASS_STAGE,
            "stage.request",
            None,
            &[("gen", gen), ("participants", expected as u64)],
            "",
        );
        // Generation numbers can be reused after a restart rolled the
        // counter back; drop any stale barrier state for this one.
        self.aborted_gens.remove(&gen);
        stage::forget_keys(&mut self.barrier_counts, gen, 0);
        stage::forget(&mut self.released, gen, 0);
        self.broadcast(k, &Msg::CkptRequest(self.gen));
        // The request is the one coordinator message with no manager-side
        // retransmission; arm a retry in case the network eats it.
        self.retry_backoff = CKPT_RETRY_INITIAL;
        self.retry_at = Some(k.now() + self.retry_backoff);
        wake_after(k, self.retry_backoff);
        if let Some(candidates) = fault_candidates(k) {
            let coord_node = k.node();
            faultkit::checkpoint_requested(
                k.w,
                k.sim,
                gen,
                stage::SUSPENDED,
                &candidates,
                coord_node,
            );
        }
    }

    /// Start the checkpoint that was requested while one was in flight.
    fn start_queued(&mut self, k: &mut Kernel<'_>) {
        if std::mem::take(&mut self.queued) {
            self.start_checkpoint(k);
        }
    }

    /// A participant died, so the generation in flight can never complete:
    /// abandon whichever phase of it is open and tell the survivors.
    ///
    /// In the stop-the-world phase they roll back and resume computing; the
    /// generation's images (if any) never enter the catalog. In the
    /// overlapped drain — the participant died *after* user threads resumed
    /// but before its background image write finished — survivors still
    /// draining stand down, and the previous generation stays the newest
    /// committed one, so a restart rolls back exactly one generation (the
    /// transparency invariant).
    fn abandon(&mut self, k: &mut Kernel<'_>) {
        let stw = self.in_progress;
        if !stw && !self.drain_open {
            return;
        }
        let gen = self.gen;
        self.drain_open = false;
        self.aborted_gens.insert(gen);
        stage::forget_keys(&mut self.barrier_counts, gen, 0);
        coord_shared_for(k.w, self.port).last_images.clear();
        if stw {
            self.in_progress = false;
            self.retry_at = None;
            self.migrating = None;
            stage::forget(&mut self.released, gen, 0);
        }
        if let Some(gs) = self.gen_stat(k, gen) {
            gs.aborted = true;
        }
        let (metric, span, detail) = if stw {
            ("core.ckpt.aborts", "ckpt.abort", "generation")
        } else {
            ("core.ckpt.drain_aborts", "ckpt.drain_abort", "drain")
        };
        k.obs().metrics.inc(metric, 0);
        let (at, track) = (k.now(), k.track());
        k.obs()
            .spans
            .instant(at, track, span, "coord", vec![("gen", gen)]);
        k.obs().journal.record(
            at,
            obs::journal::CLASS_STAGE,
            "stage.abort",
            None,
            &[("gen", gen)],
            detail,
        );
        self.broadcast(k, &Msg::CkptAbort(gen));
        if stw {
            self.arm_interval(k);
        }
        self.start_queued(k);
    }

    fn handle(&mut self, k: &mut Kernel<'_>, from: usize, msg: Msg) {
        // Inbound half of the per-generation root message count (the
        // outbound half is in `send_to`).
        k.obs().metrics.inc("coord.root_msgs", self.gen);
        // Only restart-protocol traffic proves a client belongs to the
        // restored computation (see `Client::stale`): a zombie's final
        // in-flight packets — e.g. a reordered checkpoint-barrier ack —
        // can be delivered in the same wake as its EOF, so arbitrary
        // traffic must not clear the flag.
        let c = &mut self.clients[from].info;
        let was_participant = c.is_participant();
        match &msg {
            Msg::Register(vpid, _host) => {
                c.stale = false;
                c.vpid = *vpid;
            }
            Msg::BarrierReached(_, stg) if *stg >= stage::RESTORED => c.stale = false,
            _ => {}
        }
        if c.is_participant() && !was_participant {
            self.participants += 1;
        }
        match msg {
            Msg::Register(..) => {}
            // A direct client's arrival is a cumulative contribution of 1.
            Msg::BarrierReached(gen, stg) => self.barrier_arrival(k, from, gen, stg, 1),
            Msg::BarrierAckN(gen, stg, count) => {
                // A relay's aggregated barrier contribution.
                self.heard_from(k, from);
                self.barrier_arrival(k, from, gen, stg, count);
            }
            Msg::RelayRegister(_host) => {
                let now = k.now();
                self.clients[from].info.relay = Some(RelayInfo {
                    members: 0,
                    last_heard: now,
                });
            }
            Msg::RelayMembership(count, lost) => {
                self.heard_from(k, from);
                if let Some(r) = self.clients[from].info.relay.as_mut() {
                    r.members = count;
                }
                if lost > 0 && !self.restarting {
                    // A participant behind this relay died. Identical to a
                    // direct client's EOF: the in-flight barrier (or the
                    // overlapped drain) can never complete.
                    self.abandon(k);
                }
            }
            Msg::RelayPing(gen) => {
                self.heard_from(k, from);
                let fd = self.clients[from].fd;
                self.send_to(k, fd, &Msg::RelayPong(gen));
            }
            Msg::Advertise(gsid, host, port) => {
                self.discovery.insert(gsid, (host, port));
            }
            Msg::Query(gsid) => {
                let reply = match self.discovery.get(&gsid) {
                    Some((h, p)) => Msg::QueryReply(gsid, h.clone(), *p),
                    None => Msg::QueryReply(gsid, String::new(), 0),
                };
                let fd = self.clients[from].fd;
                self.send_to(k, fd, &reply);
            }
            Msg::RestartPlan(n, gen) => {
                // A restart driver re-arms barrier accounting for the
                // restored computation at the generation it is restoring.
                // Restored managers register directly with the root, so the
                // restart runs flat even when the crashed computation was
                // hierarchical; surviving relays just sit out (and must not
                // be liveness-timed-out meanwhile — hence `restarting`).
                self.expected = n;
                self.in_progress = true;
                self.restarting = true;
                self.migrating = None;
                // Any pre-restart drain or queued request died with the
                // computation being replaced.
                self.drain_open = false;
                self.queued = false;
                self.gen = gen;
                // Advertisements from any previous restart are stale, and a
                // restored generation number sheds any aborted-attempt
                // state it may have carried before the rollback.
                self.discovery.clear();
                self.aborted_gens.clear();
                stage::forget(&mut self.released, gen, 0);
                // Everyone registered so far belongs to the computation
                // being replaced; their in-flight EOFs must not abort the
                // restart. Restored managers that raced ahead of the plan
                // clear the flag with their next message.
                for c in self.clients.iter_mut() {
                    if c.info.vpid != 0 {
                        c.info.stale = true;
                    }
                }
                self.participants = 0;
                self.push_gen_stat(k, gen, n);
                self.recheck_pending(k);
            }
            Msg::MigratePlan(n, gen) => {
                // A migration driver restores a *subset* of generation
                // `gen`'s managers onto new nodes while the rest of the
                // computation keeps running. Unlike `RestartPlan`, nobody is
                // marked stale and the full barrier accounting stays armed:
                // only the restart-stage barriers of `gen` are scoped down
                // to the `n` movers (see `check_release`).
                self.migrating = Some((gen, n));
                // Checkpoints serialize against the restore window — a
                // request arriving mid-migration would reach managers that
                // are not resumed yet. Queued requests start once
                // RESTART_REFILLED releases.
                self.in_progress = true;
                // The movers' source processes were deliberately killed;
                // relay membership-loss reports for them must not abort the
                // migration.
                self.restarting = true;
                self.gen = gen;
                // A previous failed attempt at this migration may have
                // aborted the generation; a retry legitimately reuses it.
                self.aborted_gens.remove(&gen);
                stage::forget(&mut self.released, gen, stage::RESTORED);
                self.push_gen_stat(k, gen, n);
                self.recheck_pending(k);
            }
            other => panic!("coordinator got unexpected message {other:?}"),
        }
    }

    /// Client `from` reports that `upto` of the participants it speaks for
    /// (cumulatively) reached barrier `(gen, stg)`: 1 for a direct client's
    /// `BarrierReached`, the running count of a relay's `BarrierAckN`.
    fn barrier_arrival(&mut self, k: &mut Kernel<'_>, from: usize, gen: u64, stg: u8, upto: u32) {
        if self.aborted_gens.contains(&gen) {
            // Stale arrival from an abandoned attempt. For the drain
            // barrier, answer with the abort rather than dropping silently:
            // a forked manager finishing its background write after a drain
            // abort would otherwise retransmit this ack forever. Other
            // stages (notably the restart barriers, which legitimately
            // reuse an aborted generation number before `RestartPlan`
            // arrives) keep the silent-drop behavior.
            if stg == stage::CKPT_WRITTEN {
                let fd = self.clients[from].fd;
                self.send_to(k, fd, &Msg::CkptAbort(gen));
            }
            return;
        }
        if self.released.contains(&(gen, stg)) {
            // Our release may have been lost; re-send it to this client
            // only.
            let fd = self.clients[from].fd;
            self.send_to(k, fd, &Msg::BarrierRelease(gen, stg));
            return;
        }
        let key = self.clients[from].contrib_key();
        let barrier = self.barrier_counts.entry((gen, stg)).or_default();
        let cur = barrier.by_client.entry(key).or_insert(0);
        if upto <= *cur {
            return; // stale or retransmitted (contributions are cumulative)
        }
        barrier.total += upto - *cur;
        *cur = upto;
        self.check_release(k, gen, stg);
    }

    /// Release a barrier once every expected participant reached it.
    fn check_release(&mut self, k: &mut Kernel<'_>, gen: u64, stg: u8) {
        let count = self.barrier_counts.get(&(gen, stg)).map_or(0, |b| b.total);
        // During a live migration only the movers run the restart stages:
        // they release against the migration's own quorum, not the full
        // computation's.
        let expected = match self.migrating {
            Some((mg, n)) if gen == mg && stg >= stage::RESTORED => n,
            _ => self.expected,
        };
        if expected == 0 || count < expected {
            return;
        }
        // CKPT_WRITTEN is ordered after REFILLED even though in-line
        // writers ack it earlier (their image is durable before the
        // refill): hold the release until the stop-the-world protocol has
        // fully completed, so stages release in Figure-1 order.
        if stg == stage::CKPT_WRITTEN && !self.released.contains(&(gen, stage::REFILLED)) {
            return;
        }
        self.barrier_counts.remove(&(gen, stg));
        self.released.insert((gen, stg));
        let now = k.now();
        if let Some(gs) = self.gen_stat(k, gen) {
            gs.releases.insert(stg, now);
        }
        k.obs().metrics.inc("core.barrier.releases", stg as u64);
        let track = k.track();
        k.obs().spans.instant(
            now,
            track,
            stage::release_name(stg),
            "coord",
            vec![("gen", gen), ("stage", stg as u64)],
        );
        k.obs().journal.record(
            now,
            obs::journal::CLASS_STAGE,
            "stage.release",
            None,
            &[("gen", gen), ("stage", stg as u64)],
            stage::release_name(stg),
        );
        self.broadcast(k, &Msg::BarrierRelease(gen, stg));
        if stg == stage::REFILLED || stg == stage::RESTART_REFILLED {
            self.in_progress = false;
            self.retry_at = None;
            if stg == stage::RESTART_REFILLED {
                self.migrating = None;
                // A checkpoint requested mid-restore was queued; start it
                // now that every manager is resumed.
                self.start_queued(k);
            }
            self.arm_interval(k);
        }
        if let Some(candidates) = fault_candidates(k) {
            let coord_node = k.node();
            faultkit::stage_released(k.w, k.sim, gen, stg, &candidates, coord_node);
        }
        if stg == stage::REFILLED {
            // In-line writers acked CKPT_WRITTEN before CHECKPOINTED; if
            // everyone already reached it, the drain closes at this same
            // instant (two-phase protocol degenerates to the old one).
            self.check_release(k, gen, stage::CKPT_WRITTEN);
        }
        if stg == stage::CKPT_WRITTEN {
            self.drain_open = false;
            // Every image is durable and acknowledged: the in-flight list
            // becomes generation `gen`'s catalog record — the commit.
            let mut images = std::mem::take(&mut coord_shared_for(k.w, self.port).last_images);
            images.sort_by(|a, b| a.0.cmp(&b.0)); // stable: by host
            crate::catalog::commit(k.w, self.port, &GenRecord { gen, images });
            self.start_queued(k);
        }
    }

    /// Render the barrier bookkeeping for a `dmtcp replay` snapshot: the
    /// port, the current generation, whether its stop-the-world phase and
    /// overlapped drain are open, the expected participant count, and the
    /// summed contributions of every barrier still pending.
    pub(crate) fn write_json(&self, j: &mut JsonWriter) {
        j.obj_begin();
        j.field_u64("port", self.port as u64);
        j.field_u64("gen", self.gen);
        j.key("in_progress").val_bool(self.in_progress);
        j.key("drain_open").val_bool(self.drain_open);
        j.field_u64("expected", self.expected as u64);
        j.key("barriers").arr_begin();
        for ((gen, stg), b) in &self.barrier_counts {
            j.obj_begin();
            j.field_u64("gen", *gen);
            j.field_u64("stage", *stg as u64);
            j.field_u64("acks", b.total as u64);
            j.obj_end();
        }
        j.arr_end();
        j.obj_end();
    }
}

impl Program for Coordinator {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        if let Some(port) = self.clients.listen_once(k, self.port) {
            self.port = port;
            coord_shared_for(k.w, port).coord_pid = Some(k.getpid_real());
            // Arm the first interval tick.
            self.arm_interval(k);
        }
        let mut progressed = true;
        while progressed {
            // Accept new managers, then serve exactly the clients whose
            // sockets became readable, in ascending serial order.
            progressed = self.clients.accept_new(k);
            while let Some((from, msg)) = self.clients.next_msg(k) {
                self.handle(k, from, msg);
                progressed = true;
            }
            // Clients whose process exited (EOF) leave the computation; one
            // speaking garbage (corrupted frames) is treated the same.
            // Only *registered* clients are protocol participants; restart
            // processes and command-line tools connect without registering
            // and may hang up freely (e.g. after forking the children). A
            // relay counts as a participant whenever it fronts anyone.
            let mut lost_participant = false;
            for c in self.clients.reap(k) {
                lost_participant |= !c.info.stale
                    && (c.info.vpid != 0 || (c.info.relay.is_some() && c.quota() > 0));
                if c.info.is_participant() {
                    self.participants -= 1;
                }
                progressed = true;
            }
            if lost_participant {
                // It vanished mid-protocol (the barrier can never be
                // reached) or during the overlapped drain (its image will
                // never be acknowledged).
                self.abandon(k);
            }
            // Mailbox: `dmtcp command --checkpoint`, interval timer, or the
            // dmtcpaware request API.
            if coord_shared_for(k.w, self.port).ckpt_request_pending {
                coord_shared_for(k.w, self.port).ckpt_request_pending = false;
                self.start_checkpoint(k);
                progressed = true;
            }
        }
        // Retransmit the checkpoint request if the first barrier has not
        // been released by the deadline (the broadcast may have been lost).
        if let Some(at) = self.retry_at {
            if k.now() >= at {
                if self.in_progress && !self.released.contains(&(self.gen, stage::SUSPENDED)) {
                    k.obs().metrics.inc("core.ckpt.request_retries", 0);
                    self.broadcast(k, &Msg::CkptRequest(self.gen));
                    self.retry_backoff = self.retry_backoff + self.retry_backoff;
                    self.retry_at = Some(k.now() + self.retry_backoff);
                    wake_after(k, self.retry_backoff);
                } else {
                    self.retry_at = None;
                }
            }
        }
        // Relay-liveness sweep: a relay silent past RELAY_TIMEOUT inside an
        // in-flight generation means its node is gone — drop it and abort,
        // exactly as a direct participant's EOF would. Never during a
        // restart (relays legitimately sit those out) and never re-armed
        // once idle, so the coordinator stays quiescent between requests.
        if let Some(at) = self.liveness_at {
            if k.now() >= at {
                self.liveness_at = None;
                if (self.in_progress || self.drain_open) && !self.restarting {
                    let now = k.now();
                    let silent =
                        |r: &RelayInfo| r.members > 0 && now - r.last_heard > RELAY_TIMEOUT;
                    let timed_out: Vec<usize> = (0..self.clients.len())
                        .filter(|&i| self.clients[i].info.relay.as_ref().is_some_and(silent))
                        .collect();
                    if timed_out.is_empty() {
                        self.liveness_at = Some(now + LIVENESS_CHECK);
                        wake_after(k, LIVENESS_CHECK);
                    } else {
                        for i in timed_out.into_iter().rev() {
                            // (A relay never registers a vpid, so it was
                            // not counted in `participants`.)
                            self.clients.remove(k, i);
                            k.obs().metrics.inc("coord.relay_timeouts", 0);
                        }
                        self.abandon(k);
                    }
                }
            }
        }
        Step::Block
    }

    fn tag(&self) -> &'static str {
        "dmtcp-coordinator"
    }

    fn save(&self) -> Vec<u8> {
        unreachable!("the coordinator is never checkpointed (as in real DMTCP)")
    }
}

/// Every live DMTCP-traced process, with its node — the fault injector's
/// candidate victims for process/node kills at barrier instants. `None`
/// when no fault plan is installed: the injector would ignore the list, and
/// building it walks every process record the world ever held.
fn fault_candidates(k: &Kernel<'_>) -> Option<Vec<(Pid, NodeId)>> {
    faultkit::state(k.w)?;
    let procs = k.w.procs.iter();
    let traced = procs.filter(|(_, p)| crate::hijack::is_traced_proc(p) && p.alive());
    Some(traced.map(|(pid, p)| (*pid, p.node)).collect())
}

/// Where the restart script of the coordinator listening on `port` is
/// written (§3: "a shell script ... containing all the commands needed to
/// restart the distributed computation"). The default port keeps the
/// historical fixed path; every other coordinator (a dmtcpd shard) gets a
/// port-suffixed one, so concurrent shards never overwrite each other's.
pub fn restart_script_path(port: u16) -> String {
    if port == COORD_PORT {
        "/shared/dmtcp_restart_script.sh".to_string()
    } else {
        format!("/shared/dmtcp_restart_script_{port}.sh")
    }
}

/// Record an image written on `host` by a manager, so the generation in
/// flight at the root coordinator on `root_port` commits with it.
pub fn record_image(w: &mut World, root_port: u16, host: String, image: ImageName) {
    coord_shared_for(w, root_port)
        .last_images
        .push((host, image.dir, image.vpid));
}

/// Post a checkpoint request to the coordinator on `port` (`dmtcp command
/// --checkpoint`, the dmtcpaware API, a dmtcpd shard) and wake it.
pub fn request_checkpoint(w: &mut World, sim: &mut oskit::world::OsSim, port: u16) {
    let cs = coord_shared_for(w, port);
    cs.ckpt_request_pending = true;
    if let Some(pid) = cs.coord_pid {
        w.wake(sim, (pid, Tid(0)));
    }
}

#[cfg(test)]
mod tests {
    use super::stage;
    use simkit::DetRng;
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn forgetting_a_generation_leaves_what_retain_leaves() {
        let mut rng = DetRng::seed_from_u64(0xC0_0D);
        for case in 0..200 {
            let keys: Vec<(u64, u8)> = (0..rng.below(60))
                .map(|_| (rng.below(8), rng.below(14) as u8))
                .collect();
            let gen = rng.below(9);
            let from = [0, stage::RESTORED, rng.below(256) as u8][rng.below(3) as usize];
            let kept = |&(g, s): &(u64, u8)| !(g == gen && s >= from);

            let mut set: BTreeSet<(u64, u8)> = keys.iter().copied().collect();
            let mut want = set.clone();
            want.retain(kept);
            stage::forget(&mut set, gen, from);
            assert_eq!(set, want, "case {case}: set, gen {gen} from {from}");

            let mut map: BTreeMap<(u64, u8), usize> =
                keys.iter().enumerate().map(|(i, &k)| (k, i)).collect();
            let mut want = map.clone();
            want.retain(|k, _| kept(k));
            stage::forget_keys(&mut map, gen, from);
            assert_eq!(map, want, "case {case}: map, gen {gen} from {from}");
        }
    }
}
