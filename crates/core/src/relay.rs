//! The per-node relay: the aggregation tier of the hierarchical
//! coordinator topology.
//!
//! In a flat star every manager registers directly with the root
//! coordinator, so each barrier stage costs the root O(processes) wire
//! messages (one ack in, one release out, per process). A relay runs one
//! per node, fronts every manager on that node, and speaks to the root as
//! a *single* client: local `BarrierReached` acks collapse into one
//! cumulative [`Msg::BarrierAckN`], and each root `BarrierRelease` fans
//! out locally. Root traffic per stage drops to O(nodes) — the scale-out
//! the NERSC deployments of DMTCP needed once node counts outgrew the
//! paper's 32.
//!
//! The relay is *not* a checkpointed participant (like the coordinator it
//! is spawned outside the traced set, and restarts bypass it: restored
//! managers register directly with the root). It is, however, a failure
//! domain: if the relay dies or is partitioned, every manager behind it is
//! unreachable, so the root treats relay loss exactly like the death of a
//! direct participant — abort the in-flight generation and roll back.
//! Liveness is two-sided and runs only while a generation is in flight
//! (the relay is silent between checkpoints, keeping the world quiescent):
//! the relay pings the root every [`PING_INTERVAL`]; the root answers each
//! ping and sweeps for relays silent past its own timeout; a relay that
//! hears nothing for [`GIVE_UP`] assumes the root is unreachable, aborts
//! its local clients so no barrier hangs, and goes dormant.

use crate::coord::stage;
use crate::gsid::Gsid;
use crate::peers::{send_frame, wake_after, PeerSet, UPLINK};
use crate::proto::{FrameBuf, Msg};
use obs::json::JsonWriter;
use oskit::program::{Program, Step};
use oskit::{Errno, Fd, Kernel};
use simkit::Nanos;
use std::collections::{BTreeMap, BTreeSet};

/// Default relay listening port: the default root port plus one. Relays
/// are shard-aware — each root coordinator's relays listen on
/// [`crate::launch::relay_port_for`] of that root's port — and this
/// constant is simply that function applied to the default root.
pub const RELAY_PORT: u16 = 7780;

/// Liveness ping cadence while a generation is in flight.
pub const PING_INTERVAL: Nanos = Nanos(25_000_000); // 25 ms

/// Root silence tolerated mid-generation before the relay assumes a
/// partition, aborts its local clients, and goes dormant. Longer than the
/// root's own relay timeout, so the root always gives up on us first.
pub const GIVE_UP: Nanos = Nanos(300_000_000); // 300 ms

/// What the relay knows about one local manager connection.
#[derive(Default)]
struct LocalClient {
    vpid: u32,
}

/// The relay program (one per node under `Topology::Hierarchical`).
pub struct Relay {
    pub(crate) port: u16,
    root_host: String,
    root_port: u16,
    root_fd: Fd,
    root_fb: FrameBuf,
    registered: bool,
    locals: PeerSet<LocalClient>,
    /// Local vpids that acked each pending (gen, stage) — the cumulative
    /// count forwarded in `BarrierAckN`. Duplicate local acks (manager
    /// retransmissions) re-send the current count: if the previous
    /// `BarrierAckN` was lost, the retransmission repairs it, and the root
    /// merges cumulative counts idempotently.
    acks: BTreeMap<(u64, u8), BTreeSet<u32>>,
    /// Barriers whose release already fanned out; a late local ack for one
    /// of these gets the release re-sent to that client alone.
    released: BTreeSet<(u64, u8)>,
    /// Generations the root (or this relay's give-up path) abandoned.
    aborted_gens: BTreeSet<u64>,
    /// Discovery queries proxied for local clients, awaiting the reply.
    pending_queries: BTreeMap<Gsid, Vec<Fd>>,
    /// Generation currently in flight (liveness pings run only inside it).
    gen: u64,
    in_flight: bool,
    /// Last time any root traffic arrived.
    last_root_heard: Nanos,
    ping_at: Option<Nanos>,
    /// Terminal state: the root is gone (EOF or give-up). Local clients
    /// were told to abort; nothing is armed, nothing is read.
    dormant: bool,
}

impl Relay {
    /// A relay listening on `port`, aggregating for the root coordinator
    /// at `root_host:root_port`.
    pub fn new(port: u16, root_host: String, root_port: u16) -> Self {
        Relay {
            port,
            root_host,
            root_port,
            root_fd: -1,
            root_fb: FrameBuf::new(),
            registered: false,
            locals: PeerSet::default(),
            acks: BTreeMap::new(),
            released: BTreeSet::new(),
            aborted_gens: BTreeSet::new(),
            pending_queries: BTreeMap::new(),
            gen: 0,
            in_flight: false,
            last_root_heard: Nanos::ZERO,
            ping_at: None,
            dormant: false,
        }
    }

    fn members(&self) -> u32 {
        self.locals.iter().filter(|c| c.info.vpid != 0).count() as u32
    }

    fn send_root(&mut self, k: &mut Kernel<'_>, msg: &Msg) {
        send_frame(k, self.root_fd, msg);
    }

    fn send_local(&mut self, k: &mut Kernel<'_>, fd: Fd, msg: &Msg) {
        k.obs().metrics.inc("relay.fanout", self.gen);
        send_frame(k, fd, msg);
    }

    fn broadcast_local(&mut self, k: &mut Kernel<'_>, msg: &Msg) {
        let fds: Vec<Fd> = self.locals.iter().map(|c| c.fd).collect();
        for fd in fds {
            self.send_local(k, fd, msg);
        }
    }

    /// The root is unreachable (prolonged silence mid-generation, or EOF).
    /// Without the control path no local client can ever complete another
    /// barrier: tell them to abort the in-flight generation so nothing
    /// hangs, then go dormant. The root, for its part, has timed us out and
    /// aborted — the computation rolls back to the previous generation.
    fn give_up(&mut self, k: &mut Kernel<'_>) {
        let gen = self.gen;
        k.obs().metrics.inc("relay.give_ups", 0);
        let at = k.now();
        let node = k.node().0 as u64;
        k.obs().journal.record(
            at,
            obs::journal::CLASS_STAGE,
            "stage.abort",
            None,
            &[("gen", gen), ("node", node)],
            "relay-give-up",
        );
        if self.in_flight {
            self.aborted_gens.insert(gen);
            self.broadcast_local(k, &Msg::CkptAbort(gen));
        }
        self.in_flight = false;
        self.dormant = true;
    }

    fn handle_local(&mut self, k: &mut Kernel<'_>, i: usize, msg: Msg) {
        match msg {
            Msg::Register(vpid, _host) => {
                self.locals[i].info.vpid = vpid;
                let m = self.members();
                self.send_root(k, &Msg::RelayMembership(m, 0));
            }
            Msg::BarrierReached(gen, stg) => {
                if self.released.contains(&(gen, stg)) {
                    // Our fan-out may have been lost; repeat it for this
                    // client only.
                    let fd = self.locals[i].fd;
                    self.send_local(k, fd, &Msg::BarrierRelease(gen, stg));
                    return;
                }
                if self.aborted_gens.contains(&gen) {
                    // Same shape as the coordinator: answer drain-barrier
                    // acks of an abandoned generation with the abort so a
                    // forked writer stops retransmitting; drop the rest.
                    if stg == stage::CKPT_WRITTEN {
                        let fd = self.locals[i].fd;
                        self.send_local(k, fd, &Msg::CkptAbort(gen));
                    }
                    return;
                }
                let vpid = self.locals[i].info.vpid;
                let set = self.acks.entry((gen, stg)).or_default();
                set.insert(vpid);
                let count = set.len() as u32;
                // Aggregate: the uplink carries ONE cumulative BarrierAckN
                // per (gen, stage), sent when the last local member acks —
                // this is where O(processes) becomes O(nodes). A duplicate
                // local ack (manager retransmission) re-sends it, repairing
                // a lost uplink frame; the root merges counts idempotently.
                if count == self.members() {
                    if k.obs().journal.wants(obs::journal::CLASS_STAGE) {
                        let at = k.now();
                        let node = k.node().0 as u64;
                        k.obs().journal.record(
                            at,
                            obs::journal::CLASS_STAGE,
                            "stage.ackn",
                            None,
                            &[
                                ("gen", gen),
                                ("stage", stg as u64),
                                ("count", count as u64),
                                ("node", node),
                            ],
                            "",
                        );
                    }
                    self.send_root(k, &Msg::BarrierAckN(gen, stg, count));
                }
            }
            // Discovery traffic is proxied transparently (restart helpers
            // normally talk to the root directly, but be liberal).
            Msg::Advertise(gsid, host, port) => {
                self.send_root(k, &Msg::Advertise(gsid, host, port));
            }
            Msg::Query(gsid) => {
                let fd = self.locals[i].fd;
                self.pending_queries.entry(gsid).or_default().push(fd);
                self.send_root(k, &Msg::Query(gsid));
            }
            other => panic!("relay got unexpected local message {other:?}"),
        }
    }

    fn handle_root(&mut self, k: &mut Kernel<'_>, msg: Msg) {
        match msg {
            Msg::CkptRequest(gen) => {
                if !self.in_flight || gen != self.gen {
                    // A new generation begins. Shed any state a reused
                    // generation number may carry from an aborted attempt
                    // (mirrors the coordinator's start_checkpoint).
                    self.gen = gen;
                    self.in_flight = true;
                    self.aborted_gens.remove(&gen);
                    stage::forget_keys(&mut self.acks, gen, 0);
                    stage::forget(&mut self.released, gen, 0);
                    if self.ping_at.is_none() {
                        self.ping_at = Some(k.now() + PING_INTERVAL);
                        wake_after(k, PING_INTERVAL);
                    }
                }
                // Forward (also retransmissions: managers dedup them).
                self.broadcast_local(k, &Msg::CkptRequest(gen));
            }
            Msg::BarrierRelease(gen, stg) => {
                self.released.insert((gen, stg));
                self.acks.remove(&(gen, stg));
                self.broadcast_local(k, &Msg::BarrierRelease(gen, stg));
                if stg == stage::CKPT_WRITTEN && gen == self.gen {
                    // The root releases CKPT_WRITTEN last; the generation
                    // is settled and liveness pings stop.
                    self.in_flight = false;
                }
            }
            Msg::CkptAbort(gen) => {
                self.aborted_gens.insert(gen);
                stage::forget_keys(&mut self.acks, gen, 0);
                stage::forget(&mut self.released, gen, 0);
                self.broadcast_local(k, &Msg::CkptAbort(gen));
                if gen == self.gen {
                    self.in_flight = false;
                }
            }
            Msg::QueryReply(gsid, host, port) => {
                if let Some(fds) = self.pending_queries.remove(&gsid) {
                    for fd in fds {
                        self.send_local(k, fd, &Msg::QueryReply(gsid, host.clone(), port));
                    }
                }
            }
            Msg::RelayPong(_) => {} // liveness noted on read
            other => panic!("relay got unexpected root message {other:?}"),
        }
    }

    /// Render the aggregation bookkeeping for a `dmtcp replay` snapshot:
    /// where the relay listens and for which root, the generation in
    /// flight, whether it went dormant, the members it fronts, the local
    /// ack count of every barrier still being aggregated, and the barriers
    /// whose release already fanned out.
    pub(crate) fn write_json(&self, node: u32, j: &mut JsonWriter) {
        j.obj_begin();
        j.field_u64("node", node as u64);
        j.field_u64("port", self.port as u64);
        j.field_u64("root_port", self.root_port as u64);
        j.field_u64("gen", self.gen);
        j.key("in_flight").val_bool(self.in_flight);
        j.key("dormant").val_bool(self.dormant);
        j.field_u64("members", self.members() as u64);
        j.key("acks").arr_begin();
        for ((gen, stg), vpids) in &self.acks {
            j.obj_begin();
            j.field_u64("gen", *gen);
            j.field_u64("stage", *stg as u64);
            j.field_u64("acks", vpids.len() as u64);
            j.obj_end();
        }
        j.arr_end();
        j.key("released").arr_begin();
        for (gen, stg) in &self.released {
            j.obj_begin();
            j.field_u64("gen", *gen);
            j.field_u64("stage", *stg as u64);
            j.obj_end();
        }
        j.arr_end();
        j.obj_end();
    }
}

impl Program for Relay {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        if self.dormant {
            k.block_forever();
            return Step::Block;
        }
        // Bind the local port first so managers can start retrying their
        // connects, then reach the root (both sides retry ConnRefused).
        if let Some(port) = self.locals.listen_once(k, self.port) {
            self.port = port;
        }
        if self.root_fd < 0 {
            match k.connect(&self.root_host, self.root_port) {
                Ok(fd) => {
                    self.root_fd = fd;
                    k.watch_read(fd, UPLINK).expect("uplink is a socket");
                    // Protected-fd convention, and the fault injector needs
                    // to know this is (a) protocol and (b) a relay uplink —
                    // the partition faults sever exactly these.
                    if let Ok(oskit::fdtable::FdObject::Sock(cid, _)) = k.fd_object(fd) {
                        crate::gsid::global(k.w).protected_conns.insert(cid);
                        faultkit::note_protocol_conn(k.w, cid);
                        faultkit::note_relay_conn(k.w, cid);
                    }
                    self.last_root_heard = k.now();
                }
                Err(Errno::ConnRefused) => return Step::Sleep(Nanos::from_millis(5)),
                Err(e) => panic!("relay connect to root: {e:?}"),
            }
        }
        if !self.registered {
            let host = k.hostname();
            self.send_root(k, &Msg::RelayRegister(host));
            self.registered = true;
        }
        let mut progressed = true;
        while progressed && !self.dormant {
            // Accept local managers, then serve exactly the ones whose
            // sockets became readable, in ascending serial order.
            progressed = self.locals.accept_new(k);
            while let Some((i, msg)) = self.locals.next_msg(k) {
                self.handle_local(k, i, msg);
                progressed = true;
            }
            // EOF means the process died (or was killed) — report the
            // membership change upstream so the root can abort an in-flight
            // generation. Mirror the root's idle-EOF rule: a local that
            // dies while no generation is in flight (e.g. a process killed
            // so it can be live-migrated to another node) is a membership
            // update, not a lost participant. Only an EOF during an
            // in-flight generation — request through CKPT_WRITTEN — is
            // reported as `lost`, which is what aborts the checkpoint at
            // the root.
            let gone = self.locals.reap(k);
            progressed |= !gone.is_empty();
            let eofs = gone.iter().filter(|c| c.info.vpid != 0).count() as u32;
            let lost = if self.in_flight { eofs } else { 0 };
            if eofs > 0 {
                let m = self.members();
                self.send_root(k, &Msg::RelayMembership(m, lost));
            }
            // Root traffic.
            let mut root_eof = false;
            if self.locals.take_token(k, UPLINK) {
                let buffered = self.root_fb.pending();
                root_eof = !self.root_fb.fill(k, self.root_fd);
                if self.root_fb.pending() > buffered {
                    self.last_root_heard = k.now();
                }
                progressed = true;
            }
            loop {
                match self.root_fb.pop() {
                    Ok(Some(msg)) => {
                        self.handle_root(k, msg);
                        progressed = true;
                    }
                    Ok(None) => break,
                    Err(e) => panic!("relay got corrupt root frame: {e:?}"),
                }
            }
            if root_eof {
                // The root hung up (it timed us out, or died). Terminal.
                self.give_up(k);
                progressed = true;
            }
        }
        // Liveness ping: only while a generation is in flight, so an idle
        // relay arms no timers and the world can go quiescent.
        if let Some(at) = self.ping_at {
            if k.now() >= at {
                self.ping_at = None;
                if self.in_flight && !self.dormant {
                    if k.now() - self.last_root_heard >= GIVE_UP {
                        self.give_up(k);
                    } else {
                        let gen = self.gen;
                        self.send_root(k, &Msg::RelayPing(gen));
                        self.ping_at = Some(k.now() + PING_INTERVAL);
                        wake_after(k, PING_INTERVAL);
                    }
                }
            }
        }
        Step::Block
    }

    fn tag(&self) -> &'static str {
        "dmtcp-relay"
    }

    fn save(&self) -> Vec<u8> {
        unreachable!("the relay is never checkpointed (it is control plane, like the coordinator)")
    }
}
