//! `dmtcpd` — a long-lived multi-tenant checkpoint service.
//!
//! The paper's coordinator serves exactly one computation: one port, one
//! barrier state machine, one restart script. This crate multiplexes many
//! independent computations over a single service daemon:
//!
//! * a **session registry** with admission control — at most
//!   `max_sessions` concurrent sessions of at most `max_procs_per_session`
//!   participants each, refusals carried as typed
//!   [`dmtcp::proto::RejectReason`] codes on the wire;
//! * **sharded root coordinators** — N independent [`dmtcp::coord::Coordinator`]
//!   instances on distinct ports, sessions hash-assigned (`sid % shards`),
//!   each shard reusing the hierarchical relay tier unchanged (shard root
//!   ports are spaced two apart so every shard's `root_port + 1` relay
//!   port is collision-free);
//! * **per-tenant storage namespaces** — every session's images live under
//!   [`ckptstore::tenant::tenant_prefix`], where the tenant's byte quota
//!   and GC retention policy govern them.
//!
//! The service conversation (open/accept/reject/close/checkpoint) is
//! carried as framed [`dmtcp::proto::Msg`] service messages through the
//! daemon's request mailbox — the simulated stand-in for the daemon's
//! listening socket; barrier traffic stays on each shard's own coordinator
//! socket, untouched. A [`Client`] *is* a [`dmtcp::Session`] on its shard
//! (launch, stats, kill and the settle logic are the session's own) plus
//! what is genuinely service-level: the sid, posting service frames, and
//! turning a daemon refusal into [`SvcCkptError::Refused`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dmtcp::coord::{Coordinator, GenStat};
use dmtcp::launch::{Options, Topology};
use dmtcp::proto::{frame, FrameBuf, Msg, RejectReason};
use dmtcp::session::{completed, wait_until, CkptError, Order};
use dmtcp::Session;
use oskit::program::{Program, Step};
use oskit::world::{NodeId, OsSim, Pid, Tid, World};
use oskit::Kernel;
use simkit::Nanos;
use std::collections::{BTreeMap, VecDeque};

/// Default service port (distinct from every coordinator port).
pub const SVC_PORT: u16 = 7700;

/// Default base of the shard root-port range; shard `k` listens on
/// `base + 2k` and its relay tier on `base + 2k + 1`.
pub const SHARD_PORT_BASE: u16 = 7800;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Node hosting the daemon and every shard coordinator.
    pub node: NodeId,
    /// Service port (the registry mailbox key, not a coordinator port).
    pub port: u16,
    /// Number of shard coordinators.
    pub shards: u16,
    /// First shard root port; shard `k` gets `shard_port_base + 2k`.
    pub shard_port_base: u16,
    /// Admission ceiling on concurrently open sessions.
    pub max_sessions: u32,
    /// Admission ceiling on participants per session.
    pub max_procs_per_session: u32,
    /// Quota installed for tenants not already registered with
    /// [`ckptstore::tenant::register_tenant`] (0 = unlimited).
    pub default_quota_bytes: u64,
    /// Retention installed for tenants not already registered.
    pub default_retention: u32,
    /// Topology every session launches under (per-shard relay tier when
    /// hierarchical).
    pub topology: Topology,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            node: NodeId(0),
            port: SVC_PORT,
            shards: 4,
            shard_port_base: SHARD_PORT_BASE,
            max_sessions: 128,
            max_procs_per_session: 64,
            default_quota_bytes: 0,
            default_retention: 4,
            topology: Topology::Flat,
        }
    }
}

/// One registry entry.
#[derive(Debug, Clone)]
pub struct SessionRec {
    /// Session id (dense, never reused within a daemon lifetime).
    pub sid: u64,
    /// Owning tenant.
    pub tenant: String,
    /// Participant ceiling the session was admitted with.
    pub procs: u32,
    /// Shard index (`sid % shards`).
    pub shard: u16,
    /// The shard's root coordinator port.
    pub shard_port: u16,
    /// Image directory (inside the tenant's namespace).
    pub dir: String,
}

/// Host-side correlation of a mailbox post with the daemon's answer. Not on
/// the wire: the mailbox stands in for one socket per caller, and this is
/// which socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Ticket {
    /// One synchronous call ([`Dmtcpd::open`]); unique per post.
    Call(u64),
    /// Checkpoint traffic of session `sid`. A refusal filed here waits —
    /// through any number of other callers' exchanges — until that
    /// session's next [`Client::checkpoint_and_wait`] collects it.
    Session(u64),
}

/// World-shared state of one daemon: the request mailbox (the daemon's
/// "listening socket"), the replies, and the session registry.
#[derive(Debug, Default)]
pub struct SvcShared {
    /// Daemon process, for waking on mailbox posts.
    pub daemon_pid: Option<Pid>,
    /// Framed service requests awaiting the daemon, each with the ticket
    /// its answer is filed under.
    pub inbox: VecDeque<(Ticket, Vec<u8>)>,
    /// The daemon's answers, by the ticket of the request they answer.
    pub replies: BTreeMap<Ticket, Msg>,
    /// Open sessions by sid.
    pub sessions: BTreeMap<u64, SessionRec>,
    /// Sessions ever admitted (sid allocator).
    pub admitted: u64,
    /// [`Ticket::Call`]s ever issued.
    calls: u64,
}

/// Every daemon's [`SvcShared`], by service port (one typed world
/// extension), so several daemons can coexist in one world.
#[derive(Debug, Default)]
struct SvcPorts(BTreeMap<u16, SvcShared>);

/// Access (creating if absent) the daemon state for the daemon on `port`.
pub fn svc_shared(w: &mut World, port: u16) -> &mut SvcShared {
    w.ext::<SvcPorts>().0.entry(port).or_default()
}

/// Root coordinator port of shard `k` under `cfg`.
pub fn shard_root_port(cfg: &DaemonConfig, shard: u16) -> u16 {
    cfg.shard_port_base + 2 * shard
}

/// The daemon program: drains the request mailbox, runs admission control,
/// and forwards checkpoint requests to the owning shard.
struct DaemonProg {
    cfg: DaemonConfig,
    lfd: oskit::Fd,
}

impl DaemonProg {
    fn reject(&self, k: &mut Kernel<'_>, to: Ticket, reason: RejectReason, detail: String) {
        k.obs()
            .metrics
            .inc("svc.sessions_rejected", reason as u8 as u64);
        svc_shared(k.w, self.cfg.port)
            .replies
            .insert(to, Msg::SessionRejected(reason as u8, detail));
    }

    fn handle(&mut self, k: &mut Kernel<'_>, from: Ticket, msg: Msg) {
        match msg {
            Msg::OpenSession(tenant, procs) => self.open_session(k, from, tenant, procs),
            Msg::CloseSession(sid) => self.close_session(k, sid),
            Msg::SessionCkpt(sid) => self.session_ckpt(k, from, sid),
            // Service mailbox speaks only service frames; anything else
            // is a client bug worth surfacing, not crashing over.
            _ => k.obs().metrics.inc("svc.unexpected_frames", 0),
        }
    }

    fn open_session(&mut self, k: &mut Kernel<'_>, from: Ticket, tenant: String, procs: u32) {
        if tenant.is_empty() || procs == 0 {
            return self.reject(
                k,
                from,
                RejectReason::BadRequest,
                "tenant name and proc count must be non-empty".into(),
            );
        }
        if procs > self.cfg.max_procs_per_session {
            return self.reject(
                k,
                from,
                RejectReason::TooManyProcs,
                format!("{procs} procs > limit {}", self.cfg.max_procs_per_session),
            );
        }
        let open = svc_shared(k.w, self.cfg.port).sessions.len() as u32;
        if open >= self.cfg.max_sessions {
            return self.reject(
                k,
                from,
                RejectReason::SessionsFull,
                format!("{open} sessions open, limit {}", self.cfg.max_sessions),
            );
        }
        if ckptstore::tenant::over_quota(k.w, &tenant) {
            let used = ckptstore::tenant::usage(k.w, &tenant).unwrap_or(0);
            return self.reject(
                k,
                from,
                RejectReason::QuotaExceeded,
                format!("tenant {tenant} ledger at {used} bytes"),
            );
        }
        if ckptstore::tenant::policy(k.w, &tenant).is_none() {
            ckptstore::tenant::register_tenant(
                k.w,
                &tenant,
                ckptstore::tenant::TenantConfig {
                    quota_bytes: self.cfg.default_quota_bytes,
                    retention: self.cfg.default_retention,
                },
            );
        }
        let cfg = self.cfg.clone();
        let shared = svc_shared(k.w, cfg.port);
        let sid = shared.admitted + 1;
        shared.admitted = sid;
        let shard = (sid % cfg.shards as u64) as u16;
        let shard_port = shard_root_port(&cfg, shard);
        let dir = format!("{}/s{sid}", ckptstore::tenant::tenant_prefix(&tenant));
        shared.sessions.insert(
            sid,
            SessionRec {
                sid,
                tenant: tenant.clone(),
                procs,
                shard,
                shard_port,
                dir: dir.clone(),
            },
        );
        let open_now = shared.sessions.len() as u64;
        shared
            .replies
            .insert(from, Msg::SessionAccepted(sid, shard_port, dir));
        let now = k.now();
        let obs = k.obs();
        obs.metrics.inc("svc.sessions_admitted", sid);
        obs.metrics
            .set_gauge("svc.sessions_open", 0, open_now as f64);
        obs.journal.record(
            now,
            obs::journal::CLASS_STAGE,
            "svc.open",
            None,
            &[
                ("sid", sid),
                ("shard", shard as u64),
                ("procs", procs as u64),
            ],
            &tenant,
        );
    }

    fn close_session(&mut self, k: &mut Kernel<'_>, sid: u64) {
        let shared = svc_shared(k.w, self.cfg.port);
        let removed = shared.sessions.remove(&sid);
        // Nobody is left to collect a refusal still filed for the session.
        shared.replies.remove(&Ticket::Session(sid));
        let open_now = shared.sessions.len() as u64;
        let now = k.now();
        let obs = k.obs();
        if removed.is_some() {
            obs.metrics
                .set_gauge("svc.sessions_open", 0, open_now as f64);
            obs.journal.record(
                now,
                obs::journal::CLASS_STAGE,
                "svc.close",
                None,
                &[("sid", sid)],
                "",
            );
        } else {
            obs.metrics.inc("svc.unknown_session", sid);
        }
    }

    fn session_ckpt(&mut self, k: &mut Kernel<'_>, from: Ticket, sid: u64) {
        let Some(rec) = svc_shared(k.w, self.cfg.port).sessions.get(&sid).cloned() else {
            k.obs().metrics.inc("svc.unknown_session", sid);
            return self.reject(
                k,
                from,
                RejectReason::BadRequest,
                format!("no session {sid}"),
            );
        };
        if ckptstore::tenant::over_quota(k.w, &rec.tenant) {
            let used = ckptstore::tenant::usage(k.w, &rec.tenant).unwrap_or(0);
            let now = k.now();
            let obs = k.obs();
            obs.journal.record(
                now,
                obs::journal::CLASS_STAGE,
                "svc.quota_refusal",
                None,
                &[("sid", sid), ("used", used)],
                &rec.tenant,
            );
            return self.reject(
                k,
                from,
                RejectReason::QuotaExceeded,
                format!("tenant {} ledger at {used} bytes", rec.tenant),
            );
        }
        let now = k.now();
        let obs = k.obs();
        obs.metrics.inc("svc.ckpt_requests", sid);
        obs.journal.record(
            now,
            obs::journal::CLASS_STAGE,
            "svc.ckpt_request",
            None,
            &[("sid", sid), ("shard", rec.shard as u64)],
            &rec.tenant,
        );
        dmtcp::coord::request_checkpoint(k.w, k.sim, rec.shard_port);
    }
}

impl Program for DaemonProg {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        if self.lfd < 0 {
            // Bind the service port (reserving it against coordinators) and
            // register with the shared slot so mailbox posts can wake us.
            let (fd, _) = k.listen_on(self.cfg.port).expect("service port free");
            self.lfd = fd;
            let pid = k.getpid_real();
            svc_shared(k.w, self.cfg.port).daemon_pid = Some(pid);
        }
        // Drain stray connection attempts; the WouldBlock also registers
        // this thread's waker for the Step::Block below.
        while let Ok(fd) = k.accept(self.lfd) {
            k.close(fd).ok();
        }
        while let Some((from, bytes)) = svc_shared(k.w, self.cfg.port).inbox.pop_front() {
            let mut fb = FrameBuf::new();
            fb.feed(&bytes);
            loop {
                match fb.pop() {
                    Ok(Some(msg)) => self.handle(k, from, msg),
                    Ok(None) => break,
                    Err(_) => {
                        k.obs().metrics.inc("svc.malformed_frames", 0);
                        break;
                    }
                }
            }
        }
        Step::Block
    }

    fn tag(&self) -> &'static str {
        "dmtcpd"
    }

    fn save(&self) -> Vec<u8> {
        // Control plane: never traced, never checkpointed.
        Vec::new()
    }
}

/// A running daemon: the handle host code keeps (what [`dmtcp::Session`]
/// is to the single-computation path).
#[derive(Debug, Clone)]
pub struct Dmtcpd {
    /// Configuration in force.
    pub cfg: DaemonConfig,
    /// Daemon process.
    pub daemon_pid: Pid,
    /// Shard coordinator pids, by shard index.
    pub shard_pids: Vec<Pid>,
}

impl Dmtcpd {
    /// Start the daemon and its shard coordinators on `cfg.node`.
    pub fn start(w: &mut World, sim: &mut OsSim, cfg: DaemonConfig) -> Dmtcpd {
        assert!(cfg.shards > 0, "a daemon needs at least one shard");
        let mut shard_pids = Vec::new();
        for shard in 0..cfg.shards {
            let port = shard_root_port(&cfg, shard);
            let pid = w.spawn(
                sim,
                cfg.node,
                "dmtcp_coordinator",
                Box::new(Coordinator::new(port, None)),
                Pid(1),
                BTreeMap::new(),
            );
            shard_pids.push(pid);
        }
        let daemon_pid = w.spawn(
            sim,
            cfg.node,
            "dmtcpd",
            Box::new(DaemonProg {
                cfg: cfg.clone(),
                lfd: -1,
            }),
            Pid(1),
            BTreeMap::new(),
        );
        // Let the shards bind and the daemon register before clients call.
        sim.run_until(w, sim.now() + Nanos::from_millis(1));
        Dmtcpd {
            cfg,
            daemon_pid,
            shard_pids,
        }
    }

    /// Open a session for `tenant` expecting up to `procs` participants.
    pub fn open(
        &self,
        w: &mut World,
        sim: &mut OsSim,
        tenant: &str,
        procs: u32,
    ) -> Result<Client, OpenError> {
        let port = self.cfg.port;
        let shared = svc_shared(w, port);
        shared.calls += 1;
        let ticket = Ticket::Call(shared.calls);
        post(
            w,
            sim,
            port,
            ticket,
            &Msg::OpenSession(tenant.into(), procs),
        );
        let reply = wait_until(w, sim, OPEN_BUDGET, Order::CheckFirst, |w| {
            svc_shared(w, port).replies.remove(&ticket)
        });
        match reply {
            Ok(Msg::SessionAccepted(sid, shard_port, dir)) => Ok(Client {
                session: Session {
                    opts: Options::builder()
                        .coord(self.cfg.node)
                        .coord_port(shard_port)
                        .ckpt_dir(dir)
                        .topology(self.cfg.topology)
                        .build(),
                    coord_pid: self.shard_pids[(sid % self.cfg.shards as u64) as usize],
                },
                sid,
                tenant: tenant.to_string(),
                daemon_port: port,
            }),
            Ok(other) => Err(refusal(other)),
            Err(stalled) => Err(OpenError {
                reason: None,
                detail: format!("daemon never answered: {stalled}"),
            }),
        }
    }

    /// Registry snapshot (sids of currently open sessions).
    pub fn open_sessions(&self, w: &mut World) -> Vec<u64> {
        svc_shared(w, self.cfg.port)
            .sessions
            .keys()
            .copied()
            .collect()
    }
}

/// Admission refusal, decoded from [`Msg::SessionRejected`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenError {
    /// Typed reason (None when the daemon is newer than this client and
    /// sent a code we do not know).
    pub reason: Option<RejectReason>,
    /// Human-readable detail.
    pub detail: String,
}

impl std::fmt::Display for OpenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "session rejected ({:?}): {}", self.reason, self.detail)
    }
}

impl std::error::Error for OpenError {}

/// Why a service-path checkpoint returned no completed generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SvcCkptError {
    /// The daemon refused the request (quota, unknown session).
    Refused(OpenError),
    /// The shard's protocol failed ([`CkptError`] semantics unchanged).
    Ckpt(CkptError),
}

impl std::fmt::Display for SvcCkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SvcCkptError::Refused(e) => write!(f, "refused: {e}"),
            SvcCkptError::Ckpt(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SvcCkptError {}

/// Events [`Dmtcpd::open`] lets the simulation run while awaiting the
/// daemon's answer.
const OPEN_BUDGET: u64 = 100_000;

/// Post one framed service request into the daemon's mailbox, to be
/// answered under `ticket`, and wake the daemon.
fn post(w: &mut World, sim: &mut OsSim, port: u16, ticket: Ticket, msg: &Msg) {
    let shared = svc_shared(w, port);
    shared.inbox.push_back((ticket, frame(msg)));
    if let Some(pid) = shared.daemon_pid {
        w.wake(sim, (pid, Tid(0)));
    }
}

/// A daemon answer that is not an acceptance, as the typed refusal.
fn refusal(reply: Msg) -> OpenError {
    match reply {
        Msg::SessionRejected(code, detail) => OpenError {
            reason: RejectReason::from_code(code),
            detail,
        },
        other => OpenError {
            reason: None,
            detail: format!(
                "unexpected service reply {}",
                dmtcp::proto::msg_name(&other)
            ),
        },
    }
}

/// A client handle for one admitted session: the [`Session`] on the
/// session's shard coordinator and tenant namespace, plus the service-level
/// identity. Launch, stats, kill and restart are the session's own;
/// checkpoints are requested through the daemon so quota applies.
#[derive(Debug, Clone)]
pub struct Client {
    /// The computation's session: options pinned to the shard's root port
    /// and the image directory inside the tenant's namespace.
    pub session: Session,
    /// Session id.
    pub sid: u64,
    /// Owning tenant.
    pub tenant: String,
    /// Service port of the daemon that admitted this session.
    daemon_port: u16,
}

impl Client {
    /// The shard root port this session's barrier traffic answers to.
    pub fn shard_port(&self) -> u16 {
        self.session.opts.coord_port
    }

    /// `dmtcp_checkpoint <program>` inside this session.
    pub fn launch(
        &self,
        w: &mut World,
        sim: &mut OsSim,
        node: NodeId,
        cmd: &str,
        prog: Box<dyn Program>,
    ) -> Pid {
        self.session.launch(w, sim, node, cmd, prog)
    }

    /// Asynchronous checkpoint request, carried as a [`Msg::SessionCkpt`]
    /// service frame (the `dmtcp_command --checkpoint` analogue). Should
    /// the daemon refuse it, this session's next
    /// [`Client::checkpoint_and_wait`] reports the refusal.
    pub fn request_checkpoint(&self, w: &mut World, sim: &mut OsSim) {
        let ticket = Ticket::Session(self.sid);
        post(
            w,
            sim,
            self.daemon_port,
            ticket,
            &Msg::SessionCkpt(self.sid),
        );
    }

    /// The daemon's refusal of this session's checkpoint traffic, if one
    /// is waiting to be collected.
    fn take_refusal(&self, w: &mut World) -> Option<SvcCkptError> {
        let reply = svc_shared(w, self.daemon_port)
            .replies
            .remove(&Ticket::Session(self.sid))?;
        Some(SvcCkptError::Refused(refusal(reply)))
    }

    /// Request a checkpoint and run the simulation until the session's
    /// shard settles it — completed (stats returned), aborted, out of
    /// budget, or refused by the daemon (quota). A refusal still waiting
    /// from an earlier [`Client::request_checkpoint`] is returned at once,
    /// without posting a new request.
    pub fn checkpoint_and_wait(
        &self,
        w: &mut World,
        sim: &mut OsSim,
        max_events: u64,
    ) -> Result<GenStat, SvcCkptError> {
        if let Some(refused) = self.take_refusal(w) {
            return Err(refused);
        }
        let before = self.session.generations(w);
        self.request_checkpoint(w, sim);
        wait_until(w, sim, max_events, Order::StepFirst, |w| {
            // A refusal arrives in the mailbox instead of a barrier.
            if let Some(refused) = self.take_refusal(w) {
                return Some(Err(refused));
            }
            let gs = self.session.settled_since(w, before)?;
            Some(completed(gs).map_err(SvcCkptError::Ckpt))
        })
        .unwrap_or_else(|stalled| Err(SvcCkptError::Ckpt(stalled.into())))
    }

    /// The session's most recent generation stats.
    pub fn last_gen_stat(&self, w: &mut World) -> Option<GenStat> {
        self.session.last_gen_stat(w)
    }

    /// SIGKILL this session's computation only (simulated failure):
    /// co-tenant computations on other shards are untouched.
    pub fn kill_computation(&self, w: &mut World, sim: &mut OsSim) {
        self.session.kill_computation(w, sim)
    }

    /// Tear the session down (frees its registry slot; images persist per
    /// the tenant's retention policy).
    pub fn close(&self, w: &mut World, sim: &mut OsSim) {
        let ticket = Ticket::Session(self.sid);
        post(
            w,
            sim,
            self.daemon_port,
            ticket,
            &Msg::CloseSession(self.sid),
        );
        // Let the daemon process the teardown.
        sim.run_until(w, sim.now() + Nanos::from_millis(1));
    }

    /// This session as a [`dmtcp::Session`] value, for helpers that take
    /// the session type (`RestartPlan::execute`). Same as cloning
    /// [`Client::session`]; the unused world parameter is kept because the
    /// benchmark's frozen surface calls it with one.
    pub fn as_session(&self, _w: &mut World) -> Session {
        self.session.clone()
    }
}
