//! `dmtcp_restart` (§4.4, Figure 2).
//!
//! One *unified restart process* runs per host. It must exist because UNIX
//! lets multiple processes share one socket: the restart process first
//! recreates every fd object once — files, ptys, listeners, and sockets
//! reconnected through the coordinator's discovery service — and only then
//! forks into the user processes, so shared descriptors are genuinely
//! shared again. Each child rearranges fds to their original numbers with
//! `dup2`, restores memory and threads through MTCP, and hands control to a
//! fresh checkpoint-manager thread that performs the refill stage and
//! resumes the user threads.
//!
//! Both endpoints of a socket may have migrated; the acceptor side
//! advertises `(gsid → host, port)` to the discovery service and the
//! connector side polls until the advertisement appears, reconnects, and
//! handshakes on the gsid — loopback connections (both ends in one restart
//! process) take the same path.
//!
//! The [`plan`] submodule builds on this program: it maps a committed
//! generation onto an *arbitrary* target topology (fewer or more hosts
//! than wrote the images) and drives live migration of process subsets.

pub mod plan;

use crate::gsid::{global, Gsid};
use crate::hijack::{ConnTable, FdKindRec, PtyRecord};
use crate::launch::{hijack_from_env, ENV_RESTART_CHILD};
use crate::manager::{Manager, Mode};
use crate::proto::{frame, FrameBuf, Msg};
use faultkit::FillPoint;
use mtcp::CkptImage;
use oskit::fdtable::{FdEntry, FdObject};
use oskit::program::{Program, Step};
use oskit::world::{NodeId, OsSim, Pid, World};
use oskit::{Errno, Fd, Kernel};
use simkit::{Nanos, Snap};
use std::collections::{BTreeMap, BTreeSet};

/// Restored vpid → new real pid (see [`restored_real`]).
#[derive(Default)]
struct RestoredReal(BTreeMap<u32, u32>);

/// The world-side registry of restored vpid → new real pid, filled by
/// restart processes and consumed by each manager's pid-map fixup.
pub fn restored_real(w: &mut oskit::world::World) -> &mut BTreeMap<u32, u32> {
    &mut w.ext::<RestoredReal>().0
}

struct Loaded {
    path: String,
    img: CkptImage,
    table: ConnTable,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Load,
    Connect,
    Fork,
    Done,
}

/// A pending inbound handshake on an accepted socket.
struct Handshake {
    gsid: Gsid,
    fd: Fd,
    buf: Vec<u8>,
}

/// The per-host restart program.
pub struct RestartProc {
    /// Image paths to restore on this host.
    images: Vec<String>,
    coord_host: String,
    coord_port: u16,
    /// The generation being restored.
    gen: u64,
    /// `Some` on exactly one restart process cluster-wide: the plan message
    /// that re-arms the coordinator's barrier accounting.
    announce: Option<Msg>,
    phase: Phase,
    loaded: Vec<Loaded>,
    coord_fd: Fd,
    fb: FrameBuf,
    /// gsid → restored socket endpoint (end encoded in FdObject).
    sock_map: BTreeMap<(Gsid, u8), FdObject>,
    pty_map: BTreeMap<Gsid, oskit::pty::PtyId>,
    file_map: BTreeMap<(String, u64), FdObject>,
    listener_map: BTreeMap<u16, FdObject>,
    /// Acceptor-side temporary listeners per gsid.
    temp_listeners: Vec<(Gsid, Fd)>,
    handshakes: Vec<Handshake>,
    /// Connector ends still waiting for discovery + connect.
    want_connect: BTreeSet<Gsid>,
    query_inflight: BTreeSet<Gsid>,
    t_start: Nanos,
    t_files: Nanos,
}

impl RestartProc {
    /// Build a restart process for `images` of generation `gen`, pointing
    /// at the (new) coordinator. Pass `announce` on exactly one host:
    /// [`Msg::RestartPlan`] replaces the whole computation;
    /// [`Msg::MigratePlan`] restores a *migrating* subset of a live one —
    /// the coordinator re-arms only the restart-stage barriers for the
    /// movers and keeps the bystanders registered instead of marking the
    /// whole computation stale.
    pub fn new(
        images: Vec<String>,
        coord_host: String,
        coord_port: u16,
        gen: u64,
        announce: Option<Msg>,
    ) -> Self {
        RestartProc {
            images,
            coord_host,
            coord_port,
            gen,
            announce,
            phase: Phase::Load,
            loaded: Vec::new(),
            coord_fd: -1,
            fb: FrameBuf::new(),
            sock_map: BTreeMap::new(),
            pty_map: BTreeMap::new(),
            file_map: BTreeMap::new(),
            listener_map: BTreeMap::new(),
            temp_listeners: Vec::new(),
            handshakes: Vec::new(),
            want_connect: BTreeSet::new(),
            query_inflight: BTreeSet::new(),
            t_start: Nanos::ZERO,
            t_files: Nanos::ZERO,
        }
    }

    // ------------------------------------------------------------------
    // Phase 1: load images, recreate files / ptys / listen sockets
    // ------------------------------------------------------------------

    fn do_load(&mut self, k: &mut Kernel<'_>) -> Result<(), Step> {
        self.t_start = k.now();
        match k.connect(&self.coord_host, self.coord_port) {
            Ok(fd) => self.coord_fd = fd,
            Err(Errno::ConnRefused) => return Err(Step::Sleep(Nanos::from_millis(5))),
            Err(e) => panic!("restart connect coordinator: {e:?}"),
        }
        if let Some(plan) = &self.announce {
            let msg = frame(plan);
            let sent = k.write(self.coord_fd, &msg).expect("plan");
            assert_eq!(sent, msg.len());
        }
        let node = k.node();
        for path in self.images.clone() {
            let img = mtcp::read_image(k.w, node, &path)
                .unwrap_or_else(|e| panic!("restart: cannot read {path}: {e}"));
            let table =
                ConnTable::from_snap_bytes(&img.dmtcp_meta).expect("connection table parses");
            global(k.w).session_vpids.insert(table.vpid);
            self.loaded.push(Loaded { path, img, table });
        }

        // Recreate ptys first (Figure 2 step 1) from the master-side saved
        // records, then files and application listen sockets.
        let pty_records: Vec<PtyRecord> = self
            .loaded
            .iter()
            .flat_map(|l| l.table.ptys.iter().cloned())
            .collect();
        for pr in &pty_records {
            let (mfd, sfd) = k.openpty();
            let FdObject::PtyMaster(ptid) = k.fd_object(mfd).expect("just opened") else {
                unreachable!()
            };
            {
                let p = k.w.ptys.get_mut(&ptid).expect("pty exists");
                p.termios = pr.termios;
                p.to_slave.extend(pr.to_slave.iter());
                p.to_master.extend(pr.to_master.iter());
            }
            global(k.w).bind_pty(ptid, pr.gsid);
            self.pty_map.insert(pr.gsid, ptid);
            // Keep the restart process's fds open until children exist.
            let _ = (mfd, sfd);
        }
        // Sanity: every pty fd record must have a recreated pty.
        for l in &self.loaded {
            for r in &l.table.records {
                if let FdKindRec::PtyMaster { gsid } | FdKindRec::PtySlave { gsid } = &r.kind {
                    assert!(
                        self.pty_map.contains_key(gsid),
                        "pty {gsid:?} shared across restart hosts is unsupported"
                    );
                }
            }
        }

        for l in &self.loaded {
            for r in &l.table.records {
                match &r.kind {
                    FdKindRec::File {
                        path,
                        offset,
                        writable,
                    } => {
                        let key = (path.clone(), *offset);
                        if self.file_map.contains_key(&key) {
                            continue;
                        }
                        let fd = k
                            .open(path, *writable)
                            .unwrap_or_else(|e| panic!("restart: reopen {path}: {e:?}"));
                        k.lseek(fd, *offset).expect("file fd");
                        let obj = k.fd_object(fd).expect("just opened");
                        self.file_map.insert(key, obj);
                    }
                    FdKindRec::Listener { port } => {
                        if self.listener_map.contains_key(port) {
                            continue;
                        }
                        let (fd, p) = k
                            .listen_on(*port)
                            .unwrap_or_else(|e| panic!("restart: listen {port}: {e:?}"));
                        assert_eq!(p, *port);
                        let obj = k.fd_object(fd).expect("just bound");
                        self.listener_map.insert(*port, obj);
                    }
                    _ => {}
                }
            }
        }
        self.t_files = k.now();

        // Advertise acceptor ends; queue connector ends. Creation is the
        // responsibility of each end's recorded leader (non-leader sharers
        // resolve through sock_map at fd-rearrangement time).
        let host = k.hostname();
        let mut advertised = BTreeSet::new();
        let mut wanted = BTreeSet::new();
        for l in &self.loaded {
            for r in &l.table.records {
                if let FdKindRec::Sock {
                    gsid, end, leader, ..
                } = &r.kind
                {
                    if !leader {
                        continue;
                    }
                    if *end == 1 && advertised.insert(*gsid) {
                        let (lfd, port) = k.listen_on(0).expect("ephemeral listener");
                        self.temp_listeners.push((*gsid, lfd));
                        let msg = frame(&Msg::Advertise(*gsid, host.clone(), port));
                        let n = k.write(self.coord_fd, &msg).expect("advertise");
                        assert_eq!(n, msg.len());
                    } else if *end == 0 && wanted.insert(*gsid) {
                        self.want_connect.insert(*gsid);
                    }
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Phase 2: reconnect sockets through discovery
    // ------------------------------------------------------------------

    fn connect_done(&self) -> bool {
        self.want_connect.is_empty() && self.temp_listeners.is_empty() && self.handshakes.is_empty()
    }

    fn do_connect(&mut self, k: &mut Kernel<'_>) -> Result<bool, ()> {
        let mut progressed = false;
        // Accept inbound reconnections.
        let mut still_listening = Vec::new();
        for (gsid, lfd) in std::mem::take(&mut self.temp_listeners) {
            match k.accept(lfd) {
                Ok(fd) => {
                    k.close(lfd).expect("temp listener");
                    self.handshakes.push(Handshake {
                        gsid,
                        fd,
                        buf: Vec::new(),
                    });
                    progressed = true;
                }
                Err(Errno::WouldBlock) => still_listening.push((gsid, lfd)),
                Err(e) => panic!("restart accept: {e:?}"),
            }
        }
        self.temp_listeners = still_listening;

        // Finish inbound handshakes (8-byte gsid).
        let mut pending = Vec::new();
        for mut h in std::mem::take(&mut self.handshakes) {
            loop {
                if h.buf.len() == 8 {
                    let got = Gsid(u64::from_le_bytes(h.buf[..8].try_into().expect("8")));
                    assert_eq!(got, h.gsid, "gsid handshake mismatch");
                    let obj = k.fd_object(h.fd).expect("accepted fd");
                    if let FdObject::Sock(cid, _) = obj {
                        global(k.w).bind_conn(cid, h.gsid);
                    }
                    self.sock_map.insert((h.gsid, 1), obj);
                    progressed = true;
                    break;
                }
                match k.read(h.fd, 8 - h.buf.len()) {
                    Ok(b) if b.is_empty() => panic!("peer hung up during handshake"),
                    Ok(b) => {
                        h.buf.extend_from_slice(&b);
                        progressed = true;
                    }
                    Err(Errno::WouldBlock) => {
                        pending.push(h);
                        break;
                    }
                    Err(e) => panic!("handshake read: {e:?}"),
                }
            }
        }
        self.handshakes = pending;

        // Issue discovery queries for connector ends.
        let to_query: Vec<Gsid> = self
            .want_connect
            .iter()
            .filter(|g| !self.query_inflight.contains(g))
            .copied()
            .collect();
        for g in to_query {
            let msg = frame(&Msg::Query(g));
            let n = k.write(self.coord_fd, &msg).expect("query");
            assert_eq!(n, msg.len());
            self.query_inflight.insert(g);
            progressed = true;
        }

        // Consume coordinator replies (ignoring broadcasts not for us).
        loop {
            match k.read(self.coord_fd, 64 * 1024) {
                Ok(b) if b.is_empty() => panic!("coordinator hung up"),
                Ok(b) => {
                    self.fb.feed(&b);
                    progressed = true;
                }
                Err(Errno::WouldBlock) => break,
                Err(e) => panic!("restart coord read: {e:?}"),
            }
        }
        while let Some(msg) = self.fb.pop().expect("frames") {
            // Barrier traffic for the restored computation may arrive on
            // this shared coordinator connection; only QueryReply is ours.
            if let Msg::QueryReply(gsid, host, port) = msg {
                self.query_inflight.remove(&gsid);
                if host.is_empty() {
                    // Not advertised yet; retry on the next pass.
                    continue;
                }
                let fd = match k.connect(&host, port) {
                    Ok(fd) => fd,
                    Err(Errno::ConnRefused) => {
                        // Stale advertisement racing a coordinator
                        // discovery reset; re-query.
                        continue;
                    }
                    Err(e) => panic!("restart reconnect {gsid:?}: {e:?}"),
                };
                let hello = gsid.0.to_le_bytes();
                let n = k.write(fd, &hello).expect("handshake send");
                assert_eq!(n, 8);
                let obj = k.fd_object(fd).expect("connected fd");
                if let FdObject::Sock(cid, _) = obj {
                    global(k.w).bind_conn(cid, gsid);
                }
                self.sock_map.insert((gsid, 0), obj);
                self.want_connect.remove(&gsid);
                progressed = true;
            }
        }

        if self.connect_done() {
            return Ok(true);
        }
        if progressed {
            Ok(false)
        } else {
            Err(())
        }
    }

    // ------------------------------------------------------------------
    // Phase 3: fork into user processes
    // ------------------------------------------------------------------

    fn do_fork(&mut self, k: &mut Kernel<'_>) {
        let t_sockets = k.now();
        let node = k.node();
        let my_pid = k.pid;
        for l in &self.loaded {
            // Create the child shell (Figure 2 step 3): a fork of the
            // restart process. The shell program is immediately replaced by
            // the restored threads, so it never runs.
            struct Husk;
            impl Program for Husk {
                fn step(&mut self, _k: &mut Kernel<'_>) -> Step {
                    unreachable!("husk replaced by restored threads before dispatch")
                }
                fn tag(&self) -> &'static str {
                    "restart-husk"
                }
                fn save(&self) -> Vec<u8> {
                    Vec::new()
                }
            }
            let child = k.w.fork_process(k.sim, my_pid, Box::new(Husk));
            // The husk must not be dispatched; fork scheduled one.
            // Restore replaces threads, so clear the husk thread now, and
            // close every fork-inherited fd (the real restart child closes
            // "unneeded file descriptors belonging to other processes" —
            // Figure 2 step 4 — before installing the recorded ones).
            let inherited = {
                let p = k.w.procs.get_mut(&child).expect("child exists");
                p.threads.clear();
                let inherited = p.fds.clone_entries();
                p.fds = oskit::fdtable::FdTable::new();
                p.env = l.img.env.iter().cloned().collect();
                p.env.insert(ENV_RESTART_CHILD.to_string(), "1".to_string());
                inherited
            };
            for (_, entry) in inherited {
                k.w.release_obj(k.sim, entry.obj);
            }

            // Step 4: rearrange fds to the recorded numbers.
            for r in &l.table.records {
                let obj = match &r.kind {
                    FdKindRec::File { path, offset, .. } => self.file_map[&(path.clone(), *offset)],
                    FdKindRec::Listener { port } => self.listener_map[port],
                    FdKindRec::Sock {
                        gsid, end, shut_wr, ..
                    } => {
                        let obj = *self
                            .sock_map
                            .get(&(*gsid, *end))
                            .unwrap_or_else(|| panic!("socket {gsid:?} end {end} not restored"));
                        // Re-apply a pre-checkpoint `shutdown(SHUT_WR)` so
                        // the peer still reads EOF after the restart.
                        if *shut_wr {
                            if let FdObject::Sock(cid, se) = obj {
                                if let Some(conn) = k.w.conns.get_mut(&cid) {
                                    conn.wr_closed[se as usize] = true;
                                }
                            }
                        }
                        obj
                    }
                    FdKindRec::PtyMaster { gsid } => FdObject::PtyMaster(self.pty_map[gsid]),
                    FdKindRec::PtySlave { gsid } => FdObject::PtySlave(self.pty_map[gsid]),
                };
                k.w.retain_obj(obj);
                let p = k.w.procs.get_mut(&child).expect("child exists");
                p.fds.install_at(
                    r.fd,
                    FdEntry {
                        obj,
                        cloexec: r.cloexec,
                    },
                );
            }

            // Step 5: restore memory and threads via MTCP.
            let rep = mtcp::restore_into(k.w, k.now(), child, node, &l.path, &l.img)
                .unwrap_or_else(|e| panic!("restore {}: {e}", l.path));
            if faultkit::wants_fill(k.w) {
                notify_fill(k.sim, self.gen, child, node, &rep);
            }

            // Pid virtualization: the restored process keeps its vpid.
            restored_real(k.w).insert(l.table.vpid, child.0);
            {
                let p = k.w.procs.get_mut(&child).expect("child exists");
                p.virt_pid = Some(l.table.vpid);
                p.pid_map.clear();
                p.pid_map.insert(l.table.vpid, child.0);
                // Seed identity entries for every vpid this process knew;
                // the post-restore fixup rewires them to the new real pids.
                for v in &l.table.known_vpids {
                    p.pid_map.entry(*v).or_insert(*v);
                }
                p.env.remove(ENV_RESTART_CHILD);
                // Controlling terminal ownership.
                if let Some(ctty_gsid) = &l.table.ctty {
                    let ptid = self.pty_map[ctty_gsid];
                    p.ctty = Some(ptid);
                }
            }
            if let Some(ctty_gsid) = &l.table.ctty {
                let ptid = self.pty_map[ctty_gsid];
                let is_controller = l
                    .table
                    .ptys
                    .iter()
                    .any(|pr| pr.controlling_vpid == Some(l.table.vpid));
                if is_controller {
                    k.w.ptys.get_mut(&ptid).expect("pty").controlling_pid = Some(child);
                }
            }

            // Hijack state carried over from the image: the environment it
            // saved decodes exactly as it did at launch.
            let mut h = hijack_from_env(l.table.vpid, &k.w.procs[&child].env);
            // Restart's deliberate differences from the launched state. The
            // saved environment describes the session the process was
            // launched into — a coordinator or relay address that need not
            // exist any more, and a generation counter. The restored manager
            // joins the computation this restart process is rebuilding
            // instead: it registers directly with the root coordinator the
            // restart was pointed at, resumes at the generation being
            // restored, and takes that image's drain records and connection
            // table. It also writes its images without a sync, whatever
            // policy the session was launched with. The write mode is not
            // one of the differences: a process launched forked checkpoints
            // forked after a restart too.
            h.coord_host = self.coord_host.clone();
            h.coord_port = self.coord_port;
            h.root_port = self.coord_port;
            h.sync = crate::launch::SyncMode::None;
            h.gen = self.gen;
            h.drained = l.table.drained.clone();
            h.table = l.table.clone();
            h.restart_partial = Some((
                self.t_files - self.t_start,
                t_sockets - self.t_files,
                rep.done_at - t_sockets,
            ));
            // Figure-2 step spans on the restored process's track (the
            // refill span is added by its manager at restart-resume).
            {
                let track = obs::TrackId::new(node.0, l.table.vpid, 0);
                let args = |g: u64| vec![("gen", g)];
                let sp = &mut k.w.obs.spans;
                sp.complete(
                    track,
                    "restart.files",
                    "restart",
                    self.t_start,
                    self.t_files,
                    args(h.gen),
                );
                sp.complete(
                    track,
                    "restart.sockets",
                    "restart",
                    self.t_files,
                    t_sockets,
                    args(h.gen),
                );
                sp.complete(
                    track,
                    "restart.memory",
                    "restart",
                    t_sockets,
                    rep.done_at,
                    args(h.gen),
                );
            }
            {
                let p = k.w.procs.get_mut(&child).expect("child exists");
                p.ext = Some(Box::new(h));
            }

            // The manager thread starts once memory restoration completes.
            let mgr_tid = {
                let p = k.w.procs.get_mut(&child).expect("child exists");
                p.add_thread(Box::new(Manager::new(Mode::RestartRefill)), false)
            };
            k.w.schedule_dispatch_at(k.sim, child, mgr_tid, rep.done_at);
        }
        // Release the restart process's own copies of every fd (children
        // hold their own references now).
        for (fd, _) in k.list_fds() {
            if fd != self.coord_fd {
                let _ = k.close(fd);
            }
        }
    }
}

/// Tell the fault layer how far the fill of `pid`, restored on `node` from
/// generation `gen`, has got: its hot set mapped, halfway to its last cold
/// region, and that region landed (the last two only when it has a fill).
fn notify_fill(sim: &mut OsSim, gen: u64, pid: Pid, node: NodeId, rep: &mtcp::RestoreReport) {
    let (hot, last) = (rep.done_at, rep.fill_done);
    let mut points = vec![(FillPoint::HotMapped, hot)];
    if last > hot {
        let mid = Nanos(hot.0 + (last.0 - hot.0) / 2);
        points.extend([(FillPoint::MidFill, mid), (FillPoint::LastRegion, last)]);
    }
    for (point, at) in points {
        sim.at(at, move |w: &mut World, sim| {
            faultkit::fill_progress(w, sim, gen, point, pid, node)
        });
    }
}

/// The generation the image at `path` belongs to.
pub fn parse_gen(path: &str) -> Option<u64> {
    mtcp::ImageName::parse(path).map(|n| n.gen)
}

impl Program for RestartProc {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        loop {
            match self.phase {
                Phase::Load => match self.do_load(k) {
                    Ok(()) => {
                        self.phase = Phase::Connect;
                        // Charge the syscall cost of reopening files and
                        // recreating ptys (Figure 2 step 1; Table 1b's
                        // "restore files and ptys" row).
                        let nfds: usize = self.loaded.iter().map(|l| l.table.records.len()).sum();
                        let pause = Nanos::from_micros(500 + 30 * nfds as u64);
                        self.t_files = k.now() + pause;
                        return Step::Sleep(pause);
                    }
                    Err(step) => return step,
                },
                Phase::Connect => match self.do_connect(k) {
                    Ok(true) => {
                        self.phase = Phase::Fork;
                        // Per-socket reconnect cost (discovery round trips,
                        // handshakes) — Table 1b's "reconnect sockets" row.
                        let pause = Nanos::from_micros(100 * self.sock_map.len() as u64);
                        return Step::Sleep(pause);
                    }
                    Ok(false) => return Step::Sleep(Nanos::from_millis(1)),
                    Err(()) => {
                        // Blocked: retry discovery on a short timer (the
                        // paper's restart polls the discovery service).
                        return Step::Sleep(Nanos::from_millis(2));
                    }
                },
                Phase::Fork => {
                    self.do_fork(k);
                    // Detach from the coordinator: the restored managers own
                    // their own connections, and an unread broadcast stream
                    // would eventually fill this socket's window.
                    let _ = k.close(self.coord_fd);
                    self.coord_fd = -1;
                    self.phase = Phase::Done;
                }
                Phase::Done => {
                    // Stay alive as the parent of the restored processes.
                    k.block_forever();
                    return Step::Block;
                }
            }
        }
    }

    fn tag(&self) -> &'static str {
        "dmtcp-restart"
    }

    fn save(&self) -> Vec<u8> {
        unreachable!("restart processes are not themselves checkpointed")
    }
}

/// Record the restart stage breakdown once the manager finishes the refill
/// (called by the manager at restart-resume time). Each Figure-2 step goes
/// into a `core.restart.*` histogram labeled by generation; Table 1b
/// derives its means from these.
pub fn record_restart_sample(
    w: &mut oskit::world::World,
    vpid: u32,
    gen: u64,
    partial: (Nanos, Nanos, Nanos),
    refill: Nanos,
) {
    let _ = vpid;
    let m = &mut w.obs.metrics;
    m.observe("core.restart.files", gen, partial.0 .0);
    m.observe("core.restart.sockets", gen, partial.1 .0);
    m.observe("core.restart.memory", gen, partial.2 .0);
    m.observe("core.restart.refill", gen, refill.0);
    m.inc("core.restart.completions", gen);
}

/// Fix up a restored process's pid-translation map once every process of
/// the computation exists again (manager calls this after the *restored*
/// barrier).
pub fn fixup_pid_map(w: &mut oskit::world::World, pid: Pid) {
    let map = restored_real(w).clone();
    let parent_vpid = crate::hijack::hijack_of(w, pid).map(|h| h.table.parent_vpid);
    if let Some(p) = w.procs.get_mut(&pid) {
        for (vpid, real) in &map {
            if p.pid_map.contains_key(vpid) || p.virt_pid == Some(*vpid) {
                p.pid_map.insert(*vpid, *real);
            }
        }
        // Restore the parent-child relationship when the parent was also
        // restored (so `waitpid` keeps working across the restart).
        if let Some(pv) = parent_vpid {
            if pv != 0 {
                if let Some(real_parent) = map.get(&pv) {
                    p.ppid = Pid(*real_parent);
                }
            }
        }
    }
}

/// Re-exported for tests.
pub use crate::launch::ENV_RESTART_CHILD as RESTART_CHILD_ENV;
