//! The checkpoint-manager thread (§4.2–4.3).
//!
//! One manager thread lives in every traced process. It connects to the
//! coordinator at startup and then executes the seven-stage checkpoint
//! algorithm of Figure 1, synchronized by the coordinator's six global
//! barriers:
//!
//! 1. wait for a checkpoint request;
//! 2. suspend user threads, save fd owners — barrier *suspended*;
//! 3. elect shared-fd leaders by misusing `fcntl(F_SETOWN)` (every process
//!    sets itself as owner; the last write wins) — barrier *elected*;
//! 4. drain kernel buffers with an in-band token that doubles as the peer
//!    gsid handshake, and write the connection-information table — barrier
//!    *drained*;
//! 5. delegate the memory image to MTCP — barrier *checkpointed*;
//! 6. refill kernel buffers by returning drained bytes to their sender for
//!    retransmission — barrier *refilled*;
//! 7. resume user threads.
//!
//! The stages and their order are [`stage::CHECKPOINT`] and
//! [`stage::RESTART`]; the manager is one loop over them. For each stage it
//! does the stage's work and reaches the barrier ([`Phase::Work`]), then
//! awaits the release ([`Phase::Await`]), which moves it on to the next
//! stage of the table — or, on an abort, rolls back by one rule per stage.
//!
//! After a restart the manager starts at `Phase::Work(stage::RESTORED)`:
//! it re-registers, waits for the *restored* barrier, replays stage 6 over
//! the reconnected sockets, and resumes the user threads (Figure 2 steps
//! 6–7).
//!
//! The manager is a non-user thread: it keeps running while user threads
//! are frozen, and MTCP does not capture it in the image — a fresh one is
//! built at restart, exactly as the real MTCP restart routine does.

use crate::coord::{record_image, stage};
use crate::gsid::{global, Gsid};
use crate::hijack::{hijack_of, ConnTable, FdKindRec, FdRecord, PtyRecord, WatchRec};
use crate::proto::{drain_token, frame, split_drain_token, FrameBuf, Msg};

use oskit::fdtable::FdObject;
use oskit::net::Conn;
use oskit::proc::ThreadState;
use oskit::program::Step;
use oskit::world::{Pid, Tid};
use oskit::{Errno, Fd, Kernel};
use simkit::{mix2, DetRng, Nanos};
use std::collections::BTreeSet;

/// Where the manager is in the protocol. A launched manager starts at
/// [`Phase::Connect`], a restored one at `Work(stage::RESTORED)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Connect to the coordinator and register.
    Connect,
    /// Wait for a checkpoint request.
    Idle,
    /// Hold the request while a `dmtcpaware` critical section runs.
    DelayGate,
    /// Finish the stage's work, then reach its barrier. For `CKPT_WRITTEN`
    /// this is a forked write's background wait: the user threads run
    /// again while the COW child compresses and writes.
    Work(u8),
    /// Await the stage's release (or the generation's abort).
    Await(u8),
}

/// One in-band transfer job (drain or refill) on a led connection end.
struct XferJob {
    fd: Fd,
    gsid: Gsid,
    /// Bytes to push out (token or refill frame), with send progress.
    out: Vec<u8>,
    out_off: usize,
    /// Inbound accumulation (drain: until token; refill: until one frame).
    in_buf: Vec<u8>,
    got_in: bool,
    /// Refill only: payload to retransmit after the peer's frame arrived.
    resend: Vec<u8>,
    resend_off: usize,
    /// Drain result.
    drained: Vec<u8>,
    peer_gsid: Option<Gsid>,
    eof: bool,
}

impl XferJob {
    /// A job that sends `out` on `fd` and reads the peer's answer.
    fn new(fd: Fd, gsid: Gsid, out: Vec<u8>) -> Self {
        XferJob {
            fd,
            gsid,
            out,
            out_off: 0,
            in_buf: Vec::new(),
            got_in: false,
            resend: Vec::new(),
            resend_off: 0,
            drained: Vec::new(),
            peer_gsid: None,
            eof: false,
        }
    }
    fn done_drain(&self) -> bool {
        self.out_off >= self.out.len() && self.got_in
    }
    fn done_refill(&self) -> bool {
        self.out_off >= self.out.len() && self.got_in && self.resend_off >= self.resend.len()
    }
}

/// What [`Manager::released`] observed while awaiting a barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// The awaited barrier was released.
    Released,
    /// Nothing decisive arrived; block (a retransmit timer is armed).
    Blocked,
    /// The coordinator abandoned the generation; roll back and resume.
    Aborted,
}

/// Initial barrier-retransmit timeout (doubles on every resend; a seeded
/// per-process jitter keeps retransmissions from synchronizing).
const BARRIER_RETRY_INITIAL: Nanos = Nanos::from_millis(30);

/// Exit status of a restored process whose restart the coordinator
/// abandoned (sysexits' `EX_TEMPFAIL`: the restart can be tried again).
const RESTART_ABANDONED: i32 = 75;

/// The checkpoint-manager thread program.
pub struct Manager {
    phase: Phase,
    coord_fd: Fd,
    /// This process's virtual pid, read when the manager registers.
    vpid: u32,
    fb: FrameBuf,
    cur_gen: u64,
    jobs: Vec<XferJob>,
    saved_owners: Vec<(Fd, u32)>,
    // Stage timestamps (local barrier-release receipt times, by stage).
    t_request: Nanos,
    t_stage: [Nanos; 13],
    /// In-flight forked (background) image write: holds the COW snapshot
    /// alive so application writes during the overlapped drain are charged
    /// as copies. `Some` from the fork until the pipeline drains; the image
    /// is recorded with the coordinator only then.
    forked: Option<mtcp::ForkedWrite>,
    /// Retransmit deadline for the in-flight `BarrierReached` (armed while
    /// awaiting a release; the network may have eaten either direction).
    deadline: Option<Nanos>,
    backoff: Nanos,
    /// Jitter source, seeded from the vpid so retries are deterministic
    /// per process without consuming the world's RNG.
    rng: Option<DetRng>,
    /// A request for the next generation that arrived while a release of
    /// this one was still awaited (see [`Manager::released`]).
    parked_request: Option<u64>,
}

impl Manager {
    /// A fresh manager starting at `phase`.
    pub fn new(phase: Phase) -> Self {
        Manager {
            phase,
            coord_fd: -1,
            vpid: 0,
            fb: FrameBuf::new(),
            cur_gen: 0,
            jobs: Vec::new(),
            saved_owners: Vec::new(),
            t_request: Nanos::ZERO,
            t_stage: [Nanos::ZERO; 13],
            forked: None,
            deadline: None,
            backoff: BARRIER_RETRY_INITIAL,
            rng: None,
            parked_request: None,
        }
    }

    // ------------------------------------------------------------------
    // Coordinator plumbing
    // ------------------------------------------------------------------

    fn connect_coord(&mut self, k: &mut Kernel<'_>) -> Result<(), Step> {
        let (host, port, vpid) = {
            let pid = k.pid;
            let h = hijack_of(k.w, pid).expect("manager in traced process");
            (h.coord_host.clone(), h.coord_port, h.vpid)
        };
        match k.connect(&host, port) {
            Ok(fd) => {
                self.coord_fd = fd;
                // Protected-fd convention: this connection is DMTCP's own
                // and must never be elected, drained, or inherited.
                if let Ok(FdObject::Sock(cid, _)) = k.fd_object(fd) {
                    global(k.w).protected_conns.insert(cid);
                    // Tell the fault injector this is a coordinator-protocol
                    // connection (message faults target only these).
                    faultkit::note_protocol_conn(k.w, cid);
                }
                self.vpid = vpid;
                let msg = frame(&Msg::Register(vpid, k.hostname()));
                let n = k.write(fd, &msg).expect("register");
                assert_eq!(n, msg.len());
                Ok(())
            }
            Err(Errno::ConnRefused) => Err(Step::Sleep(Nanos::from_millis(5))),
            Err(e) => panic!("manager connect to coordinator: {e:?}"),
        }
    }

    /// Pump coordinator bytes into the frame buffer; returns the next
    /// message if one arrived.
    fn poll_coord(&mut self, k: &mut Kernel<'_>) -> Result<Option<Msg>, ()> {
        loop {
            if let Some(msg) = self.fb.pop().expect("well-formed coordinator frames") {
                return Ok(Some(msg));
            }
            match k.read(self.coord_fd, 64 * 1024) {
                Ok(b) if b.is_empty() => {
                    // The coordinator (or, hierarchically, this node's
                    // relay) hung up. Without its control channel this
                    // process can never pass another barrier — it is as
                    // good as dead to the computation, and keeping it
                    // running would only leave barriers hanging. Treat it
                    // like node death: kill the process; a restart rolls
                    // back to the last durable generation.
                    let pid = k.pid;
                    k.obs().metrics.inc("core.manager.orphaned", 0);
                    k.w.signal(k.sim, pid, oskit::proc::sig::SIGKILL);
                    return Err(());
                }
                Ok(b) => self.fb.feed(&b),
                Err(Errno::WouldBlock) => return Err(()),
                // Our own fd table is already torn down: this process was
                // just SIGKILLed (control-channel loss detected on the
                // send side) and this step is its last.
                Err(Errno::BadFd) => return Err(()),
                Err(e) => panic!("manager read coordinator: {e:?}"),
            }
        }
    }

    /// Journal a stage-class event at the current instant.
    fn journal(k: &mut Kernel<'_>, kind: &'static str, args: &[(&'static str, u64)]) {
        if k.obs().journal.wants(obs::journal::CLASS_STAGE) {
            let now = k.now();
            let class = obs::journal::CLASS_STAGE;
            k.obs().journal.record(now, class, kind, None, args, "");
        }
    }

    fn send_barrier(&mut self, k: &mut Kernel<'_>, stg: u8) {
        let (gen, vpid) = (self.cur_gen, self.vpid as u64);
        Self::journal(
            k,
            "stage.reach",
            &[("gen", gen), ("stage", stg as u64), ("vpid", vpid)],
        );
        let msg = frame(&Msg::BarrierReached(self.cur_gen, stg));
        match k.write(self.coord_fd, &msg) {
            Ok(n) => assert_eq!(n, msg.len()),
            Err(_) => {
                // The coordinator (or this node's relay) died under us —
                // same situation as reading EOF off the control channel:
                // this process can never pass another barrier, so treat it
                // as node death and let restart roll back to the last
                // durable generation.
                let pid = k.pid;
                k.obs().metrics.inc("core.manager.orphaned", 0);
                k.w.signal(k.sim, pid, oskit::proc::sig::SIGKILL);
            }
        }
    }

    /// Poll for `BarrierRelease(cur_gen, stg)`. Stale retransmissions
    /// (releases of earlier stages or generations, duplicate checkpoint
    /// requests) are skipped; `CkptAbort` of the current generation
    /// surfaces as [`Verdict::Aborted`]. On [`Verdict::Blocked`] a
    /// retransmit timer is armed: if the release does not arrive by the
    /// deadline the `BarrierReached` is re-sent (the coordinator treats
    /// duplicates as idempotent and re-sends a lost release).
    fn released(&mut self, k: &mut Kernel<'_>, stg: u8) -> Verdict {
        loop {
            match self.poll_coord(k) {
                Ok(Some(Msg::BarrierRelease(g, s))) if g == self.cur_gen && s == stg => {
                    self.deadline = None;
                    return Verdict::Released;
                }
                // A duplicate release of a stage we already passed, or one
                // from a previous generation: harmless retransmission.
                Ok(Some(Msg::BarrierRelease(g, s))) if g < self.cur_gen || s < stg => continue,
                // An in-line writer acks CKPT_WRITTEN back at WriteDone, so
                // under message reordering its release can overtake the
                // REFILLED release. It is never awaited in-line — skip.
                Ok(Some(Msg::BarrierRelease(g, s)))
                    if g == self.cur_gen && s == stage::CKPT_WRITTEN =>
                {
                    continue
                }
                // The coordinator retransmitted the request that started
                // this generation; we are already past it.
                Ok(Some(Msg::CkptRequest(g))) if g <= self.cur_gen => continue,
                // The coordinator starts the next generation only once this
                // one has settled, so its request was sent behind the
                // release awaited here — and overtook it: two sends at one
                // instant on a loopback control channel arrive shortest
                // first (a checkpoint requested the moment a restart or a
                // forked drain completes). Park it; `Idle` takes it up when
                // the release has been read.
                Ok(Some(Msg::CkptRequest(g))) => {
                    self.parked_request = Some(g);
                    continue;
                }
                Ok(Some(Msg::CkptAbort(g))) => {
                    if g == self.cur_gen {
                        self.deadline = None;
                        return Verdict::Aborted;
                    }
                    continue; // stale abort of an older attempt
                }
                Ok(Some(other)) => panic!("manager awaiting stage {stg}: unexpected {other:?}"),
                Ok(None) => unreachable!(),
                Err(()) => {
                    self.arm_or_resend(k, stg);
                    return Verdict::Blocked;
                }
            }
        }
    }

    /// Arm the barrier-retransmit timer, or — past the deadline — re-send
    /// `BarrierReached` and back off (doubling, with seeded jitter).
    fn arm_or_resend(&mut self, k: &mut Kernel<'_>, stg: u8) {
        let now = k.now();
        match self.deadline {
            None => self.backoff = BARRIER_RETRY_INITIAL,
            // A timer for this deadline is already scheduled and has not
            // expired: this is a spurious wake (e.g. a retransmitted
            // coordinator request made the fd readable). Re-arming here
            // would push the deadline forward on every wake — with two
            // wake sources in flight the resend would never become due.
            Some(d) if now < d => return,
            Some(_) => {
                k.obs().metrics.inc("core.barrier.retries", stg as u64);
                self.send_barrier(k, stg);
                // Exponential backoff, capped: a barrier legitimately takes
                // as long as its slowest participant (restarts can be
                // seconds).
                self.backoff = (self.backoff + self.backoff).min(Nanos::from_millis(2_000));
            }
        }
        if self.rng.is_none() {
            let vpid = self.vpid;
            self.rng = Some(DetRng::seed_from_u64(mix2(
                0x0062_6172_7269_6572,
                vpid as u64,
            )));
        }
        let jitter = Nanos(self.rng.as_mut().expect("seeded").range(0, 15_000_000));
        let dt = self.backoff + jitter;
        self.deadline = Some(now + dt);
        let (pid, tid) = (k.pid, k.tid);
        k.sim.after(dt, move |w, sim| {
            w.wake(sim, (pid, tid));
        });
    }

    // ------------------------------------------------------------------
    // Stage 2: suspend
    // ------------------------------------------------------------------

    fn do_suspend(&mut self, k: &mut Kernel<'_>) {
        let pid = k.pid;
        k.w.suspend_user_threads(k.sim, pid);
        // Save every fd's owner (stage 2: "DMTCP saves the owner of each
        // file descriptor") so stage 6 can restore the original values.
        self.saved_owners = k
            .list_fds()
            .iter()
            .filter_map(|(fd, obj)| match obj {
                FdObject::Sock(..) | FdObject::Listener(_) | FdObject::File(_) => {
                    Some((*fd, k.fcntl_getown(*fd).expect("fd just listed").0))
                }
                _ => None,
            })
            .collect();
    }

    // ------------------------------------------------------------------
    // Stage 3: election
    // ------------------------------------------------------------------

    fn do_elect(&mut self, k: &mut Kernel<'_>) {
        let vpid = self.vpid;
        for (fd, obj) in k.list_fds() {
            if fd == self.coord_fd {
                continue; // DMTCP's own connection is never checkpointed
            }
            if matches!(
                obj,
                FdObject::Sock(..) | FdObject::Listener(_) | FdObject::File(_)
            ) {
                k.fcntl_setown(fd, Pid(vpid)).expect("setown");
            }
        }
    }

    /// The led connection ends of this process: `(fd, ConnId, end)` where
    /// the stage-3 election chose us.
    fn led_ends(&self, k: &mut Kernel<'_>) -> Vec<(Fd, oskit::net::ConnId, u8)> {
        let vpid = self.vpid;
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for (fd, obj) in k.list_fds() {
            if fd == self.coord_fd {
                continue;
            }
            if let FdObject::Sock(cid, end) = obj {
                if global(k.w).protected_conns.contains(&cid) {
                    continue;
                }
                if !seen.insert((cid, end)) {
                    continue; // dup'd fd of the same end
                }
                let owner = k.fcntl_getown(fd).expect("sock fd").0;
                if owner == vpid {
                    out.push((fd, cid, end));
                }
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Stage 4: drain
    // ------------------------------------------------------------------

    fn build_drain_jobs(&mut self, k: &mut Kernel<'_>) {
        self.jobs.clear();
        for (fd, cid, _end) in self.led_ends(k) {
            let gsid = global(k.w).conn(cid);
            self.jobs.push(XferJob::new(fd, gsid, drain_token(gsid)));
        }
    }

    /// Advance all drain jobs: `Ok` once all are done, else the step to
    /// take — yield after progress, block when every job would block
    /// (wakers registered).
    fn run_drain(&mut self, k: &mut Kernel<'_>) -> Result<(), Step> {
        let mut all_done = true;
        let mut progressed = false;
        for j in &mut self.jobs {
            if j.done_drain() {
                continue;
            }
            // Push the token out (may interleave with reads under full
            // buffers in both directions).
            let (sent, pipe) = send(k, j.fd, &j.out, &mut j.out_off, "drain token send");
            progressed |= sent > 0 || pipe;
            if pipe {
                // Our token cannot go out: either the peer fully closed
                // (nothing will come back) or this end was half-closed with
                // `shutdown` (the peer can still talk, so keep reading for
                // its token normally).
                j.eof |= match k.fd_object(j.fd) {
                    Ok(FdObject::Sock(cid, end)) => {
                        k.w.conns
                            .get(&cid)
                            .map(|c| c.closed[Conn::peer(end as usize)])
                            .unwrap_or(true)
                    }
                    _ => true,
                };
            }
            // Drain inbound until the peer's token appears.
            while !j.got_in {
                match k.read(j.fd, 64 * 1024) {
                    Ok(b) if b.is_empty() => {
                        // EOF: peer closed; whatever arrived is the drain.
                        j.drained = std::mem::take(&mut j.in_buf);
                        j.got_in = true;
                        j.eof = true;
                        progressed = true;
                    }
                    Ok(b) => {
                        j.in_buf.extend_from_slice(&b);
                        if let Some((data, peer)) = split_drain_token(&j.in_buf) {
                            j.drained = data.to_vec();
                            j.peer_gsid = Some(peer);
                            j.got_in = true;
                        }
                        progressed = true;
                    }
                    Err(Errno::WouldBlock) => break,
                    Err(e) => panic!("drain read: {e:?}"),
                }
            }
            if j.eof && j.out_off >= j.out.len() && !j.got_in {
                // Write side saw EPIPE; nothing will arrive. Pull whatever
                // sits in the kernel buffer directly (privileged, models
                // draining a half-closed socket).
                j.drained = std::mem::take(&mut j.in_buf);
                j.got_in = true;
            }
            if !j.done_drain() {
                all_done = false;
            }
        }
        step_result(all_done, progressed)
    }

    /// After draining: store results and build the connection table.
    fn finish_drain(&mut self, k: &mut Kernel<'_>) {
        let pid = k.pid;
        let drained: Vec<(Gsid, Vec<u8>)> = self
            .jobs
            .iter()
            .map(|j| (j.gsid, j.drained.clone()))
            .collect();
        let total: u64 = drained.iter().map(|(_, d)| d.len() as u64).sum();
        k.obs().metrics.add("core.drain.bytes", self.cur_gen, total);
        let table = self.build_conn_table(k);
        let h = hijack_of(k.w, pid).expect("traced");
        h.table = ConnTable { drained, ..table };
    }

    fn build_conn_table(&mut self, k: &mut Kernel<'_>) -> ConnTable {
        let vpid = self.vpid;
        let pid = k.pid;
        let my_node = k.node();
        let host = k.hostname();
        let mut records = Vec::new();
        let mut ptys = Vec::new();
        let led: BTreeSet<Fd> = self.led_ends(k).iter().map(|(fd, _, _)| *fd).collect();
        // Identify, per pty, the lowest-pid master holder on this node —
        // that process saves the pty state.
        for (fd, obj) in k.list_fds() {
            if self.coord_fd == fd {
                continue; // the manager's own socket is not application state
            }
            if let FdObject::Sock(cid, _) = obj {
                if global(k.w).protected_conns.contains(&cid) {
                    continue;
                }
            }
            let cloexec = false;
            match obj {
                FdObject::File(of_id) => {
                    let f = &k.w.open_files[&of_id];
                    records.push(FdRecord {
                        fd,
                        cloexec,
                        kind: FdKindRec::File {
                            path: f.path.clone(),
                            offset: f.offset,
                            writable: f.writable,
                        },
                    });
                }
                FdObject::Sock(cid, end) => {
                    let kind_byte = match k.w.conns.get(&cid).map(|c| c.kind) {
                        Some(oskit::net::ConnKind::Tcp) => 0,
                        Some(oskit::net::ConnKind::Unix) => 1,
                        Some(oskit::net::ConnKind::SocketPair) => 2,
                        Some(oskit::net::ConnKind::Pipe) => 3,
                        None => 0,
                    };
                    let shut_wr =
                        k.w.conns
                            .get(&cid)
                            .map(|c| c.wr_closed[end as usize])
                            .unwrap_or(false);
                    let gsid = global(k.w).conn(cid);
                    records.push(FdRecord {
                        fd,
                        cloexec,
                        kind: FdKindRec::Sock {
                            gsid,
                            end,
                            peer_seen: self
                                .jobs
                                .iter()
                                .any(|j| j.gsid == gsid && j.peer_gsid.is_some()),
                            leader: led.contains(&fd),
                            kind_byte,
                            shut_wr,
                        },
                    });
                }
                FdObject::Listener(lid) => {
                    let port = k.w.listeners.get(&lid).map(|l| l.port).unwrap_or(0);
                    records.push(FdRecord {
                        fd,
                        cloexec,
                        kind: FdKindRec::Listener { port },
                    });
                }
                FdObject::PtyMaster(ptid) => {
                    let gsid = global(k.w).pty(ptid);
                    records.push(FdRecord {
                        fd,
                        cloexec,
                        kind: FdKindRec::PtyMaster { gsid },
                    });
                    // Save pty state if we are the lowest-pid master holder.
                    let lowest =
                        k.w.procs
                            .values()
                            .filter(|p| p.node == my_node && p.alive())
                            .filter(|p| {
                                p.fds
                                    .iter()
                                    .any(|(_, e)| e.obj == FdObject::PtyMaster(ptid))
                            })
                            .map(|p| p.pid)
                            .min();
                    if lowest == Some(pid) {
                        let p = &k.w.ptys[&ptid];
                        let controlling_vpid = p.controlling_pid.and_then(|cp| {
                            k.w.procs.get(&cp).map(|proc| proc.virt_pid.unwrap_or(cp.0))
                        });
                        ptys.push(PtyRecord {
                            gsid,
                            to_slave: p.to_slave.iter().copied().collect(),
                            to_master: p.to_master.iter().copied().collect(),
                            termios: p.termios,
                            controlling_vpid,
                        });
                    }
                }
                FdObject::PtySlave(ptid) => {
                    let gsid = global(k.w).pty(ptid);
                    records.push(FdRecord {
                        fd,
                        cloexec,
                        kind: FdKindRec::PtySlave { gsid },
                    });
                }
            }
        }
        let ctty = {
            let p = &k.w.procs[&pid];
            p.ctty
        }
        .map(|ptid| global(k.w).pty(ptid));
        // Watches on recorded fds only: the manager's coordinator socket
        // and protected connections are not restored.
        let watches = {
            let p = &k.w.procs[&pid];
            let user_threads: Vec<Tid> = p
                .threads
                .iter()
                .filter(|t| t.user && t.state != ThreadState::Exited)
                .map(|t| t.tid)
                .collect();
            k.w.watched_ends(pid)
                .into_iter()
                .filter(|(fd, _)| records.iter().any(|r| r.fd == *fd))
                .filter_map(|(fd, watch)| {
                    let thread = user_threads.iter().position(|&t| t == watch.who.1)?;
                    Some(WatchRec {
                        fd,
                        thread: thread as u32,
                        token: watch.token,
                    })
                })
                .collect()
        };
        let known_vpids = k.w.procs[&pid].pid_map.keys().copied().collect();
        let parent_vpid = {
            let ppid = k.w.procs[&pid].ppid;
            k.w.procs
                .get(&ppid)
                .filter(|pp| crate::hijack::is_traced_proc(pp))
                .and_then(|pp| pp.virt_pid)
                .unwrap_or(0)
        };
        ConnTable {
            vpid,
            host,
            records,
            drained: Vec::new(), // filled by finish_drain
            ptys,
            ctty,
            known_vpids,
            parent_vpid,
            watches,
        }
    }

    // ------------------------------------------------------------------
    // Stage 5: write image
    // ------------------------------------------------------------------

    fn do_write(&mut self, k: &mut Kernel<'_>) -> Nanos {
        use simkit::Snap;
        let pid = k.pid;
        let (name, root_port, mode, vpid, meta) = {
            let h = hijack_of(k.w, pid).expect("traced");
            (
                h.image_name(self.cur_gen),
                h.root_port,
                h.mode,
                h.vpid,
                h.table.to_snap_bytes(),
            )
        };
        let path = name.to_string();
        let now = k.now();
        // MTCP decides how: forked mode lets it fork, and it does when the
        // fork stops the application for less than the write would.
        let written = mtcp::write_checkpoint(k.w, now, pid, &path, mode, vpid, meta);
        global(k.w).checkpointed_vpids.insert(vpid);
        match written {
            mtcp::Written::Inline(report) => {
                let host = k.hostname();
                let node = k.node();
                faultkit::image_written(k.w, self.cur_gen, node, &path);
                record_image(k.w, root_port, host, name);
                report.resume_at
            }
            mtcp::Written::Forked(fw) => {
                // COW-snapshotted; this returns after the fork pause while
                // compression and I/O drain in the background. The image
                // is *not* recorded with the coordinator (nor visible to
                // the fault injector) until the pipeline completes — a
                // restart before then must use the previous generation.
                let args = [
                    ("gen", self.cur_gen),
                    ("vpid", vpid as u64),
                    ("dirty_bytes", fw.report.captured_raw_bytes),
                    ("incremental", fw.report.incremental as u64),
                ];
                Self::journal(k, "drain.begin", &args);
                let resume_at = fw.report.resume_at;
                self.forked = Some(fw);
                resume_at
            }
        }
    }

    // ------------------------------------------------------------------
    // Stage 6: refill
    // ------------------------------------------------------------------

    fn build_refill_jobs(&mut self, k: &mut Kernel<'_>) {
        let pid = k.pid;
        let (drained, records) = {
            let h = hijack_of(k.w, pid).expect("traced");
            (h.table.drained.clone(), h.table.records.clone())
        };
        self.jobs.clear();
        for r in &records {
            if let FdKindRec::Sock {
                gsid, leader: true, ..
            } = &r.kind
            {
                let data = drained
                    .iter()
                    .find(|(g, _)| g == gsid)
                    .map(|(_, d)| d.clone())
                    .unwrap_or_default();
                let out = frame(&Msg::Refill(data));
                self.jobs.push(XferJob::new(r.fd, *gsid, out));
            }
        }
    }

    fn run_refill(&mut self, k: &mut Kernel<'_>) -> Result<(), Step> {
        let mut all_done = true;
        let mut progressed = false;
        // Bytes returned to kernel buffers, keyed by generation; the restart
        // replay of stage 6 counts separately so per-generation
        // drained == refilled holds for checkpoint generations.
        let refill_metric = if self.phase == Phase::Work(stage::RESTART_REFILLED) {
            "core.restart_refill.bytes"
        } else {
            "core.refill.bytes"
        };
        let gen = self.cur_gen;
        for j in &mut self.jobs {
            if j.done_refill() {
                continue;
            }
            let (sent, pipe) = send(k, j.fd, &j.out, &mut j.out_off, "refill frame send");
            progressed |= sent > 0 || pipe;
            j.eof |= pipe;
            // Read EXACTLY one frame. The peer's retransmitted application
            // bytes may already sit behind the frame in the same direction;
            // over-reading would steal them from the application, so reads
            // are capped at the bytes the frame still needs.
            while !j.got_in {
                let need = if j.in_buf.len() < 4 {
                    4 - j.in_buf.len()
                } else {
                    let len =
                        u32::from_le_bytes(j.in_buf[..4].try_into().expect("4 bytes")) as usize;
                    4 + len - j.in_buf.len()
                };
                if need == 0 {
                    let mut fb = FrameBuf::new();
                    fb.feed(&j.in_buf);
                    match fb.pop().expect("refill frame") {
                        Some(Msg::Refill(data)) => {
                            j.resend = data;
                            j.got_in = true;
                            progressed = true;
                        }
                        other => panic!("expected refill frame, got {other:?}"),
                    }
                    break;
                }
                match k.read(j.fd, need) {
                    Ok(b) if b.is_empty() => {
                        // Peer is gone: restore our own drained bytes
                        // directly into the kernel buffer (privileged).
                        j.got_in = true;
                        j.eof = true;
                        progressed = true;
                    }
                    Ok(b) => {
                        j.in_buf.extend_from_slice(&b);
                        progressed = true;
                    }
                    Err(Errno::WouldBlock) => break,
                    Err(e) => panic!("refill read: {e:?}"),
                }
            }
            if j.got_in && !j.eof {
                let (sent, pipe) = send(k, j.fd, &j.resend, &mut j.resend_off, "refill resend");
                if sent > 0 {
                    k.obs().metrics.add(refill_metric, gen, sent as u64);
                }
                progressed |= sent > 0 || pipe;
            } else if j.eof && j.got_in {
                j.resend_off = j.resend.len();
            }
            if !j.done_refill() {
                all_done = false;
            }
        }
        if all_done {
            // Half-closed conns: push our drained bytes back directly.
            for j in &self.jobs {
                if j.eof {
                    Self::privileged_refill(k, j, refill_metric, gen);
                }
            }
        }
        step_result(all_done, progressed)
    }

    /// Push `j`'s drained bytes straight back into our own kernel receive
    /// buffer (privileged), counting them under `metric`.
    fn privileged_refill(k: &mut Kernel<'_>, j: &XferJob, metric: &'static str, gen: u64) {
        let (pid, fd, gsid) = (k.pid, j.fd, j.gsid);
        let data = hijack_of(k.w, pid)
            .and_then(|h| h.table.drained.iter().find(|(g, _)| *g == gsid).cloned())
            .map(|(_, d)| d)
            .unwrap_or_default();
        if data.is_empty() {
            return;
        }
        if let Ok(FdObject::Sock(cid, end)) = k.fd_object(fd) {
            if let Some(conn) = k.w.conns.get_mut(&cid) {
                let src = Conn::peer(end as usize);
                conn.dirs[src].recv_buf.extend(&data);
                // A watcher must hear of bytes that did not arrive over the
                // wire too; a reader that polls will find them anyway.
                let watch = conn.watchers[end as usize];
                k.w.obs.metrics.add(metric, gen, data.len() as u64);
                k.w.notify(k.sim, Vec::new(), watch);
            }
        }
    }

    fn restore_owners(&mut self, k: &mut Kernel<'_>) {
        for (fd, owner) in std::mem::take(&mut self.saved_owners) {
            // The fd may have been closed by a half-dead peer; ignore.
            let _ = k.fcntl_setown(fd, Pid(owner));
        }
    }

    /// The rollback rule: the coordinator abandoned generation `cur_gen`
    /// while this manager awaited stage `s`. What must be undone depends on
    /// how far the protocol got:
    /// - in a restart (a peer died before every process was back), the
    ///   process is half restored — user threads never resumed, buffers
    ///   never refilled — and exits; the computation is restarted again
    ///   from a committed generation;
    /// - in a forked write's background wait the user threads already run:
    ///   the image simply never joins a committed generation;
    /// - after the drain and before the refill, the drained bytes are pushed
    ///   straight back into our own kernel receive buffers (the in-band
    ///   refill exchange cannot run, since peers may be dead), then the
    ///   user threads resume; at any other stage they just resume.
    fn rollback(&mut self, k: &mut Kernel<'_>, s: u8) -> Option<Step> {
        match s {
            stage::RESTORED | stage::RESTART_REFILLED => {
                k.obs().metrics.inc("core.restart.abandoned", self.cur_gen);
                return Some(Step::Exit(RESTART_ABANDONED));
            }
            stage::CKPT_WRITTEN => {
                k.obs().metrics.inc("core.ckpt.drain_aborts_seen", 0);
                self.phase = Phase::Idle;
                return None;
            }
            _ => {}
        }
        let gen = self.cur_gen;
        if s == stage::DRAINED || s == stage::CHECKPOINTED {
            for j in &self.jobs {
                Self::privileged_refill(k, j, "core.abort_reinject.bytes", gen);
            }
        }
        self.jobs.clear();
        self.restore_owners(k);
        // An aborted generation discards any in-flight forked write: end
        // the COW ledger and drop the snapshot (the half-written image is
        // never recorded, so restarts cannot pick it up). `abort` also
        // rolls the incremental baseline back — the consumed dirty set is
        // merged into the live address space so the next incremental
        // capture stays relative to the last *durable* image.
        if let Some(fw) = self.forked.take() {
            let pid = k.pid;
            let _ = fw.abort(k.w, pid);
            Self::journal(
                k,
                "drain.abort",
                &[("gen", gen), ("vpid", self.vpid as u64)],
            );
        }
        let pid = k.pid;
        k.w.resume_user_threads(k.sim, pid);
        k.obs().metrics.inc("core.ckpt.manager_aborts", 0);
        self.phase = Phase::Idle;
        None
    }

    /// Record this generation's Figure-1 stage breakdown into the metrics
    /// registry (histograms labeled by generation — Table 1a derives its
    /// means from these) and, when span capture is on, one complete span
    /// per stage on this process's track. Each timed step ends at its
    /// stage's release and starts at the release before it, or at the
    /// request.
    fn record_stats(&mut self, k: &mut Kernel<'_>) {
        let gen = self.cur_gen;
        let track = k.track();
        let obs = k.obs();
        let mut start = self.t_request;
        for s in stage::CHECKPOINT {
            let Some((metric, span)) = stage::step_names(s) else {
                continue;
            };
            let end = self.t_stage[s as usize];
            obs.metrics.observe(metric, gen, (end - start).0);
            obs.spans
                .complete(track, span, "ckpt", start, end, vec![("gen", gen)]);
            start = end;
        }
        let pid = k.pid;
        let h = hijack_of(k.w, pid).expect("traced");
        h.gen = self.cur_gen;
    }

    /// Stage `s` released: note when, and enter the stage after it in its
    /// table — or, after the last, finish the checkpoint or restart.
    fn advance(&mut self, k: &mut Kernel<'_>, s: u8) -> Option<Step> {
        self.t_stage[s as usize] = k.now();
        if let Some(next) = stage::next(s) {
            return self.enter(k, next);
        }
        if s == stage::RESTART_REFILLED {
            self.restart_resume(k);
        }
        self.phase = Phase::Idle;
        None
    }

    /// Start stage `s`'s work, in the step that released the stage before
    /// it. Returns the sleep that models the start's cost, if it has one.
    fn enter(&mut self, k: &mut Kernel<'_>, s: u8) -> Option<Step> {
        self.phase = Phase::Work(s);
        let pause = match s {
            stage::SUSPENDED => {
                self.do_suspend(k);
                // Model the cost of stopping threads via signals.
                Some(k.w.spec.suspend_overhead)
            }
            stage::DRAINED => {
                self.build_drain_jobs(k);
                // Per-socket drain overhead (handshakes, fcntl probes).
                let (d, n) = (k.w.spec.drain_overhead, self.jobs.len() as u64);
                (n > 0).then_some(Nanos(d.0 * n))
            }
            stage::CHECKPOINTED => {
                let resume_at = self.do_write(k);
                let now = k.now();
                (resume_at > now).then_some(resume_at - now)
            }
            stage::REFILLED => {
                self.build_refill_jobs(k);
                None
            }
            stage::CKPT_WRITTEN => {
                let pid = k.pid;
                k.w.resume_user_threads(k.sim, pid);
                self.record_stats(k);
                // With a forked write, perceived downtime ends here; the
                // overlapped drain phase continues behind the application.
                if self.forked.is_none() {
                    self.phase = Phase::Idle;
                }
                None
            }
            stage::RESTART_REFILLED => {
                // Every process of the computation exists again: rewire
                // the pid-virtualization map to the new real pids.
                let pid = k.pid;
                crate::restart::fixup_pid_map(k.w, pid);
                self.build_refill_jobs(k);
                None
            }
            _ => None,
        };
        pause.map(Step::Sleep)
    }

    /// Finish stage `s`'s work. `Ok` carries how long to sleep after
    /// reaching the barrier; `Err` the step to take first.
    fn work(&mut self, k: &mut Kernel<'_>, s: u8) -> Result<Nanos, Step> {
        match s {
            stage::ELECTED => self.do_elect(k),
            stage::DRAINED => {
                self.run_drain(k)?;
                self.finish_drain(k);
            }
            stage::CHECKPOINTED => return Ok(self.write_done(k)),
            stage::REFILLED => {
                self.run_refill(k)?;
                self.restore_owners(k);
            }
            stage::CKPT_WRITTEN => self.background_done(k)?,
            stage::RESTORED => {
                self.connect_coord(k)?;
                let pid = k.pid;
                self.cur_gen = hijack_of(k.w, pid).expect("restored process traced").gen;
            }
            stage::RESTART_REFILLED => self.run_refill(k)?,
            _ => {}
        }
        Ok(Nanos::ZERO)
    }

    /// The image is written: return the durability wait (§5.2) before the
    /// stage counts as done. `AfterCheckpoint` waits for this image's dirty
    /// bytes to hit the platter; `Previous` only for the previous
    /// generation's writeback, free unless the disk is badly behind. A
    /// forked image is not even written yet: no wait.
    fn write_done(&mut self, k: &mut Kernel<'_>) -> Nanos {
        if self.forked.is_some() {
            return Nanos::ZERO;
        }
        let pid = k.pid;
        let sync_mode = hijack_of(k.w, pid).map(|h| h.sync).unwrap_or_default();
        let now = k.now();
        let wait = match sync_mode {
            crate::launch::SyncMode::None => Nanos::ZERO,
            crate::launch::SyncMode::AfterCheckpoint => {
                let node = k.node();
                let done = k.w.nodes[node.0 as usize].disk.sync(now);
                done.saturating_sub(now)
            }
            // The previous generation finished writing a full interval
            // ago; its pages are almost always clean by now. Charge only a
            // syscall.
            crate::launch::SyncMode::Previous => Nanos::from_micros(300),
        };
        // In-line write: the image is durable here, so the drain barrier is
        // acked immediately — the coordinator holds its release until
        // REFILLED, and the two-phase protocol degenerates to the old
        // single-phase one.
        self.send_barrier(k, stage::CKPT_WRITTEN);
        wait
    }

    /// Forked mode: sleep until the COW child's compress+write pipeline
    /// drains; then close the dirty ledger and surface the image to the
    /// fault injector and the coordinator.
    fn background_done(&mut self, k: &mut Kernel<'_>) -> Result<(), Step> {
        let fw = self.forked.as_ref().expect("forked write in flight");
        let done_at = fw.report.image_complete_at;
        let now = k.now();
        if now < done_at {
            // (Re-)sleep the remainder; spurious wakes (late coordinator
            // retransmissions) land here too.
            return Err(Step::Sleep(done_at - now));
        }
        let fw = self.forked.take().expect("forked write in flight");
        let pid = k.pid;
        let (dirty_bytes, incremental) = (fw.report.captured_raw_bytes, fw.report.incremental);
        let stats = fw.finish(k.w, pid);
        let args = [
            ("gen", self.cur_gen),
            ("vpid", self.vpid as u64),
            ("dirty_bytes", dirty_bytes),
            ("incremental", incremental as u64),
        ];
        Self::journal(k, "drain.done", &args);
        let node = k.node();
        let host = k.hostname();
        let h = hijack_of(k.w, k.pid).expect("traced");
        let (root_port, name) = (h.root_port, h.image_name(self.cur_gen));
        faultkit::image_written(k.w, self.cur_gen, node, &name.to_string());
        record_image(k.w, root_port, host, name);
        let gen = self.cur_gen;
        let start = self.t_stage[stage::REFILLED as usize];
        let track = k.track();
        let obs = k.obs();
        obs.metrics
            .observe("core.stage.background", gen, (now - start).0);
        obs.spans.complete(
            track,
            "stage.background_write",
            "ckpt",
            start,
            now,
            vec![
                ("gen", gen),
                ("cow_copied_bytes", stats.copied_bytes),
                ("cow_copied_regions", stats.copied_regions),
            ],
        );
        Ok(())
    }

    /// The restart is done: resume the user threads and record the
    /// restart's refill sample.
    fn restart_resume(&mut self, k: &mut Kernel<'_>) {
        let pid = k.pid;
        k.w.resume_user_threads(k.sim, pid);
        let now = k.now();
        let refill = now - self.t_stage[stage::RESTORED as usize];
        let track = k.track();
        let gen = self.cur_gen;
        k.obs().spans.complete(
            track,
            "restart.refill",
            "restart",
            now - refill,
            now,
            vec![("gen", gen)],
        );
        let partial = {
            let h = hijack_of(k.w, pid).expect("traced");
            h.restarts += 1;
            h.restart_partial.take()
        };
        if let Some(partial) = partial {
            crate::restart::record_restart_sample(k.w, gen, partial, refill);
        }
    }
}

/// Write `buf[*off..]` to `fd` until all of it is out or the socket would
/// block. EPIPE — the peer can take no more — counts the rest as sent.
/// Returns the bytes written and whether EPIPE ended the send.
fn send(k: &mut Kernel<'_>, fd: Fd, buf: &[u8], off: &mut usize, what: &str) -> (usize, bool) {
    let mut sent = 0;
    while *off < buf.len() {
        match k.write(fd, &buf[*off..]) {
            Ok(n) => {
                *off += n;
                sent += n;
            }
            Err(Errno::WouldBlock) => break,
            Err(Errno::Pipe) => {
                *off = buf.len();
                return (sent, true);
            }
            Err(e) => panic!("{what}: {e:?}"),
        }
    }
    (sent, false)
}

/// A transfer round's outcome: done, or yield after progress, or block
/// (every job would block; wakers are registered).
fn step_result(all_done: bool, progressed: bool) -> Result<(), Step> {
    match (all_done, progressed) {
        (true, _) => Ok(()),
        (false, true) => Err(Step::Yield),
        (false, false) => Err(Step::Block),
    }
}

impl oskit::program::Program for Manager {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        loop {
            match self.phase {
                Phase::Connect => match self.connect_coord(k) {
                    Ok(()) => self.phase = Phase::Idle,
                    Err(step) => return step,
                },
                Phase::Idle => match self
                    .parked_request
                    .take()
                    .map_or_else(|| self.poll_coord(k), |gen| Ok(Some(Msg::CkptRequest(gen))))
                {
                    Ok(Some(Msg::CkptRequest(gen))) if gen > self.cur_gen => {
                        self.cur_gen = gen;
                        self.t_request = k.now();
                        self.phase = Phase::DelayGate;
                    }
                    // Stale retransmissions: a duplicate request for a
                    // generation we already ran (or saw aborted), a late
                    // release, or a late abort. All harmless.
                    Ok(Some(Msg::CkptRequest(_)))
                    | Ok(Some(Msg::BarrierRelease(..)))
                    | Ok(Some(Msg::CkptAbort(_))) => {}
                    Ok(Some(other)) => panic!("manager idle: unexpected {other:?}"),
                    Ok(None) => unreachable!(),
                    Err(()) => return Step::Block,
                },
                Phase::DelayGate => {
                    // dmtcpaware: honor delayed checkpoints around critical
                    // sections.
                    let pid = k.pid;
                    let delayed = hijack_of(k.w, pid)
                        .map(|h| h.aware.delay_depth > 0)
                        .unwrap_or(false);
                    if delayed {
                        return Step::Sleep(Nanos::from_millis(1));
                    }
                    if let Some(step) = self.enter(k, stage::SUSPENDED) {
                        return step;
                    }
                }
                Phase::Work(s) => match self.work(k, s) {
                    Ok(wait) => {
                        self.send_barrier(k, s);
                        self.phase = Phase::Await(s);
                        if wait > Nanos::ZERO {
                            return Step::Sleep(wait);
                        }
                    }
                    Err(step) => return step,
                },
                Phase::Await(s) => {
                    let next = match self.released(k, s) {
                        Verdict::Released => self.advance(k, s),
                        Verdict::Aborted => self.rollback(k, s),
                        Verdict::Blocked => Some(Step::Block),
                    };
                    if let Some(step) = next {
                        return step;
                    }
                }
            }
        }
    }

    fn tag(&self) -> &'static str {
        "dmtcp-manager"
    }

    fn save(&self) -> Vec<u8> {
        unreachable!("the manager thread is not captured in images (it is rebuilt at restart)")
    }
}
