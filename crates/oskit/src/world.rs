//! The world: nodes, object tables, scheduler, and lifecycle.
//!
//! `World` owns every kernel object; `Sim<World>` (aliased [`OsSim`]) drives
//! it. Threads are stepped by `dispatch` events; programs return a
//! `Step` value that tells the scheduler when to step them
//! next. Suspension (`MTCP`'s stage 2) is a per-process flag: a dispatch
//! that lands on a suspended user thread parks itself in the process's
//! resume queue, so no application code — and therefore no memory write —
//! can run while an image is being captured.

use crate::fdtable::{Fd, FdEntry, FdObject, ListenerId, OpenFile, OpenFileId};
use crate::fs::{Fs, SHARED_MOUNT};
use crate::kernel::{Errno, Kernel};
use crate::net::{Conn, ConnId, Listener, Waiter, Watch};
use crate::proc::{sig, ProcState, Process, SigAction, ThreadState};
use crate::program::{Program, Registry, Step, Tombstone};
use crate::pty::{Pty, PtyId};
use crate::spec::HwSpec;
use simkit::resource::{CachedDisk, CorePool, Pipe};
use simkit::rng::DetRng;
use simkit::{Nanos, Sim};
use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Node index within the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Process id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(pub u32);

/// Thread id (process-local).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tid(pub u32);

impl simkit::Snap for Pid {
    fn save(&self, w: &mut simkit::SnapWriter) {
        w.put_varint(self.0 as u64);
    }
    fn load(r: &mut simkit::SnapReader<'_>) -> Result<Self, simkit::SnapError> {
        Ok(Pid(
            u32::try_from(r.get_varint()?).map_err(|_| simkit::SnapError::Eof)?
        ))
    }
}

impl simkit::Snap for NodeId {
    fn save(&self, w: &mut simkit::SnapWriter) {
        w.put_varint(self.0 as u64);
    }
    fn load(r: &mut simkit::SnapReader<'_>) -> Result<Self, simkit::SnapError> {
        Ok(NodeId(
            u32::try_from(r.get_varint()?).map_err(|_| simkit::SnapError::Eof)?,
        ))
    }
}

/// The simulator type driving a [`World`].
pub type OsSim = Sim<World>;

/// Scheduler quantum between `Yield` steps.
pub const QUANTUM: Nanos = Nanos(1_000); // 1 µs

/// One cluster node.
pub struct Node {
    /// Id.
    pub id: NodeId,
    /// Hostname (`node00`, `node01`, …).
    pub hostname: String,
    /// CPU cores (charged for compute and compression).
    pub cpu: CorePool,
    /// Local disk behind a page cache.
    pub disk: CachedDisk,
    /// NIC transmit path.
    pub nic_tx: Pipe,
    /// Local filesystem.
    pub fs: Fs,
    next_port: u16,
}

/// Hook invoked on every process creation — the checkpoint layer installs
/// one to propagate its injection across `fork`/`exec`/`ssh`, exactly as
/// `LD_PRELOAD` + the exec/ssh wrappers do for real DMTCP. The hook may
/// re-key the process to a different pid (the conflict-detecting fork
/// wrapper of §4.5) and must return the pid the process ended up with.
pub type SpawnHook = Rc<dyn Fn(&mut World, &mut OsSim, Pid) -> Pid>;

/// Hook invoked when a process exits, after its address space is gone — the
/// checkpoint layer keeps world-side state about a process's memory (its
/// incremental baseline) and drops it here.
pub type ExitHook = Rc<dyn Fn(&mut World, Pid)>;

/// A network transmission about to be scheduled, as seen by a fault hook.
/// Borrowed snapshot only — the hook cannot touch the world, which keeps
/// the interposition point re-entrancy-free.
pub struct NetPacket<'a> {
    /// Connection carrying the bytes.
    pub cid: ConnId,
    /// Sending end (0 or 1).
    pub end: usize,
    /// Payload being transmitted.
    pub bytes: &'a [u8],
    /// Virtual time of the send.
    pub now: Nanos,
    /// Arrival time the kernel computed (NIC + latency).
    pub arrival: Nanos,
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
}

/// Verdict a network fault hook returns for one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// Deliver normally at the computed arrival time.
    Deliver,
    /// Deliver, but no earlier than the given instant (delay / reorder /
    /// partition faults). Clamped to `max(arrival, now)`.
    DeliverAt(Nanos),
    /// Silently lose the packet (the bytes were consumed from the sender's
    /// buffer, exactly like a lost TCP segment before the ack).
    Drop,
}

/// Hook consulted on every [`World::conn_transmit`] call. Installed by
/// fault-injection layers (see `crates/faultkit`); `None` means the network
/// is perfectly reliable, which is the default.
pub type NetFaultHook = Box<dyn FnMut(&NetPacket<'_>) -> NetFault>;

/// Hook consulted when a checkpoint image blob is about to be committed to
/// the filesystem. May mutate the blob (truncate, flip bits) to model a
/// torn write; returns `true` if it injected a fault.
pub type ImageFaultHook = Box<dyn FnMut(&str, &mut crate::fs::Blob) -> bool>;

/// The simulated cluster.
pub struct World {
    /// Hardware calibration.
    pub spec: HwSpec,
    /// Nodes.
    pub nodes: Vec<Node>,
    /// Live and zombie processes.
    pub procs: BTreeMap<Pid, Process>,
    /// Connections.
    pub conns: BTreeMap<ConnId, Conn>,
    /// Listening sockets.
    pub listeners: BTreeMap<ListenerId, Listener>,
    /// Pseudo-terminals.
    pub ptys: BTreeMap<PtyId, Pty>,
    /// System open-file table.
    pub open_files: BTreeMap<OpenFileId, OpenFile>,
    /// Cluster-shared filesystem mounted at [`SHARED_MOUNT`].
    pub shared_fs: Fs,
    /// SAN fabric shared by the first `spec.san_nodes` nodes.
    pub san: Pipe,
    /// NFS server used by the remaining nodes for shared storage.
    pub nfs: Pipe,
    /// Shared-memory segments keyed by (node, backing path): live bytes
    /// aliased by every mapper on that node.
    pub shm_segs: BTreeMap<(NodeId, String), Rc<RefCell<Vec<u8>>>>,
    /// Program registry (the "executables on disk").
    pub registry: Registry,
    /// Observability layer: virtual-time spans and a metrics registry.
    /// Metrics are always recorded; span capture is opt-in
    /// (`obs.spans.set_enabled(true)`).
    pub obs: obs::Obs,
    /// World-level deterministic RNG.
    pub rng: DetRng,
    /// Process-creation hook (checkpoint-layer injection).
    pub spawn_hook: Option<SpawnHook>,
    /// Process-exit hook (see [`ExitHook`]).
    pub exit_hook: Option<ExitHook>,
    /// Network fault-injection hook (see [`NetFaultHook`]).
    pub net_fault: Option<NetFaultHook>,
    /// Checkpoint-image fault-injection hook (see [`ImageFaultHook`]).
    pub image_fault: Option<ImageFaultHook>,
    /// World-shared state of the layers built on top of the kernel, one
    /// value per Rust type (see [`World::ext`]). Opaque to oskit, and never
    /// iterated, so `TypeId` order cannot leak into behaviour.
    exts: BTreeMap<TypeId, Box<dyn Any>>,
    next_pid: u32,
    next_conn: u64,
    next_listener: u64,
    next_pty: u32,
    next_open_file: u64,
}

impl World {
    /// A cluster of `node_count` nodes with the given hardware and programs.
    pub fn new(spec: HwSpec, node_count: usize, registry: Registry) -> Self {
        let nodes = (0..node_count)
            .map(|i| Node {
                id: NodeId(i as u32),
                hostname: format!("node{i:02}"),
                cpu: CorePool::new(spec.cores_per_node),
                disk: CachedDisk::new(
                    spec.disk_cache_bps,
                    spec.disk_platter_bps,
                    spec.disk_cache_window.min(spec.ram_bytes / 2),
                ),
                nic_tx: Pipe::new(spec.nic_bps),
                fs: Fs::new(),
                next_port: 20_000,
            })
            .collect();
        World {
            san: Pipe::new(spec.san_bps),
            nfs: Pipe::with_overhead(spec.nfs_bps, spec.nfs_overhead),
            spec,
            nodes,
            procs: BTreeMap::new(),
            conns: BTreeMap::new(),
            listeners: BTreeMap::new(),
            ptys: BTreeMap::new(),
            open_files: BTreeMap::new(),
            shared_fs: Fs::new(),
            shm_segs: BTreeMap::new(),
            registry,
            obs: obs::Obs::new(),
            rng: DetRng::seed_from_u64(0xD317C9),
            spawn_hook: None,
            exit_hook: None,
            net_fault: None,
            image_fault: None,
            exts: BTreeMap::new(),
            next_pid: 2,
            next_conn: 1,
            next_listener: 1,
            next_pty: 0,
            next_open_file: 1,
        }
    }

    /// The world's one `T`, created from `T::default()` on first use. Each
    /// layer keeps its world-shared state in a type of its own (per-port or
    /// per-node state as a map inside that type).
    pub fn ext<T: Default + 'static>(&mut self) -> &mut T {
        self.exts
            .entry(TypeId::of::<T>())
            .or_insert_with(|| Box::new(T::default()))
            .downcast_mut()
            .expect("exts is keyed by the value's own TypeId")
    }

    /// The world's `T` if [`World::ext`] ever created one; never inserts.
    pub fn ext_ref<T: 'static>(&self) -> Option<&T> {
        self.exts.get(&TypeId::of::<T>())?.downcast_ref()
    }

    /// Take the world's `T` out; the next [`World::ext`] starts from the
    /// default again.
    pub fn ext_remove<T: 'static>(&mut self) -> Option<T> {
        let boxed = self.exts.remove(&TypeId::of::<T>())?;
        boxed.downcast().ok().map(|b| *b)
    }

    /// The main-thread program of live process `pid`, if it is a `T`. A
    /// layer reads its own daemon's state here, where it lives, instead of
    /// mirroring it into an extension. `None` while that thread is being
    /// stepped (the program is out of the table for the step).
    pub fn program<T: Program>(&self, pid: Pid) -> Option<&T> {
        let p = self.procs.get(&pid).filter(|p| p.alive())?;
        let prog: &dyn Any = p.threads.first()?.program.as_ref();
        prog.downcast_ref()
    }

    /// Resolve a hostname to a node.
    pub fn resolve(&self, host: &str) -> Option<NodeId> {
        self.nodes.iter().find(|n| n.hostname == host).map(|n| n.id)
    }

    /// Ports with a live listening socket bound on `node`. Re-binding an
    /// address on a target node (restart onto a different topology, live
    /// migration) must avoid these, exactly as a real `bind` would fail
    /// with `EADDRINUSE`.
    pub fn ports_in_use(&self, node: NodeId) -> std::collections::BTreeSet<u16> {
        self.listeners
            .values()
            .filter(|l| l.node == node)
            .map(|l| l.port)
            .collect()
    }

    /// Live processes hosted on `node`, in pid order.
    pub fn procs_on(&self, node: NodeId) -> Vec<Pid> {
        self.procs
            .values()
            .filter(|p| p.alive() && p.node == node)
            .map(|p| p.pid)
            .collect()
    }

    /// Borrow a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Mutably borrow a node.
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.0 as usize]
    }

    /// Allocate a pid with wraparound (so pid reuse — and therefore DMTCP's
    /// virtual-pid conflicts — genuinely occur).
    pub fn alloc_pid(&mut self) -> Pid {
        // Bound the scan to one full lap: a table with no free pid must fail
        // loudly (the kernel's fork would return EAGAIN), not spin forever.
        for _ in 0..self.spec.pid_max {
            let candidate = self.next_pid;
            self.next_pid += 1;
            if self.next_pid >= self.spec.pid_max {
                self.next_pid = 2;
            }
            if !self.procs.contains_key(&Pid(candidate)) {
                return Pid(candidate);
            }
        }
        panic!(
            "pid table full: {} live processes, pid_max {}",
            self.procs.len(),
            self.spec.pid_max
        );
    }

    /// Allocate an ephemeral port on `node`.
    pub fn alloc_port(&mut self, node: NodeId) -> u16 {
        let n = self.node_mut(node);
        let p = n.next_port;
        n.next_port += 1;
        p
    }

    // ------------------------------------------------------------------
    // Process lifecycle
    // ------------------------------------------------------------------

    /// Create a process on `node` running `prog`; schedules its first step.
    pub fn spawn(
        &mut self,
        sim: &mut OsSim,
        node: NodeId,
        cmd: impl Into<String>,
        prog: Box<dyn Program>,
        ppid: Pid,
        env: BTreeMap<String, String>,
    ) -> Pid {
        let pid = self.alloc_pid();
        let mut p = Process::new(pid, ppid, node, cmd.into(), prog);
        p.env = env;
        self.procs.insert(pid, p);
        let pid = self.run_spawn_hook(sim, pid);
        self.obs_note_process(pid);
        self.schedule_dispatch(sim, pid, Tid(0));
        pid
    }

    /// (Re-)register a process's display name with the observability layer,
    /// keyed by (node, virtual pid) — the identity Perfetto tracks use.
    pub fn obs_note_process(&mut self, pid: Pid) {
        let Some(p) = self.procs.get(&pid) else {
            return;
        };
        let vpid = p.virt_pid.unwrap_or(p.pid.0);
        let name = format!("{} {}", self.nodes[p.node.0 as usize].hostname, p.cmd);
        self.obs.set_process_name(p.node.0, vpid, name);
    }

    /// Invoke the checkpoint layer's injection hook for a new process;
    /// returns the (possibly re-keyed) pid.
    pub fn run_spawn_hook(&mut self, sim: &mut OsSim, pid: Pid) -> Pid {
        if let Some(hook) = self.spawn_hook.clone() {
            hook(self, sim, pid)
        } else {
            pid
        }
    }

    /// Move a process to a fresh pid (used by the fork wrapper when the
    /// kernel-assigned pid collides with a live virtual pid). Must be
    /// called before the process's first dispatch.
    pub fn rekey_pid(&mut self, old: Pid) -> Pid {
        let new = self.alloc_pid();
        let mut p = self.procs.remove(&old).expect("rekey of unknown pid");
        assert!(
            p.threads.iter().all(|t| !t.dispatch_pending),
            "rekey after dispatch was scheduled"
        );
        p.pid = new;
        self.procs.insert(new, p);
        new
    }

    /// Fork `parent`: COW address space, inherited fd table (with reference
    /// counts bumped), single thread continuing from `child_main`.
    pub fn fork_process(
        &mut self,
        sim: &mut OsSim,
        parent: Pid,
        child_main: Box<dyn Program>,
    ) -> Pid {
        let pid = self.alloc_pid();
        let (node, mem, fd_entries, env, ctty, pid_map) = {
            let p = self.procs.get(&parent).expect("fork of dead process");
            (
                p.node,
                p.mem.fork_cow(),
                p.fds.clone_entries(),
                p.env.clone(),
                p.ctty,
                p.pid_map.clone(),
            )
        };
        let mut child = Process::new(
            pid,
            parent,
            node,
            {
                let p = &self.procs[&parent];
                p.cmd.clone()
            },
            child_main,
        );
        child.mem = mem;
        child.env = env;
        child.ctty = ctty;
        child.pid_map = pid_map;
        child.threads[0].fork_ret = Some(0);
        for (fd, entry) in fd_entries {
            child.fds.install_at(fd, entry);
            self.retain_obj(entry.obj);
        }
        self.procs.insert(pid, child);
        let pid = self.run_spawn_hook(sim, pid);
        self.obs_note_process(pid);
        self.schedule_dispatch(sim, pid, Tid(0));
        pid
    }

    /// Terminate a whole process: mark threads exited, release every fd and
    /// the address space, turn it into a zombie, wake `waitpid` waiters,
    /// signal the parent. A zombie is an exit status waiting to be reaped,
    /// not memory: whoever never reaps (pid 1) must not pin the image.
    pub fn exit_process(&mut self, sim: &mut OsSim, pid: Pid, code: i32) {
        let Some(p) = self.procs.get_mut(&pid) else {
            return;
        };
        if !p.alive() {
            return;
        }
        for t in &mut p.threads {
            t.state = ThreadState::Exited;
        }
        p.state = ProcState::Zombie(code);
        p.mem = crate::mem::AddressSpace::new();
        let ppid = p.ppid;
        let waiters = std::mem::take(&mut p.wait_waiters);
        let fds: Vec<FdEntry> = p.fds.clone_entries().iter().map(|(_, e)| *e).collect();
        let ctty = p.ctty.take();
        for e in fds {
            self.release_obj(sim, e.obj);
        }
        if let Some(hook) = self.exit_hook.clone() {
            hook(self, pid);
        }
        if let Some(pty_id) = ctty {
            if let Some(pty) = self.ptys.get_mut(&pty_id) {
                if pty.controlling_pid == Some(pid) {
                    pty.controlling_pid = None;
                }
            }
        }
        self.wake_all(sim, waiters);
        self.signal(sim, ppid, sig::SIGCHLD);
    }

    /// Destroy a process record entirely (post-reap, or kill -9 of a whole
    /// computation when simulating failure).
    pub fn reap(&mut self, pid: Pid) -> Option<i32> {
        let p = self.procs.get(&pid)?;
        if let ProcState::Zombie(code) = p.state {
            self.procs.remove(&pid);
            Some(code)
        } else {
            None
        }
    }

    /// Deliver a signal.
    pub fn signal(&mut self, sim: &mut OsSim, pid: Pid, signum: u8) {
        let Some(p) = self.procs.get_mut(&pid) else {
            return;
        };
        if !p.alive() {
            return;
        }
        let action = p
            .sig_actions
            .get(&signum)
            .copied()
            .unwrap_or(SigAction::Default);
        match (signum, action) {
            (sig::SIGKILL, _) => self.exit_process(sim, pid, 137),
            (sig::SIGTERM, SigAction::Default) => self.exit_process(sim, pid, 143),
            (_, SigAction::Handler) => {
                p.pending_signals.push_back(signum);
                // Kick the main thread so the handler runs promptly.
                let tid = p.threads[0].tid;
                if p.threads[0].state == ThreadState::Blocked {
                    self.wake(sim, (pid, tid));
                } else {
                    self.schedule_dispatch(sim, pid, tid);
                }
            }
            _ => {} // Default-ignore for everything else in this model.
        }
    }

    // ------------------------------------------------------------------
    // Scheduler
    // ------------------------------------------------------------------

    /// Queue a dispatch event for `(pid, tid)` at the current time.
    pub fn schedule_dispatch(&mut self, sim: &mut OsSim, pid: Pid, tid: Tid) {
        self.schedule_dispatch_at(sim, pid, tid, sim.now());
    }

    /// Queue a dispatch event at an absolute time.
    pub fn schedule_dispatch_at(&mut self, sim: &mut OsSim, pid: Pid, tid: Tid, at: Nanos) {
        let Some(p) = self.procs.get_mut(&pid) else {
            return;
        };
        let Some(t) = p.thread_mut(tid) else {
            return;
        };
        if t.dispatch_pending || t.state == ThreadState::Exited {
            return;
        }
        t.dispatch_pending = true;
        let at = at.max(t.stalled_until);
        // Keyed fast path: the dispatcher fires once per quantum per
        // runnable thread, so boxing a closure here would be the single
        // hottest allocation in the whole simulation.
        sim.at_keyed(at, ((pid.0 as u64) << 32) | tid.0 as u64, dispatch_keyed);
    }

    /// Wake one blocked thread (or ensure a runnable one gets stepped).
    pub fn wake(&mut self, sim: &mut OsSim, who: (Pid, Tid)) {
        let (pid, tid) = who;
        let Some(p) = self.procs.get_mut(&pid) else {
            return;
        };
        let Some(t) = p.thread_mut(tid) else {
            return;
        };
        if t.state == ThreadState::Blocked {
            t.state = ThreadState::Runnable;
        }
        self.schedule_dispatch(sim, pid, tid);
    }

    /// Wake a list of waiters.
    pub fn wake_all(&mut self, sim: &mut OsSim, waiters: Vec<Waiter>) {
        for who in waiters {
            self.wake(sim, who);
        }
    }

    /// An object became readable: wake its blocked `waiters`, and post the
    /// watcher's token to its thread's ready set. Every transition after
    /// which `read`/`accept` stops returning `WouldBlock` ends here.
    ///
    /// The watcher is edge-triggered: it wakes its thread only when the
    /// token *newly* enters the ready set. Until `take_ready` drains the
    /// set again, further readiness of the same object is already reported
    /// and wakes nobody — exactly like a blocked reader's one-shot waiter,
    /// which the first delivery consumes and only the next `WouldBlock`
    /// read registers again.
    pub fn notify(&mut self, sim: &mut OsSim, waiters: Vec<Waiter>, watch: Option<Watch>) {
        self.wake_all(sim, waiters);
        if let Some(Watch { who, token }) = watch {
            let thread = self
                .procs
                .get_mut(&who.0)
                .filter(|p| p.alive())
                .and_then(|p| p.thread_mut(who.1));
            if thread.is_some_and(|t| t.ready.insert(token)) {
                self.wake(sim, who);
            }
        }
    }

    /// Watch `fd` of process `who.0` for read readiness on behalf of its
    /// thread `who.1` (see [`Kernel::watch_read`], which is this call for
    /// the calling thread). The one place a watcher is armed: the process's
    /// own step, or the checkpoint layer re-arming a restored process.
    pub fn watch_read(&mut self, who: Waiter, fd: Fd, token: u64) -> Result<(), Errno> {
        let obj = self
            .procs
            .get(&who.0)
            .and_then(|p| p.fds.get(fd))
            .ok_or(Errno::BadFd)?
            .obj;
        let watch = Watch { who, token };
        let ready_now = match obj {
            FdObject::Sock(cid, end) => {
                let conn = self.conns.get_mut(&cid).ok_or(Errno::BadFd)?;
                conn.watchers[end as usize] = Some(watch);
                conn.readable(end as usize)
            }
            FdObject::Listener(lid) => {
                let l = self.listeners.get_mut(&lid).ok_or(Errno::BadFd)?;
                l.watcher = Some(watch);
                !l.backlog.is_empty()
            }
            _ => return Err(Errno::NotSock),
        };
        if ready_now {
            if let Some(t) = self.procs.get_mut(&who.0).and_then(|p| p.thread_mut(who.1)) {
                t.ready.insert(token);
            }
        }
        Ok(())
    }

    /// The ends `pid`'s own threads watch, as `(fd, watch)` in fd order:
    /// one entry per watched object (an object reachable through several
    /// fds is listed under the lowest).
    pub fn watched_ends(&self, pid: Pid) -> Vec<(Fd, Watch)> {
        let Some(p) = self.procs.get(&pid) else {
            return Vec::new();
        };
        let mut seen = Vec::new();
        let mut out = Vec::new();
        for (fd, e) in p.fds.iter() {
            let watch = match e.obj {
                FdObject::Sock(cid, end) => {
                    self.conns.get(&cid).and_then(|c| c.watchers[end as usize])
                }
                FdObject::Listener(lid) => self.listeners.get(&lid).and_then(|l| l.watcher),
                _ => None,
            };
            if let Some(watch) = watch.filter(|w| w.who.0 == pid) {
                if !seen.contains(&e.obj) {
                    seen.push(e.obj);
                    out.push((fd, watch));
                }
            }
        }
        out
    }

    /// Freeze user threads of `pid` (checkpoint stage 2). Manager threads
    /// (`user == false`) keep running.
    pub fn suspend_user_threads(&mut self, _sim: &mut OsSim, pid: Pid) {
        if let Some(p) = self.procs.get_mut(&pid) {
            p.user_suspended = true;
        }
    }

    /// Thaw user threads (checkpoint stage 7 / restart stage 7).
    pub fn resume_user_threads(&mut self, sim: &mut OsSim, pid: Pid) {
        let Some(p) = self.procs.get_mut(&pid) else {
            return;
        };
        p.user_suspended = false;
        let to_run: Vec<Tid> = p
            .threads
            .iter()
            .filter(|t| t.user && t.state == ThreadState::Runnable && !t.dispatch_pending)
            .map(|t| t.tid)
            .collect();
        for tid in to_run {
            self.schedule_dispatch(sim, pid, tid);
        }
    }

    // ------------------------------------------------------------------
    // Object reference counting
    // ------------------------------------------------------------------

    /// Bump the reference count behind an fd entry (dup/fork inheritance).
    pub fn retain_obj(&mut self, obj: FdObject) {
        match obj {
            FdObject::File(id) => {
                self.open_files
                    .get_mut(&id)
                    .expect("dangling file ref")
                    .refs += 1;
            }
            FdObject::Sock(cid, end) => {
                self.conns
                    .get_mut(&cid)
                    .expect("dangling conn ref")
                    .end_refs[end as usize] += 1;
            }
            FdObject::Listener(lid) => {
                self.listeners
                    .get_mut(&lid)
                    .expect("dangling listener ref")
                    .refs += 1;
            }
            FdObject::PtyMaster(pid) => {
                self.ptys
                    .get_mut(&pid)
                    .expect("dangling pty ref")
                    .master_refs += 1;
            }
            FdObject::PtySlave(pid) => {
                self.ptys
                    .get_mut(&pid)
                    .expect("dangling pty ref")
                    .slave_refs += 1;
            }
        }
    }

    /// Drop one reference; performs close semantics when it hits zero
    /// (EOF to socket peers, listener teardown, pty side closure).
    pub fn release_obj(&mut self, sim: &mut OsSim, obj: FdObject) {
        match obj {
            FdObject::File(id) => {
                let f = self.open_files.get_mut(&id).expect("dangling file ref");
                f.refs -= 1;
                if f.refs == 0 {
                    self.open_files.remove(&id);
                }
            }
            FdObject::Sock(cid, end) => {
                let c = self.conns.get_mut(&cid).expect("dangling conn ref");
                let e = end as usize;
                c.end_refs[e] -= 1;
                if c.end_refs[e] == 0 {
                    c.closed[e] = true;
                    c.watchers[e] = None;
                    // Readers of the direction *from* this end see EOF once
                    // buffered bytes run out; wake them to observe it.
                    let (readers, watch) = c.read_interest(Conn::peer(e));
                    // Writers toward this end will now get EPIPE.
                    let writers = std::mem::take(&mut c.dirs[Conn::peer(e)].write_waiters);
                    let gone = c.closed[0] && c.closed[1];
                    if gone {
                        self.conns.remove(&cid);
                    }
                    self.notify(sim, readers, watch);
                    self.wake_all(sim, writers);
                }
            }
            FdObject::Listener(lid) => {
                let l = self.listeners.get_mut(&lid).expect("dangling listener ref");
                l.refs -= 1;
                if l.refs == 0 {
                    let waiters = std::mem::take(&mut l.accept_waiters);
                    self.listeners.remove(&lid);
                    self.wake_all(sim, waiters);
                }
            }
            FdObject::PtyMaster(ptid) => {
                let p = self.ptys.get_mut(&ptid).expect("dangling pty ref");
                p.master_refs -= 1;
                if p.master_refs == 0 {
                    let waiters = std::mem::take(&mut p.slave_read_waiters);
                    self.wake_all(sim, waiters);
                }
                self.gc_pty(ptid);
            }
            FdObject::PtySlave(ptid) => {
                let p = self.ptys.get_mut(&ptid).expect("dangling pty ref");
                p.slave_refs -= 1;
                if p.slave_refs == 0 {
                    let waiters = std::mem::take(&mut p.master_read_waiters);
                    self.wake_all(sim, waiters);
                }
                self.gc_pty(ptid);
            }
        }
    }

    fn gc_pty(&mut self, id: PtyId) {
        if let Some(p) = self.ptys.get(&id) {
            if p.master_refs == 0 && p.slave_refs == 0 {
                self.ptys.remove(&id);
            }
        }
    }

    // ------------------------------------------------------------------
    // Allocation of kernel objects
    // ------------------------------------------------------------------

    /// Next connection id.
    pub fn alloc_conn_id(&mut self) -> ConnId {
        let id = ConnId(self.next_conn);
        self.next_conn += 1;
        id
    }

    /// Next listener id.
    pub fn alloc_listener_id(&mut self) -> ListenerId {
        let id = ListenerId(self.next_listener);
        self.next_listener += 1;
        id
    }

    /// Next pty id.
    pub fn alloc_pty_id(&mut self) -> PtyId {
        let id = PtyId(self.next_pty);
        self.next_pty += 1;
        id
    }

    /// Next open-file id.
    pub fn alloc_open_file_id(&mut self) -> OpenFileId {
        let id = OpenFileId(self.next_open_file);
        self.next_open_file += 1;
        id
    }

    // ------------------------------------------------------------------
    // Data movement
    // ------------------------------------------------------------------

    /// Move `bytes` from end `e` of `conn` toward the peer: accounts
    /// in-flight data, charges the NIC, and schedules the delivery event.
    /// The caller has already verified there is room.
    pub fn conn_transmit(&mut self, sim: &mut OsSim, cid: ConnId, e: usize, bytes: Vec<u8>) {
        let now = sim.now();
        let n = bytes.len() as u64;
        let (mut arrival, cross) = {
            let conn = self.conns.get(&cid).expect("transmit on dead conn");
            let cross = conn.cross_node();
            let src = conn.node[e];
            let t = if cross {
                let done = self.nodes[src.0 as usize].nic_tx.transfer(now, n);
                done + self.spec.net_latency
            } else {
                now + Nanos::from_secs_f64(n as f64 / self.spec.loopback_bps)
                    + Nanos::from_micros(5)
            };
            (t, cross)
        };
        let natural_arrival = arrival;
        let mut dropped = false;
        if let Some(mut hook) = self.net_fault.take() {
            let verdict = {
                let conn = self.conns.get(&cid).expect("transmit on dead conn");
                let pkt = NetPacket {
                    cid,
                    end: e,
                    bytes: &bytes,
                    now,
                    arrival,
                    src: conn.node[e],
                    dst: conn.node[Conn::peer(e)],
                };
                hook(&pkt)
            };
            self.net_fault = Some(hook);
            match verdict {
                NetFault::Deliver => {}
                NetFault::DeliverAt(t) => arrival = arrival.max(t).max(now),
                NetFault::Drop => dropped = true,
            }
        }
        // Flight-recorder taps: one msg.send per transmit, a fault event
        // when the hook altered its fate, and (in the delivery closure
        // below) a msg.deliver caused by the send — the happens-before
        // edge replay divergence checking leans on.
        let mut send_id = None;
        if self.obs.journal.is_enabled() {
            let conn = self.conns.get(&cid).expect("transmit on dead conn");
            let nums = [
                ("conn", cid.0),
                ("end", e as u64),
                ("bytes", n),
                ("src", conn.node[e].0 as u64),
                ("dst", conn.node[Conn::peer(e)].0 as u64),
            ];
            if self.obs.journal.wants(obs::journal::CLASS_NET) {
                let tag = self.obs.journal.tag_bytes(&bytes);
                send_id = self.obs.journal.record(
                    now,
                    obs::journal::CLASS_NET,
                    "msg.send",
                    None,
                    &nums,
                    tag,
                );
            }
            if dropped {
                self.obs.journal.record(
                    now,
                    obs::journal::CLASS_FAULT,
                    "fault.net.drop",
                    send_id,
                    &nums,
                    "",
                );
            } else if arrival > natural_arrival {
                self.obs.journal.record(
                    now,
                    obs::journal::CLASS_FAULT,
                    "fault.net.delay",
                    send_id,
                    &[
                        ("conn", cid.0),
                        ("end", e as u64),
                        ("bytes", n),
                        ("delay_ns", arrival.0 - natural_arrival.0),
                    ],
                    "",
                );
            }
        }
        let conn = self.conns.get_mut(&cid).expect("transmit on dead conn");
        conn.dirs[e].in_flight += n;
        conn.dirs[e].tx_total += n;
        self.obs.metrics.add("oskit.net.tx_bytes", 0, n);
        let _ = cross;
        if dropped {
            self.obs.metrics.add("oskit.net.fault_dropped_bytes", 0, n);
            // The sender's bytes are gone (consumed from its buffer, like a
            // segment lost before the ack); only the in-flight accounting
            // unwinds at what would have been the arrival instant.
            sim.at(arrival, move |w: &mut World, sim| {
                let Some(conn) = w.conns.get_mut(&cid) else {
                    return;
                };
                conn.dirs[e].in_flight -= n;
                // If this end already closed, the lost segment was the last
                // thing keeping the peer's read from returning EOF.
                if conn.at_eof(Conn::peer(e)) {
                    let (readers, watch) = conn.read_interest(Conn::peer(e));
                    w.notify(sim, readers, watch);
                }
            });
            return;
        }
        sim.at(arrival, move |w: &mut World, sim| {
            let Some(conn) = w.conns.get_mut(&cid) else {
                return; // both ends closed mid-flight
            };
            let n = bytes.len() as u64;
            conn.dirs[e].in_flight -= n;
            conn.dirs[e].rx_total += n;
            conn.dirs[e].recv_buf.extend(&bytes);
            if let Some(sid) = send_id {
                w.obs.journal.record(
                    sim.now(),
                    obs::journal::CLASS_NET,
                    "msg.deliver",
                    Some(sid),
                    &[("conn", cid.0), ("end", e as u64), ("bytes", n)],
                    "",
                );
            }
            let (readers, watch) = conn.read_interest(Conn::peer(e));
            w.notify(sim, readers, watch);
        });
    }

    /// Give the installed image fault hook (if any) a chance to corrupt a
    /// checkpoint image blob before it is committed to the filesystem.
    /// `now` is the virtual time of the write (journaled when a fault
    /// fires). Returns `true` if a fault was injected.
    pub fn apply_image_fault(
        &mut self,
        now: Nanos,
        path: &str,
        blob: &mut crate::fs::Blob,
    ) -> bool {
        let Some(mut hook) = self.image_fault.take() else {
            return false;
        };
        let hit = hook(path, blob);
        self.image_fault = Some(hook);
        if hit {
            self.obs.metrics.inc("oskit.fs.image_fault", 0);
            self.obs.journal.record(
                now,
                obs::journal::CLASS_FAULT,
                "fault.image",
                None,
                &[("bytes", blob.len())],
                path,
            );
        }
        hit
    }

    /// Charge a write of `bytes` to storage serving `path` on `node`;
    /// returns the completion time. `/shared/...` routes to the SAN for
    /// SAN-attached nodes and to the NFS server (plus the sender NIC) for
    /// the rest; anything else is the node-local cached disk.
    pub fn charge_storage_write(
        &mut self,
        now: Nanos,
        node: NodeId,
        path: &str,
        bytes: u64,
    ) -> Nanos {
        self.obs
            .metrics
            .add("oskit.storage.write_bytes", node.0 as u64, bytes);
        if path.starts_with(SHARED_MOUNT) {
            if (node.0 as usize) < self.spec.san_nodes {
                self.san.transfer(now, bytes)
            } else {
                let t = self.nodes[node.0 as usize].nic_tx.transfer(now, bytes);
                self.nfs.transfer(t, bytes)
            }
        } else {
            self.nodes[node.0 as usize].disk.write(now, bytes)
        }
    }

    /// Charge a read; same routing as writes.
    pub fn charge_storage_read(
        &mut self,
        now: Nanos,
        node: NodeId,
        path: &str,
        bytes: u64,
    ) -> Nanos {
        self.obs
            .metrics
            .add("oskit.storage.read_bytes", node.0 as u64, bytes);
        if path.starts_with(SHARED_MOUNT) {
            if (node.0 as usize) < self.spec.san_nodes {
                self.san.transfer(now, bytes)
            } else {
                let t = self.nfs.transfer(now, bytes);
                self.nodes[node.0 as usize].nic_tx.transfer(t, bytes)
            }
        } else {
            self.nodes[node.0 as usize].disk.read(now, bytes)
        }
    }

    /// The filesystem serving `path` for `node`.
    pub fn fs_for(&self, node: NodeId, path: &str) -> &Fs {
        if path.starts_with(SHARED_MOUNT) {
            &self.shared_fs
        } else {
            &self.nodes[node.0 as usize].fs
        }
    }

    /// Mutable access to the filesystem serving `path` for `node`.
    pub fn fs_for_mut(&mut self, node: NodeId, path: &str) -> &mut Fs {
        if path.starts_with(SHARED_MOUNT) {
            &mut self.shared_fs
        } else {
            &mut self.nodes[node.0 as usize].fs
        }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// `/proc/<pid>/maps`-style rendering.
    pub fn proc_maps(&self, pid: Pid) -> Option<String> {
        let p = self.procs.get(&pid)?;
        let mut out = String::new();
        for (_, r) in p.mem.iter() {
            use std::fmt::Write;
            let prot = format!(
                "{}{}{}",
                if r.prot & crate::mem::PROT_R != 0 {
                    "r"
                } else {
                    "-"
                },
                if r.prot & crate::mem::PROT_W != 0 {
                    "w"
                } else {
                    "-"
                },
                if r.prot & crate::mem::PROT_X != 0 {
                    "x"
                } else {
                    "-"
                },
            );
            writeln!(
                out,
                "{:012x}-{:012x} {prot} {}",
                r.start,
                r.start + r.len(),
                r.name
            )
            .expect("write to string");
        }
        Some(out)
    }

    /// Count of live (running) processes.
    pub fn live_procs(&self) -> usize {
        self.procs.values().filter(|p| p.alive()).count()
    }
}

/// [`dispatch`] behind a packed `(pid, tid)` key, shaped for
/// [`Sim::at_keyed`]'s zero-allocation event path.
fn dispatch_keyed(w: &mut World, sim: &mut OsSim, key: u64) {
    dispatch(w, sim, Pid((key >> 32) as u32), Tid(key as u32));
}

/// Step one thread. Free function so it can be scheduled as an event.
pub fn dispatch(w: &mut World, sim: &mut OsSim, pid: Pid, tid: Tid) {
    // Phase 1: decide whether to run, pull the program out.
    let (mut prog, signals) = {
        let Some(p) = w.procs.get_mut(&pid) else {
            return;
        };
        if !p.alive() {
            return;
        }
        let suspended = p.user_suspended;
        let Some(t) = p.thread_mut(tid) else {
            return;
        };
        t.dispatch_pending = false;
        if t.state != ThreadState::Runnable {
            return;
        }
        if suspended && t.user {
            // Parked: `resume_user_threads` re-dispatches runnable threads.
            return;
        }
        let prog = std::mem::replace(&mut t.program, Box::new(Tombstone));
        let signals: Vec<u8> = p.pending_signals.drain(..).collect();
        (prog, signals)
    };

    for s in signals {
        prog.on_signal(s);
    }

    // Flight-recorder tap: which thread the scheduler stepped. Off unless
    // the chatty CLASS_SCHED bit is enabled.
    if w.obs.journal.wants(obs::journal::CLASS_SCHED) {
        let node = w.procs.get(&pid).map(|p| p.node.0 as u64).unwrap_or(0);
        w.obs.journal.record(
            sim.now(),
            obs::journal::CLASS_SCHED,
            "sched.step",
            None,
            &[("node", node), ("pid", pid.0 as u64), ("tid", tid.0 as u64)],
            prog.tag(),
        );
    }

    // Phase 2: run one step with the kernel facade.
    let mut k = Kernel::new(w, sim, pid, tid);
    let step = prog.step(&mut k);
    let fx = k.take_fx();
    if fx.would_block > 0 {
        // Labeled by caller: the scaling guard bounds a hub's polling.
        w.obs
            .metrics
            .add("oskit.sock.would_block", pid.0 as u64, fx.would_block);
    }
    // A fill fault stalled the step on a region still landing: the step
    // ends when it lands, and whatever the program asked for runs from then.
    let stall = fx.fill_until.saturating_sub(sim.now());
    if stall > Nanos::ZERO {
        w.obs.metrics.inc("oskit.mem.fill_faults", 0);
        w.obs.metrics.add("oskit.mem.fill_wait_ns", 0, stall.0);
    }
    let ended = sim.now() + stall;

    // Phase 3: put the program back (or its exec replacement) and apply the
    // step. The process may have died during the step (exit/kill).
    let Some(p) = w.procs.get_mut(&pid) else {
        return;
    };
    if let Some(t) = p.thread_mut(tid) {
        t.program = match fx.exec_to {
            Some(newp) => newp,
            None => prog,
        };
        if t.state == ThreadState::Exited {
            return;
        }
        if stall > Nanos::ZERO {
            // Held even across a block: a wake cannot dispatch it earlier.
            t.stalled_until = ended;
        }
        match step {
            Step::Compute(units) => {
                let dur = Nanos::from_secs_f64(units as f64 / w.spec.core_ups);
                let node = p.node;
                let (_start, end) = w.nodes[node.0 as usize].cpu.run(ended, dur);
                w.schedule_dispatch_at(sim, pid, tid, end);
            }
            Step::Yield => {
                let at = ended + QUANTUM;
                w.schedule_dispatch_at(sim, pid, tid, at);
            }
            Step::Sleep(d) => {
                let at = ended + d;
                w.schedule_dispatch_at(sim, pid, tid, at);
            }
            Step::Block => {
                if fx.wakes_registered == 0 {
                    panic!(
                        "thread {}:{} blocked without registering a waker (tag {})",
                        pid.0,
                        tid.0,
                        p.thread(tid).map(|t| t.program.tag()).unwrap_or("?")
                    );
                }
                let t = p.thread_mut(tid).expect("thread just seen");
                t.state = ThreadState::Blocked;
            }
            Step::ExitThread => {
                let t = p.thread_mut(tid).expect("thread just seen");
                t.state = ThreadState::Exited;
                if p.live_threads() == 0 {
                    w.exit_process(sim, pid, 0);
                }
            }
            Step::Exit(code) => {
                w.exit_process(sim, pid, code);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::impl_snap;

    struct CountDown {
        left: u64,
        done_flag: u64,
    }
    impl_snap!(struct CountDown { left, done_flag });
    impl Program for CountDown {
        fn step(&mut self, k: &mut Kernel<'_>) -> Step {
            if self.left == 0 {
                return Step::Exit(self.done_flag as i32);
            }
            self.left -= 1;
            let _ = k;
            Step::Compute(1_000_000) // 1 ms at default core speed
        }
        fn tag(&self) -> &'static str {
            "countdown"
        }
        fn save(&self) -> Vec<u8> {
            use simkit::Snap;
            self.to_snap_bytes()
        }
    }

    fn world() -> (World, OsSim) {
        (
            World::new(HwSpec::default(), 2, Registry::new()),
            Sim::new(),
        )
    }

    #[test]
    fn spawn_run_exit() {
        let (mut w, mut sim) = world();
        let pid = w.spawn(
            &mut sim,
            NodeId(0),
            "count",
            Box::new(CountDown {
                left: 5,
                done_flag: 42,
            }),
            Pid(1),
            BTreeMap::new(),
        );
        sim.run(&mut w);
        let p = &w.procs[&pid];
        assert_eq!(p.state, ProcState::Zombie(42));
        // 5 compute steps of 1 ms each.
        assert!(
            (sim.now().as_secs_f64() - 0.005).abs() < 1e-4,
            "now {:?}",
            sim.now()
        );
        assert_eq!(w.reap(pid), Some(42));
        assert!(w.procs.is_empty());
    }

    #[test]
    fn cores_serialize_excess_threads() {
        let (mut w, mut sim) = world();
        // 6 single-thread processes on a 4-core node, each 10 ms of compute.
        for _ in 0..6 {
            w.spawn(
                &mut sim,
                NodeId(0),
                "burn",
                Box::new(CountDown {
                    left: 10,
                    done_flag: 0,
                }),
                Pid(1),
                BTreeMap::new(),
            );
        }
        sim.run(&mut w);
        // 60 ms of work over 4 cores ⇒ ≥ 15 ms wall-clock.
        assert!(sim.now() >= Nanos::from_millis(15), "now {:?}", sim.now());
        assert!(sim.now() < Nanos::from_millis(25));
    }

    #[test]
    fn suspension_parks_user_threads_and_resume_restarts_them() {
        let (mut w, mut sim) = world();
        let pid = w.spawn(
            &mut sim,
            NodeId(0),
            "count",
            Box::new(CountDown {
                left: 100,
                done_flag: 7,
            }),
            Pid(1),
            BTreeMap::new(),
        );
        // Let it run 10 steps (≈10 ms), then freeze until t = 1 s.
        sim.run_until(&mut w, Nanos::from_millis(10));
        w.suspend_user_threads(&mut sim, pid);
        sim.at(Nanos::from_secs(1), move |w: &mut World, sim| {
            assert!(w.procs[&pid].alive(), "frozen process must not finish");
            w.resume_user_threads(sim, pid);
        });
        sim.run(&mut w);
        assert_eq!(w.procs[&pid].state, ProcState::Zombie(7));
        // Total runtime ≈ 1 s of freeze + the remaining ~90 ms of compute.
        assert!(sim.now() >= Nanos::from_millis(1080), "now {:?}", sim.now());
    }

    #[test]
    fn pid_allocation_wraps_and_skips_live() {
        let spec = HwSpec {
            pid_max: 6, // pids 2..5
            ..HwSpec::default()
        };
        let mut w = World::new(spec, 1, Registry::new());
        let a = w.alloc_pid();
        assert_eq!(a, Pid(2));
        // Occupy pid 3.
        let mut sim = Sim::new();
        let held = w.spawn(
            &mut sim,
            NodeId(0),
            "x",
            Box::new(CountDown {
                left: u64::MAX,
                done_flag: 0,
            }),
            Pid(1),
            BTreeMap::new(),
        );
        assert_eq!(held, Pid(3));
        // Exhaust the space twice; pid 3 must never be handed out again.
        for _ in 0..7 {
            assert_ne!(w.alloc_pid(), Pid(3));
        }
    }

    #[test]
    fn sigkill_terminates_sigterm_handler_delivers() {
        struct Trap {
            got: Rc<RefCell<Vec<u8>>>,
        }
        impl Program for Trap {
            fn step(&mut self, k: &mut Kernel<'_>) -> Step {
                k.block_forever();
                Step::Block
            }
            fn tag(&self) -> &'static str {
                "trap"
            }
            fn save(&self) -> Vec<u8> {
                Vec::new()
            }
            fn on_signal(&mut self, s: u8) {
                self.got.borrow_mut().push(s);
            }
        }
        let (mut w, mut sim) = world();
        let got = Rc::new(RefCell::new(Vec::new()));
        let pid = w.spawn(
            &mut sim,
            NodeId(0),
            "trap",
            Box::new(Trap { got: got.clone() }),
            Pid(1),
            BTreeMap::new(),
        );
        w.procs
            .get_mut(&pid)
            .unwrap()
            .sig_actions
            .insert(sig::SIGUSR1, SigAction::Handler);
        sim.run(&mut w);
        w.signal(&mut sim, pid, sig::SIGUSR1);
        sim.run(&mut w);
        assert_eq!(&*got.borrow(), &[sig::SIGUSR1]);
        assert!(w.procs[&pid].alive());
        w.signal(&mut sim, pid, sig::SIGKILL);
        sim.run(&mut w);
        assert_eq!(w.procs[&pid].state, ProcState::Zombie(137));
    }

    #[test]
    fn a_zombie_is_an_exit_status_not_an_address_space() {
        use crate::mem::{Content, RegionKind, PROT_R};
        let (mut w, mut sim) = world();
        let pid = w.spawn(
            &mut sim,
            NodeId(0),
            "hog",
            Box::new(CountDown {
                left: 1_000,
                done_flag: 0,
            }),
            Pid(1),
            BTreeMap::new(),
        );
        w.procs.get_mut(&pid).unwrap().mem.map(
            "heap",
            RegionKind::Heap,
            PROT_R,
            Content::Real(Rc::new(vec![7u8; 1 << 20])),
        );
        let exited = Rc::new(RefCell::new(Vec::new()));
        let seen = exited.clone();
        w.exit_hook = Some(Rc::new(move |_w, pid| seen.borrow_mut().push(pid)));
        w.signal(&mut sim, pid, sig::SIGKILL);
        // Nobody has reaped it, and pid 1 never will: the status stays, the
        // memory is gone, and the layers above were told.
        assert_eq!(w.procs[&pid].state, ProcState::Zombie(137));
        assert_eq!(w.procs[&pid].mem.total_bytes(), 0);
        assert_eq!(&*exited.borrow(), &[pid]);
        assert_eq!(w.reap(pid), Some(137));
    }

    #[test]
    fn proc_maps_renders_regions() {
        let (mut w, mut sim) = world();
        let pid = w.spawn(
            &mut sim,
            NodeId(0),
            "m",
            Box::new(CountDown {
                left: 0,
                done_flag: 0,
            }),
            Pid(1),
            BTreeMap::new(),
        );
        use crate::mem::{Content, RegionKind, PROT_R};
        w.procs.get_mut(&pid).unwrap().mem.map(
            "libdemo.so",
            RegionKind::Lib,
            PROT_R,
            Content::Real(Rc::new(vec![0u8; 4096])),
        );
        let maps = w.proc_maps(pid).unwrap();
        assert!(maps.contains("libdemo.so"));
        assert!(maps.contains("r--"));
    }
}
