//! The syscall facade handed to programs at each step.
//!
//! `Kernel` borrows the world and the event queue for the duration of one
//! program step. Syscalls that cannot complete return
//! [`Errno::WouldBlock`] *and* register the calling thread as a waiter on
//! the relevant kernel object; the program then returns
//! [`Step::Block`](crate::program::Step) and is re-stepped when woken, where
//! it re-issues the call — the classic poll loop, which is also how restored
//! threads transparently resume blocking syscalls after a restart.

use crate::fdtable::{Fd, FdEntry, FdObject, OpenFile};
use crate::fs::FsError;
use crate::mem::{Content, FillProfile, RegionId, RegionKind, PROT_R, PROT_W};
use crate::net::{add_waiter, Conn, ConnId, ConnKind, Listener, PendingConn, Watch};
use crate::proc::ThreadState;
use crate::program::Program;
use crate::pty::{PtyId, Termios};
use crate::world::{NodeId, OsSim, Pid, Tid, World};
use simkit::Nanos;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Syscall error numbers (the subset this kernel produces).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Errno {
    /// Operation would block; the thread was registered as a waiter.
    WouldBlock,
    /// Bad file descriptor.
    BadFd,
    /// Operation on a non-socket fd.
    NotSock,
    /// Peer closed (EPIPE on write).
    Pipe,
    /// No listener at the target address.
    ConnRefused,
    /// Unknown host.
    HostUnreach,
    /// File or path not found.
    NotFound,
    /// Permission denied / read-only target.
    ReadOnly,
    /// Invalid argument.
    Inval,
    /// No such child to wait for.
    NoChild,
    /// Byte-read of virtual (unmaterialized) file content.
    NotMaterialized,
}

impl From<FsError> for Errno {
    fn from(e: FsError) -> Errno {
        match e {
            FsError::NotFound => Errno::NotFound,
            FsError::ReadOnly => Errno::ReadOnly,
            FsError::NotMaterialized => Errno::NotMaterialized,
        }
    }
}

/// Side effects a step can leave for the dispatcher.
#[derive(Default)]
pub struct Fx {
    /// Replace the calling thread's program after this step (`exec`).
    pub exec_to: Option<Box<dyn Program>>,
    /// How many wakers this step registered (sanity check for `Block`).
    pub wakes_registered: u32,
    /// Socket reads this step that found nothing. The dispatcher adds them
    /// to `oskit.sock.would_block` (labeled by pid) once per step, which
    /// keeps a polling loop's hot path off the metrics registry.
    pub would_block: u64,
    /// The latest [`crate::mem::Region::ready_at`] this step touched. When it
    /// is still ahead, the step stalled on a fill fault and ends there.
    pub fill_until: Nanos,
}

/// The per-step syscall context.
pub struct Kernel<'a> {
    /// The world. Checkpoint-layer code may reach through this directly —
    /// that models its privileged use of `/proc` and wrapped libc calls.
    /// Application programs must stick to the methods below.
    pub w: &'a mut World,
    /// The event queue.
    pub sim: &'a mut OsSim,
    /// Calling process.
    pub pid: Pid,
    /// Calling thread.
    pub tid: Tid,
    fx: Fx,
}

impl<'a> Kernel<'a> {
    /// Construct the facade for one step.
    pub fn new(w: &'a mut World, sim: &'a mut OsSim, pid: Pid, tid: Tid) -> Self {
        Kernel {
            w,
            sim,
            pid,
            tid,
            fx: Fx::default(),
        }
    }

    /// Extract accumulated side effects (dispatcher use).
    pub fn take_fx(&mut self) -> Fx {
        std::mem::take(&mut self.fx)
    }

    // ------------------------------------------------------------------
    // Identity & environment
    // ------------------------------------------------------------------

    /// Current virtual time.
    pub fn now(&self) -> Nanos {
        self.sim.now()
    }

    /// This process's pid — the *virtual* pid when the checkpoint layer has
    /// installed one, exactly as DMTCP's getpid wrapper reports.
    pub fn getpid(&self) -> Pid {
        match self.proc_ref().virt_pid {
            Some(v) => Pid(v),
            None => self.pid,
        }
    }

    /// The raw kernel pid, bypassing virtualization (checkpoint-layer use).
    pub fn getpid_real(&self) -> Pid {
        self.pid
    }

    /// Translate an application-visible pid to the current real pid.
    fn deref_pid(&self, pid: Pid) -> Pid {
        match self.proc_ref().pid_map.get(&pid.0) {
            Some(real) => Pid(*real),
            None => pid,
        }
    }

    /// Parent pid.
    pub fn getppid(&self) -> Pid {
        self.proc_ref().ppid
    }

    /// The node this process runs on.
    pub fn node(&self) -> NodeId {
        self.proc_ref().node
    }

    /// This node's hostname.
    pub fn hostname(&self) -> String {
        self.w.node(self.node()).hostname.clone()
    }

    /// Read an environment variable.
    pub fn getenv(&self, key: &str) -> Option<String> {
        self.proc_ref().env.get(key).cloned()
    }

    /// Set an environment variable.
    pub fn setenv(&mut self, key: &str, val: &str) {
        self.proc_mut().env.insert(key.into(), val.into());
    }

    fn proc_ref(&self) -> &crate::proc::Process {
        self.w.procs.get(&self.pid).expect("calling process exists")
    }

    fn proc_mut(&mut self) -> &mut crate::proc::Process {
        self.w
            .procs
            .get_mut(&self.pid)
            .expect("calling process exists")
    }

    /// Declare an intentional indefinite block (no waker). Rare; used by
    /// programs that only react to signals.
    pub fn block_forever(&mut self) {
        self.fx.wakes_registered += 1;
    }

    fn me(&self) -> (Pid, Tid) {
        (self.pid, self.tid)
    }

    // ------------------------------------------------------------------
    // Processes & threads
    // ------------------------------------------------------------------

    /// Spawn a fresh process on this node (fork+exec combined: environment
    /// is inherited, fds are not). Returns the child's pid, which is also
    /// its virtual pid forever after.
    pub fn spawn_process(&mut self, cmd: &str, prog: Box<dyn Program>) -> Pid {
        let env = self.proc_ref().env.clone();
        let node = self.node();
        let child = self.w.spawn(self.sim, node, cmd, prog, self.pid, env);
        let vpid = self.w.procs[&child].virt_pid.unwrap_or(child.0);
        self.proc_mut().pid_map.insert(vpid, child.0);
        Pid(vpid)
    }

    /// True `fork`: COW address space, inherited fds, child continues from
    /// this program's saved state with `fork_ret() == Some(0)`.
    ///
    /// The program must already be registered (its tag is how the kernel
    /// "re-executes" it in the child) and must snapshot the state it wants
    /// the child to start from *before* calling.
    pub fn fork_snapshot(&mut self, me: &dyn Program) -> Result<Pid, Errno> {
        let child_prog = self
            .w
            .registry
            .load(me.tag(), &me.save())
            .map_err(|_| Errno::Inval)?;
        let child = self.w.fork_process(self.sim, self.pid, child_prog);
        let vpid = self.w.procs[&child].virt_pid.unwrap_or(child.0);
        self.proc_mut().pid_map.insert(vpid, child.0);
        // Parent sees the child pid in its own fork register too, so state
        // machines can branch uniformly.
        let tid = self.tid;
        if let Some(t) = self.proc_mut().thread_mut(tid) {
            t.fork_ret = Some(vpid);
        }
        Ok(Pid(vpid))
    }

    /// The fork return register: `Some(0)` in a forked child, `Some(pid)`
    /// in the parent right after `fork_snapshot`, `None` otherwise.
    pub fn fork_ret(&self) -> Option<u32> {
        self.proc_ref().thread(self.tid).and_then(|t| t.fork_ret)
    }

    /// Clear the fork register once consumed.
    pub fn clear_fork_ret(&mut self) {
        let tid = self.tid;
        if let Some(t) = self.proc_mut().thread_mut(tid) {
            t.fork_ret = None;
        }
    }

    /// Replace this thread's program after the current step returns
    /// (`exec`). Close-on-exec fds are closed now.
    pub fn exec(&mut self, cmd: &str, prog: Box<dyn Program>) {
        let cloexec: Vec<Fd> = self
            .proc_ref()
            .fds
            .iter()
            .filter(|(_, e)| e.cloexec)
            .map(|(fd, _)| fd)
            .collect();
        for fd in cloexec {
            let _ = self.close(fd);
        }
        self.proc_mut().cmd = cmd.to_string();
        self.fx.exec_to = Some(prog);
        // Re-run the injection hook: a real exec re-applies LD_PRELOAD.
        self.w.run_spawn_hook(self.sim, self.pid);
        self.w.obs_note_process(self.pid);
    }

    /// Create an additional thread in this process.
    pub fn spawn_thread(&mut self, prog: Box<dyn Program>, user: bool) -> Tid {
        let pid = self.pid;
        let tid = self.proc_mut().add_thread(prog, user);
        self.w.schedule_dispatch(self.sim, pid, tid);
        tid
    }

    /// Spawn a process on a remote node via the modelled `ssh`. The remote
    /// process starts after the ssh session setup delay.
    pub fn ssh_spawn(
        &mut self,
        host: &str,
        cmd: &str,
        prog: Box<dyn Program>,
        extra_env: BTreeMap<String, String>,
    ) -> Result<Pid, Errno> {
        let node = self.w.resolve(host).ok_or(Errno::HostUnreach)?;
        let mut env = self.proc_ref().env.clone();
        env.extend(extra_env);
        let pid = self.w.alloc_pid();
        let mut p = crate::proc::Process::new(pid, self.pid, node, cmd.to_string(), prog);
        p.env = env;
        self.w.procs.insert(pid, p);
        let pid = self.w.run_spawn_hook(self.sim, pid);
        let delay = self.w.spec.net_latency + Nanos::from_millis(40); // ssh session setup
        let at = self.sim.now() + delay;
        self.w.schedule_dispatch_at(self.sim, pid, Tid(0), at);
        let vpid = self.w.procs[&pid].virt_pid.unwrap_or(pid.0);
        self.proc_mut().pid_map.insert(vpid, pid.0);
        Ok(Pid(vpid))
    }

    /// Send a signal (pid translated through the virtualization map).
    pub fn kill(&mut self, pid: Pid, signum: u8) {
        let real = self.deref_pid(pid);
        self.w.signal(self.sim, real, signum);
    }

    /// Wait for a child to exit; reaps and returns its code. The argument
    /// is translated through the pid-virtualization map.
    pub fn waitpid(&mut self, child: Pid) -> Result<i32, Errno> {
        let me = self.me();
        let child = self.deref_pid(child);
        match self.w.procs.get_mut(&child) {
            None => Err(Errno::NoChild),
            Some(p) if p.ppid != self.pid => Err(Errno::NoChild),
            Some(p) => match p.state {
                crate::proc::ProcState::Zombie(code) => {
                    self.w.reap(child);
                    Ok(code)
                }
                crate::proc::ProcState::Running => {
                    add_waiter(&mut p.wait_waiters, me);
                    self.fx.wakes_registered += 1;
                    Err(Errno::WouldBlock)
                }
            },
        }
    }

    /// Is `pid` alive (running, not zombie)?
    pub fn proc_alive(&self, pid: Pid) -> bool {
        self.w.procs.get(&pid).map(|p| p.alive()).unwrap_or(false)
    }

    // ------------------------------------------------------------------
    // Files
    // ------------------------------------------------------------------

    /// Open (creating if needed when `writable`) a file.
    pub fn open(&mut self, path: &str, writable: bool) -> Result<Fd, Errno> {
        let node = self.node();
        {
            let fs = self.w.fs_for_mut(node, path);
            if !fs.exists(path) {
                if writable {
                    fs.create(path)?;
                } else {
                    return Err(Errno::NotFound);
                }
            }
        }
        let id = self.w.alloc_open_file_id();
        self.w.open_files.insert(
            id,
            OpenFile {
                path: path.to_string(),
                offset: 0,
                writable,
                owner_pid: 0,
                refs: 1,
            },
        );
        Ok(self.proc_mut().fds.install(FdEntry {
            obj: FdObject::File(id),
            cloexec: false,
        }))
    }

    /// Close an fd.
    pub fn close(&mut self, fd: Fd) -> Result<(), Errno> {
        let entry = self.proc_mut().fds.remove(fd).ok_or(Errno::BadFd)?;
        self.w.release_obj(self.sim, entry.obj);
        Ok(())
    }

    /// `dup2`: make `new_fd` refer to `old_fd`'s object.
    pub fn dup2(&mut self, old_fd: Fd, new_fd: Fd) -> Result<Fd, Errno> {
        if old_fd == new_fd {
            return Ok(new_fd);
        }
        let entry = *self.proc_ref().fds.get(old_fd).ok_or(Errno::BadFd)?;
        self.w.retain_obj(entry.obj);
        let displaced = self.proc_mut().fds.install_at(new_fd, entry);
        if let Some(old) = displaced {
            self.w.release_obj(self.sim, old.obj);
        }
        Ok(new_fd)
    }

    /// `dup`: lowest free fd.
    pub fn dup(&mut self, fd: Fd) -> Result<Fd, Errno> {
        let entry = *self.proc_ref().fds.get(fd).ok_or(Errno::BadFd)?;
        self.w.retain_obj(entry.obj);
        Ok(self.proc_mut().fds.install(entry))
    }

    /// Look up what an fd refers to.
    pub fn fd_object(&self, fd: Fd) -> Result<FdObject, Errno> {
        self.proc_ref()
            .fds
            .get(fd)
            .map(|e| e.obj)
            .ok_or(Errno::BadFd)
    }

    /// All open fds of the calling process.
    pub fn list_fds(&self) -> Vec<(Fd, FdObject)> {
        self.proc_ref()
            .fds
            .iter()
            .map(|(fd, e)| (fd, e.obj))
            .collect()
    }

    /// Write bytes through an fd (file append / socket send / pty write).
    pub fn write(&mut self, fd: Fd, bytes: &[u8]) -> Result<usize, Errno> {
        match self.fd_object(fd)? {
            FdObject::File(id) => {
                let node = self.node();
                let (path, writable) = {
                    let f = &self.w.open_files[&id];
                    (f.path.clone(), f.writable)
                };
                if !writable {
                    return Err(Errno::ReadOnly);
                }
                self.w.fs_for_mut(node, &path).append(&path, bytes)?;
                let len = {
                    let fs = self.w.fs_for(node, &path);
                    fs.size(&path).expect("file exists")
                };
                self.w.open_files.get_mut(&id).expect("open file").offset = len;
                self.w
                    .charge_storage_write(self.sim.now(), node, &path, bytes.len() as u64);
                Ok(bytes.len())
            }
            FdObject::Sock(cid, end) => self.send_on(cid, end as usize, bytes),
            FdObject::PtyMaster(ptid) => {
                let p = self.w.ptys.get_mut(&ptid).ok_or(Errno::BadFd)?;
                let echo = p.termios.echo;
                p.master_write(bytes);
                if echo {
                    let copy = bytes.to_vec();
                    p.to_master.extend(copy.iter());
                }
                let slave_waiters = std::mem::take(&mut p.slave_read_waiters);
                let master_waiters = if echo {
                    std::mem::take(&mut p.master_read_waiters)
                } else {
                    Vec::new()
                };
                self.w.wake_all(self.sim, slave_waiters);
                self.w.wake_all(self.sim, master_waiters);
                Ok(bytes.len())
            }
            FdObject::PtySlave(ptid) => {
                let p = self.w.ptys.get_mut(&ptid).ok_or(Errno::BadFd)?;
                p.slave_write(bytes);
                let waiters = std::mem::take(&mut p.master_read_waiters);
                self.w.wake_all(self.sim, waiters);
                Ok(bytes.len())
            }
            FdObject::Listener(_) => Err(Errno::NotSock),
        }
    }

    /// Read up to `max` bytes. `Ok(empty)` is EOF.
    pub fn read(&mut self, fd: Fd, max: usize) -> Result<Vec<u8>, Errno> {
        let me = self.me();
        match self.fd_object(fd)? {
            FdObject::File(id) => {
                let node = self.node();
                let (path, offset) = {
                    let f = &self.w.open_files[&id];
                    (f.path.clone(), f.offset)
                };
                let data = self.w.fs_for(node, &path).read_all(&path)?;
                let start = (offset as usize).min(data.len());
                let end = (start + max).min(data.len());
                self.w.open_files.get_mut(&id).expect("open file").offset = end as u64;
                self.w
                    .charge_storage_read(self.sim.now(), node, &path, (end - start) as u64);
                Ok(data[start..end].to_vec())
            }
            FdObject::Sock(cid, end) => self.recv_on(cid, end as usize, max),
            FdObject::PtyMaster(ptid) => {
                let p = self.w.ptys.get_mut(&ptid).ok_or(Errno::BadFd)?;
                if p.to_master.is_empty() {
                    if p.slave_refs == 0 {
                        return Ok(Vec::new()); // EOF: no slave left
                    }
                    add_waiter(&mut p.master_read_waiters, me);
                    self.fx.wakes_registered += 1;
                    return Err(Errno::WouldBlock);
                }
                let take = p.to_master.len().min(max);
                Ok(p.to_master.drain(..take).collect())
            }
            FdObject::PtySlave(ptid) => {
                let p = self.w.ptys.get_mut(&ptid).ok_or(Errno::BadFd)?;
                if p.to_slave.is_empty() {
                    if p.master_refs == 0 {
                        return Ok(Vec::new());
                    }
                    add_waiter(&mut p.slave_read_waiters, me);
                    self.fx.wakes_registered += 1;
                    return Err(Errno::WouldBlock);
                }
                let take = p.to_slave.len().min(max);
                Ok(p.to_slave.drain(..take).collect())
            }
            FdObject::Listener(_) => Err(Errno::NotSock),
        }
    }

    /// Reposition a file offset.
    pub fn lseek(&mut self, fd: Fd, pos: u64) -> Result<(), Errno> {
        match self.fd_object(fd)? {
            FdObject::File(id) => {
                self.w.open_files.get_mut(&id).expect("open file").offset = pos;
                Ok(())
            }
            _ => Err(Errno::Inval),
        }
    }

    /// Size of a file by path.
    pub fn file_size(&self, path: &str) -> Result<u64, Errno> {
        let node = self.node();
        self.w.fs_for(node, path).size(path).ok_or(Errno::NotFound)
    }

    // ------------------------------------------------------------------
    // Sockets
    // ------------------------------------------------------------------

    /// Bind + listen on `port` (0 = ephemeral). Returns the listener fd.
    pub fn listen_on(&mut self, port: u16) -> Result<(Fd, u16), Errno> {
        let node = self.node();
        let port = if port == 0 {
            self.w.alloc_port(node)
        } else {
            port
        };
        if self
            .w
            .listeners
            .values()
            .any(|l| l.node == node && l.port == port)
        {
            return Err(Errno::Inval); // EADDRINUSE
        }
        let id = self.w.alloc_listener_id();
        self.w.listeners.insert(
            id,
            Listener {
                id,
                node,
                port,
                backlog: Default::default(),
                accept_waiters: Vec::new(),
                watcher: None,
                refs: 1,
                owner_pid: 0,
            },
        );
        let fd = self.proc_mut().fds.install(FdEntry {
            obj: FdObject::Listener(id),
            cloexec: false,
        });
        Ok((fd, port))
    }

    /// Connect to `host:port`; returns the connected socket fd.
    pub fn connect(&mut self, host: &str, port: u16) -> Result<Fd, Errno> {
        let peer_node = self.w.resolve(host).ok_or(Errno::HostUnreach)?;
        let my_node = self.node();
        let lid = self
            .w
            .listeners
            .values()
            .find(|l| l.node == peer_node && l.port == port)
            .map(|l| l.id)
            .ok_or(Errno::ConnRefused)?;
        let cid = self.w.alloc_conn_id();
        let kind = if my_node == peer_node {
            ConnKind::Unix
        } else {
            ConnKind::Tcp
        };
        let mut conn = Conn::new(cid, kind, my_node, peer_node);
        conn.end_refs = [1, 1]; // end 1 held by the listener backlog until accept
        self.w.conns.insert(cid, conn);
        let l = self.w.listeners.get_mut(&lid).expect("listener just found");
        l.backlog.push_back(PendingConn { conn: cid });
        let waiters = std::mem::take(&mut l.accept_waiters);
        let watch = l.watcher;
        self.w.notify(self.sim, waiters, watch);
        Ok(self.proc_mut().fds.install(FdEntry {
            obj: FdObject::Sock(cid, 0),
            cloexec: false,
        }))
    }

    /// Accept a pending connection.
    pub fn accept(&mut self, listener_fd: Fd) -> Result<Fd, Errno> {
        let me = self.me();
        let FdObject::Listener(lid) = self.fd_object(listener_fd)? else {
            return Err(Errno::NotSock);
        };
        let l = self.w.listeners.get_mut(&lid).ok_or(Errno::BadFd)?;
        match l.backlog.pop_front() {
            Some(pending) => Ok(self.proc_mut().fds.install(FdEntry {
                obj: FdObject::Sock(pending.conn, 1),
                cloexec: false,
            })),
            None => {
                add_waiter(&mut l.accept_waiters, me);
                self.fx.wakes_registered += 1;
                Err(Errno::WouldBlock)
            }
        }
    }

    /// Register a persistent read-readiness watcher on a socket or listener
    /// (the `epoll_ctl(ADD, EPOLLIN)` analogue): every time a `read` /
    /// `accept` on `fd` would stop returning `WouldBlock` — data delivered,
    /// EOF, half-close, peer close, pending connection — `token` joins this
    /// thread's ready set and the thread is woken. Like epoll, an object
    /// that is readable right now is reported immediately. One watcher per
    /// end; it lasts until that end's last fd reference is released.
    pub fn watch_read(&mut self, fd: Fd, token: u64) -> Result<(), Errno> {
        let watch = Watch {
            who: self.me(),
            token,
        };
        let ready_now = match self.fd_object(fd)? {
            FdObject::Sock(cid, end) => {
                let conn = self.w.conns.get_mut(&cid).ok_or(Errno::BadFd)?;
                conn.watchers[end as usize] = Some(watch);
                conn.readable(end as usize)
            }
            FdObject::Listener(lid) => {
                let l = self.w.listeners.get_mut(&lid).ok_or(Errno::BadFd)?;
                l.watcher = Some(watch);
                !l.backlog.is_empty()
            }
            _ => return Err(Errno::NotSock),
        };
        if ready_now {
            self.thread_mut().ready.insert(token);
        }
        Ok(())
    }

    /// Drain this thread's ready set: the tokens of every watched object
    /// that became readable since the last call, ascending and
    /// de-duplicated. Counts as a registered waker for `Step::Block` — the
    /// watchers will wake the thread.
    pub fn take_ready(&mut self) -> Vec<u64> {
        self.fx.wakes_registered += 1;
        std::mem::take(&mut self.thread_mut().ready)
            .into_iter()
            .collect()
    }

    fn thread_mut(&mut self) -> &mut crate::proc::Thread {
        let tid = self.tid;
        self.proc_mut()
            .thread_mut(tid)
            .expect("calling thread exists")
    }

    /// `socketpair(2)` — a connected pair of UNIX sockets.
    pub fn socketpair(&mut self) -> (Fd, Fd) {
        let node = self.node();
        let cid = self.w.alloc_conn_id();
        let mut conn = Conn::new(cid, ConnKind::SocketPair, node, node);
        conn.end_refs = [1, 1];
        self.w.conns.insert(cid, conn);
        let a = self.proc_mut().fds.install(FdEntry {
            obj: FdObject::Sock(cid, 0),
            cloexec: false,
        });
        let b = self.proc_mut().fds.install(FdEntry {
            obj: FdObject::Sock(cid, 1),
            cloexec: false,
        });
        (a, b)
    }

    /// `pipe(2)`. The wrapper layer promotes pipes to socketpairs (§4.5) so
    /// the checkpoint drain logic can re-send data to the writer; the
    /// returned pair is (read end, write end).
    pub fn pipe(&mut self) -> (Fd, Fd) {
        let node = self.node();
        let cid = self.w.alloc_conn_id();
        let mut conn = Conn::new(cid, ConnKind::Pipe, node, node);
        conn.end_refs = [1, 1];
        self.w.conns.insert(cid, conn);
        // Data flows from the write end (1) to the read end (0).
        let r = self.proc_mut().fds.install(FdEntry {
            obj: FdObject::Sock(cid, 0),
            cloexec: false,
        });
        let w = self.proc_mut().fds.install(FdEntry {
            obj: FdObject::Sock(cid, 1),
            cloexec: false,
        });
        (r, w)
    }

    /// `shutdown(fd, SHUT_WR)` — half-close the write side of a socket:
    /// further sends from this end fail with EPIPE and the peer sees EOF
    /// once buffered bytes drain, but reads on this end keep working.
    pub fn shutdown_write(&mut self, fd: Fd) -> Result<(), Errno> {
        let FdObject::Sock(cid, end) = self.fd_object(fd)? else {
            return Err(Errno::NotSock);
        };
        let end = end as usize;
        let conn = self.w.conns.get_mut(&cid).ok_or(Errno::BadFd)?;
        if conn.wr_closed[end] {
            return Ok(());
        }
        conn.wr_closed[end] = true;
        // Peer readers blocked on this direction must wake to observe EOF.
        let (readers, watch) = conn.read_interest(Conn::peer(end));
        self.w.notify(self.sim, readers, watch);
        Ok(())
    }

    fn send_on(&mut self, cid: ConnId, end: usize, bytes: &[u8]) -> Result<usize, Errno> {
        let me = self.me();
        let conn = self.w.conns.get_mut(&cid).ok_or(Errno::BadFd)?;
        if conn.closed[Conn::peer(end)] || conn.wr_closed[end] {
            return Err(Errno::Pipe);
        }
        let room = conn.send_room(end);
        if room == 0 {
            add_waiter(&mut conn.dirs[end].write_waiters, me);
            self.fx.wakes_registered += 1;
            return Err(Errno::WouldBlock);
        }
        let take = (room as usize).min(bytes.len());
        let chunk = bytes[..take].to_vec();
        self.w.conn_transmit(self.sim, cid, end, chunk);
        self.w
            .obs
            .metrics
            .add("oskit.sock.tx_bytes", 0, take as u64);
        Ok(take)
    }

    fn recv_on(&mut self, cid: ConnId, end: usize, max: usize) -> Result<Vec<u8>, Errno> {
        let me = self.me();
        let src = Conn::peer(end);
        let conn = self.w.conns.get_mut(&cid).ok_or(Errno::BadFd)?;
        if conn.dirs[src].recv_buf.is_empty() {
            if conn.at_eof(end) {
                return Ok(Vec::new()); // EOF
            }
            add_waiter(&mut conn.dirs[src].read_waiters, me);
            self.fx.wakes_registered += 1;
            self.fx.would_block += 1;
            return Err(Errno::WouldBlock);
        }
        let dir = &mut conn.dirs[src];
        let take = dir.recv_buf.len().min(max);
        let out: Vec<u8> = dir.recv_buf.drain(..take).collect();
        let writers = std::mem::take(&mut dir.write_waiters);
        self.w.wake_all(self.sim, writers);
        self.w
            .obs
            .metrics
            .add("oskit.sock.rx_bytes", 0, out.len() as u64);
        Ok(out)
    }

    /// `fcntl(F_SETOWN)` — sets the owner pid of the object behind `fd`.
    pub fn fcntl_setown(&mut self, fd: Fd, owner: Pid) -> Result<(), Errno> {
        match self.fd_object(fd)? {
            FdObject::File(id) => {
                self.w.open_files.get_mut(&id).expect("open file").owner_pid = owner.0;
            }
            FdObject::Sock(cid, end) => {
                self.w.conns.get_mut(&cid).ok_or(Errno::BadFd)?.owner_pid[end as usize] = owner.0;
            }
            FdObject::Listener(lid) => {
                self.w
                    .listeners
                    .get_mut(&lid)
                    .ok_or(Errno::BadFd)?
                    .owner_pid = owner.0;
            }
            FdObject::PtyMaster(_) | FdObject::PtySlave(_) => return Err(Errno::Inval),
        }
        // F_SETOWN is how the checkpoint layer elects an fd leader.
        self.w.obs.metrics.inc("oskit.fd.setown_elections", 0);
        Ok(())
    }

    /// `fcntl(F_GETOWN)`.
    pub fn fcntl_getown(&self, fd: Fd) -> Result<Pid, Errno> {
        Ok(Pid(match self.fd_object(fd)? {
            FdObject::File(id) => self.w.open_files[&id].owner_pid,
            FdObject::Sock(cid, end) => {
                self.w.conns.get(&cid).ok_or(Errno::BadFd)?.owner_pid[end as usize]
            }
            FdObject::Listener(lid) => self.w.listeners.get(&lid).ok_or(Errno::BadFd)?.owner_pid,
            FdObject::PtyMaster(_) | FdObject::PtySlave(_) => return Err(Errno::Inval),
        }))
    }

    // ------------------------------------------------------------------
    // Ptys & terminals
    // ------------------------------------------------------------------

    /// Allocate a pty pair; returns (master fd, slave fd).
    pub fn openpty(&mut self) -> (Fd, Fd) {
        let id = self.w.alloc_pty_id();
        let mut pty = crate::pty::Pty::new(id);
        pty.master_refs = 1;
        pty.slave_refs = 1;
        self.w.ptys.insert(id, pty);
        let m = self.proc_mut().fds.install(FdEntry {
            obj: FdObject::PtyMaster(id),
            cloexec: false,
        });
        let s = self.proc_mut().fds.install(FdEntry {
            obj: FdObject::PtySlave(id),
            cloexec: false,
        });
        (m, s)
    }

    /// `ptsname(3)`: the slave path of a master fd.
    pub fn ptsname(&self, fd: Fd) -> Result<String, Errno> {
        match self.fd_object(fd)? {
            FdObject::PtyMaster(id) => Ok(id.slave_path()),
            _ => Err(Errno::Inval),
        }
    }

    /// Open an existing pty slave by its `/dev/pts/<n>` path.
    pub fn open_pty_slave(&mut self, path: &str) -> Result<Fd, Errno> {
        let id = self
            .w
            .ptys
            .values()
            .find(|p| p.id.slave_path() == path)
            .map(|p| p.id)
            .ok_or(Errno::NotFound)?;
        self.w.ptys.get_mut(&id).expect("pty just found").slave_refs += 1;
        Ok(self.proc_mut().fds.install(FdEntry {
            obj: FdObject::PtySlave(id),
            cloexec: false,
        }))
    }

    /// Get terminal modes.
    pub fn tcgetattr(&self, fd: Fd) -> Result<Termios, Errno> {
        let id = self.pty_of(fd)?;
        Ok(self.w.ptys[&id].termios)
    }

    /// Set terminal modes.
    pub fn tcsetattr(&mut self, fd: Fd, t: Termios) -> Result<(), Errno> {
        let id = self.pty_of(fd)?;
        self.w.ptys.get_mut(&id).expect("pty exists").termios = t;
        Ok(())
    }

    /// Take this pty as the controlling terminal of the calling process.
    pub fn set_ctty(&mut self, fd: Fd) -> Result<(), Errno> {
        let id = self.pty_of(fd)?;
        let pid = self.pid;
        self.w
            .ptys
            .get_mut(&id)
            .expect("pty exists")
            .controlling_pid = Some(pid);
        self.proc_mut().ctty = Some(id);
        Ok(())
    }

    fn pty_of(&self, fd: Fd) -> Result<PtyId, Errno> {
        match self.fd_object(fd)? {
            FdObject::PtyMaster(id) | FdObject::PtySlave(id) => Ok(id),
            _ => Err(Errno::Inval),
        }
    }

    // ------------------------------------------------------------------
    // Memory
    // ------------------------------------------------------------------

    /// Map real zeroed memory.
    pub fn mmap_anon(&mut self, name: &str, len: usize) -> RegionId {
        self.note_mmap(len as u64);
        self.proc_mut().mem.map(
            name,
            RegionKind::Anon,
            PROT_R | PROT_W,
            Content::Real(Rc::new(vec![0u8; len])),
        )
    }

    /// Map synthetic ballast (immutable, generated content).
    pub fn mmap_synthetic(
        &mut self,
        name: &str,
        len: u64,
        seed: u64,
        profile: FillProfile,
    ) -> RegionId {
        self.note_mmap(len);
        self.proc_mut().mem.map(
            name,
            RegionKind::Anon,
            PROT_R,
            Content::Synthetic { seed, len, profile },
        )
    }

    /// Map a "library" (read-only code-like synthetic region).
    pub fn map_library(&mut self, name: &str, len: u64, seed: u64) -> RegionId {
        self.note_mmap(len);
        self.proc_mut().mem.map(
            name,
            RegionKind::Lib,
            PROT_R | crate::mem::PROT_X,
            Content::Synthetic {
                seed,
                len,
                profile: FillProfile::Code,
            },
        )
    }

    /// `mmap(MAP_SHARED)` of `path`: attaches the node-local live segment,
    /// creating it (and the backing file) if needed. Two processes mapping
    /// the same path on one node alias the same bytes.
    pub fn mmap_shared(&mut self, path: &str, len: usize) -> Result<RegionId, Errno> {
        let node = self.node();
        let key = (node, path.to_string());
        let seg = match self.w.shm_segs.get(&key) {
            Some(seg) => seg.clone(),
            None => {
                // Initialize from the backing file when it exists; create it
                // otherwise (plain mmap semantics).
                let init = match self.w.fs_for(node, path).read_all(path) {
                    Ok(mut bytes) => {
                        bytes.resize(len, 0);
                        bytes
                    }
                    Err(_) => {
                        let fs = self.w.fs_for_mut(node, path);
                        if !fs.exists(path) {
                            fs.create(path).map_err(Errno::from)?;
                        }
                        vec![0u8; len]
                    }
                };
                let seg = Rc::new(RefCell::new(init));
                self.w.shm_segs.insert(key, seg.clone());
                seg
            }
        };
        self.note_mmap(len as u64);
        Ok(self.proc_mut().mem.map(
            path,
            RegionKind::Shm {
                backing: path.to_string(),
            },
            PROT_R | PROT_W,
            Content::Shared(seg),
        ))
    }

    fn note_mmap(&mut self, len: u64) {
        self.w.obs.metrics.inc("oskit.mem.mmap_regions", 0);
        self.w.obs.metrics.add("oskit.mem.mmap_bytes", 0, len);
    }

    /// Unmap a region.
    pub fn munmap(&mut self, id: RegionId) {
        self.proc_mut().mem.unmap(id);
    }

    /// Write into this process's memory. While a forked checkpoint is in
    /// flight the first write to each region still shared with the frozen
    /// snapshot forces a physical copy — charge that page-duplication work
    /// to a core (it contends with the background compressor) and surface
    /// it as metrics so benches can report the COW tax.
    ///
    /// Like [`Kernel::mem_read`], a write to a region a restore is still
    /// filling in stalls the step until the region lands.
    pub fn mem_write(&mut self, id: RegionId, offset: u64, bytes: &[u8]) {
        self.await_fill(id);
        let copied = self.proc_mut().mem.write(id, offset, bytes);
        if copied > 0 {
            let now = self.sim.now();
            let node = self.node();
            let dur = self.w.spec.memcpy_time(copied);
            self.w.nodes[node.0 as usize].cpu.run(now, dur);
            self.w.obs.metrics.inc("oskit.mem.cow_faults", 0);
            self.w
                .obs
                .metrics
                .add("oskit.mem.cow_copied_bytes", 0, copied);
        }
    }

    /// Read from this process's memory. The bytes are always there; but a
    /// region whose [`ready_at`](crate::mem::Region::ready_at) is still
    /// ahead — a restore is filling it in behind the running process — is a
    /// *fill fault*: the step stalls until the region lands, so the thread's
    /// next dispatch is reckoned from that instant instead of from now.
    pub fn mem_read(&mut self, id: RegionId, offset: u64, len: usize) -> Vec<u8> {
        self.await_fill(id);
        self.proc_ref().mem.read(id, offset, len)
    }

    fn await_fill(&mut self, id: RegionId) {
        let ready = self
            .proc_ref()
            .mem
            .region(id)
            .map_or(Nanos::ZERO, |r| r.ready_at);
        self.fx.fill_until = self.fx.fill_until.max(ready);
    }

    // ------------------------------------------------------------------
    // Observability
    // ------------------------------------------------------------------

    /// The world's observability layer (spans + metrics registry).
    pub fn obs(&mut self) -> &mut obs::Obs {
        &mut self.w.obs
    }

    /// This thread's span track identity: (node, virtual pid, tid) — the
    /// coordinates its spans render under in a Perfetto trace.
    pub fn track(&self) -> obs::TrackId {
        obs::TrackId::new(self.node().0, self.getpid().0, self.tid.0)
    }

    /// Open a span on this thread's track starting now.
    pub fn span_begin(&mut self, name: &'static str, cat: &'static str) -> obs::SpanGuard {
        let at = self.sim.now();
        let track = self.track();
        self.w.obs.spans.begin(at, track, name, cat)
    }

    /// Close a span opened with [`Kernel::span_begin`] at the current time.
    pub fn span_end(&mut self, guard: obs::SpanGuard) {
        let at = self.sim.now();
        self.w.obs.spans.end(at, guard);
    }
}

// The dispatcher needs to observe whether a blocked thread was legitimately
// registered; re-exported for world.rs.
pub(crate) fn _assert_types() {
    fn _is_state(_: ThreadState) {}
}
