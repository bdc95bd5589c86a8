//! Processes and threads.

use crate::fdtable::FdTable;
use crate::mem::AddressSpace;
use crate::program::Program;
use crate::pty::PtyId;
use crate::world::{NodeId, Pid, Tid};
use simkit::Nanos;
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Signal numbers (tiny subset).
pub mod sig {
    /// Termination request.
    pub const SIGTERM: u8 = 15;
    /// Kill (uncatchable).
    pub const SIGKILL: u8 = 9;
    /// User signal 1.
    pub const SIGUSR1: u8 = 10;
    /// User signal 2 (real MTCP's suspend signal).
    pub const SIGUSR2: u8 = 12;
    /// Child stopped/terminated.
    pub const SIGCHLD: u8 = 17;
}

/// What a thread is doing, from the scheduler's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadState {
    /// Will be stepped when dispatched.
    Runnable,
    /// Waiting for a kernel object to wake it.
    Blocked,
    /// Finished (its program asked to exit or the process died).
    Exited,
}

/// Disposition of a signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SigAction {
    /// Default action (terminate for TERM/KILL, ignore otherwise here).
    Default,
    /// Ignore.
    Ignore,
    /// Deliver to the program's `on_signal`.
    Handler,
}

simkit::impl_snap!(
    enum SigAction {
        Default,
        Ignore,
        Handler,
    }
);

/// A simulated thread.
pub struct Thread {
    /// Process-unique id.
    pub tid: Tid,
    /// Scheduler state.
    pub state: ThreadState,
    /// User thread (checkpointable) vs. manager thread (the DMTCP
    /// checkpoint thread, which keeps running while users are suspended).
    pub user: bool,
    /// The running program (swapped for a tombstone during dispatch).
    pub program: Box<dyn Program>,
    /// A dispatch event is already queued.
    pub dispatch_pending: bool,
    /// Return register of the last `fork` (0 in the child).
    pub fork_ret: Option<u32>,
    /// Tokens of watched objects (`Kernel::watch_read`) that became readable
    /// since this thread's last `Kernel::take_ready` — sorted, de-duplicated.
    pub ready: BTreeSet<u64>,
    /// A fill fault holds this thread until then: no dispatch of it is
    /// scheduled earlier (see [`crate::mem::Region::ready_at`]).
    pub stalled_until: Nanos,
}

impl std::fmt::Debug for Thread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Thread")
            .field("tid", &self.tid)
            .field("state", &self.state)
            .field("user", &self.user)
            .field("program", &self.program.tag())
            .finish()
    }
}

/// Process lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcState {
    /// Alive.
    Running,
    /// Exited, not yet reaped by the parent.
    Zombie(i32),
}

/// A simulated process.
pub struct Process {
    /// Real pid in the current world.
    pub pid: Pid,
    /// Parent pid.
    pub ppid: Pid,
    /// Node this process runs on.
    pub node: NodeId,
    /// Command name (`/proc/<pid>/comm`).
    pub cmd: String,
    /// Address space.
    pub mem: AddressSpace,
    /// Fd table.
    pub fds: FdTable,
    /// Threads (index 0 is the main thread).
    pub threads: Vec<Thread>,
    /// Lifecycle state.
    pub state: ProcState,
    /// MTCP has suspended user threads (checkpoint stage 2).
    pub user_suspended: bool,
    /// Environment (carries the `DMTCP_*` injection variables).
    pub env: BTreeMap<String, String>,
    /// Signal dispositions.
    pub sig_actions: BTreeMap<u8, SigAction>,
    /// Signals delivered but not yet handled.
    pub pending_signals: VecDeque<u8>,
    /// Controlling terminal.
    pub ctty: Option<PtyId>,
    /// Threads of the *parent* blocked in `waitpid` for this process.
    pub wait_waiters: Vec<(Pid, Tid)>,
    /// Extension slot for the checkpoint layer's per-process state (the
    /// injected `dmtcphijack.so` analogue). Opaque to the kernel.
    pub ext: Option<Box<dyn Any>>,
    /// Virtual pid presented to the application by `getpid` when set —
    /// installed by the checkpoint layer's pid-virtualization wrappers.
    pub virt_pid: Option<u32>,
    /// Virtual→real pid translation used by `kill`/`waitpid` wrappers.
    /// Identity entries are inserted at process creation; restart rewires
    /// the real sides.
    pub pid_map: BTreeMap<u32, u32>,
    next_tid: u32,
}

impl std::fmt::Debug for Process {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Process")
            .field("pid", &self.pid)
            .field("ppid", &self.ppid)
            .field("node", &self.node)
            .field("cmd", &self.cmd)
            .field("state", &self.state)
            .field("threads", &self.threads.len())
            .field("fds", &self.fds.len())
            .finish()
    }
}

impl Process {
    /// A new single-threaded process running `main_prog`.
    pub fn new(
        pid: Pid,
        ppid: Pid,
        node: NodeId,
        cmd: String,
        main_prog: Box<dyn Program>,
    ) -> Self {
        let mut p = Process {
            pid,
            ppid,
            node,
            cmd,
            mem: AddressSpace::new(),
            fds: FdTable::new(),
            threads: Vec::new(),
            state: ProcState::Running,
            user_suspended: false,
            env: BTreeMap::new(),
            sig_actions: BTreeMap::new(),
            pending_signals: VecDeque::new(),
            ctty: None,
            wait_waiters: Vec::new(),
            ext: None,
            virt_pid: None,
            pid_map: BTreeMap::new(),
            next_tid: 0,
        };
        p.add_thread(main_prog, true);
        p
    }

    /// Add a thread running `program`; returns its tid.
    pub fn add_thread(&mut self, program: Box<dyn Program>, user: bool) -> Tid {
        let tid = Tid(self.next_tid);
        self.next_tid += 1;
        self.threads.push(Thread {
            tid,
            state: ThreadState::Runnable,
            user,
            program,
            dispatch_pending: false,
            fork_ret: None,
            ready: BTreeSet::new(),
            stalled_until: Nanos::ZERO,
        });
        tid
    }

    /// Borrow a thread by tid.
    pub fn thread(&self, tid: Tid) -> Option<&Thread> {
        self.threads.iter().find(|t| t.tid == tid)
    }

    /// Mutably borrow a thread by tid.
    pub fn thread_mut(&mut self, tid: Tid) -> Option<&mut Thread> {
        self.threads.iter_mut().find(|t| t.tid == tid)
    }

    /// Live (non-exited) thread count.
    pub fn live_threads(&self) -> usize {
        self.threads
            .iter()
            .filter(|t| t.state != ThreadState::Exited)
            .count()
    }

    /// Live *user* threads.
    pub fn live_user_threads(&self) -> usize {
        self.threads
            .iter()
            .filter(|t| t.user && t.state != ThreadState::Exited)
            .count()
    }

    /// Whether this process is alive.
    pub fn alive(&self) -> bool {
        self.state == ProcState::Running
    }
}

/// A captured thread context: what MTCP stores in the image for one thread.
/// `tag` names the code (executable analogue); `state` is the opaque
/// register/stack blob; the checkpointer never interprets it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadCtx {
    /// Program registry tag.
    pub tag: String,
    /// Serialized program state.
    pub state: Vec<u8>,
    /// Was this a user thread?
    pub user: bool,
    /// Was it blocked at suspend time? (Restored threads re-poll, so this
    /// is advisory: they restart as runnable and re-issue their syscall.)
    pub blocked: bool,
}

simkit::impl_snap!(struct ThreadCtx { tag, state, user, blocked });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Kernel;
    use crate::program::Step;

    struct Nop;
    impl Program for Nop {
        fn step(&mut self, _k: &mut Kernel<'_>) -> Step {
            Step::Exit(0)
        }
        fn tag(&self) -> &'static str {
            "nop"
        }
        fn save(&self) -> Vec<u8> {
            Vec::new()
        }
    }

    #[test]
    fn new_process_has_one_user_thread() {
        let p = Process::new(Pid(5), Pid(1), NodeId(0), "test".into(), Box::new(Nop));
        assert_eq!(p.threads.len(), 1);
        assert_eq!(p.live_user_threads(), 1);
        assert!(p.alive());
        assert_eq!(p.threads[0].tid, Tid(0));
    }

    #[test]
    fn tids_are_unique_and_ordered() {
        let mut p = Process::new(Pid(5), Pid(1), NodeId(0), "t".into(), Box::new(Nop));
        let a = p.add_thread(Box::new(Nop), true);
        let b = p.add_thread(Box::new(Nop), false);
        assert_eq!((a, b), (Tid(1), Tid(2)));
        assert_eq!(p.live_threads(), 3);
        assert_eq!(p.live_user_threads(), 2);
        p.thread_mut(a).unwrap().state = ThreadState::Exited;
        assert_eq!(p.live_user_threads(), 1);
    }

    #[test]
    fn thread_ctx_snap_roundtrip() {
        use simkit::Snap;
        let c = ThreadCtx {
            tag: "worker".into(),
            state: vec![1, 2, 3],
            user: true,
            blocked: false,
        };
        assert_eq!(ThreadCtx::from_snap_bytes(&c.to_snap_bytes()).unwrap(), c);
    }
}
