//! End-to-end behaviour of the simulated OS: sockets with flow control,
//! pipes, ptys, fork/wait, shared memory, and remote spawn — the substrate
//! semantics DMTCP depends on.

use oskit::proc::{ProcState, ThreadState};
use oskit::program::{Program, Registry, Step};
use oskit::world::{NodeId, OsSim, Pid, World};
use oskit::{Errno, Fd, HwSpec, Kernel};
use simkit::{Nanos, Sim};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

fn world(nodes: usize) -> (World, OsSim) {
    (
        World::new(HwSpec::default(), nodes, Registry::new()),
        Sim::new(),
    )
}

fn spawn(w: &mut World, sim: &mut OsSim, node: u32, cmd: &str, prog: Box<dyn Program>) -> Pid {
    w.spawn(sim, NodeId(node), cmd, prog, Pid(1), BTreeMap::new())
}

fn assert_exit(w: &World, pid: Pid, code: i32) {
    match w.procs.get(&pid).map(|p| p.state) {
        Some(ProcState::Zombie(c)) => assert_eq!(c, code, "pid {} exit code", pid.0),
        other => panic!("pid {} not a zombie: {:?}", pid.0, other),
    }
}

/// Convenience base: programs that don't survive checkpoints (test-only).
macro_rules! ephemeral {
    ($t:ty, $tag:literal) => {
        impl Program for $t {
            fn step(&mut self, k: &mut Kernel<'_>) -> Step {
                self.run(k)
            }
            fn tag(&self) -> &'static str {
                $tag
            }
            fn save(&self) -> Vec<u8> {
                unimplemented!("test program is never checkpointed")
            }
        }
    };
}

// ---------------------------------------------------------------------
// TCP echo across nodes
// ---------------------------------------------------------------------

struct EchoServer {
    lfd: Fd,
    cfd: Fd,
    pc: u8,
    echoed: Rc<RefCell<u64>>,
}
impl EchoServer {
    fn run(&mut self, k: &mut Kernel<'_>) -> Step {
        loop {
            match self.pc {
                0 => {
                    let (fd, _) = k.listen_on(5000).expect("listen");
                    self.lfd = fd;
                    self.pc = 1;
                }
                1 => match k.accept(self.lfd) {
                    Ok(fd) => {
                        self.cfd = fd;
                        self.pc = 2;
                    }
                    Err(Errno::WouldBlock) => return Step::Block,
                    Err(e) => panic!("accept: {e:?}"),
                },
                2 => match k.read(self.cfd, 64 * 1024) {
                    Ok(b) if b.is_empty() => return Step::Exit(0), // client EOF
                    Ok(b) => {
                        *self.echoed.borrow_mut() += b.len() as u64;
                        let n = k.write(self.cfd, &b).expect("echo write");
                        assert_eq!(n, b.len(), "echo must fit the window");
                    }
                    Err(Errno::WouldBlock) => return Step::Block,
                    Err(e) => panic!("read: {e:?}"),
                },
                _ => unreachable!(),
            }
        }
    }
}
ephemeral!(EchoServer, "echo-server");

struct EchoClient {
    fd: Fd,
    pc: u8,
    sent: u32,
    rounds: u32,
    pending: Vec<u8>,
    got: Vec<u8>,
    log: Rc<RefCell<Vec<Vec<u8>>>>,
}
impl EchoClient {
    fn run(&mut self, k: &mut Kernel<'_>) -> Step {
        loop {
            match self.pc {
                0 => match k.connect("node01", 5000) {
                    Ok(fd) => {
                        self.fd = fd;
                        self.pc = 1;
                    }
                    Err(Errno::ConnRefused) => return Step::Sleep(Nanos::from_millis(1)),
                    Err(e) => panic!("connect: {e:?}"),
                },
                1 => {
                    if self.sent == self.rounds {
                        k.close(self.fd).expect("close");
                        return Step::Exit(7);
                    }
                    self.pending = format!("msg-{:04}|", self.sent).into_bytes();
                    let n = k.write(self.fd, &self.pending).expect("send");
                    assert_eq!(n, self.pending.len());
                    self.got.clear();
                    self.pc = 2;
                }
                2 => match k.read(self.fd, 4096) {
                    Ok(b) if b.is_empty() => panic!("server hung up early"),
                    Ok(b) => {
                        self.got.extend_from_slice(&b);
                        if self.got.len() == self.pending.len() {
                            assert_eq!(self.got, self.pending, "echo mismatch");
                            self.log.borrow_mut().push(self.got.clone());
                            self.sent += 1;
                            self.pc = 1;
                        }
                    }
                    Err(Errno::WouldBlock) => return Step::Block,
                    Err(e) => panic!("recv: {e:?}"),
                },
                _ => unreachable!(),
            }
        }
    }
}
ephemeral!(EchoClient, "echo-client");

#[test]
fn tcp_echo_round_trips_across_nodes() {
    let (mut w, mut sim) = world(2);
    let echoed = Rc::new(RefCell::new(0u64));
    let log = Rc::new(RefCell::new(Vec::new()));
    let server = spawn(
        &mut w,
        &mut sim,
        1,
        "server",
        Box::new(EchoServer {
            lfd: -1,
            cfd: -1,
            pc: 0,
            echoed: echoed.clone(),
        }),
    );
    let client = spawn(
        &mut w,
        &mut sim,
        0,
        "client",
        Box::new(EchoClient {
            fd: -1,
            pc: 0,
            sent: 0,
            rounds: 50,
            pending: Vec::new(),
            got: Vec::new(),
            log: log.clone(),
        }),
    );
    assert!(sim.run_bounded(&mut w, 1_000_000), "echo deadlocked");
    assert_exit(&w, client, 7);
    assert_exit(&w, server, 0);
    assert_eq!(*echoed.borrow(), 50 * 9);
    assert_eq!(log.borrow().len(), 50);
    // 50 round trips, each ≥ 2× latency.
    let min = 100 * w.spec.net_latency.0;
    assert!(sim.now().0 >= min, "{} < {min}", sim.now().0);
}

// ---------------------------------------------------------------------
// Pipe flow control
// ---------------------------------------------------------------------

struct PipeProducer {
    wfd: Fd,
    total: usize,
    sent: usize,
    pc: u8,
}
impl PipeProducer {
    fn run(&mut self, k: &mut Kernel<'_>) -> Step {
        if self.pc == 1 {
            return Step::Exit(0);
        }
        while self.sent < self.total {
            let chunk_len = 8192.min(self.total - self.sent);
            let chunk: Vec<u8> = (self.sent..self.sent + chunk_len)
                .map(|i| (i % 251) as u8)
                .collect();
            match k.write(self.wfd, &chunk) {
                Ok(n) => self.sent += n,
                Err(Errno::WouldBlock) => return Step::Block,
                Err(e) => panic!("pipe write: {e:?}"),
            }
        }
        k.close(self.wfd).expect("close write end");
        self.pc = 1;
        Step::Yield
    }
}
ephemeral!(PipeProducer, "pipe-producer");

struct PipeConsumer {
    rfd: Fd,
    got: usize,
    ok: Rc<RefCell<bool>>,
}
impl PipeConsumer {
    fn run(&mut self, k: &mut Kernel<'_>) -> Step {
        loop {
            match k.read(self.rfd, 4096) {
                Ok(b) if b.is_empty() => {
                    *self.ok.borrow_mut() = true;
                    return Step::Exit(0);
                }
                Ok(b) => {
                    for (j, &byte) in b.iter().enumerate() {
                        assert_eq!(byte, ((self.got + j) % 251) as u8, "byte order broken");
                    }
                    self.got += b.len();
                }
                Err(Errno::WouldBlock) => return Step::Block,
                Err(e) => panic!("pipe read: {e:?}"),
            }
        }
    }
}
ephemeral!(PipeConsumer, "pipe-consumer");

/// Parent sets up the pipe and hands ends to two children via fd
/// inheritance — also exercising fork-style fd sharing.
struct PipeParent {
    pc: u8,
    rfd: Fd,
    wfd: Fd,
    kids: Vec<Pid>,
    total: usize,
    ok: Rc<RefCell<bool>>,
}
impl PipeParent {
    fn run(&mut self, k: &mut Kernel<'_>) -> Step {
        loop {
            match self.pc {
                0 => {
                    let (r, wfd) = k.pipe();
                    self.rfd = r;
                    self.wfd = wfd;
                    // Children share the conn ends through spawned fd refs:
                    // dup the entries into the children after spawn.
                    // Children are told their end will land at fd 3 (the
                    // first free slot in a fresh table — asserted below).
                    let prod = k.spawn_process(
                        "producer",
                        Box::new(PipeProducer {
                            wfd: 3,
                            total: self.total,
                            sent: 0,
                            pc: 0,
                        }),
                    );
                    let cons = k.spawn_process(
                        "consumer",
                        Box::new(PipeConsumer {
                            rfd: 3,
                            got: 0,
                            ok: self.ok.clone(),
                        }),
                    );
                    // Model fd passing: install the parent's entries into the
                    // children (what fork inheritance would have done). The
                    // children have not stepped yet — spawn only queued their
                    // first dispatch — so this lands before they run.
                    let wobj = k.fd_object(self.wfd).unwrap();
                    let robj = k.fd_object(self.rfd).unwrap();
                    for (pid, obj) in [(prod, wobj), (cons, robj)] {
                        k.w.retain_obj(obj);
                        let child = k.w.procs.get_mut(&pid).unwrap();
                        let fd = child.fds.install(oskit::fdtable::FdEntry {
                            obj,
                            cloexec: false,
                        });
                        assert_eq!(fd, 3);
                    }
                    // Parent closes its copies (real shells do).
                    k.close(self.rfd).unwrap();
                    k.close(self.wfd).unwrap();
                    self.kids = vec![prod, cons];
                    self.pc = 1;
                }
                1 => {
                    let kid = *self.kids.last().expect("kids remain");
                    match k.waitpid(kid) {
                        Ok(_) => {
                            self.kids.pop();
                            if self.kids.is_empty() {
                                return Step::Exit(0);
                            }
                        }
                        Err(Errno::WouldBlock) => return Step::Block,
                        Err(e) => panic!("waitpid: {e:?}"),
                    }
                }
                _ => unreachable!(),
            }
        }
    }
}
ephemeral!(PipeParent, "pipe-parent");

#[test]
fn pipe_respects_flow_control_and_preserves_order() {
    let (mut w, mut sim) = world(1);
    let ok = Rc::new(RefCell::new(false));
    // 1 MiB through a 64 KiB window forces many block/wake cycles.
    let parent = spawn(
        &mut w,
        &mut sim,
        0,
        "parent",
        Box::new(PipeParent {
            pc: 0,
            rfd: -1,
            wfd: -1,
            kids: Vec::new(),
            total: 1 << 20,
            ok: ok.clone(),
        }),
    );
    // The children read their fd as 3 (asserted above); patch the programs
    // via first dispatch — they were spawned with fd = -1 placeholders, so
    // fix them up before the first step by setting the field through the
    // world. Simpler: they were created before fd install, so their first
    // step must find fd 3. Swap the placeholder now.
    assert!(sim.run_bounded(&mut w, 3_000_000), "pipe deadlocked");
    assert_exit(&w, parent, 0);
    assert!(*ok.borrow(), "consumer saw full ordered stream + EOF");
}

// ---------------------------------------------------------------------
// Pty echo & termios
// ---------------------------------------------------------------------

struct PtyUser {
    pc: u8,
    master: Fd,
    slave: Fd,
    seen: Rc<RefCell<Vec<u8>>>,
}
impl PtyUser {
    fn run(&mut self, k: &mut Kernel<'_>) -> Step {
        loop {
            match self.pc {
                0 => {
                    let (m, s) = k.openpty();
                    self.master = m;
                    self.slave = s;
                    k.set_ctty(s).expect("ctty");
                    let mut t = k.tcgetattr(s).unwrap();
                    t.echo = false;
                    t.rows = 50;
                    k.tcsetattr(s, t).unwrap();
                    assert_eq!(k.ptsname(m).unwrap(), "/dev/pts/0");
                    k.write(self.master, b"ls\n").unwrap();
                    self.pc = 1;
                }
                1 => match k.read(self.slave, 16) {
                    Ok(b) => {
                        assert_eq!(b, b"ls\n");
                        k.write(self.slave, b"file\n").unwrap();
                        self.pc = 2;
                    }
                    Err(Errno::WouldBlock) => return Step::Block,
                    Err(e) => panic!("slave read: {e:?}"),
                },
                2 => match k.read(self.master, 16) {
                    Ok(b) => {
                        self.seen.borrow_mut().extend_from_slice(&b);
                        // onlcr: \n became \r\n
                        assert_eq!(&*self.seen.borrow(), b"file\r\n");
                        assert_eq!(k.tcgetattr(self.master).unwrap().rows, 50);
                        return Step::Exit(0);
                    }
                    Err(Errno::WouldBlock) => return Step::Block,
                    Err(e) => panic!("master read: {e:?}"),
                },
                _ => unreachable!(),
            }
        }
    }
}
ephemeral!(PtyUser, "pty-user");

#[test]
fn pty_pair_echo_and_modes() {
    let (mut w, mut sim) = world(1);
    let seen = Rc::new(RefCell::new(Vec::new()));
    let pid = spawn(
        &mut w,
        &mut sim,
        0,
        "ptytest",
        Box::new(PtyUser {
            pc: 0,
            master: -1,
            slave: -1,
            seen,
        }),
    );
    assert!(sim.run_bounded(&mut w, 100_000));
    assert_exit(&w, pid, 0);
    // Process exit released both pty fds; the pty must be gone.
    assert!(w.ptys.is_empty(), "pty leaked after close");
}

// ---------------------------------------------------------------------
// fork_snapshot semantics
// ---------------------------------------------------------------------

struct Forker {
    pc: u8,
    counter: u64,
    child: u32,
}
simkit::impl_snap!(struct Forker { pc, counter, child });
impl Program for Forker {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        loop {
            match self.pc {
                0 => {
                    self.counter = 41;
                    self.pc = 1; // child resumes here too
                    let child = k.fork_snapshot(self).expect("fork");
                    self.child = child.0;
                }
                1 => {
                    match k.fork_ret() {
                        Some(0) => {
                            // Child: exits with a code derived from the
                            // snapshotted counter, proving state carried over.
                            return Step::Exit(self.counter as i32 + 1);
                        }
                        _ => {
                            k.clear_fork_ret();
                            self.pc = 2;
                        }
                    }
                }
                2 => match k.waitpid(Pid(self.child)) {
                    Ok(code) => {
                        assert_eq!(code, 42, "child exit code");
                        return Step::Exit(0);
                    }
                    Err(Errno::WouldBlock) => return Step::Block,
                    Err(e) => panic!("waitpid: {e:?}"),
                },
                _ => unreachable!(),
            }
        }
    }
    fn tag(&self) -> &'static str {
        "forker"
    }
    fn save(&self) -> Vec<u8> {
        use simkit::Snap;
        self.to_snap_bytes()
    }
}

#[test]
fn fork_snapshot_duplicates_state_and_waitpid_reaps() {
    let mut reg = Registry::new();
    reg.register_snap::<Forker>("forker");
    let mut w = World::new(HwSpec::default(), 1, reg);
    let mut sim = Sim::new();
    let pid = spawn(
        &mut w,
        &mut sim,
        0,
        "forker",
        Box::new(Forker {
            pc: 0,
            counter: 0,
            child: 0,
        }),
    );
    assert!(sim.run_bounded(&mut w, 100_000));
    assert_exit(&w, pid, 0);
    // Child was reaped by waitpid.
    assert_eq!(w.procs.len(), 1);
}

// ---------------------------------------------------------------------
// Shared memory across processes
// ---------------------------------------------------------------------

struct ShmWriter {
    pc: u8,
}
impl ShmWriter {
    fn run(&mut self, k: &mut Kernel<'_>) -> Step {
        match self.pc {
            0 => {
                let region = k.mmap_shared("/tmp/seg", 4096).expect("mmap");
                k.mem_write(region, 100, b"shared-hello");
                self.pc = 1;
                Step::Exit(0)
            }
            _ => unreachable!(),
        }
    }
}
ephemeral!(ShmWriter, "shm-writer");

struct ShmReader {
    pc: u8,
    ok: Rc<RefCell<bool>>,
}
impl ShmReader {
    fn run(&mut self, k: &mut Kernel<'_>) -> Step {
        match self.pc {
            0 => {
                self.pc = 1;
                Step::Sleep(Nanos::from_millis(10)) // let the writer go first
            }
            1 => {
                let region = k.mmap_shared("/tmp/seg", 4096).expect("mmap");
                let got = k.mem_read(region, 100, 12);
                assert_eq!(got, b"shared-hello");
                *self.ok.borrow_mut() = true;
                Step::Exit(0)
            }
            _ => unreachable!(),
        }
    }
}
ephemeral!(ShmReader, "shm-reader");

#[test]
fn shared_memory_aliases_between_processes() {
    let (mut w, mut sim) = world(1);
    let ok = Rc::new(RefCell::new(false));
    spawn(&mut w, &mut sim, 0, "w", Box::new(ShmWriter { pc: 0 }));
    spawn(
        &mut w,
        &mut sim,
        0,
        "r",
        Box::new(ShmReader {
            pc: 0,
            ok: ok.clone(),
        }),
    );
    assert!(sim.run_bounded(&mut w, 100_000));
    assert!(*ok.borrow());
    // The backing file was created by the first mapper.
    assert!(w.nodes[0].fs.exists("/tmp/seg"));
}

// ---------------------------------------------------------------------
// ssh spawn
// ---------------------------------------------------------------------

struct RemoteHello {
    done: Rc<RefCell<Option<Nanos>>>,
}
impl RemoteHello {
    fn run(&mut self, k: &mut Kernel<'_>) -> Step {
        assert_eq!(k.hostname(), "node03");
        *self.done.borrow_mut() = Some(k.now());
        Step::Exit(0)
    }
}
ephemeral!(RemoteHello, "remote-hello");

struct SshLauncher {
    done: Rc<RefCell<Option<Nanos>>>,
}
impl SshLauncher {
    fn run(&mut self, k: &mut Kernel<'_>) -> Step {
        k.ssh_spawn(
            "node03",
            "hello",
            Box::new(RemoteHello {
                done: self.done.clone(),
            }),
            BTreeMap::new(),
        )
        .expect("ssh");
        Step::Exit(0)
    }
}
ephemeral!(SshLauncher, "ssh-launcher");

#[test]
fn ssh_spawn_starts_remote_process_after_setup_delay() {
    let (mut w, mut sim) = world(4);
    let done = Rc::new(RefCell::new(None));
    spawn(
        &mut w,
        &mut sim,
        0,
        "launcher",
        Box::new(SshLauncher { done: done.clone() }),
    );
    assert!(sim.run_bounded(&mut w, 10_000));
    let t = done.borrow().expect("remote ran");
    assert!(
        t >= Nanos::from_millis(40),
        "ssh setup delay applied: {t:?}"
    );
}

// ---------------------------------------------------------------------
// dup2 + shared file offsets (open-file table semantics)
// ---------------------------------------------------------------------

struct DupTest {
    pc: u8,
}
impl DupTest {
    fn run(&mut self, k: &mut Kernel<'_>) -> Step {
        match self.pc {
            0 => {
                let fd = k.open("/data/log", true).unwrap();
                k.write(fd, b"abcdef").unwrap();
                k.lseek(fd, 0).unwrap();
                let dup = k.dup(fd).unwrap();
                // Reading via the dup advances the *shared* offset.
                assert_eq!(k.read(dup, 3).unwrap(), b"abc");
                assert_eq!(k.read(fd, 3).unwrap(), b"def");
                // dup2 onto a chosen number.
                let fixed = k.dup2(fd, 42).unwrap();
                assert_eq!(fixed, 42);
                k.close(fd).unwrap();
                k.close(dup).unwrap();
                // Object stays alive through fd 42.
                k.lseek(42, 1).unwrap();
                assert_eq!(k.read(42, 2).unwrap(), b"bc");
                k.close(42).unwrap();
                assert!(k.read(42, 1).is_err(), "closed fd must fail");
                Step::Exit(0)
            }
            _ => unreachable!(),
        }
    }
}
ephemeral!(DupTest, "dup-test");

#[test]
fn dup_shares_offsets_and_keeps_objects_alive() {
    let (mut w, mut sim) = world(1);
    let pid = spawn(&mut w, &mut sim, 0, "dup", Box::new(DupTest { pc: 0 }));
    assert!(sim.run_bounded(&mut w, 10_000));
    assert_exit(&w, pid, 0);
    assert!(w.open_files.is_empty(), "open-file table leaked");
}

// ---------------------------------------------------------------------
// Waiter lists and readiness watchers
// ---------------------------------------------------------------------

struct Parked;
impl Parked {
    fn run(&mut self, k: &mut Kernel<'_>) -> Step {
        k.block_forever();
        Step::Block
    }
}
ephemeral!(Parked, "parked");

/// Issue syscalls as `pid` from the host, outside any step.
fn syscalls<R>(
    w: &mut World,
    sim: &mut OsSim,
    pid: Pid,
    f: impl FnOnce(&mut Kernel<'_>) -> R,
) -> R {
    f(&mut Kernel::new(w, sim, pid, oskit::Tid(0)))
}

/// Polls four idle objects a thousand times each in one step, then blocks.
struct Poller;
impl Poller {
    fn run(&mut self, k: &mut Kernel<'_>) -> Step {
        let (a, _b) = k.socketpair();
        let (lfd, _) = k.listen_on(7000).unwrap();
        let (master, _slave) = k.openpty();
        // Fill a -> b to the brim so further sends block too.
        let window = vec![0u8; oskit::net::CONN_CAPACITY as usize];
        assert_eq!(k.write(a, &window).unwrap(), window.len());
        for _ in 0..1000 {
            assert_eq!(k.read(a, 16), Err(Errno::WouldBlock));
            assert_eq!(k.write(a, b"x"), Err(Errno::WouldBlock));
            assert_eq!(k.accept(lfd).err(), Some(Errno::WouldBlock));
            assert_eq!(k.read(master, 16), Err(Errno::WouldBlock));
        }
        Step::Block
    }
}
ephemeral!(Poller, "poller");

#[test]
fn polling_an_idle_object_registers_one_waiter_not_one_per_poll() {
    let (mut w, mut sim) = world(1);
    let pid = spawn(&mut w, &mut sim, 0, "poller", Box::new(Poller));
    sim.run(&mut w);
    let me = (pid, oskit::Tid(0));
    let conn = w.conns.values().next().expect("the socketpair");
    assert_eq!(conn.dirs[1].read_waiters, [me], "1000 reads, one waiter");
    assert_eq!(conn.dirs[0].write_waiters, [me], "1000 sends, one waiter");
    let l = w.listeners.values().next().expect("the listener");
    assert_eq!(l.accept_waiters, [me], "1000 accepts, one waiter");
    let pty = w.ptys.values().next().expect("the pty");
    assert_eq!(pty.master_read_waiters, [me], "1000 pty reads, one waiter");
    assert_eq!(
        w.obs
            .metrics
            .counter("oskit.sock.would_block", pid.0 as u64),
        1000,
        "socket reads that found nothing are counted per caller"
    );
}

#[test]
fn watcher_reports_readiness_and_dies_with_the_last_fd_reference() {
    let (mut w, mut sim) = world(1);
    let pid = spawn(&mut w, &mut sim, 0, "watcher", Box::new(Parked));
    sim.run(&mut w);
    let (a, b, a2) = syscalls(&mut w, &mut sim, pid, |k| {
        let (a, b) = k.socketpair();
        assert_eq!(k.watch_read(a, 7), Ok(()));
        assert!(k.take_ready().is_empty(), "nothing to read yet");
        let (m, _s) = k.openpty();
        assert_eq!(k.watch_read(m, 1), Err(Errno::NotSock));
        (a, b, k.dup(a).unwrap())
    });
    let cid = *w.conns.keys().next().expect("the socketpair");
    let dump = oskit::dump::dump_json(&w, sim.now());
    obs::json::validate(&dump).unwrap();
    assert!(
        dump.contains(&format!(
            "\"watchers\":[{{\"pid\":{},\"tid\":0,\"token\":7}},null]",
            pid.0
        )),
        "dump names the watcher: {dump}"
    );

    // Data, delivered: the token is posted (once, however many segments).
    syscalls(&mut w, &mut sim, pid, |k| {
        k.write(b, b"one").unwrap();
        k.write(b, b"two").unwrap();
    });
    sim.run(&mut w);
    syscalls(&mut w, &mut sim, pid, |k| {
        assert_eq!(k.take_ready(), [7]);
        assert!(k.take_ready().is_empty(), "drained");
        assert_eq!(k.read(a, 64).unwrap(), b"onetwo");
        // Registering on an already-readable object reports it at once.
        k.write(b, b"!").unwrap();
    });
    sim.run(&mut w);
    syscalls(&mut w, &mut sim, pid, |k| {
        assert_eq!(k.take_ready(), [7]);
        k.watch_read(a, 8).unwrap();
        assert_eq!(k.take_ready(), [8], "re-registration sees the pending byte");
        assert_eq!(k.read(a, 64).unwrap(), b"!");
        // Half-close is a readable-by-EOF transition.
        k.shutdown_write(b).unwrap();
        assert_eq!(k.take_ready(), [8]);
        assert_eq!(k.read(a, 64).unwrap(), b"", "EOF");
        // One of two references gone: the watcher stays.
        k.close(a).unwrap();
    });
    assert!(
        w.conns[&cid].watchers[0].is_some(),
        "dup keeps the end open"
    );
    syscalls(&mut w, &mut sim, pid, |k| k.close(a2).unwrap());
    assert_eq!(w.conns[&cid].watchers, [None, None], "last reference gone");
}

/// The edge rule: a watcher wakes its thread when its token *newly* enters
/// the ready set, not on every delivery. A suspended thread — a checkpoint's
/// drain and refill deliver to it again and again — is dispatched (and
/// parks) once, however many segments land, until `take_ready` re-arms it.
#[test]
fn watcher_wakes_a_suspended_thread_once_until_take_ready() {
    let (mut w, mut sim) = world(1);
    let pid = spawn(&mut w, &mut sim, 0, "watcher", Box::new(Parked));
    sim.run(&mut w);
    let (a, b) = syscalls(&mut w, &mut sim, pid, |k| {
        let (a, b) = k.socketpair();
        k.watch_read(a, 7).unwrap();
        (a, b)
    });
    w.suspend_user_threads(&mut sim, pid);
    // One segment; the dispatches it caused (every event but the delivery).
    let deliver = |w: &mut World, sim: &mut OsSim| {
        let before = sim.events_fired();
        syscalls(w, sim, pid, |k| k.write(b, b"seg").unwrap());
        sim.run(w);
        sim.events_fired() - before - 1
    };
    let dispatches: Vec<u64> = (0..5).map(|_| deliver(&mut w, &mut sim)).collect();
    assert_eq!(dispatches, [1, 0, 0, 0, 0], "one wake per token");
    assert_eq!(w.procs[&pid].threads[0].state, ThreadState::Runnable);
    syscalls(&mut w, &mut sim, pid, |k| {
        assert_eq!(k.take_ready(), [7]);
        assert_eq!(k.read(a, 64).unwrap(), b"segsegsegsegseg");
    });
    assert_eq!(deliver(&mut w, &mut sim), 1, "take_ready re-arms the watch");
    assert_eq!(deliver(&mut w, &mut sim), 0);
    // Thawed, the woken thread runs once and blocks again.
    w.resume_user_threads(&mut sim, pid);
    let before = sim.events_fired();
    sim.run(&mut w);
    assert_eq!(sim.events_fired() - before, 1);
    assert_eq!(w.procs[&pid].threads[0].state, ThreadState::Blocked);
}

/// Maps three regions, then touches them one step at a time, logging when
/// each step was dispatched: `hot` at 1 ms, `cold` at 2 ms (then asks to
/// run again at once), `late` by a write at the next step (then blocks).
struct FillProbe {
    pc: u8,
    ids: Vec<oskit::mem::RegionId>,
    log: Rc<RefCell<Vec<Nanos>>>,
}
impl FillProbe {
    fn run(&mut self, k: &mut Kernel<'_>) -> Step {
        if self.pc == 0 {
            self.ids = ["hot", "cold", "late"]
                .map(|name| k.mmap_anon(name, 4096))
                .to_vec();
            self.pc = 1;
            return Step::Sleep(Nanos::from_millis(1));
        }
        self.log.borrow_mut().push(k.now());
        self.pc += 1;
        match self.pc {
            2 => {
                k.mem_read(self.ids[0], 0, 8);
                Step::Sleep(Nanos::from_millis(1))
            }
            3 => {
                k.mem_read(self.ids[1], 0, 8);
                Step::Sleep(Nanos::ZERO)
            }
            4 => {
                k.mem_write(self.ids[2], 0, b"x");
                k.block_forever();
                Step::Block
            }
            _ => Step::Exit(0),
        }
    }
}
ephemeral!(FillProbe, "fill-probe");

/// A restore fills regions in behind a running process: a step touching one
/// before its `ready_at` stalls there, so the thread is next dispatched from
/// that instant — even when it blocked and was woken sooner — and each such
/// step counts one fill fault and its wait.
#[test]
fn a_step_touching_a_region_before_it_lands_stalls_until_it_does() {
    let (mut w, mut sim) = world(1);
    let log = Rc::new(RefCell::new(Vec::new()));
    let probe = FillProbe {
        pc: 0,
        ids: Vec::new(),
        log: log.clone(),
    };
    let pid = spawn(&mut w, &mut sim, 0, "probe", Box::new(probe));
    sim.run_until(&mut w, Nanos::from_micros(500));
    let mem = &mut w.procs.get_mut(&pid).expect("probe").mem;
    let id = |mem: &oskit::mem::AddressSpace, name: &str| {
        mem.iter().find(|(_, r)| r.name == name).expect("mapped").0
    };
    let (cold, late) = (id(mem, "cold"), id(mem, "late"));
    mem.set_ready_at(cold, Nanos::from_millis(50));
    mem.set_ready_at(late, Nanos::from_millis(80));

    sim.run_until(&mut w, Nanos::from_millis(60));
    // Blocked since 50 ms, stalled on `late` until 80: a wake now is early.
    w.wake(&mut sim, (pid, oskit::Tid(0)));
    sim.run(&mut w);
    let ms = Nanos::from_millis;
    assert_eq!(*log.borrow(), [ms(1), ms(2), ms(50), ms(80)]);
    assert_exit(&w, pid, 0);
    let m = &w.obs.metrics;
    assert_eq!(m.counter_total("oskit.mem.fill_faults"), 2);
    assert_eq!(m.counter_total("oskit.mem.fill_wait_ns"), ms(48 + 30).0);
}

/// The typed world-extension store the layers above keep their shared
/// state in: keyed by type alone, reads never insert, removal resets.
#[test]
fn typed_ext_store_is_keyed_by_type_alone() {
    #[derive(Default, Debug, PartialEq)]
    struct Hits(u32);
    #[derive(Default, Debug, PartialEq)]
    struct Misses(u32);
    let (mut w, _) = world(1);
    // A lookup of an absent type reports absence and does not create it.
    assert!(w.ext_ref::<Hits>().is_none());
    assert!(w.ext_ref::<Hits>().is_none(), "ext_ref must not insert");
    // Two types with the same shape never collide.
    w.ext::<Hits>().0 = 7;
    w.ext::<Misses>().0 += 1;
    assert_eq!(w.ext_ref::<Hits>(), Some(&Hits(7)));
    assert_eq!(w.ext_ref::<Misses>(), Some(&Misses(1)));
    // Removal hands the value back and the next `ext` starts over.
    assert_eq!(w.ext_remove::<Hits>(), Some(Hits(7)));
    assert_eq!(w.ext_remove::<Hits>(), None);
    assert!(w.ext_ref::<Hits>().is_none());
    assert_eq!(*w.ext::<Hits>(), Hits(0));
    assert_eq!(w.ext_ref::<Misses>(), Some(&Misses(1)), "neighbour kept");
}
