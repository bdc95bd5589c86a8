//! End-to-end distributed checkpoint/restart: the headline behaviour of the
//! paper, verified by the applications' own integrity checks.

mod common;

use common::*;
use dmtcp::coord::{coord_shared_for, stage, COORD_PORT};
use dmtcp::session::{run_for, transplant_storage};
use dmtcp::{ExpectCkpt, Options, RestartPlan, Session};
use oskit::proc::ProcState;
use oskit::world::NodeId;
use simkit::Nanos;

const EV: u64 = 5_000_000;

fn opts_shared_dir() -> Options {
    Options::builder().ckpt_dir("/shared/ckpt").build()
}

/// Reference: run the chain app with no DMTCP at all.
fn chain_reference(rounds: u64) -> (String, String) {
    let (mut w, mut sim) = cluster(2);
    use std::collections::BTreeMap;
    w.spawn(
        &mut sim,
        NodeId(1),
        "server",
        Box::new(EchoPlusOne::new(9000)),
        oskit::world::Pid(1),
        BTreeMap::new(),
    );
    w.spawn(
        &mut sim,
        NodeId(0),
        "client",
        Box::new(ChainClient::new("node01", 9000, rounds)),
        oskit::world::Pid(1),
        BTreeMap::new(),
    );
    assert!(sim.run_bounded(&mut w, EV));
    (
        shared_result(&w, "/shared/client_result").expect("client finished"),
        shared_result(&w, "/shared/server_result").expect("server finished"),
    )
}

#[test]
fn checkpoint_mid_stream_then_continue() {
    let rounds = 400;
    let (ref_client, ref_server) = chain_reference(rounds);

    let (mut w, mut sim) = cluster(2);
    let s = Session::start(&mut w, &mut sim, opts_shared_dir());
    launch_chain(&mut w, &mut sim, &s, rounds);
    run_for(&mut w, &mut sim, Nanos::from_millis(40)); // mid-computation
    assert!(w.live_procs() >= 3, "apps + coordinator alive");

    let stat = s.checkpoint_and_wait(&mut w, &mut sim, EV).expect_ckpt();
    assert_eq!(stat.participants, 2);
    assert!(stat.checkpoint_time().is_some());

    // Images + restart script exist on the shared fs.
    let images: Vec<_> = w.shared_fs.list_prefix("/shared/ckpt/").collect();
    assert_eq!(images.len(), 2, "one image per process: {images:?}");
    assert!(w.shared_fs.exists("/shared/dmtcp_restart_script.sh"));

    // The computation continues to the right answer.
    assert!(sim.run_bounded(&mut w, EV), "post-checkpoint deadlock");
    assert_eq!(
        shared_result(&w, "/shared/client_result").as_deref(),
        Some(ref_client.as_str())
    );
    assert_eq!(
        shared_result(&w, "/shared/server_result").as_deref(),
        Some(ref_server.as_str())
    );
}

#[test]
fn kill_and_restart_in_same_world() {
    let rounds = 400;
    let (ref_client, ref_server) = chain_reference(rounds);

    let (mut w, mut sim) = cluster(2);
    let s = Session::start(&mut w, &mut sim, opts_shared_dir());
    launch_chain(&mut w, &mut sim, &s, rounds);
    run_for(&mut w, &mut sim, Nanos::from_millis(40));
    let stat = s.checkpoint_and_wait(&mut w, &mut sim, EV).expect_ckpt();
    let gen = stat.gen;

    // Run a little further (progress past the checkpoint is discarded),
    // then kill the whole computation.
    run_for(&mut w, &mut sim, Nanos::from_millis(20));
    s.kill_computation(&mut w, &mut sim);
    assert_eq!(w.live_procs(), 1, "only the coordinator survives");
    // Results from the pre-kill run must not exist yet.
    assert!(shared_result(&w, "/shared/client_result").is_none());

    // Restart via the typed plan: identity placement, same hosts.
    let outcome = RestartPlan::from_generation(&w, s.opts.coord_port, gen)
        .expect("restart script written")
        .execute(&s, &mut w, &mut sim)
        .expect("identity restart");
    assert_eq!(
        outcome.placement.len(),
        2,
        "two hosts in placement: {:?}",
        outcome.placement
    );
    Session::wait_restart_done(&mut w, &mut sim, gen, EV);

    // The computation resumes and completes with the reference answers.
    assert!(sim.run_bounded(&mut w, EV), "post-restart deadlock");
    assert_eq!(
        shared_result(&w, "/shared/client_result").as_deref(),
        Some(ref_client.as_str())
    );
    assert_eq!(
        shared_result(&w, "/shared/server_result").as_deref(),
        Some(ref_server.as_str())
    );
}

#[test]
fn migrate_cluster_to_single_laptop() {
    // The paper's use case 6: checkpoint on a cluster, restart everything
    // on one machine.
    let rounds = 300;
    let (ref_client, ref_server) = chain_reference(rounds);

    let (mut w, mut sim) = cluster(2);
    let s = Session::start(&mut w, &mut sim, opts_shared_dir());
    launch_chain(&mut w, &mut sim, &s, rounds);
    run_for(&mut w, &mut sim, Nanos::from_millis(40));
    let stat = s.checkpoint_and_wait(&mut w, &mut sim, EV).expect_ckpt();
    let gen = stat.gen;

    // "Laptop": a fresh single-node world; only the shared storage moved.
    let (mut laptop, mut sim2) = {
        let mut lw = oskit::World::new(oskit::HwSpec::desktop(), 1, test_registry());
        transplant_storage(&w, &mut lw);
        // Results were not produced before the crash.
        let _ = lw.shared_fs.remove("/shared/client_result");
        // Restart plans from the catalog alone; the script is for people.
        lw.shared_fs
            .remove("/shared/dmtcp_restart_script.sh")
            .expect("the committed generation rendered a script");
        (lw, simkit::Sim::new())
    };
    drop(w);
    drop(sim);

    let s2 = Session::start(&mut laptop, &mut sim2, opts_shared_dir());
    RestartPlan::builder()
        .generation(gen)
        .topology([NodeId(0)])
        .build()
        .execute(&s2, &mut laptop, &mut sim2)
        .expect("pack-down restart onto the laptop");
    Session::wait_restart_done(&mut laptop, &mut sim2, gen, EV);
    assert!(sim2.run_bounded(&mut laptop, EV), "laptop deadlock");
    assert_eq!(
        shared_result(&laptop, "/shared/client_result").as_deref(),
        Some(ref_client.as_str())
    );
    assert_eq!(
        shared_result(&laptop, "/shared/server_result").as_deref(),
        Some(ref_server.as_str())
    );
    // Loopback restore: the former cross-node socket now lives on one node.
    assert!(laptop.nodes.len() == 1);
}

#[test]
fn pipes_and_fork_survive_checkpoint_restart() {
    let total = 3_000_000; // ~45 windows of pipe data; runs well past the ckpt
    let (mut w, mut sim) = cluster(1);
    let s = Session::start(&mut w, &mut sim, opts_shared_dir());
    s.launch(
        &mut w,
        &mut sim,
        NodeId(0),
        "pipechain",
        Box::new(PipeChain::new(total)),
    );
    run_for(&mut w, &mut sim, Nanos::from_millis(30));
    // Parent and forked child are both traced.
    let stat = s.checkpoint_and_wait(&mut w, &mut sim, EV).expect_ckpt();
    assert_eq!(stat.participants, 2, "fork wrapper traced the child");
    let gen = stat.gen;
    s.kill_computation(&mut w, &mut sim);
    RestartPlan::from_generation(&w, s.opts.coord_port, gen)
        .expect("restart script written")
        .execute(&s, &mut w, &mut sim)
        .expect("identity restart");
    Session::wait_restart_done(&mut w, &mut sim, gen, EV);
    assert!(
        sim.run_bounded(&mut w, EV),
        "pipe chain deadlocked after restart"
    );
    // The reader's own assertions verified the byte stream; the checksum
    // must match an uninterrupted run.
    let got = shared_result(&w, "/shared/pipe_result").expect("finished");
    let (mut w2, mut sim2) = cluster(1);
    use std::collections::BTreeMap;
    w2.spawn(
        &mut sim2,
        NodeId(0),
        "ref",
        Box::new(PipeChain::new(total)),
        oskit::world::Pid(1),
        BTreeMap::new(),
    );
    assert!(sim2.run_bounded(&mut w2, EV));
    assert_eq!(Some(got), shared_result(&w2, "/shared/pipe_result"));
}

#[test]
fn multithreaded_process_restores_both_threads() {
    let (mut w, mut sim) = cluster(1);
    let s = Session::start(&mut w, &mut sim, opts_shared_dir());
    s.launch(
        &mut w,
        &mut sim,
        NodeId(0),
        "twin",
        Box::new(TwinMain {
            pc: 0,
            heap: 0,
            count: 0,
            target: 300,
        }),
    );
    run_for(&mut w, &mut sim, Nanos::from_millis(15)); // both threads mid-count
    let stat = s.checkpoint_and_wait(&mut w, &mut sim, EV).expect_ckpt();
    let gen = stat.gen;
    s.kill_computation(&mut w, &mut sim);
    RestartPlan::from_generation(&w, s.opts.coord_port, gen)
        .expect("restart script written")
        .execute(&s, &mut w, &mut sim)
        .expect("identity restart");
    Session::wait_restart_done(&mut w, &mut sim, gen, EV);
    assert!(sim.run_bounded(&mut w, EV));
    assert_eq!(
        shared_result(&w, "/shared/twin_result").as_deref(),
        Some("600")
    );
}

#[test]
fn interval_checkpointing_produces_multiple_generations() {
    let (mut w, mut sim) = cluster(2);
    let s = Session::start(
        &mut w,
        &mut sim,
        Options::builder()
            .ckpt_dir("/shared/ckpt")
            .interval(Nanos::from_millis(30))
            .build(),
    );
    launch_chain(&mut w, &mut sim, &s, 1500);
    assert!(
        sim.run_bounded(&mut w, 20_000_000),
        "interval run deadlocked"
    );
    let gens = coord_shared_for(&mut w, COORD_PORT).gen_stats.len();
    assert!(
        gens >= 3,
        "expected several interval checkpoints, got {gens}"
    );
    for g in &coord_shared_for(&mut w, COORD_PORT).gen_stats {
        assert!(
            g.releases.contains_key(&stage::REFILLED),
            "gen {} incomplete",
            g.gen
        );
    }
    // And the app still finished correctly.
    let (ref_client, _) = chain_reference(1500);
    assert_eq!(
        shared_result(&w, "/shared/client_result").as_deref(),
        Some(ref_client.as_str())
    );
}

#[test]
fn second_checkpoint_after_restart_works() {
    // Checkpoint → kill → restart → checkpoint again → kill → restart:
    // generations must keep advancing and the answer must stay right.
    let rounds = 600;
    let (ref_client, _) = chain_reference(rounds);
    let (mut w, mut sim) = cluster(2);
    let s = Session::start(&mut w, &mut sim, opts_shared_dir());
    launch_chain(&mut w, &mut sim, &s, rounds);
    run_for(&mut w, &mut sim, Nanos::from_millis(30));
    let g1 = s
        .checkpoint_and_wait(&mut w, &mut sim, EV)
        .expect_ckpt()
        .gen;
    s.kill_computation(&mut w, &mut sim);
    RestartPlan::from_generation(&w, s.opts.coord_port, g1)
        .expect("restart script written")
        .execute(&s, &mut w, &mut sim)
        .expect("identity restart");
    Session::wait_restart_done(&mut w, &mut sim, g1, EV);

    run_for(&mut w, &mut sim, Nanos::from_millis(20));
    let stat2 = s.checkpoint_and_wait(&mut w, &mut sim, EV).expect_ckpt();
    assert!(stat2.gen > g1, "generation advanced: {} > {g1}", stat2.gen);
    s.kill_computation(&mut w, &mut sim);
    RestartPlan::from_generation(&w, s.opts.coord_port, stat2.gen)
        .expect("restart script written")
        .execute(&s, &mut w, &mut sim)
        .expect("identity restart");
    Session::wait_restart_done(&mut w, &mut sim, stat2.gen, EV);
    assert!(sim.run_bounded(&mut w, EV));
    assert_eq!(
        shared_result(&w, "/shared/client_result").as_deref(),
        Some(ref_client.as_str())
    );
}

/// Crash consistency across an abort *and* a restart: generation 1 commits,
/// generation 2 aborts after one of its two processes already wrote an
/// image, the computation is restarted from generation 1 — and is then
/// killed again. The second restart must find exactly what the first did:
/// the aborted generation's lone image never becomes restartable, and
/// completing a restart publishes nothing.
#[test]
fn aborted_generation_never_becomes_restartable() {
    let rounds = 900;
    let (ref_client, ref_server) = chain_reference(rounds);
    let (mut w, mut sim) = cluster(2);
    let s = Session::start(&mut w, &mut sim, opts_shared_dir());
    let port = s.opts.coord_port;
    launch_chain(&mut w, &mut sim, &s, rounds);
    run_for(&mut w, &mut sim, Nanos::from_millis(30));
    let g1 = s.checkpoint_and_wait(&mut w, &mut sim, EV).expect_ckpt();
    assert_eq!((g1.gen, g1.participants), (1, 2));
    let script_path = dmtcp::coord::restart_script_path(port);
    let script = w.shared_fs.read_all(&script_path).unwrap();

    // Generation 2: stop at the event where exactly one image is written,
    // and kill the process that has not written its own yet.
    run_for(&mut w, &mut sim, Nanos::from_millis(10));
    let before = s.generations(&mut w);
    s.request_checkpoint(&mut w, &mut sim);
    let written = dmtcp::session::wait_until(
        &mut w,
        &mut sim,
        EV,
        dmtcp::session::Order::StepFirst,
        |w| {
            let imgs = &coord_shared_for(w, port).last_images;
            (imgs.len() == 1).then(|| imgs[0].2)
        },
    )
    .expect("one process writes first");
    let victim = *w
        .procs
        .iter()
        .find(|(_, p)| p.alive() && p.virt_pid.is_some_and(|v| v != written))
        .expect("the other traced process")
        .0;
    w.signal(&mut sim, victim, oskit::proc::sig::SIGKILL);
    let g2 = dmtcp::session::wait_until(
        &mut w,
        &mut sim,
        EV,
        dmtcp::session::Order::CheckFirst,
        |w| s.settled_since(w, before),
    )
    .expect("generation 2 settles");
    assert!(g2.aborted, "a participant died mid-write");
    assert!(
        w.shared_fs
            .list_prefix("/shared/ckpt/")
            .any(|p| dmtcp::restart::parse_gen(p) == Some(2)),
        "the survivor's generation-2 image is on storage"
    );
    assert!(
        coord_shared_for(&mut w, port).last_images.is_empty(),
        "an abort clears the in-flight list"
    );

    for attempt in 0..2 {
        s.kill_computation(&mut w, &mut sim);
        let out = RestartPlan::newest()
            .execute(&s, &mut w, &mut sim)
            .expect("generation 1 is committed");
        let mut restored: Vec<u32> = out.placement.into_iter().flat_map(|(_, v)| v).collect();
        restored.sort_unstable();
        assert_eq!(out.gen, 1, "attempt {attempt}");
        assert_eq!(restored.len(), 2, "attempt {attempt}: {restored:?}");
        Session::wait_restart_done(&mut w, &mut sim, 1, EV);
        run_for(&mut w, &mut sim, Nanos::from_millis(5));
        assert_eq!(
            w.shared_fs.read_all(&script_path).unwrap(),
            script,
            "attempt {attempt}: neither an abort nor a restart rewrites the script"
        );
        assert_eq!(dmtcp::catalog::generations(&w, port), vec![1]);
    }

    assert!(sim.run_bounded(&mut w, EV), "post-restart deadlock");
    assert_eq!(
        shared_result(&w, "/shared/client_result").as_deref(),
        Some(ref_client.as_str())
    );
    assert_eq!(
        shared_result(&w, "/shared/server_result").as_deref(),
        Some(ref_server.as_str())
    );
}

#[test]
fn forked_checkpointing_shortens_the_pause() {
    let rounds = 800;
    let run = |forked: bool| -> (Nanos, String) {
        let (mut w, mut sim) = cluster(2);
        let s = Session::start(
            &mut w,
            &mut sim,
            Options::builder()
                .ckpt_dir("/shared/ckpt")
                .forked(forked)
                .build(),
        );
        // A sizable image makes the write stage dominate, which is what
        // forked checkpointing optimizes (Table 1).
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
            Box::new(ChainClient::new("node01", 9000, rounds).with_ballast(64)),
        );
        run_for(&mut w, &mut sim, Nanos::from_millis(40));
        let stat = s.checkpoint_and_wait(&mut w, &mut sim, EV).expect_ckpt();
        assert!(sim.run_bounded(&mut w, EV));
        (
            stat.total_pause().expect("complete"),
            shared_result(&w, "/shared/client_result").expect("finished"),
        )
    };
    let (pause_normal, r1) = run(false);
    let (pause_forked, r2) = run(true);
    assert_eq!(r1, r2, "forked mode must not change results");
    assert!(
        pause_forked < pause_normal,
        "forked {pause_forked:?} !< normal {pause_normal:?}"
    );
}

/// Byte `j` of the stream sent by peer `role` (self-verifying pattern).
fn flood_pat(j: u64, role: u8) -> u8 {
    ((j * 7 + role as u64) % 251) as u8
}

/// One of a symmetric pair: fills its send direction to exactly the kernel
/// buffer capacity while the peer does the same, sleeps (so the checkpoint
/// lands with both directions full), then drains and verifies the peer's
/// stream.
struct FloodPeer {
    pc: u8,
    role: u8, // 0 = listener, 1 = connector
    lfd: oskit::Fd,
    fd: oskit::Fd,
    port: u16,
    server: String,
    sent: u64,
    rcvd: u64,
    target: u64,
}
simkit::impl_snap!(struct FloodPeer { pc, role, lfd, fd, port, server, sent, rcvd, target });

impl FloodPeer {
    fn listener(port: u16, target: u64) -> Self {
        FloodPeer {
            pc: 0,
            role: 0,
            lfd: -1,
            fd: -1,
            port,
            server: String::new(),
            sent: 0,
            rcvd: 0,
            target,
        }
    }
    fn connector(server: &str, port: u16, target: u64) -> Self {
        FloodPeer {
            pc: 0,
            role: 1,
            lfd: -1,
            fd: -1,
            port,
            server: server.to_string(),
            sent: 0,
            rcvd: 0,
            target,
        }
    }
    fn result_path(&self) -> &'static str {
        if self.role == 0 {
            "/shared/flood_a"
        } else {
            "/shared/flood_b"
        }
    }
}

impl oskit::program::Program for FloodPeer {
    fn step(&mut self, k: &mut oskit::Kernel<'_>) -> oskit::program::Step {
        use oskit::program::Step;
        use oskit::Errno;
        loop {
            match self.pc {
                0 => {
                    if self.role == 0 {
                        let (fd, _) = k.listen_on(self.port).expect("flood listen");
                        self.lfd = fd;
                        self.pc = 1;
                    } else {
                        match k.connect(&self.server, self.port) {
                            Ok(fd) => {
                                self.fd = fd;
                                self.pc = 2;
                            }
                            Err(Errno::ConnRefused) => return Step::Sleep(Nanos::from_millis(2)),
                            Err(e) => panic!("flood connect: {e:?}"),
                        }
                    }
                }
                1 => match k.accept(self.lfd) {
                    Ok(fd) => {
                        self.fd = fd;
                        self.pc = 2;
                    }
                    Err(Errno::WouldBlock) => return Step::Block,
                    Err(e) => panic!("flood accept: {e:?}"),
                },
                // Fill: write exactly `target` bytes without reading a thing.
                2 => {
                    if self.sent == self.target {
                        self.pc = 3;
                        // Think time with both directions brimful — the
                        // checkpoint is taken inside this window.
                        return Step::Sleep(Nanos::from_millis(25));
                    }
                    let n = (self.target - self.sent).min(2048) as usize;
                    let chunk: Vec<u8> = (self.sent..self.sent + n as u64)
                        .map(|j| flood_pat(j, self.role))
                        .collect();
                    match k.write(self.fd, &chunk) {
                        Ok(sent) => self.sent += sent as u64,
                        Err(Errno::WouldBlock) => return Step::Block,
                        Err(e) => panic!("flood write: {e:?}"),
                    }
                }
                // Drain: read and verify the peer's full stream.
                3 => match k.read(self.fd, 4096) {
                    Ok(b) if b.is_empty() => panic!("flood peer hung up early"),
                    Ok(b) => {
                        for &byte in &b {
                            assert_eq!(
                                byte,
                                flood_pat(self.rcvd, 1 - self.role),
                                "flood stream corrupted at byte {}",
                                self.rcvd
                            );
                            self.rcvd += 1;
                        }
                        if self.rcvd == self.target {
                            let fd = k.open(self.result_path(), true).expect("result");
                            k.write(fd, format!("ok:{}", self.rcvd).as_bytes())
                                .expect("w");
                            return Step::Exit(0);
                        }
                    }
                    Err(Errno::WouldBlock) => return Step::Block,
                    Err(e) => panic!("flood read: {e:?}"),
                },
                _ => unreachable!(),
            }
        }
    }
    fn tag(&self) -> &'static str {
        "flood-peer"
    }
    fn save(&self) -> Vec<u8> {
        use simkit::Snap as _;
        self.to_snap_bytes()
    }
}

#[test]
fn checkpoint_with_kernel_buffers_full_both_directions() {
    let target = oskit::net::CONN_CAPACITY;
    let mut reg = test_registry();
    reg.register_snap::<FloodPeer>("flood-peer");
    let mut w = oskit::World::new(oskit::HwSpec::cluster(), 2, reg);
    let mut sim = simkit::Sim::new();
    let s = Session::start(&mut w, &mut sim, opts_shared_dir());
    s.launch(
        &mut w,
        &mut sim,
        NodeId(1),
        "flood-a",
        Box::new(FloodPeer::listener(9100, target)),
    );
    s.launch(
        &mut w,
        &mut sim,
        NodeId(0),
        "flood-b",
        Box::new(FloodPeer::connector("node01", 9100, target)),
    );
    run_for(&mut w, &mut sim, Nanos::from_millis(8));

    // Both peers are asleep with the connection saturated in BOTH
    // directions — the checkpoint drain has to move 2×64 KiB with no help
    // from the applications.
    let full = w.conns.values().any(|c| {
        c.dirs[0].recv_buf.len() as u64 + c.dirs[0].in_flight == target
            && c.dirs[1].recv_buf.len() as u64 + c.dirs[1].in_flight == target
    });
    assert!(full, "setup failed: no connection is full both ways");

    let stat = s.checkpoint_and_wait(&mut w, &mut sim, EV).expect_ckpt();
    assert_eq!(stat.participants, 2);
    let gen = stat.gen;
    s.kill_computation(&mut w, &mut sim);
    assert!(shared_result(&w, "/shared/flood_a").is_none());

    RestartPlan::from_generation(&w, s.opts.coord_port, gen)
        .expect("restart script written")
        .execute(&s, &mut w, &mut sim)
        .expect("identity restart");
    Session::wait_restart_done(&mut w, &mut sim, gen, EV);
    assert!(
        sim.run_bounded(&mut w, EV),
        "flood deadlocked after restart"
    );

    // Each peer verified every byte of the other's stream itself; the
    // results just confirm both got all the way through.
    let want = format!("ok:{target}");
    assert_eq!(
        shared_result(&w, "/shared/flood_a").as_deref(),
        Some(want.as_str())
    );
    assert_eq!(
        shared_result(&w, "/shared/flood_b").as_deref(),
        Some(want.as_str())
    );
}

/// Echo server that takes its time: one reply per compute quantum, so a
/// half-closed client connection stays half-closed across a long window.
struct SlowEcho {
    pc: u8,
    lfd: oskit::Fd,
    cfd: oskit::Fd,
    port: u16,
    rounds: u64,
    inbuf: Vec<u8>,
}
simkit::impl_snap!(struct SlowEcho { pc, lfd, cfd, port, rounds, inbuf });

impl oskit::program::Program for SlowEcho {
    fn step(&mut self, k: &mut oskit::Kernel<'_>) -> oskit::program::Step {
        use oskit::program::Step;
        use oskit::Errno;
        loop {
            match self.pc {
                0 => {
                    let (fd, _) = k.listen_on(self.port).expect("slow-echo listen");
                    self.lfd = fd;
                    self.pc = 1;
                }
                1 => match k.accept(self.lfd) {
                    Ok(fd) => {
                        self.cfd = fd;
                        self.pc = 2;
                    }
                    Err(Errno::WouldBlock) => return Step::Block,
                    Err(e) => panic!("slow-echo accept: {e:?}"),
                },
                2 => match k.read(self.cfd, 8 - self.inbuf.len()) {
                    Ok(b) if b.is_empty() => {
                        // Client's write side closed and all requests served.
                        let fd = k.open("/shared/server_result", true).expect("result");
                        k.write(fd, self.rounds.to_string().as_bytes()).expect("w");
                        return Step::Exit(0);
                    }
                    Ok(b) => {
                        self.inbuf.extend_from_slice(&b);
                        if self.inbuf.len() == 8 {
                            let v = u64::from_le_bytes(self.inbuf[..].try_into().expect("8"));
                            self.inbuf.clear();
                            self.rounds += 1;
                            let n = k.write(self.cfd, &(v + 1).to_le_bytes()).expect("reply");
                            assert_eq!(n, 8);
                            return Step::Compute(200_000);
                        }
                    }
                    Err(Errno::WouldBlock) => return Step::Block,
                    Err(e) => panic!("slow-echo read: {e:?}"),
                },
                _ => unreachable!(),
            }
        }
    }
    fn tag(&self) -> &'static str {
        "slow-echo"
    }
    fn save(&self) -> Vec<u8> {
        use simkit::Snap as _;
        self.to_snap_bytes()
    }
}

/// Sends all its requests up front, then `shutdown`s its write side and
/// consumes the replies through the half-closed socket. Verifies the
/// half-close itself survives checkpoint/restart (a write must still fail
/// with EPIPE afterwards).
struct HalfCloseClient {
    pc: u8,
    fd: oskit::Fd,
    server: String,
    port: u16,
    rounds: u64,
    sent: u64,
    got: u64,
    sum: u64,
    inbuf: Vec<u8>,
    probed: bool,
}
simkit::impl_snap!(struct HalfCloseClient { pc, fd, server, port, rounds, sent, got, sum, inbuf, probed });

impl oskit::program::Program for HalfCloseClient {
    fn step(&mut self, k: &mut oskit::Kernel<'_>) -> oskit::program::Step {
        use oskit::program::Step;
        use oskit::Errno;
        loop {
            match self.pc {
                0 => match k.connect(&self.server, self.port) {
                    Ok(fd) => {
                        self.fd = fd;
                        self.pc = 1;
                    }
                    Err(Errno::ConnRefused) => return Step::Sleep(Nanos::from_millis(2)),
                    Err(e) => panic!("half-close connect: {e:?}"),
                },
                1 => {
                    while self.sent < self.rounds {
                        let v = self.sent + 1;
                        let n = k.write(self.fd, &v.to_le_bytes()).expect("request");
                        assert_eq!(n, 8);
                        self.sent += 1;
                    }
                    k.shutdown_write(self.fd).expect("shutdown(SHUT_WR)");
                    self.pc = 2;
                }
                2 => {
                    if !self.probed && self.got == self.rounds / 2 {
                        // Mid-drain (before or after restart, whichever side
                        // the checkpoint landed on): the write side must
                        // still be closed.
                        self.probed = true;
                        assert!(
                            matches!(k.write(self.fd, b"x"), Err(Errno::Pipe)),
                            "write after shutdown must fail with EPIPE"
                        );
                    }
                    match k.read(self.fd, 8 - self.inbuf.len()) {
                        Ok(b) if b.is_empty() => {
                            assert_eq!(self.got, self.rounds, "replies lost on half-closed conn");
                            let fd = k.open("/shared/client_result", true).expect("result");
                            k.write(fd, self.sum.to_string().as_bytes()).expect("w");
                            return Step::Exit(0);
                        }
                        Ok(b) => {
                            self.inbuf.extend_from_slice(&b);
                            if self.inbuf.len() == 8 {
                                let v = u64::from_le_bytes(self.inbuf[..].try_into().expect("8"));
                                self.inbuf.clear();
                                assert_eq!(v, self.got + 2, "reply out of order");
                                self.got += 1;
                                self.sum = self.sum.wrapping_add(v);
                            }
                        }
                        Err(Errno::WouldBlock) => return Step::Block,
                        Err(e) => panic!("half-close read: {e:?}"),
                    }
                }
                _ => unreachable!(),
            }
        }
    }
    fn tag(&self) -> &'static str {
        "half-close-client"
    }
    fn save(&self) -> Vec<u8> {
        use simkit::Snap as _;
        self.to_snap_bytes()
    }
}

fn half_close_registry() -> oskit::program::Registry {
    let mut reg = test_registry();
    reg.register_snap::<SlowEcho>("slow-echo");
    reg.register_snap::<HalfCloseClient>("half-close-client");
    reg
}

fn half_close_world() -> (oskit::World, oskit::world::OsSim) {
    (
        oskit::World::new(oskit::HwSpec::cluster(), 2, half_close_registry()),
        simkit::Sim::new(),
    )
}

fn spawn_half_close(w: &mut oskit::World, sim: &mut oskit::world::OsSim, rounds: u64) {
    use std::collections::BTreeMap;
    w.spawn(
        sim,
        NodeId(1),
        "server",
        Box::new(SlowEcho {
            pc: 0,
            lfd: -1,
            cfd: -1,
            port: 9200,
            rounds: 0,
            inbuf: Vec::new(),
        }),
        oskit::world::Pid(1),
        BTreeMap::new(),
    );
    w.spawn(
        sim,
        NodeId(0),
        "client",
        Box::new(HalfCloseClient {
            pc: 0,
            fd: -1,
            server: "node01".into(),
            port: 9200,
            rounds,
            sent: 0,
            got: 0,
            sum: 0,
            inbuf: Vec::new(),
            probed: false,
        }),
        oskit::world::Pid(1),
        BTreeMap::new(),
    );
}

#[test]
fn checkpoint_with_half_closed_connection() {
    let rounds = 100;

    // Uninterrupted reference.
    let (ref_client, ref_server) = {
        let (mut w, mut sim) = half_close_world();
        spawn_half_close(&mut w, &mut sim, rounds);
        assert!(sim.run_bounded(&mut w, EV), "reference deadlocked");
        (
            shared_result(&w, "/shared/client_result").expect("client"),
            shared_result(&w, "/shared/server_result").expect("server"),
        )
    };

    let (mut w, mut sim) = half_close_world();
    let s = Session::start(&mut w, &mut sim, opts_shared_dir());
    s.launch(
        &mut w,
        &mut sim,
        NodeId(1),
        "server",
        Box::new(SlowEcho {
            pc: 0,
            lfd: -1,
            cfd: -1,
            port: 9200,
            rounds: 0,
            inbuf: Vec::new(),
        }),
    );
    s.launch(
        &mut w,
        &mut sim,
        NodeId(0),
        "client",
        Box::new(HalfCloseClient {
            pc: 0,
            fd: -1,
            server: "node01".into(),
            port: 9200,
            rounds,
            sent: 0,
            got: 0,
            sum: 0,
            inbuf: Vec::new(),
            probed: false,
        }),
    );
    // The client sends everything and shuts down its write side within the
    // first millisecond; the slow server is mid-backlog at 8 ms, so the
    // checkpointed connection is genuinely half-closed with data pending
    // both ways.
    run_for(&mut w, &mut sim, Nanos::from_millis(8));
    let half_closed = w
        .conns
        .values()
        .any(|c| c.wr_closed.iter().filter(|&&x| x).count() == 1);
    assert!(half_closed, "setup failed: no half-closed connection");

    let stat = s.checkpoint_and_wait(&mut w, &mut sim, EV).expect_ckpt();
    assert_eq!(stat.participants, 2);
    let gen = stat.gen;
    s.kill_computation(&mut w, &mut sim);
    let _ = w.shared_fs.remove("/shared/client_result");
    let _ = w.shared_fs.remove("/shared/server_result");

    RestartPlan::from_generation(&w, s.opts.coord_port, gen)
        .expect("restart script written")
        .execute(&s, &mut w, &mut sim)
        .expect("identity restart");
    Session::wait_restart_done(&mut w, &mut sim, gen, EV);
    assert!(
        sim.run_bounded(&mut w, EV),
        "half-close deadlocked after restart"
    );

    assert_eq!(
        shared_result(&w, "/shared/client_result").as_deref(),
        Some(ref_client.as_str())
    );
    assert_eq!(
        shared_result(&w, "/shared/server_result").as_deref(),
        Some(ref_server.as_str())
    );
}

#[test]
fn zombie_free_teardown_and_coordinator_client_tracking() {
    let (mut w, mut sim) = cluster(2);
    let s = Session::start(&mut w, &mut sim, opts_shared_dir());
    launch_chain(&mut w, &mut sim, &s, 50);
    assert!(sim.run_bounded(&mut w, EV));
    // Apps done; only the coordinator still runs.
    assert_eq!(w.live_procs(), 1);
    for p in w.procs.values() {
        if p.alive() {
            assert_eq!(p.cmd, "dmtcp_coordinator");
        } else {
            assert!(matches!(p.state, ProcState::Zombie(0)), "{:?}", p.state);
        }
    }
}

/// Coordinator state is one map keyed by port inside one world extension:
/// a request or an image recorded for one port is invisible on another.
#[test]
fn coordinators_on_different_ports_share_nothing() {
    let (mut w, mut sim) = cluster(1);
    dmtcp::coord::request_checkpoint(&mut w, &mut sim, COORD_PORT);
    let image = mtcp::ImageName::parse("/ckpt/ckpt_1_gen1.dmtcp").expect("conforming");
    dmtcp::coord::record_image(&mut w, 7800, "node00".into(), image);
    let root = coord_shared_for(&mut w, COORD_PORT);
    assert!(root.ckpt_request_pending);
    assert!(root.last_images.is_empty());
    let shard = coord_shared_for(&mut w, 7800);
    assert!(!shard.ckpt_request_pending);
    assert_eq!(shard.last_images.len(), 1);
    assert!(!coord_shared_for(&mut w, 7802).ckpt_request_pending);
}

/// Two sessions — two coordinators on different ports — share one world.
/// `kill_computation` is scoped to the session it is called on: the other
/// session's processes stay alive and its next generation commits with all
/// of its participants.
#[test]
fn killing_one_sessions_computation_spares_the_other() {
    let (mut w, mut sim) = cluster(2);
    let a = Session::start(&mut w, &mut sim, opts_shared_dir());
    let b = Session::start(
        &mut w,
        &mut sim,
        Options::builder()
            .coord_port(COORD_PORT + 10)
            .ckpt_dir("/shared/ckpt_b")
            .build(),
    );
    launch_chain(&mut w, &mut sim, &a, 2_000);
    b.launch(
        &mut w,
        &mut sim,
        NodeId(0),
        "pipechain",
        Box::new(PipeChain::new(3_000_000)),
    );
    run_for(&mut w, &mut sim, Nanos::from_millis(30));
    let b1 = b.checkpoint_and_wait(&mut w, &mut sim, EV).expect_ckpt();
    assert_eq!(b1.participants, 2, "pipechain parent + forked child");
    let live_before = w.live_procs();

    a.kill_computation(&mut w, &mut sim);

    assert_eq!(
        w.live_procs(),
        live_before - 2,
        "exactly A's server and client died"
    );
    let b2 = b.checkpoint_and_wait(&mut w, &mut sim, EV).expect_ckpt();
    assert_eq!((b2.gen, b2.participants), (2, 2), "B commits undisturbed");
    assert!(
        sim.run_bounded(&mut w, EV),
        "B's computation runs to its end"
    );
    shared_result(&w, "/shared/pipe_result").expect("B finished with its own integrity checks");
}

#[test]
fn hierarchical_topology_full_cycle() {
    // The relay layer must be invisible to the application: same protocol
    // outcome, same bytes, with the root talking to per-node relays instead
    // of every manager.
    let rounds = 400;
    let (ref_client, ref_server) = chain_reference(rounds);

    let (mut w, mut sim) = cluster(2);
    let s = Session::start(
        &mut w,
        &mut sim,
        Options::builder()
            .ckpt_dir("/shared/ckpt")
            .topology(dmtcp::Topology::Hierarchical)
            .build(),
    );
    launch_chain(&mut w, &mut sim, &s, rounds);
    run_for(&mut w, &mut sim, Nanos::from_millis(40));

    let stat = s.checkpoint_and_wait(&mut w, &mut sim, EV).expect_ckpt();
    assert_eq!(
        stat.participants, 2,
        "both managers checkpointed via relays"
    );
    let gen = stat.gen;
    assert!(
        w.obs.metrics.counter("relay.fanout", gen) > 0,
        "relays forwarded barrier traffic for gen {gen}"
    );
    assert!(
        w.obs.metrics.counter("coord.root_msgs", gen) > 0,
        "root message accounting is live"
    );

    // Progress past the checkpoint is discarded by the kill.
    run_for(&mut w, &mut sim, Nanos::from_millis(20));
    s.kill_computation(&mut w, &mut sim);
    assert!(shared_result(&w, "/shared/client_result").is_none());

    // Restart bypasses the relays: restored managers register directly
    // with the root, exactly like a flat-topology restart.
    let outcome = RestartPlan::from_generation(&w, s.opts.coord_port, gen)
        .expect("restart script written")
        .execute(&s, &mut w, &mut sim)
        .expect("identity restart");
    assert_eq!(
        outcome.placement.len(),
        2,
        "two hosts in placement: {:?}",
        outcome.placement
    );
    Session::wait_restart_done(&mut w, &mut sim, gen, EV);

    assert!(sim.run_bounded(&mut w, EV), "post-restart deadlock");
    assert_eq!(
        shared_result(&w, "/shared/client_result").as_deref(),
        Some(ref_client.as_str())
    );
    assert_eq!(
        shared_result(&w, "/shared/server_result").as_deref(),
        Some(ref_server.as_str())
    );
}

#[test]
fn hierarchical_second_generation_after_clean_first() {
    // Two back-to-back hierarchical generations: the relay must reset its
    // per-generation aggregation state and the root its relay accounting.
    let (mut w, mut sim) = cluster(2);
    let s = Session::start(
        &mut w,
        &mut sim,
        Options::builder()
            .ckpt_dir("/shared/ckpt")
            .topology(dmtcp::Topology::Hierarchical)
            .build(),
    );
    launch_chain(&mut w, &mut sim, &s, 2000);
    run_for(&mut w, &mut sim, Nanos::from_millis(20));
    let g1 = s.checkpoint_and_wait(&mut w, &mut sim, EV).expect_ckpt();
    assert_eq!(g1.gen, 1);
    run_for(&mut w, &mut sim, Nanos::from_millis(10));
    let g2 = s.checkpoint_and_wait(&mut w, &mut sim, EV).expect_ckpt();
    assert_eq!(g2.gen, 2);
    assert_eq!(g2.participants, 2);
}
