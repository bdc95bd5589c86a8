//! Focused diagnosis harness for the restart path (kept as a regression
//! test with verbose state dumps on failure).

mod common;

use common::*;
use dmtcp::session::{enable_flight_recorder, run_for};
use dmtcp::{ExpectCkpt, Options, RestartPlan, Session};
use obs::journal::{render_timeline, CLASS_ALL};
use oskit::proc::ThreadState;
use oskit::world::NodeId;
use simkit::Nanos;

#[test]
fn restart_diagnosis() {
    let rounds = 400;
    let (mut w, mut sim) = cluster(2);
    enable_flight_recorder(&mut w, CLASS_ALL, &[]);
    let s = Session::start(
        &mut w,
        &mut sim,
        Options::builder().ckpt_dir("/shared/ckpt").build(),
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
        Box::new(ChainClient::new("node01", 9000, rounds)),
    );
    run_for(&mut w, &mut sim, Nanos::from_millis(40));
    let stat = s
        .checkpoint_and_wait(&mut w, &mut sim, 5_000_000)
        .expect_ckpt();
    let gen = stat.gen;
    run_for(&mut w, &mut sim, Nanos::from_millis(20));
    s.kill_computation(&mut w, &mut sim);
    RestartPlan::from_generation(&w, s.opts.coord_port, gen)
        .expect("restart script written")
        .execute(&s, &mut w, &mut sim)
        .expect("identity restart");
    Session::wait_restart_done(&mut w, &mut sim, gen, 5_000_000);
    let drained_ok = sim.run_bounded(&mut w, 5_000_000);

    let result = shared_result(&w, "/shared/client_result");
    if result.is_none() || !drained_ok {
        eprintln!("=== sim stalled; process dump ===");
        for (pid, p) in &w.procs {
            eprintln!(
                "pid {} cmd {} state {:?} suspended {} threads:",
                pid.0, p.cmd, p.state, p.user_suspended
            );
            for t in &p.threads {
                eprintln!(
                    "   tid {} user {} state {:?} pending {} prog {}",
                    t.tid.0,
                    t.user,
                    t.state,
                    t.dispatch_pending,
                    t.program.tag()
                );
                let _ = ThreadState::Runnable;
            }
            for (fd, e) in p.fds.iter() {
                eprintln!("   fd {fd} -> {:?}", e.obj);
            }
        }
        eprintln!("=== conns ===");
        for (cid, c) in &w.conns {
            eprintln!(
                "conn {} kind {:?} nodes {:?} refs {:?} closed {:?} buf0 {} inflight0 {} buf1 {} inflight1 {}",
                cid.0, c.kind, c.node, c.end_refs, c.closed,
                c.dirs[0].recv_buf.len(), c.dirs[0].in_flight,
                c.dirs[1].recv_buf.len(), c.dirs[1].in_flight,
            );
        }
        eprintln!("=== last journal events ===");
        let ev = w.obs.journal.events();
        eprint!("{}", render_timeline(&ev[ev.len().saturating_sub(40)..]));
        panic!("restart diagnosis failed: result {result:?}");
    }
}

#[test]
fn exact_copy_of_failing_test() {
    let rounds = 400;
    // reference run first, as in the failing test
    {
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
        assert!(sim.run_bounded(&mut w, 5_000_000));
        eprintln!(
            "reference client = {:?}",
            shared_result(&w, "/shared/client_result")
        );
    }
    let (mut w, mut sim) = cluster(2);
    let s = Session::start(
        &mut w,
        &mut sim,
        Options::builder().ckpt_dir("/shared/ckpt").build(),
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
        Box::new(ChainClient::new("node01", 9000, rounds)),
    );
    run_for(&mut w, &mut sim, Nanos::from_millis(40));
    let stat = s
        .checkpoint_and_wait(&mut w, &mut sim, 5_000_000)
        .expect_ckpt();
    let gen = stat.gen;
    run_for(&mut w, &mut sim, Nanos::from_millis(20));
    s.kill_computation(&mut w, &mut sim);
    assert_eq!(w.live_procs(), 1);
    assert!(
        shared_result(&w, "/shared/client_result").is_none(),
        "client finished before kill!"
    );
    RestartPlan::from_generation(&w, s.opts.coord_port, gen)
        .expect("restart script written")
        .execute(&s, &mut w, &mut sim)
        .expect("identity restart");
    Session::wait_restart_done(&mut w, &mut sim, gen, 5_000_000);
    assert!(sim.run_bounded(&mut w, 5_000_000), "post-restart deadlock");
    eprintln!(
        "client_result = {:?}",
        shared_result(&w, "/shared/client_result")
    );
    eprintln!(
        "server_result = {:?}",
        shared_result(&w, "/shared/server_result")
    );
    if shared_result(&w, "/shared/server_result").is_none() {
        for (pid, p) in &w.procs {
            eprintln!(
                "pid {} cmd {} state {:?} suspended {}",
                pid.0, p.cmd, p.state, p.user_suspended
            );
            for t in &p.threads {
                eprintln!(
                    "   tid {} user {} state {:?} pending {} prog {}",
                    t.tid.0,
                    t.user,
                    t.state,
                    t.dispatch_pending,
                    t.program.tag()
                );
            }
            for (fd, e) in p.fds.iter() {
                eprintln!("   fd {fd} -> {:?}", e.obj);
            }
        }
        for (cid, c) in &w.conns {
            eprintln!(
                "conn {} kind {:?} refs {:?} closed {:?} d0(buf {} fly {}) d1(buf {} fly {})",
                cid.0,
                c.kind,
                c.end_refs,
                c.closed,
                c.dirs[0].recv_buf.len(),
                c.dirs[0].in_flight,
                c.dirs[1].recv_buf.len(),
                c.dirs[1].in_flight
            );
        }
        panic!("server stalled");
    }
}

#[test]
fn pipe_ckpt_diagnosis() {
    let (mut w, mut sim) = cluster(1);
    enable_flight_recorder(&mut w, CLASS_ALL, &[]);
    let s = Session::start(
        &mut w,
        &mut sim,
        Options::builder().ckpt_dir("/shared/ckpt").build(),
    );
    s.launch(
        &mut w,
        &mut sim,
        NodeId(0),
        "pipechain",
        Box::new(PipeChain::new(3_000_000)),
    );
    run_for(&mut w, &mut sim, Nanos::from_millis(30));
    s.request_checkpoint(&mut w, &mut sim);
    let done = sim.run_bounded(&mut w, 5_000_000);
    let stat = s.last_gen_stat(&mut w);
    let complete = stat
        .as_ref()
        .map(|g| g.releases.contains_key(&6u8))
        .unwrap_or(false);
    if !complete {
        eprintln!("drained={done} stat={stat:?}");
        for (pid, p) in &w.procs {
            eprintln!(
                "pid {} cmd {} state {:?} susp {}",
                pid.0, p.cmd, p.state, p.user_suspended
            );
            for t in &p.threads {
                eprintln!(
                    "   tid {} user {} st {:?} pend {} prog {}",
                    t.tid.0,
                    t.user,
                    t.state,
                    t.dispatch_pending,
                    t.program.tag()
                );
            }
            for (fd, e) in p.fds.iter() {
                eprintln!("   fd {fd} -> {:?}", e.obj);
            }
        }
        for (cid, c) in &w.conns {
            eprintln!("conn {} kind {:?} refs {:?} closed {:?} owners {:?} d0(buf {} fly {}) d1(buf {} fly {})",
              cid.0, c.kind, c.end_refs, c.closed, c.owner_pid, c.dirs[0].recv_buf.len(), c.dirs[0].in_flight, c.dirs[1].recv_buf.len(), c.dirs[1].in_flight);
        }
        let ev = w.obs.journal.events();
        eprint!("{}", render_timeline(&ev[ev.len().saturating_sub(30)..]));
        panic!("pipe checkpoint stalled");
    }
}
