//! The checkpoint manager's stage machine, checked from outside.
//!
//! 1. **Pins.** A 2-node forked cycle (checkpoint twice, kill, restart,
//!    checkpoint again) and every rollback cell below record the number of
//!    simulation events fired, the GenStat release instants and the FNV-1a
//!    hash of the flight-recorder journal. The values were recorded at
//!    commit ca56304, before the manager's 23 phases became one loop over
//!    `coord::stage`'s tables; the loop must reproduce them exactly.
//! 2. **The rollback rule.** Each cell kills one process so that the
//!    coordinator's abort reaches the survivors while they await one stage,
//!    and checks what that stage's rollback did: drained bytes pushed back
//!    only at DRAINED and CHECKPOINTED, a drain abort counted only at
//!    CKPT_WRITTEN, exit status 75 only in a restart.
//! 3. **Figure 1 and Figure 2 order from the journal.** Each process's
//!    first `stage.reach` of every stage comes in table order, and after
//!    the release of the stage before it.

mod common;

use common::*;
use dmtcp::coord::{coord_shared_for, stage, COORD_PORT};
use dmtcp::session::{enable_flight_recorder, export_journal, run_for, wait_until, Order};
use dmtcp::{ExpectCkpt, Options, RestartPlan, Session};
use faultkit::{FaultKind, FaultPlan};
use obs::journal::{JournalEvent, CLASS_FAULT, CLASS_NET, CLASS_STAGE};
use oskit::proc::ProcState;
use oskit::world::{NodeId, OsSim, World};
use simkit::Nanos;
use std::collections::BTreeMap;
use std::sync::OnceLock;

const EV: u64 = 5_000_000;
/// Rounds for the chain client: enough to outlive every scenario here.
const ROUNDS: u64 = 5_000;
/// The node of the bystander, the process the rollback cells kill. It owns
/// no socket, so the survivors' drained bytes are the generation's.
const BYSTANDER: NodeId = NodeId(2);

/// What a pin records of one run.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    events_fired: u64,
    /// FNV-1a of every GenStat's `(gen, stage, release instant)`.
    releases_hash: u64,
    journal_hash: u64,
}

/// One recorded run: its pin and its journal.
struct Run {
    pin: Pin,
    events: Vec<JournalEvent>,
}

fn recorded_world(nodes: usize) -> (World, OsSim) {
    let (mut w, sim) = cluster(nodes);
    enable_flight_recorder(&mut w, CLASS_NET | CLASS_FAULT | CLASS_STAGE, &[]);
    w.obs.journal.set_capacity(1 << 20);
    (w, sim)
}

fn finish(mut w: World, sim: &OsSim) -> Run {
    let releases: Vec<(u64, u8, u64)> = coord_shared_for(&mut w, COORD_PORT)
        .gen_stats
        .iter()
        .flat_map(|g| g.releases.iter().map(|(s, t)| (g.gen, *s, t.0)))
        .collect();
    assert_eq!(w.obs.journal.evicted(), 0, "pin journal must be lossless");
    let journal = export_journal(&mut w);
    Run {
        pin: Pin {
            events_fired: sim.events_fired(),
            releases_hash: fnv1a(format!("{releases:?}").as_bytes()),
            journal_hash: fnv1a(journal.as_bytes()),
        },
        events: w.obs.journal.events().to_vec(),
    }
}

/// Chain client on node 0, echo server on node 1, each with a working set
/// when `forked` (forked mode forks only where it pays).
fn launch_pair(s: &Session, w: &mut World, sim: &mut OsSim, forked: bool) {
    let server = s.launch(
        w,
        sim,
        NodeId(1),
        "server",
        Box::new(EchoPlusOne::new(9000)),
    );
    let client = Box::new(ChainClient::new("node01", 9000, ROUNDS));
    let client = s.launch(w, sim, NodeId(0), "client", client);
    if forked {
        WorkingSet::add_to(w, sim, server);
        WorkingSet::add_to(w, sim, client);
    }
}

fn opts(forked: bool) -> Options {
    Options::builder()
        .ckpt_dir("/shared/ckpt")
        .forked(forked)
        .build()
}

/// Two checkpoints, a kill, a restart from the newest, one more checkpoint.
fn cycle(forked: bool) -> Run {
    let (mut w, mut sim) = recorded_world(2);
    let s = Session::start(&mut w, &mut sim, opts(forked));
    launch_pair(&s, &mut w, &mut sim, forked);
    for gen in 1..=2 {
        run_for(&mut w, &mut sim, Nanos::from_millis(7));
        let g = s.checkpoint_and_wait(&mut w, &mut sim, EV).expect_ckpt();
        assert_eq!(g.gen, gen);
        Session::wait_ckpt_written(&mut w, &mut sim, gen, EV).expect("generation commits");
    }
    run_for(&mut w, &mut sim, Nanos::from_millis(3));
    s.kill_computation(&mut w, &mut sim);
    let out = RestartPlan::builder()
        .build()
        .execute(&s, &mut w, &mut sim)
        .expect("restart");
    assert_eq!(out.gen, 2);
    Session::wait_restart_done(&mut w, &mut sim, out.gen, EV);
    run_for(&mut w, &mut sim, Nanos::from_millis(5));
    let g = s.checkpoint_and_wait(&mut w, &mut sim, EV).expect_ckpt();
    Session::wait_ckpt_written(&mut w, &mut sim, g.gen, EV).expect("generation commits");
    run_for(&mut w, &mut sim, Nanos::from_millis(2));
    if forked {
        assert!(
            w.obs.metrics.counter_total("oskit.mem.cow_copied_bytes") > 0,
            "a forked cycle must fork"
        );
    }
    finish(w, &sim)
}

fn forked_cycle() -> &'static Run {
    static ONCE: OnceLock<Run> = OnceLock::new();
    ONCE.get_or_init(|| cycle(true))
}

fn inline_cycle() -> &'static Run {
    static ONCE: OnceLock<Run> = OnceLock::new();
    ONCE.get_or_init(|| cycle(false))
}

#[test]
fn forked_cycle_matches_the_recorded_schedule() {
    let want = Pin {
        events_fired: 1_157,
        releases_hash: 0xd818_09f1_8110_4f63,
        journal_hash: 0xfdcd_5e6a_64b0_3851,
    };
    assert_eq!(forked_cycle().pin, want);
}

// ---------------------------------------------------------------------
// The rollback rule, one cell per stage the abort can land in.
// ---------------------------------------------------------------------

/// What a rollback cell observed.
struct Cell {
    run: Run,
    /// Per generation: drained, refilled, reinjected bytes.
    bytes: BTreeMap<u64, (u64, u64, u64)>,
    manager_aborts: u64,
    drain_aborts_seen: u64,
    restart_abandoned: u64,
    exited_75: usize,
}

/// Kill the bystander so that the survivors' abort lands while they await
/// `rollback`. A checkpoint stage's kill fires (through faultkit) at the
/// release of the stage before it in Figure 1, which the survivors pass
/// before the abort reaches them. SUSPENDED has no stage before it: its
/// kill comes once the first process has reached it. The restart cell
/// kills at the RESTORED release: the survivors' abort lands in
/// RESTART_REFILLED.
fn rollback_cell(rollback: u8) -> Cell {
    let forked = rollback == stage::CKPT_WRITTEN;
    let restart = rollback == stage::RESTART_REFILLED;
    let (mut w, mut sim) = recorded_world(3);
    let s = Session::start(&mut w, &mut sim, opts(forked));
    launch_pair(&s, &mut w, &mut sim, forked);
    let ws = WorkingSet {
        mapped: false,
        region: 0,
        tick: 0,
    };
    let bystander = s.launch(&mut w, &mut sim, BYSTANDER, "bystander", Box::new(ws));
    let kill_at = match rollback {
        stage::SUSPENDED => None,
        stage::RESTART_REFILLED => Some(stage::RESTORED),
        s => stage::CHECKPOINT
            .iter()
            .position(|&x| x == s)
            .map(|i| stage::CHECKPOINT[i - 1]),
    };
    let arm = |w: &mut World, stage: u8, target_gen: u64| {
        let st = faultkit::install(
            w,
            FaultPlan {
                seed: 0x5_7A6E,
                kind: FaultKind::KillNode,
                stage,
                target_gen,
            },
        );
        st.borrow_mut().pin_victim_node(BYSTANDER);
    };
    if let (Some(stg), false) = (kill_at, restart) {
        arm(&mut w, stg, 2);
    }
    run_for(&mut w, &mut sim, Nanos::from_millis(7));
    let g1 = s.checkpoint_and_wait(&mut w, &mut sim, EV).expect_ckpt();
    Session::wait_ckpt_written(&mut w, &mut sim, g1.gen, EV).expect("gen 1 commits");
    run_for(&mut w, &mut sim, Nanos::from_millis(3));
    if restart {
        s.kill_computation(&mut w, &mut sim);
        arm(&mut w, stage::RESTORED, 1);
        RestartPlan::builder()
            .build()
            .execute(&s, &mut w, &mut sim)
            .expect("restart");
    } else {
        let before = s.generations(&mut w);
        s.request_checkpoint(&mut w, &mut sim);
        if rollback == stage::SUSPENDED {
            // Kill once the first process has reached SUSPENDED: the
            // barrier cannot release without the bystander.
            let reached = |w: &mut World| {
                let events = w.obs.journal.events();
                let first = events
                    .iter()
                    .rev()
                    .take_while(|e| e.kind != "stage.request");
                first.filter(|e| e.kind == "stage.reach").map(|_| ()).next()
            };
            wait_until(&mut w, &mut sim, EV, Order::StepFirst, reached).expect("gen 2 starts");
            w.signal(&mut sim, bystander, oskit::proc::sig::SIGKILL);
        }
        let settled = |w: &mut World| s.settled_since(w, before);
        let g = wait_until(&mut w, &mut sim, EV, Order::StepFirst, settled).expect("gen 2 settles");
        assert_eq!(
            g.aborted, !forked,
            "a forked drain abort comes after the stop-the-world phase"
        );
        if forked {
            assert!(Session::wait_ckpt_written(&mut w, &mut sim, 2, EV).is_none());
        }
    }
    run_for(&mut w, &mut sim, Nanos::from_millis(20));
    faultkit::uninstall_at(&mut w, sim.now());
    let m = &w.obs.metrics;
    let bytes = (1..=2)
        .map(|g| {
            let b = (
                m.counter("core.drain.bytes", g),
                m.counter("core.refill.bytes", g),
                m.counter("core.abort_reinject.bytes", g),
            );
            (g, b)
        })
        .collect();
    let manager_aborts = m.counter_total("core.ckpt.manager_aborts");
    let drain_aborts_seen = m.counter_total("core.ckpt.drain_aborts_seen");
    let restart_abandoned = m.counter_total("core.restart.abandoned");
    let exited_75 = w
        .procs
        .values()
        .filter(|p| p.state == ProcState::Zombie(75))
        .count();
    Cell {
        run: finish(w, &sim),
        bytes,
        manager_aborts,
        drain_aborts_seen,
        restart_abandoned,
        exited_75,
    }
}

/// The last stage each survivor reached in the faulted attempt: where the
/// abort found it.
fn last_reached(events: &[JournalEvent], gen: u64) -> BTreeMap<u64, u8> {
    let mut last = BTreeMap::new();
    for e in events.iter().filter(|e| e.kind == "stage.reach") {
        if e.num("gen") == Some(gen) {
            last.insert(e.num("vpid").unwrap(), e.num("stage").unwrap() as u8);
        }
    }
    last
}

fn check_cell(rollback: u8, want: Pin) {
    let c = rollback_cell(rollback);
    let restart = rollback == stage::RESTART_REFILLED;
    let gen = if restart { 1 } else { 2 };
    // The survivors (client and server, vpids other than the bystander's)
    // were awaiting `rollback` when the abort arrived. An in-line writer
    // reaches CKPT_WRITTEN before CHECKPOINTED, so its last reach there is
    // CHECKPOINTED all the same.
    let last = last_reached(&c.run.events, gen);
    let survivors: Vec<u8> = last.values().copied().filter(|&s| s == rollback).collect();
    assert_eq!(survivors.len(), 2, "survivors' last reach: {last:?}");
    for (g, (drained, refilled, reinjected)) in &c.bytes {
        assert_eq!(
            *drained,
            refilled + reinjected,
            "gen {g}: drained = refilled + reinjected"
        );
    }
    let (drained, _, reinjected) = c.bytes[&2];
    let pushes_back = rollback == stage::DRAINED || rollback == stage::CHECKPOINTED;
    if pushes_back {
        assert!(drained > 0, "the cell needs data in flight");
    }
    assert_eq!(reinjected > 0, pushes_back, "reinjected {reinjected}");
    let stops_the_world = !restart && rollback != stage::CKPT_WRITTEN;
    assert_eq!(c.manager_aborts, if stops_the_world { 2 } else { 0 });
    assert_eq!(
        c.drain_aborts_seen,
        if rollback == stage::CKPT_WRITTEN {
            2
        } else {
            0
        }
    );
    assert_eq!(c.restart_abandoned, if restart { 2 } else { 0 });
    assert_eq!(c.exited_75, if restart { 2 } else { 0 });
    assert_eq!(c.run.pin, want, "cell {rollback}");
}

#[test]
fn rollback_at_suspended_resumes() {
    check_cell(
        stage::SUSPENDED,
        Pin {
            events_fired: 776,
            releases_hash: 0x6f57_0629_e756_68f8,
            journal_hash: 0x8fe6_821d_7cda_d26c,
        },
    );
}

#[test]
fn rollback_at_elected_resumes() {
    check_cell(
        stage::ELECTED,
        Pin {
            events_fired: 787,
            releases_hash: 0x33d4_bb70_9885_efcd,
            journal_hash: 0x3a33_dd32_15cf_572c,
        },
    );
}

#[test]
fn rollback_at_drained_pushes_back_then_resumes() {
    check_cell(
        stage::DRAINED,
        Pin {
            events_fired: 763,
            releases_hash: 0x3d83_70b7_093e_124a,
            journal_hash: 0xe0d0_4796_2b2b_66ab,
        },
    );
}

#[test]
fn rollback_at_checkpointed_pushes_back_then_resumes() {
    check_cell(
        stage::CHECKPOINTED,
        Pin {
            events_fired: 828,
            releases_hash: 0xaba7_732f_9ff1_ce42,
            journal_hash: 0x5a2b_6973_b8d0_0385,
        },
    );
}

#[test]
fn rollback_at_refilled_resumes() {
    check_cell(
        stage::REFILLED,
        Pin {
            events_fired: 844,
            releases_hash: 0xb9c4_36ba_09d5_fda2,
            journal_hash: 0xf69d_f74f_3196_4244,
        },
    );
}

#[test]
fn rollback_in_the_forked_drain_counts_and_idles() {
    check_cell(
        stage::CKPT_WRITTEN,
        Pin {
            events_fired: 1_035,
            releases_hash: 0x2993_1cbc_675d_ec8d,
            journal_hash: 0xf746_11f1_f5e1_cead,
        },
    );
}

#[test]
fn rollback_in_a_restart_exits_75() {
    check_cell(
        stage::RESTART_REFILLED,
        Pin {
            events_fired: 402,
            releases_hash: 0x488d_6321_c447_57ad,
            journal_hash: 0x5e71_4016_9e7b_8575,
        },
    );
}

// ---------------------------------------------------------------------
// Figure 1 and Figure 2 order, read from the journal.
// ---------------------------------------------------------------------

/// Check every process's first reach of each stage, per generation and
/// per phase (checkpoint or restart), against `checkpoint` and
/// `stage::RESTART`; and that no reach comes before the release of the
/// stage before it in the table. An in-line writer acks CKPT_WRITTEN
/// before CHECKPOINTED — its image is durable there — so that reach is
/// checked against the DRAINED release instead.
fn check_order(run: &Run, checkpoint: &[u8], inline: bool) {
    // (vpid, gen, restart?) → first reaches, in journal order.
    let mut firsts: BTreeMap<(u64, u64, bool), Vec<(u8, usize)>> = BTreeMap::new();
    let mut released: BTreeMap<(u64, u8), usize> = BTreeMap::new();
    for (i, e) in run.events.iter().enumerate() {
        let (Some(gen), Some(stg)) = (e.num("gen"), e.num("stage")) else {
            continue;
        };
        let stg = stg as u8;
        match e.kind.as_str() {
            "stage.release" => {
                released.entry((gen, stg)).or_insert(i);
            }
            "stage.reach" => {
                let vpid = e.num("vpid").unwrap();
                let seen = firsts
                    .entry((vpid, gen, stg >= stage::RESTORED))
                    .or_default();
                if !seen.iter().any(|(s, _)| *s == stg) {
                    seen.push((stg, i));
                }
            }
            _ => {}
        }
    }
    assert!(
        firsts.len() >= 8,
        "two processes × (3 checkpoints + restart)"
    );
    for ((vpid, gen, restart), reaches) in &firsts {
        let order: Vec<u8> = reaches.iter().map(|(s, _)| *s).collect();
        let table = if *restart {
            &stage::RESTART[..]
        } else {
            checkpoint
        };
        assert_eq!(order, table, "vpid {vpid} gen {gen}: first reaches");
        let figure = if *restart {
            &stage::RESTART[..]
        } else {
            &stage::CHECKPOINT[..]
        };
        for &(stg, at) in reaches {
            let pos = figure.iter().position(|&s| s == stg).unwrap();
            let before = if inline && stg == stage::CKPT_WRITTEN {
                Some(stage::DRAINED)
            } else {
                pos.checked_sub(1).map(|p| figure[p])
            };
            if let Some(prev) = before {
                let rel = released[&(*gen, prev)];
                assert!(
                    rel < at,
                    "vpid {vpid} gen {gen}: reach {stg} before release {prev}"
                );
            }
        }
    }
}

#[test]
fn forked_reaches_follow_figure_1_and_figure_2() {
    check_order(forked_cycle(), &stage::CHECKPOINT, false);
}

#[test]
fn inline_reaches_follow_figure_1_with_the_early_write_ack() {
    // An in-line writer's CKPT_WRITTEN moves to just before CHECKPOINTED.
    let mut inline: Vec<u8> = stage::CHECKPOINT
        .iter()
        .copied()
        .filter(|&s| s != stage::CKPT_WRITTEN)
        .collect();
    let at = inline
        .iter()
        .position(|&s| s == stage::CHECKPOINTED)
        .unwrap();
    inline.insert(at, stage::CKPT_WRITTEN);
    assert_eq!(inline, [2, 3, 4, 7, 5, 6]);
    check_order(inline_cycle(), &inline, true);
}
