//! Flight-recorder replay smoke tests (run in the CI `test` stage).
//!
//! Records a full checkpointed run with the flight recorder on, then
//! re-executes it from the journal with [`dmtcp::replay::drive`] and
//! requires *zero* divergence and a bit-identical final answer — the
//! determinism contract that makes `dmtcp replay` a debugger rather than a
//! best-effort approximation. A second test seeks to the middle of the
//! recording and checks the substrate snapshot is produced there.

mod common;

use common::*;
use dmtcp::session::{enable_flight_recorder, export_journal, run_for};
use dmtcp::{ExpectCkpt, Options, Session};
use obs::journal::{CLASS_FAULT, CLASS_NET, CLASS_STAGE};
use oskit::world::{NodeId, OsSim, World};
use simkit::{Nanos, RunOutcome, Sim};

const ROUNDS: u64 = 40;

/// Session options shared by the recording and the replay (they must be
/// identical, or the worlds themselves differ).
fn options() -> Options {
    Options::builder().ckpt_dir("/shared/ckpt").build()
}

/// Launch the chain workload exactly the same way in both worlds.
fn launch_workload(w: &mut World, sim: &mut OsSim, s: &Session) {
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
        Box::new(ChainClient::new("node01", 9000, ROUNDS)),
    );
}

/// Record a run to completion; returns the journal JSONL and the final
/// answers.
fn record(budget: u64) -> (String, String, String) {
    record_on(Sim::new, budget)
}

/// Like [`record`], but on an explicit queue engine — the cross-engine test
/// records on the pre-overhaul reference heap.
fn record_on(mk: fn() -> OsSim, budget: u64) -> (String, String, String) {
    let (mut w, _) = cluster(2);
    let mut sim = mk();
    enable_flight_recorder(
        &mut w,
        CLASS_NET | CLASS_FAULT | CLASS_STAGE,
        &[("test", "replay-smoke")],
    );
    let s = Session::start(&mut w, &mut sim, options());
    launch_workload(&mut w, &mut sim, &s);
    run_for(&mut w, &mut sim, Nanos::from_millis(6));
    let g = s
        .checkpoint_and_wait(&mut w, &mut sim, budget)
        .expect_ckpt();
    assert_eq!(g.gen, 1);
    assert!(
        matches!(
            sim.run_budgeted(&mut w, budget),
            RunOutcome::Quiescent | RunOutcome::Halted
        ),
        "recorded run did not finish"
    );
    let client = shared_result(&w, "/shared/client_result").expect("client answer");
    let server = shared_result(&w, "/shared/server_result").expect("server answer");
    // Stamp the run's final virtual time so a replay can seek all the way
    // to quiescence (the last journaled event may precede it).
    w.obs.journal.set_meta("end_ns", format!("{}", sim.now().0));
    assert_eq!(w.obs.journal.evicted(), 0, "smoke journal must be lossless");
    (export_journal(&mut w), client, server)
}

#[test]
fn unmodified_run_replays_with_zero_divergence() {
    let budget = run_budget();
    let (jsonl, client, server) = record(budget);
    let recorded = obs::journal::decode_jsonl(&jsonl).expect("journal decodes");
    assert!(!recorded.events.is_empty(), "recording captured nothing");
    let end = Nanos(
        recorded
            .meta_value("end_ns")
            .and_then(|s| s.parse().ok())
            .expect("end_ns meta"),
    );

    let (mut w, mut sim) = cluster(2);
    dmtcp::replay::arm(&mut w, &recorded).expect("lossless recording arms");
    let s = Session::start(&mut w, &mut sim, options());
    launch_workload(&mut w, &mut sim, &s);
    let report = dmtcp::replay::drive(&mut w, &mut sim, &s, &recorded, Some(end));

    assert!(
        report.divergence.is_none(),
        "replay diverged:\n{}",
        report.verdict()
    );
    assert_eq!(
        report.checked,
        recorded.events.len() as u64,
        "replay must match every recorded event"
    );
    assert_eq!(report.expected_remaining, 0);
    assert_eq!(
        shared_result(&w, "/shared/client_result").as_deref(),
        Some(client.as_str()),
        "replay must reproduce the client answer bit-for-bit"
    );
    assert_eq!(
        shared_result(&w, "/shared/server_result").as_deref(),
        Some(server.as_str()),
        "replay must reproduce the server answer bit-for-bit"
    );
    obs::json::validate(&report.snapshot).expect("snapshot is well-formed JSON");
}

/// The ISSUE-9 compatibility bar for the engine swap: a journal recorded on
/// the pre-overhaul reference-heap engine must replay with zero divergence
/// on the timer wheel, with bit-identical final answers — recordings made
/// before the overhaul stay debuggable after it.
#[test]
fn heap_recorded_journal_replays_on_wheel_engine() {
    let budget = run_budget();
    let (jsonl, client, server) = record_on(Sim::new_reference, budget);
    let recorded = obs::journal::decode_jsonl(&jsonl).expect("journal decodes");
    assert!(!recorded.events.is_empty(), "recording captured nothing");
    let end = Nanos(
        recorded
            .meta_value("end_ns")
            .and_then(|s| s.parse().ok())
            .expect("end_ns meta"),
    );

    let (mut w, _) = cluster(2);
    let mut sim: OsSim = Sim::new();
    dmtcp::replay::arm(&mut w, &recorded).expect("lossless recording arms");
    let s = Session::start(&mut w, &mut sim, options());
    launch_workload(&mut w, &mut sim, &s);
    let report = dmtcp::replay::drive(&mut w, &mut sim, &s, &recorded, Some(end));

    assert!(
        report.divergence.is_none(),
        "wheel replay of a heap recording diverged:\n{}",
        report.verdict()
    );
    assert_eq!(report.checked, recorded.events.len() as u64);
    assert_eq!(report.expected_remaining, 0);
    assert_eq!(
        shared_result(&w, "/shared/client_result").as_deref(),
        Some(client.as_str())
    );
    assert_eq!(
        shared_result(&w, "/shared/server_result").as_deref(),
        Some(server.as_str())
    );
}

#[test]
fn seek_to_mid_run_dumps_substrate_at_that_instant() {
    let budget = run_budget();
    let (jsonl, _, _) = record(budget);
    let recorded = obs::journal::decode_jsonl(&jsonl).expect("journal decodes");
    // Seek to the virtual time of the middle event — mid-protocol, with the
    // checkpoint barriers in flight.
    let mid = recorded.events[recorded.events.len() / 2].at;

    let (mut w, mut sim) = cluster(2);
    dmtcp::replay::arm(&mut w, &recorded).expect("lossless recording arms");
    let s = Session::start(&mut w, &mut sim, options());
    launch_workload(&mut w, &mut sim, &s);
    let report = dmtcp::replay::drive(&mut w, &mut sim, &s, &recorded, Some(mid));

    assert!(
        report.divergence.is_none(),
        "prefix replay diverged:\n{}",
        report.verdict()
    );
    assert_eq!(report.at, mid, "replay must stop exactly at the seek time");
    assert!(
        report.expected_remaining > 0,
        "seeking mid-run leaves recorded events unreached"
    );
    obs::json::validate(&report.snapshot).expect("snapshot is well-formed JSON");
    assert!(
        report.snapshot.contains("\"substrate\""),
        "snapshot must embed the kernel object model"
    );
}
