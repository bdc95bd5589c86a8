//! Copy-on-write edge cases for forked (two-phase) checkpointing.
//!
//! The stop-the-world phase ends at the REFILLED release; the image is then
//! compressed and written in the background while the application runs.
//! These tests pin down the three semantic corners of that overlap:
//!
//! * a write landing mid-drain is charged a physical copy and must NOT leak
//!   into the in-flight image — restart sees the pre-fork bytes;
//! * a second checkpoint request during the drain is queued behind the
//!   `CKPT_WRITTEN` acknowledgment, never interleaved;
//! * `mmap(MAP_SHARED)` segments write through (no copy-on-write), so a
//!   mid-drain shm write charges nothing and the drain still completes.

mod common;

use common::{cluster, run_budget, shared_result, CowProbe, ShmProbe};
use dmtcp::coord::{coord_shared_for, stage, COORD_PORT};
use dmtcp::session::run_for;
use dmtcp::{ExpectCkpt, Options, RestartPlan, Session};
use oskit::world::{NodeId, OsSim, World};
use simkit::{Nanos, RunOutcome};

const MB: u64 = 1 << 20;

fn forked_opts() -> Options {
    Options::builder()
        .ckpt_dir("/shared/ckpt")
        .forked(true)
        .build()
}

/// Kill the computation, clear the probe's flag files, raise `dump`, and
/// restart; returns once the restored probe has written its result file.
fn restart_and_dump(s: &Session, w: &mut World, sim: &mut OsSim, flags: &[&str], dump: &str) {
    let budget = run_budget();
    s.kill_computation(w, sim);
    for f in flags {
        let _ = w.shared_fs.remove(f);
    }
    w.shared_fs.write_all(dump, b"1").expect("dump flag");
    let restored = RestartPlan::builder()
        .resilient(true)
        .build()
        .execute(s, w, sim)
        .expect("restart");
    assert!(restored.rejected.is_empty(), "no image may be rejected");
    Session::wait_restart_done(w, sim, restored.gen, budget);
    match sim.run_budgeted(w, budget) {
        RunOutcome::Quiescent | RunOutcome::Halted => {}
        RunOutcome::BudgetExhausted => panic!("restored probe did not finish"),
    }
}

/// An application write during the overlapped drain forces a charged copy,
/// and the image keeps the pre-fork bytes: restart reproduces the pattern
/// as of the fork instant, not the 0xBB overwrite.
#[test]
fn mid_drain_write_keeps_prefork_bytes() {
    let budget = run_budget();
    let len = 2 * MB;
    let (mut w, mut sim) = cluster(2);
    let s = Session::start(&mut w, &mut sim, forked_opts());
    s.launch(
        &mut w,
        &mut sim,
        NodeId(1),
        "cow",
        Box::new(CowProbe::new(len)),
    );
    run_for(&mut w, &mut sim, Nanos::from_millis(2));
    assert!(
        w.shared_fs.exists("/shared/cow_ready"),
        "probe never set up"
    );

    let g1 = s
        .checkpoint_and_wait(&mut w, &mut sim, budget)
        .expect_ckpt();
    assert_eq!(g1.gen, 1);
    // The application is running again but the background write is still in
    // flight: poke the probe into overwriting the snapshotted region now.
    let copied_before = w.obs.metrics.counter_total("oskit.mem.cow_copied_bytes");
    w.shared_fs.write_all("/shared/cow_go", b"1").expect("flag");

    let gw = Session::wait_ckpt_written(&mut w, &mut sim, 1, budget).expect("drain completes");
    assert!(
        w.shared_fs.exists("/shared/cow_done"),
        "probe never wrote mid-drain"
    );
    let copied = w.obs.metrics.counter_total("oskit.mem.cow_copied_bytes") - copied_before;
    assert!(
        copied >= len,
        "overwriting a {len}-byte snapshotted region must charge at least \
         that much copy-on-write work, charged {copied}"
    );
    // Perceived downtime (request → resume) must be a strict subset of the
    // total checkpoint time (request → CKPT_WRITTEN).
    let pause = gw.total_pause().expect("refilled");
    let total = gw.written_time().expect("written");
    assert!(
        pause < total,
        "stop-the-world ({pause:?}) must end before the drain ({total:?})"
    );

    restart_and_dump(
        &s,
        &mut w,
        &mut sim,
        &["/shared/cow_ready", "/shared/cow_go", "/shared/cow_done"],
        "/shared/cow_dump",
    );
    let want = CowProbe::checksum(&CowProbe::pattern(len)).to_string();
    assert_eq!(
        shared_result(&w, "/shared/cow_result").as_deref(),
        Some(want.as_str()),
        "restart must see the pre-fork pattern, not the mid-drain overwrite"
    );
}

/// A checkpoint requested while a drain is still in flight is queued: the
/// second generation must not start before the first one's `CKPT_WRITTEN`
/// release.
#[test]
fn overlapping_requests_serialize_on_ckpt_written() {
    let budget = run_budget();
    let (mut w, mut sim) = cluster(2);
    let s = Session::start(&mut w, &mut sim, forked_opts());
    s.launch(
        &mut w,
        &mut sim,
        NodeId(1),
        "cow",
        Box::new(CowProbe::new(4 * MB)),
    );
    run_for(&mut w, &mut sim, Nanos::from_millis(2));

    let g1 = s
        .checkpoint_and_wait(&mut w, &mut sim, budget)
        .expect_ckpt();
    assert_eq!(g1.gen, 1);
    // Gen 1's drain is open; this request must be parked until it finishes.
    let g2 = s
        .checkpoint_and_wait(&mut w, &mut sim, budget)
        .expect_ckpt();
    assert_eq!(g2.gen, 2);

    let written1 = coord_shared_for(&mut w, COORD_PORT)
        .gen_stats
        .iter()
        .find(|g| g.gen == 1)
        .expect("gen 1 stat")
        .releases
        .get(&stage::CKPT_WRITTEN)
        .copied()
        .expect("gen 1 drained");
    assert!(
        g2.requested_at >= written1,
        "gen 2 started at {:?}, before gen 1's CKPT_WRITTEN at {:?}",
        g2.requested_at,
        written1
    );
}

/// Forking over an `mmap(MAP_SHARED)` region: shm writes go through to the
/// live segment — never copy-on-write, never charged — and the drain still
/// completes and restarts cleanly.
#[test]
fn shm_region_writes_through_uncharged() {
    let budget = run_budget();
    let len = 256 * 1024;
    let (mut w, mut sim) = cluster(2);
    let s = Session::start(&mut w, &mut sim, forked_opts());
    s.launch(
        &mut w,
        &mut sim,
        NodeId(1),
        "shm",
        Box::new(ShmProbe::new(len)),
    );
    run_for(&mut w, &mut sim, Nanos::from_millis(2));
    assert!(
        w.shared_fs.exists("/shared/shm_ready"),
        "probe never set up"
    );

    let g1 = s
        .checkpoint_and_wait(&mut w, &mut sim, budget)
        .expect_ckpt();
    assert_eq!(g1.gen, 1);
    let copied_before = w.obs.metrics.counter_total("oskit.mem.cow_copied_bytes");
    w.shared_fs.write_all("/shared/shm_go", b"1").expect("flag");

    Session::wait_ckpt_written(&mut w, &mut sim, 1, budget).expect("drain completes");
    assert!(
        w.shared_fs.exists("/shared/shm_done"),
        "probe never wrote mid-drain"
    );
    assert_eq!(
        w.obs.metrics.counter_total("oskit.mem.cow_copied_bytes"),
        copied_before,
        "shared-segment writes must not be charged copy-on-write"
    );

    restart_and_dump(
        &s,
        &mut w,
        &mut sim,
        &["/shared/shm_ready", "/shared/shm_go", "/shared/shm_done"],
        "/shared/shm_dump",
    );
    assert!(
        shared_result(&w, "/shared/shm_result").is_some(),
        "restored probe must run to completion over the shm mapping"
    );
}
