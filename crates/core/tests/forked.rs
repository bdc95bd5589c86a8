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

// ---------------------------------------------------------------------
// Forked mode, and the choice each capture makes under it, across every
// kind of recovery.
// ---------------------------------------------------------------------

/// Eight 256 KiB regions and a 16 KiB scratch pad, ticking once a
/// millisecond. A *churning* scribe rewrites seven of the eight regions
/// every tick — a capture has ~1.8 MB to compress (125 ms) against a 2 ms
/// fork; an *idle* one stamps only the scratch pad — 1.1 ms of compression,
/// half what the fork would cost. After `ticks` ticks it records a checksum
/// of all its memory, a pure function of the tick count.
struct Scribe {
    churn: bool,
    mapped: bool,
    tick: u64,
    ticks: u64,
}
simkit::impl_snap!(struct Scribe { churn, mapped, tick, ticks });

impl Scribe {
    const REGIONS: usize = 8;
    const REGION_LEN: usize = 256 << 10;
    const SCRATCH_LEN: usize = 16 << 10;

    fn new(churn: bool, ticks: u64) -> Self {
        Scribe {
            churn,
            mapped: false,
            tick: 0,
            ticks,
        }
    }
}

impl oskit::program::Program for Scribe {
    fn step(&mut self, k: &mut oskit::Kernel<'_>) -> oskit::program::Step {
        use oskit::program::Step;
        // Region ids are mapping order, before and after a restore.
        if !self.mapped {
            for i in 0..Self::REGIONS {
                let id = k.mmap_anon(&format!("page{i}"), Self::REGION_LEN);
                k.mem_write(id, 0, &vec![i as u8; Self::REGION_LEN]);
            }
            k.mmap_anon("scratch", Self::SCRATCH_LEN);
            self.mapped = true;
        }
        if self.tick == self.ticks {
            let mut sum = 0u64;
            for id in 0..=Self::REGIONS {
                let len = if id < Self::REGIONS {
                    Self::REGION_LEN
                } else {
                    Self::SCRATCH_LEN
                };
                sum = sum.wrapping_mul(0x100_0000_01b3) ^ common::fnv1a(&k.mem_read(id, 0, len));
            }
            let fd = k.open("/shared/scribe_result", true).expect("result");
            k.write(fd, sum.to_string().as_bytes()).expect("w");
            return Step::Exit(0);
        }
        self.tick += 1;
        let stamp = self.tick as u8;
        if self.churn {
            for id in (0..Self::REGIONS).filter(|id| *id as u64 != self.tick % 8) {
                k.mem_write(id, 0, &vec![stamp; Self::REGION_LEN]);
            }
        }
        k.mem_write(Self::REGIONS, 0, &vec![stamp; Self::SCRATCH_LEN]);
        Step::Sleep(Nanos::from_millis(1))
    }
    fn tag(&self) -> &'static str {
        "scribe"
    }
    fn save(&self) -> Vec<u8> {
        use simkit::Snap;
        self.to_snap_bytes()
    }
}

fn scribe_world() -> (World, OsSim) {
    let mut reg = common::test_registry();
    reg.register_snap::<Scribe>("scribe");
    let mut w = World::new(oskit::HwSpec::cluster(), 4, reg);
    ckptstore::install(&mut w, ckptstore::Config::default());
    (w, simkit::Sim::new())
}

/// One generation and what it cost, by the registry's counters.
struct Gen {
    stat: dmtcp::coord::GenStat,
    incr_images: u64,
    captured: u64,
    cow_copied: u64,
}

fn generation(s: &Session, w: &mut World, sim: &mut OsSim) -> Gen {
    let budget = run_budget();
    let read = |w: &World| {
        [
            "mtcp.incr.images",
            "szip.bytes_in",
            "oskit.mem.cow_copied_bytes",
        ]
        .map(|c| w.obs.metrics.counter_total(c))
    };
    let before = read(w);
    let g = s.checkpoint_and_wait(w, sim, budget).expect_ckpt();
    let stat = Session::wait_ckpt_written(w, sim, g.gen, budget).expect("drain completes");
    let after = read(w);
    Gen {
        stat,
        incr_images: after[0] - before[0],
        captured: after[1] - before[1],
        cow_copied: after[2] - before[2],
    }
}

/// Run a scribe through a restart in place, a migration to its ring
/// successor, a migration to a node holding nothing of it, and a restart
/// that falls back a generation — onto the one that last migration restored
/// from, so the restart is a second restore of it — and require of the
/// generation after each
/// exactly what the steady-state generation before any of them showed.
fn scribe_through_every_recovery(churn: bool) -> Vec<Gen> {
    let budget = run_budget();
    let ticks = 3_000;
    let reference = {
        let (mut w, mut sim) = scribe_world();
        let prog = Box::new(Scribe::new(churn, ticks));
        w.spawn(
            &mut sim,
            NodeId(1),
            "scribe",
            prog,
            oskit::world::Pid(1),
            Default::default(),
        );
        assert!(sim.run_bounded(&mut w, budget));
        shared_result(&w, "/shared/scribe_result").expect("reference")
    };

    let (mut w, mut sim) = scribe_world();
    let opts = Options::builder().ckpt_dir("/ckpt").forked(true).build();
    let s = Session::start(&mut w, &mut sim, opts);
    let prog = Box::new(Scribe::new(churn, ticks));
    s.launch(&mut w, &mut sim, NodeId(1), "scribe", prog);
    let gap = Nanos::from_millis(3);
    run_for(&mut w, &mut sim, gap);

    let cold = generation(&s, &mut w, &mut sim);
    assert_eq!(cold.incr_images, 0, "nothing to alias yet");
    assert!(
        cold.stat.total_pause() < cold.stat.written_time(),
        "a first, full capture of 2 MiB forks either way"
    );
    run_for(&mut w, &mut sim, gap);
    let mut gens = vec![generation(&s, &mut w, &mut sim)];

    let vpid = |w: &World| {
        let p = w.procs.values().find(|p| p.alive() && p.cmd == "scribe");
        p.and_then(|p| p.virt_pid).expect("scribe is alive")
    };
    let restart = |w: &mut World, sim: &mut OsSim, expect_gen: u64| {
        s.kill_computation(w, sim);
        let plan = RestartPlan::builder().resilient(true).build();
        let out = plan.execute(&s, w, sim).expect("restart");
        assert_eq!(out.gen, expect_gen);
        Session::wait_restart_done(w, sim, out.gen, budget);
    };
    let migrate = |w: &mut World, sim: &mut OsSim, to: u32| {
        let plan = RestartPlan::builder()
            .only_pids([vpid(w)])
            .topology([NodeId(to)]);
        plan.build().migrate(&s, w, sim, budget).expect("migrates");
    };
    for recovery in 0..4 {
        run_for(&mut w, &mut sim, gap);
        let newest = gens.last().expect("steady").stat.gen;
        match recovery {
            0 => restart(&mut w, &mut sim, newest),
            // Node 1 → its ring successor, which holds a replica …
            1 => migrate(&mut w, &mut sim, 2),
            // … → node 0, which has never held a byte of this image (and
            // whose control channel to the coordinator is a loopback one).
            2 => migrate(&mut w, &mut sim, 0),
            _ => {
                // Tear every copy of the newest generation.
                let path = format!("/ckpt/ckpt_{}_gen{newest}.dmtcp", vpid(&w));
                let mpath = ckptstore::manifest::manifest_path(&path);
                for n in &mut w.nodes {
                    if let Some(f) = n.fs.get_mut(&mpath) {
                        let len = f.blob.len();
                        f.blob.truncate(len / 2);
                    }
                }
                restart(&mut w, &mut sim, newest - 1);
            }
        }
        run_for(&mut w, &mut sim, gap);
        gens.push(generation(&s, &mut w, &mut sim));
    }

    assert!(sim.run_bounded(&mut w, budget), "scribe never finished");
    assert_eq!(
        shared_result(&w, "/shared/scribe_result").as_deref(),
        Some(reference.as_str()),
        "the answer survives four recoveries"
    );
    gens
}

#[test]
fn a_churning_process_forks_after_every_kind_of_recovery() {
    for (i, g) in scribe_through_every_recovery(true).iter().enumerate() {
        let (pause, total) = (g.stat.total_pause(), g.stat.written_time());
        assert_eq!(g.incr_images, 1, "generation {i}: incremental");
        assert!(
            g.captured >= 7 * Scribe::REGION_LEN as u64,
            "generation {i}"
        );
        assert!(
            pause.expect("refilled").0 * 5 < total.expect("written").0,
            "generation {i}: forked — stopped {pause:?} of {total:?}"
        );
        assert!(g.cow_copied > 0, "generation {i}: wrote into the drain");
    }
}

#[test]
fn an_idle_process_is_written_in_line_after_every_kind_of_recovery() {
    for (i, g) in scribe_through_every_recovery(false).iter().enumerate() {
        assert_eq!(g.incr_images, 1, "generation {i}: incremental");
        assert_eq!(
            g.captured,
            Scribe::SCRATCH_LEN as u64,
            "generation {i}: exactly what was dirtied since the baseline"
        );
        assert_eq!(
            g.stat.total_pause(),
            g.stat.written_time(),
            "generation {i}: in-line — durable when it resumes"
        );
        assert_eq!(g.cow_copied, 0, "generation {i}: no snapshot to write into");
    }
}

/// Fault cell: a kill during the *first forked drain after a restart*. The
/// restored process forks like the launched one did, so its drain window is
/// as open as any: the kill lands inside it, `CKPT_WRITTEN` never releases,
/// and a second restart falls back to the generation the first restored.
#[test]
fn kill_during_the_first_drain_after_a_restart_falls_back_to_the_restored_generation() {
    let budget = run_budget();
    let len = 2 * MB;
    let (mut w, mut sim) = cluster(2);
    let s = Session::start(&mut w, &mut sim, forked_opts());
    let probe = Box::new(CowProbe::new(len));
    s.launch(&mut w, &mut sim, NodeId(1), "cow", probe);
    run_for(&mut w, &mut sim, Nanos::from_millis(2));
    let g1 = s
        .checkpoint_and_wait(&mut w, &mut sim, budget)
        .expect_ckpt();
    Session::wait_ckpt_written(&mut w, &mut sim, g1.gen, budget).expect("gen 1 durable");

    s.kill_computation(&mut w, &mut sim);
    let out = RestartPlan::newest()
        .execute(&s, &mut w, &mut sim)
        .expect("restart");
    assert_eq!(out.gen, 1);
    Session::wait_restart_done(&mut w, &mut sim, 1, budget);
    run_for(&mut w, &mut sim, Nanos::from_millis(2));

    // Stop-the-world settles; the drain is in flight behind the application.
    let g2 = s
        .checkpoint_and_wait(&mut w, &mut sim, budget)
        .expect_ckpt();
    assert_eq!(g2.gen, 2);
    let drain_open = coord_shared_for(&mut w, COORD_PORT)
        .newest(2)
        .is_some_and(|g| !g.releases.contains_key(&stage::CKPT_WRITTEN));
    assert!(
        drain_open,
        "the restored process forked: its image is still draining"
    );
    let victim = w.procs.values().find(|p| p.alive() && p.cmd == "cow");
    let victim = victim.expect("probe is alive").pid;
    w.signal(&mut sim, victim, oskit::proc::sig::SIGKILL);
    assert!(
        Session::wait_ckpt_written(&mut w, &mut sim, 2, budget).is_none(),
        "a kill mid-drain must abandon the generation"
    );

    restart_and_dump(
        &s,
        &mut w,
        &mut sim,
        &["/shared/cow_ready", "/shared/cow_go", "/shared/cow_done"],
        "/shared/cow_dump",
    );
    let newest = coord_shared_for(&mut w, COORD_PORT)
        .gen_stats
        .last()
        .cloned();
    assert_eq!(newest.expect("restart stat").gen, 1, "fell back to gen 1");
    let want = CowProbe::checksum(&CowProbe::pattern(len)).to_string();
    assert_eq!(
        shared_result(&w, "/shared/cow_result").as_deref(),
        Some(want.as_str())
    );
}

/// A request queued behind an open drain goes out in the same coordinator
/// step as the `CKPT_WRITTEN` release; on the coordinator's own node the
/// control channel is a loopback connection, where the shorter of two
/// same-instant sends arrives first. The forked manager still waiting for
/// that release must take the request up afterwards, not choke on it.
#[test]
fn a_request_queued_behind_a_drain_is_served_on_the_coordinators_node_too() {
    let budget = run_budget();
    let (mut w, mut sim) = cluster(2);
    let s = Session::start(&mut w, &mut sim, forked_opts());
    let probe = Box::new(CowProbe::new(MB));
    s.launch(&mut w, &mut sim, NodeId(0), "cow", probe);
    run_for(&mut w, &mut sim, Nanos::from_millis(2));
    for gen in 1..=3 {
        // Every request but the first arrives while a drain is open.
        let g = s
            .checkpoint_and_wait(&mut w, &mut sim, budget)
            .expect_ckpt();
        assert_eq!(g.gen, gen);
    }
    Session::wait_ckpt_written(&mut w, &mut sim, 3, budget).expect("drains");
}
