//! Guards for readiness-driven MPI ranks.
//!
//! `MpiRt::pump` reads only the peer sockets the kernel reports ready, and
//! the watches behind those reports are kernel state that a checkpoint
//! carries across a restart. Three properties, all checked on counts and
//! virtual-time values — never on a wall clock:
//!
//! 1. **Determinism pin.** A 32-rank NAS/MG job under DMTCP, taken through
//!    checkpoint → kill → restart → checkpoint, produces exactly the event
//!    count, barrier-release instants and flight-recorder journal that
//!    ranks which read every peer on every step produced. The ready set
//!    may only remove host work.
//! 2. **Scaling guard.** A rank performs O(messages) would-block socket
//!    reads, not O(peers × steps).
//! 3. **Restart keeps the watches.** Every restored rank's peer ends are
//!    watched by that rank's own user thread, and the job finishes with
//!    the answer of an uninterrupted run. A restart that dropped the
//!    watches would leave every rank blocked on a ready set nobody fills.

use apps::nas::{nas_factory, NasKernel};
use apps::registry::full_registry;
use apps::result_path;
use dmtcp::session::{enable_flight_recorder, export_journal, run_for};
use dmtcp::{ExpectCkpt, Options, RestartPlan, Session};
use obs::journal::{CLASS_FAULT, CLASS_NET, CLASS_STAGE};
use oskit::fdtable::FdObject;
use oskit::net::ConnId;
use oskit::world::{NodeId, OsSim, Pid, World};
use oskit::HwSpec;
use simkit::{Nanos, Sim};
use simmpi::launch::{mpirun, Flavor, Launcher, MpiJob, RankFactory};
use std::collections::BTreeSet;
use std::sync::OnceLock;

const NODES: usize = 8;
const PER_NODE: usize = 4;
const RANKS: usize = NODES * PER_NODE;
const ITERS: u32 = 120;
const LOCAL_N: u32 = 256;
const EV: u64 = 20_000_000;

fn world() -> (World, OsSim) {
    (
        World::new(HwSpec::cluster(), NODES, full_registry()),
        Sim::new(),
    )
}

fn job() -> MpiJob {
    MpiJob {
        flavor: Flavor::OpenMpi,
        nodes: (0..NODES as u32).map(NodeId).collect(),
        procs_per_node: PER_NODE,
        base_port: 30_000,
    }
}

fn factory() -> RankFactory {
    nas_factory(NasKernel::Mg, ITERS, LOCAL_N)
}

fn mg_result(w: &World) -> Option<Vec<u8>> {
    w.shared_fs.read_all(&result_path("nas-MG")).ok()
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The live MPI ranks, in pid order.
fn ranks(w: &World) -> Vec<Pid> {
    w.procs
        .values()
        .filter(|p| p.alive())
        .filter(|p| {
            p.threads
                .iter()
                .any(|t| t.user && t.program.tag() == "nas-rank")
        })
        .map(|p| p.pid)
        .collect()
}

/// One restored rank, as the kernel sees it after the restart.
struct RankView {
    pid: Pid,
    /// Socket ends whose other end another rank holds.
    peer_ends: usize,
    /// Those of them watched by this rank's own user thread.
    own_watched: usize,
    /// Distinct tokens among those watches.
    tokens: usize,
}

/// What one run of the scenario leaves behind (plain numbers, so every
/// test can share a single run).
struct Outcome {
    events_fired: u64,
    /// `(gen, stage, release instant)` of every `GenStat`, in push order.
    releases: Vec<(u64, u8, u64)>,
    journal_len: usize,
    journal_hash: u64,
    restored: Vec<RankView>,
    /// Per restored rank, over the run between the restart and the next
    /// checkpoint: `(would-block socket reads, MPI messages taken in)`.
    post: Vec<(u64, u64)>,
    /// The job's answer after running it out, `None` if it stalled.
    result: Option<Vec<u8>>,
}

/// 32-rank MG, checkpoint → kill → restart → checkpoint, recorded.
fn run_scenario() -> Outcome {
    let (mut w, mut sim) = world();
    enable_flight_recorder(&mut w, CLASS_NET | CLASS_FAULT | CLASS_STAGE, &[]);
    w.obs.journal.set_capacity(1 << 21);
    let s = Session::start(
        &mut w,
        &mut sim,
        Options::builder().ckpt_dir("/ckpt").build(),
    );
    mpirun(&mut w, &mut sim, Launcher::Dmtcp(&s), &job(), factory());
    run_for(&mut w, &mut sim, Nanos::from_millis(150));
    let g1 = s.checkpoint_and_wait(&mut w, &mut sim, EV).expect_ckpt();
    Session::wait_ckpt_written(&mut w, &mut sim, g1.gen, EV).expect("gen 1 settles");
    assert_eq!(
        g1.participants as usize,
        RANKS + NODES + 1,
        "ranks + orteds + orterun"
    );
    run_for(&mut w, &mut sim, Nanos::from_millis(30));

    s.kill_computation(&mut w, &mut sim);
    RestartPlan::builder()
        .generation(g1.gen)
        .build()
        .execute(&s, &mut w, &mut sim)
        .expect("restart in place");
    Session::wait_restart_done(&mut w, &mut sim, g1.gen, EV);
    let pids = ranks(&w);
    let restored = pids.iter().map(|&pid| view(&w, pid, &pids)).collect();
    let counts = |w: &World| -> Vec<(u64, u64)> {
        pids.iter()
            .map(|&pid| {
                let m = &w.obs.metrics;
                (
                    m.counter("oskit.sock.would_block", pid.0 as u64),
                    m.counter("simmpi.msgs_in", pid.0 as u64),
                )
            })
            .collect()
    };
    let before = counts(&w);
    run_for(&mut w, &mut sim, Nanos::from_millis(60));
    let post = counts(&w)
        .iter()
        .zip(&before)
        .map(|(a, b)| (a.0 - b.0, a.1 - b.1))
        .collect();
    let g2 = s.checkpoint_and_wait(&mut w, &mut sim, EV).expect_ckpt();
    Session::wait_ckpt_written(&mut w, &mut sim, g2.gen, EV).expect("gen 2 settles");
    assert_eq!(g2.participants, g1.participants);
    assert!(mg_result(&w).is_none(), "the job must outlive the scenario");

    let releases = dmtcp::coord::coord_shared_for(&mut w, s.opts.coord_port)
        .gen_stats
        .iter()
        .flat_map(|g| g.releases.iter().map(|(s, t)| (g.gen, *s, t.0)))
        .collect();
    assert_eq!(w.obs.journal.evicted(), 0, "pin journal must be lossless");
    let journal = export_journal(&mut w);
    let events_fired = sim.events_fired();
    let ran_out = sim.run_bounded(&mut w, EV);
    Outcome {
        events_fired,
        releases,
        journal_len: journal.len(),
        journal_hash: fnv1a(journal.as_bytes()),
        restored,
        post,
        result: mg_result(&w).filter(|_| ran_out),
    }
}

fn view(w: &World, pid: Pid, ranks: &[Pid]) -> RankView {
    let socks = |pid: &Pid| -> Vec<(ConnId, u8)> {
        w.procs[pid]
            .fds
            .iter()
            .filter_map(|(_, e)| match e.obj {
                FdObject::Sock(cid, end) => Some((cid, end)),
                _ => None,
            })
            .collect()
    };
    let others: BTreeSet<(ConnId, u8)> = ranks
        .iter()
        .filter(|&&r| r != pid)
        .flat_map(socks)
        .collect();
    let user = w.procs[&pid].threads.iter().find(|t| t.user).map(|t| t.tid);
    let peer_ends: Vec<(ConnId, u8)> = socks(&pid)
        .into_iter()
        .filter(|&(cid, end)| others.contains(&(cid, 1 - end)))
        .collect();
    let tokens: BTreeSet<u64> = peer_ends
        .iter()
        .filter_map(|&(cid, end)| w.conns[&cid].watchers[end as usize])
        .filter(|watch| watch.who.0 == pid && Some(watch.who.1) == user)
        .map(|watch| watch.token)
        .collect();
    let own_watched = peer_ends
        .iter()
        .filter(|&&(cid, end)| {
            w.conns[&cid].watchers[end as usize]
                .is_some_and(|watch| watch.who.0 == pid && Some(watch.who.1) == user)
        })
        .count();
    RankView {
        pid,
        peer_ends: peer_ends.len(),
        own_watched,
        tokens: tokens.len(),
    }
}

fn outcome() -> &'static Outcome {
    static ONCE: OnceLock<Outcome> = OnceLock::new();
    ONCE.get_or_init(run_scenario)
}

/// Values recorded by running this exact scenario at the parent commit
/// (5ab3fbb), whose ranks read every peer socket on every pump.
#[test]
fn mg_cycle_matches_the_read_every_peer_schedule() {
    let o = outcome();
    assert_eq!(o.events_fired, 34_062, "sim.events_fired()");
    assert_eq!(o.releases.len(), 14, "two checkpoints + one restart");
    assert_eq!(o.releases.first(), Some(&(1, 2, 170_012_196)));
    assert_eq!(o.releases.last(), Some(&(2, 7, 10_437_467_831)));
    assert_eq!(
        fnv1a(format!("{:?}", o.releases).as_bytes()),
        0x9268_c09a_2e37_039e,
        "GenStat release times: {:?}",
        o.releases
    );
    assert_eq!(o.journal_len, 4_830_340, "flight-recorder journal length");
    assert_eq!(
        o.journal_hash, 0x0bdb_dd74_3862_75a8,
        "flight-recorder journal hash"
    );
}

/// Every restored rank watches each of its 31 peers from its own user
/// thread, one token per peer — re-armed by the restart, not by the rank.
#[test]
fn restored_ranks_watch_every_peer_from_their_own_thread() {
    let o = outcome();
    assert_eq!(o.restored.len(), RANKS, "every rank restored");
    for r in &o.restored {
        assert_eq!(r.peer_ends, RANKS - 1, "rank pid {}", r.pid.0);
        assert_eq!(r.own_watched, RANKS - 1, "rank pid {}", r.pid.0);
        assert_eq!(r.tokens, RANKS - 1, "rank pid {}", r.pid.0);
    }
}

/// A reintroduced read-every-peer `pump` fails here on a count, not on
/// timing: it costs about `peers` would-block reads per pump (some 30 per
/// message here); the ready set costs at most one per readiness report,
/// and those come with messages — plus one per peer on the first pump
/// after the restart, which re-polls every end once. The window is the
/// run between restart and checkpoint: the rank's checkpoint-manager
/// thread, whose drain and refill loops still poll every job, shares the
/// process's counter.
#[test]
fn rank_would_block_reads_scale_with_messages_not_peers() {
    let o = outcome();
    for (r, &(would_block, msgs)) in o.restored.iter().zip(&o.post) {
        assert!(
            msgs > 0,
            "rank pid {} took in nothing after the restart",
            r.pid.0
        );
        assert!(
            would_block <= 3 * msgs,
            "rank pid {} made {would_block} would-block reads for {msgs} messages",
            r.pid.0
        );
    }
}

/// The restarted job runs out to the answer an uninterrupted run writes.
#[test]
fn restarted_job_finishes_with_the_uninterrupted_answer() {
    let o = outcome();
    let (mut w, mut sim) = world();
    mpirun(&mut w, &mut sim, Launcher::Raw, &job(), factory());
    assert!(sim.run_bounded(&mut w, EV), "reference run deadlocked");
    let reference = mg_result(&w).expect("reference finished");
    assert_eq!(
        o.result.as_ref(),
        Some(&reference),
        "restored ranks stalled or diverged"
    );
}
