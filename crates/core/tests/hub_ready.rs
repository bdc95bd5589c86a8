//! Guards for the readiness-driven protocol hubs (coordinator + relays).
//!
//! Two properties, both checked on counts and virtual-time values only —
//! never on a wall clock:
//!
//! 1. **Determinism pin.** A flat 256-process checkpoint → kill → restart →
//!    checkpoint on a fixed topology produces exactly the event count,
//!    barrier-release instants and flight-recorder journal that the
//!    poll-every-socket hub loops produced before they were replaced. The
//!    ready set may only remove host work; the wake/dispatch sequence — and
//!    therefore every virtual-time number — must not move.
//! 2. **Scaling guard.** The coordinator performs O(messages) would-block
//!    socket reads per generation, not O(clients × messages).

mod common;

use common::*;
use dmtcp::restart::plan::RestartPlan;
use dmtcp::session::{enable_flight_recorder, export_journal, run_for};
use dmtcp::{ExpectCkpt, Options, Session};
use obs::journal::{CLASS_FAULT, CLASS_NET, CLASS_STAGE};
use oskit::program::{Program, Step};
use oskit::spec::HwSpec;
use oskit::world::{NodeId, OsSim, World};
use oskit::Kernel;
use simkit::{Nanos, Sim};
use std::sync::OnceLock;

const NODES: usize = 16;
const PROCS: usize = 256;
const EV: u64 = 20_000_000;

/// Allocates a little ballast once, then sleeps in a loop: the per-process
/// cost floor, so the coordinator's protocol work dominates.
struct Sleeper {
    pc: u8,
}
simkit::impl_snap!(struct Sleeper { pc });
impl Program for Sleeper {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        if self.pc == 0 {
            k.mmap_synthetic(
                "ballast",
                64 << 10,
                0x5ca1e,
                oskit::mem::FillProfile::Random,
            );
            self.pc = 1;
        }
        Step::Sleep(Nanos::from_millis(10))
    }
    fn tag(&self) -> &'static str {
        "hub-sleeper"
    }
    fn save(&self) -> Vec<u8> {
        use simkit::Snap;
        self.to_snap_bytes()
    }
}

fn world() -> (World, OsSim) {
    let mut reg = test_registry();
    reg.register_snap::<Sleeper>("hub-sleeper");
    (World::new(HwSpec::cluster(), NODES, reg), Sim::new())
}

/// What one run of the scenario leaves behind (plain numbers, so both
/// tests can share a single run).
struct Outcome {
    events_fired: u64,
    /// `(gen, stage, release instant)` of every `GenStat`, in push order.
    releases: Vec<(u64, u8, u64)>,
    journal_len: usize,
    journal_hash: u64,
    /// Over the post-restart generation alone: socket reads by the
    /// coordinator process that found nothing, and root wire messages.
    post_would_block: u64,
    post_root_msgs: u64,
}

/// Flat 256-process checkpoint → kill → restart → checkpoint, recorded.
fn run_scenario() -> Outcome {
    let (mut w, mut sim) = world();
    enable_flight_recorder(&mut w, CLASS_NET | CLASS_FAULT | CLASS_STAGE, &[]);
    w.obs.journal.set_capacity(1 << 20);
    let opts = Options::builder().ckpt_dir("/ckpt").build();
    let s = Session::start(&mut w, &mut sim, opts);
    for i in 0..PROCS {
        s.launch(
            &mut w,
            &mut sim,
            NodeId((i % NODES) as u32),
            "sleeper",
            Box::new(Sleeper { pc: 0 }),
        );
    }
    run_for(&mut w, &mut sim, Nanos::from_millis(200));
    let g1 = s.checkpoint_and_wait(&mut w, &mut sim, EV).expect_ckpt();
    Session::wait_ckpt_written(&mut w, &mut sim, g1.gen, EV).expect("gen 1 settles");
    assert_eq!(g1.participants as usize, PROCS);
    run_for(&mut w, &mut sim, Nanos::from_millis(50));

    s.kill_computation(&mut w, &mut sim);
    RestartPlan::builder()
        .generation(g1.gen)
        .build()
        .execute(&s, &mut w, &mut sim)
        .expect("restart in place");
    Session::wait_restart_done(&mut w, &mut sim, g1.gen, EV);
    run_for(&mut w, &mut sim, Nanos::from_millis(50));

    let coord = s.coord_pid.0 as u64;
    let would_block = |w: &World| w.obs.metrics.counter("oskit.sock.would_block", coord);
    let before = would_block(&w);
    let g2 = s.checkpoint_and_wait(&mut w, &mut sim, EV).expect_ckpt();
    Session::wait_ckpt_written(&mut w, &mut sim, g2.gen, EV).expect("post-restart gen settles");
    assert_eq!(g2.participants as usize, PROCS);
    let post_would_block = would_block(&w) - before;
    let post_root_msgs = w.obs.metrics.counter("coord.root_msgs", g2.gen);

    let releases = dmtcp::coord::coord_shared_for(&mut w, s.opts.coord_port)
        .gen_stats
        .iter()
        .flat_map(|g| g.releases.iter().map(|(s, t)| (g.gen, *s, t.0)))
        .collect();
    assert_eq!(w.obs.journal.evicted(), 0, "pin journal must be lossless");
    let journal = export_journal(&mut w);
    Outcome {
        events_fired: sim.events_fired(),
        releases,
        journal_len: journal.len(),
        journal_hash: fnv1a(journal.as_bytes()),
        post_would_block,
        post_root_msgs,
    }
}

fn outcome() -> &'static Outcome {
    static ONCE: OnceLock<Outcome> = OnceLock::new();
    ONCE.get_or_init(run_scenario)
}

/// Values recorded by running this exact scenario at the parent commit
/// (d28e5b2), whose coordinator polled every client socket on every wake-up.
#[test]
fn flat_256_cycle_matches_the_poll_everything_schedule() {
    let o = outcome();
    assert_eq!(o.events_fired, 28_877, "sim.events_fired()");
    assert_eq!(o.releases.len(), 14, "two checkpoints + one restart");
    assert_eq!(o.releases.first(), Some(&(1, 2, 220_191_576)));
    assert_eq!(o.releases.last(), Some(&(2, 7, 423_891_679)));
    assert_eq!(
        fnv1a(format!("{:?}", o.releases).as_bytes()),
        0x3527_7354_e7fe_b1c0,
        "GenStat release times: {:?}",
        o.releases
    );
    assert_eq!(o.journal_len, 2_867_568, "flight-recorder journal length");
    assert_eq!(
        o.journal_hash, 0x1000_241a_5fa2_ed8d,
        "flight-recorder journal hash"
    );
}

/// A reintroduced poll-all loop fails here on a count, not on timing: it
/// costs about `clients × messages` would-block reads per generation
/// (hundreds of thousands at N = 256); the ready set costs at most one per
/// readiness report, and there are fewer of those than inbound messages.
#[test]
fn coordinator_would_block_reads_scale_with_messages_not_clients() {
    let o = outcome();
    assert!(
        o.post_root_msgs >= 12 * PROCS as u64,
        "a flat generation is O(processes) root messages, saw {}",
        o.post_root_msgs
    );
    assert!(
        o.post_would_block <= 2 * o.post_root_msgs,
        "coordinator made {} would-block reads for {} root messages",
        o.post_would_block,
        o.post_root_msgs
    );
}
