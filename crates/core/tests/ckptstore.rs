//! `ckptstore` under a full DMTCP session: incremental generations dedup
//! unchanged memory, the store never changes what a restart computes, and a
//! restart proceeds from a peer replica when the primary node's store is
//! wiped.
mod common;

use common::*;
use dmtcp::session::run_for;
use dmtcp::{ExpectCkpt, Options, RestartPlan, Session};
use oskit::mem::FillProfile;
use oskit::program::{Program, Step};
use oskit::world::NodeId;
use oskit::Kernel;
use simkit::{Nanos, Snap};

/// A process whose address space is dominated by ballast that never
/// changes after startup — the ideal case for incremental checkpoints.
struct MemHog {
    pc: u8,
    ticks: u64,
}
simkit::impl_snap!(struct MemHog { pc, ticks });

impl Program for MemHog {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        if self.pc == 0 {
            k.mmap_synthetic("ballast", 16 << 20, 0xb0a7, FillProfile::Random);
            self.pc = 1;
        }
        self.ticks += 1;
        Step::Compute(100_000)
    }
    fn tag(&self) -> &'static str {
        "memhog"
    }
    fn save(&self) -> Vec<u8> {
        self.to_snap_bytes()
    }
}

/// Generation N ≥ 2 of an unchanged process stores ≥ 90 % fewer bytes than
/// generation 1: the ballast chunks dedup and only the mutated head (thread
/// state, counters) plus a manifest go back to storage.
#[test]
fn unchanged_generations_dedup_90_percent() {
    let budget = run_budget();
    let (mut w, mut sim) = cluster(2);
    ckptstore::install(&mut w, ckptstore::Config::default());
    let s = Session::start(
        &mut w,
        &mut sim,
        Options::builder().ckpt_dir("/shared/ckpt").build(),
    );
    s.launch(
        &mut w,
        &mut sim,
        NodeId(1),
        "memhog",
        Box::new(MemHog { pc: 0, ticks: 0 }),
    );
    run_for(&mut w, &mut sim, Nanos::from_millis(4));

    let g1 = s
        .checkpoint_and_wait(&mut w, &mut sim, budget)
        .expect_ckpt();
    assert_eq!(g1.gen, 1);
    let gen1_bytes = w.obs.metrics.counter_total("ckptstore.bytes_written");
    assert!(gen1_bytes > 0, "gen 1 must store the image");

    run_for(&mut w, &mut sim, Nanos::from_millis(2));
    let g2 = s
        .checkpoint_and_wait(&mut w, &mut sim, budget)
        .expect_ckpt();
    assert_eq!(g2.gen, 2);
    let gen2_bytes = w.obs.metrics.counter_total("ckptstore.bytes_written") - gen1_bytes;
    assert!(
        gen2_bytes * 10 <= gen1_bytes,
        "gen 2 stored {gen2_bytes} bytes, more than 10% of gen 1's {gen1_bytes}"
    );
    assert!(
        w.obs.metrics.counter_total("ckptstore.bytes_deduped") > 0,
        "the ballast must dedup"
    );
}

fn pipe_run(store: bool, wipe_primary_store: bool) -> String {
    let budget = run_budget();
    let (mut w, mut sim) = cluster(2);
    if store {
        ckptstore::install(&mut w, ckptstore::Config::default());
    }
    let s = Session::start(
        &mut w,
        &mut sim,
        Options::builder().ckpt_dir("/shared/ckpt").build(),
    );
    s.launch(
        &mut w,
        &mut sim,
        NodeId(1),
        "pipe",
        Box::new(FtPipeChain::new(900_000)),
    );
    run_for(&mut w, &mut sim, Nanos::from_millis(6));
    let g1 = s
        .checkpoint_and_wait(&mut w, &mut sim, budget)
        .expect_ckpt();
    assert_eq!(g1.gen, 1);
    run_for(&mut w, &mut sim, Nanos::from_millis(2));
    let g2 = s
        .checkpoint_and_wait(&mut w, &mut sim, budget)
        .expect_ckpt();
    assert_eq!(g2.gen, 2);
    run_for(&mut w, &mut sim, Nanos::from_millis(6));
    s.kill_computation(&mut w, &mut sim);
    let _ = w.shared_fs.remove("/shared/pipe_result");
    if wipe_primary_store {
        // Node-local disk loss on the node that wrote the images.
        let doomed: Vec<String> = w.nodes[1]
            .fs
            .list_prefix(oskit::fs::STORE_ROOT)
            .map(|p| p.to_string())
            .collect();
        assert!(!doomed.is_empty(), "the primary store must exist to wipe");
        for p in doomed {
            w.nodes[1].fs.remove(&p).unwrap();
        }
    }
    let restored = RestartPlan::builder()
        .resilient(true)
        .build()
        .execute(&s, &mut w, &mut sim)
        .expect("restart");
    assert_eq!(restored.gen, 2, "latest generation restarts");
    Session::wait_restart_done(&mut w, &mut sim, restored.gen, budget);
    assert!(
        !matches!(
            sim.run_budgeted(&mut w, budget),
            simkit::RunOutcome::BudgetExhausted
        ),
        "restarted computation must finish"
    );
    if wipe_primary_store {
        assert!(
            w.obs.metrics.counter_total("ckptstore.replica_fetch_bytes") > 0,
            "the image must have been fetched from a peer replica"
        );
    }
    shared_result(&w, "/shared/pipe_result").expect("restarted run writes its answer")
}

/// Transparency: checkpoint/restart through the store computes exactly what
/// a plain-file checkpoint computes.
#[test]
fn store_restart_matches_plain_restart() {
    assert_eq!(pipe_run(false, false), pipe_run(true, false));
}

/// Losing every store file on the image-holding node is survivable: the
/// restart assembles the image from the ring replica on the peer node.
#[test]
fn restart_proceeds_from_replica_after_primary_store_loss() {
    assert_eq!(pipe_run(false, false), pipe_run(true, true));
}
