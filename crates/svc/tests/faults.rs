//! Tenant-isolation fault cells: a shard coordinator dies mid-checkpoint.
//!
//! The blast radius of a dmtcpd shard failure must be exactly its own
//! sessions: co-tenant generations on other shards keep committing through
//! the outage, and the victim session falls back to its previous completed
//! generation on restart. One cell per barrier stage, matrix-style — the
//! coordinator dies the moment the victim generation reaches the cell's
//! stage, so every phase of the protocol gets a kill.

use dmtcp::coord::{coord_shared_for, stage, Coordinator};
use dmtcp::session::{wait_until, Order};
use dmtcp::{RestartPlan, Session};
use oskit::program::{Program, Registry, Step};
use oskit::world::{NodeId, OsSim, Pid, World};
use oskit::{HwSpec, Kernel};
use simkit::{Nanos, Sim, Snap};
use std::collections::BTreeMap;
use svc::{DaemonConfig, Dmtcpd};

struct Worker {
    pc: u8,
    id: u64,
    count: u64,
    target: u64,
}
simkit::impl_snap!(struct Worker { pc, id, count, target });

impl Program for Worker {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        if self.pc == 0 {
            k.mmap_synthetic(
                "ballast",
                256 << 10,
                0xace ^ self.id,
                oskit::mem::FillProfile::Random,
            );
            self.pc = 1;
        }
        if self.count < self.target {
            self.count += 1;
            return Step::Compute(50_000);
        }
        let fd = k
            .open(&format!("/shared/result_{}", self.id), true)
            .expect("result file");
        k.write(fd, self.count.to_string().as_bytes())
            .expect("write");
        Step::Exit(0)
    }
    fn tag(&self) -> &'static str {
        "svc-worker"
    }
    fn save(&self) -> Vec<u8> {
        self.to_snap_bytes()
    }
}

fn registry() -> Registry {
    let mut r = Registry::new();
    r.register_snap::<Worker>("svc-worker");
    r
}

const EV: u64 = 8_000_000;

/// Run until the victim shard's in-flight generation `gen` has released
/// `stg` (0 = the instant the generation starts).
fn run_to_stage(w: &mut World, sim: &mut OsSim, port: u16, gen: u64, stg: u8) {
    wait_until(w, sim, EV, Order::CheckFirst, |w| {
        let g = coord_shared_for(w, port).newest(gen)?;
        (stg == 0 || g.releases.contains_key(&stg)).then_some(())
    })
    .unwrap_or_else(|e| panic!("gen {gen} never reached stage {stg}: {e}"));
}

/// One cell: kill tenant A's shard coordinator when A's generation 2
/// releases `stg`; B must commit two more generations during the outage,
/// and A must restart from generation 1.
fn coord_kill_cell(stg: u8) {
    let (mut w, mut sim) = (
        World::new(HwSpec::cluster(), 3, registry()),
        Sim::new() as OsSim,
    );
    let d = Dmtcpd::start(
        &mut w,
        &mut sim,
        DaemonConfig {
            shards: 2,
            ..DaemonConfig::default()
        },
    );
    let a = d.open(&mut w, &mut sim, "acme", 4).expect("admitted");
    let b = d.open(&mut w, &mut sim, "bolt", 4).expect("admitted");
    a.launch(
        &mut w,
        &mut sim,
        NodeId(1),
        "worker",
        Box::new(Worker {
            pc: 0,
            id: 1,
            count: 0,
            target: 3000,
        }),
    );
    b.launch(
        &mut w,
        &mut sim,
        NodeId(2),
        "worker",
        Box::new(Worker {
            pc: 0,
            id: 2,
            count: 0,
            target: 3000,
        }),
    );
    dmtcp::session::run_for(&mut w, &mut sim, Nanos::from_millis(20));

    // Both tenants complete a generation cleanly.
    let ga1 = a.checkpoint_and_wait(&mut w, &mut sim, EV).expect("a gen1");
    b.checkpoint_and_wait(&mut w, &mut sim, EV).expect("b gen1");

    // Victim generation 2 in flight; the shard coordinator dies at `stg`.
    a.request_checkpoint(&mut w, &mut sim);
    run_to_stage(&mut w, &mut sim, a.shard_port(), 2, stg);
    let victim_coord = a.session.coord_pid;
    w.signal(&mut sim, victim_coord, oskit::proc::sig::SIGKILL);
    sim.run_until(&mut w, sim.now() + Nanos::from_millis(1));

    // Co-tenant generations commit untouched through the outage.
    let gb2 = b.checkpoint_and_wait(&mut w, &mut sim, EV).expect("b gen2");
    let gb3 = b.checkpoint_and_wait(&mut w, &mut sim, EV).expect("b gen3");
    assert_eq!((gb2.gen, gb3.gen), (2, 3), "bystander shard unaffected");

    // The victim's computation is wedged behind a dead coordinator: kill
    // it, bring up a replacement shard coordinator on the same port, and
    // fall back. The incomplete generation 2 never reached a restart
    // script, so resilient restart lands on generation 1.
    a.kill_computation(&mut w, &mut sim);
    let new_coord: Pid = w.spawn(
        &mut sim,
        d.cfg.node,
        "dmtcp_coordinator",
        Box::new(Coordinator::new(a.shard_port(), None)),
        Pid(1),
        BTreeMap::new(),
    );
    assert!(new_coord.0 > 0);
    sim.run_until(&mut w, sim.now() + Nanos::from_millis(1));
    let out = RestartPlan::builder()
        .resilient(true)
        .build()
        .execute(&a.session, &mut w, &mut sim)
        .expect("previous generation restartable");
    assert_eq!(
        out.gen, ga1.gen,
        "victim falls back to its previous generation"
    );
    Session::await_release(
        &mut w,
        &mut sim,
        a.shard_port(),
        out.gen,
        stage::RESTART_REFILLED,
        EV,
    );

    // Both computations finish with correct answers.
    dmtcp::session::run_for(&mut w, &mut sim, Nanos::from_millis(700));
    let read = |w: &World, id: u64| {
        w.shared_fs
            .read_all(&format!("/shared/result_{id}"))
            .ok()
            .map(|b| String::from_utf8(b).unwrap())
    };
    assert_eq!(
        read(&w, 1).as_deref(),
        Some("3000"),
        "victim finishes after fallback"
    );
    assert_eq!(read(&w, 2).as_deref(), Some("3000"), "bystander finishes");
}

#[test]
fn shard_coord_killed_at_request() {
    coord_kill_cell(0);
}

#[test]
fn shard_coord_killed_at_suspend() {
    coord_kill_cell(stage::SUSPENDED);
}

#[test]
fn shard_coord_killed_at_drain() {
    coord_kill_cell(stage::DRAINED);
}

#[test]
fn shard_coord_killed_at_checkpoint() {
    coord_kill_cell(stage::CHECKPOINTED);
}
