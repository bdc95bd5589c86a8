//! Live migration vs full checkpoint-restart.
//!
//! The workload is an 8-rank NAS/CG job (2 nodes × 2 ranks under simulated
//! OpenMPI, with its OpenRTE daemons) plus one standalone RunCMS process —
//! the migratable subset. Two ways to move RunCMS to another node:
//!
//! * *live migration* — [`RestartPlan::migrate`] checkpoints the session,
//!   kills only RunCMS and restores it on the target node while the MPI
//!   job keeps computing. The reported pause is the mover's downtime:
//!   migrate-plan arrival → restart-refill barrier.
//! * *full cycle* — checkpoint, kill **everything**, and restart the whole
//!   generation onto a different (packed, 2-node) topology: the classic
//!   stop-the-world reschedule. Total is checkpoint request → the restart's
//!   refill barrier.
//!
//! A third run repeats the migration through the chunk store (node-local
//! images, the replica ring as transfer channel) onto a node that holds no
//! copy of the mover's image, and takes one more generation afterwards: the
//! bytes that generation captures. A migrated process keeps its incremental
//! baseline, so they are what the computation dirtied or mapped since —
//! RunCMS, 0.4 s into loading its libraries here, maps twenty more — not
//! the mover's whole image over again.
//!
//! A fourth run migrates a mostly idle process with 32 MiB of real memory
//! through the store after one checkpoint, and reports what the restore
//! moved behind the mover's release: how long its inherited memory takes to
//! fill in, and how long the process waited for the regions it read first.
//!
//! Acceptance bar (enforced here, tracked by `scripts/bench_gate.sh`): the
//! subset migration pause must be at least 3× shorter than the full
//! checkpoint-restart cycle.
//!
//! Regenerate with: `cargo run --release -p dmtcp-bench --bin migrate`
//! Pass `--smoke` for the single-repetition variant tier-1 runs. Also
//! writes the flat `results/BENCH_migrate.json` consumed by the CI
//! bench-regression gate.

use apps::nas::{nas_factory, NasKernel};
use dmtcp::hijack::hijack_in;
use dmtcp::session::run_for;
use dmtcp::{ExpectCkpt, Packing, RestartPlan, Session};
use dmtcp_bench::{cluster_world, merge_flat_json, options, write_jsonl_lines, EV};
use obs::json::JsonWriter;
use oskit::world::{NodeId, OsSim, World};
use simkit::Nanos;
use simmpi::launch::{mpirun, Flavor, Launcher, MpiJob};

const NODES: usize = 3;

/// The shared workload: CG on nodes 0–1, RunCMS alone on node 1. Images go
/// to the shared filesystem, or — `store` — through the chunk store to
/// node-local disks.
fn workload(store: bool) -> (World, OsSim, Session) {
    let (mut w, mut sim) = cluster_world(NODES);
    if store {
        ckptstore::install(&mut w, ckptstore::Config::default());
    }
    let s = Session::start(&mut w, &mut sim, options(true, false, store));
    let job = MpiJob {
        flavor: Flavor::OpenMpi,
        nodes: vec![NodeId(0), NodeId(1)],
        procs_per_node: 2,
        base_port: 30_000,
    };
    mpirun(
        &mut w,
        &mut sim,
        Launcher::Dmtcp(&s),
        &job,
        nas_factory(NasKernel::Cg, 1_000_000, 1024),
    );
    s.launch(
        &mut w,
        &mut sim,
        NodeId(1),
        "runCMS",
        Box::new(apps::runcms::RunCms::new()),
    );
    run_for(&mut w, &mut sim, Nanos::from_millis(400));
    (w, sim, s)
}

/// Virtual pid and current node of the live traced process running `cmd`.
fn mover(w: &World, cmd: &str) -> (u32, NodeId) {
    w.procs
        .values()
        .find(|p| p.alive() && p.cmd == cmd)
        .and_then(|p| Some((hijack_in(p)?.vpid, p.node)))
        .unwrap_or_else(|| panic!("{cmd} is a live traced process"))
}

/// Mean mover downtime across `reps` live migrations (node 1 ↔ node 2).
fn measure_migrate(reps: usize) -> f64 {
    let (mut w, mut sim, s) = workload(false);
    let mut pause = 0.0;
    for _ in 0..reps {
        let (vpid, node) = mover(&w, "runCMS");
        let target = if node == NodeId(2) {
            NodeId(1)
        } else {
            NodeId(2)
        };
        let report = RestartPlan::builder()
            .only_pids([vpid])
            .topology([target])
            .build()
            .migrate(&s, &mut w, &mut sim, EV)
            .expect("live migration");
        pause += report.pause.as_secs_f64();
        run_for(&mut w, &mut sim, Nanos::from_millis(50));
    }
    pause / reps as f64
}

/// Mean time for `reps` full stop-the-world reschedules: checkpoint, kill
/// everything, restart the generation packed onto a 2-node topology.
fn measure_full_cycle(reps: usize) -> f64 {
    let (mut w, mut sim, s) = workload(false);
    let mut total = 0.0;
    for _ in 0..reps {
        let t0 = sim.now();
        let g = s.checkpoint_and_wait(&mut w, &mut sim, EV).expect_ckpt();
        Session::wait_ckpt_written(&mut w, &mut sim, g.gen, EV).expect("generation committed");
        s.kill_computation(&mut w, &mut sim);
        RestartPlan::builder()
            .generation(g.gen)
            .topology([NodeId(0), NodeId(1)])
            .pack(Packing::Fill)
            .build()
            .execute(&s, &mut w, &mut sim)
            .expect("heterogeneous restart");
        Session::wait_restart_done(&mut w, &mut sim, g.gen, EV);
        total += (sim.now() - t0).as_secs_f64();
        run_for(&mut w, &mut sim, Nanos::from_millis(50));
    }
    total / reps as f64
}

/// Raw bytes the first generation after a store-served migration reads and
/// compresses, all processes together. RunCMS moves from node 1 to node 0:
/// node 1's ring successor is node 2, so the target restores off a peer and
/// starts with nothing of the image in its own store.
fn measure_post_migrate() -> f64 {
    let (mut w, mut sim, s) = workload(true);
    let (vpid, node) = mover(&w, "runCMS");
    assert_eq!(node, NodeId(1));
    RestartPlan::builder()
        .only_pids([vpid])
        .topology([NodeId(0)])
        .build()
        .migrate(&s, &mut w, &mut sim, EV)
        .expect("live migration through the store");
    run_for(&mut w, &mut sim, Nanos::from_millis(50));
    let before = w.obs.metrics.counter_total("szip.bytes_in");
    let g = s.checkpoint_and_wait(&mut w, &mut sim, EV).expect_ckpt();
    Session::wait_ckpt_written(&mut w, &mut sim, g.gen, EV).expect("generation committed");
    (w.obs.metrics.counter_total("szip.bytes_in") - before) as f64
}

/// What a store-served migration moved behind the mover's release: an
/// `IdleHog` with 32 MiB of ballast, checkpointed once, so the migration's
/// generation inherits the ballast and the restore on a node that holds no
/// copy fills it in behind the running process. Returns the seconds from
/// the release to the last ballast region landing, and the seconds the hog
/// spent waiting for regions it read before they had.
fn measure_fill() -> (f64, f64) {
    let (mut w, mut sim) = cluster_world(NODES);
    ckptstore::install(&mut w, ckptstore::Config::default());
    let s = Session::start(&mut w, &mut sim, options(true, false, true));
    let hog = Box::new(apps::memhog::IdleHog::new(32));
    s.launch(&mut w, &mut sim, NodeId(1), "idlehog", hog);
    run_for(&mut w, &mut sim, Nanos::from_millis(50));
    s.checkpoint_and_wait(&mut w, &mut sim, EV).expect_ckpt();
    run_for(&mut w, &mut sim, Nanos::from_millis(50));
    let (vpid, _) = mover(&w, "idlehog");
    let waited = |w: &World| w.obs.metrics.counter_total("oskit.mem.fill_wait_ns");
    let before = waited(&w);
    RestartPlan::builder()
        .only_pids([vpid])
        .topology([NodeId(0)])
        .build()
        .migrate(&s, &mut w, &mut sim, EV)
        .expect("live migration through the store");
    let released = sim.now();
    let landed = w
        .procs
        .values()
        .filter(|p| p.alive() && p.cmd == "idlehog")
        .flat_map(|p| p.mem.iter().map(|(_, r)| r.ready_at))
        .max()
        .unwrap_or(released);
    sim.run_until(&mut w, landed.max(released) + Nanos::from_millis(50));
    let stall = Nanos(waited(&w) - before);
    (
        landed.saturating_sub(released).as_secs_f64(),
        stall.as_secs_f64(),
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let reps = if smoke { 1 } else { 3 };
    println!("# migrate: subset live migration vs full checkpoint-restart ({reps} reps)\n");

    let migrate_pause_s = measure_migrate(reps);
    let restart_hetero_total_s = measure_full_cycle(reps);
    let ratio = restart_hetero_total_s / migrate_pause_s.max(1e-12);
    let post_migrate_captured_bytes = measure_post_migrate();
    let (migrate_fill_done_s, migrate_fill_stall_s) = measure_fill();

    println!("  strategy                       downtime");
    println!("  live migration (1 process)    {migrate_pause_s:>8.3}s   (mover only; MPI job never stops)");
    println!("  full checkpoint-restart cycle {restart_hetero_total_s:>8.3}s   (everything down, repacked 3->2 nodes)");
    println!("  full/migrate ratio            {ratio:>8.1}x");
    println!(
        "  next generation after a store-served migration captures {:.3} MB",
        post_migrate_captured_bytes / 1e6
    );
    println!(
        "  an idle 32 MiB process migrated through the store: its ballast lands \
         {migrate_fill_done_s:.3}s after it resumes, reads waited {migrate_fill_stall_s:.3}s"
    );

    let mut j = JsonWriter::new();
    j.obj_begin()
        .field_str("workload", "NAS/CG + RunCMS")
        .field_f64("migrate_pause_s", migrate_pause_s)
        .field_f64("restart_hetero_total_s", restart_hetero_total_s)
        .field_f64("migrate_speedup_ratio", ratio)
        .field_f64("post_migrate_captured_bytes", post_migrate_captured_bytes)
        .field_f64("migrate_fill_done_s", migrate_fill_done_s)
        .field_f64("migrate_fill_stall_s", migrate_fill_stall_s)
        .obj_end();
    match write_jsonl_lines("migrate", vec![j.into_string()]) {
        Ok(p) => println!("# wrote {p}"),
        Err(e) => eprintln!("# jsonl write failed: {e}"),
    }

    // Flat keys for the CI bench-regression gate: `*_s` gate lower-is-
    // better, `*_ratio` higher-is-better (see scripts/bench_gate.sh).
    if let Err(e) = merge_flat_json(
        "results/BENCH_migrate.json",
        &[
            ("migrate_pause_s", migrate_pause_s),
            ("restart_hetero_total_s", restart_hetero_total_s),
            ("migrate_speedup_ratio", ratio),
            ("post_migrate_captured_bytes", post_migrate_captured_bytes),
            ("migrate_fill_done_s", migrate_fill_done_s),
            ("migrate_fill_stall_s", migrate_fill_stall_s),
        ],
    ) {
        eprintln!("# BENCH_migrate.json write failed: {e}");
    } else {
        println!("# merged results/BENCH_migrate.json");
    }

    // Acceptance bar: migrating the subset must beat rescheduling the world.
    if ratio < 3.0 {
        eprintln!(
            "FAIL: migration pause {migrate_pause_s:.3}s must be >= 3x below the \
             full cycle {restart_hetero_total_s:.3}s ({ratio:.1}x < 3x)"
        );
        std::process::exit(1);
    }
    println!("\nok: subset migration pause >= 3x below the full checkpoint-restart cycle");
}
