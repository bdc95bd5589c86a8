//! Cross-crate integration tests mirroring the paper's §1.1 use-case list,
//! driven through the facade crate's prelude.

use dmtcp_repro::prelude::*;
use dmtcp_repro::{apps, dmtcp};

use apps::registry::full_registry;
use dmtcp::session::{run_for, transplant_storage};

const EV: u64 = 60_000_000;

fn opts() -> Options {
    Options::builder().ckpt_dir("/shared/ckpt").build()
}

/// Use case 1/2 ("save/restore workspace", "undump"): RunCMS pays its long
/// startup once; every later launch restores from the image in seconds.
#[test]
fn undump_replaces_long_startup() {
    let mut w = World::new(HwSpec::desktop(), 1, full_registry());
    let mut sim = Sim::new();
    let s = Session::start(&mut w, &mut sim, opts());
    s.launch(
        &mut w,
        &mut sim,
        NodeId(0),
        "runCMS",
        Box::new(apps::runcms::RunCms::new()),
    );
    // Startup takes tens of simulated seconds (library loading).
    run_for(&mut w, &mut sim, Nanos::from_secs(60));
    let t0 = sim.now();
    let stat = s.checkpoint_and_wait(&mut w, &mut sim, EV).expect_ckpt();
    assert_eq!(stat.participants, 1);

    // "Undump": kill and restore — must be far faster than the startup.
    s.kill_computation(&mut w, &mut sim);
    let t1 = sim.now();
    RestartPlan::from_generation(&w, s.opts.coord_port, stat.gen)
        .expect("restart script written")
        .execute(&s, &mut w, &mut sim)
        .expect("undump restart");
    Session::wait_restart_done(&mut w, &mut sim, stat.gen, EV);
    let restore_took = sim.now() - t1;
    assert!(
        restore_took < Nanos::from_secs(30),
        "restore {restore_took:?} should beat the ~35s startup"
    );
    let _ = t0;
    // The restored process is the fully initialized one: 540 libraries.
    let restored = w
        .procs
        .iter()
        .find(|(_, p)| p.alive() && p.cmd == "runCMS")
        .map(|(pid, _)| *pid)
        .expect("runCMS restored");
    let maps = w.proc_maps(restored).expect("maps");
    assert!(maps.matches(".so").count() >= 540);
}

/// Use case 6: cluster → laptop migration, via the facade.
#[test]
fn cluster_to_laptop_via_facade() {
    let mut cluster = World::new(HwSpec::cluster(), 2, full_registry());
    let mut sim = Sim::new();
    let s = Session::start(&mut cluster, &mut sim, opts());
    let nodes: Vec<NodeId> = vec![NodeId(0), NodeId(1)];
    apps::ipython::launch_demo(&mut cluster, &mut sim, Some(&s), &nodes, 100_000);
    run_for(&mut cluster, &mut sim, Nanos::from_millis(60));
    let stat = s
        .checkpoint_and_wait(&mut cluster, &mut sim, EV)
        .expect_ckpt();
    assert_eq!(stat.participants, 3, "controller + 2 engines");

    let mut laptop = World::new(HwSpec::desktop(), 1, full_registry());
    let mut sim2 = Sim::new();
    transplant_storage(&cluster, &mut laptop);
    drop((cluster, sim));
    let s2 = Session::start(&mut laptop, &mut sim2, opts());
    RestartPlan::builder()
        .generation(stat.gen)
        .topology([NodeId(0)])
        .build()
        .execute(&s2, &mut laptop, &mut sim2)
        .expect("pack-down restart onto the laptop");
    Session::wait_restart_done(&mut laptop, &mut sim2, stat.gen, EV);
    // The demo keeps mapping tasks on the laptop.
    run_for(&mut laptop, &mut sim2, Nanos::from_millis(60));
    assert!(laptop.live_procs() >= 4, "session + coordinator alive");
}

/// Use case 8 ("robustness: revert to an earlier checkpoint"): interval
/// checkpoints accumulate; any generation can be chosen for restart.
#[test]
fn revert_to_an_earlier_generation() {
    let mut w = World::new(HwSpec::desktop(), 1, full_registry());
    let mut sim = Sim::new();
    let s = Session::start(
        &mut w,
        &mut sim,
        Options::builder()
            .ckpt_dir("/shared/ckpt")
            .interval(Nanos::from_millis(50))
            .build(),
    );
    let spec = apps::desktop::spec_by_name("python").expect("python");
    apps::desktop::launch_desktop(&mut w, &mut sim, Some(&s), NodeId(0), spec, 5);
    run_for(&mut w, &mut sim, Nanos::from_secs(4));
    // Nothing restarted yet, so the coordinator's generations are 1..=n.
    let gens: Vec<u64> = (1..=s.generations(&mut w) as u64).collect();
    assert!(gens.len() >= 3, "interval checkpoints: {gens:?}");
    // Images for every generation exist on disk.
    for g in &gens {
        let found = w
            .shared_fs
            .list_prefix("/shared/ckpt/")
            .any(|p| p.contains(&format!("gen{g}")));
        assert!(found, "generation {g} image missing");
    }
    // Revert to the FIRST generation, not the last.
    let early = gens[0];
    s.kill_computation(&mut w, &mut sim);
    RestartPlan::from_generation(&w, s.opts.coord_port, early)
        .expect("interval checkpoints wrote a restart script")
        .execute(&s, &mut w, &mut sim)
        .expect("revert to the first generation");
    Session::wait_restart_done(&mut w, &mut sim, early, EV);
    run_for(&mut w, &mut sim, Nanos::from_millis(30));
    assert!(w.live_procs() >= 2, "reverted session runs");
}

/// The facade's prelude really is sufficient to drive a session (doc-test
/// parity, kept as a compiled test).
#[test]
fn prelude_is_sufficient() {
    let mut reg = Registry::new();
    reg.register_snap::<apps::runcms::RunCms>("runcms");
    let mut w = World::new(HwSpec::desktop(), 1, reg);
    let mut sim = Sim::new();
    let session = Session::start(&mut w, &mut sim, Options::default());
    session.launch(
        &mut w,
        &mut sim,
        NodeId(0),
        "runCMS",
        Box::new(apps::runcms::RunCms::new()),
    );
    run_for(&mut w, &mut sim, Nanos::from_secs(50));
    let stat = session
        .checkpoint_and_wait(&mut w, &mut sim, EV)
        .expect_ckpt();
    assert_eq!(stat.participants, 1);
}
