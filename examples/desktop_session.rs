//! "Save/restore workspace" for a desktop session (§1 use cases 1 and 8):
//! a TightVNC-style headless display session — vncserver holding a pty,
//! a window manager and an xterm talking X protocol over sockets — is
//! checkpointed at a 10-second interval while it runs, then killed and
//! restored from the latest automatic checkpoint.
//!
//! Run with: `cargo run --release --example desktop_session`

use apps::desktop::{launch_desktop, spec_by_name};
use apps::registry::full_registry;
use dmtcp::session::run_for;
use dmtcp::{Options, RestartPlan, Session};
use oskit::world::NodeId;
use oskit::{HwSpec, World};
use simkit::{Nanos, Sim};

const EV: u64 = 50_000_000;

fn main() {
    let mut w = World::new(HwSpec::desktop(), 1, full_registry());
    let mut sim = Sim::new();
    // `dmtcp_checkpoint --interval 10 vncserver ...`
    let session = Session::start(
        &mut w,
        &mut sim,
        Options::builder()
            .ckpt_dir("/shared/ckpt")
            .interval(Nanos::from_secs(10))
            .build(),
    );
    let spec = spec_by_name("tightvnc+twm").expect("catalogue entry");
    launch_desktop(&mut w, &mut sim, Some(&session), NodeId(0), spec, 42);
    println!("desktop session up: vncserver + twm + xterm, pty + X sockets");

    // Let the interval checkpointer fire a few times.
    run_for(&mut w, &mut sim, Nanos::from_secs(35));
    let gens = session.generations(&mut w);
    println!("automatic interval checkpoints taken: {gens}");
    assert!(gens >= 3, "expected ≥3 interval checkpoints");
    let last = session.last_gen_stat(&mut w).expect("stats");
    println!(
        "last checkpoint: {} processes, {:.2}s",
        last.participants,
        last.checkpoint_time().expect("complete").as_secs_f64()
    );

    // Power cut. Restore the workspace from the last automatic checkpoint.
    session.kill_computation(&mut w, &mut sim);
    println!("session killed; restoring workspace…");
    RestartPlan::from_generation(&w, session.opts.coord_port, last.gen)
        .expect("interval checkpoints wrote a restart script")
        .execute(&session, &mut w, &mut sim)
        .expect("workspace restore");
    Session::wait_restart_done(&mut w, &mut sim, last.gen, EV);

    // The restored session keeps serving display updates.
    run_for(&mut w, &mut sim, Nanos::from_secs(2));
    let alive = w.live_procs();
    println!("restored; {alive} live processes (3 session + 1 coordinator)");
    assert!(alive >= 4);
    // The pty and its terminal modes came back with the session.
    assert!(!w.ptys.is_empty(), "display pty restored");
    println!("OK — workspace saved and restored transparently.");
}
