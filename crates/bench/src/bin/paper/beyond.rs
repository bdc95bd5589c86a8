//! Beyond the paper: the figures of what this repository adds to DMTCP —
//! the chunk store and incremental capture (`ckptstore`), forked
//! checkpoints (`downtime`), live migration (`migrate`), per-node relays
//! (`scale`) and the sharded `dmtcpd` service (`tenants`). Every quantity
//! is virtual time or a count, so these figures are gated byte for byte
//! like the paper's; each design's floor is a shape check.

use super::{keyed, Job, Rows, Table, MIB};
use apps::memhog::IdleHog;
use apps::nas::{nas_factory, NasKernel};
use dmtcp::coord::{coord_shared_for, stage, GenStat};
use dmtcp::hijack::hijack_in;
use dmtcp::session::run_for;
use dmtcp::{ExpectCkpt, Options, Packing, RestartPlan, Session, Topology};
use dmtcp_bench::{ckpt_seconds, cluster_world, desktop_world, options, run_parallel, EV};
use oskit::program::{Program, Step};
use oskit::world::{NodeId, OsSim, World};
use oskit::Kernel;
use simkit::rng::{mix2, DetRng};
use simkit::{Nanos, Snap, Summary};
use simmpi::launch::{mpirun, Flavor, Launcher, MpiJob};
use svc::{shard_root_port, DaemonConfig, Dmtcpd};

/// Both arms of a comparison, side by side on host threads.
fn pair<T: Send + 'static>(
    a: impl FnOnce() -> T + Send + 'static,
    b: impl FnOnce() -> T + Send + 'static,
) -> (T, T) {
    let a: Box<dyn FnOnce() -> T + Send> = Box::new(a);
    let mut out = run_parallel(vec![a, Box::new(b)]).into_iter();
    (out.next().expect("arm a"), out.next().expect("arm b"))
}

/// An MPI job of `per_node` OpenMPI ranks on each of `nodes`.
fn openmpi(nodes: impl IntoIterator<Item = u32>, per_node: usize) -> MpiJob {
    MpiJob {
        flavor: Flavor::OpenMpi,
        nodes: nodes.into_iter().map(NodeId).collect(),
        procs_per_node: per_node,
        base_port: 30_000,
    }
}

fn launch_runcms(w: &mut World, sim: &mut OsSim, s: &Session, node: NodeId) {
    let cms = Box::new(apps::runcms::RunCms::new());
    s.launch(w, sim, node, "runCMS", cms);
}

/// A NAS `kernel` on 4 nodes x 2 OpenMPI ranks writing to local disk, or
/// (`None`) RunCMS on the desktop writing to shared storage, under a fresh
/// compressed session, warmed up: 0.4 s in for NAS, RunCMS past its
/// library loading. Returns the gap to leave between checkpoints.
fn warm_world(
    kernel: Option<NasKernel>,
    store: bool,
    forked: bool,
) -> (World, OsSim, Session, Nanos) {
    let (mut w, mut sim) = match kernel {
        Some(_) => cluster_world(4),
        None => desktop_world(),
    };
    if store {
        ckptstore::install(&mut w, ckptstore::Config::default());
    }
    let s = Session::start(&mut w, &mut sim, options(true, forked, kernel.is_some()));
    let gap = match kernel {
        Some(kernel) => {
            let factory = nas_factory(kernel, 1_000_000, 1024);
            let job = openmpi(0..4, 2);
            mpirun(&mut w, &mut sim, Launcher::Dmtcp(&s), &job, factory);
            run_for(&mut w, &mut sim, Nanos::from_millis(400));
            Nanos::from_millis(50)
        }
        None => {
            launch_runcms(&mut w, &mut sim, &s, NodeId(0));
            run_for(&mut w, &mut sim, Nanos::from_secs(60));
            Nanos::from_secs(1)
        }
    };
    (w, sim, s, gap)
}

// ---- ckptstore: full images vs the chunk store, and incremental capture ----

/// Checkpoint generations per configuration.
const STORE_GENS: u32 = 3;

/// The store comparison's workloads: row-key component, label, and the
/// NAS kernel (`None`: RunCMS).
const STORE_WORKLOADS: [(&str, &str, Option<NasKernel>); 3] = [
    ("nas_mg", "NAS/MG (4x2)", Some(NasKernel::Mg)),
    ("nas_is", "NAS/IS (4x2)", Some(NasKernel::Is)),
    ("runcms", "RunCMS", None),
];

struct GenRow {
    gen: u64,
    ckpt_s: f64,
    logical: u64,
    physical: u64,
}

/// Checkpoint [`STORE_GENS`] times, recording logical image bytes and physical
/// stored bytes per generation from the world's counters (the store never
/// materializes plain files, so file sizes would be meaningless).
fn measure_gens(
    w: &mut World,
    sim: &mut OsSim,
    s: &Session,
    store: bool,
    gap: Nanos,
) -> Vec<GenRow> {
    let mut rows = Vec::new();
    let mut logical0 = 0u64;
    let mut physical0 = 0u64;
    for _ in 0..STORE_GENS {
        let g = s.checkpoint_and_wait(w, sim, EV).expect_ckpt();
        let logical = w.obs.metrics.counter_total("mtcp.image.bytes");
        let physical = if store {
            w.obs.metrics.counter_total("ckptstore.bytes_written")
        } else {
            logical
        };
        rows.push(GenRow {
            gen: g.gen,
            ckpt_s: ckpt_seconds(&g),
            logical: logical - logical0,
            physical: physical - physical0,
        });
        logical0 = logical;
        physical0 = physical;
        run_for(w, sim, gap);
    }
    rows
}

/// The mostly-idle workload: 32 MiB of real ballast written once, a
/// 64 KiB scratch buffer rewritten every wake. Both runs go through the
/// chunk store; `incremental` toggles the dirty-region writer so the
/// comparison isolates capture cost, not storage cost.
fn idle_run(incremental: bool) -> Vec<GenRow> {
    let (mut w, mut sim) = desktop_world();
    ckptstore::install(&mut w, ckptstore::Config::default());
    mtcp::incr::set_enabled(&mut w, incremental);
    let s = Session::start(&mut w, &mut sim, options(true, false, false));
    let hog = Box::new(IdleHog::new(32));
    s.launch(&mut w, &mut sim, NodeId(0), "idlehog", hog);
    run_for(&mut w, &mut sim, Nanos::from_millis(200));
    let rows = measure_gens(&mut w, &mut sim, &s, true, Nanos::from_millis(100));
    if incremental {
        assert!(
            w.obs.metrics.counter_total("mtcp.incr.images") > 0,
            "incremental run must capture at least one incremental image"
        );
    }
    rows
}

pub(super) fn ckptstore_jobs(_: Option<&str>) -> Vec<Job> {
    let mut jobs = Vec::new();
    for (wl, _, kernel) in STORE_WORKLOADS {
        for (mode, store) in [("full", false), ("store", true)] {
            jobs.push(Box::new(move || {
                let (mut w, mut sim, s, gap) = warm_world(kernel, store, false);
                let mut rows = Rows::new();
                for r in measure_gens(&mut w, &mut sim, &s, store, gap) {
                    let key = format!("{wl}.gen_{}.", r.gen);
                    let q = vec![("bytes", r.physical as f64), ("ckpt_s", r.ckpt_s)];
                    rows.extend(keyed(&format!("{key}{mode}_"), q));
                    if store {
                        rows.extend(keyed(&key, vec![("logical_bytes", r.logical as f64)]));
                    }
                }
                rows
            }) as Job);
        }
    }
    jobs.push(Box::new(|| {
        let (full, incr) = pair(|| idle_run(false), || idle_run(true));
        let mut rows = Rows::new();
        for (f, i) in full.iter().zip(&incr) {
            rows.extend(keyed(
                &format!("idlehog.gen_{}.", f.gen),
                vec![
                    ("full_ckpt_s", f.ckpt_s),
                    ("incr_ckpt_s", i.ckpt_s),
                    ("full_bytes", f.physical as f64),
                    ("incr_bytes", i.physical as f64),
                ],
            ));
        }
        // Mean checkpoint seconds over generations ≥ 2.
        let mean = |rows: &[GenRow]| {
            let steady: Vec<f64> = rows.iter().skip(1).map(|r| r.ckpt_s).collect();
            steady.iter().sum::<f64>() / steady.len().max(1) as f64
        };
        let (full_s, incr_s) = (mean(&full), mean(&incr));
        rows.extend(keyed(
            "",
            vec![
                ("full_gen2_total_s", full_s),
                ("incr_gen2_total_s", incr_s),
                ("incr_speedup_ratio", full_s / incr_s.max(1e-12)),
            ],
        ));
        rows
    }));
    jobs
}

pub(super) fn ckptstore_render(t: &Table) -> String {
    let mut out = format!(
        "# ckptstore: full images vs the content-addressed chunk store, {STORE_GENS} generations\n\
         # physical bytes stored per generation; NAS kernels on 4 nodes x 2 ranks\n"
    );
    for (wl, label, _) in STORE_WORKLOADS {
        out += &format!("\n{label}\n  gen   full MB   store MB   saved   full s   store s\n");
        for gen in 1..=STORE_GENS {
            let q = |name: &str| t.get(&format!("{wl}.gen_{gen}.{name}"));
            let (full, store) = (q("full_bytes"), q("store_bytes"));
            out += &format!(
                "  {gen:>3}   {:>7.1}   {:>8.2}   {:>4.0}%   {:>6.2}   {:>7.2}\n",
                full / MIB,
                store / MIB,
                (1.0 - store / full.max(1.0)) * 100.0,
                q("full_ckpt_s"),
                q("store_ckpt_s"),
            );
        }
    }
    out += "\nIdleHog (32 MiB ballast, 64 KiB scratch): full vs incremental dirty-region capture\n\
            \x20 gen    full s    incr s   speedup   incr store MB\n";
    for gen in 1..=STORE_GENS {
        let q = |name: &str| t.get(&format!("idlehog.gen_{gen}.{name}"));
        out += &format!(
            "  {gen:>3}   {:>7.3}   {:>7.3}   {:>6.1}x   {:>13.2}\n",
            q("full_ckpt_s"),
            q("incr_ckpt_s"),
            q("full_ckpt_s") / q("incr_ckpt_s").max(1e-12),
            q("incr_bytes") / MIB,
        );
    }
    out += &format!(
        "mean of gen >= 2: full {:.3}s  incremental {:.3}s  speedup {:.1}x (floor 10x)\n",
        t.get("full_gen2_total_s"),
        t.get("incr_gen2_total_s"),
        t.get("incr_speedup_ratio"),
    );
    out
}

pub(super) fn ckptstore_shapes(t: &Table) -> Result<(), String> {
    let speedup = t.get("incr_speedup_ratio");
    if speedup < 10.0 {
        return Err(format!(
            "incremental gen >= 2 checkpoints are only {speedup:.1}x faster than full capture \
             on the mostly-idle image (floor 10x)"
        ));
    }
    Ok(())
}

// ---- downtime: perceived pause vs total checkpoint time, forked mode ----
//
// With the copy-on-write fork pipeline the stop-the-world window ends at
// the REFILLED barrier; compression and image I/O drain in the background,
// acknowledged by CKPT_WRITTEN. *Perceived* is request → REFILLED, *total*
// request → CKPT_WRITTEN. Each forked run is then killed, restarted in
// place and checkpointed once more: a restored process was launched forked
// and must still be.

/// Workloads: row-key prefix and label.
const DOWNTIME_WORKLOADS: [(&str, &str); 2] = [("mg", "NAS/MG (4x2)"), ("cms", "RunCMS")];

/// One checkpoint's perceived pause and total time, in seconds. The stats
/// always include the CKPT_WRITTEN release: in-line writers release it
/// together with REFILLED, forked writers after the background drain.
fn pause_and_total(w: &mut World, sim: &mut OsSim, s: &Session, gap: Nanos) -> (f64, f64) {
    let g = s.checkpoint_and_wait(w, sim, EV).expect_ckpt();
    let g: GenStat =
        Session::wait_ckpt_written(w, sim, g.gen, EV).expect("no faults armed: drain completes");
    let pause = g.total_pause().expect("refilled").as_secs_f64();
    let total = g.written_time().expect("written").as_secs_f64();
    run_for(w, sim, gap);
    (pause, total)
}

fn downtime_run(wl: &str, forked: bool) -> Rows {
    let kernel = (wl == "mg").then_some(NasKernel::Mg);
    let (mut w, mut sim, s, gap) = warm_world(kernel, false, forked);
    let (pause, total) = pause_and_total(&mut w, &mut sim, &s, gap);
    let prefix = format!("{wl}_");
    if !forked {
        let rows = vec![("inline_pause_s", pause), ("inline_total_s", total)];
        return keyed(&prefix, rows);
    }
    s.kill_computation(&mut w, &mut sim);
    let out = RestartPlan::newest()
        .execute(&s, &mut w, &mut sim)
        .expect("restart in place");
    Session::wait_restart_done(&mut w, &mut sim, out.gen, EV);
    run_for(&mut w, &mut sim, gap);
    let after = pause_and_total(&mut w, &mut sim, &s, gap).0;
    let rows = vec![
        ("forked_pause_s", pause),
        ("forked_total_s", total),
        ("forked_ratio", total / pause.max(1e-12)),
        ("forked_pause_after_restart_s", after),
    ];
    keyed(&prefix, rows)
}

pub(super) fn downtime_jobs(_: Option<&str>) -> Vec<Job> {
    let mut jobs = Vec::new();
    for (wl, _) in DOWNTIME_WORKLOADS {
        for forked in [false, true] {
            jobs.push(Box::new(move || downtime_run(wl, forked)) as Job);
        }
    }
    jobs
}

pub(super) fn downtime_render(t: &Table) -> String {
    let mut out = String::from(
        "# Perceived downtime vs total checkpoint time, in-line vs forked (two-phase)\n\
         # perceived: request -> REFILLED; total: request -> CKPT_WRITTEN; one checkpoint each\n\n\
         \x20 workload       mode     perceived     total   total/perceived   perceived after restart\n",
    );
    for (wl, label) in DOWNTIME_WORKLOADS {
        for mode in ["inline", "forked"] {
            let q = |name: &str| t.get(&format!("{wl}_{mode}_{name}"));
            let (pause, total) = (q("pause_s"), q("total_s"));
            let after = if mode == "forked" {
                format!("{:>7.3}s", q("pause_after_restart_s"))
            } else {
                "-".to_string()
            };
            out += &format!(
                "  {label:<13}  {mode:<7}  {pause:>8.3}s  {total:>7.3}s   {:>14.1}x   {after}\n",
                total / pause.max(1e-12),
            );
        }
    }
    out
}

pub(super) fn downtime_shapes(t: &Table) -> Result<(), String> {
    for (wl, label) in DOWNTIME_WORKLOADS {
        let q = |name: &str| t.get(&format!("{wl}_forked_{name}"));
        let total = q("total_s");
        for (when, pause) in [
            ("", q("pause_s")),
            (" after restart", q("pause_after_restart_s")),
        ] {
            let ratio = total / pause.max(1e-12);
            if ratio < 5.0 {
                return Err(format!(
                    "{label}{when}: forked perceived pause {pause:.3}s is only {ratio:.1}x \
                     below the total {total:.3}s (floor 5x)"
                ));
            }
        }
    }
    Ok(())
}

// ---- migrate: live migration vs a full checkpoint-restart cycle ----
//
// The workload is an 8-rank NAS/CG job (2 nodes x 2 ranks under OpenMPI,
// with its OpenRTE daemons) plus one standalone RunCMS process, the
// migratable subset. *Live migration* checkpoints the session, kills only
// RunCMS and restores it on another node while the MPI job keeps
// computing: its pause is plan arrival → restart-refill barrier. The *full
// cycle* checkpoints, kills everything and restarts the whole generation
// packed onto two nodes: request → the restart's refill barrier.

const MIGRATE_NODES: usize = 3;

/// CG on nodes 0–1, RunCMS alone on node 1. Images go to the shared
/// filesystem, or (`store`) through the chunk store to node-local disks.
fn migrate_workload(store: bool) -> (World, OsSim, Session) {
    let (mut w, mut sim) = cluster_world(MIGRATE_NODES);
    if store {
        ckptstore::install(&mut w, ckptstore::Config::default());
    }
    let s = Session::start(&mut w, &mut sim, options(true, false, store));
    let factory = nas_factory(NasKernel::Cg, 1_000_000, 1024);
    mpirun(
        &mut w,
        &mut sim,
        Launcher::Dmtcp(&s),
        &openmpi(0..2, 2),
        factory,
    );
    launch_runcms(&mut w, &mut sim, &s, NodeId(1));
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

/// Live-migrate `cmd`'s process to `target`.
fn migrate_to(w: &mut World, sim: &mut OsSim, s: &Session, cmd: &str, target: NodeId) -> Nanos {
    let (vpid, _) = mover(w, cmd);
    let report = RestartPlan::builder()
        .only_pids([vpid])
        .topology([target])
        .build()
        .migrate(s, w, sim, EV)
        .expect("live migration");
    report.pause
}

/// The mover's downtime: RunCMS from node 1 to node 2.
fn migrate_pause() -> f64 {
    let (mut w, mut sim, s) = migrate_workload(false);
    migrate_to(&mut w, &mut sim, &s, "runCMS", NodeId(2)).as_secs_f64()
}

/// A full stop-the-world reschedule: checkpoint, kill everything, restart
/// the generation packed onto a 2-node topology.
fn full_cycle() -> f64 {
    let (mut w, mut sim, s) = migrate_workload(false);
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
    (sim.now() - t0).as_secs_f64()
}

/// Raw bytes the first generation after a store-served migration reads and
/// compresses, all processes together. RunCMS moves from node 1 to node 0:
/// node 1's ring successor is node 2, so the target restores off a peer and
/// starts with nothing of the image in its own store. A migrated process
/// keeps its incremental baseline, so this is what the computation dirtied
/// or mapped since, not the mover's whole image over again.
fn post_migrate_captured() -> f64 {
    let (mut w, mut sim, s) = migrate_workload(true);
    assert_eq!(mover(&w, "runCMS").1, NodeId(1));
    migrate_to(&mut w, &mut sim, &s, "runCMS", NodeId(0));
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
fn migrate_fill() -> (f64, f64) {
    let (mut w, mut sim) = cluster_world(MIGRATE_NODES);
    ckptstore::install(&mut w, ckptstore::Config::default());
    let s = Session::start(&mut w, &mut sim, options(true, false, true));
    let hog = Box::new(IdleHog::new(32));
    s.launch(&mut w, &mut sim, NodeId(1), "idlehog", hog);
    run_for(&mut w, &mut sim, Nanos::from_millis(50));
    s.checkpoint_and_wait(&mut w, &mut sim, EV).expect_ckpt();
    run_for(&mut w, &mut sim, Nanos::from_millis(50));
    let waited = |w: &World| w.obs.metrics.counter_total("oskit.mem.fill_wait_ns");
    let before = waited(&w);
    migrate_to(&mut w, &mut sim, &s, "idlehog", NodeId(0));
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

pub(super) fn migrate_jobs(_: Option<&str>) -> Vec<Job> {
    let race: Job = Box::new(|| {
        let (pause, full) = pair(migrate_pause, full_cycle);
        let rows = vec![
            ("migrate_pause_s", pause),
            ("restart_hetero_total_s", full),
            ("migrate_speedup_ratio", full / pause.max(1e-12)),
        ];
        keyed("", rows)
    });
    let captured: Job = Box::new(|| {
        keyed(
            "",
            vec![("post_migrate_captured_bytes", post_migrate_captured())],
        )
    });
    let fill: Job = Box::new(|| {
        let (done, stall) = migrate_fill();
        let rows = vec![
            ("migrate_fill_done_s", done),
            ("migrate_fill_stall_s", stall),
        ];
        keyed("", rows)
    });
    vec![race, captured, fill]
}

pub(super) fn migrate_render(t: &Table) -> String {
    format!(
        "# Live migration vs full checkpoint-restart\n\
         # NAS/CG (2 nodes x 2 ranks, OpenMPI) + RunCMS on a 3-node cluster; RunCMS moves\n\n\
         \x20 live migration (1 process)     {:>8.3}s   (mover only; the MPI job never stops)\n\
         \x20 full checkpoint-restart cycle  {:>8.3}s   (everything down, repacked 3 -> 2 nodes)\n\
         \x20 full/migrate ratio             {:>8.1}x   (floor 3x)\n\n\
         next generation after a store-served migration captures {:.3} MB\n\
         an idle 32 MiB process migrated through the store: its ballast lands {:.3}s \
         after it resumes, reads waited {:.3}s\n",
        t.get("migrate_pause_s"),
        t.get("restart_hetero_total_s"),
        t.get("migrate_speedup_ratio"),
        t.get("post_migrate_captured_bytes") / 1e6,
        t.get("migrate_fill_done_s"),
        t.get("migrate_fill_stall_s"),
    )
}

pub(super) fn migrate_shapes(t: &Table) -> Result<(), String> {
    let ratio = t.get("migrate_speedup_ratio");
    if ratio < 3.0 {
        return Err(format!(
            "live migration pause {:.3}s is only {ratio:.1}x below the full cycle {:.3}s (floor 3x)",
            t.get("migrate_pause_s"),
            t.get("restart_hetero_total_s"),
        ));
    }
    Ok(())
}

// ---- scale: flat star vs per-node relays, N sleepers on 64 nodes ----
//
// The paper's coordinator is a flat star: every manager registers with the
// root, so each barrier stage costs the root O(processes) wire messages.
// The relay tier collapses all managers on a node into one root client,
// dropping root protocol work to O(nodes). Per (topology, N): checkpoint
// time, root messages per generation (`coord.root_msgs`: every frame the
// root sends or receives) and the longest single barrier-stage latency.

const SCALE_NODES: usize = 64;
/// Ballast per process: enough that the image stage does real work, small
/// enough that protocol traffic, not I/O, dominates at every N.
const SCALE_BALLAST: u64 = 256 << 10;
const SCALE_POINTS: [usize; 8] = [16, 64, 256, 1024, 2048, 4096, 8192, 16_384];

/// A process that allocates its ballast once and then sleeps in a loop:
/// the per-process cost floor, so the sweep isolates coordinator work.
struct Sleeper {
    pc: u8,
}
simkit::impl_snap!(struct Sleeper { pc });
impl Program for Sleeper {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        if self.pc == 0 {
            let fill = oskit::mem::FillProfile::Random;
            k.mmap_synthetic("ballast", SCALE_BALLAST, 0x5ca1e, fill);
            self.pc = 1;
        }
        Step::Sleep(Nanos::from_millis(10))
    }
    fn tag(&self) -> &'static str {
        "scale-sleeper"
    }
    fn save(&self) -> Vec<u8> {
        self.to_snap_bytes()
    }
}

/// Longest gap between consecutive barrier releases (from the request),
/// over the stop-the-world stages.
fn max_stage_latency(g: &GenStat) -> f64 {
    let mut prev = g.requested_at;
    let mut worst = Nanos::ZERO;
    for s in stage::CHECKPOINT {
        if let Some(&t) = g.releases.get(&s) {
            worst = worst.max(t - prev);
            prev = t;
        }
    }
    worst.as_secs_f64()
}

/// One generation of `n` sleepers under `topo`: checkpoint seconds, root
/// messages, longest barrier stage.
fn scale_point(topo: Topology, n: usize) -> [f64; 3] {
    let (mut w, mut sim) = cluster_world(SCALE_NODES);
    let opts = Options::builder().ckpt_dir("/ckpt").topology(topo).build();
    let s = Session::start(&mut w, &mut sim, opts);
    for i in 0..n {
        let node = NodeId((i % SCALE_NODES) as u32);
        s.launch(
            &mut w,
            &mut sim,
            node,
            "sleeper",
            Box::new(Sleeper { pc: 0 }),
        );
    }
    // Let every manager (and relay) connect and register.
    run_for(&mut w, &mut sim, Nanos::from_millis(200));
    let g = s.checkpoint_and_wait(&mut w, &mut sim, EV).expect_ckpt();
    let g: GenStat = Session::wait_ckpt_written(&mut w, &mut sim, g.gen, EV)
        .expect("no faults armed: the write settles");
    assert_eq!(g.participants as usize, n, "every process checkpointed");
    [
        g.checkpoint_time().expect("complete").as_secs_f64(),
        w.obs.metrics.counter("coord.root_msgs", g.gen) as f64,
        max_stage_latency(&g),
    ]
}

pub(super) fn scale_jobs(_: Option<&str>) -> Vec<Job> {
    SCALE_POINTS
        .iter()
        .map(|&n| {
            Box::new(move || {
                let (f, h) = pair(
                    move || scale_point(Topology::Flat, n),
                    move || scale_point(Topology::Hierarchical, n),
                );
                let rows = vec![
                    (format!("scale_flat_n{n}_ckpt_s"), f[0]),
                    (format!("scale_hier_n{n}_ckpt_s"), h[0]),
                    (format!("scale_flat_n{n}_root_msgs_per_gen"), f[1]),
                    (format!("scale_hier_n{n}_root_msgs_per_gen"), h[1]),
                    (
                        format!("scale_n{n}_root_msgs_reduction_ratio"),
                        f[1] / h[1].max(1.0),
                    ),
                    (format!("scale_flat_n{n}_max_stage_s"), f[2]),
                    (format!("scale_hier_n{n}_max_stage_s"), h[2]),
                ];
                rows
            }) as Job
        })
        .collect()
}

pub(super) fn scale_render(t: &Table) -> String {
    let mut out = format!(
        "# Coordinator scale-out: flat star vs per-node relays\n\
         # {SCALE_NODES}-node cluster, sleeper processes with {SCALE_BALLAST}-byte ballast, one generation\n\n\
         \x20     N   topology   ckpt      root msgs/gen   max stage    reduction\n"
    );
    for n in SCALE_POINTS {
        for topo in ["flat", "hier"] {
            let q = |name: &str| t.get(&format!("scale_{topo}_n{n}_{name}"));
            let reduction = if topo == "hier" {
                format!(
                    "{:.1}x",
                    t.get(&format!("scale_n{n}_root_msgs_reduction_ratio"))
                )
            } else {
                String::new()
            };
            let line = format!(
                "  {n:>5}   {topo:<8}  {:>6.3}s  {:>12.0}   {:>8.3}s    {reduction}",
                q("ckpt_s"),
                q("root_msgs_per_gen"),
                q("max_stage_s"),
            );
            out += line.trim_end();
            out.push('\n');
        }
    }
    out
}

pub(super) fn scale_shapes(t: &Table) -> Result<(), String> {
    for n in SCALE_POINTS.into_iter().filter(|&n| n >= 1024) {
        let q = |key: String| t.get(&key);
        let ratio = q(format!("scale_n{n}_root_msgs_reduction_ratio"));
        if ratio < 8.0 {
            return Err(format!(
                "N={n}: relays cut root messages only {ratio:.1}x ({:.0} flat vs {:.0} hier; floor 8x)",
                q(format!("scale_flat_n{n}_root_msgs_per_gen")),
                q(format!("scale_hier_n{n}_root_msgs_per_gen")),
            ));
        }
        let (f, h) = (
            q(format!("scale_flat_n{n}_ckpt_s")),
            q(format!("scale_hier_n{n}_ckpt_s")),
        );
        if h > f * 1.10 {
            return Err(format!(
                "N={n}: hierarchical checkpoint {h:.3}s is more than 1.10x the flat {f:.3}s"
            ));
        }
    }
    Ok(())
}

// ---- tenants: one shared coordinator vs a sharded dmtcpd ----
//
// 64 tenant sessions of 8 processes each against two deployments of the
// same daemon: a single shared shard (every generation is a 512-process
// stop-the-world) and an 8-way sharded daemon (each shard checkpoints only
// its own 64 processes). Each session fires checkpoint requests as an
// independent Poisson process (one xoshiro stream per session), so request
// storms overlap and coalesce as a busy service would see them. Per
// deployment: completed generations per second over all shard coordinators,
// and the perceived pause (suspend release → refill release) weighted by
// participants.

const TENANT_NODES: usize = 32;
const SESSIONS: u64 = 64;
const PROCS_PER_SESSION: usize = 8;
/// Ballast per process: enough that image writes are real work, small
/// enough that barrier traffic, not I/O, sets the pace.
const TENANT_BALLAST: u64 = 128 << 10;
/// Mean inter-arrival of one session's checkpoint requests, seconds.
const MEAN_GAP_S: f64 = 1.0;
/// The storm window, seconds.
const WINDOW_S: f64 = 2.0;
/// Settle time after the window so in-flight generations complete.
const SETTLE_S: f64 = 3.0;

/// A tenant process: allocates its ballast once, then sleeps in a loop.
struct Tenant {
    pc: u8,
}
simkit::impl_snap!(struct Tenant { pc });
impl Program for Tenant {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        if self.pc == 0 {
            let fill = oskit::mem::FillProfile::Random;
            k.mmap_synthetic("ballast", TENANT_BALLAST, 0x7e4a47, fill);
            self.pc = 1;
        }
        Step::Sleep(Nanos::from_millis(10))
    }
    fn tag(&self) -> &'static str {
        "tenant-sleeper"
    }
    fn save(&self) -> Vec<u8> {
        self.to_snap_bytes()
    }
}

/// Generations completed inside the storm window, and their pause
/// distribution, for one deployment with `shards` coordinators.
fn tenants_point(shards: u16) -> (usize, Summary) {
    let (mut w, mut sim) = cluster_world(TENANT_NODES);
    let cfg = DaemonConfig {
        shards,
        ..DaemonConfig::default()
    };
    let d = Dmtcpd::start(&mut w, &mut sim, cfg);
    let mut clients = Vec::new();
    for s in 0..SESSIONS {
        let name = format!("tenant{s}");
        let c = d
            .open(&mut w, &mut sim, &name, PROCS_PER_SESSION as u32)
            .expect("under the admission ceiling");
        for p in 0..PROCS_PER_SESSION {
            let node = 1 + ((s as usize * PROCS_PER_SESSION + p) % (TENANT_NODES - 1));
            let tenant = Box::new(Tenant { pc: 0 });
            c.launch(&mut w, &mut sim, NodeId(node as u32), "tenant", tenant);
        }
        clients.push(c);
    }
    // Let every manager connect and register before the storm opens.
    run_for(&mut w, &mut sim, Nanos::from_millis(200));
    let t0 = sim.now();

    // Draw every session's Poisson arrivals for the window up front, then
    // fire them in global time order.
    let mut arrivals: Vec<(Nanos, usize)> = Vec::new();
    for i in 0..clients.len() {
        let mut rng = DetRng::seed_from_u64(mix2(0x7e4a475, i as u64));
        let mut t = 0.0;
        loop {
            t += -MEAN_GAP_S * (1.0 - rng.unit_f64()).ln();
            if t >= WINDOW_S {
                break;
            }
            arrivals.push((t0 + Nanos::from_secs_f64(t), i));
        }
    }
    arrivals.sort();
    let requests = arrivals.len();
    for (at, i) in arrivals {
        sim.run_until(&mut w, at);
        clients[i].request_checkpoint(&mut w, &mut sim);
    }
    let t_end = t0 + Nanos::from_secs_f64(WINDOW_S);
    sim.run_until(&mut w, t_end);
    run_for(&mut w, &mut sim, Nanos::from_secs_f64(SETTLE_S));

    // Generations whose refill barrier released inside the window.
    let mut completed = 0;
    let mut pauses = Vec::new();
    for shard in 0..shards {
        let port = shard_root_port(&d.cfg, shard);
        for g in coord_shared_for(&mut w, port).gen_stats.clone() {
            let (Some(&s), Some(&r)) = (
                g.releases.get(&stage::SUSPENDED),
                g.releases.get(&stage::REFILLED),
            ) else {
                continue;
            };
            if g.aborted || r <= t0 || r > t_end {
                continue;
            }
            completed += 1;
            let pause = (r - s).as_secs_f64();
            pauses.extend(std::iter::repeat_n(pause, g.participants as usize));
        }
    }
    assert!(
        completed > 0,
        "{shards}-shard run completed no generations out of {requests} requests"
    );
    (completed, Summary::of(&pauses))
}

pub(super) fn tenants_jobs(_: Option<&str>) -> Vec<Job> {
    vec![Box::new(|| {
        let (shared, sharded) = pair(|| tenants_point(1), || tenants_point(8));
        let rate = |completed: usize| completed as f64 / WINDOW_S;
        let speedup = rate(sharded.0) / rate(shared.0).max(f64::MIN_POSITIVE);
        let rows = vec![
            ("agg_ckpts_per_sec", rate(sharded.0)),
            ("tenants_p50_pause_s", sharded.1.p50),
            ("tenants_p99_pause_s", sharded.1.p99),
            ("tenants_shared_ckpts_per_sec", rate(shared.0)),
            ("tenants_shared_p50_pause_s", shared.1.p50),
            ("tenants_shared_p99_pause_s", shared.1.p99),
            ("tenants_speedup_ratio", speedup),
        ];
        keyed("", rows)
    })]
}

pub(super) fn tenants_render(t: &Table) -> String {
    let mut out = format!(
        "# Multi-tenant service: one shared coordinator vs an 8-way sharded dmtcpd\n\
         # {SESSIONS} sessions x {PROCS_PER_SESSION} procs, {TENANT_BALLAST}-byte ballast, \
         Poisson requests every {MEAN_GAP_S}s per session, {WINDOW_S}s storm window\n\n\
         \x20 shards   agg ckpts/s   p50 pause   p99 pause\n"
    );
    for (shards, who) in [(1, "tenants_shared_"), (8, "tenants_")] {
        let rate = if shards == 1 {
            t.get("tenants_shared_ckpts_per_sec")
        } else {
            t.get("agg_ckpts_per_sec")
        };
        out += &format!(
            "  {shards:>6}   {rate:>11.2}   {:>8.3}s   {:>8.3}s\n",
            t.get(&format!("{who}p50_pause_s")),
            t.get(&format!("{who}p99_pause_s")),
        );
    }
    out += &format!(
        "sharded/shared aggregate rate: {:.1}x (floor 3x)\n",
        t.get("tenants_speedup_ratio")
    );
    out
}

pub(super) fn tenants_shapes(t: &Table) -> Result<(), String> {
    let speedup = t.get("tenants_speedup_ratio");
    if speedup < 3.0 {
        return Err(format!(
            "the sharded daemon's aggregate rate {:.2}/s is only {speedup:.1}x the shared \
             coordinator's {:.2}/s (floor 3x)",
            t.get("agg_ckpts_per_sec"),
            t.get("tenants_shared_ckpts_per_sec"),
        ));
    }
    let (sharded, shared) = (
        t.get("tenants_p99_pause_s"),
        t.get("tenants_shared_p99_pause_s"),
    );
    if sharded > shared * 1.10 {
        return Err(format!(
            "sharded p99 pause {sharded:.3}s is more than 1.10x the shared {shared:.3}s"
        ));
    }
    Ok(())
}
