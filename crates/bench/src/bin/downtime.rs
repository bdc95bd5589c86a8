//! Perceived downtime vs total checkpoint time under forked (two-phase)
//! checkpointing.
//!
//! With the copy-on-write fork pipeline the stop-the-world window ends at
//! the REFILLED barrier — the application resumes while compression and
//! image I/O drain in the background, acknowledged by the `CKPT_WRITTEN`
//! barrier. This bench runs NAS/MG (4 nodes × 2 procs) and RunCMS (desktop)
//! in both modes and reports, per checkpoint:
//!
//! * *perceived* — request → REFILLED release (what the application feels);
//! * *total*     — request → CKPT_WRITTEN release (when the generation is
//!   durable and restartable).
//!
//! Each forked run then kills the computation, restarts it in place and
//! checkpoints once more: a restored process was launched forked and must
//! still be (*after restart* — the perceived pause of that generation).
//!
//! Acceptance bar (enforced here, tracked by `scripts/bench_gate.sh`): in
//! forked mode the perceived pause must be at least 5× shorter than the
//! total checkpoint time on both workloads, before a restart and after one.
//!
//! Regenerate with: `cargo run --release -p dmtcp-bench --bin downtime`
//! Pass `--smoke` for the single-repetition variant tier-1 runs. Also
//! writes the flat `results/BENCH_ckpt.json` consumed by the CI
//! bench-regression gate.

use apps::nas::{nas_factory, NasKernel};
use dmtcp::coord::GenStat;
use dmtcp::session::run_for;
use dmtcp::{ExpectCkpt, RestartPlan, Session};
use dmtcp_bench::{cluster_world, desktop_world, merge_flat_json, options, write_jsonl_lines, EV};
use obs::json::JsonWriter;
use oskit::world::{NodeId, OsSim, World};
use simkit::Nanos;
use simmpi::launch::{mpirun, Flavor, Launcher, MpiJob};

struct Row {
    workload: &'static str,
    forked: bool,
    /// Mean request → REFILLED, seconds.
    pause_s: f64,
    /// Mean request → CKPT_WRITTEN, seconds.
    total_s: f64,
    /// Forked rows: request → REFILLED of the first generation after a
    /// kill and an in-place restart, seconds.
    pause_after_restart_s: Option<f64>,
}

impl Row {
    fn ratio(&self) -> f64 {
        self.total_s / self.pause_s.max(1e-12)
    }
}

/// Kill the computation, restart its newest generation where it was, let it
/// run for `gap`, and checkpoint: the perceived pause of that generation.
fn pause_after_restart(w: &mut World, sim: &mut OsSim, s: &Session, gap: Nanos) -> f64 {
    s.kill_computation(w, sim);
    let out = RestartPlan::newest()
        .execute(s, w, sim)
        .expect("restart in place");
    Session::wait_restart_done(w, sim, out.gen, EV);
    run_for(w, sim, gap);
    measure(w, sim, s, 1, gap).0
}

/// Checkpoint `reps` times and average both phase durations. The returned
/// stats always include the `CKPT_WRITTEN` release: in-line writers release
/// it together with REFILLED, forked writers after the background drain.
fn measure(w: &mut World, sim: &mut OsSim, s: &Session, reps: usize, gap: Nanos) -> (f64, f64) {
    let mut pause = 0.0;
    let mut total = 0.0;
    for _ in 0..reps {
        let g = s.checkpoint_and_wait(w, sim, EV).expect_ckpt();
        let g: GenStat = Session::wait_ckpt_written(w, sim, g.gen, EV)
            .expect("no faults armed: drain completes");
        pause += g.total_pause().expect("refilled").as_secs_f64();
        total += g.written_time().expect("written").as_secs_f64();
        run_for(w, sim, gap);
    }
    (pause / reps as f64, total / reps as f64)
}

fn nas_mg(forked: bool, reps: usize) -> Row {
    const NODES: usize = 4;
    let (mut w, mut sim) = cluster_world(NODES);
    let s = Session::start(&mut w, &mut sim, options(true, forked, true));
    let job = MpiJob {
        flavor: Flavor::OpenMpi,
        nodes: (0..NODES as u32).map(NodeId).collect(),
        procs_per_node: 2,
        base_port: 30_000,
    };
    mpirun(
        &mut w,
        &mut sim,
        Launcher::Dmtcp(&s),
        &job,
        nas_factory(NasKernel::Mg, 1_000_000, 1024),
    );
    run_for(&mut w, &mut sim, Nanos::from_millis(400));
    let gap = Nanos::from_millis(50);
    let (pause_s, total_s) = measure(&mut w, &mut sim, &s, reps, gap);
    Row {
        workload: "NAS/MG",
        forked,
        pause_s,
        total_s,
        pause_after_restart_s: forked.then(|| pause_after_restart(&mut w, &mut sim, &s, gap)),
    }
}

fn runcms(forked: bool, reps: usize) -> Row {
    let (mut w, mut sim) = desktop_world();
    let s = Session::start(&mut w, &mut sim, options(true, forked, false));
    s.launch(
        &mut w,
        &mut sim,
        NodeId(0),
        "runCMS",
        Box::new(apps::runcms::RunCms::new()),
    );
    run_for(&mut w, &mut sim, Nanos::from_secs(60));
    let gap = Nanos::from_secs(1);
    let (pause_s, total_s) = measure(&mut w, &mut sim, &s, reps, gap);
    Row {
        workload: "RunCMS",
        forked,
        pause_s,
        total_s,
        pause_after_restart_s: forked.then(|| pause_after_restart(&mut w, &mut sim, &s, gap)),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let reps = if smoke { 1 } else { 3 };
    println!("# downtime: perceived stop-the-world vs total checkpoint time ({reps} reps)\n");

    let rows = vec![
        nas_mg(false, reps),
        nas_mg(true, reps),
        runcms(false, reps),
        runcms(true, reps),
    ];

    println!(
        "  workload   mode     perceived   total     total/perceived   perceived after restart"
    );
    let mut lines = Vec::new();
    for r in &rows {
        println!(
            "  {:<9}  {:<7}  {:>7.3}s  {:>7.3}s   {:>6.1}x           {}",
            r.workload,
            if r.forked { "forked" } else { "inline" },
            r.pause_s,
            r.total_s,
            r.ratio(),
            r.pause_after_restart_s
                .map_or("-".to_string(), |p| format!("{p:>7.3}s"))
        );
        let mut j = JsonWriter::new();
        j.obj_begin()
            .field_str("workload", r.workload)
            .field_str("mode", if r.forked { "forked" } else { "inline" })
            .field_f64("pause_s", r.pause_s)
            .field_f64("total_s", r.total_s)
            .field_f64("ratio", r.ratio());
        if let Some(p) = r.pause_after_restart_s {
            j.field_f64("pause_after_restart_s", p);
        }
        j.obj_end();
        lines.push(j.into_string());
    }
    match write_jsonl_lines("downtime", lines) {
        Ok(p) => println!("# wrote {p}"),
        Err(e) => eprintln!("# jsonl write failed: {e}"),
    }

    // Flat key/value file for the CI bench-regression gate: one key per
    // line so the shell gate can parse it without a JSON library. Keys
    // ending `_s` gate "lower is better"; `_ratio` gates "higher is
    // better" (see scripts/bench_gate.sh). Merged, not overwritten — the
    // `ckptstore` bench contributes its incremental-speedup keys to the
    // same file.
    let find = |wl: &str, forked: bool| {
        rows.iter()
            .find(|r| r.workload == wl && r.forked == forked)
            .expect("row")
    };
    if let Err(e) = merge_flat_json(
        "results/BENCH_ckpt.json",
        &[
            ("mg_inline_total_s", find("NAS/MG", false).total_s),
            ("mg_forked_pause_s", find("NAS/MG", true).pause_s),
            ("mg_forked_total_s", find("NAS/MG", true).total_s),
            ("mg_forked_ratio", find("NAS/MG", true).ratio()),
            (
                "mg_forked_pause_after_restart_s",
                find("NAS/MG", true).pause_after_restart_s.expect("forked"),
            ),
            ("cms_inline_total_s", find("RunCMS", false).total_s),
            ("cms_forked_pause_s", find("RunCMS", true).pause_s),
            ("cms_forked_total_s", find("RunCMS", true).total_s),
            ("cms_forked_ratio", find("RunCMS", true).ratio()),
            (
                "cms_forked_pause_after_restart_s",
                find("RunCMS", true).pause_after_restart_s.expect("forked"),
            ),
        ],
    ) {
        eprintln!("# BENCH_ckpt.json write failed: {e}");
    } else {
        println!("# merged results/BENCH_ckpt.json");
    }

    // Acceptance bar: the whole point of the forked pipeline.
    let mut bad = Vec::new();
    for r in rows.iter().filter(|r| r.forked) {
        let after = r.pause_after_restart_s.expect("forked");
        for (when, pause) in [("", r.pause_s), (" after restart", after)] {
            let ratio = r.total_s / pause.max(1e-12);
            if ratio < 5.0 {
                bad.push(format!(
                    "{}{when}: perceived {pause:.3}s vs total {:.3}s ({ratio:.1}x < 5x)",
                    r.workload, r.total_s
                ));
            }
        }
    }
    if !bad.is_empty() {
        eprintln!(
            "FAIL: forked mode must shrink perceived downtime >= 5x:\n  {}",
            bad.join("\n  ")
        );
        std::process::exit(1);
    }
    println!(
        "\nok: forked perceived downtime >= 5x below total on all workloads, after a restart too"
    );
}
