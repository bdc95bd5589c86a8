//! The commands: one workload in this process (`run`), every workload in a
//! child process each (`all`), and the two-set agreement check (`repeat`).

use crate::harness::{self, hist_mean_s, Measured, Tracer, Workload};
use crate::replay::{self, Replay};
use crate::stats::{iqr_share, median, tail};
use crate::tables::{self, E2E, PER_LAYER, WORKLOADS};
use crate::workloads;
use crate::Args;
use obs::json::{JsonValue, JsonWriter};
use simkit::rng::{mix2, DetRng};
use std::time::Instant;

const MB: f64 = 1e6;

/// Set-ups per untraced run: at least three, and for a workload whose set-up
/// is short, more of them (up to a second's worth) so the median is steady.
/// The median is `setup_s`; the last instance is the one measured.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET_S: f64 = 1.0;

/// Cycles of a measured phase: the workload's 10-second count scaled by
/// `--seconds`, fixed before anything runs.
fn cycles_for(spec: &tables::WorkloadSpec, seconds: u32) -> u32 {
    ((spec.cycles_per_10s * seconds + 5) / 10).max(1)
}

fn gap_rng(seed: u64) -> DetRng {
    DetRng::seed_from_u64(mix2(seed, 0x6761_7073))
}

/// One finished run: the result line's fields plus what the human-readable
/// lines show.
struct Outcome {
    attempted: u64,
    failures: Vec<String>,
    metrics: Vec<(&'static str, &'static str, f64)>,
    notes: Vec<String>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn median_or_zero(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        median(xs)
    }
}

fn cold_note(c: &workloads::Cold) -> String {
    format!(
        "cold path (set-up): generation host {:.1} ms, virt {:.6} s, pause {:.6} s, {} root msgs; \
         recovery host {:.1} ms, virt {:.6} s",
        c.gen_host_ms,
        c.gen_virt_s,
        c.gen_pause_s,
        c.gen_root_msgs,
        c.recover_host_ms,
        c.recover_virt_s
    )
}

/// The untraced run: three set-ups, one measured phase, the oracle.
fn run_untraced(spec: &tables::WorkloadSpec, args: &Args) -> Outcome {
    let cycles = cycles_for(spec, args.seconds);
    let ops = cycles * (spec.gens_per_cycle + 1);
    let mut t = Tracer::new();
    let calib_before = harness::calib_spin_ms();
    let mut setup_s = Vec::with_capacity(MAX_SETUPS);
    let mut built = None;
    while setup_s.len() < MIN_SETUPS
        || (setup_s.len() < MAX_SETUPS && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        // Drop the previous instance first so peak memory is one instance's.
        drop(built.take());
        let t0 = Instant::now();
        built = Some(workloads::build(spec.name, args.seed, ops, &mut t));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let (mut wl, cold) = built.expect("at least MIN_SETUPS set-ups ran");
    let m = harness::measure(
        wl.as_mut(),
        &mut t,
        cycles,
        spec.gens_per_cycle,
        &mut gap_rng(args.seed),
    );
    let (checks, oracle_failures) = wl.oracle(&mut t);
    let calib_after = harness::calib_spin_ms();

    let gens = m.gens.max(1) as f64;
    let values = [
        median_or_zero(&m.virt_ckpt_s),
        median_or_zero(&m.virt_pause_s),
        median_or_zero(&m.virt_recover_s),
        m.counter("oskit.storage.write_bytes") as f64 / MB / gens,
        median_or_zero(&m.host_ckpt_ms),
        median_or_zero(&m.host_recover_ms),
        m.host_wall_s,
        harness::peak_rss_mb(),
        median(&setup_s),
    ];
    let mut notes = vec![format!(
        "{}: seed {} cycles {} x ({} gens + 1 recovery), {} generations, {} recoveries, {} events",
        spec.name, args.seed, cycles, spec.gens_per_cycle, m.gens, m.recovers, m.events_total
    )];
    for (name, xs) in [
        ("virt_ckpt_s", &m.virt_ckpt_s),
        ("virt_pause_s", &m.virt_pause_s),
        ("virt_recover_s", &m.virt_recover_s),
        ("host_ckpt_ms", &m.host_ckpt_ms),
        ("host_recover_ms", &m.host_recover_ms),
    ] {
        if xs.is_empty() {
            continue;
        }
        let tail = match tail(xs) {
            Some((p, v)) => format!("p{p} {v:.6}"),
            None => "too few samples for a tail percentile".to_string(),
        };
        notes.push(format!(
            "{name}: n={} median {:.6} iqr {:.2}% {tail}",
            xs.len(),
            median(xs),
            iqr_share(xs) * 100.0
        ));
    }
    notes.push(format!("setup_s: n={} {setup_s:.4?}", setup_s.len()));
    notes.push(cold_note(&cold));
    let drift = (calib_after - calib_before).abs() / calib_before;
    notes.push(format!(
        "calib.spin_ms: {calib_before:.2} before, {calib_after:.2} after{}",
        if drift > 0.05 { " — NOISY run" } else { "" }
    ));
    let mut failures = m.failures;
    failures.extend(oracle_failures);
    Outcome {
        attempted: m.attempted + checks,
        failures,
        metrics: E2E
            .iter()
            .zip(values)
            .map(|(e, v)| (e.name, e.unit, v))
            .collect(),
        notes,
    }
}

/// The traced run: one instance, four back-to-back measured phases — all
/// recorders off, the program's recorders on, the harness spans on too, then
/// everything off again — followed by the layer replay and the oracle.
/// Counts come from the first phase, which is the untraced run's workload at
/// a third of its length. The two untraced phases bracket the recorded ones,
/// so a workload whose operations get dearer as its world ages (they do) is
/// not mistaken for recorder overhead: each recorded phase is compared with
/// the untraced cost interpolated at its position.
fn run_traced(spec: &tables::WorkloadSpec, args: &Args) -> Outcome {
    let cycles = (cycles_for(spec, args.seconds) / 3).max(1);
    let ops = 4 * cycles * (spec.gens_per_cycle + 1);
    let mut t = Tracer::new();
    let calib_before = harness::calib_spin_ms();
    let (mut wl, cold) = workloads::build(spec.name, args.seed, ops, &mut t);
    let phase = |wl: &mut dyn Workload, t: &mut Tracer| {
        harness::measure(wl, t, cycles, spec.gens_per_cycle, &mut gap_rng(args.seed))
    };
    let off = phase(wl.as_mut(), &mut t);
    let stage_means = StageMeans::read(wl.as_mut(), &off);
    let recorders = |wl: &mut dyn Workload, on: bool| {
        let w = &mut wl.sys().w;
        w.obs.spans.set_enabled(on);
        let classes = if on { obs::journal::CLASS_ALL } else { 0 };
        dmtcp::session::enable_flight_recorder(w, classes, &[("workload", spec.name)]);
    };
    recorders(wl.as_mut(), true);
    let recorded = phase(wl.as_mut(), &mut t);
    t.set_on(true);
    let traced = phase(wl.as_mut(), &mut t);
    t.set_on(false);
    recorders(wl.as_mut(), false);
    let off_again = phase(wl.as_mut(), &mut t);
    t.set_on(true);
    let rp = replay::run(wl.as_mut(), &mut t);
    let (checks, oracle_failures) = wl.oracle(&mut t);
    let calib_after = harness::calib_spin_ms();

    // Untraced cost at the position of phase 2 and 3 of 4.
    let drift = (off_again.host_wall_s - off.host_wall_s) / 3.0;
    let overhead_pct = |m: &Measured, pos: f64| {
        100.0 * ratio(m.host_wall_s, off.host_wall_s + drift * pos) - 100.0
    };
    let overheads = (overhead_pct(&recorded, 1.0), overhead_pct(&traced, 2.0));

    let mut notes = vec![format!(
        "{}: seed {} traced, 4 phases of {} cycles; host_wall_s off {:.3}, recorders on {:.3}, \
         harness spans on too {:.3}, off again {:.3}",
        spec.name,
        args.seed,
        cycles,
        off.host_wall_s,
        recorded.host_wall_s,
        traced.host_wall_s,
        off_again.host_wall_s
    )];
    notes.push(cold_note(&cold));
    match replay::write_trace(wl.as_mut(), &t, &args.out_dir, spec.name) {
        Ok(path) => notes.push(format!("wrote {path} ({} harness spans)", t.spans.len())),
        Err(e) => notes.push(format!("trace write failed: {e}")),
    }
    if (calib_after - calib_before).abs() / calib_before > 0.05 {
        notes.push("calib.spin_ms drifted more than 5 % — NOISY run".to_string());
    }
    let values = layer_values(
        wl.as_mut(),
        &off,
        overheads,
        &rp,
        &stage_means,
        calib_before,
    );
    let mut failures = Vec::new();
    let mut attempted = checks;
    for m in [off, recorded, traced, off_again] {
        attempted += m.attempted;
        failures.extend(m.failures);
    }
    failures.extend(oracle_failures);
    Outcome {
        attempted,
        failures,
        metrics: PER_LAYER
            .iter()
            .map(|&(name, unit, _)| {
                let v = values
                    .iter()
                    .find(|(n, _)| *n == name)
                    .unwrap_or_else(|| panic!("per-layer metric {name} not computed"))
                    .1;
                (name, unit, v)
            })
            .collect(),
        notes,
    }
}

/// The Table 1 breakdown of the first phase, read before later phases add
/// their samples to the same histograms.
struct StageMeans {
    stage: [f64; 5],
    restart: [f64; 4],
}

impl StageMeans {
    fn read(wl: &mut dyn Workload, m: &Measured) -> StageMeans {
        let w = &wl.sys().w;
        let h = |name| hist_mean_s(w, name, m.gen_range);
        StageMeans {
            stage: [
                h("core.stage.suspend"),
                h("core.stage.elect"),
                h("core.stage.drain"),
                h("core.stage.write"),
                h("core.stage.refill"),
            ],
            restart: [
                h("core.restart.files"),
                h("core.restart.sockets"),
                h("core.restart.memory"),
                h("core.restart.refill"),
            ],
        }
    }
}

/// Every per-layer metric, from the untraced phase's counts (`m`), the
/// `(recorders, recorders + harness spans)` overheads, and the replay's unit
/// costs.
fn layer_values(
    wl: &mut dyn Workload,
    m: &Measured,
    overheads_pct: (f64, f64),
    rp: &Replay,
    sm: &StageMeans,
    calib_ms: f64,
) -> Vec<(&'static str, f64)> {
    let gens = m.gens.max(1) as f64;
    let recovers = m.recovers.max(1) as f64;
    let c = |name: &str| m.counter(name) as f64;
    let captured = if wl.compressed() {
        c("szip.bytes_in")
    } else {
        c("mtcp.image.raw_bytes")
    };
    let (open_close_us, admit_virt_ms) = match wl.svc_samples() {
        Some((oc, ad)) => (median_or_zero(oc), median_or_zero(ad)),
        None => (0.0, 0.0),
    };
    let svc = wl.svc_samples().is_some();
    let obs = &mut wl.sys().w.obs;
    obs.sync_drop_counters();
    let journal_dropped = obs.metrics.counter_total("obs.journal_dropped") as f64;
    let spans_dropped = obs.metrics.counter_total("obs.spans_dropped") as f64;

    // Attribution: how many units of each layer's work the untraced phase
    // did, times what one unit cost in the replay, over the phase's wall
    // clock. Outside-in estimates for ranking layers, not exact shares.
    let full_images = (m.images_written as f64 - c("mtcp.incr.images")).max(0.0);
    let incr_images = c("mtcp.incr.images");
    let restored = m.images_restored as f64;
    let cost = |full: f64, incr: f64, restore: f64| {
        full_images * full + incr_images * incr + restored * restore
    };
    let frames = c("coord.root_msgs") + 2.0 * c("relay.fanout");
    let shares = [
        cost(rp.full.szip_s, rp.incr.szip_s, rp.restore.szip_s),
        cost(rp.full.crc_s, rp.incr.crc_s, rp.restore.crc_s),
        cost(rp.full.mtcp_s, rp.incr.mtcp_s, rp.restore.mtcp_s),
        cost(rp.full.store_s, rp.incr.store_s, rp.restore.store_s),
        frames * rp.proto_frame_s,
    ]
    .map(|s| ratio(s, m.host_wall_s));
    let residual = 1.0 - shares.iter().sum::<f64>();

    vec![
        ("szip.compress_mb_s", rp.compress_mb_s),
        ("szip.decompress_mb_s", rp.decompress_mb_s),
        ("szip.crc32_mb_s", rp.crc32_mb_s),
        ("szip.ratio", ratio(c("szip.bytes_out"), c("szip.bytes_in"))),
        ("szip.bytes_in_per_gen", c("szip.bytes_in") / MB / gens),
        ("mtcp.write_full_ms", rp.write_full_ms),
        ("mtcp.write_incr_ms", rp.write_incr_ms),
        ("mtcp.restore_ms", rp.restore_ms),
        ("mtcp.verify_ms", rp.verify_ms),
        ("mtcp.captured_mb_per_gen", captured / MB / gens),
        ("mtcp.image_mb_per_gen", c("mtcp.image.bytes") / MB / gens),
        (
            "mtcp.aliased_regions_per_gen",
            c("mtcp.incr.aliased_regions") / gens,
        ),
        (
            "mtcp.restore_mb_per_recover",
            c("mtcp.restore.bytes") / MB / recovers,
        ),
        ("ckptstore.commit_mb_s", rp.commit_mb_s),
        ("ckptstore.resolve_ms", rp.resolve_ms),
        (
            "ckptstore.dedup_pct",
            100.0
                * ratio(
                    c("ckptstore.bytes_deduped"),
                    c("ckptstore.bytes_deduped") + c("ckptstore.bytes_written"),
                ),
        ),
        (
            "ckptstore.replication_mb_per_gen",
            c("ckptstore.replication_bytes") / MB / gens,
        ),
        (
            "ckptstore.replica_fetch_mb_per_recover",
            c("ckptstore.replica_fetch_bytes") / MB / recovers,
        ),
        (
            "ckptstore.gc_reclaimed_mb",
            c("ckptstore.gc_reclaimed") / MB,
        ),
        ("simkit.events_per_gen", m.events_ckpt as f64 / gens),
        (
            "simkit.events_per_recover",
            m.events_recover as f64 / recovers,
        ),
        ("simkit.events_total", m.events_total as f64),
        (
            "simkit.host_us_per_event",
            ratio(m.host_wall_s * 1e6, m.events_total as f64),
        ),
        ("simkit.engine_mevents_s", rp.engine_mevents_s),
        ("oskit.sched_steps_s", rp.sched_steps_s),
        ("oskit.net_msgs_s", rp.net_msgs_s),
        ("oskit.spawn_us", rp.spawn_us),
        (
            "oskit.net_tx_mb_per_gen",
            c("oskit.net.tx_bytes") / MB / gens,
        ),
        (
            "oskit.storage_write_mb_per_gen",
            c("oskit.storage.write_bytes") / MB / gens,
        ),
        (
            "oskit.cow_copied_mb_per_gen",
            c("oskit.mem.cow_copied_bytes") / MB / gens,
        ),
        ("core.proto_encode_mframes_s", rp.proto_encode_mframes_s),
        ("core.proto_decode_mframes_s", rp.proto_decode_mframes_s),
        ("core.root_msgs_per_gen", c("coord.root_msgs") / gens),
        ("core.barrier_retries", c("core.barrier.retries")),
        ("core.stage_suspend_virt_s", sm.stage[0]),
        ("core.stage_elect_virt_s", sm.stage[1]),
        ("core.stage_drain_virt_s", sm.stage[2]),
        ("core.stage_write_virt_s", sm.stage[3]),
        ("core.stage_refill_virt_s", sm.stage[4]),
        ("core.restart_files_virt_s", sm.restart[0]),
        ("core.restart_sockets_virt_s", sm.restart[1]),
        ("core.restart_memory_virt_s", sm.restart[2]),
        ("core.restart_refill_virt_s", sm.restart[3]),
        (
            "core.max_barrier_gap_virt_s",
            median_or_zero(&m.barrier_gap_s),
        ),
        ("core.plan_ms", median_or_zero(&m.plan_ms)),
        ("svc.open_close_us", open_close_us),
        ("svc.admit_virt_ms", admit_virt_ms),
        (
            "svc.ckpts_per_virt_s",
            if svc {
                ratio(m.gens as f64, m.virt_wall_s)
            } else {
                0.0
            },
        ),
        ("svc.rejected", c("svc.sessions_rejected")),
        ("obs.journal_mrecords_s", rp.journal_mrecords_s),
        ("obs.recorder_overhead_pct", overheads_pct.0),
        ("obs.journal_dropped", journal_dropped),
        ("obs.spans_dropped", spans_dropped),
        ("trace.overhead_pct", overheads_pct.1),
        ("calib.spin_ms", calib_ms),
        ("attrib.szip_share", shares[0]),
        ("attrib.crc_share", shares[1]),
        ("attrib.mtcp_share", shares[2]),
        ("attrib.ckptstore_share", shares[3]),
        ("attrib.proto_share", shares[4]),
        ("attrib.residual_share", residual),
    ]
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(o: &Outcome) -> String {
    let mut j = JsonWriter::new();
    j.obj_begin();
    j.key("correct").val_bool(o.failures.is_empty());
    j.field_u64("attempted", o.attempted);
    j.field_u64("failed", o.failures.len() as u64);
    j.key("metrics").obj_begin();
    for &(name, unit, value) in &o.metrics {
        j.key(name)
            .obj_begin()
            .field_f64("value", value)
            .field_str("unit", unit)
            .obj_end();
    }
    j.obj_end();
    j.obj_end();
    j.into_string()
}

/// `perf run`: one workload in this process. Prints `#` comment lines, then
/// the result line last. Succeeds only when every output checked out.
pub fn run(args: &Args) -> bool {
    let name = args.workload.as_deref().expect("run has a workload");
    let spec = tables::workload(name).expect("validated");
    let o = if args.trace {
        run_traced(spec, args)
    } else {
        run_untraced(spec, args)
    };
    for n in &o.notes {
        println!("# {n}");
    }
    for f in &o.failures {
        println!("# FAILED: {f}");
    }
    println!("{}", result_line(&o));
    o.failures.is_empty()
}

/// A child run's parsed result line.
struct Set {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `(name, unit, value as printed)`.
    metrics: Vec<(String, String, String)>,
}

/// Re-execute this binary for one workload, so `peak_rss_mb` is that
/// workload's alone, and parse its result line.
fn child(workload: &str, args: &Args, seed: u64) -> Result<Set, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .args(["--out", &args.out_dir])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    for line in stdout.lines().filter(|l| l.starts_with('#')) {
        println!("{line}");
    }
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    let v = JsonValue::parse(last).map_err(|e| format!("bad result line: {e}"))?;
    let field = |k: &str| v.get(k).ok_or(format!("result line lacks {k}"));
    let mut metrics = Vec::new();
    for (name, m) in field("metrics")?.entries().ok_or("metrics is no object")? {
        let unit = m.get("unit").and_then(JsonValue::as_str).unwrap_or("");
        let value = match m.get("value") {
            Some(JsonValue::Num(raw)) => raw.clone(),
            _ => return Err(format!("metric {name} has no numeric value")),
        };
        metrics.push((name.clone(), unit.to_string(), value));
    }
    Ok(Set {
        correct: field("correct")?.as_bool().unwrap_or(false) && out.status.success(),
        attempted: field("attempted")?.as_u64().unwrap_or(0),
        failed: field("failed")?.as_u64().unwrap_or(0),
        metrics,
    })
}

/// One full set: every workload, back to back, one child each.
fn full_set(args: &Args, seed: u64) -> Option<Vec<(&'static str, Set)>> {
    let mut sets = Vec::new();
    for spec in &WORKLOADS {
        match child(spec.name, args, seed) {
            Ok(set) => sets.push((spec.name, set)),
            Err(e) => {
                println!("{}: {e}", spec.name);
                return None;
            }
        }
    }
    Some(sets)
}

fn print_set(sets: &[(&'static str, Set)]) -> bool {
    let mut ok = true;
    for (workload, set) in sets {
        let why = tables::workload(workload).map_or("", |w| w.why);
        println!(
            "\n{workload}: correct={} attempted={} failed={}\n  ({why})",
            set.correct, set.attempted, set.failed
        );
        for (name, unit, value) in &set.metrics {
            println!("  {name:<40} {value:>22} {unit}");
        }
        ok &= set.correct;
    }
    ok
}

/// `perf all`: every metric of every workload by name and unit; fails if any
/// workload produced an incorrect output.
pub fn all(args: &Args) -> bool {
    match full_set(args, args.seed) {
        Some(sets) => print_set(&sets),
        None => false,
    }
}

/// `perf repeat`: two full sets on one seed must agree — virtual-clock and
/// count metrics exactly, host metrics within their bound — and a third set
/// on another seed must still pass its oracle.
pub fn repeat(args: &Args) -> bool {
    let (Some(a), Some(b), Some(other)) = (
        full_set(args, args.seed),
        full_set(args, args.seed),
        full_set(args, args.seed + 1),
    ) else {
        return false;
    };
    println!("== set 1, seed {} ==", args.seed);
    let mut ok = print_set(&a);
    println!("\n== set 2, seed {} ==", args.seed);
    ok &= print_set(&b);
    println!("\n== set 3, seed {} ==", args.seed + 1);
    ok &= print_set(&other);

    println!("\n== agreement of sets 1 and 2 ==");
    println!(
        "  {:<16} {:<20} {:>10} {:>8}  verdict",
        "workload", "metric", "spread", "bound"
    );
    for ((workload, sa), (_, sb)) in a.iter().zip(&b) {
        for ((name, _, va), (_, _, vb)) in sa.metrics.iter().zip(&sb.metrics) {
            let (fa, fb): (f64, f64) = (va.parse().unwrap_or(0.0), vb.parse().unwrap_or(0.0));
            let spread = ratio((fa - fb).abs(), fa.min(fb));
            let spec = E2E.iter().find(|e| e.name == name);
            let (bound, agrees) = match spec {
                Some(e) if e.virt => ("exact".to_string(), va == vb),
                Some(e) => (format!("{:.0}%", e.bound * 100.0), spread <= e.bound),
                // Per-layer metrics carry no bound; shown for information.
                None => ("-".to_string(), true),
            };
            println!(
                "  {workload:<16} {name:<20} {:>9.3}% {bound:>8}  {}",
                spread * 100.0,
                if agrees { "ok" } else { "DISAGREES" }
            );
            ok &= agrees;
        }
    }
    println!("\nrepeat: {}", if ok { "ok" } else { "FAILED" });
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_valid_json_with_exactly_the_contract_keys() {
        let o = Outcome {
            attempted: 12,
            failures: vec!["x".to_string()],
            metrics: vec![("virt_ckpt_s", "s", 4.011), ("peak_rss_mb", "MB", f64::NAN)],
            notes: Vec::new(),
        };
        let line = result_line(&o);
        obs::json::validate(&line).expect("valid JSON");
        let v = JsonValue::parse(&line).expect("parses");
        let keys: Vec<&str> = v
            .entries()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct").and_then(JsonValue::as_bool), Some(false));
        assert_eq!(v.get("failed").and_then(JsonValue::as_u64), Some(1));
        let m = v.get("metrics").and_then(|m| m.get("virt_ckpt_s"));
        assert_eq!(
            m.and_then(|m| m.get("value")).and_then(JsonValue::as_f64),
            Some(4.011)
        );
    }

    #[test]
    fn cycle_count_scales_with_seconds_and_never_reaches_zero() {
        let spec = tables::WorkloadSpec {
            name: "t",
            why: "",
            cycles_per_10s: 4,
            gens_per_cycle: 4,
        };
        assert_eq!(cycles_for(&spec, 10), 4);
        assert_eq!(cycles_for(&spec, 5), 2);
        assert_eq!(cycles_for(&spec, 1), 1);
        assert_eq!(cycles_for(&spec, 60), 24);
        for w in &WORKLOADS {
            assert_eq!(cycles_for(w, 10), w.cycles_per_10s);
            assert!(cycles_for(w, 1) >= 1);
        }
    }

    /// `BENCHMARK.json` and the binary's tables must name the same things.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let text = include_str!("../../BENCHMARK.json");
        assert!(text.len() <= 64 << 10);
        let v = JsonValue::parse(text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            v.get(key)
                .and_then(JsonValue::as_arr)
                .unwrap_or_else(|| panic!("{key} is an array"))
                .iter()
                .map(|e| {
                    e.get("name")
                        .and_then(JsonValue::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        let expect: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names("workloads"), expect);
        let expect: Vec<&str> = PER_LAYER.iter().map(|p| p.0).collect();
        assert_eq!(names("per_layer"), expect);
        let expect: Vec<&str> = E2E.iter().map(|e| e.name).collect();
        assert_eq!(names("end_to_end"), expect);
        for (e, j) in E2E.iter().zip(
            v.get("end_to_end")
                .and_then(JsonValue::as_arr)
                .expect("array"),
        ) {
            assert_eq!(j.get("unit").and_then(JsonValue::as_str), Some(e.unit));
            assert_eq!(j.get("better").and_then(JsonValue::as_str), Some("lower"));
            assert_eq!(j.get("bound").and_then(JsonValue::as_f64), Some(e.bound));
        }
        for (p, j) in PER_LAYER.iter().zip(
            v.get("per_layer")
                .and_then(JsonValue::as_arr)
                .expect("array"),
        ) {
            assert_eq!(j.get("unit").and_then(JsonValue::as_str), Some(p.1));
            assert_eq!(j.get("better").and_then(JsonValue::as_str), Some(p.2));
        }
        for (w, j) in WORKLOADS.iter().zip(
            v.get("workloads")
                .and_then(JsonValue::as_arr)
                .expect("array"),
        ) {
            assert_eq!(j.get("why").and_then(JsonValue::as_str), Some(w.why));
        }
    }
}
