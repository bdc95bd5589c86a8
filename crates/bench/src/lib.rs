//! Experiment harness: everything the `paper` and `sim` binaries share.
//!
//! Each experiment builds a fresh simulated cluster, launches a workload
//! under DMTCP, requests checkpoints, optionally kills and restarts the
//! computation, and reads the coordinator's barrier timings — the same
//! quantities the paper reports. Independent experiment configurations run
//! in parallel on host threads (each owns its own world) through
//! [`run_parallel`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use apps::registry::full_registry;
use dmtcp::coord::{stage, GenStat};
use dmtcp::session::run_for;
use dmtcp::{ExpectCkpt, Options, RestartPlan, Session};
use oskit::world::{OsSim, World};
use oskit::HwSpec;
use simkit::{Nanos, Sim};

/// Event budget per phase — generous; a hang is a bug.
pub const EV: u64 = 400_000_000;

/// Mean seconds per Figure-1 checkpoint stage, derived from the
/// `core.stage.*` histograms the managers record into the world's metrics
/// registry (one sample per process per generation).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageBreakdown {
    /// Suspend user threads.
    pub suspend: f64,
    /// Elect fd leaders.
    pub elect: f64,
    /// Drain kernel buffers.
    pub drain: f64,
    /// Write checkpoint image.
    pub write: f64,
    /// Refill kernel buffers.
    pub refill: f64,
}

impl StageBreakdown {
    /// Sum of the stage means — the paper's "total" row.
    pub fn total(&self) -> f64 {
        self.suspend + self.elect + self.drain + self.write + self.refill
    }
}

/// Mean seconds per Figure-2 restart step (`core.restart.*` histograms).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RestartBreakdown {
    /// Restore files and ptys.
    pub files: f64,
    /// Recreate and reconnect sockets.
    pub sockets: f64,
    /// Restore memory and threads.
    pub memory: f64,
    /// Refill kernel buffers.
    pub refill: f64,
}

impl RestartBreakdown {
    /// Sum of the step means.
    pub fn total(&self) -> f64 {
        self.files + self.sockets + self.memory + self.refill
    }
}

fn hist_mean_secs(w: &World, name: &'static str, gen: Option<u64>) -> f64 {
    let h = match gen {
        Some(g) => w.obs.metrics.hist(name, g).copied().unwrap_or_default(),
        None => w.obs.metrics.hist_merged(name),
    };
    if h.count() == 0 {
        0.0
    } else {
        h.sum() as f64 / h.count() as f64 / 1e9
    }
}

/// Read the checkpoint stage breakdown back out of the metrics registry:
/// the mean over every process sample of generation `gen`, or over all
/// generations recorded in `w` when `None`.
pub fn stage_breakdown(w: &World, gen: Option<u64>) -> StageBreakdown {
    StageBreakdown {
        suspend: hist_mean_secs(w, "core.stage.suspend", gen),
        elect: hist_mean_secs(w, "core.stage.elect", gen),
        drain: hist_mean_secs(w, "core.stage.drain", gen),
        write: hist_mean_secs(w, "core.stage.write", gen),
        refill: hist_mean_secs(w, "core.stage.refill", gen),
    }
}

/// Read the restart step breakdown out of the metrics registry.
pub fn restart_breakdown(w: &World, gen: Option<u64>) -> RestartBreakdown {
    RestartBreakdown {
        files: hist_mean_secs(w, "core.restart.files", gen),
        sockets: hist_mean_secs(w, "core.restart.sockets", gen),
        memory: hist_mean_secs(w, "core.restart.memory", gen),
        refill: hist_mean_secs(w, "core.restart.refill", gen),
    }
}

/// Write pre-rendered JSON lines to `results/<name>.jsonl`; returns the path
/// written.
pub fn write_jsonl_lines(
    name: &str,
    lines: impl IntoIterator<Item = String>,
) -> std::io::Result<String> {
    std::fs::create_dir_all("results")?;
    let path = format!("results/{name}.jsonl");
    let mut out = String::new();
    for l in lines {
        out.push_str(&l);
        out.push('\n');
    }
    std::fs::write(&path, out)?;
    Ok(path)
}

/// Merge flat numeric key/value pairs into a `{ "key": value, ... }` JSON
/// file, one key per line. A `paper` run of some figures must keep the
/// other figures' rows in `results/BENCH_paper.json`: existing keys keep
/// their position and are overwritten in place, new keys append.
pub fn merge_flat_json(path: &str, pairs: &[(&str, f64)]) -> std::io::Result<()> {
    let mut entries = read_flat_json(path);
    for &(key, val) in pairs {
        match entries.iter_mut().find(|(k, _)| k == key) {
            Some(e) => e.1 = val,
            None => entries.push((key.to_string(), val)),
        }
    }
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    let body: Vec<String> = entries
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v:.6}"))
        .collect();
    std::fs::write(path, format!("{{\n{}\n}}\n", body.join(",\n")))
}

/// The `(key, value)` pairs of a file [`merge_flat_json`] wrote, in file
/// order; empty when the file is missing.
pub fn read_flat_json(path: &str) -> Vec<(String, f64)> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    text.lines()
        .filter_map(|line| {
            let (rawk, rawv) = line.split_once(':')?;
            let key = rawk.trim().trim_matches('"');
            let val = rawv.trim().trim_end_matches(',').parse::<f64>().ok()?;
            (!key.is_empty()).then(|| (key.to_string(), val))
        })
        .collect()
}

/// Dump the world's recorded spans as Chrome trace-event JSON (open with
/// Perfetto / `chrome://tracing`).
pub fn dump_trace(w: &World, path: &str) -> std::io::Result<()> {
    std::fs::write(path, w.obs.chrome_trace())
}

/// A cluster world ready for experiments.
pub fn cluster_world(nodes: usize) -> (World, OsSim) {
    (
        World::new(HwSpec::cluster(), nodes, full_registry()),
        Sim::new(),
    )
}

/// A desktop world (single 8-core node).
pub fn desktop_world() -> (World, OsSim) {
    (
        World::new(HwSpec::desktop(), 1, full_registry()),
        Sim::new(),
    )
}

/// Standard options: images to the shared store unless `local_disk`.
pub fn options(compression: bool, forked: bool, local_disk: bool) -> Options {
    Options::builder()
        .ckpt_dir(if local_disk { "/ckpt" } else { "/shared/ckpt" })
        .compression(compression)
        .forked(forked)
        .build()
}

/// Checkpoint time (request → image-written barrier) in seconds.
pub fn ckpt_seconds(g: &GenStat) -> f64 {
    g.checkpoint_time()
        .expect("generation complete")
        .as_secs_f64()
}

/// Take `reps` checkpoints spaced by `gap`, returning their times and the
/// aggregate image size of the last one.
pub fn measure_checkpoints(
    w: &mut World,
    sim: &mut OsSim,
    s: &Session,
    reps: usize,
    gap: Nanos,
) -> (Vec<f64>, u64, u32) {
    let mut times = Vec::new();
    let mut size = 0;
    let mut parts = 0;
    for _ in 0..reps {
        let g = s.checkpoint_and_wait(w, sim, EV).expect_ckpt();
        times.push(ckpt_seconds(&g));
        parts = g.participants;
        size = dmtcp::catalog::read(w, s.opts.coord_port, g.gen)
            .expect("generation committed")
            .paths()
            .map(|(host, path)| {
                let node = w.resolve(host).expect("host");
                w.fs_for(node, &path).size(&path).expect("image exists")
            })
            .sum();
        run_for(w, sim, gap);
    }
    (times, size, parts)
}

/// Kill the computation and restart it in place; returns the restart
/// wall-clock in seconds (plan arrival → restart-refill barrier).
pub fn kill_and_measure_restart(w: &mut World, sim: &mut OsSim, s: &Session) -> f64 {
    let gen = s.last_gen_stat(w).expect("a checkpoint exists").gen;
    s.kill_computation(w, sim);
    RestartPlan::from_generation(w, s.opts.coord_port, gen)
        .expect("restart script written")
        .execute(s, w, sim)
        .expect("identity restart");
    let port = s.opts.coord_port;
    let g = Session::await_release(w, sim, port, gen, stage::RESTART_REFILLED, EV)
        .expect("a restart stage is awaited until released");
    (g.releases[&stage::RESTART_REFILLED] - g.requested_at).as_secs_f64()
}

/// Run independent experiment closures on parallel host threads, preserving
/// input order in the output.
pub fn run_parallel<T: Send>(jobs: Vec<Box<dyn FnOnce() -> T + Send>>) -> Vec<T> {
    let n = jobs.len();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::scope(|scope| {
        for (i, job) in jobs.into_iter().enumerate() {
            let tx = tx.clone();
            scope.spawn(move || {
                let out = job();
                tx.send((i, out)).expect("collector alive");
            });
        }
        drop(tx);
    });
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for (i, out) in rx.iter() {
        slots[i] = Some(out);
    }
    slots
        .into_iter()
        .map(|s| s.expect("job finished"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_parallel_preserves_order() {
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..8usize)
            .map(|i| Box::new(move || i * i) as Box<dyn FnOnce() -> usize + Send>)
            .collect();
        assert_eq!(run_parallel(jobs), vec![0, 1, 4, 9, 16, 25, 36, 49]);
    }

    #[test]
    fn merge_flat_json_keeps_other_writers_keys() {
        let path =
            std::env::temp_dir().join(format!("dmtcp_bench_merge_{}.json", std::process::id()));
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);
        // First writer creates the file.
        merge_flat_json(
            path,
            &[("mg_forked_ratio", 45.0), ("mg_inline_total_s", 3.9)],
        )
        .unwrap();
        // Second writer overwrites one key and appends another; the
        // untouched key must survive.
        merge_flat_json(
            path,
            &[("incr_speedup_ratio", 12.5), ("mg_inline_total_s", 4.0)],
        )
        .unwrap();
        let got = std::fs::read_to_string(path).unwrap();
        std::fs::remove_file(path).unwrap();
        obs::json::validate(&got).expect("valid JSON");
        assert!(got.contains("\"mg_forked_ratio\": 45.000000"));
        assert!(got.contains("\"mg_inline_total_s\": 4.000000"));
        assert!(got.contains("\"incr_speedup_ratio\": 12.500000"));
        // In-place overwrite, not duplicate keys.
        assert_eq!(got.matches("mg_inline_total_s").count(), 1);
    }
}
