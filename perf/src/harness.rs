//! The measuring machinery shared by every workload: the world/sim pair, the
//! harness-side span recorder, the [`Workload`] interface, and the measured
//! phase itself.
//!
//! One thread, one process: all load comes from the closed loop in
//! [`measure`], which issues the next operation only after the previous one
//! settled. Host time is taken with [`Instant`] around whole operations;
//! sample vectors are sized before the first operation.

use dmtcp::coord::{stage, GenStat};
use oskit::world::{OsSim, World};
use simkit::rng::DetRng;
use simkit::Nanos;
use std::collections::BTreeMap;
use std::time::Instant;

/// Event budget per call into the system — generous; a hang is a bug.
pub const EV: u64 = 400_000_000;

/// A simulated cluster and the engine driving it.
pub struct Sys {
    pub w: World,
    pub sim: OsSim,
}

/// One harness-side span: a call the harness made into the system (or, in
/// the layer replay, into one layer), on both clocks.
pub struct HSpan {
    pub name: &'static str,
    pub layer: &'static str,
    pub parent: Option<usize>,
    /// Operation the call belongs to (one id per checkpoint/recover/replay op).
    pub op: u64,
    pub host_us: (f64, f64),
    pub virt_ns: (u64, u64),
}

/// Records [`HSpan`]s in memory when on; a branch and nothing else when off.
pub struct Tracer {
    on: bool,
    origin: Instant,
    pub spans: Vec<HSpan>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn host_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span; children opened before the matching [`Tracer::end`] nest
    /// under it. Returns the token `end` takes.
    pub fn begin(&mut self, name: &'static str, layer: &'static str, virt: Nanos) -> Option<usize> {
        if !self.on {
            return None;
        }
        let now = self.host_us();
        self.spans.push(HSpan {
            name,
            layer,
            parent: self.stack.last().copied(),
            op: self.op,
            host_us: (now, now),
            virt_ns: (virt.0, virt.0),
        });
        self.stack.push(self.spans.len() - 1);
        Some(self.spans.len() - 1)
    }

    pub fn end(&mut self, token: Option<usize>, virt: Nanos) {
        let Some(i) = token else { return };
        let now = self.host_us();
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(i), "spans close innermost-first");
        self.spans[i].host_us.1 = now;
        self.spans[i].virt_ns.1 = virt.0;
    }

    /// Open the parent span of one whole operation (fresh op id).
    pub fn begin_op(&mut self, name: &'static str, virt: Nanos) -> Option<usize> {
        self.op += 1;
        self.begin(name, "harness", virt)
    }

    /// Wrap one call into the system.
    pub fn call<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        sys: &mut Sys,
        f: impl FnOnce(&mut World, &mut OsSim) -> T,
    ) -> T {
        let token = self.begin(name, layer, sys.sim.now());
        let out = f(&mut sys.w, &mut sys.sim);
        self.end(token, sys.sim.now());
        out
    }

    /// Let the simulation run for `dur` of virtual time.
    pub fn run_for(&mut self, sys: &mut Sys, dur: Nanos) {
        self.call("run_for", "harness", sys, |w, sim| {
            dmtcp::session::run_for(w, sim, dur)
        });
    }
}

/// What one recovery operation reports.
pub struct Recovered {
    /// Virtual duration of the recovery (kill to restart-refilled, or the
    /// movers' pause for a migration).
    pub virt: Nanos,
    /// Images restored.
    pub restored: u32,
    /// Generations the recovery itself committed and the images they hold (a
    /// migration checkpoints first; bystanders commit during a restart).
    pub gens: u32,
    pub written: u32,
    /// Host milliseconds spent building the restart plan.
    pub plan_ms: f64,
}

/// A built, warmed-up workload instance. Every method that touches the
/// system goes through the tracer so the traced run sees each call.
pub trait Workload {
    fn sys(&mut self) -> &mut Sys;
    /// Whether images go through szip (decides which counter holds the
    /// captured byte count).
    fn compressed(&self) -> bool;
    /// One checkpoint operation: request, wait until durable. Returns the
    /// stats of every generation it committed (one, or several for a wave).
    fn checkpoint(&mut self, t: &mut Tracer) -> Result<Vec<GenStat>, String>;
    /// One recovery operation of cycle `cycle`.
    fn recover(&mut self, t: &mut Tracer, cycle: u32) -> Result<Recovered, String>;
    /// The seeded virtual gap between operations, lower bound.
    fn gap_base(&self) -> Nanos;
    /// Untimed: finish the computation and compare its outputs with what an
    /// uninterrupted run produces. Returns `(checks made, failures)`.
    fn oracle(&mut self, t: &mut Tracer) -> (u64, Vec<String>);
    /// `(open+close host µs, admission virtual ms)` samples, on the one
    /// workload that goes through the service daemon.
    fn svc_samples(&self) -> Option<(&[f64], &[f64])> {
        None
    }
}

/// Registry counters whose measured-phase deltas feed the metrics.
const COUNTERS: &[&str] = &[
    "szip.bytes_in",
    "szip.bytes_out",
    "mtcp.image.bytes",
    "mtcp.image.raw_bytes",
    "mtcp.dirty_bytes",
    "mtcp.incr.images",
    "mtcp.incr.aliased_regions",
    "mtcp.restore.bytes",
    "ckptstore.bytes_written",
    "ckptstore.bytes_deduped",
    "ckptstore.replication_bytes",
    "ckptstore.replica_fetch_bytes",
    "ckptstore.gc_reclaimed",
    "oskit.net.tx_bytes",
    "oskit.storage.write_bytes",
    "oskit.mem.cow_copied_bytes",
    "coord.root_msgs",
    "relay.fanout",
    "core.barrier.retries",
    "svc.sessions_admitted",
    "svc.sessions_rejected",
];

fn counter_snapshot(w: &World) -> BTreeMap<&'static str, u64> {
    COUNTERS
        .iter()
        .map(|&c| (c, w.obs.metrics.counter_total(c)))
        .collect()
}

/// Everything one measured phase produced.
pub struct Measured {
    /// Per checkpoint operation: host milliseconds per committed generation.
    pub host_ckpt_ms: Vec<f64>,
    /// Per generation, virtual seconds.
    pub virt_ckpt_s: Vec<f64>,
    pub virt_pause_s: Vec<f64>,
    pub barrier_gap_s: Vec<f64>,
    /// Per recovery operation.
    pub host_recover_ms: Vec<f64>,
    pub virt_recover_s: Vec<f64>,
    pub plan_ms: Vec<f64>,
    pub host_wall_s: f64,
    pub virt_wall_s: f64,
    /// Generations committed, by checkpoint operations and recoveries alike.
    pub gens: u64,
    pub recovers: u64,
    pub images_written: u64,
    pub images_restored: u64,
    pub events_ckpt: u64,
    pub events_recover: u64,
    pub events_total: u64,
    /// Generation numbers seen, for selecting per-generation histograms.
    pub gen_range: (u64, u64),
    pub counters: BTreeMap<&'static str, u64>,
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Measured {
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// Virtual request-to-durable time of a generation.
fn durable_time(g: &GenStat) -> Option<Nanos> {
    g.written_time().or(g.checkpoint_time())
}

/// Longest wait between consecutive barrier releases of a generation: how
/// long the slowest participant held everyone else at some stage.
fn max_barrier_gap(g: &GenStat) -> Nanos {
    let mut prev = g.requested_at;
    let mut worst = Nanos::ZERO;
    for s in [
        stage::SUSPENDED,
        stage::ELECTED,
        stage::DRAINED,
        stage::CHECKPOINTED,
        stage::REFILLED,
    ] {
        if let Some(&t) = g.releases.get(&s) {
            worst = worst.max(t.saturating_sub(prev));
            prev = t;
        }
    }
    worst
}

/// The measured phase: `cycles` cycles of `gens_per_cycle` checkpoint
/// operations then one recovery, a seeded virtual gap after every operation.
/// The operation count is fixed before the first one starts, so every
/// virtual-clock number and count repeats exactly for a seed.
pub fn measure(
    wl: &mut dyn Workload,
    t: &mut Tracer,
    cycles: u32,
    gens_per_cycle: u32,
    gap_rng: &mut DetRng,
) -> Measured {
    let ckpt_ops = (cycles * gens_per_cycle) as usize;
    // A wave commits up to five generations per operation.
    let mut m = Measured {
        host_ckpt_ms: Vec::with_capacity(ckpt_ops),
        virt_ckpt_s: Vec::with_capacity(ckpt_ops * 5),
        virt_pause_s: Vec::with_capacity(ckpt_ops * 5),
        barrier_gap_s: Vec::with_capacity(ckpt_ops * 5),
        host_recover_ms: Vec::with_capacity(cycles as usize),
        virt_recover_s: Vec::with_capacity(cycles as usize),
        plan_ms: Vec::with_capacity(cycles as usize),
        host_wall_s: 0.0,
        virt_wall_s: 0.0,
        gens: 0,
        recovers: 0,
        images_written: 0,
        images_restored: 0,
        events_ckpt: 0,
        events_recover: 0,
        events_total: 0,
        gen_range: (u64::MAX, 0),
        counters: BTreeMap::new(),
        attempted: 0,
        failures: Vec::new(),
    };
    let gap_base = wl.gap_base();
    let mut gap = |wl: &mut dyn Workload, t: &mut Tracer| {
        let dur = Nanos(gap_base.0 + gap_rng.below(gap_base.0 * 2 / 5));
        t.run_for(wl.sys(), dur);
    };
    let before = counter_snapshot(&wl.sys().w);
    let (ev0, virt0) = (wl.sys().sim.events_fired(), wl.sys().sim.now());
    let wall = Instant::now();
    'cycles: for cycle in 0..cycles {
        for _ in 0..gens_per_cycle {
            m.attempted += 1;
            let ev = wl.sys().sim.events_fired();
            let op = t.begin_op("checkpoint", wl.sys().sim.now());
            let t0 = Instant::now();
            let out = wl.checkpoint(t);
            let host = t0.elapsed();
            t.end(op, wl.sys().sim.now());
            m.events_ckpt += wl.sys().sim.events_fired() - ev;
            match out {
                Ok(gens) => {
                    m.host_ckpt_ms
                        .push(host.as_secs_f64() * 1e3 / gens.len() as f64);
                    for g in &gens {
                        let (Some(durable), Some(pause)) = (durable_time(g), g.total_pause())
                        else {
                            m.failures
                                .push(format!("generation {} has no durable time", g.gen));
                            continue;
                        };
                        m.virt_ckpt_s.push(durable.as_secs_f64());
                        m.virt_pause_s.push(pause.as_secs_f64());
                        m.barrier_gap_s.push(max_barrier_gap(g).as_secs_f64());
                        m.gens += 1;
                        m.images_written += g.participants as u64;
                        m.gen_range = (m.gen_range.0.min(g.gen), m.gen_range.1.max(g.gen));
                    }
                }
                Err(e) => m.failures.push(format!("checkpoint: {e}")),
            }
            gap(wl, t);
        }
        m.attempted += 1;
        let ev = wl.sys().sim.events_fired();
        let op = t.begin_op("recover", wl.sys().sim.now());
        let t0 = Instant::now();
        let out = wl.recover(t, cycle);
        let host = t0.elapsed();
        t.end(op, wl.sys().sim.now());
        m.events_recover += wl.sys().sim.events_fired() - ev;
        match out {
            Ok(r) => {
                m.host_recover_ms.push(host.as_secs_f64() * 1e3);
                m.virt_recover_s.push(r.virt.as_secs_f64());
                m.plan_ms.push(r.plan_ms);
                m.recovers += 1;
                m.images_restored += r.restored as u64;
                m.images_written += r.written as u64;
                m.gens += r.gens as u64;
            }
            Err(e) => {
                // A failed recovery leaves no computation to go on with.
                m.failures.push(format!("recover (cycle {cycle}): {e}"));
                break 'cycles;
            }
        }
        gap(wl, t);
    }
    m.host_wall_s = wall.elapsed().as_secs_f64();
    let sys = wl.sys();
    m.virt_wall_s = (sys.sim.now() - virt0).as_secs_f64();
    m.events_total = sys.sim.events_fired() - ev0;
    let after = counter_snapshot(&sys.w);
    m.counters = after.iter().map(|(&k, &v)| (k, v - before[k])).collect();
    m
}

/// Mean seconds of the `core.stage.*` / `core.restart.*` histogram `name`
/// over the generations of `range` (inclusive).
pub fn hist_mean_s(w: &World, name: &'static str, range: (u64, u64)) -> f64 {
    let (mut sum, mut count) = (0u64, 0u64);
    for label in w.obs.metrics.hist_labels(name) {
        if label < range.0 || label > range.1 {
            continue;
        }
        if let Some(h) = w.obs.metrics.hist(name, label) {
            sum += h.sum();
            count += h.count();
        }
    }
    if count == 0 {
        0.0
    } else {
        sum as f64 / count as f64 / 1e9
    }
}

/// `VmHWM` of this process in MB (decimal), from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb * 1024.0 / 1e6)
        .unwrap_or(0.0)
}

/// A fixed integer loop, timed: the same work before and after a workload.
/// Two readings more than 5 % apart mean something else had the CPU.
pub fn calib_spin_ms() -> f64 {
    let t0 = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..20_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}
