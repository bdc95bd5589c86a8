//! Micro-benchmarks of the reproduction's moving parts: the szip codec
//! (the real compute cost of simulated checkpoints), image write/restore,
//! and a whole small-cluster checkpoint cycle. These measure *host* time —
//! how fast the simulator itself runs — complementing the fig*/table1
//! binaries, which report *virtual* (simulated) time.
//!
//! Hand-rolled harness (`harness = false`): the workspace builds offline,
//! so there is no criterion dependency. Run with
//! `cargo bench -p dmtcp-bench` or filter: `cargo bench -p dmtcp-bench -- szip`.
//!
//! The `szip/*` and `crc32/*` rows are also *recorded*: their best-of-k
//! throughput (MB = 10⁶ bytes, as in `perf`'s ledger) is merged into
//! `results/BENCH_host.json` as `szip.compress_mb_s.<profile>`,
//! `szip.decompress_mb_s.<profile>` and `szip.crc32_mb_s`. Recorded, not
//! gated — wall-clock on a shared box; the kernels' gates are the
//! differential tests in `crates/szip/tests/prop.rs` and `perf`.

use dmtcp::session::run_for;
use dmtcp::{ExpectCkpt, Options, Session};
use oskit::mem::FillProfile;
use oskit::program::{Program, Registry, Step};
use oskit::world::{NodeId, Pid, World};
use oskit::{HwSpec, Kernel};
use simkit::{Nanos, Sim, Snap, Summary};
use std::time::Instant;

/// Where the recorded rows go (`cargo bench` runs this binary from the
/// package directory, not the workspace root).
const HOST_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_host.json");

/// Measure `f` (with a fresh input from `setup` each iteration), printing
/// mean/p50/p90 per-iteration wall time and optional throughput. Returns the
/// fastest iteration in seconds (`None` when filtered out): min-of-k is the
/// least noisy estimator of what the code can do on a shared machine.
fn bench<S, T, R>(
    name: &str,
    bytes: Option<u64>,
    mut setup: impl FnMut() -> S,
    mut f: T,
) -> Option<f64>
where
    T: FnMut(S) -> R,
{
    if !selected(name) {
        return None;
    }
    // Warm up, then time iterations until we have enough samples or budget.
    for _ in 0..2 {
        let s = setup();
        std::hint::black_box(f(s));
    }
    let budget = std::time::Duration::from_millis(300);
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 200 && (started.elapsed() < budget || samples.len() < 5) {
        let s = setup();
        let t0 = Instant::now();
        std::hint::black_box(f(s));
        samples.push(t0.elapsed().as_secs_f64());
    }
    let sum = Summary::of(&samples);
    let thr = bytes
        .map(|b| format!("  {:8.1} MB/s", b as f64 / sum.mean / 1e6))
        .unwrap_or_default();
    println!(
        "{name:<40} {:>5} iters  mean {:>11}  p50 {:>11}  p90 {:>11}{thr}",
        samples.len(),
        fmt_t(sum.mean),
        fmt_t(sum.p50),
        fmt_t(sum.p90),
    );
    Some(samples.iter().copied().fold(f64::INFINITY, f64::min))
}

fn fmt_t(secs: f64) -> String {
    if secs < 1e-6 {
        format!("{:.1} ns", secs * 1e9)
    } else if secs < 1e-3 {
        format!("{:.2} µs", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.2} ms", secs * 1e3)
    } else {
        format!("{secs:.3} s")
    }
}

fn selected(name: &str) -> bool {
    let filters: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-'))
        .collect();
    filters.is_empty() || filters.iter().any(|f| name.contains(f.as_str()))
}

/// Record `key` = `bytes` over the fastest iteration, in MB/s.
fn record(recorded: &mut Vec<(String, f64)>, key: String, bytes: usize, best: Option<f64>) {
    if let Some(secs) = best {
        recorded.push((key, bytes as f64 / 1e6 / secs));
    }
}

fn bench_szip(recorded: &mut Vec<(String, f64)>) {
    let len = 1usize << 20;
    for (name, profile) in [
        ("zeros", FillProfile::Zeros),
        ("text", FillProfile::Text),
        ("code", FillProfile::Code),
        ("random", FillProfile::Random),
        (
            "mixed",
            FillProfile::Mixed {
                zero_pct: 30,
                text_pct: 30,
                code_pct: 20,
            },
        ),
    ] {
        let data = profile.bytes(7, len);
        let best = bench(
            &format!("szip/compress/{name}"),
            Some(len as u64),
            || (),
            |_| szip::compress(&data),
        );
        record(recorded, format!("szip.compress_mb_s.{name}"), len, best);
        let comp = szip::compress(&data);
        let best = bench(
            &format!("szip/decompress/{name}"),
            Some(len as u64),
            || (),
            |_| szip::decompress(&comp).expect("valid"),
        );
        record(recorded, format!("szip.decompress_mb_s.{name}"), len, best);
    }
}

fn bench_crc(recorded: &mut Vec<(String, f64)>) {
    let data = FillProfile::Code.bytes(3, 1 << 20);
    let best = bench(
        "crc32/1MiB",
        Some(data.len() as u64),
        || (),
        |_| szip::crc32(&data),
    );
    record(recorded, "szip.crc32_mb_s".to_string(), data.len(), best);
}

struct Holder {
    pc: u8,
    mb: u64,
}
simkit::impl_snap!(struct Holder { pc, mb });
impl Program for Holder {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        match self.pc {
            0 => {
                k.mmap_synthetic(
                    "data",
                    self.mb << 20,
                    7,
                    FillProfile::Mixed {
                        zero_pct: 30,
                        text_pct: 30,
                        code_pct: 20,
                    },
                );
                self.pc = 1;
                Step::Yield
            }
            _ => Step::Sleep(Nanos::from_millis(5)),
        }
    }
    fn tag(&self) -> &'static str {
        "bench-holder"
    }
    fn save(&self) -> Vec<u8> {
        self.to_snap_bytes()
    }
}

fn registry() -> Registry {
    let mut r = Registry::new();
    r.register_snap::<Holder>("bench-holder");
    r
}

fn bench_image_write() {
    bench(
        "mtcp/write_image/8MiB-compressed",
        None,
        || {
            let mut w = World::new(HwSpec::desktop(), 1, registry());
            let mut sim = Sim::new();
            let pid = w.spawn(
                &mut sim,
                NodeId(0),
                "holder",
                Box::new(Holder { pc: 0, mb: 8 }),
                Pid(1),
                Default::default(),
            );
            sim.run_until(&mut w, Nanos::from_millis(2));
            w.suspend_user_threads(&mut sim, pid);
            (w, sim, pid)
        },
        |(mut w, sim, pid)| {
            mtcp::write_image(
                &mut w,
                sim.now(),
                pid,
                "/img",
                mtcp::WriteMode::Compressed,
                pid.0,
                vec![],
            )
        },
    );
}

fn bench_full_checkpoint_cycle() {
    // Host time to simulate a full 2-node distributed checkpoint: measures
    // the DES + protocol machinery end to end.
    bench(
        "protocol/cluster-checkpoint/2nodes-2procs",
        None,
        || {
            let mut w = World::new(HwSpec::cluster(), 2, registry());
            let mut sim = Sim::new();
            let s = Session::start(
                &mut w,
                &mut sim,
                Options::builder().ckpt_dir("/shared/ckpt").build(),
            );
            for n in 0..2 {
                s.launch(
                    &mut w,
                    &mut sim,
                    NodeId(n),
                    "holder",
                    Box::new(Holder { pc: 0, mb: 4 }),
                );
            }
            run_for(&mut w, &mut sim, Nanos::from_millis(10));
            (w, sim, s)
        },
        |(mut w, mut sim, s)| {
            s.checkpoint_and_wait(&mut w, &mut sim, 10_000_000)
                .expect_ckpt()
        },
    );
}

fn main() {
    println!("# host-time micro-benchmarks (hand-rolled harness)");
    let mut recorded = Vec::new();
    bench_szip(&mut recorded);
    bench_crc(&mut recorded);
    bench_image_write();
    bench_full_checkpoint_cycle();
    if !recorded.is_empty() {
        let pairs: Vec<(&str, f64)> = recorded.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        dmtcp_bench::merge_flat_json(HOST_JSON, &pairs).expect("write results/BENCH_host.json");
        println!("# recorded {} keys in results/BENCH_host.json", pairs.len());
    }
}
