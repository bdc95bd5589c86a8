//! Raw event-loop throughput: the timer-wheel engine vs the reference heap.
//!
//! Everything this repo measures rides on `simkit`'s event queue, so its
//! events-per-second is the hard ceiling on every sweep (ROADMAP item 5:
//! `bench/scale` topped out at N=2048 with the `BinaryHeap` engine). This
//! bench runs three queue-shaped workloads through *both* engines in one
//! process and reports wall-clock events/sec:
//!
//! * `timer` — pure-timer churn: 2^20 pending keyed timers (the N=16384
//!   sweep's worst case: tens of timers per process), each fire re-arming
//!   at a pseudorandom horizon (⅞ sub-262 µs, ⅛ milliseconds). Zero
//!   allocation per event; isolates queue mechanics. At this population
//!   the heap pays ~20 cache-missing sift levels per operation while the
//!   wheel stays O(1). This is the workload the ISSUE-9 acceptance bar
//!   applies to: the wheel must beat the heap ≥ 5×, asserted below.
//! * `ring` — 1024 token rings passing boxed-closure messages with
//!   microsecond hop latencies; the allocation-heavy message-passing shape.
//! * `mixed` — fault-matrix-shaped: per-"process" 1 µs quantum re-arms
//!   (keyed) plus periodic same-instant barrier storms (boxed `soon`) and
//!   seconds-away checkpoint timers crossing into the overflow tier.
//!
//! Each workload folds `(now, key)` of every delivery into a running hash;
//! the wheel and heap hashes must match exactly, so the speedup numbers are
//! only ever produced by order-identical executions.
//!
//! Regenerate with: `cargo run --release -p dmtcp-bench --bin sim`
//! Pass `--smoke` for the fast variant tier-1 runs. Writes
//! `results/sim.jsonl` and the flat `results/BENCH_sim.json` consumed by
//! the CI bench-regression gate (`_per_sec` and `_ratio` keys gate
//! "higher is better").

use dmtcp_bench::write_jsonl_lines;
use obs::json::JsonWriter;
use simkit::{mix2, splitmix64, Nanos, RunOutcome, Sim};

/// The world is just a running hash of every delivery.
type W = u64;

const TIMER_POP: u64 = 1 << 20;
const RINGS: u64 = 1_024;
const PROCS: u64 = 4_096;

// ---------------------------------------------------------------------
// Workload event bodies. Behaviour derives only from (key, now), so both
// engines replay the identical schedule as long as delivery order matches
// — which the hash check proves.
// ---------------------------------------------------------------------

fn timer_fire(w: &mut W, sim: &mut Sim<W>, key: u64) {
    *w = mix2(*w ^ sim.now().0, key);
    let mut s = key ^ sim.now().0;
    let r = splitmix64(&mut s);
    let delta = if r.is_multiple_of(8) {
        1_000_000 + r % 49_000_000 // occasional millisecond-scale sleep
    } else {
        1_024 + r % 261_120 // level-0 horizon churn
    };
    sim.at_keyed(sim.now() + Nanos(delta), splitmix64(&mut s), timer_fire);
}

fn timer_setup(sim: &mut Sim<W>) {
    let mut s = 0xC0FFEE;
    for _ in 0..TIMER_POP {
        let key = splitmix64(&mut s);
        sim.at_keyed(Nanos(1 + key % 262_144), key, timer_fire);
    }
}

fn ring_hop(w: &mut W, sim: &mut Sim<W>, ring: u64, n: u64) {
    *w = mix2(*w ^ sim.now().0, ring ^ n);
    let mut s = ring.wrapping_mul(0x2545F491) ^ n;
    let delta = 500 + splitmix64(&mut s) % 20_000; // 0.5–20 µs hops
    sim.after(Nanos(delta), move |w: &mut W, sim| {
        ring_hop(w, sim, ring, n + 1)
    });
}

fn ring_setup(sim: &mut Sim<W>) {
    for ring in 0..RINGS {
        sim.at(Nanos(1 + ring), move |w: &mut W, sim| {
            ring_hop(w, sim, ring, 0)
        });
    }
}

fn quantum(w: &mut W, sim: &mut Sim<W>, key: u64) {
    *w = mix2(*w ^ sim.now().0, key);
    let pid = key >> 32;
    let count = key & 0xFFFF_FFFF;
    if count.is_multiple_of(509) {
        // Barrier release: a same-instant storm of boxed events.
        for i in 0..8u64 {
            sim.soon(move |w: &mut W, sim| *w = mix2(*w ^ sim.now().0, i));
        }
    }
    if count.is_multiple_of(4_093) {
        // Checkpoint-interval timer, seconds away — overflow-tier traffic.
        sim.at(sim.now() + Nanos(2_000_000_000), move |w: &mut W, sim| {
            *w = mix2(*w ^ sim.now().0, pid)
        });
    }
    sim.at_keyed(sim.now() + Nanos(1_000), (pid << 32) | (count + 1), quantum);
}

fn mixed_setup(sim: &mut Sim<W>) {
    for pid in 0..PROCS {
        sim.at_keyed(Nanos(1 + pid % 1_000), pid << 32, quantum);
    }
}

// ---------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------

struct Meas {
    events: u64,
    secs: f64,
    hash: u64,
}

fn run_once(mk: fn() -> Sim<W>, setup: fn(&mut Sim<W>), events: u64) -> Meas {
    let mut sim = mk();
    let mut w: W = 0x9E37_79B9_7F4A_7C15;
    setup(&mut sim);
    let t0 = std::time::Instant::now();
    let out = sim.run_budgeted(&mut w, events);
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(
        out,
        RunOutcome::BudgetExhausted,
        "self-sustaining workload drained early"
    );
    Meas {
        events: sim.events_fired(),
        secs,
        hash: mix2(w, sim.now().0),
    }
}

/// Best-of-`reps` wall clock; the delivery hash must be identical across
/// reps (and later across engines) or the measurement is meaningless.
fn run_workload(mk: fn() -> Sim<W>, setup: fn(&mut Sim<W>), events: u64, reps: usize) -> Meas {
    let mut best = run_once(mk, setup, events);
    for _ in 1..reps {
        let m = run_once(mk, setup, events);
        assert_eq!(m.hash, best.hash, "non-deterministic workload");
        if m.secs < best.secs {
            best = m;
        }
    }
    best
}

struct Ab {
    name: &'static str,
    wheel: Meas,
    heap: Meas,
}

impl Ab {
    fn wheel_eps(&self) -> f64 {
        self.wheel.events as f64 / self.wheel.secs
    }
    fn heap_eps(&self) -> f64 {
        self.heap.events as f64 / self.heap.secs
    }
    fn speedup(&self) -> f64 {
        self.wheel_eps() / self.heap_eps()
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let events: u64 = if smoke { 1_200_000 } else { 8_000_000 };
    let reps = if smoke { 2 } else { dmtcp_bench::reps().max(3) };
    println!("# sim: event-loop throughput, timer wheel vs reference heap");
    println!("# {events} events per run, best of {reps} reps per engine\n");

    type Setup = fn(&mut Sim<W>);
    let workloads: [(&'static str, Setup); 3] = [
        ("timer", timer_setup),
        ("ring", ring_setup),
        ("mixed", mixed_setup),
    ];

    let mut results = Vec::new();
    for (name, setup) in workloads {
        let wheel = run_workload(Sim::new, setup, events, reps);
        let heap = run_workload(Sim::new_reference, setup, events, reps);
        assert_eq!(
            wheel.hash, heap.hash,
            "{name}: wheel and heap fired different schedules"
        );
        results.push(Ab { name, wheel, heap });
    }

    println!("  workload       wheel ev/s        heap ev/s    speedup");
    let mut lines = Vec::new();
    for ab in &results {
        println!(
            "  {:<8}  {:>13.0}    {:>13.0}    {:>6.2}x",
            ab.name,
            ab.wheel_eps(),
            ab.heap_eps(),
            ab.speedup()
        );
        for (engine, m, eps) in [
            ("wheel", &ab.wheel, ab.wheel_eps()),
            ("heap", &ab.heap, ab.heap_eps()),
        ] {
            let mut j = JsonWriter::new();
            j.obj_begin()
                .field_str("workload", ab.name)
                .field_str("engine", engine)
                .field_u64("events", m.events)
                .field_f64("secs", m.secs)
                .field_f64("events_per_sec", eps)
                .obj_end();
            lines.push(j.into_string());
        }
    }
    match write_jsonl_lines("sim", lines) {
        Ok(p) => println!("# wrote {p}"),
        Err(e) => eprintln!("# jsonl write failed: {e}"),
    }

    // Flat key/value file for the CI bench-regression gate. `_per_sec` and
    // `_ratio` keys gate "higher is better" (see scripts/bench_gate.sh).
    let mut out = String::from("{\n");
    for ab in &results {
        out.push_str(&format!(
            "  \"sim_{}_events_per_sec\": {:.6},\n",
            ab.name,
            ab.wheel_eps()
        ));
        out.push_str(&format!(
            "  \"sim_{}_speedup_ratio\": {:.6},\n",
            ab.name,
            ab.speedup()
        ));
    }
    out.truncate(out.len() - 2); // drop trailing ",\n"
    out.push_str("\n}\n");
    if let Err(e) = std::fs::write("results/BENCH_sim.json", &out) {
        eprintln!("# BENCH_sim.json write failed: {e}");
    } else {
        println!("# wrote results/BENCH_sim.json");
    }

    // Acceptance bar (ISSUE 9): the wheel must beat the reference heap at
    // least 5x on pure-timer churn, the workload the overhaul targets.
    let timer = results.iter().find(|ab| ab.name == "timer").expect("ran");
    if timer.speedup() < 5.0 {
        eprintln!(
            "FAIL: timer-wheel speedup {:.2}x < 5x on pure-timer churn \
             ({:.0} vs {:.0} events/sec)",
            timer.speedup(),
            timer.wheel_eps(),
            timer.heap_eps()
        );
        std::process::exit(1);
    }
    println!(
        "\nok: {:.1}x wheel speedup on pure-timer churn (>= 5x), \
         identical delivery hashes on all workloads",
        timer.speedup()
    );
}
