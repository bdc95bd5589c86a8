//! Order suite: the event queue fires in `(time, schedule order)`.
//!
//! Replay journals, the fault matrix and every committed figure depend on
//! one total order of firings: an event fires after every event scheduled
//! for an earlier instant, and after every event scheduled before it for
//! the same instant. These tests run randomized schedules — same-instant
//! storms, `soon` chains, timers from nanoseconds to minutes out, halts,
//! budgeted and deadline-bounded runs — and check each fired log against a
//! model: the list of scheduled `(at, schedule index)` pairs, in schedule
//! order, stably sorted by `at`.
//!
//! Child events derive their behaviour purely from their own 64-bit id (via
//! `splitmix64`), never from shared RNG state, so a scenario depends only on
//! the order in which events fire — which is exactly the property under
//! test.

use simkit::{splitmix64, DetRng, Nanos, RunOutcome, Sim};

/// Every scheduling call and every firing, by schedule index.
#[derive(Default)]
struct World {
    /// `(at, id)` per scheduling call, in schedule order.
    scheduled: Vec<(u64, u64)>,
    /// `(now, schedule index)` per firing, in firing order.
    fired: Vec<(u64, u64)>,
}

impl World {
    /// The model: the first `n` entries of the scheduled `(at, index)`
    /// pairs after a stable sort by `at`.
    fn model(&self, n: usize) -> Vec<(u64, u64)> {
        let mut order: Vec<(u64, u64)> = (self.scheduled.iter().enumerate())
            .map(|(i, &(at, _))| (at, i as u64))
            .collect();
        order.sort_by_key(|&(at, _)| at);
        order.truncate(n);
        order
    }

    /// Check everything fired so far against the model.
    fn check(&self, what: &str) {
        assert_eq!(
            self.fired,
            self.model(self.fired.len()),
            "{what}: firing order is not (at, schedule index)"
        );
    }
}

const CASES: u64 = 48;
/// Event-id layout: generation in the top byte, entropy below.
const ID_MASK: u64 = 0x00FF_FFFF_FFFF_FFFF;
const MAX_GEN: u64 = 3;

/// Map raw entropy to a delay: same-instant, sub-microsecond, up to
/// ~262 µs, ~67 ms, ~17 s, and minutes.
fn delta_from(r: u64) -> u64 {
    let mut s = r;
    let m = splitmix64(&mut s);
    match r % 6 {
        0 => 0,
        1 => m % 1_000,
        2 => m % 262_144,
        3 => m % 67_000_000,
        4 => m % 17_000_000_000,
        _ => m % 300_000_000_000,
    }
}

/// Schedule event `id` at `at` — as a keyed event, a boxed closure, or
/// (when `at` is now) through `soon`, chosen by `how`.
fn schedule(w: &mut World, sim: &mut Sim<World>, at: Nanos, id: u64, how: u64) {
    let index = w.scheduled.len() as u64;
    w.scheduled.push((at.0, id));
    match how % 3 {
        0 => sim.at_keyed(at, index, fire),
        1 if at == sim.now() => sim.soon(move |w: &mut World, sim| fire(w, sim, index)),
        _ => sim.at(at, move |w: &mut World, sim| fire(w, sim, index)),
    }
}

/// The one event body. Logs itself, then (driven only by its id) spawns up
/// to three children at mixed horizons, occasionally halting the loop.
fn fire(w: &mut World, sim: &mut Sim<World>, index: u64) {
    w.fired.push((sim.now().0, index));
    let id = w.scheduled[index as usize].1;
    let generation = id >> 56;
    let mut state = id;
    let r = splitmix64(&mut state);
    if r.is_multiple_of(97) {
        sim.halt();
    }
    if generation >= MAX_GEN {
        return;
    }
    for _ in 0..r % 4 {
        let dr = splitmix64(&mut state);
        let child = ((generation + 1) << 56) | (splitmix64(&mut state) & ID_MASK);
        let at = sim.now() + Nanos(delta_from(dr));
        schedule(w, sim, at, child, dr >> 8);
    }
}

/// Run one randomized scenario, checking the fired log against the model
/// after every drain.
fn scenario(seed: u64) {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut sim = Sim::new();
    let mut w = World::default();
    for wave in 0..rng.range(2, 5) {
        // Inject a wave of top-level events, with deliberate same-instant
        // storms (several seq-adjacent events sharing one instant).
        for _ in 0..rng.range(1, 40) {
            let at = Nanos(sim.now().0 + delta_from(rng.next_u64()));
            let copies = if rng.chance(0.3) { rng.range(2, 6) } else { 1 };
            for _ in 0..copies {
                let id = rng.next_u64() & ID_MASK;
                let how = rng.next_u64();
                schedule(&mut w, &mut sim, at, id, how);
            }
        }
        // Drain it one of three ways, so deadlines and budgets cut into
        // same-instant batches at arbitrary points.
        let before = sim.events_fired();
        match rng.below(3) {
            0 => {
                let deadline = Nanos(sim.now().0 + delta_from(rng.next_u64()));
                sim.run_until(&mut w, deadline);
                assert!(w.fired.iter().all(|&(at, _)| at <= deadline.0));
            }
            1 => {
                let budget = rng.range(1, 500);
                let _: RunOutcome = sim.run_budgeted(&mut w, budget);
                assert!(sim.events_fired() - before <= budget);
            }
            _ => sim.run(&mut w),
        }
        assert_eq!(sim.events_fired(), w.fired.len() as u64);
        assert_eq!(
            sim.pending(),
            w.scheduled.len() - w.fired.len(),
            "seed {seed:#x} wave {wave}: pending count"
        );
        w.check(&format!("seed {seed:#x} wave {wave}"));
    }
    while sim.pending() > 0 {
        // A halt leaves events queued; resume.
        sim.run(&mut w);
    }
    assert_eq!(
        w.fired.len(),
        w.scheduled.len(),
        "seed {seed:#x}: lost events"
    );
    w.check(&format!("seed {seed:#x} final"));
    let last = w.fired.last().map_or(0, |&(at, _)| at);
    assert_eq!(sim.now().0, last);
}

/// The headline property: across randomized mixed-horizon schedules with
/// halts and budgeted/bounded runs, every prefix of the fired log is the
/// model's.
#[test]
fn random_schedules_fire_in_time_then_schedule_order() {
    let mut seeds = DetRng::seed_from_u64(0xD1FF_E7E1);
    for _ in 0..CASES {
        scenario(seeds.next_u64());
    }
}

/// A re-arming timer, the runaway-watchdog shape: 2 001 firings at exact
/// 70 µs steps.
#[test]
fn rearming_timer_fires_at_each_step() {
    fn rearm(w: &mut Vec<u64>, sim: &mut Sim<Vec<u64>>, count: u64) {
        w.push(sim.now().0);
        if count > 0 {
            sim.at_keyed(sim.now() + Nanos(70_000), count - 1, rearm);
        }
    }
    let mut sim = Sim::new();
    let mut log = Vec::new();
    sim.at_keyed(Nanos::ZERO, 2_000, rearm);
    sim.run(&mut log);
    assert_eq!(sim.events_fired(), 2_001);
    assert_eq!(sim.now().0, 2_000 * 70_000);
    assert_eq!(log, (0..=2_000).map(|i| i * 70_000).collect::<Vec<_>>());
}
