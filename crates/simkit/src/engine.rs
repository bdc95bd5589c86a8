//! The event queue.
//!
//! [`Sim<W>`] is a priority queue of `(time, seq, event)` entries, generic
//! over the world type `W` so that this crate stays independent of the
//! operating-system model built on top of it. All simulation state lives in
//! the world; events are one-shot closures (or zero-allocation keyed
//! function pointers, see [`Sim::at_keyed`]). Two events scheduled for the
//! same instant fire in scheduling order (FIFO), which makes runs fully
//! deterministic.
//!
//! The queue is one `BinaryHeap` keyed on `(at, seq)`: `seq` is the global
//! schedule counter, so the order is total and every run, replay and
//! recorded journal sees the same sequence of firings.
//! `tests/diff_engine.rs` checks that sequence against a stable sort of the
//! scheduled `(at, schedule index)` pairs.

use crate::time::Nanos;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scheduled one-shot boxed event closure.
type EventFn<W> = Box<dyn FnOnce(&mut W, &mut Sim<W>)>;

/// What an entry does when it fires.
enum Payload<W> {
    /// A boxed closure — the general case.
    Call(EventFn<W>),
    /// A plain function pointer plus a `u64` key — the zero-allocation path
    /// for high-frequency periodic events (the oskit thread dispatcher packs
    /// `(pid, tid)` into the key). Carrying the handler in the entry keeps
    /// the engine free of registration state.
    Keyed(fn(&mut W, &mut Sim<W>, u64), u64),
}

/// One queue entry: absolute firing time, global schedule order, payload.
struct Entry<W> {
    at: Nanos,
    seq: u64,
    payload: Payload<W>,
}

impl<W> Entry<W> {
    /// `(at, seq)` packed into one `u128`: a single comparison orders two
    /// entries.
    fn key(&self) -> u128 {
        ((self.at.0 as u128) << 64) | self.seq as u128
    }
}

// Reversed, so the max-heap `BinaryHeap` pops the earliest `(at, seq)`.
impl<W> PartialEq for Entry<W> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<W> Eq for Entry<W> {}
impl<W> PartialOrd for Entry<W> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<W> Ord for Entry<W> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

/// The discrete-event simulator core.
///
/// ```
/// use simkit::{Sim, Nanos};
///
/// let mut sim: Sim<Vec<u64>> = Sim::new();
/// let mut world = Vec::new();
/// sim.after(Nanos::from_secs(2), |w: &mut Vec<u64>, _| w.push(2));
/// sim.after(Nanos::from_secs(1), |w: &mut Vec<u64>, sim| {
///     w.push(1);
///     sim.after(Nanos::from_secs(5), |w: &mut Vec<u64>, _| w.push(6));
/// });
/// sim.run(&mut world);
/// assert_eq!(world, vec![1, 2, 6]);
/// assert_eq!(sim.now(), Nanos::from_secs(6));
/// ```
pub struct Sim<W> {
    now: Nanos,
    seq: u64,
    fired: u64,
    halted: bool,
    queue: BinaryHeap<Entry<W>>,
}

impl<W> Default for Sim<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> Sim<W> {
    /// An empty simulator positioned at `t = 0`.
    pub fn new() -> Self {
        Sim {
            now: Nanos::ZERO,
            seq: 0,
            fired: 0,
            halted: false,
            queue: BinaryHeap::new(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Number of events fired so far (diagnostics / runaway detection).
    pub fn events_fired(&self) -> u64 {
        self.fired
    }

    /// Number of events currently pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedule `f` at absolute time `at`. Scheduling into the past is a
    /// logic error and panics (it would silently reorder causality).
    pub fn at(&mut self, at: Nanos, f: impl FnOnce(&mut W, &mut Sim<W>) + 'static) {
        self.push(at, Payload::Call(Box::new(f)));
    }

    /// Schedule `f` after a delay of `dt` from the current time.
    pub fn after(&mut self, dt: Nanos, f: impl FnOnce(&mut W, &mut Sim<W>) + 'static) {
        self.at(self.now + dt, f);
    }

    /// Schedule `f` to run "immediately" (after the current event, same time).
    pub fn soon(&mut self, f: impl FnOnce(&mut W, &mut Sim<W>) + 'static) {
        self.at(self.now, f);
    }

    /// Schedule `handler(world, sim, key)` at absolute time `at` without
    /// allocating: the entry stores a plain function pointer and a `u64`
    /// payload instead of a boxed closure. High-frequency periodic events
    /// (the oskit thread dispatcher, pure-timer benches) use this so the
    /// steady state performs no per-event allocation at all. Ordering is
    /// identical to [`Sim::at`] — keyed and boxed events share one
    /// `(time, seq)` sequence.
    pub fn at_keyed(&mut self, at: Nanos, key: u64, handler: fn(&mut W, &mut Sim<W>, u64)) {
        self.push(at, Payload::Keyed(handler, key));
    }

    fn push(&mut self, at: Nanos, payload: Payload<W>) {
        assert!(
            at >= self.now,
            "event scheduled in the past: {at:?} < now {:?}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Entry { at, seq, payload });
    }

    /// Stop the run loop after the current event completes.
    pub fn halt(&mut self) {
        self.halted = true;
    }

    /// Fire a single event if one is pending. Returns `false` when the queue
    /// was empty.
    pub fn step(&mut self, world: &mut W) -> bool {
        let Some(entry) = self.queue.pop() else {
            return false;
        };
        debug_assert!(entry.at >= self.now);
        self.now = entry.at;
        self.fired += 1;
        match entry.payload {
            Payload::Call(f) => f(world, self),
            Payload::Keyed(f, key) => f(world, self, key),
        }
        true
    }

    /// Run until the queue drains or [`Sim::halt`] is called.
    pub fn run(&mut self, world: &mut W) {
        self.halted = false;
        while !self.halted && self.step(world) {}
    }

    /// Run until the queue drains, `halt` is called, or virtual time would
    /// pass `deadline`; events scheduled after the deadline stay queued.
    pub fn run_until(&mut self, world: &mut W, deadline: Nanos) {
        self.halted = false;
        while !self.halted {
            match self.queue.peek().map(|e| e.at) {
                Some(at) if at <= deadline => {
                    self.step(world);
                }
                _ => break,
            }
        }
    }

    /// Run with a budget on the number of events, as a watchdog against
    /// non-terminating protocols in tests. Returns `true` if the queue
    /// drained within the budget.
    pub fn run_bounded(&mut self, world: &mut W, max_events: u64) -> bool {
        matches!(
            self.run_budgeted(world, max_events),
            RunOutcome::Quiescent | RunOutcome::Halted
        )
    }

    /// Like [`Sim::run_bounded`], but reports *why* the loop stopped so
    /// callers can distinguish "budget exhausted" (raise the budget) from a
    /// genuinely drained queue or an explicit halt.
    ///
    /// The budget is charged per event, including within a same-instant
    /// batch: a budget expiring in the middle of one stops after exactly
    /// `max_events` events, and a later run call resumes at the very next
    /// `(time, seq)` entry.
    pub fn run_budgeted(&mut self, world: &mut W, max_events: u64) -> RunOutcome {
        self.halted = false;
        let start = self.fired;
        loop {
            if self.halted {
                return RunOutcome::Halted;
            }
            if self.fired - start >= max_events {
                return RunOutcome::BudgetExhausted;
            }
            if !self.step(world) {
                return RunOutcome::Quiescent;
            }
        }
    }
}

/// Why a budgeted run loop stopped (see [`Sim::run_budgeted`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained completely.
    Quiescent,
    /// [`Sim::halt`] was called by an event.
    Halted,
    /// The event budget ran out with events still pending — either a
    /// livelock/deadlock in the model or a budget set too low.
    BudgetExhausted,
}

#[cfg(test)]
mod tests {
    use super::*;

    type Log = Vec<u32>;

    #[test]
    fn fifo_within_same_instant() {
        let mut sim: Sim<Log> = Sim::new();
        let mut w = Vec::new();
        for i in 0..10u32 {
            sim.at(Nanos::from_secs(1), move |w: &mut Log, _| w.push(i));
        }
        sim.run(&mut w);
        assert_eq!(w, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn time_ordering_dominates_insertion_order() {
        let mut sim: Sim<Log> = Sim::new();
        let mut w = Vec::new();
        sim.at(Nanos::from_secs(3), |w: &mut Log, _| w.push(3));
        sim.at(Nanos::from_secs(1), |w: &mut Log, _| w.push(1));
        sim.at(Nanos::from_secs(2), |w: &mut Log, _| w.push(2));
        sim.run(&mut w);
        assert_eq!(w, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut sim: Sim<()> = Sim::new();
        sim.at(Nanos::from_secs(5), |_, sim| {
            sim.at(Nanos::from_secs(1), |_, _| {});
        });
        sim.run(&mut ());
    }

    #[test]
    fn run_until_leaves_future_events_queued() {
        let mut sim: Sim<Log> = Sim::new();
        let mut w = Vec::new();
        sim.at(Nanos::from_secs(1), |w: &mut Log, _| w.push(1));
        sim.at(Nanos::from_secs(10), |w: &mut Log, _| w.push(10));
        sim.run_until(&mut w, Nanos::from_secs(5));
        assert_eq!(w, vec![1]);
        assert_eq!(sim.pending(), 1);
        sim.run(&mut w);
        assert_eq!(w, vec![1, 10]);
    }

    #[test]
    fn run_until_then_earlier_insert_fires_in_order() {
        // An event scheduled after a deadline-bounded run, earlier than one
        // still queued, fires first; a later one at the same instant as the
        // queued event fires after it.
        let mut sim: Sim<Log> = Sim::new();
        let mut w = Vec::new();
        sim.at(Nanos::from_millis(50), |w: &mut Log, _| w.push(50));
        sim.run_until(&mut w, Nanos::from_millis(1));
        assert!(w.is_empty());
        sim.at(Nanos::from_millis(2), |w: &mut Log, _| w.push(2));
        sim.at(Nanos::from_millis(50), |w: &mut Log, _| w.push(51));
        sim.run(&mut w);
        assert_eq!(w, vec![2, 50, 51]);
    }

    #[test]
    fn halt_stops_the_loop() {
        let mut sim: Sim<u32> = Sim::new();
        let mut w = 0u32;
        sim.at(Nanos::from_secs(1), |w: &mut u32, sim| {
            *w += 1;
            sim.halt();
        });
        sim.at(Nanos::from_secs(2), |w: &mut u32, _| *w += 100);
        sim.run(&mut w);
        assert_eq!(w, 1);
        // Resuming picks the remaining event back up.
        sim.run(&mut w);
        assert_eq!(w, 101);
    }

    #[test]
    fn halt_mid_batch_resumes_at_next_seq() {
        // Ten events share one instant; the third halts. The remaining
        // seven must survive in the queue and fire on resume, in order.
        let mut sim: Sim<Log> = Sim::new();
        let mut w = Vec::new();
        for i in 0..10u32 {
            sim.at(Nanos::from_secs(1), move |w: &mut Log, sim| {
                w.push(i);
                if i == 2 {
                    sim.halt();
                }
            });
        }
        sim.run(&mut w);
        assert_eq!(w, vec![0, 1, 2]);
        assert_eq!(sim.pending(), 7);
        sim.run(&mut w);
        assert_eq!(w, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn keyed_events_interleave_with_closures() {
        fn bump(w: &mut Log, _: &mut Sim<Log>, key: u64) {
            w.push(key as u32);
        }
        let mut sim: Sim<Log> = Sim::new();
        let mut w = Vec::new();
        sim.at_keyed(Nanos::from_secs(1), 10, bump);
        sim.at(Nanos::from_secs(1), |w: &mut Log, _| w.push(11));
        sim.at_keyed(Nanos::from_secs(1), 12, bump);
        sim.run(&mut w);
        assert_eq!(w, vec![10, 11, 12]);
    }

    #[test]
    fn run_budgeted_reports_stop_reason() {
        fn rearm(_: &mut (), sim: &mut Sim<()>) {
            sim.after(Nanos::from_micros(1), rearm);
        }
        let mut sim: Sim<()> = Sim::new();
        sim.soon(rearm);
        assert_eq!(sim.run_budgeted(&mut (), 100), RunOutcome::BudgetExhausted);

        let mut quiet: Sim<u32> = Sim::new();
        let mut w = 0u32;
        quiet.at(Nanos::from_secs(1), |w: &mut u32, _| *w += 1);
        assert_eq!(quiet.run_budgeted(&mut w, 100), RunOutcome::Quiescent);

        let mut halting: Sim<u32> = Sim::new();
        halting.at(Nanos::from_secs(1), |_: &mut u32, sim| sim.halt());
        assert_eq!(halting.run_budgeted(&mut w, 100), RunOutcome::Halted);
    }

    #[test]
    fn budget_expiring_mid_batch_stops_at_the_budgeted_event() {
        // A same-instant storm of 20 events with a budget of 7 fires exactly
        // events 0..7, and the next run resumes at event 7.
        let mut sim: Sim<Log> = Sim::new();
        let mut w = Vec::new();
        for i in 0..20u32 {
            sim.at(Nanos::from_millis(3), move |w: &mut Log, _| w.push(i));
        }
        assert_eq!(sim.run_budgeted(&mut w, 7), RunOutcome::BudgetExhausted);
        assert_eq!(sim.events_fired(), 7);
        assert_eq!(w, (0..7).collect::<Vec<_>>());
        assert_eq!(sim.run_budgeted(&mut w, 100), RunOutcome::Quiescent);
        assert_eq!(w, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn run_bounded_detects_runaway() {
        fn rearm(_: &mut (), sim: &mut Sim<()>) {
            sim.after(Nanos::from_micros(1), rearm);
        }
        let mut sim: Sim<()> = Sim::new();
        sim.soon(rearm);
        assert!(!sim.run_bounded(&mut (), 1000));
        assert_eq!(sim.events_fired(), 1000);
    }

    #[test]
    fn far_future_timers_fire_in_time_order() {
        // Timers from one second to ten minutes out.
        let mut sim: Sim<Log> = Sim::new();
        let mut w = Vec::new();
        for (i, secs) in [120u64, 1, 600, 30, 17, 18].into_iter().enumerate() {
            sim.at(Nanos::from_secs(secs), move |w: &mut Log, _| {
                w.push(i as u32)
            });
        }
        sim.run(&mut w);
        assert_eq!(w, vec![1, 4, 5, 3, 0, 2]);
        assert_eq!(sim.now(), Nanos::from_secs(600));
    }
}
