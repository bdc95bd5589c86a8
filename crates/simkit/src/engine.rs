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
//! Two queue implementations sit behind the same `Sim` API:
//!
//! * the **timer wheel** ([`crate::wheel`]) — the default. Hierarchical
//!   near-future wheels with O(1) insert and batched same-tick draining,
//!   plus a heap tier for far timers. This is the raw-speed hot path every
//!   bench and experiment runs on.
//! * the **reference heap** — the original single `BinaryHeap`, retained as
//!   the executable specification of event order. `Sim::new_reference()`
//!   builds one; the differential suite in `tests/diff_engine.rs` holds the
//!   wheel to bit-identical `(time, seq)` firing sequences against it, and
//!   `bench/sim` measures the speedup between the two in one binary.

use crate::time::Nanos;
use crate::wheel::{Entry, Payload, Wheel};
use std::collections::BinaryHeap;

/// The two interchangeable queue implementations. Which one is active never
/// changes observable behaviour — only speed; see the module docs.
enum Queue<W> {
    Wheel(Wheel<W>),
    Heap(BinaryHeap<Entry<W>>),
}

impl<W> Queue<W> {
    fn push(&mut self, entry: Entry<W>) {
        match self {
            Queue::Wheel(q) => q.push(entry),
            Queue::Heap(q) => q.push(entry),
        }
    }

    fn pop(&mut self) -> Option<Entry<W>> {
        match self {
            Queue::Wheel(q) => q.pop(),
            Queue::Heap(q) => q.pop(),
        }
    }

    fn peek_at(&mut self) -> Option<Nanos> {
        match self {
            Queue::Wheel(q) => q.peek_at(),
            Queue::Heap(q) => q.peek().map(|e| e.at),
        }
    }

    fn len(&self) -> usize {
        match self {
            Queue::Wheel(q) => q.len(),
            Queue::Heap(q) => q.len(),
        }
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
    queue: Queue<W>,
}

impl<W> Default for Sim<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> Sim<W> {
    /// An empty simulator positioned at `t = 0`, on the timer-wheel engine.
    pub fn new() -> Self {
        Self::with_queue(Queue::Wheel(Wheel::new()))
    }

    /// An empty simulator on the reference `BinaryHeap` queue — the
    /// executable specification of event order. Used by the differential
    /// suite and the `bench/sim` A/B measurement; everything else wants
    /// [`Sim::new`].
    pub fn new_reference() -> Self {
        Self::with_queue(Queue::Heap(BinaryHeap::new()))
    }

    fn with_queue(queue: Queue<W>) -> Self {
        Sim {
            now: Nanos::ZERO,
            seq: 0,
            fired: 0,
            halted: false,
            queue,
        }
    }

    /// Which queue implementation this simulator runs on (for bench and
    /// test labels): `"wheel"` or `"heap"`.
    pub fn engine_name(&self) -> &'static str {
        match self.queue {
            Queue::Wheel(_) => "wheel",
            Queue::Heap(_) => "heap",
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
            match self.queue.peek_at() {
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
    /// The budget is charged per event, including within a same-tick batch:
    /// a budget expiring in the middle of a batch stops after exactly
    /// `max_events` events on either queue implementation, and a later run
    /// call resumes at the very next `(time, seq)` entry.
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

    /// Every test body runs against both queue implementations.
    fn both(case: impl Fn(fn() -> Sim<Vec<u32>>)) {
        case(Sim::new);
        case(Sim::new_reference);
    }

    #[test]
    fn fifo_within_same_instant() {
        both(|mk| {
            let mut sim = mk();
            let mut w = Vec::new();
            for i in 0..10u32 {
                sim.at(Nanos::from_secs(1), move |w: &mut Vec<u32>, _| w.push(i));
            }
            sim.run(&mut w);
            assert_eq!(w, (0..10).collect::<Vec<_>>());
        });
    }

    #[test]
    fn time_ordering_dominates_insertion_order() {
        both(|mk| {
            let mut sim = mk();
            let mut w = Vec::new();
            sim.at(Nanos::from_secs(3), |w: &mut Vec<u32>, _| w.push(3));
            sim.at(Nanos::from_secs(1), |w: &mut Vec<u32>, _| w.push(1));
            sim.at(Nanos::from_secs(2), |w: &mut Vec<u32>, _| w.push(2));
            sim.run(&mut w);
            assert_eq!(w, vec![1, 2, 3]);
        });
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
        both(|mk| {
            let mut sim = mk();
            let mut w = Vec::new();
            sim.at(Nanos::from_secs(1), |w: &mut Vec<u32>, _| w.push(1));
            sim.at(Nanos::from_secs(10), |w: &mut Vec<u32>, _| w.push(10));
            sim.run_until(&mut w, Nanos::from_secs(5));
            assert_eq!(w, vec![1]);
            assert_eq!(sim.pending(), 1);
            sim.run(&mut w);
            assert_eq!(w, vec![1, 10]);
        });
    }

    #[test]
    fn run_until_then_earlier_insert_fires_in_order() {
        // The wheel drains eagerly into its ready buffer; an event scheduled
        // *behind* the drained cursor afterwards must still fire in global
        // (time, seq) order.
        both(|mk| {
            let mut sim = mk();
            let mut w = Vec::new();
            sim.at(Nanos::from_millis(50), |w: &mut Vec<u32>, _| w.push(50));
            sim.run_until(&mut w, Nanos::from_millis(1));
            assert!(w.is_empty());
            sim.at(Nanos::from_millis(2), |w: &mut Vec<u32>, _| w.push(2));
            sim.at(Nanos::from_millis(50), |w: &mut Vec<u32>, _| w.push(51));
            sim.run(&mut w);
            assert_eq!(w, vec![2, 50, 51]);
        });
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
        both(|mk| {
            let mut sim = mk();
            let mut w = Vec::new();
            for i in 0..10u32 {
                sim.at(Nanos::from_secs(1), move |w: &mut Vec<u32>, sim| {
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
        });
    }

    #[test]
    fn keyed_events_interleave_with_closures() {
        fn bump(w: &mut Vec<u32>, _: &mut Sim<Vec<u32>>, key: u64) {
            w.push(key as u32);
        }
        both(|mk| {
            let mut sim = mk();
            let mut w = Vec::new();
            sim.at_keyed(Nanos::from_secs(1), 10, bump);
            sim.at(Nanos::from_secs(1), |w: &mut Vec<u32>, _| w.push(11));
            sim.at_keyed(Nanos::from_secs(1), 12, bump);
            sim.run(&mut w);
            assert_eq!(w, vec![10, 11, 12]);
        });
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
    fn budget_expiring_mid_batch_stops_at_same_event_on_both_engines() {
        // A same-tick storm of 20 events with a budget of 7 must fire
        // exactly events 0..7 — identically on wheel and heap — and resume
        // deterministically.
        let run = |mk: fn() -> Sim<Vec<u32>>| {
            let mut sim = mk();
            let mut w = Vec::new();
            for i in 0..20u32 {
                sim.at(Nanos::from_millis(3), move |w: &mut Vec<u32>, _| w.push(i));
            }
            assert_eq!(sim.run_budgeted(&mut w, 7), RunOutcome::BudgetExhausted);
            assert_eq!(sim.events_fired(), 7);
            let mid = w.clone();
            assert_eq!(sim.run_budgeted(&mut w, 100), RunOutcome::Quiescent);
            (mid, w)
        };
        assert_eq!(run(Sim::new), run(Sim::new_reference));
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
    fn far_future_timers_cross_the_wheel_horizon() {
        // Seconds-to-minutes timers exercise level 2 and the overflow tier.
        both(|mk| {
            let mut sim = mk();
            let mut w = Vec::new();
            for (i, secs) in [120u64, 1, 600, 30, 17, 18].into_iter().enumerate() {
                sim.at(Nanos::from_secs(secs), move |w: &mut Vec<u32>, _| {
                    w.push(i as u32)
                });
            }
            sim.run(&mut w);
            assert_eq!(w, vec![1, 4, 5, 3, 0, 2]);
            assert_eq!(sim.now(), Nanos::from_secs(600));
        });
    }
}
