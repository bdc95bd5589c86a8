//! Virtual-time spans with node/pid/tid identity.
//!
//! The simulator charges time analytically — a whole image write "happens"
//! at one event and returns its completion time — so every span is recorded
//! after the fact as a *complete* span with an explicit `[start, end]`
//! interval. Zero-length protocol moments (a barrier release) are recorded
//! as instants.
//!
//! Finished spans land in a bounded [`Ring`], so an enabled recorder on a
//! long simulation keeps the newest `capacity` spans instead of growing
//! without limit.

use simkit::Nanos;
use simkit::Ring;

/// Default retention bound for finished spans.
pub const DEFAULT_SPAN_CAPACITY: usize = 1 << 17;

/// Which simulated execution context a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TrackId {
    /// Simulated node (machine) index.
    pub node: u32,
    /// Virtual pid on that node's world.
    pub pid: u32,
    /// Thread id within the process (0 = main thread).
    pub tid: u32,
}

impl TrackId {
    pub fn new(node: u32, pid: u32, tid: u32) -> Self {
        TrackId { node, pid, tid }
    }
}

/// Whether a record covers an interval or marks a single moment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// `[start, end]` interval (Chrome `"X"` event).
    Complete,
    /// A point in time; `start == end` (Chrome `"i"` event).
    Instant,
}

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub track: TrackId,
    /// Span name, e.g. `"stage.drain"` (see DESIGN.md for the scheme).
    pub name: &'static str,
    /// Category, e.g. `"ckpt"`; becomes the Chrome trace `cat` field.
    pub cat: &'static str,
    pub kind: SpanKind,
    pub start: Nanos,
    pub end: Nanos,
    /// Small numeric annotations, e.g. `("gen", 3)` or `("bytes", n)`.
    pub args: Vec<(&'static str, u64)>,
}

impl Span {
    /// The numeric argument named `key`, if present.
    pub fn arg(&self, key: &str) -> Option<u64> {
        self.args.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }

    pub fn duration(&self) -> Nanos {
        self.end.saturating_sub(self.start)
    }
}

/// Records spans into a bounded ring. Disabled by default: every entry
/// point is a single branch when off.
#[derive(Debug)]
pub struct SpanRecorder {
    enabled: bool,
    done: Ring<Span>,
}

impl Default for SpanRecorder {
    fn default() -> Self {
        SpanRecorder::with_capacity(DEFAULT_SPAN_CAPACITY)
    }
}

impl SpanRecorder {
    pub fn with_capacity(capacity: usize) -> Self {
        SpanRecorder {
            enabled: false,
            done: Ring::new(capacity),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Record a finished `[start, end]` span directly (for analytically
    /// charged work that happens "all at once" in the event loop).
    pub fn complete(
        &mut self,
        track: TrackId,
        name: &'static str,
        cat: &'static str,
        start: Nanos,
        end: Nanos,
        args: Vec<(&'static str, u64)>,
    ) {
        if !self.enabled {
            return;
        }
        self.done.push(Span {
            track,
            name,
            cat,
            kind: SpanKind::Complete,
            start,
            end: end.max(start),
            args,
        });
    }

    /// Record a zero-length protocol moment.
    pub fn instant(
        &mut self,
        at: Nanos,
        track: TrackId,
        name: &'static str,
        cat: &'static str,
        args: Vec<(&'static str, u64)>,
    ) {
        if !self.enabled {
            return;
        }
        self.done.push(Span {
            track,
            name,
            cat,
            kind: SpanKind::Instant,
            start: at,
            end: at,
            args,
        });
    }

    /// Finished spans, in completion order (oldest may have been evicted).
    pub fn spans(&self) -> &[Span] {
        self.done.as_slice()
    }

    /// Finished spans with the given name.
    pub fn with_name<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.done.iter().filter(move |s| s.name == name)
    }

    /// How many finished spans the bound has evicted.
    pub fn evicted(&self) -> u64 {
        self.done.evicted()
    }

    /// Drop all finished spans.
    pub fn clear(&mut self) {
        self.done.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> TrackId {
        TrackId::new(0, 1, 0)
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let mut r = SpanRecorder::default();
        r.complete(t(), "b", "c", Nanos(1), Nanos(2), vec![]);
        r.instant(Nanos(3), t(), "i", "c", vec![]);
        assert!(r.spans().is_empty());
    }

    #[test]
    fn complete_and_instant_record_directly() {
        let mut r = SpanRecorder::default();
        r.set_enabled(true);
        r.complete(
            t(),
            "write",
            "mtcp",
            Nanos(100),
            Nanos(250),
            vec![("gen", 1)],
        );
        r.instant(Nanos(99), t(), "release", "coord", vec![]);
        assert_eq!(r.with_name("write").count(), 1);
        let w = r.with_name("write").next().unwrap();
        assert_eq!(w.kind, SpanKind::Complete);
        assert_eq!(w.arg("gen"), Some(1));
        let i = r.with_name("release").next().unwrap();
        assert_eq!(i.kind, SpanKind::Instant);
        assert_eq!(i.start, i.end);
    }

    #[test]
    fn ring_bound_applies() {
        let mut r = SpanRecorder::with_capacity(4);
        r.set_enabled(true);
        for i in 0..20u64 {
            r.complete(t(), "s", "c", Nanos(i), Nanos(i + 1), vec![]);
        }
        assert!(r.spans().len() <= 4);
        assert!(r.evicted() > 0);
        assert_eq!(r.spans().last().unwrap().start, Nanos(19));
    }
}
