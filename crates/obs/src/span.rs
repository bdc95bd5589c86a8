//! Virtual-time spans with node/pid/tid identity.
//!
//! The simulator charges time analytically — a whole image write "happens"
//! at one event and returns its completion time — so the recorder supports
//! both *scoped* spans (`begin`/`end`, nestable, for code that advances
//! virtual time as it runs) and *complete* spans recorded after the fact
//! with an explicit `[start, end]` interval. Zero-length protocol moments
//! (a barrier release) are recorded as instants.
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

/// Handle returned by [`SpanRecorder::begin`]; pass back to
/// [`SpanRecorder::end`]. A handle from a disabled recorder is inert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "an unclosed span is never recorded"]
pub struct SpanGuard(usize);

impl SpanGuard {
    const NONE: SpanGuard = SpanGuard(usize::MAX);

    /// Whether this guard refers to a live open span.
    pub fn is_active(&self) -> bool {
        self.0 != usize::MAX
    }
}

#[derive(Debug)]
struct OpenSpan {
    track: TrackId,
    name: &'static str,
    cat: &'static str,
    start: Nanos,
    args: Vec<(&'static str, u64)>,
}

/// Records spans into a bounded ring. Disabled by default: every entry
/// point is a single branch when off.
#[derive(Debug)]
pub struct SpanRecorder {
    enabled: bool,
    done: Ring<Span>,
    open: Vec<Option<OpenSpan>>,
    free: Vec<usize>,
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
            open: Vec::new(),
            free: Vec::new(),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Open a nestable scoped span. Returns an inert guard when disabled.
    pub fn begin(
        &mut self,
        at: Nanos,
        track: TrackId,
        name: &'static str,
        cat: &'static str,
    ) -> SpanGuard {
        self.begin_args(at, track, name, cat, Vec::new())
    }

    /// [`SpanRecorder::begin`] with annotations attached up front.
    pub fn begin_args(
        &mut self,
        at: Nanos,
        track: TrackId,
        name: &'static str,
        cat: &'static str,
        args: Vec<(&'static str, u64)>,
    ) -> SpanGuard {
        if !self.enabled {
            return SpanGuard::NONE;
        }
        let open = OpenSpan {
            track,
            name,
            cat,
            start: at,
            args,
        };
        match self.free.pop() {
            Some(slot) => {
                self.open[slot] = Some(open);
                SpanGuard(slot)
            }
            None => {
                self.open.push(Some(open));
                SpanGuard(self.open.len() - 1)
            }
        }
    }

    /// Attach an annotation to a still-open span.
    pub fn annotate(&mut self, guard: SpanGuard, key: &'static str, value: u64) {
        if let Some(Some(open)) = self.open.get_mut(guard.0) {
            open.args.push((key, value));
        }
    }

    /// Close a scoped span, recording it. Inert guards are ignored, so
    /// callers need not re-check the enabled flag.
    pub fn end(&mut self, at: Nanos, guard: SpanGuard) {
        let Some(slot) = self.open.get_mut(guard.0) else {
            return;
        };
        if let Some(open) = slot.take() {
            self.free.push(guard.0);
            self.done.push(Span {
                track: open.track,
                name: open.name,
                cat: open.cat,
                kind: SpanKind::Complete,
                start: open.start,
                end: at.max(open.start),
                args: open.args,
            });
        }
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

    /// Number of spans opened but not yet ended.
    pub fn open_count(&self) -> usize {
        self.open.iter().filter(|s| s.is_some()).count()
    }

    /// Drop all finished spans (open spans stay open).
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
        let g = r.begin(Nanos(5), t(), "a", "c");
        assert!(!g.is_active());
        r.end(Nanos(9), g);
        r.complete(t(), "b", "c", Nanos(1), Nanos(2), vec![]);
        r.instant(Nanos(3), t(), "i", "c", vec![]);
        assert!(r.spans().is_empty());
    }

    #[test]
    fn scoped_spans_nest_and_record_on_end() {
        let mut r = SpanRecorder::default();
        r.set_enabled(true);
        let outer = r.begin(Nanos(10), t(), "outer", "c");
        let inner = r.begin(Nanos(20), t(), "inner", "c");
        r.annotate(inner, "bytes", 512);
        assert_eq!(r.open_count(), 2);
        r.end(Nanos(30), inner);
        r.end(Nanos(40), outer);
        assert_eq!(r.open_count(), 0);
        let spans = r.spans();
        assert_eq!(spans.len(), 2);
        // Inner closes first.
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].arg("bytes"), Some(512));
        assert_eq!(spans[0].duration(), Nanos(10));
        assert_eq!(spans[1].name, "outer");
        assert_eq!(spans[1].start, Nanos(10));
        assert_eq!(spans[1].end, Nanos(40));
    }

    #[test]
    fn double_end_is_ignored_and_slots_are_reused() {
        let mut r = SpanRecorder::default();
        r.set_enabled(true);
        let g = r.begin(Nanos(1), t(), "a", "c");
        r.end(Nanos(2), g);
        r.end(Nanos(3), g); // no-op
        assert_eq!(r.spans().len(), 1);
        let g2 = r.begin(Nanos(4), t(), "b", "c");
        assert_eq!(g2, g); // slot reused
        r.end(Nanos(5), g2);
        assert_eq!(r.spans().len(), 2);
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
