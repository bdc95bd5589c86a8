//! # obs — virtual-time observability for the DMTCP reproduction
//!
//! The paper's whole evaluation is a stage-by-stage timing story (suspend /
//! elect / drain / write / refill, Table 1 and Figures 3–6). This crate is
//! the shared layer every part of the pipeline reports into:
//!
//! * **Spans** ([`span::SpanRecorder`]) — complete `[start, end]`
//!   intervals and instants keyed to virtual [`simkit::Nanos`] with
//!   node/pid/tid identity, recorded into a bounded ring. Off by default.
//! * **Metrics** ([`metrics::Registry`]) — counters, gauges, and
//!   log₂-bucketed histograms keyed by `(name, label)`. Always on; the
//!   bench harness derives its stage breakdowns from these.
//! * **Exporters** ([`export`]) — Chrome trace-event JSON (open the file in
//!   [Perfetto](https://ui.perfetto.dev) via "Open trace file"; one track
//!   per simulated process, virtual time as the clock) and a JSONL metrics
//!   dump. JSON is hand-rolled ([`json`]); the crate depends only on
//!   `simkit` and std, so the workspace builds where crates.io is
//!   unreachable.
//!
//! Naming scheme (documented in DESIGN.md): metric and span names are
//! `layer.subsystem.metric`, e.g. `core.drain.bytes`, `mtcp.image.bytes`,
//! `szip.bytes_in`; span categories name the pipeline layer (`coord`,
//! `ckpt`, `restart`, `mtcp`).

pub mod export;
pub mod journal;
pub mod json;
pub mod metrics;
pub mod span;

pub use journal::{DecodedJournal, Divergence, EventId, Journal, JournalEvent};
pub use metrics::{Histogram, MetricKey, Registry};
pub use span::{Span, SpanKind, SpanRecorder, TrackId};

use std::collections::BTreeMap;

/// The per-world observability hub: a span recorder, a metrics registry,
/// the causal flight recorder, and the process-name table the trace
/// exporter labels tracks with.
#[derive(Debug, Default)]
pub struct Obs {
    pub spans: SpanRecorder,
    pub metrics: Registry,
    /// The flight recorder (see [`journal`]); off by default.
    pub journal: Journal,
    names: BTreeMap<(u32, u32), String>,
    /// Ring evictions already mirrored into drop counters.
    synced_span_drops: u64,
    synced_journal_drops: u64,
}

impl Obs {
    pub fn new() -> Self {
        Obs::default()
    }

    /// Record the human-readable name of `(node, pid)` for trace export.
    /// Later registrations win (exec replaces the image name).
    pub fn set_process_name(&mut self, node: u32, pid: u32, name: impl Into<String>) {
        self.names.insert((node, pid), name.into());
    }

    /// Export all finished spans as a Chrome trace-event JSON document.
    pub fn chrome_trace(&self) -> String {
        export::chrome_trace_json(self.spans.spans(), &self.names)
    }

    /// Export the metrics registry as JSONL.
    pub fn metrics_jsonl(&self) -> String {
        export::metrics_jsonl(&self.metrics)
    }

    /// Export the flight-recorder journal as versioned JSONL.
    pub fn journal_jsonl(&self) -> String {
        self.journal.to_jsonl()
    }

    /// Mirror ring evictions into counters instead of truncating silently:
    /// `obs.spans_dropped` (span ring) and `obs.journal_dropped` (flight
    /// recorder). Idempotent — only new evictions since the last call are
    /// added, so exporters can call it every flush.
    pub fn sync_drop_counters(&mut self) {
        let spans = self.spans.evicted();
        if spans > self.synced_span_drops {
            self.metrics
                .add("obs.spans_dropped", 0, spans - self.synced_span_drops);
            self.synced_span_drops = spans;
        }
        let journal = self.journal.evicted();
        if journal > self.synced_journal_drops {
            self.metrics.add(
                "obs.journal_dropped",
                0,
                journal - self.synced_journal_drops,
            );
            self.synced_journal_drops = journal;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::Nanos;

    #[test]
    fn obs_round_trip() {
        let mut o = Obs::new();
        o.set_process_name(0, 3, "coordinator");
        o.spans.set_enabled(true);
        o.spans.complete(
            TrackId::new(0, 3, 0),
            "generation",
            "coord",
            Nanos(0),
            Nanos(10),
            vec![],
        );
        o.metrics.add("core.drain.bytes", 1, 99);
        let trace = o.chrome_trace();
        json::validate(&trace).unwrap();
        assert!(trace.contains("coordinator"));
        let dump = o.metrics_jsonl();
        assert!(dump.contains("core.drain.bytes"));
    }

    #[test]
    fn drop_counters_track_ring_evictions() {
        let mut o = Obs::new();
        o.sync_drop_counters();
        assert_eq!(o.metrics.counter_total("obs.spans_dropped"), 0);
        o.journal.enable(journal::CLASS_ALL);
        o.journal.set_capacity(4);
        for i in 0..10 {
            o.journal
                .record(Nanos(i), journal::CLASS_SCHED, "sched", None, &[], "");
        }
        o.sync_drop_counters();
        let dropped = o.metrics.counter_total("obs.journal_dropped");
        assert_eq!(dropped, o.journal.evicted());
        assert!(dropped > 0);
        // Idempotent: no double counting.
        o.sync_drop_counters();
        assert_eq!(o.metrics.counter_total("obs.journal_dropped"), dropped);
    }
}
