//! The flight recorder: a causal journal of scheduler decisions, protocol
//! message sends/deliveries, fault injections, and barrier stage
//! transitions, stamped with virtual time and linked by happens-before
//! edges.
//!
//! Because the whole substrate is a deterministic DES, a journal plus the
//! world's construction seeds pins down a run exactly: `dmtcp replay`
//! (crates/core) re-executes the run, re-arms the recorded journal as the
//! *expected* timeline, and reports the first divergence with both
//! timelines. The journal is bounded (a [`Ring`]) so an enabled recorder on
//! a long simulation costs bounded memory; evictions are counted and
//! surfaced as the `obs.journal_dropped` metric.
//!
//! ## Event model
//!
//! Every event carries:
//! * a **stable id** — dense, monotonically increasing per journal; two
//!   identical runs assign identical ids, which is what makes ids usable as
//!   cross-run happens-before anchors;
//! * a **class** bit ([`CLASS_SCHED`], [`CLASS_NET`], [`CLASS_FAULT`],
//!   [`CLASS_STAGE`]) so recording can be scoped (e.g. the fault matrix
//!   records NET|FAULT|STAGE and leaves the chatty scheduler class off);
//! * an optional **cause**: the id of the event that had to happen first.
//!   A `msg.deliver` is caused by its `msg.send`; a `fault.net.drop` by the
//!   send it killed; a `stage.release` by the `stage.request` that opened
//!   its generation (auto-linked by generation number).
//!
//! ## Serialization
//!
//! [`Journal::to_jsonl`] writes versioned JSONL: one header line carrying
//! the format version and free-form metadata (seeds, cell id, workload),
//! one line per event, and one footer line with the event count — the
//! footer is how [`decode_jsonl`] distinguishes a truncated capture from a
//! complete one. See DESIGN.md §12 for the format and divergence rules.

use crate::json::{push_escaped, JsonValue, JsonWriter};
use simkit::Nanos;
use simkit::Ring;
use std::collections::BTreeMap;
use std::fmt;

/// Journal serialization format version (the `v` field of the header line).
pub const JOURNAL_VERSION: u64 = 1;

/// Scheduler decisions: which `(node, pid, tid)` the dispatcher stepped.
pub const CLASS_SCHED: u8 = 1 << 0;
/// Protocol message sends, deliveries, and drops on connections.
pub const CLASS_NET: u8 = 1 << 1;
/// Fault injections (network verdicts, image corruption, kills).
pub const CLASS_FAULT: u8 = 1 << 2;
/// Barrier stage transitions and checkpoint driver actions.
pub const CLASS_STAGE: u8 = 1 << 3;
/// Every class.
pub const CLASS_ALL: u8 = CLASS_SCHED | CLASS_NET | CLASS_FAULT | CLASS_STAGE;

/// Default number of events retained before the ring evicts the oldest.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 1 << 16;

/// Human name of a class bit (diagnostics).
pub fn class_name(class: u8) -> &'static str {
    match class {
        CLASS_SCHED => "sched",
        CLASS_NET => "net",
        CLASS_FAULT => "fault",
        CLASS_STAGE => "stage",
        _ => "?",
    }
}

/// A stable, per-journal event id. Dense and monotonically increasing;
/// identical runs assign identical ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(pub u64);

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// One journaled event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEvent {
    /// Stable id (see [`EventId`]).
    pub id: EventId,
    /// Virtual time of the event.
    pub at: Nanos,
    /// Class bit (exactly one of the `CLASS_*` constants).
    pub class: u8,
    /// Dotted kind, e.g. `msg.send`, `stage.release`, `fault.net.drop`.
    pub kind: String,
    /// Happens-before edge: the event that had to precede this one.
    pub cause: Option<EventId>,
    /// Named numeric payload (`conn`, `gen`, `stage`, `bytes`, …) in
    /// recording order.
    pub nums: Vec<(String, u64)>,
    /// Free-form detail (message name, program tag, fault description).
    pub detail: String,
}

impl JournalEvent {
    /// Payload value by name.
    pub fn num(&self, key: &str) -> Option<u64> {
        self.nums.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }

    /// One-line human rendering, used in divergence reports.
    pub fn describe(&self) -> String {
        let mut s = format!(
            "{} @{}ns [{}] {}",
            self.id,
            self.at.0,
            class_name(self.class),
            self.kind
        );
        if let Some(c) = self.cause {
            s.push_str(&format!(" cause={c}"));
        }
        for (k, v) in &self.nums {
            s.push_str(&format!(" {k}={v}"));
        }
        if !self.detail.is_empty() {
            s.push_str(&format!(" {:?}", self.detail));
        }
        s
    }

    fn to_json_line(&self) -> String {
        let mut w = JsonWriter::new();
        w.obj_begin();
        w.field_str("type", "event");
        w.field_u64("id", self.id.0);
        w.field_u64("at", self.at.0);
        w.field_u64("class", self.class as u64);
        w.field_str("kind", &self.kind);
        if let Some(c) = self.cause {
            w.field_u64("cause", c.0);
        }
        w.key("nums").obj_begin();
        for (k, v) in &self.nums {
            w.key(k).val_u64(*v);
        }
        w.obj_end();
        w.field_str("detail", &self.detail);
        w.obj_end();
        w.into_string()
    }

    fn from_json(v: &JsonValue) -> Result<JournalEvent, String> {
        let id = v
            .get("id")
            .and_then(JsonValue::as_u64)
            .ok_or("event missing id")?;
        let at = v
            .get("at")
            .and_then(JsonValue::as_u64)
            .ok_or("event missing at")?;
        let class = v
            .get("class")
            .and_then(JsonValue::as_u64)
            .filter(|c| *c <= u8::MAX as u64)
            .ok_or("event missing class")? as u8;
        let kind = v
            .get("kind")
            .and_then(JsonValue::as_str)
            .ok_or("event missing kind")?
            .to_string();
        let cause = match v.get("cause") {
            None | Some(JsonValue::Null) => None,
            Some(c) => Some(EventId(c.as_u64().ok_or("bad cause")?)),
        };
        let nums = match v.get("nums") {
            None => Vec::new(),
            Some(obj) => obj
                .entries()
                .ok_or("nums is not an object")?
                .iter()
                .map(|(k, n)| n.as_u64().map(|n| (k.clone(), n)).ok_or("bad num value"))
                .collect::<Result<Vec<_>, _>>()?,
        };
        let detail = v
            .get("detail")
            .and_then(JsonValue::as_str)
            .unwrap_or("")
            .to_string();
        Ok(JournalEvent {
            id: EventId(id),
            at: Nanos(at),
            class,
            kind,
            cause,
            nums,
            detail,
        })
    }
}

/// The first mismatch between a replay and its recorded journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Index into the expected timeline at which the mismatch occurred.
    pub index: u64,
    /// What the recording says should have happened (`None`: the replay
    /// produced an event past the end of the recorded timeline).
    pub expected: Option<JournalEvent>,
    /// What the replay actually recorded.
    pub got: JournalEvent,
}

impl Divergence {
    /// Multi-line report showing both timelines at the fork point.
    pub fn report(&self) -> String {
        let expected = match &self.expected {
            Some(e) => e.describe(),
            None => "(end of recorded timeline)".to_string(),
        };
        format!(
            "replay diverged at event index {}\n  recorded: {}\n  replayed: {}",
            self.index,
            expected,
            self.got.describe()
        )
    }
}

struct ExpectState {
    events: Vec<JournalEvent>,
    cursor: usize,
}

/// Decodes a framed protocol message into a display name.
type MsgTagger = Box<dyn Fn(&[u8]) -> Option<String>>;

/// The flight recorder. Embedded in [`crate::Obs`]; off (classes = 0) by
/// default so the hot path costs one branch.
pub struct Journal {
    classes: u8,
    next_id: u64,
    events: Ring<JournalEvent>,
    meta: Vec<(String, String)>,
    /// `gen -> stage.request event`, for auto happens-before on stage events.
    stage_requests: BTreeMap<u64, EventId>,
    expect: Option<ExpectState>,
    divergence: Option<Divergence>,
    /// Installed by the checkpoint layer; `obs` itself knows nothing about
    /// the wire format.
    tagger: Option<MsgTagger>,
}

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal")
            .field("classes", &self.classes)
            .field("events", &self.events.len())
            .field("evicted", &self.events.evicted())
            .field("divergence", &self.divergence)
            .finish()
    }
}

impl Default for Journal {
    fn default() -> Self {
        Journal::new()
    }
}

impl Journal {
    /// A disabled journal.
    pub fn new() -> Self {
        Journal {
            classes: 0,
            next_id: 0,
            events: Ring::new(DEFAULT_JOURNAL_CAPACITY),
            meta: Vec::new(),
            stage_requests: BTreeMap::new(),
            expect: None,
            divergence: None,
            tagger: None,
        }
    }

    /// Enable recording for the given class bits (0 disables).
    pub fn enable(&mut self, classes: u8) {
        self.classes = classes & CLASS_ALL;
    }

    /// The enabled class bits.
    pub fn enabled_classes(&self) -> u8 {
        self.classes
    }

    /// Whether any class is enabled.
    pub fn is_enabled(&self) -> bool {
        self.classes != 0
    }

    /// Whether events of `class` are recorded. Call sites gate expensive
    /// payload construction on this.
    pub fn wants(&self, class: u8) -> bool {
        self.classes & class != 0
    }

    /// Change the retention bound.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.events.set_capacity(capacity);
    }

    /// Set a header metadata entry (replaces an existing key).
    pub fn set_meta(&mut self, key: &str, value: impl Into<String>) {
        let value = value.into();
        match self.meta.iter_mut().find(|(k, _)| k == key) {
            Some(entry) => entry.1 = value,
            None => self.meta.push((key.to_string(), value)),
        }
    }

    /// Header metadata in insertion order.
    pub fn meta(&self) -> &[(String, String)] {
        &self.meta
    }

    /// A metadata value by key.
    pub fn meta_value(&self, key: &str) -> Option<&str> {
        self.meta
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Install the protocol-message tagger used by [`Journal::tag_bytes`].
    pub fn set_msg_tagger(&mut self, f: impl Fn(&[u8]) -> Option<String> + 'static) {
        self.tagger = Some(Box::new(f));
    }

    /// Best-effort display name for a protocol payload ("" when no tagger
    /// is installed or the bytes are not a complete frame).
    pub fn tag_bytes(&self, bytes: &[u8]) -> String {
        match &self.tagger {
            Some(f) => f(bytes).unwrap_or_default(),
            None => String::new(),
        }
    }

    /// Record an event. Returns its id, or `None` when the class is not
    /// enabled (so callers can thread send→deliver causality only when
    /// recording).
    ///
    /// Happens-before edges for stage events are auto-filled: a
    /// `stage.request` registers its generation; any later `stage.*` event
    /// carrying the same `gen` and no explicit cause links back to it.
    pub fn record(
        &mut self,
        at: Nanos,
        class: u8,
        kind: &str,
        cause: Option<EventId>,
        nums: &[(&str, u64)],
        detail: impl Into<String>,
    ) -> Option<EventId> {
        if self.classes & class == 0 {
            return None;
        }
        let id = EventId(self.next_id);
        self.next_id += 1;
        let mut cause = cause;
        let gen = nums.iter().find(|(k, _)| *k == "gen").map(|(_, v)| *v);
        if kind == "stage.request" {
            if let Some(g) = gen {
                self.stage_requests.insert(g, id);
            }
        } else if cause.is_none() && kind.starts_with("stage.") {
            if let Some(g) = gen {
                cause = self.stage_requests.get(&g).copied();
            }
        }
        let ev = JournalEvent {
            id,
            at,
            class,
            kind: kind.to_string(),
            cause,
            nums: nums.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            detail: detail.into(),
        };
        self.check_against_expected(&ev);
        self.events.push(ev);
        Some(id)
    }

    fn check_against_expected(&mut self, ev: &JournalEvent) {
        let Some(exp) = self.expect.as_mut() else {
            return;
        };
        if self.divergence.is_some() {
            return;
        }
        let index = exp.cursor as u64;
        let expected = exp.events.get(exp.cursor).cloned();
        exp.cursor += 1;
        match &expected {
            Some(e) if e == ev => {}
            _ => {
                self.divergence = Some(Divergence {
                    index,
                    expected,
                    got: ev.clone(),
                });
            }
        }
    }

    /// Arm divergence detection: every subsequently recorded event is
    /// compared against `recorded`'s timeline; the first mismatch is kept
    /// (see [`Journal::divergence`]). Fails if the recording lost events to
    /// ring eviction — a partial timeline cannot anchor event ids.
    pub fn arm_divergence_check(&mut self, recorded: &DecodedJournal) -> Result<(), String> {
        if recorded.evicted > 0 {
            return Err(format!(
                "recorded journal lost {} events to ring eviction; raise the journal \
                 capacity when recording to enable divergence checking",
                recorded.evicted
            ));
        }
        self.expect = Some(ExpectState {
            events: recorded.events.clone(),
            cursor: 0,
        });
        self.divergence = None;
        Ok(())
    }

    /// The first divergence found since [`Journal::arm_divergence_check`].
    pub fn divergence(&self) -> Option<&Divergence> {
        self.divergence.as_ref()
    }

    /// How many replayed events have been compared so far.
    pub fn replay_checked(&self) -> u64 {
        self.expect.as_ref().map_or(0, |e| e.cursor as u64)
    }

    /// Expected events not yet reproduced by the replay (0 means the full
    /// recorded timeline was matched).
    pub fn expected_remaining(&self) -> u64 {
        self.expect
            .as_ref()
            .map_or(0, |e| e.events.len().saturating_sub(e.cursor) as u64)
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> &[JournalEvent] {
        self.events.as_slice()
    }

    /// Events evicted by the retention bound.
    pub fn evicted(&self) -> u64 {
        self.events.evicted()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Drop all recorded state (events, ids, meta, causal maps, divergence
    /// arming) but keep the enabled classes and capacity.
    pub fn clear(&mut self) {
        self.events.clear();
        self.next_id = 0;
        self.meta.clear();
        self.stage_requests.clear();
        self.expect = None;
        self.divergence = None;
    }

    /// Serialize as versioned JSONL: header, events, footer.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let mut header = JsonWriter::new();
        header.obj_begin();
        header.field_str("type", "header");
        header.field_u64("v", JOURNAL_VERSION);
        header.key("meta").obj_begin();
        for (k, v) in &self.meta {
            header.key(k).val_str(v);
        }
        header.obj_end();
        header.obj_end();
        out.push_str(&header.into_string());
        out.push('\n');
        for ev in self.events.iter() {
            out.push_str(&ev.to_json_line());
            out.push('\n');
        }
        let mut footer = JsonWriter::new();
        footer.obj_begin();
        footer.field_str("type", "footer");
        footer.field_u64("events", self.events.len() as u64);
        footer.field_u64("evicted", self.events.evicted());
        footer.field_u64("next_id", self.next_id);
        footer.obj_end();
        out.push_str(&footer.into_string());
        out.push('\n');
        out
    }
}

/// Why a journal capture failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// No data / no header line.
    Empty,
    /// The header declares a version this decoder does not understand.
    UnknownVersion(u64),
    /// The capture ends before its footer, or the footer's event count
    /// disagrees with the lines present.
    Truncated(String),
    /// A line is not well-formed, or a record is missing required fields.
    Corrupt {
        /// 1-based line number of the fault.
        line: usize,
        /// What was wrong.
        why: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Empty => write!(f, "empty journal"),
            JournalError::UnknownVersion(v) => {
                write!(
                    f,
                    "unknown journal version {v} (decoder speaks {JOURNAL_VERSION})"
                )
            }
            JournalError::Truncated(why) => write!(f, "truncated journal: {why}"),
            JournalError::Corrupt { line, why } => {
                write!(f, "corrupt journal at line {line}: {why}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

/// A decoded journal capture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedJournal {
    /// Format version from the header.
    pub version: u64,
    /// Header metadata in document order.
    pub meta: Vec<(String, String)>,
    /// The recorded timeline, oldest first.
    pub events: Vec<JournalEvent>,
    /// Events the recorder evicted before the capture was written.
    pub evicted: u64,
    /// The recorder's next event id (total events ever recorded).
    pub next_id: u64,
}

impl DecodedJournal {
    /// A metadata value by key.
    pub fn meta_value(&self, key: &str) -> Option<&str> {
        self.meta
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// An incremental JSONL decoder: feed byte chunks of any size, then
/// [`JournalReader::finish`]. Mirrors the `FrameBuf` idiom in
/// `core::proto` — the property tests drive it with random chunkings.
#[derive(Default)]
pub struct JournalReader {
    buf: Vec<u8>,
    line_no: usize,
    header: Option<(u64, Vec<(String, String)>)>,
    events: Vec<JournalEvent>,
    footer: Option<(u64, u64, u64)>,
    err: Option<JournalError>,
}

impl JournalReader {
    pub fn new() -> Self {
        JournalReader::default()
    }

    /// Feed a chunk; complete lines are decoded immediately.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
        while let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.buf.drain(..=pos).collect();
            self.line(&line[..line.len() - 1]);
        }
    }

    fn line(&mut self, raw: &[u8]) {
        if self.err.is_some() {
            return;
        }
        self.line_no += 1;
        let line = self.line_no;
        let corrupt = |why: String| JournalError::Corrupt { line, why };
        let text = match std::str::from_utf8(raw) {
            Ok(t) => t,
            Err(_) => {
                self.err = Some(corrupt("invalid utf-8".into()));
                return;
            }
        };
        let v = match JsonValue::parse(text) {
            Ok(v) => v,
            Err(why) => {
                self.err = Some(corrupt(why));
                return;
            }
        };
        if self.footer.is_some() {
            self.err = Some(corrupt("data after footer".into()));
            return;
        }
        match v.get("type").and_then(JsonValue::as_str) {
            Some("header") => {
                if self.header.is_some() {
                    self.err = Some(corrupt("duplicate header".into()));
                    return;
                }
                if line != 1 {
                    self.err = Some(corrupt("header is not the first line".into()));
                    return;
                }
                let Some(ver) = v.get("v").and_then(JsonValue::as_u64) else {
                    self.err = Some(corrupt("header missing version".into()));
                    return;
                };
                if ver != JOURNAL_VERSION {
                    self.err = Some(JournalError::UnknownVersion(ver));
                    return;
                }
                let mut meta = Vec::new();
                if let Some(entries) = v.get("meta").and_then(JsonValue::entries) {
                    for (k, mv) in entries {
                        let Some(s) = mv.as_str() else {
                            self.err = Some(corrupt(format!("meta value for {k:?} not a string")));
                            return;
                        };
                        meta.push((k.clone(), s.to_string()));
                    }
                }
                self.header = Some((ver, meta));
            }
            Some("event") => {
                if self.header.is_none() {
                    self.err = Some(corrupt("event before header".into()));
                    return;
                }
                match JournalEvent::from_json(&v) {
                    Ok(ev) => self.events.push(ev),
                    Err(why) => self.err = Some(corrupt(why.to_string())),
                }
            }
            Some("footer") => {
                if self.header.is_none() {
                    self.err = Some(corrupt("footer before header".into()));
                    return;
                }
                let get = |k: &str| v.get(k).and_then(JsonValue::as_u64);
                match (get("events"), get("evicted"), get("next_id")) {
                    (Some(n), Some(e), Some(next)) => self.footer = Some((n, e, next)),
                    _ => self.err = Some(corrupt("footer missing counts".into())),
                }
            }
            _ => self.err = Some(corrupt("unknown record type".into())),
        }
    }

    /// Consume the reader; any buffered partial line is decoded as a final
    /// (unterminated) line.
    pub fn finish(mut self) -> Result<DecodedJournal, JournalError> {
        if !self.buf.is_empty() {
            let line = std::mem::take(&mut self.buf);
            self.line(&line);
        }
        if let Some(err) = self.err {
            return Err(err);
        }
        let Some((version, meta)) = self.header else {
            return Err(JournalError::Empty);
        };
        let Some((count, evicted, next_id)) = self.footer else {
            return Err(JournalError::Truncated("missing footer".into()));
        };
        if count != self.events.len() as u64 {
            return Err(JournalError::Truncated(format!(
                "footer declares {count} events, capture holds {}",
                self.events.len()
            )));
        }
        Ok(DecodedJournal {
            version,
            meta,
            events: self.events,
            evicted,
            next_id,
        })
    }
}

/// Decode a complete JSONL capture (see [`JournalReader`] for streaming).
pub fn decode_jsonl(s: &str) -> Result<DecodedJournal, JournalError> {
    let mut r = JournalReader::new();
    r.feed(s.as_bytes());
    r.finish()
}

/// Render the recorded timeline as human-readable text (one line per
/// event), for divergence context and debugging dumps.
pub fn render_timeline(events: &[JournalEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&ev.describe());
        out.push('\n');
    }
    out
}

/// Escape helper re-exported for the replay snapshot writer.
pub fn json_string(s: &str) -> String {
    let mut out = String::new();
    push_escaped(&mut out, s);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Journal {
        let mut j = Journal::new();
        j.enable(CLASS_ALL);
        j.set_meta("cell", "KillCoord@stage4/chain");
        j.set_meta("seed", "0xdeadbeef");
        let send = j.record(
            Nanos(10),
            CLASS_NET,
            "msg.send",
            None,
            &[("conn", 1), ("end", 0), ("bytes", 32)],
            "BarrierReached",
        );
        j.record(
            Nanos(15),
            CLASS_NET,
            "msg.deliver",
            send,
            &[("conn", 1), ("end", 0), ("bytes", 32)],
            "",
        );
        j.record(
            Nanos(20),
            CLASS_STAGE,
            "stage.request",
            None,
            &[("gen", 1)],
            "",
        );
        j.record(
            Nanos(30),
            CLASS_STAGE,
            "stage.release",
            None,
            &[("gen", 1), ("stage", 2)],
            "release.suspended",
        );
        j
    }

    #[test]
    fn records_and_links_causes() {
        let j = sample();
        let evs = j.events();
        assert_eq!(evs.len(), 4);
        assert_eq!(evs[1].cause, Some(evs[0].id));
        // stage.release auto-linked to the stage.request of gen 1.
        assert_eq!(evs[3].cause, Some(evs[2].id));
        assert_eq!(evs[3].num("stage"), Some(2));
    }

    #[test]
    fn disabled_class_records_nothing() {
        let mut j = Journal::new();
        j.enable(CLASS_NET);
        assert!(j
            .record(Nanos(1), CLASS_SCHED, "sched", None, &[], "")
            .is_none());
        assert!(j.is_empty());
        assert!(j.wants(CLASS_NET) && !j.wants(CLASS_SCHED));
    }

    #[test]
    fn jsonl_round_trip() {
        let j = sample();
        let text = j.to_jsonl();
        for line in text.lines() {
            crate::json::validate(line).unwrap();
        }
        let d = decode_jsonl(&text).unwrap();
        assert_eq!(d.version, JOURNAL_VERSION);
        assert_eq!(d.meta_value("seed"), Some("0xdeadbeef"));
        assert_eq!(d.events, j.events());
        assert_eq!(d.evicted, 0);
        assert_eq!(d.next_id, 4);
    }

    #[test]
    fn decode_rejects_bad_captures() {
        let text = sample().to_jsonl();
        // Unknown version.
        let future = text.replacen("\"v\":1", "\"v\":99", 1);
        assert!(matches!(
            decode_jsonl(&future),
            Err(JournalError::UnknownVersion(99))
        ));
        // Truncated: drop the footer line.
        let mut lines: Vec<&str> = text.lines().collect();
        lines.pop();
        let cut = lines.join("\n");
        assert!(matches!(
            decode_jsonl(&cut),
            Err(JournalError::Truncated(_))
        ));
        // Corrupt: mangle an event line.
        let bad = text.replacen("\"kind\"", "\"kin", 1);
        assert!(matches!(
            decode_jsonl(&bad),
            Err(JournalError::Corrupt { .. })
        ));
        // Empty.
        assert!(matches!(decode_jsonl(""), Err(JournalError::Empty)));
    }

    #[test]
    fn divergence_detected_and_reported() {
        let recorded = decode_jsonl(&sample().to_jsonl()).unwrap();
        // Identical replay: zero divergence, full timeline matched.
        let mut replay = sample_empty();
        replay.arm_divergence_check(&recorded).unwrap();
        replay_events(&mut replay, true);
        assert!(replay.divergence().is_none());
        assert_eq!(replay.expected_remaining(), 0);
        // Perturbed replay: first mismatch captured with both timelines.
        let mut replay = sample_empty();
        replay.arm_divergence_check(&recorded).unwrap();
        replay_events(&mut replay, false);
        let d = replay.divergence().expect("divergence");
        assert_eq!(d.index, 1);
        assert!(d.report().contains("recorded:"));
        assert!(d.report().contains("replayed:"));
        // Only the first mismatch is kept.
        assert_eq!(replay.divergence().unwrap().index, 1);
    }

    fn sample_empty() -> Journal {
        let mut j = Journal::new();
        j.enable(CLASS_ALL);
        j
    }

    fn replay_events(j: &mut Journal, faithful: bool) {
        let send = j.record(
            Nanos(10),
            CLASS_NET,
            "msg.send",
            None,
            &[("conn", 1), ("end", 0), ("bytes", 32)],
            "BarrierReached",
        );
        let deliver_at = if faithful { Nanos(15) } else { Nanos(16) };
        j.record(
            deliver_at,
            CLASS_NET,
            "msg.deliver",
            send,
            &[("conn", 1), ("end", 0), ("bytes", 32)],
            "",
        );
        j.record(
            Nanos(20),
            CLASS_STAGE,
            "stage.request",
            None,
            &[("gen", 1)],
            "",
        );
        j.record(
            Nanos(30),
            CLASS_STAGE,
            "stage.release",
            None,
            &[("gen", 1), ("stage", 2)],
            "release.suspended",
        );
    }

    #[test]
    fn bounded_journal_counts_evictions() {
        let mut j = Journal::new();
        j.enable(CLASS_ALL);
        j.set_capacity(8);
        for i in 0..100 {
            j.record(Nanos(i), CLASS_SCHED, "sched", None, &[("pid", i)], "");
        }
        assert!(j.len() <= 8);
        assert_eq!(j.evicted() + j.len() as u64, 100);
        let d = decode_jsonl(&j.to_jsonl()).unwrap();
        assert_eq!(d.evicted, j.evicted());
        // A lossy capture cannot anchor divergence checking.
        let mut replay = Journal::new();
        replay.enable(CLASS_ALL);
        assert!(replay.arm_divergence_check(&d).is_err());
    }
}
