//! `dmtcp replay` — time-travel debugging from a flight-recorder journal.
//!
//! A recorded run (see [`crate::session::enable_flight_recorder`]) leaves a
//! versioned JSONL journal of everything causally interesting: protocol
//! message sends and deliveries, scheduler dispatches, fault injections, and
//! barrier stage transitions, each stamped with virtual time and linked by
//! happens-before edges. Because the whole substrate is a deterministic
//! discrete-event simulation, that journal plus the run's construction
//! parameters are a *complete* recipe for re-executing the run — and the
//! journal doubles as an oracle: the replay records its own journal and
//! checks every event against the recording as it happens, so the first
//! divergence is caught at the exact event where the timelines split.
//!
//! The driver actions that shaped the run (`session.ckpt_request`,
//! `session.kill`, `session.restart`, `fault.uninstall`) are journaled as
//! ground truth. [`drive`] re-delivers them at their recorded virtual times
//! against an identically reconstructed world, seeks to any virtual time
//! (default: the recording's final event), and dumps a structured snapshot
//! of the entire substrate — kernel object model, coordinator barrier
//! bookkeeping, per-node relay aggregation state, and the replay-vs-record
//! verdict — as one JSON document.
//!
//! Typical flow for replaying a red fault-matrix cell:
//!
//! 1. Rebuild the cell's world exactly as the recording did (same seed,
//!    same installs, same launches) — the journal's header meta carries the
//!    cell id, base seed, workload, and budget needed to do this.
//! 2. [`arm`] the journal against the recording *before* spawning anything,
//!    so the replayed event ids line up from event `#0`.
//! 3. [`drive`] to the moment of interest.
//! 4. Read the returned [`ReplayReport`]: zero divergence means the replay
//!    is bit-faithful; the snapshot shows everything the kernel knew at the
//!    seek point.

use crate::coord::Coordinator;
use crate::relay::Relay;
use crate::restart::plan::RestartPlan;
use crate::session::Session;
use obs::journal::{DecodedJournal, Divergence};
use obs::json::JsonWriter;
use oskit::world::{OsSim, World};
use simkit::Nanos;
use std::collections::BTreeMap;

/// The driver actions extracted from a recorded journal — the ground-truth
/// schedule a replay re-delivers.
#[derive(Debug, Clone, Default)]
pub struct ReplaySchedule {
    /// `session.ckpt_request` times.
    pub requests: Vec<Nanos>,
    /// `session.kill` times.
    pub kills: Vec<Nanos>,
    /// `session.restart` times with the generation actually restarted.
    pub restarts: Vec<(Nanos, u64)>,
    /// `fault.uninstall` times (the fault hooks were removed mid-run).
    pub uninstalls: Vec<Nanos>,
    /// Virtual time of the recording's last event.
    pub end: Nanos,
}

/// Extract the driver-action schedule from a recorded journal.
pub fn schedule(recorded: &DecodedJournal) -> ReplaySchedule {
    let mut s = ReplaySchedule::default();
    for e in &recorded.events {
        match e.kind.as_str() {
            "session.ckpt_request" => s.requests.push(e.at),
            "session.kill" => s.kills.push(e.at),
            "session.restart" => s.restarts.push((e.at, e.num("gen").unwrap_or(0))),
            "fault.uninstall" => s.uninstalls.push(e.at),
            _ => {}
        }
        s.end = s.end.max(e.at);
    }
    s
}

/// Arm `w` to re-record the journal and check it live against `recorded`:
/// enables the same event classes (from the recording's `classes` meta),
/// copies the header meta forward, installs the protocol message tagger,
/// and arms streaming divergence detection. Must be called before anything
/// journal-worthy happens in the replay world — ideally right after world
/// construction — or the replayed event ids will not line up.
///
/// Fails when the recording is lossy (`evicted > 0`): an incomplete
/// timeline cannot be checked event-for-event.
pub fn arm(w: &mut World, recorded: &DecodedJournal) -> Result<(), String> {
    let classes: u8 = recorded
        .meta_value("classes")
        .and_then(|s| s.parse().ok())
        .unwrap_or(obs::journal::CLASS_ALL);
    w.obs.journal.enable(classes);
    for (k, v) in &recorded.meta {
        w.obs.journal.set_meta(k, v.clone());
    }
    w.obs.journal.set_meta("classes", format!("{classes}"));
    crate::launch::install_msg_tagger(w);
    w.obs.journal.arm_divergence_check(recorded)
}

/// What a replay found when it stopped.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Virtual time at which the replay stopped (the seek target).
    pub at: Nanos,
    /// Recorded events the replay matched before stopping.
    pub checked: u64,
    /// First mismatch between the replay and the recording, if any.
    pub divergence: Option<Divergence>,
    /// Recorded events not yet reached when the replay stopped (nonzero
    /// when seeking to a time before the recording's end).
    pub expected_remaining: u64,
    /// Structured substrate snapshot at the stop time (see [`snapshot`]).
    pub snapshot: String,
}

impl ReplayReport {
    /// Human-readable verdict: zero divergence, or the first mismatch with
    /// both timelines quoted.
    pub fn verdict(&self) -> String {
        match &self.divergence {
            None => format!(
                "replay faithful: {} events matched, {} not yet reached at {}ns",
                self.checked, self.expected_remaining, self.at.0
            ),
            Some(d) => d.report(),
        }
    }
}

/// Re-deliver the recorded driver schedule against `w` and seek to `seek`
/// (default: the recording's final event time). The world must have been
/// [`arm`]ed and then reconstructed exactly as the recording's was —
/// same session options, same launches, same fault plan.
///
/// `session.restart` events are re-delivered as the identity-placement
/// [`RestartPlan`] pinned to the *recorded* generation (the recording
/// already chose it; validation reads the world but journals nothing).
/// Drivers that restarted differently (migration remaps) should re-run
/// their own logic and use [`arm`]/[`snapshot`] directly.
pub fn drive(
    w: &mut World,
    sim: &mut OsSim,
    session: &Session,
    recorded: &DecodedJournal,
    seek: Option<Nanos>,
) -> ReplayReport {
    let sched = schedule(recorded);
    let stop = seek.unwrap_or(sched.end);
    for e in &recorded.events {
        if e.at > stop {
            break;
        }
        enum Act {
            Request,
            Kill,
            Restart(u64),
            Uninstall,
        }
        let act = match e.kind.as_str() {
            "session.ckpt_request" => Act::Request,
            "session.kill" => Act::Kill,
            "session.restart" => Act::Restart(e.num("gen").unwrap_or(0)),
            "fault.uninstall" => Act::Uninstall,
            _ => continue,
        };
        if e.at > sim.now() {
            sim.run_until(w, e.at);
        }
        match act {
            Act::Request => session.request_checkpoint(w, sim),
            Act::Kill => session.kill_computation(w, sim),
            Act::Restart(gen) => {
                RestartPlan::from_generation(w, session.opts.coord_port, gen)
                    .and_then(|plan| plan.execute(session, w, sim))
                    .expect("the recorded restart's generation is on storage");
            }
            Act::Uninstall => faultkit::uninstall_at(w, sim.now()),
        }
    }
    if stop > sim.now() {
        sim.run_until(w, stop);
    }
    ReplayReport {
        at: sim.now(),
        checked: w.obs.journal.replay_checked(),
        divergence: w.obs.journal.divergence().cloned(),
        expected_remaining: w.obs.journal.expected_remaining(),
        snapshot: snapshot(w, sim.now()),
    }
}

/// How many trailing journal events the snapshot quotes verbatim.
const TAIL_EVENTS: usize = 24;

/// Render the complete replay state at virtual time `now` as one JSON
/// document: journal verdict (checked/remaining/divergence), the full
/// kernel object model ([`oskit::dump::dump_json`]), the barrier
/// bookkeeping of every live coordinator (by port) and every live relay's
/// aggregation state (by node and port), read from the programs themselves,
/// and a human-readable tail of the timeline. A coordinator or relay that
/// died is absent, not shown with the state it died with.
pub fn snapshot(w: &World, now: Nanos) -> String {
    let mut coords = BTreeMap::new();
    let mut relays = BTreeMap::new();
    for (pid, p) in &w.procs {
        if let Some(c) = w.program::<Coordinator>(*pid) {
            coords.insert(c.port, c);
        } else if let Some(r) = w.program::<Relay>(*pid) {
            relays.insert((p.node.0, r.port), r);
        }
    }
    let journal = &w.obs.journal;
    let mut j = JsonWriter::new();
    j.obj_begin();
    j.field_str("type", "replay-snapshot");
    j.field_u64("at", now.0);
    j.key("meta").obj_begin();
    for (k, v) in journal.meta() {
        j.field_str(k, v);
    }
    j.obj_end();
    j.field_u64("journal_events", journal.len() as u64);
    j.field_u64("replay_checked", journal.replay_checked());
    j.field_u64("expected_remaining", journal.expected_remaining());
    j.key("divergence");
    match journal.divergence() {
        None => {
            j.val_raw("null");
        }
        Some(d) => {
            j.obj_begin();
            j.field_u64("index", d.index);
            j.field_str(
                "expected",
                &d.expected
                    .as_ref()
                    .map(|e| e.describe())
                    .unwrap_or_else(|| "<nothing: replay ran past the recording>".into()),
            );
            j.field_str("got", &d.got.describe());
            j.obj_end();
        }
    }
    j.key("coordinators").arr_begin();
    for c in coords.values() {
        c.write_json(&mut j);
    }
    j.arr_end();
    j.key("relays").arr_begin();
    for ((node, _), r) in &relays {
        r.write_json(*node, &mut j);
    }
    j.arr_end();
    j.key("substrate").val_raw(&oskit::dump::dump_json(w, now));
    j.key("timeline_tail").arr_begin();
    let evs = journal.events();
    for e in &evs[evs.len().saturating_sub(TAIL_EVENTS)..] {
        j.val_str(&e.describe());
    }
    j.arr_end();
    j.obj_end();
    j.into_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_extracts_driver_actions_in_order() {
        let jsonl = concat!(
            "{\"type\":\"header\",\"v\":1,\"meta\":{\"classes\":\"14\"}}\n",
            "{\"type\":\"event\",\"id\":0,\"at\":100,\"class\":8,\
             \"kind\":\"session.ckpt_request\",\"nums\":{},\"detail\":\"\"}\n",
            "{\"type\":\"event\",\"id\":1,\"at\":200,\"class\":4,\
             \"kind\":\"fault.uninstall\",\"nums\":{},\"detail\":\"\"}\n",
            "{\"type\":\"event\",\"id\":2,\"at\":300,\"class\":8,\
             \"kind\":\"session.kill\",\"nums\":{},\"detail\":\"\"}\n",
            "{\"type\":\"event\",\"id\":3,\"at\":400,\"class\":8,\
             \"kind\":\"session.restart\",\"nums\":{\"gen\":2},\"detail\":\"\"}\n",
            "{\"type\":\"footer\",\"events\":4,\"evicted\":0,\"next_id\":4}\n",
        );
        let decoded = obs::journal::decode_jsonl(jsonl).expect("valid capture");
        let s = schedule(&decoded);
        assert_eq!(s.requests, vec![Nanos(100)]);
        assert_eq!(s.uninstalls, vec![Nanos(200)]);
        assert_eq!(s.kills, vec![Nanos(300)]);
        assert_eq!(s.restarts, vec![(Nanos(400), 2)]);
        assert_eq!(s.end, Nanos(400));
    }

    #[test]
    fn snapshot_is_valid_json_with_all_sections() {
        use oskit::program::Registry;
        use oskit::HwSpec;
        let w = World::new(HwSpec::cluster(), 2, Registry::new());
        let snap = snapshot(&w, Nanos(42));
        obs::json::validate(&snap).expect("snapshot is well-formed JSON");
        for section in [
            "\"coordinators\"",
            "\"relays\"",
            "\"substrate\"",
            "\"timeline_tail\"",
            "\"divergence\"",
        ] {
            assert!(snap.contains(section), "missing {section}");
        }
    }
}
