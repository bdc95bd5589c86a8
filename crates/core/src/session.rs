//! High-level session driver: the programmatic equivalents of the three
//! DMTCP commands (§3):
//!
//! ```text
//! dmtcp_checkpoint [options] <program>   → Session::start + Session::launch
//! dmtcp_command --checkpoint             → Session::checkpoint_and_wait
//! dmtcp_restart_script.sh                → restart::plan::RestartPlan::execute
//! ```
//!
//! Tests, examples, and the benchmark harness all drive checkpoints through
//! this type, so they exercise the same protocol code paths. Every host-side
//! "run the simulation until …" in this crate and in `svc` is one call of
//! [`wait_until`].

use crate::coord::{coord_shared_for, stage, GenStat};
use crate::launch::{launch_under_dmtcp, spawn_coordinator, Options};
use oskit::proc::sig;
use oskit::program::Program;
use oskit::world::{NodeId, OsSim, Pid, World};
use simkit::Nanos;

/// [`wait_until`] gave up before its condition held.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stalled {
    /// Simulation events consumed while waiting.
    pub events: u64,
    /// The event queue drained — nothing will ever make progress again.
    /// Otherwise the caller's budget ran out with events still pending.
    pub drained: bool,
}

impl std::fmt::Display for Stalled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Stalled { events, drained } = *self;
        if drained {
            write!(f, "event queue drained after {events} events")
        } else {
            write!(f, "not settled within {events} events")
        }
    }
}

/// Whether [`wait_until`] consults its condition before the first event or
/// only after it. This decides at which event the caller resumes, so each
/// caller states it: a wait that follows a request it just posted steps
/// first (the answer cannot be there yet, and a stale one must not count);
/// a wait on something that may already have happened checks first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Order {
    /// Check, then step while the condition does not hold.
    CheckFirst,
    /// Fire one event before the first check.
    StepFirst,
}

/// The one host-side wait loop: fire simulation events one at a time until
/// `ready` yields a value, the event queue drains, or `max_events` have
/// fired. `ready` runs after every event, so the caller resumes at exactly
/// the event that made it hold.
pub fn wait_until<T>(
    w: &mut World,
    sim: &mut OsSim,
    max_events: u64,
    order: Order,
    mut ready: impl FnMut(&mut World) -> Option<T>,
) -> Result<T, Stalled> {
    let start = sim.events_fired();
    let mut found = match order {
        Order::CheckFirst => ready(w),
        Order::StepFirst => None,
    };
    loop {
        if let Some(v) = found {
            return Ok(v);
        }
        let drained = !sim.step(w);
        let events = sim.events_fired() - start;
        if drained {
            return Err(Stalled { events, drained });
        }
        found = ready(w);
        if found.is_none() && events >= max_events {
            return Err(Stalled { events, drained });
        }
    }
}

/// A running DMTCP session (one coordinator + its computation).
#[derive(Debug, Clone)]
pub struct Session {
    /// Launch options in force.
    pub opts: Options,
    /// Coordinator process.
    pub coord_pid: Pid,
}

impl Session {
    /// Start a coordinator with `opts`.
    pub fn start(w: &mut World, sim: &mut OsSim, opts: Options) -> Session {
        let coord_pid = spawn_coordinator(w, sim, &opts);
        // Let it bind its port before anything tries to register.
        sim.run_until(w, sim.now() + Nanos::from_millis(1));
        Session { opts, coord_pid }
    }

    /// `dmtcp_checkpoint <program>` on `node`.
    pub fn launch(
        &self,
        w: &mut World,
        sim: &mut OsSim,
        node: NodeId,
        cmd: &str,
        prog: Box<dyn Program>,
    ) -> Pid {
        launch_under_dmtcp(w, sim, node, cmd, prog, &self.opts)
    }

    /// `dmtcp_command --checkpoint` (asynchronous).
    pub fn request_checkpoint(&self, w: &mut World, sim: &mut OsSim) {
        w.obs.journal.record(
            sim.now(),
            obs::journal::CLASS_STAGE,
            "session.ckpt_request",
            None,
            &[("port", self.opts.coord_port as u64)],
            "",
        );
        crate::coord::request_checkpoint(w, sim, self.opts.coord_port);
    }

    /// How many generations this session's coordinator has opened — the
    /// mark [`Session::settled_since`] looks past.
    pub fn generations(&self, w: &mut World) -> usize {
        coord_shared_for(w, self.opts.coord_port).gen_stats.len()
    }

    /// The newest generation, once one opened after mark `before` has
    /// *settled*: the stage-6 barrier released, or the coordinator
    /// abandoned it because a participant died.
    pub fn settled_since(&self, w: &mut World, before: usize) -> Option<GenStat> {
        let stats = &coord_shared_for(w, self.opts.coord_port).gen_stats;
        let g = stats.get(before..)?.last()?;
        (g.aborted || g.releases.contains_key(&stage::REFILLED)).then(|| g.clone())
    }

    /// Request a checkpoint and run the simulation until it completes
    /// (stage-6 barrier released). Returns the generation's stats, or a
    /// typed [`CkptError`] when the generation aborted (a participant died
    /// mid-protocol) or did not settle within `max_events`.
    ///
    /// Tests that treat failure as fatal chain [`ExpectCkpt::expect_ckpt`],
    /// which panics at the caller's location with the error's message.
    pub fn checkpoint_and_wait(
        &self,
        w: &mut World,
        sim: &mut OsSim,
        max_events: u64,
    ) -> Result<GenStat, CkptError> {
        let before = self.generations(w);
        self.request_checkpoint(w, sim);
        wait_until(w, sim, max_events, Order::StepFirst, |w| {
            self.settled_since(w, before)
        })
        .map_err(CkptError::from)
        .and_then(completed)
    }

    /// Request a checkpoint and run the simulation until it *settles*:
    /// either the stage-6 barrier is released (completed) or the
    /// coordinator abandons the generation because a participant died
    /// (aborted). Unlike [`Session::checkpoint_and_wait`], an abort is a
    /// reportable outcome here, not an error; a stall panics.
    pub fn checkpoint_until_settled(
        &self,
        w: &mut World,
        sim: &mut OsSim,
        max_events: u64,
    ) -> CkptOutcome {
        let before = self.generations(w);
        self.request_checkpoint(w, sim);
        let settled = wait_until(w, sim, max_events, Order::StepFirst, |w| {
            self.settled_since(w, before)
        });
        match settled {
            Ok(gs) if gs.aborted => CkptOutcome::Aborted(gs),
            Ok(gs) => CkptOutcome::Completed(gs),
            Err(e) => panic!(
                "checkpoint neither completed nor aborted: {e} (virtual time now {:?})",
                sim.now()
            ),
        }
    }

    /// The most recent generation stats.
    pub fn last_gen_stat(&self, w: &mut World) -> Option<GenStat> {
        coord_shared_for(w, self.opts.coord_port)
            .gen_stats
            .last()
            .cloned()
    }

    /// Run the simulation until the newest generation-`gen` stats of the
    /// coordinator on `port` show barrier `stg` released, and return them.
    /// A *checkpoint* stage also gives up — `None` — once that generation
    /// is abandoned. A restart stage does not: an aborted entry may belong
    /// to an earlier attempt at the same generation, and the plan being
    /// awaited opens a fresh one when it reaches the coordinator. For the
    /// same reason a restart stage only counts in stats opened at or after
    /// this call: an earlier restore of the same generation — a migration
    /// to it, a previous restart — has released it already.
    ///
    /// Panics if neither happens within `max_events`.
    pub fn await_release(
        w: &mut World,
        sim: &mut OsSim,
        port: u16,
        gen: u64,
        stg: u8,
        max_events: u64,
    ) -> Option<GenStat> {
        let restart = stg >= stage::RESTORED;
        let since = if restart { sim.now() } else { Nanos::ZERO };
        wait_until(w, sim, max_events, Order::CheckFirst, |w| {
            let g = coord_shared_for(w, port)
                .newest(gen)
                .filter(|g| g.requested_at >= since)?;
            if g.releases.contains_key(&stg) {
                Some(Some(g.clone()))
            } else if g.aborted && !restart {
                Some(None)
            } else {
                None
            }
        })
        .unwrap_or_else(|e| {
            panic!(
                "awaiting {} of generation {gen}: {e}",
                stage::release_name(stg)
            )
        })
    }

    /// Run the simulation until generation `gen`'s overlapped drain phase
    /// settles on the default-port coordinator: either `CKPT_WRITTEN` is
    /// released (every image durable and acknowledged — returns the updated
    /// stats) or the coordinator abandons the drain (returns `None`;
    /// restart must use the previous generation). With forked checkpointing
    /// off this returns immediately after the checkpoint, since in-line
    /// writes ack before refill. Other ports: [`Session::await_release`].
    pub fn wait_ckpt_written(
        w: &mut World,
        sim: &mut OsSim,
        gen: u64,
        max_events: u64,
    ) -> Option<GenStat> {
        let port = crate::coord::COORD_PORT;
        Self::await_release(w, sim, port, gen, stage::CKPT_WRITTEN, max_events)
    }

    /// SIGKILL this session's computation — every live process answering
    /// to this session's root coordinator port — as a simulated failure.
    /// The coordinator survives, as in real deployments, and so does any
    /// other session's computation in the same world.
    pub fn kill_computation(&self, w: &mut World, sim: &mut OsSim) {
        w.obs.journal.record(
            sim.now(),
            obs::journal::CLASS_STAGE,
            "session.kill",
            None,
            &[],
            "",
        );
        let port = self.opts.coord_port;
        let victims: Vec<Pid> = w
            .procs
            .iter()
            .filter(|(_, p)| p.alive())
            .filter(|(_, p)| crate::hijack::hijack_in(p).is_some_and(|h| h.root_port == port))
            .map(|(pid, _)| *pid)
            .collect();
        for pid in victims {
            w.signal(sim, pid, sig::SIGKILL);
        }
        sim.run_until(w, sim.now() + Nanos::from_millis(1));
    }

    /// Run the simulation until the restart completes (restart-refill
    /// barrier released for `gen`) on the default-port coordinator. Other
    /// ports: [`Session::await_release`].
    pub fn wait_restart_done(w: &mut World, sim: &mut OsSim, gen: u64, max_events: u64) {
        let port = crate::coord::COORD_PORT;
        Self::await_release(w, sim, port, gen, stage::RESTART_REFILLED, max_events);
    }
}

/// Why [`Session::checkpoint_and_wait`] did not return a completed
/// generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// The protocol neither completed nor aborted within the caller's
    /// event budget (or the event queue drained) — a hung barrier or a
    /// budget set too tight.
    BudgetExhausted {
        /// Simulation events consumed while waiting.
        events: u64,
    },
    /// The coordinator abandoned the generation (a participant died
    /// mid-protocol); survivors rolled back and resumed computing.
    Aborted {
        /// The abandoned generation.
        gen: u64,
        /// First barrier stage that had not been released — where the
        /// protocol died.
        stage: u8,
    },
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::BudgetExhausted { events } => {
                write!(f, "checkpoint did not settle within {events} events")
            }
            CkptError::Aborted { gen, stage } => {
                write!(f, "checkpoint generation {gen} aborted at stage {stage}")
            }
        }
    }
}

impl std::error::Error for CkptError {}

impl From<Stalled> for CkptError {
    fn from(s: Stalled) -> Self {
        CkptError::BudgetExhausted { events: s.events }
    }
}

/// A settled generation as a result: its stats when it completed, the
/// typed abort when the coordinator abandoned it.
pub fn completed(gs: GenStat) -> Result<GenStat, CkptError> {
    if gs.aborted {
        return Err(CkptError::Aborted {
            gen: gs.gen,
            stage: first_missing_stage(&gs),
        });
    }
    Ok(gs)
}

/// First of the in-order checkpoint barrier stages that `g` never
/// released — the stage at which an aborted generation died.
pub fn first_missing_stage(g: &GenStat) -> u8 {
    stage::CHECKPOINT
        .into_iter()
        .find(|s| !g.releases.contains_key(s))
        .unwrap_or(stage::CKPT_WRITTEN)
}

/// Test convenience for [`Session::checkpoint_and_wait`]: unwrap the
/// completed generation or panic at the *caller's* line with the typed
/// error's message.
pub trait ExpectCkpt {
    /// Unwrap, panicking (with caller location) on any [`CkptError`].
    fn expect_ckpt(self) -> GenStat;
}

impl ExpectCkpt for Result<GenStat, CkptError> {
    #[track_caller]
    fn expect_ckpt(self) -> GenStat {
        match self {
            Ok(g) => g,
            Err(e) => panic!("checkpoint failed: {e}"),
        }
    }
}

/// How a requested checkpoint settled (see
/// [`Session::checkpoint_until_settled`]).
#[derive(Debug, Clone)]
pub enum CkptOutcome {
    /// The stage-6 barrier released; the generation's images are on disk.
    Completed(GenStat),
    /// A participant died mid-protocol; the coordinator rolled the
    /// survivors back and the generation's images must not be trusted.
    Aborted(GenStat),
}

/// A successful restart ([`crate::restart::plan::RestartPlan::execute`]).
#[derive(Debug, Clone)]
pub struct RestartOutcome {
    /// The generation actually restarted (may be older than the newest).
    pub gen: u64,
    /// Restart process pids.
    pub pids: Vec<Pid>,
    /// Images (and catalog records) rejected along the way, with the
    /// validation error.
    pub rejected: Vec<(String, String)>,
    /// Where each process was restored: node → virtual pids, sorted.
    /// Summing the vpids over every node reproduces the restored process
    /// set exactly — the accounting invariant heterogeneous-restart tests
    /// check.
    pub placement: Vec<(NodeId, Vec<u32>)>,
}

/// Why a restart plan could not restart (or migrate) anything.
#[derive(Debug, Clone, PartialEq)]
pub enum RestartError {
    /// No generation ever committed: the catalog holds no record (and so
    /// no restart script was ever written).
    NoScript,
    /// Every committed generation had an invalid image or record.
    NoUsableGeneration {
        /// Each rejected image or record with its validation error.
        rejected: Vec<(String, String)>,
    },
    /// The plan pinned a generation that has no catalog record: it never
    /// committed, was rolled back, or its images expired from the store.
    MissingGeneration {
        /// The requested generation.
        gen: u64,
    },
    /// A generation's catalog record is on storage but cannot be trusted
    /// (truncated, bit-rotted, or written for another generation).
    BadRecord {
        /// The record's path on shared storage.
        path: String,
        /// What is wrong with it.
        reason: String,
    },
    /// An image of a pinned (or newest, non-resilient) generation could
    /// not be read or validated from any node — no replica survives.
    ReplicaUnreachable {
        /// The unreachable image path.
        path: String,
        /// The last resolution or validation error.
        reason: String,
    },
    /// The target topology cannot hold the colocation units: fewer
    /// placement slots than units, or every candidate node has a
    /// conflicting listener port.
    TopologyTooSmall {
        /// Colocation units that needed placing.
        needed: u32,
        /// Target nodes offered.
        got: u32,
    },
    /// A subset plan referenced processes whose shared objects, socket
    /// connections, ptys, or parent/child links cross the subset boundary.
    SubsetNotClosed {
        /// Which link crosses, and where.
        detail: String,
    },
    /// A live migration did not complete: the pre-migration checkpoint
    /// failed, a mover died mid-restore, or the restart stages never
    /// settled. Bystanders and committed generations are untouched; the
    /// caller may retry onto a different topology.
    AbortedDuringMigration {
        /// The generation being migrated (0 when the pre-migration
        /// checkpoint never committed a generation).
        gen: u64,
    },
}

impl std::fmt::Display for RestartError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestartError::NoScript => write!(f, "no committed generation on shared storage"),
            RestartError::NoUsableGeneration { rejected } => write!(
                f,
                "no complete checkpoint generation on storage ({} images rejected)",
                rejected.len()
            ),
            RestartError::MissingGeneration { gen } => {
                write!(f, "generation {gen} was never committed")
            }
            RestartError::BadRecord { path, reason } => {
                write!(f, "catalog record {path} is unusable: {reason}")
            }
            RestartError::ReplicaUnreachable { path, reason } => {
                write!(f, "no replica can serve {path}: {reason}")
            }
            RestartError::TopologyTooSmall { needed, got } => write!(
                f,
                "target topology too small: {needed} colocation units, {got} placeable nodes"
            ),
            RestartError::SubsetNotClosed { detail } => {
                write!(f, "subset is not closed: {detail}")
            }
            RestartError::AbortedDuringMigration { gen } => {
                write!(f, "migration of generation {gen} aborted")
            }
        }
    }
}

impl std::error::Error for RestartError {}

/// Copy checkpoint artifacts from one world to another: the shared
/// filesystem always, and each node's local filesystem onto the same node
/// index when the topologies allow. This is "the storage survived the
/// crash"; everything else about the old world is discarded.
pub fn transplant_storage(src: &World, dst: &mut World) {
    dst.shared_fs = src.shared_fs.clone();
    for (i, node) in src.nodes.iter().enumerate() {
        if let Some(dnode) = dst.nodes.get_mut(i) {
            dnode.fs = node.fs.clone();
        }
    }
}

/// Convenience: run the simulation for a fixed virtual duration.
pub fn run_for(w: &mut World, sim: &mut OsSim, dur: Nanos) {
    let deadline = sim.now() + dur;
    sim.run_until(w, deadline);
}

/// Turn on the flight recorder for this world: record the given event
/// classes (see `obs::journal::CLASS_*`), stamp `meta` key/value pairs into
/// the journal header, and install the protocol message tagger so
/// `msg.send` events carry wire-message variant names. The enabled class
/// mask is itself stored under the `classes` meta key, so
/// [`crate::replay`] can re-arm an identical recording.
pub fn enable_flight_recorder(w: &mut World, classes: u8, meta: &[(&str, &str)]) {
    w.obs.journal.enable(classes);
    w.obs.journal.set_meta("classes", format!("{classes}"));
    for (k, v) in meta {
        w.obs.journal.set_meta(k, *v);
    }
    crate::launch::install_msg_tagger(w);
}

/// Export the recorded flight-recorder journal as versioned JSONL (the
/// format `obs::journal::decode_jsonl` and `dmtcp replay` consume).
pub fn export_journal(w: &mut World) -> String {
    w.obs.journal_jsonl()
}
