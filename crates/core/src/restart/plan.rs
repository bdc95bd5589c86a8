//! Heterogeneous restart planning and live migration.
//!
//! [`RestartPlan`] is the one way to restart: it maps a committed
//! checkpoint generation onto an *arbitrary* target topology — the nodes
//! that wrote the images, fewer (the paper's "continue on your laptop"
//! pack-down), or more (gang rescheduling onto a grown cluster) — and can
//! drive a **live migration** of a process subset while the rest of the
//! computation keeps running.
//!
//! # Placement
//!
//! Images are grouped into *colocation units* before packing. Two processes
//! must restore inside the same per-host restart process when they
//! genuinely share kernel objects:
//!
//! * a shared socket endpoint — the same `(gsid, end)` held by several
//!   processes (fork-inherited pipe/socketpair ends): only the end's
//!   elected leader recreates it, sharers resolve it from the restart
//!   process's local map;
//! * a shared pseudo-terminal — the master holder carries the saved pty
//!   state, every slave resolves the recreated pty locally;
//! * a parent/child link — `waitpid` and fd inheritance assume the pair
//!   restored together.
//!
//! Units are then packed onto the target nodes by [`Packing`] policy,
//! skipping any node where a unit's listening ports collide with ports
//! already in use there (a bystander's listener during live migration, or
//! another unit placed earlier). Connected-socket pairs are *not* units:
//! both ends reconnect through the coordinator's discovery service, so they
//! may land on different nodes.
//!
//! # Live migration
//!
//! [`RestartPlan::migrate`] moves a closed subset of processes between
//! nodes mid-run: checkpoint on the source, kill only the movers, restore
//! on the target from the checkpoint store — replica-served reads are the
//! transfer channel, so the source node may die the instant the images are
//! committed — while the coordinator re-arms only the restart-stage
//! barriers for the movers ([`Msg::MigratePlan`]) and every bystander keeps
//! computing. The subset must be *closed*: no shared fd object, pty,
//! parent/child link, or live connection may cross the subset boundary
//! (cross-boundary reconnection would need the bystander's cooperation,
//! which the paper's restart protocol does not have).

use crate::catalog::{self, GenRecord};
use crate::coord::{coord_shared_for, stage};
use crate::gsid::Gsid;
use crate::hijack::{hijack_in, FdKindRec};
use crate::launch::Topology;
use crate::proto::Msg;
use crate::restart::RestartProc;
use crate::session::{wait_until, Order, RestartError, RestartOutcome, Session};
use oskit::proc::sig;
use oskit::world::{NodeId, OsSim, Pid, World};
use simkit::{Nanos, Snap};
use std::collections::{BTreeMap, BTreeSet};

/// How colocation units are distributed over the target nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Packing {
    /// Unit *i* starts at target *i mod n* and probes forward — spreads
    /// load evenly across the target topology.
    #[default]
    RoundRobin,
    /// Every unit goes to the first target node it fits on — fills nodes
    /// in order, leaving later nodes empty when the work fits early.
    Fill,
}

/// A typed restart plan: which generation to restore, onto which nodes,
/// packed how, restricted to which processes. Build with
/// [`RestartPlan::builder`] (or [`RestartPlan::from_generation`] /
/// [`RestartPlan::newest`]) and run with [`RestartPlan::execute`] (cold
/// restart) or [`RestartPlan::migrate`] (live subset migration).
#[derive(Debug, Clone, Default)]
pub struct RestartPlan {
    gen: Option<u64>,
    topology: Option<Vec<NodeId>>,
    pack: Packing,
    only: Option<BTreeSet<u32>>,
    resilient: bool,
}

/// Builder for [`RestartPlan`]; see the type docs for field semantics.
#[derive(Debug, Clone, Default)]
pub struct RestartPlanBuilder {
    plan: RestartPlan,
}

impl RestartPlanBuilder {
    /// Pin the generation to restore. Unset: the newest generation in the
    /// catalog.
    pub fn generation(mut self, gen: u64) -> Self {
        self.plan.gen = Some(gen);
        self
    }

    /// Target topology: the nodes to restore onto, packed by the
    /// [`Packing`] policy. Unset: every image goes back to the host that
    /// wrote it (identity placement — the classic in-place restart).
    pub fn topology(mut self, nodes: impl IntoIterator<Item = NodeId>) -> Self {
        self.plan.topology = Some(nodes.into_iter().collect());
        self
    }

    /// Packing policy over the target topology (default
    /// [`Packing::RoundRobin`]; ignored under identity placement).
    pub fn pack(mut self, pack: Packing) -> Self {
        self.plan.pack = pack;
        self
    }

    /// Restrict the plan to these virtual pids. The subset must be closed
    /// under shared-object and parent/child links, and — when executed as
    /// a live migration — under socket connections too.
    pub fn only_pids(mut self, vpids: impl IntoIterator<Item = u32>) -> Self {
        self.plan.only = Some(vpids.into_iter().collect());
        self
    }

    /// Whole-generation fallback: validate every image of the newest
    /// committed generation and fall back one committed generation at a
    /// time when its record or any of its images is torn, rotted, or
    /// missing. Only meaningful when no generation is pinned.
    pub fn resilient(mut self, on: bool) -> Self {
        self.plan.resilient = on;
        self
    }

    /// Finish the plan.
    pub fn build(self) -> RestartPlan {
        self.plan
    }
}

/// A completed [`RestartPlan::migrate`].
#[derive(Debug, Clone)]
pub struct MigrationReport {
    /// The generation the movers were checkpointed into and restored from.
    pub gen: u64,
    /// Virtual pids that moved.
    pub moved: BTreeSet<u32>,
    /// Where each mover was restored: node → virtual pids, sorted.
    pub placement: Vec<(NodeId, Vec<u32>)>,
    /// Restart-process pids spawned on the target nodes.
    pub pids: Vec<Pid>,
    /// The movers' unavailability window: from the coordinator receiving
    /// the migrate plan to the restart-refill barrier releasing. Directly
    /// comparable to a full restart's request→`RESTART_REFILLED` window.
    pub pause: Nanos,
}

/// Everything the planner needs to know about one image, read from its
/// connection-information table without restoring anything.
#[derive(Debug, Clone)]
struct ImgMeta {
    path: String,
    vpid: u32,
    origin: String,
    /// Listening ports the restored process re-binds.
    ports: BTreeSet<u16>,
    /// Socket endpoints held — `(gsid, end)`; sharing one means sharing
    /// the restored fd object.
    sock_ends: BTreeSet<(Gsid, u8)>,
    /// Connection gsids referenced (either end).
    sock_gsids: BTreeSet<Gsid>,
    /// Pseudo-terminal gsids referenced (master or slave side).
    pty_gsids: BTreeSet<Gsid>,
    parent_vpid: u32,
}

impl RestartPlan {
    /// A fresh builder.
    pub fn builder() -> RestartPlanBuilder {
        RestartPlanBuilder::default()
    }

    /// The default plan: newest generation, identity placement.
    pub fn newest() -> RestartPlan {
        RestartPlan::default()
    }

    /// A plan pinned to generation `gen` of the computation rooted at
    /// `port`, validated against the catalog ([`catalog::read`]):
    /// [`RestartError::NoScript`] when no generation ever committed,
    /// [`RestartError::MissingGeneration`] when `gen` has no record,
    /// [`RestartError::BadRecord`] when its record cannot be trusted.
    pub fn from_generation(w: &World, port: u16, gen: u64) -> Result<RestartPlan, RestartError> {
        catalog::read(w, port, gen)?;
        Ok(RestartPlan::builder().generation(gen).build())
    }

    /// Cold restart: map the chosen generation onto the target topology and
    /// spawn one restart process per occupied node. The previous computation
    /// must be dead (or, with [`only_pids`](RestartPlanBuilder::only_pids),
    /// the subset dead — the coordinator then re-arms only the restart-stage
    /// barriers, leaving live bystanders registered). Returns as soon as the
    /// restart processes are spawned; drive to completion with
    /// [`Session::wait_restart_done`].
    pub fn execute(
        &self,
        s: &Session,
        w: &mut World,
        sim: &mut OsSim,
    ) -> Result<RestartOutcome, RestartError> {
        let port = s.opts.coord_port;
        // Candidate generations, newest first: a pinned generation and the
        // non-resilient newest are strict — they fail hard on the first bad
        // record or image; resilient mode rejects the generation and falls
        // back to the next committed one instead.
        let strict = self.gen.is_some() || !self.resilient;
        let cands = match self.gen {
            Some(g) => vec![g],
            None => {
                let committed = catalog::generations(w, port).into_iter().rev();
                committed
                    .take(if strict { 1 } else { usize::MAX })
                    .collect()
            }
        };
        if cands.is_empty() {
            return Err(RestartError::NoScript);
        }
        let mut rejected: Vec<(String, String)> = Vec::new();
        for g in cands {
            // Generation g's own process set and hosts, from its record.
            let planned = catalog::read(w, port, g)
                .and_then(|rec| read_metas(w, &rec))
                .and_then(|metas| match &self.only {
                    Some(only) => closed_subset(&metas, only),
                    None => Ok(metas),
                })
                .and_then(|metas| {
                    let placement = place_verified(w, &metas, self.topology.as_deref(), self.pack)?;
                    Ok((metas, placement))
                });
            let (metas, placement) = match planned {
                Ok(planned) => planned,
                // A rotted record rejects its generation like a rotted image.
                Err(
                    RestartError::ReplicaUnreachable { path, reason }
                    | RestartError::BadRecord { path, reason },
                ) if !strict => {
                    w.obs.metrics.inc("core.restart.rejected_images", g);
                    rejected.push((path, reason));
                    continue;
                }
                Err(e) => return Err(e),
            };
            let pids = spawn_restart_procs(s, w, sim, &placement, &metas, g, self.only.is_some());
            return Ok(RestartOutcome {
                gen: g,
                pids,
                rejected,
                placement: placement_vpids(&placement, &metas),
            });
        }
        Err(RestartError::NoUsableGeneration { rejected })
    }

    /// Live migration: checkpoint the whole computation, kill only the
    /// subset named by [`only_pids`](RestartPlanBuilder::only_pids), and
    /// restore it on the [`topology`](RestartPlanBuilder::topology) nodes
    /// from the just-committed generation while every bystander keeps
    /// running. Blocks until the movers resume (restart-refill barrier) or
    /// the migration aborts.
    ///
    /// Requires a checkpoint path the *target* nodes can read — the
    /// chunk-store's replicas (the transfer channel) or a shared-filesystem
    /// checkpoint directory.
    ///
    /// # Panics
    ///
    /// When the plan has no subset or no target topology (programmer
    /// error), or a pinned generation (the movers restore from the
    /// checkpoint this call takes — a historical generation cannot be
    /// "live" migrated).
    pub fn migrate(
        &self,
        s: &Session,
        w: &mut World,
        sim: &mut OsSim,
        max_events: u64,
    ) -> Result<MigrationReport, RestartError> {
        let only = self.only.clone().expect("migrate() requires only_pids()");
        let targets = self.topology.as_deref();
        assert!(targets.is_some(), "migrate() requires a target topology()");
        assert!(
            self.gen.is_none(),
            "migrate() checkpoints now; it cannot restore a pinned generation"
        );
        let port = s.opts.coord_port;
        w.obs.journal.record(
            sim.now(),
            obs::journal::CLASS_STAGE,
            "session.migrate",
            None,
            &[("port", port as u64)],
            "",
        );
        // 1. Checkpoint-on-source: commit the movers' state (and everyone
        // else's — a consistent global generation) and wait until every
        // image is durable, so the restore has a complete copy to pull.
        let gs = match s.checkpoint_and_wait(w, sim, max_events) {
            Ok(gs) => gs,
            Err(crate::session::CkptError::Aborted { gen, .. }) => {
                return Err(RestartError::AbortedDuringMigration { gen })
            }
            Err(crate::session::CkptError::BudgetExhausted { .. }) => {
                return Err(RestartError::AbortedDuringMigration { gen: 0 })
            }
        };
        let g = gs.gen;
        if Session::await_release(w, sim, port, g, stage::CKPT_WRITTEN, max_events).is_none() {
            return Err(RestartError::AbortedDuringMigration { gen: g });
        }

        // 2. Plan: the record just committed, subset closure, placement.
        let metas = read_metas(w, &catalog::read(w, port, g)?)?;
        let movers = closed_subset(&metas, &only)?;

        // 3. Kill exactly the movers and wait for the coordinator to reap
        // their EOFs — idle EOFs only deregister (no abort), but a kill
        // racing the MigratePlan announcement would read as a participant
        // dying mid-restart. Under the hierarchical topology the movers sit
        // behind relays, so the root's direct-client count is untouched;
        // their relays report the membership drop instead.
        let real: Vec<Pid> = w
            .procs
            .iter()
            .filter(|(_, p)| p.alive())
            .filter(|(_, p)| {
                hijack_in(p).is_some_and(|h| h.root_port == port && only.contains(&h.vpid))
            })
            .map(|(pid, _)| *pid)
            .collect();
        let before = coord_shared_for(w, port).coord_participants;
        for pid in &real {
            w.signal(sim, *pid, sig::SIGKILL);
        }
        let direct = match s.opts.topology {
            Topology::Flat => real.len() as u32,
            Topology::Hierarchical => 0,
        };
        let target = before.saturating_sub(direct);
        wait_until(w, sim, max_events, Order::CheckFirst, |w| {
            (coord_shared_for(w, port).coord_participants <= target).then_some(())
        })
        .map_err(|_| RestartError::AbortedDuringMigration { gen: g })?;
        crate::session::run_for(w, sim, Nanos::from_millis(2));

        // 4. Restore-on-target. Placement happens after the kill so the
        // movers' own freed listener ports no longer count as in use.
        let placement = place_verified(w, &movers, targets, self.pack)?;
        // Faults targeting "node loss during migration" fire here — after
        // the images are committed and validated, before the restore reads
        // them — so a dying source node exercises the replica channel and a
        // dying target kills the restore mid-flight.
        faultkit::migration_started(w, sim, g);
        let pids = spawn_restart_procs(s, w, sim, &placement, &movers, g, true);

        // 5. Drive until the movers resume or the migration aborts. The
        // newest generation-g stat is the migration's own (pushed when the
        // coordinator received the MigratePlan); the checkpoint's stat for
        // g sits earlier in the list and never gains restart stages.
        let pause = wait_until(w, sim, max_events, Order::CheckFirst, |w| {
            let st = coord_shared_for(w, port).newest(g)?;
            if st.aborted {
                return Some(None);
            }
            let done = st.releases.get(&stage::RESTART_REFILLED)?;
            Some(Some(*done - st.requested_at))
        });
        match pause {
            Ok(Some(pause)) => Ok(MigrationReport {
                gen: g,
                moved: movers.iter().map(|m| m.vpid).collect(),
                placement: placement_vpids(&placement, &movers),
                pids,
                pause,
            }),
            Ok(None) | Err(_) => Err(RestartError::AbortedDuringMigration { gen: g }),
        }
    }
}

/// Spawn one restart process per node of `placement`. Exactly one (the
/// first) carries the plan announcement; `migrate` selects
/// [`Msg::MigratePlan`] semantics (movers only) over a full
/// [`Msg::RestartPlan`].
fn spawn_restart_procs(
    s: &Session,
    w: &mut World,
    sim: &mut OsSim,
    placement: &BTreeMap<NodeId, Vec<usize>>,
    metas: &[ImgMeta],
    gen: u64,
    migrate: bool,
) -> Vec<Pid> {
    if !migrate {
        w.obs.journal.record(
            sim.now(),
            obs::journal::CLASS_STAGE,
            "session.restart",
            None,
            &[("gen", gen)],
            "",
        );
    }
    crate::launch::install_hook(w);
    let coord_host = w.node(s.opts.coord_node).hostname.clone();
    let total: u32 = placement.values().map(|v| v.len() as u32).sum();
    let mut announce = Some(if migrate {
        Msg::MigratePlan(total, gen)
    } else {
        Msg::RestartPlan(total, gen)
    });
    let mut restart_pids = Vec::new();
    for (node, idxs) in placement {
        let prog = Box::new(RestartProc::new(
            idxs.iter().map(|&i| metas[i].path.clone()).collect(),
            coord_host.clone(),
            s.opts.coord_port,
            gen,
            announce.take(),
        ));
        let pid = w.spawn(sim, *node, "dmtcp_restart", prog, Pid(1), BTreeMap::new());
        restart_pids.push(pid);
    }
    restart_pids
}

/// Planning metadata for every image of `rec`, in record order; the first
/// image no node can serve fails the generation.
fn read_metas(w: &World, rec: &GenRecord) -> Result<Vec<ImgMeta>, RestartError> {
    rec.paths()
        .map(|(host, path)| {
            read_meta(w, host, &path)
                .map_err(|reason| RestartError::ReplicaUnreachable { path, reason })
        })
        .collect()
}

/// Read one image's planning metadata from whichever node can resolve it:
/// the origin host first (cheapest), then every node in index order (the
/// replica path). `Err` carries the last resolution failure.
fn read_meta(w: &World, origin: &str, path: &str) -> Result<ImgMeta, String> {
    let mut order: Vec<NodeId> = Vec::new();
    if let Some(n) = w.resolve(origin) {
        order.push(n);
    }
    for i in 0..w.nodes.len() {
        let n = NodeId(i as u32);
        if !order.contains(&n) {
            order.push(n);
        }
    }
    let mut last = String::from("no node holds the image");
    for node in order {
        match mtcp::read_image(w, node, path) {
            Ok(img) => {
                let Ok(table) = crate::hijack::ConnTable::from_snap_bytes(&img.dmtcp_meta) else {
                    return Err("connection table does not parse".to_string());
                };
                let mut m = ImgMeta {
                    path: path.to_string(),
                    vpid: table.vpid,
                    origin: origin.to_string(),
                    ports: BTreeSet::new(),
                    sock_ends: BTreeSet::new(),
                    sock_gsids: BTreeSet::new(),
                    pty_gsids: BTreeSet::new(),
                    parent_vpid: table.parent_vpid,
                };
                for r in &table.records {
                    match &r.kind {
                        FdKindRec::Listener { port } => {
                            m.ports.insert(*port);
                        }
                        FdKindRec::Sock { gsid, end, .. } => {
                            m.sock_ends.insert((*gsid, *end));
                            m.sock_gsids.insert(*gsid);
                        }
                        FdKindRec::PtyMaster { gsid } | FdKindRec::PtySlave { gsid } => {
                            m.pty_gsids.insert(*gsid);
                        }
                        FdKindRec::File { .. } => {}
                    }
                }
                return Ok(m);
            }
            Err(e) => last = e.to_string(),
        }
    }
    Err(last)
}

/// Filter `metas` to the subset named by `only`, verifying closure: every
/// shared object, socket connection, pty, and parent/child link referenced
/// by a subset member must lie entirely inside the subset.
fn closed_subset(metas: &[ImgMeta], only: &BTreeSet<u32>) -> Result<Vec<ImgMeta>, RestartError> {
    let all_vpids: BTreeSet<u32> = metas.iter().map(|m| m.vpid).collect();
    for v in only {
        if !all_vpids.contains(v) {
            return Err(RestartError::SubsetNotClosed {
                detail: format!("vpid {v} is not part of the generation"),
            });
        }
    }
    let inside = |v: u32| only.contains(&v);
    // Any gsid (connection or pty) referenced by a subset member must be
    // referenced only by subset members.
    let mut refs: BTreeMap<Gsid, Vec<u32>> = BTreeMap::new();
    for m in metas {
        for g in m.sock_gsids.iter().chain(m.pty_gsids.iter()) {
            refs.entry(*g).or_default().push(m.vpid);
        }
    }
    for m in metas.iter().filter(|m| inside(m.vpid)) {
        for g in m.sock_gsids.iter().chain(m.pty_gsids.iter()) {
            if let Some(out) = refs[g].iter().find(|v| !inside(**v)) {
                return Err(RestartError::SubsetNotClosed {
                    detail: format!(
                        "gsid {:#x} is shared with vpid {out} outside the subset",
                        g.0
                    ),
                });
            }
        }
    }
    for m in metas {
        if m.parent_vpid != 0
            && all_vpids.contains(&m.parent_vpid)
            && inside(m.vpid) != inside(m.parent_vpid)
        {
            return Err(RestartError::SubsetNotClosed {
                detail: format!(
                    "parent/child link {} -> {} crosses the subset boundary",
                    m.parent_vpid, m.vpid
                ),
            });
        }
    }
    Ok(metas.iter().filter(|m| inside(m.vpid)).cloned().collect())
}

/// Group metas into colocation units (union-find over shared socket
/// endpoints, shared ptys, and parent/child links), deterministically
/// ordered by their smallest vpid.
fn colocation_units(metas: &[ImgMeta]) -> Vec<Vec<usize>> {
    let mut parent: Vec<usize> = (0..metas.len()).collect();
    fn find(p: &mut [usize], mut i: usize) -> usize {
        while p[i] != i {
            p[i] = p[p[i]];
            i = p[i];
        }
        i
    }
    fn union(p: &mut [usize], a: usize, b: usize) {
        let (ra, rb) = (find(p, a), find(p, b));
        if ra != rb {
            p[ra] = rb;
        }
    }
    let mut end_owner: BTreeMap<(Gsid, u8), usize> = BTreeMap::new();
    let mut pty_owner: BTreeMap<Gsid, usize> = BTreeMap::new();
    let mut by_vpid: BTreeMap<u32, usize> = BTreeMap::new();
    for (i, m) in metas.iter().enumerate() {
        by_vpid.insert(m.vpid, i);
        for e in &m.sock_ends {
            match end_owner.get(e) {
                Some(&j) => union(&mut parent, i, j),
                None => {
                    end_owner.insert(*e, i);
                }
            }
        }
        for g in &m.pty_gsids {
            match pty_owner.get(g) {
                Some(&j) => union(&mut parent, i, j),
                None => {
                    pty_owner.insert(*g, i);
                }
            }
        }
    }
    for (i, m) in metas.iter().enumerate() {
        if m.parent_vpid != 0 {
            if let Some(&j) = by_vpid.get(&m.parent_vpid) {
                union(&mut parent, i, j);
            }
        }
    }
    let mut units: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for i in 0..metas.len() {
        let r = find(&mut parent, i);
        units.entry(r).or_default().push(i);
    }
    let mut out: Vec<Vec<usize>> = units.into_values().collect();
    for u in &mut out {
        u.sort_by_key(|&i| metas[i].vpid);
    }
    out.sort_by_key(|u| metas[u[0]].vpid);
    out
}

/// Place metas onto nodes: identity (no target topology) or packed.
/// Returns node → meta indices.
fn place(
    w: &World,
    metas: &[ImgMeta],
    targets: Option<&[NodeId]>,
    pack: Packing,
) -> Result<BTreeMap<NodeId, Vec<usize>>, RestartError> {
    let Some(targets) = targets else {
        // Identity placement: every image back to the host that wrote it.
        let mut out: BTreeMap<NodeId, Vec<usize>> = BTreeMap::new();
        let hosts: BTreeSet<&str> = metas.iter().map(|m| m.origin.as_str()).collect();
        for (i, m) in metas.iter().enumerate() {
            let Some(n) = w.resolve(&m.origin) else {
                return Err(RestartError::TopologyTooSmall {
                    needed: hosts.len() as u32,
                    got: w.nodes.len() as u32,
                });
            };
            out.entry(n).or_default().push(i);
        }
        return Ok(out);
    };
    let units = colocation_units(metas);
    if targets.is_empty() {
        return Err(RestartError::TopologyTooSmall {
            needed: units.len() as u32,
            got: 0,
        });
    }
    // A node is ineligible for a unit when any of the unit's listening
    // ports is already bound there — by a live bystander or a unit placed
    // earlier. (Within a unit a shared listener is one fd object, so equal
    // ports inside a unit are fine.)
    let mut used: BTreeMap<NodeId, BTreeSet<u16>> =
        targets.iter().map(|n| (*n, w.ports_in_use(*n))).collect();
    let mut out: BTreeMap<NodeId, Vec<usize>> = BTreeMap::new();
    for (i, unit) in units.iter().enumerate() {
        let uports: BTreeSet<u16> = unit
            .iter()
            .flat_map(|&ix| metas[ix].ports.iter().copied())
            .collect();
        let start = match pack {
            Packing::RoundRobin => i % targets.len(),
            Packing::Fill => 0,
        };
        let mut chosen = None;
        for off in 0..targets.len() {
            let n = targets[(start + off) % targets.len()];
            if uports.is_disjoint(used.get(&n).expect("seeded above")) {
                chosen = Some(n);
                break;
            }
        }
        let Some(n) = chosen else {
            return Err(RestartError::TopologyTooSmall {
                needed: units.len() as u32,
                got: targets.len() as u32,
            });
        };
        used.get_mut(&n).expect("seeded above").extend(uports);
        out.entry(n).or_default().extend(unit.iter().copied());
    }
    Ok(out)
}

/// [`place`], then validate every image against the node that will read it
/// — header, CRCs, region payloads, via the store's replica path — so
/// nothing is spawned for a generation that cannot be restored whole.
fn place_verified(
    w: &World,
    metas: &[ImgMeta],
    targets: Option<&[NodeId]>,
    pack: Packing,
) -> Result<BTreeMap<NodeId, Vec<usize>>, RestartError> {
    let placement = place(w, metas, targets, pack)?;
    for (node, idxs) in &placement {
        for &i in idxs {
            let path = &metas[i].path;
            mtcp::verify_image(w, *node, path).map_err(|e| RestartError::ReplicaUnreachable {
                path: path.clone(),
                reason: e.to_string(),
            })?;
        }
    }
    Ok(placement)
}

/// Project a placement (node → meta indices) onto vpids for reporting.
fn placement_vpids(
    placement: &BTreeMap<NodeId, Vec<usize>>,
    metas: &[ImgMeta],
) -> Vec<(NodeId, Vec<u32>)> {
    placement
        .iter()
        .map(|(n, idxs)| {
            let mut v: Vec<u32> = idxs.iter().map(|&i| metas[i].vpid).collect();
            v.sort_unstable();
            (*n, v)
        })
        .collect()
}
