//! Crash-consistency fault matrix for the checkpoint/restart protocol.
//!
//! Every cell of (workload × fault kind × protocol stage) runs the same
//! experiment: take a clean generation-1 checkpoint, then request a second
//! checkpoint with a seeded fault armed against it — a dropped / delayed /
//! reordered coordinator message, a process or node kill at a barrier-stage
//! release, a bounded network partition, a torn (truncated / bit-flipped)
//! image write, or node-local disk loss that deletes a just-written primary
//! image (restart must proceed from a `ckptstore` replica). The transparency
//! invariant asserted for every cell:
//!
//! * either the faulted generation completes and the cluster restarts from
//!   it, or it aborts cleanly / fails validation and the restart falls back
//!   to an older complete generation;
//! * after restart the applications finish with *exactly* the reference
//!   answer of an uninterrupted run — never a wrong answer, hang, or panic.
//!
//! Every cell is driven by a seed derived from a base seed, so any failure
//! is reproducible from the seeds printed in the failure report:
//!
//! ```text
//! DMTCP_FAULT_SEEDS=<base> DMTCP_FAULT_ONLY='<cell id>' \
//!     cargo test -p dmtcp --test faults crash_consistency_matrix
//! ```
//!
//! Knobs (all optional):
//! * `DMTCP_FAULT_SEEDS`   — comma-separated base seeds (hex `0x…` or
//!   decimal) replacing the built-in fixed set.
//! * `DMTCP_FAULT_ROTATING` — additionally run N date-derived base seeds
//!   (fresh coverage each day; the seeds are printed so failures remain
//!   reproducible). Default 0, so a plain `cargo test` is deterministic.
//! * `DMTCP_FAULT_ONLY`    — substring filter on cell ids.
//! * `DMTCP_FAULT_SKIP_DEFAULT` — set to `1` to skip the matrix entirely
//!   (CI runs it as a dedicated stage and skips it in the workspace pass).
//! * `DMTCP_TEST_EV_BUDGET` — event budget per bounded run (see common).

mod common;

use common::*;
use dmtcp::coord::stage;
use dmtcp::session::{
    enable_flight_recorder, export_journal, run_for, wait_until, CkptOutcome, Order,
};
use dmtcp::{ExpectCkpt, Options, RestartPlan, Session};
use faultkit::{FaultKind, FaultPlan, FillPoint};
use obs::journal::{CLASS_FAULT, CLASS_NET, CLASS_STAGE};
use oskit::world::{NodeId, OsSim, Pid, World};
use simkit::{mix2, Nanos, RunOutcome};
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::PathBuf;

/// Rounds for the distributed request/response workload (finishes well after
/// the faulted checkpoint lands, so every cell interrupts it mid-flight).
const CHAIN_ROUNDS: u64 = 120;
/// Bytes for the fork+pipe workload.
const PIPE_TOTAL: u64 = 900_000;

/// Fixed base seeds: a plain `cargo test` run is fully deterministic.
const DEFAULT_BASES: [u64; 2] = [0x5EED_0001, 0x00D3_17C0];

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Chain = 0,
    Pipe = 1,
}

impl Workload {
    const ALL: [Workload; 2] = [Workload::Chain, Workload::Pipe];

    fn name(self) -> &'static str {
        match self {
            Workload::Chain => "chain",
            Workload::Pipe => "pipe",
        }
    }

    /// Result files the workload writes; compared against the reference and
    /// removed before every restart.
    fn results(self) -> &'static [&'static str] {
        match self {
            Workload::Chain => &["/shared/client_result", "/shared/server_result"],
            Workload::Pipe => &["/shared/pipe_result"],
        }
    }
}

/// One cell of the matrix. `variant` distinguishes multiple seeded torn-write
/// cells that share the same (kind, workload) coordinates; `forked` runs the
/// cell with copy-on-write forked checkpointing, so the fault lands during
/// (or around) the overlapped background drain; `store` installs the chunk
/// store, which turns generation 2 into an *incremental* capture (clean
/// regions aliased into generation 1's chunks), so the fault attacks the
/// incremental drain and restart must cope with aliased manifests. `fill`
/// leaves the checkpoints alone and attacks the restart from generation 2
/// instead, at that point of a restored process's background memory fill.
#[derive(Clone, Copy)]
struct Cell {
    kind: FaultKind,
    stage: u8,
    wl: Workload,
    base: u64,
    variant: u64,
    forked: bool,
    store: bool,
    fill: Option<FillPoint>,
}

impl Cell {
    fn seed(&self) -> u64 {
        // `forked`, `store` and `fill` feed the mix in bit positions the
        // small workload enum never uses, so all pre-existing cell seeds are
        // unchanged.
        let fill = self.fill.map_or(0, |p| 1 + p as u64);
        mix2(
            self.base,
            mix2(
                ((self.kind as u64) << 8) | self.stage as u64,
                mix2(
                    self.wl as u64
                        | ((self.forked as u64) << 8)
                        | ((self.store as u64) << 9)
                        | (fill << 10),
                    self.variant,
                ),
            ),
        )
    }

    fn id(&self) -> String {
        format!(
            "{}@stage{}/{}+v{}{}{}{}",
            self.kind.name(),
            self.stage,
            self.wl.name(),
            self.variant,
            if self.forked { "+forked" } else { "" },
            if self.store { "+store" } else { "" },
            self.fill
                .map_or(String::new(), |p| format!("+{}", p.name()))
        )
    }
}

/// Enumerate the full matrix for the given base seeds. Per base: 6 live
/// fault kinds × 5 protocol stages × 2 workloads, plus 2 torn-write kinds
/// × 2 workloads × 4 seeded variants, plus the image-delete kind × 2
/// workloads × 2 seeded variants, plus 18 forked-checkpoint cells (kills at
/// the start of the overlapped drain, lossy-network faults against the
/// `CKPT_WRITTEN` acknowledgment, torn background writes), plus 12
/// incremental-store cells (kills and torn writes against the incremental
/// drain, where generation 2 aliases generation 1's chunks), plus 12 fill
/// cells (a process kill or a node loss at 3 points of the background fill
/// of a restart from generation 2, × 2 workloads) — 122 cells, 244 with the
/// two default bases.
fn cells(bases: &[u64]) -> Vec<Cell> {
    const STAGES: [u8; 5] = [
        stage::SUSPENDED,
        stage::ELECTED,
        stage::DRAINED,
        stage::CHECKPOINTED,
        stage::REFILLED,
    ];
    const LIVE: [FaultKind; 6] = [
        FaultKind::DropMsg,
        FaultKind::DelayMsg,
        FaultKind::ReorderMsg,
        FaultKind::KillProc,
        FaultKind::KillNode,
        FaultKind::Partition,
    ];
    const TORN: [FaultKind; 2] = [FaultKind::TornTruncate, FaultKind::TornBitFlip];

    let mut out = Vec::new();
    for &base in bases {
        // One (kind, stage, mode) on every workload, `variants` seeds each.
        let mut add = |kind, stage, variants, forked, store, fill| {
            for &wl in &Workload::ALL {
                for variant in 0..variants {
                    out.push(Cell {
                        kind,
                        stage,
                        wl,
                        base,
                        variant,
                        forked,
                        store,
                        fill,
                    });
                }
            }
        };
        for &kind in &LIVE {
            for &stg in &STAGES {
                add(kind, stg, 1, false, false, None);
            }
        }
        // Torn faults fire at image-write time; the stage field is nominal.
        for &kind in &TORN {
            add(kind, stage::CHECKPOINTED, 4, false, false, None);
        }
        // Image-delete fires at the CHECKPOINTED release, after every image
        // of the generation has been written; the variant seeds a different
        // victim image.
        add(
            FaultKind::ImageDelete,
            stage::CHECKPOINTED,
            2,
            false,
            false,
            None,
        );
        // Forked (copy-on-write) checkpointing: the same transparency bar
        // with the overlapped background drain on. Kills at the REFILLED
        // release land right as the application resumes and the drain
        // begins; lossy-network faults at CKPT_WRITTEN attack the drain's
        // acknowledgment round; torn writes corrupt the background image.
        for &kind in &[FaultKind::KillProc, FaultKind::KillNode] {
            add(kind, stage::REFILLED, 1, true, false, None);
        }
        for &kind in &[
            FaultKind::DropMsg,
            FaultKind::DelayMsg,
            FaultKind::ReorderMsg,
        ] {
            add(kind, stage::CKPT_WRITTEN, 1, true, false, None);
        }
        for &kind in &TORN {
            add(kind, stage::CHECKPOINTED, 2, true, false, None);
        }
        // Incremental-store cells: with the chunk store installed the
        // second generation is an *incremental* forked drain — clean
        // regions are slice refs into generation 1's chunks. Kills at the
        // REFILLED release abort the incremental drain mid-flight (the
        // dirty set must merge back, restart falls to gen 1); torn writes
        // corrupt the incremental image (validation rejects it, restart
        // falls back through the aliased manifest chain).
        for &kind in &[FaultKind::KillProc, FaultKind::KillNode] {
            add(kind, stage::REFILLED, 1, true, true, None);
        }
        for &kind in &TORN {
            add(kind, stage::CHECKPOINTED, 2, true, true, None);
        }
        // Fill cells: generation 2 inherits every process's cold memory
        // from generation 1, and the restart from it is attacked while
        // that memory fills in behind the restored processes. The stage
        // field is nominal.
        for &kind in &[FaultKind::KillProc, FaultKind::NodeLoss] {
            for point in FillPoint::ALL {
                add(kind, stage::RESTORED, 1, false, true, Some(point));
            }
        }
    }
    out
}

fn parse_seed(s: &str) -> Option<u64> {
    let t = s.trim().replace('_', "");
    if let Some(h) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        u64::from_str_radix(h, 16).ok()
    } else {
        t.parse().ok()
    }
}

/// Base seeds: `DMTCP_FAULT_SEEDS` (or the fixed default set), plus
/// `DMTCP_FAULT_ROTATING` extra date-derived seeds, printed so a failure
/// under a rotating seed is still reproducible.
fn base_seeds() -> Vec<u64> {
    let mut bases: Vec<u64> = match std::env::var("DMTCP_FAULT_SEEDS") {
        Ok(v) => v.split(',').filter_map(parse_seed).collect(),
        Err(_) => DEFAULT_BASES.to_vec(),
    };
    if bases.is_empty() {
        bases = DEFAULT_BASES.to_vec();
    }
    let rotating: u64 = std::env::var("DMTCP_FAULT_ROTATING")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0);
    if rotating > 0 {
        let day = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock after epoch")
            .as_secs()
            / 86_400;
        for i in 0..rotating {
            let seed = mix2(0xDA7E_5EED, day.wrapping_add(i));
            eprintln!(
                "faults: rotating base seed {seed:#x} \
                 (reproduce with DMTCP_FAULT_SEEDS={seed:#x})"
            );
            bases.push(seed);
        }
    }
    bases
}

/// Reference answers from an uninterrupted, un-checkpointed run.
fn reference(wl: Workload, budget: u64) -> Vec<(&'static str, String)> {
    let (mut w, mut sim) = cluster(2);
    match wl {
        Workload::Chain => {
            w.spawn(
                &mut sim,
                NodeId(1),
                "server",
                Box::new(EchoPlusOne::new(9000)),
                Pid(1),
                BTreeMap::new(),
            );
            w.spawn(
                &mut sim,
                NodeId(0),
                "client",
                Box::new(FtChainClient::new("node01", 9000, CHAIN_ROUNDS)),
                Pid(1),
                BTreeMap::new(),
            );
        }
        Workload::Pipe => {
            w.spawn(
                &mut sim,
                NodeId(1),
                "pipe",
                Box::new(FtPipeChain::new(PIPE_TOTAL)),
                Pid(1),
                BTreeMap::new(),
            );
        }
    }
    assert!(
        sim.run_bounded(&mut w, budget),
        "reference run exceeded budget"
    );
    wl.results()
        .iter()
        .map(|p| (*p, shared_result(&w, p).expect("reference result")))
        .collect()
}

/// Event classes every recorded cell journals. Scheduler dispatches are
/// deliberately excluded: they are by far the chattiest class and the
/// protocol/fault/barrier timeline is what a red cell needs to be replayed.
const CELL_CLASSES: u8 = CLASS_NET | CLASS_FAULT | CLASS_STAGE;

/// Where failed-cell journals land: `<workspace>/target/replay/`.
fn replay_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/replay")
}

/// Turn the flight recorder on for a cell run, stamping everything needed
/// to rebuild the cell into the journal header.
fn record_cell(w: &mut World, cell: &Cell, budget: u64) {
    enable_flight_recorder(
        w,
        CELL_CLASSES,
        &[
            ("cell", &cell.id()),
            ("kind", cell.kind.name()),
            ("stage", &cell.stage.to_string()),
            ("workload", cell.wl.name()),
            ("base", &format!("{:#x}", cell.base)),
            ("variant", &cell.variant.to_string()),
            ("forked", if cell.forked { "1" } else { "0" }),
            ("store", if cell.store { "1" } else { "0" }),
            ("fill", cell.fill.map_or("", FillPoint::name)),
            ("seed", &format!("{:#x}", cell.seed())),
            ("budget", &budget.to_string()),
        ],
    );
}

/// Run one matrix cell with the flight recorder on; panics (caught by the
/// harness) on any invariant violation. On failure the journal is written
/// to `target/replay/<seed>.jsonl` and the exact `replay_cell` invocation
/// that re-executes the run to the moment of death is printed.
fn run_cell(cell: &Cell, reference: &[(&'static str, String)], budget: u64) {
    let (mut w, mut sim) = cluster(2);
    record_cell(&mut w, cell, budget);
    let result = catch_unwind(AssertUnwindSafe(|| {
        drive_cell(cell, reference, budget, &mut w, &mut sim)
    }));
    if let Err(e) = result {
        let died_at = sim.now();
        w.obs.journal.set_meta("end_ns", died_at.0.to_string());
        let dropped = w.obs.journal.evicted();
        let jsonl = export_journal(&mut w);
        let dir = replay_dir();
        let path = dir.join(format!("{:#x}.jsonl", cell.seed()));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &jsonl)) {
            Ok(()) => {
                eprintln!(
                    "cell {} died at {}ns; flight recorder journal ({} events, \
                     {} evicted): {}",
                    cell.id(),
                    died_at.0,
                    w.obs.journal.len(),
                    dropped,
                    path.display()
                );
                eprintln!(
                    "replay it to the moment of death with:\n  \
                     DMTCP_REPLAY={} DMTCP_REPLAY_SEEK={} \
                     DMTCP_FAULT_SEEDS={:#x} DMTCP_FAULT_ONLY='{}' \
                     cargo test -p dmtcp --test faults replay_cell -- --nocapture",
                    path.display(),
                    died_at.0,
                    cell.base,
                    cell.id()
                );
            }
            Err(io) => eprintln!(
                "cell {}: could not write replay journal to {}: {io}",
                cell.id(),
                path.display()
            ),
        }
        resume_unwind(e);
    }
}

/// Start the cell's session, install the chunk store and the fault plan,
/// and launch the workload — the world a cell runs in, and a replay of it
/// rebuilds.
fn start_cell(cell: &Cell, w: &mut World, sim: &mut OsSim) -> Session {
    let s = Session::start(
        w,
        sim,
        Options::builder()
            .ckpt_dir("/shared/ckpt")
            .forked(cell.forked)
            .build(),
    );
    // Image-delete cells model node-local disk loss: the primary copy of a
    // just-written image vanishes, and restart must proceed from the chunk
    // store's replica on the peer node. The store stays installed through
    // restart — the reader resolves images through it. `store` cells
    // install it too, which also makes generation 2 incremental: with the
    // store present, clean regions of gen 2 are aliased into gen 1's
    // chunks, so the fault lands on the incremental drain and any
    // replica-served restart walks aliased (slice-ref) manifests.
    if cell.kind == FaultKind::ImageDelete || cell.store {
        ckptstore::install(w, ckptstore::Config::default());
    }
    // Install before launch: the per-process managers register their
    // coordinator connections at connect time, and message faults only see
    // connections registered that way. Generation numbering is
    // deterministic, so targeting gen 2 arms the fault against the second
    // (faulted) checkpoint while leaving the clean gen-1 checkpoint alone —
    // or, in a fill cell, against the restart from it. A node loss there
    // takes the node that is not the coordinator's.
    let st = faultkit::install(
        w,
        FaultPlan {
            seed: cell.seed(),
            kind: cell.kind,
            stage: cell.stage,
            target_gen: 2,
        },
    );
    if let Some(point) = cell.fill {
        st.borrow_mut().target_fill(point);
        st.borrow_mut().pin_victim_node(NodeId(1));
    }
    launch_workload(cell, &s, w, sim);
    s
}

/// Launch the cell's workload under `s`. A `forked` cell's processes each
/// get a [`WorkingSet`]: forked mode forks only where forking pays, and the
/// cell is about the drain window a fork opens. A `fill` cell's get a
/// [`ColdSet`]: memory generation 2 inherits, for the restart to fill in.
fn launch_workload(cell: &Cell, s: &Session, w: &mut World, sim: &mut OsSim) {
    let procs: Vec<(NodeId, &str, Box<dyn oskit::program::Program>)> = match cell.wl {
        Workload::Chain => vec![
            (NodeId(1), "server", Box::new(EchoPlusOne::new(9000))),
            (
                NodeId(0),
                "client",
                Box::new(FtChainClient::new("node01", 9000, CHAIN_ROUNDS)),
            ),
        ],
        Workload::Pipe => vec![(NodeId(1), "pipe", Box::new(FtPipeChain::new(PIPE_TOTAL)))],
    };
    for (node, cmd, prog) in procs {
        let pid = s.launch(w, sim, node, cmd, prog);
        if cell.forked {
            WorkingSet::add_to(w, sim, pid);
        }
        if cell.fill.is_some() {
            ColdSet::add_to(w, sim, pid);
        }
    }
}

/// The cell experiment itself, against a caller-owned world (so the caller
/// can salvage the flight-recorder journal when this panics).
fn drive_cell(
    cell: &Cell,
    reference: &[(&'static str, String)],
    budget: u64,
    w: &mut World,
    sim: &mut OsSim,
) {
    let s = start_cell(cell, &mut *w, &mut *sim);
    run_for(&mut *w, &mut *sim, Nanos::from_millis(6));
    let g1 = s
        .checkpoint_and_wait(&mut *w, &mut *sim, budget)
        .expect_ckpt();
    assert_eq!(g1.gen, 1, "first generation must be 1");
    run_for(&mut *w, &mut *sim, Nanos::from_millis(2));

    let outcome = s.checkpoint_until_settled(&mut *w, &mut *sim, budget);
    if let Some(point) = cell.fill {
        return fill_cell(point, &s, outcome, reference, budget, w, sim);
    }
    // In forked mode the stop-the-world phase has settled but the background
    // drain is still in flight; let it finish (or drain-abort, if the fault
    // kills a participant) while the fault is still armed.
    let written2 = if cell.forked && matches!(outcome, CkptOutcome::Completed(_)) {
        Session::wait_ckpt_written(&mut *w, &mut *sim, 2, budget).is_some()
    } else {
        false
    };
    let injected: Vec<String> = faultkit::state(&*w)
        .map(|st| st.borrow().injected().to_vec())
        .unwrap_or_default();
    // `uninstall_at` journals the hook removal: taking the hooks out changes
    // how later packets are treated, so a replay must do it at the same
    // virtual instant.
    faultkit::uninstall_at(&mut *w, sim.now());
    // Deliberate mid-protocol death, for exercising (and demonstrating) the
    // red-cell debugging loop: journal dump, printed replay invocation,
    // substrate snapshot at the moment of death.
    assert!(
        std::env::var("DMTCP_FAULT_DEMO_FAIL").as_deref() != Ok("1"),
        "deliberate failure (DMTCP_FAULT_DEMO_FAIL=1) after the faulted \
         checkpoint settled (injected: {injected:?})"
    );

    match cell.kind {
        FaultKind::DropMsg | FaultKind::DelayMsg | FaultKind::ReorderMsg | FaultKind::Partition => {
            // No process died, so the protocol must heal (retransmits,
            // duplicate-release resends) and complete.
            assert!(
                matches!(outcome, CkptOutcome::Completed(_)),
                "lossy-network fault must not abort the generation \
                 (injected: {injected:?})"
            );
        }
        FaultKind::TornTruncate | FaultKind::TornBitFlip => {
            assert!(
                matches!(outcome, CkptOutcome::Completed(_)),
                "torn-image faults kill no participant; the protocol itself \
                 completes (injected: {injected:?})"
            );
        }
        FaultKind::ImageDelete => {
            // Disk loss after the CHECKPOINTED barrier kills no participant
            // and the generation is already durable on the replica.
            assert!(
                matches!(outcome, CkptOutcome::Completed(_)),
                "image-delete faults kill no participant; the protocol \
                 completes (injected: {injected:?})"
            );
        }
        FaultKind::KillProc | FaultKind::KillNode => {
            // A kill at the final barrier lands after the generation is
            // already complete; at any earlier stage the coordinator must
            // abort rather than trust partial images.
            if let CkptOutcome::Completed(g) = &outcome {
                assert_eq!(
                    cell.stage,
                    stage::REFILLED,
                    "kill at stage {} must abort, but gen {} completed \
                     (injected: {injected:?})",
                    cell.stage,
                    g.gen
                );
            }
        }
        FaultKind::RelayKill | FaultKind::RelaySever => {
            unreachable!("relay faults run as dedicated hierarchical tests, not matrix cells")
        }
        FaultKind::NodeLoss => {
            unreachable!("node-loss fires at a migration's start or during a restore's fill")
        }
    }
    if cell.store {
        // The cell only attacks the incremental path if generation 2
        // actually went incremental — the image (complete or doomed) was
        // committed before the fault's barrier release fired.
        assert!(
            w.obs.metrics.counter_total("mtcp.incr.images") > 0,
            "a store cell's second generation must capture incrementally \
             (injected: {injected:?})"
        );
    }

    // Let scheduled kills fire and survivors notice dead peers, then tear
    // the computation down as a crash would.
    run_for(&mut *w, &mut *sim, Nanos::from_millis(6));
    s.kill_computation(&mut *w, &mut *sim);
    for p in cell.wl.results() {
        let _ = w.shared_fs.remove(p);
    }

    let restored = RestartPlan::builder()
        .resilient(true)
        .build()
        .execute(&s, &mut *w, &mut *sim)
        .expect("gen 1 completed cleanly, so a usable generation exists");

    if cell.forked {
        match cell.kind {
            FaultKind::KillProc | FaultKind::KillNode => {
                // The kill fires at the REFILLED release — before the
                // background write can finish — so CKPT_WRITTEN never
                // releases and the restart script still names the previous
                // durable generation: the transparency invariant for a
                // crash during the overlapped drain.
                assert!(
                    !written2,
                    "kill at drain start must prevent the CKPT_WRITTEN \
                     release (injected: {injected:?})"
                );
                assert_eq!(
                    restored.gen, 1,
                    "restart after a kill mid-drain must fall back to the \
                     last durably written generation (injected: {injected:?})"
                );
            }
            FaultKind::DropMsg | FaultKind::DelayMsg | FaultKind::ReorderMsg => {
                // Two legitimate outcomes: the ack round heals via
                // retransmission (restart from the drained generation), or
                // the application finishes and exits while the ack is still
                // in flight — the coordinator cannot tell a clean exit from
                // a crash at the socket, so it conservatively drain-aborts
                // and the previous durable generation is kept. Either way
                // the restart generation must match what was acknowledged.
                assert_eq!(
                    restored.gen,
                    if written2 { 2 } else { 1 },
                    "restart generation must match the CKPT_WRITTEN outcome \
                     (written2={written2}, injected: {injected:?})"
                );
            }
            _ => {
                // Torn background writes: the drain itself completes; the
                // corrupt image is caught below at restart validation.
                assert!(
                    written2,
                    "torn writes kill no participant; the background drain \
                     completes (injected: {injected:?})"
                );
            }
        }
    }
    if cell.kind == FaultKind::ImageDelete {
        assert!(
            !injected.is_empty(),
            "image-delete fault armed for gen 2 never fired"
        );
        assert!(
            restored.rejected.is_empty(),
            "every image must resolve from a replica, none rejected: {:?}",
            restored.rejected
        );
        assert_eq!(
            restored.gen, 2,
            "the faulted generation is durable on the replica and must be \
             the one restarted (injected: {injected:?})"
        );
    }
    if matches!(cell.kind, FaultKind::TornTruncate | FaultKind::TornBitFlip) {
        assert!(
            !injected.is_empty(),
            "torn fault armed for gen 2 never fired"
        );
        assert!(
            !restored.rejected.is_empty(),
            "the torn gen-2 image must fail header/CRC validation"
        );
        assert_eq!(
            restored.gen, 1,
            "restart must fall back to the previous complete generation; \
             rejected: {:?}",
            restored.rejected
        );
    }

    Session::wait_restart_done(&mut *w, &mut *sim, restored.gen, budget);
    match sim.run_budgeted(&mut *w, budget) {
        RunOutcome::Quiescent | RunOutcome::Halted => {}
        RunOutcome::BudgetExhausted => panic!(
            "event budget exhausted after restart ({budget} events) — raise \
             DMTCP_TEST_EV_BUDGET, or suspect a livelock (injected: {injected:?})"
        ),
    }
    for (path, want) in reference {
        let got = shared_result(&*w, path);
        assert_eq!(
            got.as_deref(),
            Some(want.as_str()),
            "wrong answer in {} after restart from gen {} (injected: {:?})",
            path,
            restored.gen,
            injected
        );
    }
}

/// The rest of a fill cell, once generation 2 has settled. Nothing faults
/// the checkpoints; the computation crashes, restarts from generation 2,
/// and the fault strikes at `point` of a restored process's background fill.
/// A restore only reads its images, so a second restart must come back
/// from the same generation, whole, and finish with the reference answers.
fn fill_cell(
    point: FillPoint,
    s: &Session,
    outcome: CkptOutcome,
    reference: &[(&'static str, String)],
    budget: u64,
    w: &mut World,
    sim: &mut OsSim,
) {
    let at = point.name();
    assert!(
        matches!(outcome, CkptOutcome::Completed(_)),
        "{at}: a fill fault waits for the restore, the checkpoint completes"
    );
    assert!(
        w.obs.metrics.counter_total("mtcp.incr.images") > 0,
        "{at}: generation 2 must inherit memory from generation 1"
    );
    let restart = |w: &mut World, sim: &mut OsSim| {
        run_for(w, sim, Nanos::from_millis(6));
        s.kill_computation(w, sim);
        for (p, _) in reference {
            let _ = w.shared_fs.remove(p);
        }
        let out = RestartPlan::builder()
            .resilient(true)
            .build()
            .execute(s, w, sim)
            .expect("generation 2 completed cleanly");
        assert_eq!((out.gen, out.rejected.len()), (2, 0), "{at}: restart");
        out
    };
    restart(w, sim);
    let injected = wait_until(w, sim, budget, Order::CheckFirst, |w| {
        let st = faultkit::state(w)?;
        let fired = st.borrow().injected().to_vec();
        (!fired.is_empty()).then_some(fired)
    })
    .unwrap_or_else(|e| panic!("{at}: the fill fault never fired: {e}"));
    run_for(w, sim, Nanos::from_millis(20));
    faultkit::uninstall_at(w, sim.now());

    // The generation the fault interrupted restoring is untouched.
    let again = restart(w, sim);
    Session::wait_restart_done(w, sim, again.gen, budget);
    match sim.run_budgeted(w, budget) {
        RunOutcome::Quiescent | RunOutcome::Halted => {}
        RunOutcome::BudgetExhausted => panic!("{at}: livelock after restart ({injected:?})"),
    }
    for (path, want) in reference {
        assert_eq!(
            shared_result(w, path).as_deref(),
            Some(want.as_str()),
            "{at}: wrong answer in {path} after the second restart ({injected:?})"
        );
    }
    assert!(
        w.obs.metrics.counter_total("oskit.mem.fill_faults") > 0,
        "{at}: a restored process never waited for its cold memory"
    );
}

fn panic_message(e: &(dyn std::any::Any + Send)) -> String {
    e.downcast_ref::<String>()
        .cloned()
        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "<non-string panic payload>".into())
}

#[test]
fn crash_consistency_matrix() {
    // CI runs the matrix as its own `faults` stage; the workspace-wide test
    // stage sets this knob so the matrix is not executed twice per pipeline.
    if std::env::var("DMTCP_FAULT_SKIP_DEFAULT").as_deref() == Ok("1") {
        eprintln!(
            "crash_consistency_matrix: skipped (DMTCP_FAULT_SKIP_DEFAULT=1); \
             run it via `scripts/tier1.sh faults`"
        );
        return;
    }
    let budget = run_budget();
    let bases = base_seeds();
    let only = std::env::var("DMTCP_FAULT_ONLY").ok();
    let all = cells(&bases);

    let ref_chain = reference(Workload::Chain, budget);
    let ref_pipe = reference(Workload::Pipe, budget);

    let mut failures: Vec<String> = Vec::new();
    let mut ran = 0u32;
    for cell in &all {
        if let Some(f) = &only {
            if !cell.id().contains(f.as_str()) {
                continue;
            }
        }
        ran += 1;
        eprintln!(
            "cell {} base={:#x} seed={:#x}",
            cell.id(),
            cell.base,
            cell.seed()
        );
        let reference = match cell.wl {
            Workload::Chain => &ref_chain,
            Workload::Pipe => &ref_pipe,
        };
        if let Err(e) = catch_unwind(AssertUnwindSafe(|| run_cell(cell, reference, budget))) {
            let line = format!(
                "{} base={:#x} cell-seed={:#x}: {}",
                cell.id(),
                cell.base,
                cell.seed(),
                panic_message(&*e)
            );
            eprintln!("FAIL {line}");
            failures.push(line);
        }
    }
    assert!(ran > 0, "DMTCP_FAULT_ONLY matched no cells");
    assert!(
        failures.is_empty(),
        "{}/{} fault cells violated the transparency invariant:\n  {}\n\
         reproduce one with:\n  DMTCP_FAULT_SEEDS=<base> \
         DMTCP_FAULT_ONLY='<cell id>' cargo test -p dmtcp --test faults \
         crash_consistency_matrix -- --nocapture",
        failures.len(),
        ran,
        failures.join("\n  ")
    );
}

/// The matrix floor promised by the test plan: ≥ 4 fault kinds (we field 9),
/// ≥ 5 protocol stages, ≥ 2 workloads, ≥ 150 seeded cells — all with the
/// default deterministic seed set, independent of environment knobs.
#[test]
fn matrix_meets_minimum_dimensions() {
    let all = cells(&DEFAULT_BASES);
    assert!(all.len() >= 150, "matrix has only {} cells", all.len());
    // The number README advertises is this one.
    let readme = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
    let readme = std::fs::read_to_string(readme).expect("README.md at the repo root");
    let claim = format!("{}-cell", all.len());
    assert!(readme.contains(&claim), "README must say {claim:?}");

    let kinds: BTreeSet<&str> = all.iter().map(|c| c.kind.name()).collect();
    let stages: BTreeSet<u8> = all.iter().map(|c| c.stage).collect();
    let wls: BTreeSet<&str> = all.iter().map(|c| c.wl.name()).collect();
    assert!(kinds.len() >= 4, "only {} fault kinds", kinds.len());
    assert!(stages.len() >= 5, "only {} protocol stages", stages.len());
    assert!(wls.len() >= 2, "only {} workloads", wls.len());
    assert!(
        all.iter().any(|c| c.forked),
        "matrix must cover forked checkpointing"
    );
    assert!(
        all.iter().any(|c| c.stage == stage::CKPT_WRITTEN),
        "matrix must attack the overlapped-drain acknowledgment round"
    );
    assert!(
        all.iter()
            .any(|c| c.store && matches!(c.kind, FaultKind::KillProc | FaultKind::KillNode)),
        "matrix must kill participants during an incremental drain"
    );
    assert!(
        all.iter()
            .any(|c| c.store && matches!(c.kind, FaultKind::TornTruncate | FaultKind::TornBitFlip)),
        "matrix must tear incremental images"
    );
    for kind in [FaultKind::KillProc, FaultKind::NodeLoss] {
        for point in FillPoint::ALL {
            assert!(
                all.iter().any(|c| c.kind == kind && c.fill == Some(point)),
                "matrix must strike a restore's fill at {} with {}",
                point.name(),
                kind.name()
            );
        }
    }

    // Seed derivation must give every cell a distinct seed, or two cells
    // would silently explore the same fault timing.
    let seeds: BTreeSet<u64> = all.iter().map(Cell::seed).collect();
    assert_eq!(seeds.len(), all.len(), "cell seed collision");
}

// ---------------------------------------------------------------------
// Relay faults (hierarchical topology). These are not matrix cells: the
// matrix runs the flat topology, and a relay fault only exists when the
// per-node relay layer is in play. Each test drives the same chain
// workload through relays and asserts the two promised outcomes: the root
// aborts the in-flight generation (no hung barrier), and restart falls
// back to the previous durable generation with the right answers.
// ---------------------------------------------------------------------

fn run_relay_fault(kind: FaultKind) {
    let budget = run_budget();
    let reference = reference(Workload::Chain, budget);

    let (mut w, mut sim) = cluster(2);
    let s = Session::start(
        &mut w,
        &mut sim,
        Options::builder()
            .ckpt_dir("/shared/ckpt")
            .topology(dmtcp::Topology::Hierarchical)
            .build(),
    );
    // Install before launch so the relays register their pids and root
    // connections with the fault layer as they come up.
    faultkit::install(
        &mut w,
        FaultPlan {
            seed: mix2(0x0E1A_5EED, kind as u64),
            kind,
            stage: stage::DRAINED,
            target_gen: 2,
        },
    );
    s.launch(
        &mut w,
        &mut sim,
        NodeId(1),
        "server",
        Box::new(EchoPlusOne::new(9000)),
    );
    s.launch(
        &mut w,
        &mut sim,
        NodeId(0),
        "client",
        Box::new(FtChainClient::new("node01", 9000, CHAIN_ROUNDS)),
    );

    run_for(&mut w, &mut sim, Nanos::from_millis(6));
    let g1 = s
        .checkpoint_and_wait(&mut w, &mut sim, budget)
        .expect_ckpt();
    assert_eq!(g1.gen, 1, "first generation must complete cleanly");
    run_for(&mut w, &mut sim, Nanos::from_millis(2));

    // Gen 2: the fault fires at the DRAINED release. Whether the relay
    // process dies or its uplink is partitioned, the root must abort the
    // generation rather than hang the barrier.
    let err = s
        .checkpoint_and_wait(&mut w, &mut sim, budget)
        .expect_err("a lost relay must abort the generation");
    match err {
        dmtcp::CkptError::Aborted { gen, .. } => assert_eq!(gen, 2, "aborted the faulted gen"),
        other => panic!("expected an abort, not {other:?}"),
    }
    let injected: Vec<String> = faultkit::state(&w)
        .map(|st| st.borrow().injected().to_vec())
        .unwrap_or_default();
    assert!(
        !injected.is_empty(),
        "relay fault armed for gen 2 never fired"
    );

    // Give the partitioned relay time to give up on the silent root and
    // release its local clients, then tear down and restart.
    run_for(&mut w, &mut sim, Nanos::from_millis(200));
    if kind == FaultKind::RelaySever {
        assert!(
            w.obs.metrics.counter_total("coord.relay_timeouts")
                + w.obs.metrics.counter_total("relay.give_ups")
                > 0,
            "a partition must be detected by liveness on at least one side"
        );
    }
    faultkit::uninstall(&mut w);
    s.kill_computation(&mut w, &mut sim);
    for p in Workload::Chain.results() {
        let _ = w.shared_fs.remove(p);
    }

    let restored = RestartPlan::builder()
        .resilient(true)
        .build()
        .execute(&s, &mut w, &mut sim)
        .expect("gen 1 completed cleanly, so a usable generation exists");
    assert_eq!(
        restored.gen, 1,
        "restart must fall back to the previous durable generation \
         (injected: {injected:?})"
    );
    Session::wait_restart_done(&mut w, &mut sim, restored.gen, budget);
    match sim.run_budgeted(&mut w, budget) {
        RunOutcome::Quiescent | RunOutcome::Halted => {}
        RunOutcome::BudgetExhausted => {
            panic!("post-restart livelock (injected: {injected:?})")
        }
    }
    for (path, want) in &reference {
        assert_eq!(
            shared_result(&w, path).as_deref(),
            Some(want.as_str()),
            "wrong answer in {path} after restart (injected: {injected:?})"
        );
    }
}

#[test]
fn relay_death_mid_drain_aborts_to_previous_generation() {
    run_relay_fault(FaultKind::RelayKill);
}

#[test]
fn relay_partition_behaves_like_lost_participant() {
    run_relay_fault(FaultKind::RelaySever);
}

// ---------------------------------------------------------------------
// Time-travel replay of a recorded cell. When a matrix cell fails, its
// flight-recorder journal lands in `target/replay/<seed>.jsonl` and the
// failure report prints the exact invocation of this test. The journal's
// metadata names the cell, so the replay rebuilds the identical world,
// re-delivers the recorded schedule up to the requested virtual time
// (default: the instant of death), and dumps the substrate as structured
// JSON — sockets, fds, barrier state, the causal event tail.
// ---------------------------------------------------------------------

/// Rebuild the matrix cell a journal was recorded from, using the metadata
/// `record_cell` stamped into its header.
fn cell_from_meta(j: &obs::journal::DecodedJournal) -> Cell {
    let get = |k: &str| {
        j.meta_value(k)
            .unwrap_or_else(|| panic!("journal meta lacks {k:?} — not a fault-matrix recording"))
    };
    let kind_name = get("kind");
    let kind = FaultKind::ALL
        .iter()
        .copied()
        .chain([
            FaultKind::RelayKill,
            FaultKind::RelaySever,
            FaultKind::NodeLoss,
        ])
        .find(|k| k.name() == kind_name)
        .unwrap_or_else(|| panic!("unknown fault kind {kind_name:?}"));
    let wl_name = get("workload");
    let wl = Workload::ALL
        .iter()
        .copied()
        .find(|w| w.name() == wl_name)
        .unwrap_or_else(|| panic!("unknown workload {wl_name:?}"));
    let cell = Cell {
        kind,
        stage: get("stage").parse().expect("stage meta"),
        wl,
        base: parse_seed(get("base")).expect("base meta"),
        variant: get("variant").parse().expect("variant meta"),
        forked: get("forked") == "1",
        // Journals recorded before the incremental-store cells existed
        // lack the key; those cells all ran storeless.
        store: j.meta_value("store").map(|v| v == "1").unwrap_or(false),
        // Likewise the fill cells: absent or empty means none.
        fill: FillPoint::ALL
            .into_iter()
            .find(|p| j.meta_value("fill") == Some(p.name())),
    };
    // The seed stamped at record time must match the rebuilt cell, or the
    // seed derivation changed since the journal was written and replaying
    // it would explore a different fault timing entirely.
    assert_eq!(
        format!("{:#x}", cell.seed()),
        get("seed"),
        "cell-seed mismatch: the matrix changed since this journal was recorded"
    );
    cell
}

/// Re-execute a recorded red cell to any virtual time (`DMTCP_REPLAY` names
/// the journal, `DMTCP_REPLAY_SEEK` the nanosecond to stop at — default the
/// recorded moment of death) and dump the substrate there. Without
/// `DMTCP_REPLAY` the test is a no-op, so plain `cargo test` stays green.
#[test]
fn replay_cell() {
    let Ok(path) = std::env::var("DMTCP_REPLAY") else {
        eprintln!(
            "replay_cell: skipped (set DMTCP_REPLAY=target/replay/<seed>.jsonl; \
             a failing matrix cell prints the exact invocation)"
        );
        return;
    };
    let jsonl = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read journal {path}: {e}"));
    let recorded = obs::journal::decode_jsonl(&jsonl)
        .unwrap_or_else(|e| panic!("journal {path} does not decode: {e:?}"));
    let cell = cell_from_meta(&recorded);
    let seek = match std::env::var("DMTCP_REPLAY_SEEK") {
        Ok(s) => Nanos(parse_seed(&s).expect("DMTCP_REPLAY_SEEK must be nanoseconds")),
        Err(_) => Nanos(
            recorded
                .meta_value("end_ns")
                .and_then(|s| s.parse().ok())
                .expect("journal lacks end_ns metadata; pass DMTCP_REPLAY_SEEK"),
        ),
    };
    eprintln!(
        "replaying cell {} (seed {:#x}) to t={}ns from {path}",
        cell.id(),
        cell.seed(),
        seek.0
    );

    // Reconstruct the recorded world exactly: same cluster, same session
    // options, same fault plan, same launches — then let the journal drive.
    let (mut w, mut sim) = cluster(2);
    dmtcp::replay::arm(&mut w, &recorded).expect("recording arms");
    let s = start_cell(&cell, &mut w, &mut sim);
    let report = dmtcp::replay::drive(&mut w, &mut sim, &s, &recorded, Some(seek));
    eprintln!("{}", report.verdict());
    println!("{}", report.snapshot);
    assert!(
        report.divergence.is_none(),
        "replay diverged from the recording:\n{}",
        report.verdict()
    );
}
