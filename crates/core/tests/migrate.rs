//! Heterogeneous restart and live migration, through the typed
//! [`RestartPlan`] API.
//!
//! * **Differential restart**: one committed generation mapped onto 1×, ½×
//!   and 2× node counts must produce bit-identical answers, and the
//!   [`RestartOutcome::placement`] accounting must sum exactly to the
//!   original process set in every topology.
//! * **Live migration**: a closed subset of processes moves between nodes
//!   while bystanders keep computing; rolling upgrade drains nodes one at
//!   a time under continuous checkpoint traffic.
//! * **Red cells**: node loss during migration — a dying source node is
//!   served by the chunk store's replicas (the transfer channel); a dying
//!   target aborts the migration and the movers fall back cleanly onto a
//!   healthy node, with bystander generations untouched. Failing cells
//!   dump their flight-recorder journal to `target/replay/<seed>.jsonl`.

mod common;

use common::*;
use dmtcp::coord::{coord_shared_for, stage, COORD_PORT};
use dmtcp::hijack::hijack_in;
use dmtcp::session::{enable_flight_recorder, export_journal, run_for, transplant_storage};
use dmtcp::{ExpectCkpt, Options, Packing, RestartError, RestartPlan, Session};
use faultkit::{FaultKind, FaultPlan};
use obs::journal::{CLASS_FAULT, CLASS_NET, CLASS_STAGE};
use oskit::program::{Program, Registry, Step};
use oskit::world::{NodeId, OsSim, Pid, World};
use oskit::{HwSpec, Kernel};
use simkit::{Nanos, Sim, Snap};
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::PathBuf;

/// A standalone compute loop: counts to `target`, then records the count in
/// `/shared/tick_<id>`. No sockets, no fork — the minimal migratable unit.
struct Ticker {
    id: u32,
    count: u64,
    target: u64,
}
simkit::impl_snap!(struct Ticker { id, count, target });

impl Ticker {
    fn new(id: u32, target: u64) -> Self {
        Ticker {
            id,
            count: 0,
            target,
        }
    }

    fn result_path(id: u32) -> String {
        format!("/shared/tick_{id}")
    }
}

impl Program for Ticker {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        if self.count < self.target {
            self.count += 1;
            return Step::Compute(200_000);
        }
        let fd = k.open(&Ticker::result_path(self.id), true).expect("result");
        k.write(fd, format!("{}", self.count).as_bytes())
            .expect("w");
        Step::Exit(0)
    }
    fn tag(&self) -> &'static str {
        "ticker"
    }
    fn save(&self) -> Vec<u8> {
        self.to_snap_bytes()
    }
}

fn registry() -> Registry {
    let mut r = test_registry();
    r.register_snap::<Ticker>("ticker");
    r
}

fn world(nodes: usize) -> (World, OsSim) {
    (World::new(HwSpec::cluster(), nodes, registry()), Sim::new())
}

fn opts() -> Options {
    Options::builder().ckpt_dir("/shared/ckpt").build()
}

/// Reference: the chain workload with no DMTCP at all.
fn chain_reference(rounds: u64) -> (String, String) {
    let (mut w, mut sim) = world(2);
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
        Box::new(ChainClient::new("node01", 9000, rounds)),
        Pid(1),
        BTreeMap::new(),
    );
    assert!(sim.run_bounded(&mut w, run_budget()));
    (
        shared_result(&w, "/shared/client_result").expect("client finished"),
        shared_result(&w, "/shared/server_result").expect("server finished"),
    )
}

/// Virtual pid of the (unique) live traced process running `cmd`.
fn vpid_of(w: &World, cmd: &str) -> u32 {
    w.procs
        .values()
        .find(|p| p.alive() && p.cmd == cmd)
        .and_then(hijack_in)
        .map(|h| h.vpid)
        .unwrap_or_else(|| panic!("{cmd} is not a live traced process"))
}

/// Node hosting the (unique) live process running `cmd`.
fn node_of(w: &World, cmd: &str) -> NodeId {
    w.procs
        .values()
        .find(|p| p.alive() && p.cmd == cmd)
        .map(|p| p.node)
        .unwrap_or_else(|| panic!("{cmd} is not alive"))
}

/// Virtual pids of every live traced process (optionally: on one node).
fn traced_vpids(w: &World, node: Option<NodeId>) -> BTreeSet<u32> {
    w.procs
        .values()
        .filter(|p| p.alive() && node.is_none_or(|n| p.node == n))
        .filter_map(hijack_in)
        .map(|h| h.vpid)
        .collect()
}

// ---------------------------------------------------------------------
// Differential restart: 1×, ½×, 2× node counts, bit-identical answers,
// placement accounting summing to the original process set.
// ---------------------------------------------------------------------

#[test]
fn same_generation_restarts_onto_one_half_and_double_node_counts() {
    let rounds = 300;
    let tick_target = 400;
    let (ref_client, ref_server) = chain_reference(rounds);
    let budget = run_budget();

    // Source computation on 2 nodes: a cross-node TCP pair + a standalone
    // compute process.
    let (mut w, mut sim) = world(2);
    let s = Session::start(&mut w, &mut sim, opts());
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
        Box::new(ChainClient::new("node01", 9000, rounds)),
    );
    s.launch(
        &mut w,
        &mut sim,
        NodeId(0),
        "tick",
        Box::new(Ticker::new(0, tick_target)),
    );
    run_for(&mut w, &mut sim, Nanos::from_millis(40));
    let original = traced_vpids(&w, None);
    let stat = s
        .checkpoint_and_wait(&mut w, &mut sim, budget)
        .expect_ckpt();
    assert_eq!(stat.participants, 3);
    let gen = stat.gen;

    let results = [
        "/shared/client_result",
        "/shared/server_result",
        "/shared/tick_0",
    ];
    let cases: [(&str, Vec<NodeId>, usize, Packing); 3] = [
        ("1x", vec![NodeId(0), NodeId(1)], 2, Packing::RoundRobin),
        ("half", vec![NodeId(0)], 1, Packing::Fill),
        ("2x", (0..4).map(NodeId).collect(), 4, Packing::RoundRobin),
    ];
    for (label, targets, nodes, pack) in cases {
        // Fresh world of the target size; only the storage survives.
        let (mut w2, mut sim2) = world(nodes);
        transplant_storage(&w, &mut w2);
        for p in results {
            let _ = w2.shared_fs.remove(p);
        }
        let s2 = Session::start(&mut w2, &mut sim2, opts());
        let outcome = RestartPlan::builder()
            .generation(gen)
            .topology(targets.iter().copied())
            .pack(pack)
            .build()
            .execute(&s2, &mut w2, &mut sim2)
            .unwrap_or_else(|e| panic!("{label}: restart plan failed: {e}"));
        assert_eq!(outcome.gen, gen, "{label}");

        // Accounting invariant: every vpid placed exactly once, onto a
        // target node, and the union reproduces the original process set.
        let mut placed = BTreeSet::new();
        let mut total = 0usize;
        for (node, vpids) in &outcome.placement {
            assert!(targets.contains(node), "{label}: {node:?} not a target");
            total += vpids.len();
            placed.extend(vpids.iter().copied());
        }
        assert_eq!(total, original.len(), "{label}: a vpid was placed twice");
        assert_eq!(
            placed, original,
            "{label}: placement does not sum to the original process set"
        );

        Session::wait_restart_done(&mut w2, &mut sim2, gen, budget);
        assert!(sim2.run_bounded(&mut w2, budget), "{label}: deadlock");
        assert_eq!(
            shared_result(&w2, "/shared/client_result").as_deref(),
            Some(ref_client.as_str()),
            "{label}: client answer diverged"
        );
        assert_eq!(
            shared_result(&w2, "/shared/server_result").as_deref(),
            Some(ref_server.as_str()),
            "{label}: server answer diverged"
        );
        assert_eq!(
            shared_result(&w2, "/shared/tick_0").as_deref(),
            Some(tick_target.to_string().as_str()),
            "{label}: ticker answer diverged"
        );
    }
}

// ---------------------------------------------------------------------
// Live migration: movers restored elsewhere, bystanders keep running.
// ---------------------------------------------------------------------

#[test]
fn live_migration_moves_subset_while_bystanders_run() {
    let rounds = 500;
    let tick_target = 3_000;
    let (ref_client, ref_server) = chain_reference(rounds);
    let budget = run_budget();

    let (mut w, mut sim) = world(3);
    let s = Session::start(&mut w, &mut sim, opts());
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
        Box::new(ChainClient::new("node01", 9000, rounds)),
    );
    s.launch(
        &mut w,
        &mut sim,
        NodeId(0),
        "tick",
        Box::new(Ticker::new(0, tick_target)),
    );
    run_for(&mut w, &mut sim, Nanos::from_millis(20));
    let tick = vpid_of(&w, "tick");
    assert_eq!(node_of(&w, "tick"), NodeId(0));

    let report = RestartPlan::builder()
        .only_pids([tick])
        .topology([NodeId(2)])
        .build()
        .migrate(&s, &mut w, &mut sim, budget)
        .expect("live migration");
    assert_eq!(report.moved, BTreeSet::from([tick]));
    assert_eq!(report.placement, vec![(NodeId(2), vec![tick])]);
    assert!(report.pause.0 > 0, "pause window recorded");
    assert_eq!(node_of(&w, "tick"), NodeId(2), "mover landed on the target");

    // No generation was abandoned: bystanders were checkpointed and
    // resumed, never aborted.
    assert!(
        coord_shared_for(&mut w, COORD_PORT)
            .gen_stats
            .iter()
            .all(|g| !g.aborted),
        "no generation aborted during live migration"
    );

    assert!(sim.run_bounded(&mut w, budget), "post-migration deadlock");
    assert_eq!(
        shared_result(&w, "/shared/client_result").as_deref(),
        Some(ref_client.as_str()),
        "bystander answer diverged"
    );
    assert_eq!(
        shared_result(&w, "/shared/server_result").as_deref(),
        Some(ref_server.as_str()),
        "bystander answer diverged"
    );
    assert_eq!(
        shared_result(&w, "/shared/tick_0").as_deref(),
        Some(tick_target.to_string().as_str()),
        "mover answer diverged"
    );
}

#[test]
fn rolling_upgrade_drains_nodes_one_at_a_time() {
    let budget = run_budget();
    let (mut w, mut sim) = world(3);
    let s = Session::start(&mut w, &mut sim, opts());
    // One worker per upgradable node; targets sized to outlive both
    // upgrades comfortably.
    s.launch(
        &mut w,
        &mut sim,
        NodeId(0),
        "tick0",
        Box::new(Ticker::new(0, 5_000)),
    );
    s.launch(
        &mut w,
        &mut sim,
        NodeId(1),
        "tick1",
        Box::new(Ticker::new(1, 5_000)),
    );
    run_for(&mut w, &mut sim, Nanos::from_millis(10));

    // Drain node 0, then node 1, onto the spare node 2 — with ordinary
    // checkpoint traffic continuing between the upgrades.
    for node in [NodeId(0), NodeId(1)] {
        let movers = traced_vpids(&w, Some(node));
        assert!(!movers.is_empty(), "{node:?} hosts a worker");
        let report = RestartPlan::builder()
            .only_pids(movers.iter().copied())
            .topology([NodeId(2)])
            .build()
            .migrate(&s, &mut w, &mut sim, budget)
            .unwrap_or_else(|e| panic!("upgrade of {node:?} failed: {e}"));
        assert_eq!(report.moved, movers);
        assert!(
            traced_vpids(&w, Some(node)).is_empty(),
            "{node:?} drained after its upgrade"
        );
        // The next interval checkpoint between upgrades must still work.
        run_for(&mut w, &mut sim, Nanos::from_millis(5));
        s.checkpoint_and_wait(&mut w, &mut sim, budget)
            .expect_ckpt();
    }

    assert!(sim.run_bounded(&mut w, budget), "post-upgrade deadlock");
    assert_eq!(shared_result(&w, "/shared/tick_0").as_deref(), Some("5000"));
    assert_eq!(shared_result(&w, "/shared/tick_1").as_deref(), Some("5000"));
}

// ---------------------------------------------------------------------
// Typed error surface.
// ---------------------------------------------------------------------

#[test]
fn migrating_half_a_connection_is_rejected_and_harmless() {
    let rounds = 400;
    let (ref_client, ref_server) = chain_reference(rounds);
    let budget = run_budget();
    let (mut w, mut sim) = world(3);
    let s = Session::start(&mut w, &mut sim, opts());
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
        Box::new(ChainClient::new("node01", 9000, rounds)),
    );
    run_for(&mut w, &mut sim, Nanos::from_millis(20));
    let client = vpid_of(&w, "client");

    // The client's connection gsid is shared with the server: the subset
    // {client} is not closed, so the plan is rejected *before* anything is
    // killed — the computation keeps running.
    let err = RestartPlan::builder()
        .only_pids([client])
        .topology([NodeId(2)])
        .build()
        .migrate(&s, &mut w, &mut sim, budget)
        .expect_err("half a connection cannot migrate");
    assert!(
        matches!(err, RestartError::SubsetNotClosed { .. }),
        "unexpected error: {err}"
    );

    assert!(sim.run_bounded(&mut w, budget), "post-rejection deadlock");
    assert_eq!(
        shared_result(&w, "/shared/client_result").as_deref(),
        Some(ref_client.as_str())
    );
    assert_eq!(
        shared_result(&w, "/shared/server_result").as_deref(),
        Some(ref_server.as_str())
    );
}

#[test]
fn plan_validation_yields_typed_errors() {
    let budget = run_budget();
    let (mut w, mut sim) = world(2);
    let s = Session::start(&mut w, &mut sim, opts());

    // Before any checkpoint: no script.
    assert!(matches!(
        RestartPlan::from_generation(&w, s.opts.coord_port, 1),
        Err(RestartError::NoScript)
    ));

    s.launch(
        &mut w,
        &mut sim,
        NodeId(0),
        "tick",
        Box::new(Ticker::new(0, 2_000)),
    );
    run_for(&mut w, &mut sim, Nanos::from_millis(5));
    let stat = s
        .checkpoint_and_wait(&mut w, &mut sim, budget)
        .expect_ckpt();

    // A generation that never committed.
    assert!(matches!(
        RestartPlan::from_generation(&w, s.opts.coord_port, 99),
        Err(RestartError::MissingGeneration { gen: 99 })
    ));

    // An empty target topology can hold nothing.
    s.kill_computation(&mut w, &mut sim);
    let err = RestartPlan::builder()
        .generation(stat.gen)
        .topology([])
        .build()
        .execute(&s, &mut w, &mut sim)
        .expect_err("empty topology");
    assert!(
        matches!(err, RestartError::TopologyTooSmall { got: 0, .. }),
        "unexpected error: {err}"
    );
}

/// A generation restores *its own* process set, not the newest one's: two
/// processes commit generation 1, one finishes, generation 2 commits with
/// the survivor alone — and a plan pinned to generation 1 still restores
/// both.
#[test]
fn an_older_generation_restores_its_own_process_set() {
    let budget = run_budget();
    let (mut w, mut sim) = world(2);
    let s = Session::start(&mut w, &mut sim, opts());
    let port = s.opts.coord_port;
    s.launch(
        &mut w,
        &mut sim,
        NodeId(0),
        "brief",
        Box::new(Ticker::new(0, 150)),
    );
    s.launch(
        &mut w,
        &mut sim,
        NodeId(1),
        "long",
        Box::new(Ticker::new(1, 4_000)),
    );
    run_for(&mut w, &mut sim, Nanos::from_millis(4));
    let both = traced_vpids(&w, None);
    let g1 = s
        .checkpoint_and_wait(&mut w, &mut sim, budget)
        .expect_ckpt();
    assert_eq!((g1.gen, g1.participants), (1, 2));

    dmtcp::session::wait_until(
        &mut w,
        &mut sim,
        budget,
        dmtcp::session::Order::CheckFirst,
        |w| shared_result(w, "/shared/tick_0"),
    )
    .expect("the brief ticker finishes");
    run_for(&mut w, &mut sim, Nanos::from_millis(2));
    let g2 = s
        .checkpoint_and_wait(&mut w, &mut sim, budget)
        .expect_ckpt();
    assert_eq!((g2.gen, g2.participants), (2, 1));

    s.kill_computation(&mut w, &mut sim);
    w.shared_fs.remove("/shared/tick_0").expect("result file");
    let out = RestartPlan::from_generation(&w, port, 1)
        .expect("generation 1 committed")
        .execute(&s, &mut w, &mut sim)
        .expect("generation 1 restores");
    let placed: BTreeSet<u32> = out.placement.iter().flat_map(|(_, v)| v).copied().collect();
    assert_eq!(placed.len() as u32, g1.participants, "{:?}", out.placement);
    assert_eq!(placed, both);
    Session::wait_restart_done(&mut w, &mut sim, 1, budget);
    assert!(sim.run_bounded(&mut w, budget), "post-restart deadlock");
    assert_eq!(
        shared_result(&w, "/shared/tick_0").as_deref(),
        Some("150"),
        "the process generation 2 no longer had ran again from generation 1"
    );
    assert_eq!(shared_result(&w, "/shared/tick_1").as_deref(), Some("4000"));
}

// ---------------------------------------------------------------------
// Whole-generation fallback. `RestartPlan::resilient` replaced a second
// implementation (`Session::restart_resilient`); the constants below were
// recorded from that implementation at commit fc265d7, and the plan must
// reproduce them exactly — same generation, same rejected images, same
// event at which the restart refills, same flight-recorder journal.
// ---------------------------------------------------------------------

/// 2 nodes, three generations, one bit flipped in one image of the newest,
/// kill, resilient restart. Returns (restored generation, rejected paths,
/// `events_fired` at `RESTART_REFILLED`, journal hash).
fn bit_rot_fallback(seed: u64) -> (u64, Vec<String>, u64, u64) {
    const EV: u64 = 5_000_000;
    let mut rng = simkit::DetRng::seed_from_u64(seed);
    let (mut w, mut sim) = cluster(2);
    enable_flight_recorder(&mut w, CLASS_NET | CLASS_FAULT | CLASS_STAGE, &[]);
    w.obs.journal.set_capacity(1 << 20);
    let s = Session::start(&mut w, &mut sim, opts());
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
        Box::new(ChainClient::new("node01", 9000, 2_000)),
    );
    for gen in 1..=3u64 {
        run_for(&mut w, &mut sim, Nanos::from_millis(4 + rng.below(8)));
        let g = s.checkpoint_and_wait(&mut w, &mut sim, EV).expect_ckpt();
        assert_eq!(g.gen, gen);
    }
    run_for(&mut w, &mut sim, Nanos::from_millis(2 + rng.below(4)));
    let newest: Vec<String> = w
        .shared_fs
        .list_prefix("/shared/ckpt/")
        .filter(|p| p.ends_with("_gen3.dmtcp"))
        .map(str::to_string)
        .collect();
    assert_eq!(newest.len(), 2, "one image per process: {newest:?}");
    let victim = &newest[rng.below(2) as usize];
    let blob = &mut w.shared_fs.get_mut(victim).expect("image exists").blob;
    let (off, bit) = (rng.below(blob.real_len()), rng.below(8) as u8);
    assert!(blob.flip_bit(off, bit));
    s.kill_computation(&mut w, &mut sim);

    let out = RestartPlan::builder()
        .resilient(true)
        .build()
        .execute(&s, &mut w, &mut sim)
        .expect("generation 2 is intact");
    Session::wait_restart_done(&mut w, &mut sim, out.gen, EV);
    let events = sim.events_fired();
    assert_eq!(w.obs.journal.evicted(), 0, "pin journal must be lossless");
    let journal = export_journal(&mut w);
    (
        out.gen,
        out.rejected.into_iter().map(|(path, _)| path).collect(),
        events,
        fnv1a(journal.as_bytes()),
    )
}

#[test]
fn resilient_plan_reproduces_the_deleted_restart_resilient() {
    let recorded: [(u64, &str, u64, u64); 3] = [
        (0xA11CE, "ckpt_4_gen3", 829, 0xa122_b833_4a6e_6134),
        (0xB0B, "ckpt_3_gen3", 950, 0xb89b_f451_1bf4_c40f),
        (0xC0FFEE, "ckpt_4_gen3", 910, 0x5041_0f10_d384_a52f),
    ];
    for (seed, image, events, journal_hash) in recorded {
        let want = (
            2,
            vec![format!("/shared/ckpt/{image}.dmtcp")],
            events,
            journal_hash,
        );
        assert_eq!(bit_rot_fallback(seed), want, "seed {seed:#x}");
    }
}

// ---------------------------------------------------------------------
// Red cells: node loss during live migration. A failing cell dumps its
// flight-recorder journal to target/replay/<seed>.jsonl for time-travel
// replay, like the crash-consistency matrix in `faults.rs`.
// ---------------------------------------------------------------------

const CELL_CLASSES: u8 = CLASS_NET | CLASS_FAULT | CLASS_STAGE;

fn with_replay_journal(
    name: &str,
    seed: u64,
    w: &mut World,
    sim: &mut OsSim,
    f: impl FnOnce(&mut World, &mut OsSim),
) {
    enable_flight_recorder(
        w,
        CELL_CLASSES,
        &[("cell", name), ("seed", &format!("{seed:#x}"))],
    );
    let result = catch_unwind(AssertUnwindSafe(|| f(w, sim)));
    if let Err(e) = result {
        w.obs.journal.set_meta("end_ns", sim.now().0.to_string());
        let jsonl = export_journal(w);
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/replay");
        let path = dir.join(format!("{seed:#x}.jsonl"));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &jsonl)) {
            Ok(()) => eprintln!(
                "red cell {name} died at {}ns; flight-recorder journal: {}",
                sim.now().0,
                path.display()
            ),
            Err(io) => eprintln!("red cell {name}: could not write journal: {io}"),
        }
        resume_unwind(e);
    }
}

#[test]
fn source_node_loss_mid_migration_is_served_by_replicas() {
    let seed: u64 = 0x51DE_0001;
    let budget = run_budget();
    // Node-local images + replicated chunk store: losing the source node's
    // disk must leave the replicas as the only transfer channel.
    let (mut w, mut sim) = world(3);
    ckptstore::install(
        &mut w,
        ckptstore::Config {
            replicas: 2,
            ..Default::default()
        },
    );
    let s = Session::start(
        &mut w,
        &mut sim,
        Options::builder().ckpt_dir("/ckpt").build(),
    );
    // Bystander on the coordinator's node, mover alone on the doomed one.
    s.launch(
        &mut w,
        &mut sim,
        NodeId(0),
        "tick0",
        Box::new(Ticker::new(0, 3_000)),
    );
    s.launch(
        &mut w,
        &mut sim,
        NodeId(1),
        "tick1",
        Box::new(Ticker::new(1, 3_000)),
    );
    run_for(&mut w, &mut sim, Nanos::from_millis(10));
    let mover = vpid_of(&w, "tick1");

    // Node 1 dies the instant the migration's images are committed and
    // validated — after checkpoint-on-source, before restore-on-target.
    let st = faultkit::install(
        &mut w,
        FaultPlan {
            seed,
            kind: FaultKind::NodeLoss,
            stage: stage::CKPT_WRITTEN,
            target_gen: 1,
        },
    );
    st.borrow_mut().pin_victim_node(NodeId(1));

    with_replay_journal("migrate-source-loss", seed, &mut w, &mut sim, |w, sim| {
        let report = RestartPlan::builder()
            .only_pids([mover])
            .topology([NodeId(2)])
            .build()
            .migrate(&s, w, sim, budget)
            .expect("replica-served restore survives source-node loss");
        assert_eq!(report.placement, vec![(NodeId(2), vec![mover])]);
        let injected: Vec<String> = faultkit::state(w)
            .map(|st| st.borrow().injected().to_vec())
            .unwrap_or_default();
        assert!(
            injected.iter().any(|i| i.contains("node-loss")),
            "the node-loss fault fired: {injected:?}"
        );
        assert!(
            w.obs.metrics.counter_total("faultkit.node_loss") > 0,
            "node loss recorded"
        );
        assert!(sim.run_bounded(w, budget), "post-migration deadlock");
        assert_eq!(
            shared_result(w, "/shared/tick_0").as_deref(),
            Some("3000"),
            "bystander diverged"
        );
        assert_eq!(
            shared_result(w, "/shared/tick_1").as_deref(),
            Some("3000"),
            "mover diverged"
        );
    });
    faultkit::uninstall_at(&mut w, sim.now());
}

#[test]
fn target_node_loss_aborts_migration_and_movers_fall_back() {
    let seed: u64 = 0x51DE_0002;
    let budget = run_budget();
    let (mut w, mut sim) = world(3);
    let s = Session::start(&mut w, &mut sim, opts());
    s.launch(
        &mut w,
        &mut sim,
        NodeId(0),
        "tick0",
        Box::new(Ticker::new(0, 4_000)),
    );
    s.launch(
        &mut w,
        &mut sim,
        NodeId(1),
        "tick1",
        Box::new(Ticker::new(1, 4_000)),
    );
    run_for(&mut w, &mut sim, Nanos::from_millis(10));
    let mover = vpid_of(&w, "tick1");

    // The *target* node dies before the movers can re-register: the
    // migration must abort with a typed error, not hang or kill
    // bystanders.
    let st = faultkit::install(
        &mut w,
        FaultPlan {
            seed,
            kind: FaultKind::NodeLoss,
            stage: stage::CKPT_WRITTEN,
            target_gen: 1,
        },
    );
    st.borrow_mut().pin_victim_node(NodeId(2));

    with_replay_journal("migrate-target-loss", seed, &mut w, &mut sim, |w, sim| {
        let err = RestartPlan::builder()
            .only_pids([mover])
            .topology([NodeId(2)])
            .build()
            .migrate(&s, w, sim, budget)
            .expect_err("migration onto a dead node aborts");
        assert!(
            matches!(err, RestartError::AbortedDuringMigration { .. }),
            "unexpected error: {err}"
        );
        // The bystanders' checkpoint generation is untouched: gen 1's
        // checkpoint stat completed and was never aborted, and the
        // bystander is still computing.
        assert!(
            coord_shared_for(w, COORD_PORT)
                .gen_stats
                .iter()
                .any(|g| g.gen == 1 && g.releases.contains_key(&stage::CKPT_WRITTEN) && !g.aborted),
            "bystander generation stays committed"
        );
        // The bystander is either still computing or already ran to its
        // correct completion — in no case was it restarted or killed.
        assert!(
            traced_vpids(w, Some(NodeId(0))).len() == 1
                || shared_result(w, "/shared/tick_0").as_deref() == Some("4000"),
            "bystander untouched by the aborted migration"
        );
    });
    faultkit::uninstall_at(&mut w, sim.now());

    // Fall back cleanly: cold-restore the movers from the committed
    // generation onto a healthy node, bystanders still untouched.
    let outcome = RestartPlan::builder()
        .generation(1)
        .only_pids([mover])
        .topology([NodeId(0)])
        .build()
        .execute(&s, &mut w, &mut sim)
        .expect("fallback restore onto a healthy node");
    assert_eq!(outcome.placement, vec![(NodeId(0), vec![mover])]);
    Session::wait_restart_done(&mut w, &mut sim, 1, budget);

    assert!(sim.run_bounded(&mut w, budget), "post-fallback deadlock");
    assert_eq!(
        shared_result(&w, "/shared/tick_0").as_deref(),
        Some("4000"),
        "bystander diverged"
    );
    assert_eq!(
        shared_result(&w, "/shared/tick_1").as_deref(),
        Some("4000"),
        "mover diverged after fallback"
    );
}

/// Migrate generation g, then crash and restart g: waiting for the restart
/// must wait for *that* restart. The migration's stats for g already show
/// the restart-refill release, and until the new plan reaches the
/// coordinator they are the newest stats of g there are.
#[test]
fn a_restart_of_a_migrated_generation_waits_for_its_own_release() {
    let budget = run_budget();
    let (mut w, mut sim) = world(3);
    let s = Session::start(&mut w, &mut sim, opts());
    for (node, id) in [(0, 0), (1, 1)] {
        let prog = Box::new(Ticker::new(id, 4_000));
        s.launch(&mut w, &mut sim, NodeId(node), &format!("tick{id}"), prog);
    }
    run_for(&mut w, &mut sim, Nanos::from_millis(10));
    let mover = vpid_of(&w, "tick1");
    let report = RestartPlan::builder()
        .only_pids([mover])
        .topology([NodeId(2)])
        .build()
        .migrate(&s, &mut w, &mut sim, budget)
        .expect("live migration");
    run_for(&mut w, &mut sim, Nanos::from_millis(5));

    s.kill_computation(&mut w, &mut sim);
    let asked = sim.now();
    let out = RestartPlan::from_generation(&w, s.opts.coord_port, report.gen)
        .expect("the migration committed its generation")
        .execute(&s, &mut w, &mut sim)
        .expect("restart");
    Session::wait_restart_done(&mut w, &mut sim, out.gen, budget);
    let st = coord_shared_for(&mut w, COORD_PORT)
        .newest(out.gen)
        .cloned()
        .expect("stats of the restored generation");
    assert!(
        st.requested_at >= asked,
        "returned on the migration's release ({:?}), not the restart's",
        st.requested_at
    );
    let released = st.releases[&stage::RESTART_REFILLED];
    assert!(released <= sim.now(), "returned before its own release");

    assert!(sim.run_bounded(&mut w, budget), "post-restart deadlock");
    for id in [0, 1] {
        assert_eq!(
            shared_result(&w, &Ticker::result_path(id)).as_deref(),
            Some("4000"),
            "ticker {id} diverged"
        );
    }
}

// ---------------------------------------------------------------------
// The first checkpoint after a recovery, requested with no gap at all.
// ---------------------------------------------------------------------

/// A checkpoint requested at the very event `wait_restart_done` (or
/// `migrate`) returns on must complete like any other: "restart done" means
/// the managers are back in their checkpoint loop, not merely that the
/// coordinator has sent the release they are still waiting to read.
fn checkpoint_with_zero_gap_after_recovery(topology: dmtcp::Topology) {
    let budget = run_budget();
    let (mut w, mut sim) = world(3);
    let s = Session::start(
        &mut w,
        &mut sim,
        Options::builder()
            .ckpt_dir("/shared/ckpt")
            .topology(topology)
            .build(),
    );
    // One process beside the coordinator (a loopback control channel) and
    // two across the network.
    for (node, id) in [(0, 0), (1, 1), (1, 2)] {
        let prog = Box::new(Ticker::new(id, 6_000));
        s.launch(&mut w, &mut sim, NodeId(node), &format!("tick{id}"), prog);
    }
    run_for(&mut w, &mut sim, Nanos::from_millis(10));
    let g1 = s
        .checkpoint_and_wait(&mut w, &mut sim, budget)
        .expect_ckpt();
    assert_eq!((g1.gen, g1.participants), (1, 3));

    // Kill → restart → checkpoint, back to back.
    s.kill_computation(&mut w, &mut sim);
    let out = RestartPlan::newest()
        .execute(&s, &mut w, &mut sim)
        .expect("restart");
    Session::wait_restart_done(&mut w, &mut sim, out.gen, budget);
    let g2 = s
        .checkpoint_and_wait(&mut w, &mut sim, budget)
        .expect_ckpt();
    assert_eq!((g2.gen, g2.participants), (2, 3));

    // Migrate → checkpoint, back to back.
    let mover = vpid_of(&w, "tick0");
    let report = RestartPlan::builder()
        .only_pids([mover])
        .topology([NodeId(2)])
        .build()
        .migrate(&s, &mut w, &mut sim, budget)
        .expect("migration");
    assert_eq!(report.gen, 3);
    let g4 = s
        .checkpoint_and_wait(&mut w, &mut sim, budget)
        .expect_ckpt();
    assert_eq!((g4.gen, g4.participants), (4, 3));

    assert!(sim.run_bounded(&mut w, budget), "deadlock after recovery");
    for id in 0..3 {
        assert_eq!(
            shared_result(&w, &Ticker::result_path(id)).as_deref(),
            Some("6000"),
            "ticker {id} diverged"
        );
    }
}

#[test]
fn checkpoint_with_zero_gap_after_recovery_flat() {
    checkpoint_with_zero_gap_after_recovery(dmtcp::Topology::Flat);
}

#[test]
fn checkpoint_with_zero_gap_after_recovery_hierarchical() {
    checkpoint_with_zero_gap_after_recovery(dmtcp::Topology::Hierarchical);
}

// ---------------------------------------------------------------------
// Red cell: after a migration, the node the mover left *and* that node's
// ring successor both lose their disks. The only whole copy of the mover's
// image is the one its new node adopted when it restored from a peer.
// ---------------------------------------------------------------------

#[test]
fn source_and_its_ring_successor_lost_after_migration_restart_from_the_adopted_copy() {
    let budget = run_budget();
    let (mut w, mut sim) = world(4);
    ckptstore::install(&mut w, ckptstore::Config::default());
    let s = Session::start(
        &mut w,
        &mut sim,
        Options::builder().ckpt_dir("/ckpt").build(),
    );
    // Bystander beside the coordinator; the mover alone on node 1, whose
    // one replica goes to node 2. Node 3 holds nothing of either.
    for (node, id) in [(0, 0), (1, 1)] {
        let prog = Box::new(Ticker::new(id, 3_000));
        s.launch(&mut w, &mut sim, NodeId(node), &format!("tick{id}"), prog);
    }
    run_for(&mut w, &mut sim, Nanos::from_millis(10));
    let mover = vpid_of(&w, "tick1");
    let report = RestartPlan::builder()
        .only_pids([mover])
        .topology([NodeId(3)])
        .build()
        .migrate(&s, &mut w, &mut sim, budget)
        .expect("live migration");
    assert_eq!(report.placement, vec![(NodeId(3), vec![mover])]);
    let image = format!("/ckpt/ckpt_{mover}_gen{}.dmtcp", report.gen);
    let held_by = |w: &World, n: usize| {
        let mpath = ckptstore::manifest::manifest_path(&image);
        w.nodes[n].fs.exists(&mpath)
    };
    assert!(held_by(&w, 1) && held_by(&w, 2), "writer and its replica");
    assert!(held_by(&w, 3), "the node that restored it adopted it");
    assert!(!held_by(&w, 0));

    // Crash: the whole computation dies, and nodes 1 and 2 with their disks.
    s.kill_computation(&mut w, &mut sim);
    for n in [1, 2] {
        let fs = &mut w.nodes[n].fs;
        let doomed: Vec<String> = fs.list_prefix("/").map(|p| p.to_string()).collect();
        for p in doomed {
            fs.remove(&p).expect("listed");
        }
    }
    assert!(!held_by(&w, 1) && !held_by(&w, 2));

    // The generation the migration committed is still whole: the bystander
    // from its own node, the mover from the copy node 3 adopted.
    let out = RestartPlan::builder()
        .generation(report.gen)
        .topology([NodeId(0), NodeId(3)])
        .build()
        .execute(&s, &mut w, &mut sim)
        .expect("the adopted copy serves the restart");
    assert!(out.rejected.is_empty());
    let placed: BTreeSet<u32> = out.placement.iter().flat_map(|(_, v)| v.clone()).collect();
    assert_eq!(placed.len(), 2);
    Session::wait_restart_done(&mut w, &mut sim, out.gen, budget);
    assert!(sim.run_bounded(&mut w, budget), "post-restart deadlock");
    for id in [0, 1] {
        assert_eq!(
            shared_result(&w, &Ticker::result_path(id)).as_deref(),
            Some("3000"),
            "ticker {id} diverged"
        );
    }
}
