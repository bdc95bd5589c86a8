//! dmtcpd integration: admission control, shard isolation, per-session
//! observability namespacing, quotas, and restart through the service.

use dmtcp::coord::stage;
use dmtcp::proto::RejectReason;
use dmtcp::{RestartPlan, Session};
use oskit::program::{Program, Registry, Step};
use oskit::world::{NodeId, OsSim, World};
use oskit::{HwSpec, Kernel};
use simkit::{Nanos, Sim, Snap};
use svc::{DaemonConfig, Dmtcpd, SvcCkptError};

/// A counter with memory ballast: computes to a target, then records its
/// count in `/shared/result_<id>`. Honest app — never mentions DMTCP.
struct Worker {
    pc: u8,
    id: u64,
    count: u64,
    target: u64,
}
simkit::impl_snap!(struct Worker { pc, id, count, target });

impl Worker {
    fn new(id: u64, target: u64) -> Self {
        Worker {
            pc: 0,
            id,
            count: 0,
            target,
        }
    }
}

impl Program for Worker {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        if self.pc == 0 {
            k.mmap_synthetic(
                "ballast",
                512 << 10,
                0xb0b0 ^ self.id,
                oskit::mem::FillProfile::Random,
            );
            self.pc = 1;
        }
        if self.count < self.target {
            self.count += 1;
            return Step::Compute(50_000);
        }
        let fd = k
            .open(&format!("/shared/result_{}", self.id), true)
            .expect("result file");
        k.write(fd, self.count.to_string().as_bytes())
            .expect("write");
        Step::Exit(0)
    }
    fn tag(&self) -> &'static str {
        "svc-worker"
    }
    fn save(&self) -> Vec<u8> {
        self.to_snap_bytes()
    }
}

fn registry() -> Registry {
    let mut r = Registry::new();
    r.register_snap::<Worker>("svc-worker");
    r
}

fn cluster(nodes: usize) -> (World, OsSim) {
    (World::new(HwSpec::cluster(), nodes, registry()), Sim::new())
}

const EV: u64 = 8_000_000;

#[test]
fn admission_control_is_typed_and_slots_recycle() {
    let (mut w, mut sim) = cluster(2);
    let d = Dmtcpd::start(
        &mut w,
        &mut sim,
        DaemonConfig {
            shards: 2,
            max_sessions: 2,
            max_procs_per_session: 4,
            ..DaemonConfig::default()
        },
    );
    let a = d.open(&mut w, &mut sim, "acme", 2).expect("admitted");
    let b = d.open(&mut w, &mut sim, "bolt", 2).expect("admitted");
    assert_ne!(a.sid, b.sid);
    assert_ne!(
        a.shard_port(),
        b.shard_port(),
        "hash-assigned to distinct shards"
    );

    // Registry full → typed SessionsFull.
    let e = d.open(&mut w, &mut sim, "crux", 1).expect_err("full");
    assert_eq!(e.reason, Some(RejectReason::SessionsFull));

    // Close one and the slot is reusable.
    b.close(&mut w, &mut sim);
    assert_eq!(d.open_sessions(&mut w), vec![a.sid]);
    let c = d.open(&mut w, &mut sim, "crux", 1).expect("slot freed");
    assert_eq!(d.open_sessions(&mut w).len(), 2);

    // Oversized and malformed requests get their own reasons.
    let e = d.open(&mut w, &mut sim, "dent", 9).expect_err("too big");
    assert_eq!(e.reason, Some(RejectReason::TooManyProcs));
    a.close(&mut w, &mut sim);
    let e = d.open(&mut w, &mut sim, "", 1).expect_err("bad request");
    assert_eq!(e.reason, Some(RejectReason::BadRequest));
    let e = d
        .open(&mut w, &mut sim, "dent", 0)
        .expect_err("bad request");
    assert_eq!(e.reason, Some(RejectReason::BadRequest));
    c.close(&mut w, &mut sim);
    assert!(d.open_sessions(&mut w).is_empty());
}

#[test]
fn sessions_checkpoint_on_their_own_shards_without_observable_bleed() {
    let (mut w, mut sim) = cluster(3);
    w.obs.journal.enable(obs::journal::CLASS_STAGE);
    let d = Dmtcpd::start(
        &mut w,
        &mut sim,
        DaemonConfig {
            shards: 2,
            ..DaemonConfig::default()
        },
    );
    let a = d.open(&mut w, &mut sim, "acme", 4).expect("admitted");
    let b = d.open(&mut w, &mut sim, "bolt", 4).expect("admitted");
    a.launch(
        &mut w,
        &mut sim,
        NodeId(1),
        "worker",
        Box::new(Worker::new(1, 4000)),
    );
    b.launch(
        &mut w,
        &mut sim,
        NodeId(2),
        "worker",
        Box::new(Worker::new(2, 4000)),
    );
    dmtcp::session::run_for(&mut w, &mut sim, Nanos::from_millis(30));

    // Checkpoint tenant A twice, tenant B once.
    let ga1 = a.checkpoint_and_wait(&mut w, &mut sim, EV).expect("a gen1");
    let ga2 = a.checkpoint_and_wait(&mut w, &mut sim, EV).expect("a gen2");
    let gb1 = b.checkpoint_and_wait(&mut w, &mut sim, EV).expect("b gen1");
    assert_eq!((ga1.gen, ga2.gen, gb1.gen), (1, 2, 1));

    // Shard isolation: each shard's barrier history is its own.
    let a_stats = dmtcp::coord::coord_shared_for(&mut w, a.shard_port())
        .gen_stats
        .len();
    let b_stats = dmtcp::coord::coord_shared_for(&mut w, b.shard_port())
        .gen_stats
        .len();
    assert_eq!((a_stats, b_stats), (2, 1));

    // Images land in per-tenant namespaces.
    let dir_of = |c: &svc::Client| c.session.opts.ckpt_dir.clone();
    assert_eq!(ckptstore::tenant::tenant_of(&dir_of(&a)), Some("acme"));
    assert_eq!(ckptstore::tenant::tenant_of(&dir_of(&b)), Some("bolt"));

    // Per-session metrics: checkpoint requests are labeled by sid, and no
    // third session ever shows up.
    assert_eq!(w.obs.metrics.counter("svc.ckpt_requests", a.sid), 2);
    assert_eq!(w.obs.metrics.counter("svc.ckpt_requests", b.sid), 1);
    assert_eq!(
        w.obs.metrics.counter_labels("svc.ckpt_requests"),
        vec![a.sid, b.sid]
    );

    // Journal namespacing: every svc event names exactly one session, and
    // the tenant detail always matches that session — no cross-tenant
    // events in either direction.
    let mut svc_events = 0;
    for ev in w.obs.journal.events() {
        if !ev.kind.starts_with("svc.") {
            continue;
        }
        svc_events += 1;
        let sid = ev.num("sid").expect("svc events carry a sid");
        if !ev.detail.is_empty() {
            let expect = if sid == a.sid { "acme" } else { "bolt" };
            assert_eq!(ev.detail, expect, "cross-tenant event: {}", ev.describe());
        }
        assert!(
            sid == a.sid || sid == b.sid,
            "unknown sid in {}",
            ev.describe()
        );
    }
    assert!(svc_events >= 5, "open x2 + ckpt x3 journal events expected");
}

#[test]
fn victim_session_restarts_while_the_other_keeps_its_generation() {
    let (mut w, mut sim) = cluster(3);
    let d = Dmtcpd::start(
        &mut w,
        &mut sim,
        DaemonConfig {
            shards: 2,
            ..DaemonConfig::default()
        },
    );
    let a = d.open(&mut w, &mut sim, "acme", 4).expect("admitted");
    let b = d.open(&mut w, &mut sim, "bolt", 4).expect("admitted");
    a.launch(
        &mut w,
        &mut sim,
        NodeId(1),
        "worker",
        Box::new(Worker::new(1, 3000)),
    );
    b.launch(
        &mut w,
        &mut sim,
        NodeId(2),
        "worker",
        Box::new(Worker::new(2, 3000)),
    );
    dmtcp::session::run_for(&mut w, &mut sim, Nanos::from_millis(20));
    let ga = a.checkpoint_and_wait(&mut w, &mut sim, EV).expect("a gen1");
    let gb = b.checkpoint_and_wait(&mut w, &mut sim, EV).expect("b gen1");

    // Kill tenant A's computation; B is untouched.
    a.kill_computation(&mut w, &mut sim);
    let out = RestartPlan::builder()
        .resilient(true)
        .build()
        .execute(&a.session, &mut w, &mut sim)
        .expect("restartable");
    assert_eq!(out.gen, ga.gen);
    Session::await_release(
        &mut w,
        &mut sim,
        a.shard_port(),
        ga.gen,
        stage::RESTART_REFILLED,
        EV,
    );

    // Both computations run to completion with correct answers.
    dmtcp::session::run_for(&mut w, &mut sim, Nanos::from_millis(700));
    let read = |w: &World, id: u64| {
        w.shared_fs
            .read_all(&format!("/shared/result_{id}"))
            .ok()
            .map(|b| String::from_utf8(b).unwrap())
    };
    assert_eq!(
        read(&w, 1).as_deref(),
        Some("3000"),
        "restarted tenant finishes"
    );
    assert_eq!(
        read(&w, 2).as_deref(),
        Some("3000"),
        "bystander tenant finishes"
    );
    // B's shard never saw A's crash: its only generation is still gb.
    let b_stats = dmtcp::coord::coord_shared_for(&mut w, b.shard_port())
        .gen_stats
        .clone();
    assert_eq!(b_stats.len(), 1);
    assert_eq!(b_stats[0].gen, gb.gen);
    assert!(!b_stats[0].aborted);
}

/// A one-shard daemon whose tenant "acme" has already spent its quota:
/// session `a` committed one generation and its ledger is over the ceiling.
fn exhausted_tenant() -> (World, OsSim, Dmtcpd, svc::Client) {
    let (mut w, mut sim) = cluster(2);
    ckptstore::install(&mut w, ckptstore::Config::default());
    // A quota small enough that the first checkpoint exhausts it.
    ckptstore::tenant::register_tenant(
        &mut w,
        "acme",
        ckptstore::tenant::TenantConfig {
            quota_bytes: 4 << 10,
            retention: 4,
        },
    );
    let d = Dmtcpd::start(
        &mut w,
        &mut sim,
        DaemonConfig {
            shards: 1,
            ..DaemonConfig::default()
        },
    );
    let a = d
        .open(&mut w, &mut sim, "acme", 2)
        .expect("under quota at open");
    a.launch(
        &mut w,
        &mut sim,
        NodeId(1),
        "worker",
        Box::new(Worker::new(1, 50_000)),
    );
    dmtcp::session::run_for(&mut w, &mut sim, Nanos::from_millis(20));

    let g1 = a
        .checkpoint_and_wait(&mut w, &mut sim, EV)
        .expect("first fits");
    assert_eq!(g1.gen, 1);
    let used = ckptstore::tenant::usage(&w, "acme").expect("ledger live");
    assert!(
        used > 4 << 10,
        "checkpoint charged the tenant (used {used})"
    );
    (w, sim, d, a)
}

fn expect_quota_refusal(r: Result<dmtcp::coord::GenStat, SvcCkptError>) {
    match r.expect_err("over quota") {
        SvcCkptError::Refused(e) => {
            assert_eq!(e.reason, Some(RejectReason::QuotaExceeded))
        }
        other => panic!("expected a quota refusal, got {other}"),
    }
}

#[test]
fn quota_exhaustion_refuses_checkpoints_and_admission() {
    let (mut w, mut sim, d, a) = exhausted_tenant();

    // Ledger over quota: the next checkpoint is refused with a typed code,
    // and no new generation starts on the shard.
    expect_quota_refusal(a.checkpoint_and_wait(&mut w, &mut sim, EV));
    assert_eq!(
        dmtcp::coord::coord_shared_for(&mut w, a.shard_port())
            .gen_stats
            .len(),
        1
    );

    // Admission of new sessions for the exhausted tenant is refused too;
    // other tenants are unaffected.
    let e = d
        .open(&mut w, &mut sim, "acme", 1)
        .expect_err("tenant broke");
    assert_eq!(e.reason, Some(RejectReason::QuotaExceeded));
    d.open(&mut w, &mut sim, "bolt", 1)
        .expect("other tenants fine");
}

/// The daemon's answers are paired with their callers: the refusal of an
/// *asynchronous* request belongs to the session that sent it and waits
/// there — it must not answer whoever calls the daemon next.
#[test]
fn async_refusal_waits_for_its_own_session() {
    let (mut w, mut sim, d, a) = exhausted_tenant();
    // Nobody waits on this request; the daemon refuses it (over quota).
    a.request_checkpoint(&mut w, &mut sim);
    dmtcp::session::run_for(&mut w, &mut sim, Nanos::from_millis(5));

    // The next caller gets its own answer, not A's refusal ...
    let b = d
        .open(&mut w, &mut sim, "bolt", 1)
        .expect("bolt is under quota; acme's refusal is not its answer");
    assert_ne!(b.sid, a.sid);
    // ... and A's refusal is still there for A, exactly once.
    expect_quota_refusal(a.checkpoint_and_wait(&mut w, &mut sim, EV));
    assert!(
        d.open_sessions(&mut w).contains(&b.sid),
        "B's admission was real, not a mis-answered call"
    );
    assert_eq!(
        dmtcp::coord::coord_shared_for(&mut w, a.shard_port())
            .gen_stats
            .len(),
        1,
        "no refused request ever reached the shard"
    );
}
