//! The generation catalog (`dmtcp::catalog`): the record codec under
//! mutation, the rollback rule, and the record-count bound when the chunk
//! store expires images.

mod common;

use common::*;
use dmtcp::catalog::{self, GenRecord};
use dmtcp::session::{run_for, wait_until, Order};
use dmtcp::{ExpectCkpt, Options, RestartError, RestartPlan, Session};
use oskit::world::World;
use simkit::{DetRng, Nanos};

const EV: u64 = 5_000_000;

fn rand_record(rng: &mut DetRng) -> GenRecord {
    let word = |rng: &mut DetRng| -> String {
        (0..rng.below(24))
            .map(|_| char::from(b'a' + rng.below(26) as u8))
            .collect()
    };
    GenRecord {
        gen: rng.next_u64() >> rng.below(64),
        images: (0..rng.below(40))
            .map(|_| {
                (
                    word(rng),
                    format!("/{}/{}", word(rng), word(rng)),
                    rng.next_u32(),
                )
            })
            .collect(),
    }
}

/// Truncate, flip, extend: a damaged record decodes to `Err` or (when the
/// damage is no damage — an empty extension) to the record that was
/// written; never a panic, never a different record.
#[test]
fn damaged_records_never_decode_to_a_different_record() {
    let mut rng = DetRng::seed_from_u64(0xca7a_1065);
    let mut rejected = 0u32;
    for round in 0..2_000 {
        let rec = rand_record(&mut rng);
        let good = rec.encode();
        assert_eq!(GenRecord::decode(&good).as_ref(), Ok(&rec), "round {round}");
        let mut bad = good.clone();
        match rng.below(3) {
            0 => bad.truncate(rng.below(good.len() as u64) as usize),
            1 => {
                let at = rng.below(good.len() as u64) as usize;
                bad[at] ^= 1 << rng.below(8);
            }
            _ => bad.extend((0..rng.below(9)).map(|_| rng.next_u32() as u8)),
        }
        match GenRecord::decode(&bad) {
            Err(_) => rejected += 1,
            Ok(got) => assert_eq!(got, rec, "round {round}: damage changed the record"),
        }
    }
    assert!(rejected > 1_800, "validation is not live ({rejected})");
}

/// The bytes of every image file of generation `gen` under `/shared/ckpt/`.
fn image_bytes(w: &World, gen: u64) -> Vec<Vec<u8>> {
    w.shared_fs
        .list_prefix("/shared/ckpt/")
        .filter(|p| dmtcp::restart::parse_gen(p) == Some(gen))
        .map(|p| w.shared_fs.read_all(p).expect("plain image"))
        .collect()
}

/// Commit 1, 2, 3; restart from 1. Records 2 and 3 stay readable — the
/// computation could still be restarted from either — until generation 2 is
/// *requested* again: both are gone before its first image is overwritten,
/// so no record ever describes files in flux.
#[test]
fn rollback_discards_newer_records_before_their_images_are_overwritten() {
    let rounds = 900;
    let (mut w, mut sim) = cluster(2);
    let s = Session::start(
        &mut w,
        &mut sim,
        Options::builder().ckpt_dir("/shared/ckpt").build(),
    );
    let port = s.opts.coord_port;
    launch_chain(&mut w, &mut sim, &s, rounds);
    for gen in 1..=3 {
        run_for(&mut w, &mut sim, Nanos::from_millis(15));
        let g = s.checkpoint_and_wait(&mut w, &mut sim, EV).expect_ckpt();
        assert_eq!(g.gen, gen);
    }
    assert_eq!(catalog::generations(&w, port), vec![1, 2, 3]);

    s.kill_computation(&mut w, &mut sim);
    RestartPlan::from_generation(&w, port, 1)
        .expect("generation 1 committed")
        .execute(&s, &mut w, &mut sim)
        .expect("identity restart");
    Session::wait_restart_done(&mut w, &mut sim, 1, EV);
    for gen in [2, 3] {
        let rec = catalog::read(&w, port, gen).expect("still restartable");
        assert_eq!(rec.images.len(), 2, "generation {gen}");
    }

    // The coordinator rolled its counter back to 1: the next request is
    // for generation 2. Stop at the event that opens it.
    run_for(&mut w, &mut sim, Nanos::from_millis(10));
    let old_gen2 = image_bytes(&w, 2);
    let before = s.generations(&mut w);
    s.request_checkpoint(&mut w, &mut sim);
    wait_until(&mut w, &mut sim, EV, Order::StepFirst, |w| {
        (s.generations(w) > before).then_some(())
    })
    .expect("request reaches the coordinator");
    assert_eq!(catalog::generations(&w, port), vec![1]);
    assert_eq!(image_bytes(&w, 2), old_gen2, "nothing overwritten yet");
    assert_eq!(
        catalog::read(&w, port, 3),
        Err(RestartError::MissingGeneration { gen: 3 })
    );

    let g = wait_until(&mut w, &mut sim, EV, Order::CheckFirst, |w| {
        s.settled_since(w, before)
    })
    .expect("generation 2 settles");
    assert_eq!((g.gen, g.aborted), (2, false));
    assert_eq!(catalog::generations(&w, port), vec![1, 2]);
    assert_ne!(image_bytes(&w, 2), old_gen2, "generation 2 was rewritten");

    assert!(sim.run_bounded(&mut w, EV), "post-rollback deadlock");
    let reference = {
        let (mut rw, mut rsim) = cluster(2);
        let rs = Session::start(&mut rw, &mut rsim, Options::default());
        launch_chain(&mut rw, &mut rsim, &rs, rounds);
        assert!(rsim.run_bounded(&mut rw, EV));
        shared_result(&rw, "/shared/client_result")
    };
    assert_eq!(shared_result(&w, "/shared/client_result"), reference);
}

/// A rotted, truncated or missing record is a typed error for a pinned
/// plan and a rejected generation for a resilient one — which then restores
/// the whole previous generation, not a smaller computation.
#[test]
fn bad_record_is_typed_when_strict_and_falls_back_when_resilient() {
    let (mut w, mut sim) = cluster(2);
    let s = Session::start(
        &mut w,
        &mut sim,
        Options::builder().ckpt_dir("/shared/ckpt").build(),
    );
    let port = s.opts.coord_port;
    launch_chain(&mut w, &mut sim, &s, 600);
    for _ in 0..2 {
        run_for(&mut w, &mut sim, Nanos::from_millis(15));
        s.checkpoint_and_wait(&mut w, &mut sim, EV).expect_ckpt();
    }
    s.kill_computation(&mut w, &mut sim);

    let path = catalog::record_path(port, 2);
    let blob = &mut w.shared_fs.get_mut(&path).expect("record 2").blob;
    assert!(blob.flip_bit(blob.len() / 2, 3));
    assert!(matches!(
        RestartPlan::from_generation(&w, port, 2),
        Err(RestartError::BadRecord { .. })
    ));
    assert!(matches!(
        RestartPlan::newest().execute(&s, &mut w, &mut sim),
        Err(RestartError::BadRecord { .. })
    ));
    let blob = &mut w.shared_fs.get_mut(&path).expect("record 2").blob;
    blob.truncate(3);
    assert!(matches!(
        catalog::read(&w, port, 2),
        Err(RestartError::BadRecord { .. })
    ));

    let out = RestartPlan::builder()
        .resilient(true)
        .build()
        .execute(&s, &mut w, &mut sim)
        .expect("generation 1 is intact");
    assert_eq!(out.gen, 1);
    assert_eq!(out.rejected.len(), 1);
    assert_eq!(out.rejected[0].0, path);
    let restored: usize = out.placement.iter().map(|(_, v)| v.len()).sum();
    assert_eq!(restored, 2, "the whole generation: {:?}", out.placement);
}

/// With the chunk store installed images expire, and a record that names an
/// expired image is dropped at the next commit: after 3 × retention
/// generations the catalog holds a bounded number of records (a count, not
/// a timer), the newest restores, and an expired one is a typed miss.
#[test]
fn store_retention_bounds_the_record_count() {
    const RETENTION: u32 = 2;
    let (mut w, mut sim) = cluster(2);
    ckptstore::install(
        &mut w,
        ckptstore::Config {
            retention: RETENTION,
            ..Default::default()
        },
    );
    let s = Session::start(&mut w, &mut sim, Options::default());
    let port = s.opts.coord_port;
    launch_chain(&mut w, &mut sim, &s, 4_000);
    let total = 3 * RETENTION as u64;
    for gen in 1..=total {
        run_for(&mut w, &mut sim, Nanos::from_millis(10));
        let g = s.checkpoint_and_wait(&mut w, &mut sim, EV).expect_ckpt();
        assert_eq!(g.gen, gen);
    }
    let kept = catalog::generations(&w, port);
    assert!(
        kept.len() <= RETENTION as usize + 2,
        "records must not outlive their images: {kept:?}"
    );
    assert_eq!(kept.last(), Some(&total));
    assert_eq!(
        RestartPlan::from_generation(&w, port, 1).err(),
        Some(RestartError::MissingGeneration { gen: 1 })
    );
    s.kill_computation(&mut w, &mut sim);
    let out = RestartPlan::newest()
        .execute(&s, &mut w, &mut sim)
        .expect("newest generation restores");
    assert_eq!(out.gen, total);
}

/// A record goes when *any* image it names is gone, not only its first. A
/// process that checkpoints once and exits never commits again, so its one
/// image never expires; when its host sorts first it heads the record of
/// that generation, and a rule that asks after the first image alone keeps
/// the record for good — naming long-lived processes' images that expired
/// long ago. Every record that survives must restore everyone it names.
#[test]
fn a_process_that_exits_does_not_keep_its_generations_record_alive() {
    use oskit::world::NodeId;
    const RETENTION: u32 = 2;
    let (mut w, mut sim) = cluster(3);
    ckptstore::install(
        &mut w,
        ckptstore::Config {
            retention: RETENTION,
            ..Default::default()
        },
    );
    let s = Session::start(&mut w, &mut sim, Options::default());
    let port = s.opts.coord_port;
    // Long-lived: the chain across nodes 1 and 2.
    s.launch(
        &mut w,
        &mut sim,
        NodeId(2),
        "server",
        Box::new(EchoPlusOne::new(9000)),
    );
    let client = ChainClient::new("node02", 9000, 6_000);
    s.launch(&mut w, &mut sim, NodeId(1), "client", Box::new(client));
    // First by host name and short-lived: a chain inside node 0 that is
    // done soon after generation 1.
    s.launch(
        &mut w,
        &mut sim,
        NodeId(0),
        "server",
        Box::new(EchoPlusOne::new(9001)),
    );
    let client = ChainClient::new("node00", 9001, 70);
    s.launch(&mut w, &mut sim, NodeId(0), "client", Box::new(client));

    let total = 1 + 3 * RETENTION as u64;
    for gen in 1..=total {
        run_for(&mut w, &mut sim, Nanos::from_millis(10));
        let g = s.checkpoint_and_wait(&mut w, &mut sim, EV).expect_ckpt();
        assert_eq!(g.gen, gen);
        if gen == 1 {
            let rec = catalog::read(&w, port, 1).expect("just committed");
            assert_eq!(rec.images.len(), 4, "everyone is in generation 1");
            assert_eq!(rec.images[0].0, "node00", "the short-lived pair heads it");
        }
    }
    let kept = catalog::generations(&w, port);
    assert_eq!(kept.last(), Some(&total));
    assert!(
        kept.len() <= RETENTION as usize + 2,
        "records must not outlive their images: {kept:?}"
    );
    for g in &kept {
        let rec = catalog::read(&w, port, *g).expect("listed");
        for (host, path) in rec.paths() {
            let node = w.resolve(host).expect("a host of this cluster");
            assert!(
                ckptstore::resolve_image(&w, node, &path).is_some(),
                "record {g} names {path}, which no store can produce"
            );
        }
    }
    let oldest = catalog::read(&w, port, kept[0]).expect("listed");
    assert_eq!(oldest.images.len(), 2, "the pair on node 0 exited long ago");
    s.kill_computation(&mut w, &mut sim);
    let out = RestartPlan::from_generation(&w, port, kept[0])
        .expect("record present")
        .execute(&s, &mut w, &mut sim)
        .expect("every image it names is there");
    let restored: usize = out.placement.iter().map(|(_, v)| v.len()).sum();
    assert_eq!(restored, oldest.images.len(), "{:?}", out.placement);
}
