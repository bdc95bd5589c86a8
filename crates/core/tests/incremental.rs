//! Differential proof of incremental checkpointing: at every generation an
//! incremental image (dirty regions captured, clean regions aliased into
//! the previous generation) must restore *bit-identically* to a full image
//! taken at the same suspended instant, and a computation checkpointed
//! incrementally must produce exactly the answer a full-capture run does.
//!
//! The write patterns are driven by [`simkit::DetRng`] seeds: 32 seeds,
//! each a generation chain 6 deep, with a random subset of regions mutated
//! (plus MAP_SHARED writes, late mappings, and unmappings) between
//! generations — and one recovery in the middle of every chain: generation
//! *k* + 1 must be the same capture with a restart or a migration before it
//! as without. Every image goes through the demand-ordered restore too: the
//! regions it maps before the process may run are exactly the ones written
//! since the previous generation plus the shared and synthetic ones, and
//! once the rest has filled in the address space is the full image's.
mod common;

use common::*;
use dmtcp::session::run_for;
use dmtcp::{ExpectCkpt, Options, RestartPlan, Session};
use oskit::fs::Chunk;
use oskit::mem::{Content, FillProfile, RegionId, RegionKind, PROT_W};
use oskit::program::{Program, Step};
use oskit::world::{NodeId, OsSim, Pid, World};
use simkit::{DetRng, Nanos, Snap};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

/// Lays out the address space the differential chains mutate: eight 16 KiB
/// writable anonymous regions, two of a whole szip block (64 KiB — a capture
/// or restore holding both packs them on every host core), one MAP_SHARED
/// segment, and synthetic text ballast (never written — the
/// always-aliasable bulk). Then computes forever so checkpoints can land at
/// any time.
struct Churn {
    pc: u8,
}
simkit::impl_snap!(struct Churn { pc });

impl Program for Churn {
    fn step(&mut self, k: &mut oskit::Kernel<'_>) -> Step {
        if self.pc == 0 {
            for i in 0..8u64 {
                let id = k.mmap_anon(&format!("churn{i}"), 16 << 10);
                k.mem_write(id, 0, &vec![i as u8 + 1; 16 << 10]);
            }
            for i in 0..2u64 {
                let len = szip::stream::BLOCK;
                let id = k.mmap_anon(&format!("churn-wide{i}"), len);
                let fill: Vec<u8> = (0..len).map(|b| (b / 4096) as u8 ^ i as u8).collect();
                k.mem_write(id, 0, &fill);
            }
            let shm = k.mmap_shared("/churn_shm", 16 << 10).expect("shm");
            k.mem_write(shm, 0, &vec![0xAA; 16 << 10]);
            k.mmap_synthetic("ballast", 4 << 20, 0xba11a57, FillProfile::Text);
            self.pc = 1;
        }
        Step::Compute(100_000)
    }
    fn tag(&self) -> &'static str {
        "churn"
    }
    fn save(&self) -> Vec<u8> {
        self.to_snap_bytes()
    }
}

/// A restore target: sleeps forever, owns nothing.
struct Idle;
simkit::impl_snap!(
    struct Idle {}
);

impl Program for Idle {
    fn step(&mut self, _k: &mut oskit::Kernel<'_>) -> Step {
        Step::Sleep(Nanos::from_millis(1_000))
    }
    fn tag(&self) -> &'static str {
        "idle"
    }
    fn save(&self) -> Vec<u8> {
        self.to_snap_bytes()
    }
}

fn registry() -> oskit::program::Registry {
    let mut r = test_registry();
    r.register_snap::<Churn>("churn");
    r.register_snap::<Idle>("idle");
    r
}

/// The writable regions a chain mutates (the `churn*` anons plus the
/// shared segment) — everything else stays clean and must alias.
fn mutable_regions(w: &World, pid: Pid) -> Vec<RegionId> {
    w.procs[&pid]
        .mem
        .iter()
        .filter(|(_, r)| {
            r.prot & PROT_W != 0 && (r.name.starts_with("churn") || r.name.contains("shm"))
        })
        .map(|(id, _)| id)
        .collect()
}

/// Apply one generation's random write pattern directly through the
/// process's address space (the same code path `Kernel::mem_write` takes,
/// so dirty tracking sees exactly these writes).
fn mutate(w: &mut World, pid: Pid, rng: &mut DetRng) -> BTreeSet<RegionId> {
    let ids = mutable_regions(w, pid);
    let mem = &mut w.procs.get_mut(&pid).expect("live process").mem;
    let mut touched = BTreeSet::new();
    for _ in 0..rng.range(1, 5) {
        let id = ids[rng.below(ids.len() as u64) as usize];
        let len = mem.region(id).expect("live region").len();
        let off = rng.below(len - 64);
        let mut buf = [0u8; 64];
        rng.fill_bytes(&mut buf);
        mem.write(id, off, &buf);
        touched.insert(id);
    }
    touched
}

/// The raw bytes an incremental capture must read: every region written or
/// mapped since the baseline, and every MAP_SHARED one (someone else may
/// have written it).
fn must_capture(w: &World, pid: Pid, dirtied: &BTreeSet<RegionId>) -> u64 {
    w.procs[&pid]
        .mem
        .iter()
        .filter(|(id, r)| dirtied.contains(id) || matches!(r.content, Content::Shared(_)))
        .map(|(_, r)| r.len())
        .sum()
}

/// Per-region `(name, len, digest)` fingerprint of a process's memory.
fn mem_fingerprint(w: &World, pid: Pid) -> Vec<(String, u64, u64)> {
    w.procs[&pid]
        .mem
        .iter()
        .map(|(_, r)| (r.name.clone(), r.len(), r.content.digest()))
        .collect()
}

/// The image at `path`, just written from `pid`'s suspended address space,
/// holds exactly what packing its regions one at a time, in region order,
/// gives: each real or shared region's `szip::compress`ed bytes behind the
/// header with `szip::crc32` in its meta, each synthetic one a virtual
/// extent — whether the capture packed them on one host core or several,
/// and whether it read a region or aliased the previous image's bytes for
/// it. Returns the baseline a capture of exactly that image leaves.
fn assert_packed_in_order(w: &World, pid: Pid, path: &str, at: &str) -> Baseline {
    let node = w.procs[&pid].node;
    let blob = ckptstore::resolve_image(w, node, path)
        .unwrap_or_else(|| panic!("{at}: {path} stored"))
        .blob;
    let flatten = |chunks: &[Chunk]| {
        let mut real = Vec::new();
        let mut virt = Vec::new();
        for c in chunks {
            match c {
                Chunk::Real(bytes) => real.extend_from_slice(bytes),
                Chunk::Virtual { len, .. } => virt.push((real.len(), *len)),
            }
        }
        (real, virt)
    };
    let (real, virt) = flatten(blob.chunks());
    let (img, header_len) = mtcp::CkptImage::decode_header(&real).expect("header decodes");
    let mut want = oskit::fs::Blob::from_bytes(real[..header_len].to_vec());
    let mut baseline = BTreeMap::new();
    let mem = &w.procs[&pid].mem;
    assert_eq!(mem.iter().count(), img.regions.len(), "{at}: {path}");
    for ((id, region), rm) in mem.iter().zip(&img.regions) {
        let raw = match &region.content {
            Content::Real(bytes) => Some(bytes.to_vec()),
            Content::Shared(seg) => Some(seg.borrow().clone()),
            Content::Synthetic { .. } => None,
        };
        let payload_off = want.len();
        match raw {
            Some(raw) => {
                let stored = szip::compress(&raw);
                assert_eq!(rm.crc, szip::crc32(&raw), "{at}: {path} {}", rm.name);
                assert_eq!(rm_len(rm), stored.len() as u64, "{at}: {path} {}", rm.name);
                want.append_bytes(&stored);
            }
            None => want.append_virtual(rm_len(rm), Vec::new()),
        }
        baseline.insert(id, (rm.raw_len, rm.crc, rm.stored.clone(), payload_off));
    }
    assert_eq!(
        (real, virt),
        flatten(want.chunks()),
        "{at}: {path} is not the in-order packing of its regions"
    );
    baseline
}

/// Stored length of a region's payload.
fn rm_len(rm: &mtcp::RegionMeta) -> u64 {
    match &rm.stored {
        mtcp::StoredAs::Real { comp_len }
        | mtcp::StoredAs::Shared { comp_len, .. }
        | mtcp::StoredAs::Synthetic { comp_len, .. } => *comp_len,
    }
}

/// Per region: raw length, CRC, stored form and payload offset.
type Baseline = BTreeMap<RegionId, (u64, u32, mtcp::StoredAs, u64)>;

/// `pid`'s incremental baseline, in [`assert_packed_in_order`]'s terms.
fn baseline_of(w: &World, pid: Pid) -> Baseline {
    let st = mtcp::incr::state_of(w, pid).expect("a compressed capture leaves a baseline");
    st.regions
        .into_iter()
        .map(|(id, r)| (id, (r.raw_len, r.crc, r.stored, r.payload_off)))
        .collect()
}

/// The regions of `pid` a restore left to fill in behind it.
fn cold_regions(w: &World, pid: Pid) -> BTreeSet<String> {
    w.procs[&pid]
        .mem
        .iter()
        .filter(|(_, r)| r.ready_at > Nanos::ZERO)
        .map(|(_, r)| r.name.clone())
        .collect()
}

/// The regions of `pid` a restore of its next image must map before the
/// process may run: every region written or mapped since the baseline
/// (`dirtied`), every MAP_SHARED one, and every synthetic recipe. `None`
/// means all of them — there is no baseline, the image will be full.
fn hot_regions(w: &World, pid: Pid, dirtied: Option<&BTreeSet<RegionId>>) -> BTreeSet<String> {
    w.procs[&pid]
        .mem
        .iter()
        .filter(|(id, r)| {
            dirtied.is_none_or(|d| d.contains(id)) || !matches!(r.content, Content::Real(_))
        })
        .map(|(_, r)| r.name.clone())
        .collect()
}

/// Write both images at the same suspended instant, verify both, restore
/// both, and require identical region-level fingerprints — the incremental
/// image through the demand-ordered restore, the full one through what is
/// the eager restore: it inherits nothing, so all of it is hot and it costs
/// exactly `max(read, gunzip(raw))`, as every restore did before there was
/// a fill. Returns the incremental restore's hot set.
#[allow(clippy::too_many_arguments)]
fn write_and_compare(
    w: &mut World,
    sim: &OsSim,
    pid: Pid,
    scratch_i: Pid,
    scratch_f: Pid,
    gen: u32,
    seed: u64,
) -> (mtcp::WriteReport, mtcp::WriteReport, BTreeSet<String>) {
    let inc_path = image_path(gen);
    let full_path = format!("/ckpt/full_1_gen{gen}.dmtcp");
    // Read where the process lives: after a migration that is not node 0.
    let node = w.procs[&pid].node;
    let r_inc = mtcp::write_image(
        w,
        sim.now(),
        pid,
        &inc_path,
        mtcp::WriteMode::Compressed,
        1,
        vec![],
    );
    let r_full = mtcp::write_image_full(
        w,
        sim.now(),
        pid,
        &full_path,
        mtcp::WriteMode::Compressed,
        1,
        vec![],
    );
    assert_eq!(
        r_inc.raw_bytes, r_full.raw_bytes,
        "same instant, same address space"
    );
    let at = format!("seed {seed} gen {gen}");
    let baseline = assert_packed_in_order(w, pid, &inc_path, &at);
    assert_eq!(baseline_of(w, pid), baseline, "{at}: the baseline left");
    let img_i = mtcp::verify_image(w, node, &inc_path)
        .unwrap_or_else(|e| panic!("seed {seed} gen {gen}: incremental verify: {e:?}"));
    let img_f = mtcp::verify_image(w, node, &full_path)
        .unwrap_or_else(|e| panic!("seed {seed} gen {gen}: full verify: {e:?}"));
    let rep_i = mtcp::restore_into(w, sim.now(), scratch_i, node, &inc_path, &img_i)
        .unwrap_or_else(|e| panic!("seed {seed} gen {gen}: incremental restore: {e:?}"));
    let (mut disk, mut cpu) = {
        let n = &w.nodes[node.0 as usize];
        (n.disk.clone(), n.cpu.clone())
    };
    let rep_f = mtcp::restore_into(w, sim.now(), scratch_f, node, &full_path, &img_f)
        .unwrap_or_else(|e| panic!("seed {seed} gen {gen}: full restore: {e:?}"));
    let read = disk.read(sim.now(), rep_f.image_bytes);
    let (_, gunzip) = cpu.run(sim.now(), w.spec.gunzip_time(rep_f.raw_bytes));
    assert_eq!(rep_f.done_at, read.max(gunzip), "{at}: eager restore time");
    assert_eq!(
        rep_f.fill_done, rep_f.done_at,
        "{at}: a full image fills nothing"
    );
    assert!(cold_regions(w, scratch_f).is_empty(), "{at}");
    // After the fill the two address spaces hold the same bytes, and those
    // are the bytes captured.
    assert_eq!(
        mem_fingerprint(w, scratch_i),
        mem_fingerprint(w, scratch_f),
        "{at}: incremental restore diverged from full"
    );
    assert_eq!(
        mem_fingerprint(w, scratch_f),
        mem_fingerprint(w, pid),
        "{at}: full restore diverged from the process captured"
    );
    let cold = cold_regions(w, scratch_i);
    assert_eq!(rep_i.fill_done > rep_i.done_at, !cold.is_empty(), "{at}");
    let all: BTreeSet<String> = mem_fingerprint(w, scratch_i)
        .into_iter()
        .map(|(name, _, _)| name)
        .collect();
    (r_inc, r_full, &all - &cold)
}

fn image_path(gen: u32) -> String {
    format!("/ckpt/ckpt_1_gen{gen}.dmtcp")
}

/// The recovery dropped into the middle of a chain.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Recovery {
    /// Kill, restart where it ran.
    InPlace,
    /// Migrate to the writer's ring successor, which holds a replica.
    ToSuccessor,
    /// Migrate to a node whose store holds nothing of the image.
    ToStranger,
    /// The newest generation is torn: a resilient restart falls back one.
    FallBack,
}

impl Recovery {
    const ALL: [Recovery; 4] = [
        Recovery::InPlace,
        Recovery::ToSuccessor,
        Recovery::ToStranger,
        Recovery::FallBack,
    ];
}

/// Kill `pid` after it wrote generation `gen` and bring it back as `how`
/// says, the way `RestartPlan` does: verify, then restore into a fresh
/// process on the target node. Returns the new process and the generation
/// it was restored from.
fn recover(w: &mut World, sim: &mut OsSim, pid: Pid, gen: u32, how: Recovery) -> (Pid, u32) {
    let home = w.procs[&pid].node;
    w.signal(sim, pid, oskit::proc::sig::SIGKILL);
    w.reap(pid);
    let node = match how {
        Recovery::InPlace | Recovery::FallBack => home,
        Recovery::ToSuccessor => NodeId((home.0 + 1) % w.nodes.len() as u32),
        Recovery::ToStranger => NodeId((home.0 + 2) % w.nodes.len() as u32),
    };
    let mut from = gen;
    if how == Recovery::FallBack {
        // Tear every copy of the newest generation's manifest.
        let mpath = ckptstore::manifest::manifest_path(&image_path(gen));
        for n in &mut w.nodes {
            if let Some(f) = n.fs.get_mut(&mpath) {
                let len = f.blob.len();
                f.blob.truncate(len / 2);
            }
        }
        mtcp::verify_image(w, node, &image_path(gen)).expect_err("torn");
        from = gen - 1;
    }
    let path = image_path(from);
    let served_locally = ckptstore::resolve_image(w, node, &path)
        .expect("some store serves it")
        .fetched_from
        .is_none();
    assert_eq!(served_locally, how != Recovery::ToStranger, "{how:?}");
    let img = mtcp::verify_image(w, node, &path).expect("verifies");
    let husk = w.spawn(sim, node, "churn", Box::new(Idle), Pid(1), BTreeMap::new());
    mtcp::restore_into(w, sim.now(), husk, node, &path, &img).expect("restores");
    // Whoever served the restore, the node it ran on holds the image now.
    let held = ckptstore::resolve_image(w, node, &path).expect("still served");
    assert!(held.fetched_from.is_none(), "{how:?}: not adopted");
    let st = mtcp::incr::state_of(w, husk).expect("a restore leaves a baseline");
    assert_eq!(
        st.prev_path, path,
        "{how:?}: names exactly the image restored"
    );
    (husk, from)
}

fn chain_world(seed: u64) -> (World, OsSim, Pid, Pid, Pid) {
    let mut w = World::new(oskit::HwSpec::cluster(), 3, registry());
    let mut sim: OsSim = simkit::Sim::new();
    ckptstore::install(&mut w, ckptstore::Config::default());
    let pid = w.spawn(
        &mut sim,
        NodeId(0),
        "churn",
        Box::new(Churn { pc: 0 }),
        Pid(1),
        BTreeMap::new(),
    );
    let scratch_i = w.spawn(
        &mut sim,
        NodeId(0),
        "idle",
        Box::new(Idle),
        Pid(800 + seed as u32),
        BTreeMap::new(),
    );
    let scratch_f = w.spawn(
        &mut sim,
        NodeId(0),
        "idle",
        Box::new(Idle),
        Pid(900 + seed as u32),
        BTreeMap::new(),
    );
    sim.run_until(&mut w, Nanos::from_millis(2));
    w.suspend_user_threads(&mut sim, pid);
    (w, sim, pid, scratch_i, scratch_f)
}

/// The tentpole property, 32 seeds deep: every generation of a 6-deep
/// chain restores bit-identically whether captured incrementally or in
/// full, while generations ≥ 2 actually go incremental (alias extents
/// emitted, exactly the dirty subset read and compressed) — the one right
/// after a kill and a restart, a migration, or a fallback included.
#[test]
fn incremental_restores_bit_identical_to_full_across_chains() {
    for seed in 0..32u64 {
        let (mut w, mut sim, mut pid, scratch_i, scratch_f) = chain_world(seed);
        let mut rng = DetRng::seed_from_u64(simkit::mix2(0x1ec4, seed));
        let how = Recovery::ALL[(seed % 4) as usize];
        let mut recovered = false;
        let mut dirtied = BTreeSet::new();
        let mut gen = 1u32;
        while gen <= 6 {
            if gen > 1 {
                dirtied.extend(mutate(&mut w, pid, &mut rng));
            }
            // Exercise mapping churn mid-chain: a region mapped after the
            // last capture is dirty by definition; an unmapped one must
            // simply vanish from the next image.
            let mem = &mut w.procs.get_mut(&pid).expect("live").mem;
            let late = mem
                .iter()
                .find(|(_, r)| r.name == "late-arena")
                .map(|(id, _)| id);
            if gen == 3 {
                dirtied.insert(mem.map(
                    "late-arena",
                    RegionKind::Anon,
                    oskit::mem::PROT_R | PROT_W,
                    Content::Real(Rc::new(vec![0x3C; 8 << 10])),
                ));
            }
            if gen == 5 {
                mem.unmap(late.expect("mapped at gen 3"));
            }
            let expect = must_capture(&w, pid, &dirtied);
            let expect_hot = hot_regions(&w, pid, (gen > 1).then_some(&dirtied));
            let (r_inc, r_full, hot) =
                write_and_compare(&mut w, &sim, pid, scratch_i, scratch_f, gen, seed);
            let at = format!("seed {seed} gen {gen} ({how:?}, recovered: {recovered})");
            assert_eq!(hot, expect_hot, "{at}: the restore's hot set");
            if gen == 1 {
                assert!(!r_inc.incremental, "no baseline at generation 1");
            } else {
                assert!(r_inc.incremental, "{at} stayed full");
                assert_eq!(r_inc.captured_raw_bytes, expect, "{at}");
                assert!(r_inc.captured_raw_bytes < r_full.captured_raw_bytes, "{at}");
            }
            dirtied.clear();
            if gen == 4 && !recovered {
                // The next generation number is the one after the image
                // restored: a fallback writes generation 4 over again.
                let (husk, from) = recover(&mut w, &mut sim, pid, gen, how);
                (pid, gen, recovered) = (husk, from, true);
            }
            gen += 1;
        }
        assert!(recovered);
        assert!(
            w.obs.metrics.counter_total("mtcp.incr.aliased_regions") > 0,
            "seed {seed}: chain never emitted an alias extent"
        );
        // Every full capture and restore holds both `churn-wide` regions,
        // so each one that could use a second host core did.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(
            w.obs.metrics.counter_total("mtcp.fanout.regions") > 0,
            cores > 1,
            "seed {seed}: regions packed off the calling thread on {cores} cores"
        );
    }
}

/// An aborted forked generation must roll the incremental baseline back:
/// the next capture is relative to the last *durable* image, including
/// regions dirtied both before and during the doomed drain.
#[test]
fn aborted_forked_generation_rolls_baseline_back() {
    let (mut w, sim, pid, scratch_i, scratch_f) = chain_world(77);
    let mut rng = DetRng::seed_from_u64(0xab047);
    write_and_compare(&mut w, &sim, pid, scratch_i, scratch_f, 1, 77);

    // Generation 2 goes forked and dies mid-drain.
    mutate(&mut w, pid, &mut rng);
    let fw = mtcp::begin_forked_write(&mut w, sim.now(), pid, "/ckpt/ckpt_1_gen2.dmtcp", 1, vec![]);
    assert!(fw.report.incremental, "generation 2 plans incrementally");
    mutate(&mut w, pid, &mut rng); // dirtied while the drain was in flight
    fw.abort(&mut w, pid);

    // The retried generation must still restore identically to a full
    // capture — stale aliasing after the abort would diverge here.
    let (r_inc, _, _) = write_and_compare(&mut w, &sim, pid, scratch_i, scratch_f, 2, 77);
    assert!(r_inc.incremental, "retry still aliases clean regions");
}

/// Full-protocol answer equivalence: the same computation, checkpointed
/// every 2 ms through the store, killed, and restarted from its latest
/// generation, computes the same answer whether incremental capture is on
/// (default) or forced off — inline and forked both.
fn protocol_run(incremental: bool, forked: bool) -> String {
    let budget = run_budget();
    let (mut w, mut sim) = cluster(2);
    ckptstore::install(&mut w, ckptstore::Config::default());
    mtcp::incr::set_enabled(&mut w, incremental);
    let s = Session::start(
        &mut w,
        &mut sim,
        Options::builder()
            .ckpt_dir("/shared/ckpt")
            .forked(forked)
            .build(),
    );
    s.launch(
        &mut w,
        &mut sim,
        NodeId(1),
        "pipe",
        Box::new(FtPipeChain::new(900_000)),
    );
    run_for(&mut w, &mut sim, Nanos::from_millis(6));
    for gen in 1..=5u64 {
        let g = s
            .checkpoint_and_wait(&mut w, &mut sim, budget)
            .expect_ckpt();
        assert_eq!(g.gen, gen);
        run_for(&mut w, &mut sim, Nanos::from_millis(2));
    }
    if incremental {
        assert!(
            w.obs.metrics.counter_total("mtcp.incr.images") > 0,
            "a 5-generation chain must write incremental images"
        );
    } else {
        assert_eq!(w.obs.metrics.counter_total("mtcp.incr.images"), 0);
    }
    s.kill_computation(&mut w, &mut sim);
    let _ = w.shared_fs.remove("/shared/pipe_result");
    let restored = RestartPlan::builder()
        .resilient(true)
        .build()
        .execute(&s, &mut w, &mut sim)
        .expect("restart");
    assert_eq!(restored.gen, 5, "latest generation restarts");
    Session::wait_restart_done(&mut w, &mut sim, restored.gen, budget);
    assert!(
        !matches!(
            sim.run_budgeted(&mut w, budget),
            simkit::RunOutcome::BudgetExhausted
        ),
        "restarted computation must finish"
    );
    shared_result(&w, "/shared/pipe_result").expect("restarted run writes its answer")
}

#[test]
fn inline_incremental_computes_the_same_answer() {
    assert_eq!(protocol_run(true, false), protocol_run(false, false));
}

#[test]
fn forked_incremental_computes_the_same_answer() {
    assert_eq!(protocol_run(true, true), protocol_run(false, true));
}
