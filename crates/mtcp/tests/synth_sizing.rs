//! The synthetic-sizing memo is invisible in every byte and visible in one
//! count.
//!
//! A `Content::Synthetic` region's compressed size is a pure function of
//! `(seed, len, profile)`, so `mtcp` sizes each distinct region once per
//! world and reuses the number. These tests pin both halves of that claim
//! on every capture path — in-line compressed, forked, the store's
//! incremental path, and the shadow `write_image_full`:
//!
//! * **same bytes** — a later generation's synthetic region-table entries
//!   and virtual-chunk recipes equal the first generation's, `szip.bytes_in`
//!   / `szip.bytes_out` grow by the same amounts, and an image written with
//!   the memo warm equals, chunk for chunk, the image a fresh world (memo
//!   cold) writes of the same process;
//! * **less work** — `mtcp.synth_sized`, incremented only when the estimator
//!   actually runs, reads the number of distinct synthetic regions after the
//!   first capture and never moves again: not for a second rank holding the
//!   same regions, not at generation 2, not after kill → restore →
//!   generation 3. A count, not a timer.

use mtcp::{begin_forked_write, read_image, restore_into, write_image, write_image_full};
use mtcp::{StoredAs, WriteMode};
use oskit::fs::{Blob, Chunk};
use oskit::mem::FillProfile;
use oskit::program::{Program, Registry, Step};
use oskit::world::{NodeId, OsSim, Pid, World};
use oskit::{HwSpec, Kernel};
use simkit::{Nanos, Sim, Snap, SnapWriter};
use std::collections::BTreeMap;

/// Distinct synthetic regions a `Holder` maps.
const SYNTH_REGIONS: u64 = 2;

/// One real heap page and two synthetic regions: `big` is sized from a
/// sample (above `SizeEstimator::exact_threshold`), `small` sits exactly at
/// the threshold and is compressed whole.
struct Holder {
    pc: u8,
}
simkit::impl_snap!(struct Holder { pc });

impl Program for Holder {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        if self.pc == 0 {
            let threshold = szip::SizeEstimator::default().exact_threshold;
            let heap = k.mmap_anon("heap", 4096);
            k.mem_write(heap, 0, b"application state");
            k.mmap_synthetic("big", 3 << 20, 7, FillProfile::Code);
            k.mmap_synthetic("small", threshold, 9, FillProfile::Text);
            self.pc = 1;
        }
        Step::Compute(100_000)
    }
    fn tag(&self) -> &'static str {
        "holder"
    }
    fn save(&self) -> Vec<u8> {
        self.to_snap_bytes()
    }
}

/// What `dmtcp_restart` forks: a placeholder the image is restored into.
struct Shell;
impl Program for Shell {
    fn step(&mut self, _k: &mut Kernel<'_>) -> Step {
        Step::ExitThread
    }
    fn tag(&self) -> &'static str {
        "shell"
    }
    fn save(&self) -> Vec<u8> {
        Vec::new()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    /// `write_image`, compressed, plain files.
    Inline,
    /// `begin_forked_write` + `finish`, plain files.
    Forked,
    /// `write_image` through `ckptstore`: generation ≥ 2 goes incremental.
    Store,
    /// The shadow full capture.
    ShadowFull,
}

/// Two identical suspended `Holder`s ("ranks") in one world.
fn world(path: Path) -> (World, OsSim, Pid, Pid) {
    let mut registry = Registry::new();
    registry.register_snap::<Holder>("holder");
    let mut w = World::new(HwSpec::cluster(), 2, registry);
    let mut sim: OsSim = Sim::new();
    if path == Path::Store {
        ckptstore::install(&mut w, ckptstore::Config::default());
    }
    let spawn = |w: &mut World, sim: &mut OsSim| {
        w.spawn(
            sim,
            NodeId(0),
            "holder",
            Box::new(Holder { pc: 0 }),
            Pid(1),
            BTreeMap::new(),
        )
    };
    let a = spawn(&mut w, &mut sim);
    let b = spawn(&mut w, &mut sim);
    sim.run_until(&mut w, Nanos::from_millis(2));
    w.suspend_user_threads(&mut sim, a);
    w.suspend_user_threads(&mut sim, b);
    (w, sim, a, b)
}

fn image_path(vpid: u32, gen: u32) -> String {
    format!("/ckpt/ckpt_{vpid}_gen{gen}.dmtcp")
}

/// Checkpoint `pid` as generation `gen` of virtual pid `vpid` down `path`.
fn capture(w: &mut World, sim: &OsSim, path: Path, pid: Pid, vpid: u32, gen: u32) -> String {
    let file = image_path(vpid, gen);
    let now = sim.now();
    match path {
        Path::Inline | Path::Store => {
            write_image(w, now, pid, &file, WriteMode::Compressed, vpid, vec![]);
        }
        Path::Forked => {
            begin_forked_write(w, now, pid, &file, vpid, vec![]).finish(w, pid);
        }
        Path::ShadowFull => {
            write_image_full(w, now, pid, &file, WriteMode::Compressed, vpid, vec![]);
        }
    }
    file
}

/// The image's chunks as the writer laid them out (plain file, or the
/// store's reassembly).
fn image_blob(w: &World, file: &str) -> Blob {
    if let Some(f) = w.fs_for(NodeId(0), file).get(file) {
        return f.blob.clone();
    }
    mtcp::store::installed(w)
        .expect("no plain file, so a store")
        .resolve(w, NodeId(0), file)
        .expect("store holds the image")
        .blob
}

/// Everything the memo could have touched in one image: the snap bytes of
/// each synthetic region-table entry, and each synthetic virtual chunk
/// (`len` + recipe bytes; alias extents belong to the incremental path, not
/// to sizing).
#[derive(Debug, PartialEq, Eq)]
struct SyntheticView {
    table: Vec<Vec<u8>>,
    recipes: Vec<(u64, Vec<u8>)>,
}

fn synthetic_view(w: &World, file: &str) -> SyntheticView {
    let img = read_image(w, NodeId(0), file).expect("header parses");
    let table = img
        .regions
        .iter()
        .filter(|r| matches!(r.stored, StoredAs::Synthetic { .. }))
        .map(|r| {
            let mut s = SnapWriter::new();
            r.save(&mut s);
            s.into_bytes()
        })
        .collect();
    let recipes = image_blob(w, file)
        .chunks()
        .iter()
        .filter_map(|c| match c {
            Chunk::Virtual { len, meta } if mtcp::incr::decode_alias(meta).is_none() => {
                Some((*len, meta.clone()))
            }
            _ => None,
        })
        .collect();
    SyntheticView { table, recipes }
}

/// Every chunk of the image, real bytes included.
fn all_chunks(w: &World, file: &str) -> Vec<(bool, u64, Vec<u8>)> {
    image_blob(w, file)
        .chunks()
        .iter()
        .map(|c| match c {
            Chunk::Real(bytes) => (true, bytes.len() as u64, bytes.clone()),
            Chunk::Virtual { len, meta } => (false, *len, meta.clone()),
        })
        .collect()
}

fn sized(w: &World) -> u64 {
    w.obs.metrics.counter_total("mtcp.synth_sized")
}

fn szip_bytes(w: &World) -> (u64, u64) {
    (
        w.obs.metrics.counter_total("szip.bytes_in"),
        w.obs.metrics.counter_total("szip.bytes_out"),
    )
}

fn memo_is_invisible_and_sizes_once(path: Path) {
    let (mut w, mut sim, a, b) = world(path);
    assert_eq!(sized(&w), 0, "{path:?}: nothing sized before any capture");

    // Generation 1 of rank A: the only time the estimator runs.
    let s0 = szip_bytes(&w);
    let a1 = capture(&mut w, &sim, path, a, 1, 1);
    let s1 = szip_bytes(&w);
    assert_eq!(sized(&w), SYNTH_REGIONS, "{path:?}: one run per region");
    let view1 = synthetic_view(&w, &a1);
    assert_eq!(view1.table.len(), SYNTH_REGIONS as usize);
    assert_eq!(view1.recipes.len(), SYNTH_REGIONS as usize);
    let img = read_image(&w, NodeId(0), &a1).expect("header parses");
    let sampled: Vec<bool> = img
        .regions
        .iter()
        .filter_map(|r| match r.stored {
            StoredAs::Synthetic { sampled, .. } => Some(sampled),
            _ => None,
        })
        .collect();
    assert_eq!(sampled, [true, false], "{path:?}: one sampled, one exact");

    // Rank B holds the same regions: a hit, not a second run.
    let b1 = capture(&mut w, &sim, path, b, 2, 1);
    assert_eq!(sized(&w), SYNTH_REGIONS, "{path:?}: second rank re-sized");
    assert_eq!(synthetic_view(&w, &b1), view1, "{path:?}: rank B, gen 1");

    // Generation 2 of rank A (nothing written in between).
    let s2 = szip_bytes(&w);
    let a2 = capture(&mut w, &sim, path, a, 1, 2);
    let s3 = szip_bytes(&w);
    assert_eq!(sized(&w), SYNTH_REGIONS, "{path:?}: gen 2 re-sized");
    assert_eq!(synthetic_view(&w, &a2), view1, "{path:?}: rank A, gen 2");
    if path == Path::Store {
        assert_eq!(
            w.obs.metrics.counter_total("mtcp.incr.images"),
            1,
            "generation 2 went incremental"
        );
    } else {
        // Full captures both times: the compressor accounting must move by
        // exactly the same amounts. (An incremental generation aliases its
        // clean regions, which never reach szip.)
        assert_eq!(
            (s3.0 - s2.0, s3.1 - s2.1),
            (s1.0 - s0.0, s1.1 - s0.1),
            "{path:?}: szip.bytes_in/out deltas"
        );
        assert_eq!(all_chunks(&w, &a2), all_chunks(&w, &a1), "{path:?}");
    }

    // Kill A, restore its generation 2 into a fresh shell in the same world,
    // take generation 3 of the restored process: still nothing to size.
    let img = read_image(&w, NodeId(0), &a2).expect("header parses");
    w.exit_process(&mut sim, a, 137);
    let shell = w.spawn(
        &mut sim,
        NodeId(0),
        "dmtcp_restart",
        Box::new(Shell),
        Pid(1),
        BTreeMap::new(),
    );
    restore_into(&mut w, sim.now(), shell, NodeId(0), &a2, &img).expect("restore");
    let a3 = capture(&mut w, &sim, path, shell, 1, 3);
    assert_eq!(sized(&w), SYNTH_REGIONS, "{path:?}: gen 3 re-sized");
    assert_eq!(
        synthetic_view(&w, &a3),
        view1,
        "{path:?}: restored A, gen 3"
    );

    // A fresh world never captures A, so its memo is cold when B is taken:
    // the warm-memo image of B above must equal it chunk for chunk.
    let (mut cold, cold_sim, _, cold_b) = world(path);
    let cold_b1 = capture(&mut cold, &cold_sim, path, cold_b, 2, 1);
    assert_eq!(sized(&cold), SYNTH_REGIONS);
    assert_eq!(
        all_chunks(&w, &b1),
        all_chunks(&cold, &cold_b1),
        "{path:?}: warm-memo image differs from a cold world's"
    );
}

#[test]
fn inline_compressed() {
    memo_is_invisible_and_sizes_once(Path::Inline);
}

#[test]
fn forked() {
    memo_is_invisible_and_sizes_once(Path::Forked);
}

#[test]
fn store_incremental() {
    memo_is_invisible_and_sizes_once(Path::Store);
}

#[test]
fn shadow_full() {
    memo_is_invisible_and_sizes_once(Path::ShadowFull);
}

#[test]
fn uncompressed_captures_never_run_the_estimator() {
    let (mut w, sim, a, _) = world(Path::Inline);
    write_image(
        &mut w,
        sim.now(),
        a,
        &image_path(1, 1),
        WriteMode::Uncompressed,
        1,
        vec![],
    );
    assert_eq!(sized(&w), 0);
}
