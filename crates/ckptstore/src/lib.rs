//! `ckptstore` — a content-addressed chunk store for checkpoint images.
//!
//! The paper writes each process image as an opaque compressed file (§5.3,
//! Table 1); at production scale the storage traffic dominates
//! checkpoint-restart cost. This crate interposes on `mtcp`'s pluggable
//! image sink/source and turns every image into:
//!
//! * **chunks** — 256 KiB content-addressed pieces identified by
//!   `szip::crc32` paired with a 64-bit FNV-1a (images end with their own
//!   CRC trailer, which makes any single CRC-family identity degenerate),
//!   written once per node no matter how many images or generations
//!   reference them, with byte-level verification on every dedup hit
//!   (virtual extents — synthetic memory sized but never materialized —
//!   dedup by their recipe, staying virtual);
//! * **manifests** — one small ordered chunk list per image generation, so
//!   generation N of an unchanged process costs only its changed chunks
//!   plus a manifest (the incremental-delta remedy of arXiv:1212.1787);
//! * **replicas** — manifests and chunks are copied to R peer nodes over
//!   the simulated network at commit time, so restart proceeds from a
//!   replica when the node holding the primary image loses its disk;
//! * **GC** — manifests older than the retention window are dropped and
//!   unreferenced chunks swept, bounding store growth.
//!
//! Installing the store changes *where* image bytes live, never what they
//! are: the reassembled blob is byte-identical to what the writer produced,
//! so every CRC and protocol invariant of the checkpoint path still holds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gc;
pub mod manifest;
mod sink;
mod source;
pub mod tenant;

use oskit::world::World;
use std::rc::Rc;

/// Chunk size for real byte runs. 256 KiB — four szip blocks — keeps chunk
/// count moderate while still isolating small-region churn.
pub const CHUNK_SIZE: u64 = 4 * szip::stream::BLOCK as u64;

/// Store tuning knobs.
#[derive(Debug, Clone)]
pub struct Config {
    /// Peer nodes each image is replicated to (clamped to cluster size − 1).
    pub replicas: usize,
    /// Generations of each image kept before manifests expire and their
    /// now-unreferenced chunks are swept.
    pub retention: u32,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            replicas: 1,
            retention: 4,
        }
    }
}

/// The installed store's [`Config`] (a typed world extension, present
/// exactly while the store is installed).
#[derive(Default)]
struct Installed(Config);

/// The chunk store as an [`mtcp::ImageStore`] implementation: commits
/// route through [`sink`], resolves through [`source`].
struct ChunkStore {
    config: Config,
}

impl mtcp::ImageStore for ChunkStore {
    fn commit(
        &self,
        w: &mut World,
        work_start: simkit::Nanos,
        node: oskit::world::NodeId,
        path: &str,
        blob: &oskit::fs::Blob,
    ) -> mtcp::SinkCommit {
        sink::commit(&self.config, w, work_start, node, path, blob)
    }

    fn resolve(
        &self,
        w: &World,
        node: oskit::world::NodeId,
        path: &str,
    ) -> Option<mtcp::ResolvedImage> {
        source::resolve(w, node, path)
    }

    fn alias_bound(&self, w: &World, node: oskit::world::NodeId, prev_path: &str) -> Option<u64> {
        // Aliasable iff this node's own store still holds the previous
        // generation's manifest: the sink maps alias extents through it at
        // commit time. A torn prior image has a shorter logical length, so
        // extents past the tear fall back to the full path in the writer.
        let bytes = w.nodes[node.0 as usize]
            .fs
            .read_all(&manifest::manifest_path(prev_path))
            .ok()?;
        Some(manifest::Manifest::decode(&bytes)?.logical_len)
    }
}

/// Install the store into a world: every subsequent `mtcp::write_image`
/// commits through the chunk store and every image read resolves through
/// it. Idempotent; a second call replaces the configuration.
pub fn install(w: &mut World, config: Config) {
    w.ext::<Installed>().0 = config.clone();
    mtcp::store::install(w, Rc::new(ChunkStore { config }));
}

/// Remove the store; `mtcp` reverts to plain-file images. Already-stored
/// images stay resolvable only until the hooks are gone, so only uninstall
/// between computations.
pub fn uninstall(w: &mut World) {
    mtcp::store::uninstall(w);
    w.ext_remove::<Installed>();
    w.ext_remove::<gc::Index>();
}

/// Whether the store is installed in this world.
pub fn enabled(w: &World) -> bool {
    w.ext_ref::<Installed>().is_some()
}

/// The installed configuration, if any.
pub fn config(w: &World) -> Option<Config> {
    Some(w.ext_ref::<Installed>()?.0.clone())
}

/// Logical image paths committed for generation `gen`, keyed by the
/// writing process's virtual pid — gathered from every node's manifests,
/// so replicas of an image collapse onto the one logical path they all
/// name. This is the restart planner's per-pid view of a generation: a
/// subset of processes can be restored from exactly these paths, each
/// resolvable from whichever node still holds a complete copy.
pub fn images_for_gen(w: &World, gen: u32) -> std::collections::BTreeMap<u32, String> {
    let mut out = std::collections::BTreeMap::new();
    for node in &w.nodes {
        let paths: Vec<String> = node
            .fs
            .list_prefix(&manifest::manifests_prefix())
            .map(|s| s.to_string())
            .collect();
        for p in paths {
            let Ok(bytes) = node.fs.read_all(&p) else {
                continue;
            };
            let Some(man) = manifest::Manifest::decode(&bytes) else {
                continue;
            };
            if man.gen != gen as u64 {
                continue;
            }
            if let Some(vpid) = manifest::parse_vpid(&man.src) {
                out.entry(vpid).or_insert(man.src);
            }
        }
    }
    out
}

/// Whether any node's store still holds the manifest standing in for the
/// logical image `path` — false once retention expired it everywhere (or
/// every disk holding it was lost). What the coordinator's generation
/// catalog asks before it keeps a record that names the image.
pub fn holds_manifest(w: &World, path: &str) -> bool {
    let mpath = manifest::manifest_path(path);
    w.nodes.iter().any(|n| n.fs.exists(&mpath))
}

/// Resolve a logical image path for a reader on `node` (local store first,
/// then every peer in index order). Public face of the replica resolution
/// path for callers that already know the path.
pub fn resolve_image(
    w: &World,
    node: oskit::world::NodeId,
    path: &str,
) -> Option<mtcp::ResolvedImage> {
    source::resolve(w, node, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oskit::program::{Program, Registry, Step};
    use oskit::world::{NodeId, OsSim, Pid};
    use oskit::{HwSpec, Kernel};
    use simkit::{Nanos, Sim, Snap};
    use std::collections::BTreeMap;

    struct Hog {
        pc: u8,
    }
    simkit::impl_snap!(struct Hog { pc });
    impl Program for Hog {
        fn step(&mut self, k: &mut Kernel<'_>) -> Step {
            if self.pc == 0 {
                k.mmap_synthetic("ballast", 8 << 20, 0xfeed, oskit::mem::FillProfile::Random);
                self.pc = 1;
            }
            Step::Compute(100_000)
        }
        fn tag(&self) -> &'static str {
            "hog"
        }
        fn save(&self) -> Vec<u8> {
            self.to_snap_bytes()
        }
    }

    fn world() -> (World, OsSim, Pid) {
        let mut reg = Registry::new();
        reg.register_snap::<Hog>("hog");
        let mut w = World::new(HwSpec::cluster(), 3, reg);
        let mut sim: OsSim = Sim::new();
        let pid = w.spawn(
            &mut sim,
            NodeId(0),
            "hog",
            Box::new(Hog { pc: 0 }),
            Pid(1),
            BTreeMap::new(),
        );
        sim.run_until(&mut w, Nanos::from_millis(2));
        w.suspend_user_threads(&mut sim, pid);
        (w, sim, pid)
    }

    fn write_gen(w: &mut World, sim: &OsSim, pid: Pid, gen: u32) -> mtcp::WriteReport {
        mtcp::write_image(
            w,
            sim.now(),
            pid,
            &format!("/ckpt/ckpt_1_gen{gen}.dmtcp"),
            mtcp::WriteMode::Compressed,
            1,
            vec![],
        )
    }

    #[test]
    fn store_round_trips_and_dedups_unchanged_generations() {
        let (mut w, sim, pid) = world();
        install(&mut w, Config::default());
        write_gen(&mut w, &sim, pid, 1);
        let gen1 = w.obs.metrics.counter_total("ckptstore.bytes_written");
        assert!(gen1 > 0);
        // The plain file must NOT exist; verification resolves via store.
        assert!(!w.nodes[0].fs.exists("/ckpt/ckpt_1_gen1.dmtcp"));
        let img =
            mtcp::verify_image(&w, NodeId(0), "/ckpt/ckpt_1_gen1.dmtcp").expect("store resolves");
        assert!(!img.regions.is_empty());

        // Unchanged process: generation 2 writes ≥90 % fewer bytes.
        write_gen(&mut w, &sim, pid, 2);
        let gen2 = w.obs.metrics.counter_total("ckptstore.bytes_written") - gen1;
        assert!(
            gen2 * 10 <= gen1,
            "gen2 wrote {gen2} of gen1's {gen1} bytes"
        );
        assert!(w.obs.metrics.counter_total("ckptstore.bytes_deduped") > 0);
    }

    #[test]
    fn replica_serves_after_primary_store_loss() {
        let (mut w, sim, pid) = world();
        install(&mut w, Config::default());
        write_gen(&mut w, &sim, pid, 1);
        // Replica ring: node 1 holds a copy.
        assert!(w.nodes[1]
            .fs
            .list_prefix("/ckptstore/manifests/")
            .next()
            .is_some());
        // Node-local disk loss on the primary.
        let doomed: Vec<String> = w.nodes[0]
            .fs
            .list_prefix(oskit::fs::STORE_ROOT)
            .map(|s| s.to_string())
            .collect();
        for p in doomed {
            w.nodes[0].fs.remove(&p).unwrap();
        }
        let img = mtcp::verify_image(&w, NodeId(0), "/ckpt/ckpt_1_gen1.dmtcp")
            .expect("replica must serve the image");
        assert!(!img.regions.is_empty());
    }

    #[test]
    fn gc_expires_old_generations() {
        let (mut w, sim, pid) = world();
        install(
            &mut w,
            Config {
                retention: 2,
                ..Config::default()
            },
        );
        for gen in 1..=4 {
            write_gen(&mut w, &sim, pid, gen);
        }
        let fs = &w.nodes[0].fs;
        assert!(!fs.exists(&manifest::manifest_path("/ckpt/ckpt_1_gen1.dmtcp")));
        assert!(!fs.exists(&manifest::manifest_path("/ckpt/ckpt_1_gen2.dmtcp")));
        assert!(fs.exists(&manifest::manifest_path("/ckpt/ckpt_1_gen3.dmtcp")));
        assert!(fs.exists(&manifest::manifest_path("/ckpt/ckpt_1_gen4.dmtcp")));
        assert!(
            mtcp::verify_image(&w, NodeId(0), "/ckpt/ckpt_1_gen1.dmtcp").is_err(),
            "expired generation no longer resolves"
        );
    }
}
