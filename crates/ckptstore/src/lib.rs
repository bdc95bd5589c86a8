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

    fn adopt(
        &self,
        w: &mut World,
        now: simkit::Nanos,
        node: oskit::world::NodeId,
        from: oskit::world::NodeId,
        path: &str,
    ) {
        sink::adopt(w, now, node, from, path)
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

    /// Paths under `fs`'s store, for "these two stores hold the same files".
    fn store_files(fs: &oskit::fs::Fs) -> Vec<(String, u64)> {
        fs.list_prefix(oskit::fs::STORE_ROOT)
            .map(|p| (p.to_string(), fs.size(p).expect("listed")))
            .collect()
    }

    /// Give the hog real memory too and write two generations, the second
    /// an incremental one: its manifest slices into the first's chunks.
    fn two_generations(w: &mut World, sim: &OsSim, pid: Pid) -> String {
        use oskit::mem::{Content, FillProfile, RegionKind, PROT_R, PROT_W};
        let mem = &mut w.procs.get_mut(&pid).expect("live").mem;
        let ids: Vec<_> = (0..6u64)
            .map(|i| {
                let bytes = FillProfile::Code.bytes(i + 1, 200_000);
                let content = Content::Real(Rc::new(bytes));
                mem.map(
                    format!("heap{i}"),
                    RegionKind::Heap,
                    PROT_R | PROT_W,
                    content,
                )
            })
            .collect();
        write_gen(w, sim, pid, 1);
        w.procs
            .get_mut(&pid)
            .expect("live")
            .mem
            .write(ids[2], 9, b"dirty");
        assert!(write_gen(w, sim, pid, 2).incremental);
        "/ckpt/ckpt_1_gen2.dmtcp".to_string()
    }

    fn restore_on(w: &mut World, sim: &mut OsSim, node: NodeId, path: &str) -> Pid {
        let img = mtcp::verify_image(w, node, path).expect("some store serves it");
        let husk = w.spawn(
            sim,
            node,
            "husk",
            Box::new(Hog { pc: 1 }),
            Pid(1),
            BTreeMap::new(),
        );
        mtcp::restore_into(w, sim.now(), husk, node, path, &img).expect("restores");
        husk
    }

    #[test]
    fn a_restore_served_by_a_peer_adopts_the_image_file_for_file() {
        let (mut w, mut sim, pid) = world();
        install(&mut w, Config::default());
        let path = two_generations(&mut w, &sim, pid);
        // Node 0 wrote it, node 1 is its ring successor; node 2 has nothing.
        assert!(store_files(&w.nodes[2].fs).is_empty());
        let total = |w: &World, name| w.obs.metrics.counter_total(name);
        let counted = [
            "ckptstore.bytes_written",
            "ckptstore.chunks_written",
            "ckptstore.bytes_deduped",
            "ckptstore.replication_bytes",
        ];
        let before = counted.map(|c| total(&w, c));
        let served = total(&w, "ckptstore.replica_fetch_bytes");

        let husk = restore_on(&mut w, &mut sim, NodeId(2), &path);
        assert!(total(&w, "ckptstore.replica_fetch_bytes") > served);

        // The target's store alone assembles the image now, to the blob the
        // writer's store assembles; it holds the manifest byte for byte and
        // exactly the chunk files that manifest names — copied, not cut,
        // hashed, deduplicated or sent on.
        let here = source::assemble(&w.nodes[2].fs, &path).expect("adopted whole");
        let there = source::assemble(&w.nodes[0].fs, &path).expect("still served");
        assert_eq!(format!("{here:?}"), format!("{there:?}"));
        let mpath = manifest::manifest_path(&path);
        let man = w.nodes[2].fs.read_all(&mpath).expect("manifest adopted");
        assert_eq!(man, w.nodes[0].fs.read_all(&mpath).unwrap());
        let named = gc::named(&man).expect("decodes");
        let mut want: Vec<(String, u64)> = named
            .iter()
            .map(|id| manifest::chunk_path(id))
            .chain([mpath.clone()])
            .map(|p| (p.clone(), w.nodes[0].fs.size(&p).expect("on the peer")))
            .collect();
        want.sort();
        assert_eq!(store_files(&w.nodes[2].fs), want);
        assert_eq!(counted.map(|c| total(&w, c)), before);
        assert_eq!(
            w.obs.metrics.counter("ckptstore.adopted_bytes", 2),
            want.iter().map(|(_, len)| len).sum::<u64>()
        );
        // The pass looked at this manifest's files, not at a store's history.
        let visited = w.obs.metrics.counter("ckptstore.gc_visited", 2);
        assert!(visited <= want.len() as u64, "visited {visited}");

        // Which is all the restored process's next commit needs to alias.
        w.suspend_user_threads(&mut sim, husk);
        let r = mtcp::write_image(
            &mut w,
            sim.now(),
            husk,
            "/ckpt/ckpt_1_gen3.dmtcp",
            mtcp::WriteMode::Compressed,
            1,
            vec![],
        );
        assert!(r.incremental);
        assert_eq!(r.captured_raw_bytes, 0, "nothing dirtied since the restore");
        mtcp::verify_image(&w, NodeId(2), "/ckpt/ckpt_1_gen3.dmtcp").expect("verifies");
        // A second restore there is local: nothing more to adopt.
        let adopted = w.obs.metrics.counter_total("ckptstore.adopted_bytes");
        restore_on(&mut w, &mut sim, NodeId(2), &path);
        assert_eq!(total(&w, "ckptstore.adopted_bytes"), adopted);
    }

    #[test]
    fn a_torn_copy_is_not_adopted() {
        let (mut w, mut sim, pid) = world();
        install(&mut w, Config::default());
        let path = two_generations(&mut w, &sim, pid);
        // Tear one chunk of the writer's copy.
        let man = w.nodes[0]
            .fs
            .read_all(&manifest::manifest_path(&path))
            .unwrap();
        let victim = manifest::chunk_path(&gc::named(&man).unwrap()[0]);
        let torn = w.nodes[0].fs.get_mut(&victim).expect("chunk file");
        let len = torn.blob.len();
        torn.blob.truncate(len / 2);

        sink::adopt(&mut w, Nanos::ZERO, NodeId(2), NodeId(0), &path);
        assert!(store_files(&w.nodes[2].fs).is_empty(), "nothing adopted");

        // The restore itself is served by the next whole copy — the ring
        // successor's — and adopts that one.
        restore_on(&mut w, &mut sim, NodeId(2), &path);
        assert!(source::assemble(&w.nodes[2].fs, &path).is_some());
        assert!(source::assemble(&w.nodes[0].fs, &path).is_none());
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
