//! Retention and chunk reclamation at the cost of a commit's own delta.
//!
//! A chunk file may go when no surviving manifest on its node names it.
//! The store keeps, per node, a count per chunk id of the manifests that
//! do ([`Index`], a typed world extension). A commit moves the counts only
//! for the manifests it adds, overwrites or expires, and what a manifest
//! names is read from the manifest *file* at the moment it is about to be
//! overwritten or removed — the counts hold no second copy of any file and
//! the files stay the only truth.
//!
//! The counts are derived and disposable. Anything other than the sink
//! changing a node's store (a fault wiping it, a test tearing a manifest,
//! a transplanted disk) takes the node's [`StoreSeal`] off, and the next
//! commit answers from the files with a full mark-and-sweep ([`mark`]) —
//! which is also what a node's first commit does, and what every pass is
//! checked against in debug builds.

use crate::manifest::{chunk_path, chunks_prefix, manifests_prefix, Lineage, Manifest};
use oskit::fs::{Fs, StoreSeal};
use oskit::world::World;
use std::collections::BTreeMap;

/// Chunk id → number of decodable manifests on the node that name it
/// (once per manifest, however often it repeats the id). No zero entries.
type Counts = BTreeMap<String, u32>;

/// One node's counts, valid while `seal` is still on the node's disk.
struct NodeRefs {
    seal: StoreSeal,
    counts: Counts,
}

/// Every node's chunk refcounts, by node index.
#[derive(Default)]
pub(crate) struct Index(BTreeMap<usize, NodeRefs>);

/// The distinct chunk ids a manifest file names; `None` if it does not
/// decode — such a file names nothing, here as in [`mark`], so both paths
/// agree on damage.
pub(crate) fn named(manifest: &[u8]) -> Option<Vec<String>> {
    let mut ids: Vec<String> = Manifest::decode(manifest)?
        .chunks
        .into_iter()
        .map(|c| c.id)
        .collect();
    ids.sort_unstable();
    ids.dedup();
    Some(ids)
}

/// What the files say: the counts every manifest on `fs` adds up to, the
/// chunk files none of them names, and how many files that took reading.
fn mark(fs: &Fs) -> (Counts, Vec<String>, u64) {
    let mut counts = Counts::new();
    let mut visited = 0;
    for mf in fs.list_prefix(&manifests_prefix()) {
        visited += 1;
        let ids = fs.read_all(mf).ok().and_then(|b| named(&b));
        for id in ids.unwrap_or_default() {
            *counts.entry(id).or_insert(0) += 1;
        }
    }
    let prefix = chunks_prefix();
    let mut dead = Vec::new();
    for p in fs.list_prefix(&prefix) {
        visited += 1;
        if !counts.contains_key(&p[prefix.len()..]) {
            dead.push(p.to_string());
        }
    }
    (counts, dead, visited)
}

/// One node's share of one commit: opened before the commit's first write
/// to the node's store, told of every manifest the commit replaces or
/// removes there, closed by [`Pass::finish`].
pub(crate) struct Pass {
    node: usize,
    /// The node's counts, if its disk still carried their seal when the
    /// pass began; `None` sends [`Pass::finish`] to the files.
    refs: Option<NodeRefs>,
    /// Ids a count of which this pass took to zero: the only chunks it can
    /// have orphaned.
    zeroed: Vec<String>,
    visited: u64,
}

impl Pass {
    /// Take `node`'s counts out of the index for the length of the pass —
    /// or nothing, if something else has changed its store since they
    /// were sealed.
    pub(crate) fn begin(w: &mut World, node: usize) -> Pass {
        let refs = w.ext::<Index>().0.remove(&node);
        Pass {
            node,
            refs: refs.filter(|r| w.nodes[node].fs.store_sealed_by(&r.seal)),
            zeroed: Vec::new(),
            visited: 0,
        }
    }

    /// `mpath` is about to be overwritten or removed: uncount what the file
    /// there names now.
    fn release(&mut self, fs: &Fs, mpath: &str) {
        let Some(refs) = &mut self.refs else {
            return;
        };
        let Ok(bytes) = fs.read_all(mpath) else {
            return;
        };
        self.visited += 1;
        for id in named(&bytes).unwrap_or_default() {
            match refs.counts.get_mut(&id) {
                Some(n) if *n > 1 => *n -= 1,
                Some(_) => {
                    refs.counts.remove(&id);
                    self.zeroed.push(id);
                }
                // A name the counts never saw: they are not this disk's.
                None => {
                    self.refs = None;
                    return;
                }
            }
        }
    }

    /// Write the commit's manifest (`names` is [`named`] of `bytes`). One
    /// that will not decode back (a `src` with a space in it) leaves the
    /// chunks the commit just put named by nothing, and only the files can
    /// say which those are.
    pub(crate) fn write_manifest(
        &mut self,
        fs: &mut Fs,
        mpath: &str,
        bytes: &[u8],
        names: Option<&[String]>,
    ) -> u64 {
        self.release(fs, mpath);
        let len = fs.write_all(mpath, bytes).expect("store dir writable");
        match (&mut self.refs, names) {
            (Some(refs), Some(names)) => {
                for id in names {
                    match refs.counts.get_mut(id) {
                        Some(n) => *n += 1,
                        None => _ = refs.counts.insert(id.clone(), 1),
                    }
                }
            }
            _ => self.refs = None,
        }
        len
    }

    /// Retention, then reclamation: drop the manifests the commit pushes
    /// out of its image's retention window (`expiring`; `None` for a path
    /// that is no [`mtcp::ImageName`]), delete the chunks no surviving
    /// manifest names, and seal the store again.
    pub(crate) fn finish(mut self, w: &mut World, expiring: Option<&Lineage>) {
        let fs = &mut w.nodes[self.node].fs;
        if let Some(lineage) = expiring {
            for mpath in lineage.expired_among(fs.list_prefix(&lineage.prefix)) {
                self.release(fs, &mpath);
                fs.remove(&mpath).ok();
            }
        }
        let rebuilt = self.refs.is_none();
        let (refs, dead) = match self.refs {
            Some(refs) => {
                self.zeroed.sort_unstable();
                self.zeroed.dedup();
                self.visited += self.zeroed.len() as u64;
                let dead = self
                    .zeroed
                    .iter()
                    .filter(|id| !refs.counts.contains_key(*id))
                    .map(|id| chunk_path(id))
                    .filter(|p| fs.exists(p))
                    .collect();
                (refs, dead)
            }
            None => {
                let (counts, dead, visited) = mark(fs);
                self.visited += visited;
                let seal = StoreSeal::default();
                (NodeRefs { seal, counts }, dead)
            }
        };
        if cfg!(debug_assertions) {
            let (counts, all_dead, _) = mark(fs);
            assert_eq!(
                refs.counts, counts,
                "chunk refcounts drifted from the files"
            );
            assert_eq!(dead, all_dead, "the full sweep would delete other chunks");
        }
        let mut reclaimed = 0u64;
        for p in dead {
            reclaimed += fs.size(&p).unwrap_or(0);
            fs.remove(&p).ok();
        }
        fs.seal_store(&refs.seal);
        w.ext::<Index>().0.insert(self.node, refs);
        let label = self.node as u64;
        let metrics = &mut w.obs.metrics;
        metrics.add("ckptstore.gc_visited", label, self.visited);
        if rebuilt {
            metrics.inc("ckptstore.index_rebuilds", label);
        }
        if reclaimed > 0 {
            metrics.add("ckptstore.gc_reclaimed", label, reclaimed);
        }
    }
}
