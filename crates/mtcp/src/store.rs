//! Pluggable image storage — the [`ImageStore`] extension point.
//!
//! By default MTCP commits images as plain files in the target filesystem
//! and resolves them back by path. A storage subsystem (the `ckptstore`
//! crate is one implementation) can interpose by installing an
//! [`ImageStore`] trait object: its *commit* side receives every fully
//! built image blob (fault hooks already applied) and persists it however
//! it likes — chunked, deduplicated, replicated — reporting the physical
//! bytes written and when the image is durable; its *resolve* side turns
//! an image path back into a blob, possibly assembling it from chunks held
//! by a peer node when the primary copy is gone.
//!
//! The store lives in a `World` ext slot so neither `mtcp` nor `core`
//! needs a dependency on the implementation; with no store installed the
//! behavior is byte-identical to the plain-file path. This is the
//! plugin-model shape: one documented trait, installed and removed at
//! runtime, instead of a pair of ad-hoc function pointers.

use oskit::fs::Blob;
use oskit::world::{NodeId, World};
use simkit::Nanos;
use std::ops::Range;
use std::rc::Rc;

/// What a store reports after committing an image.
#[derive(Debug, Clone, Copy)]
pub struct SinkCommit {
    /// Physical bytes that actually reached storage (after dedup; excludes
    /// replica copies, which the store accounts separately).
    pub stored_bytes: u64,
    /// When the image — manifest, new chunks, and any synchronous replica
    /// traffic — is durable and the checkpoint may be declared complete.
    pub io_done: Nanos,
}

/// An image blob resolved by a store.
#[derive(Debug, Clone)]
pub struct ResolvedImage {
    /// The reassembled image, byte-equal to what the store was given.
    pub blob: Blob,
    /// The node whose store supplied the bytes, when it was not the reader
    /// itself — the reader charges a network fetch on top of the local read.
    pub fetched_from: Option<NodeId>,
    /// Byte ranges of `blob` this generation inherited from older ones — the
    /// alias extents its writer emitted, as the store resolved them —
    /// ascending and disjoint. A region whose whole payload lies inside them
    /// was not written by this generation, so a restore may fill it in
    /// behind the running process ([`crate::reader::restore_into`]).
    pub inherited: Vec<Range<u64>>,
}

/// A checkpoint-image storage backend.
///
/// Implementations are installed with [`install`] and removed with
/// [`uninstall`]; while installed, every image MTCP writes goes through
/// [`ImageStore::commit`] instead of the plain-file path, and every image
/// read tries [`ImageStore::resolve`] when the plain file is absent.
/// Implementations charge their own storage/network time against the
/// world, exactly as the built-in plain-file path does.
pub trait ImageStore {
    /// Persist a built image blob, produced at `work_start` on `node`
    /// under the logical image `path`. Returns what was stored and when
    /// it is durable.
    fn commit(
        &self,
        w: &mut World,
        work_start: Nanos,
        node: NodeId,
        path: &str,
        blob: &Blob,
    ) -> SinkCommit;

    /// Resolve a logical image path for a reader on `node`, returning
    /// `None` when the store (local or any replica) does not hold it.
    fn resolve(&self, w: &World, node: NodeId, path: &str) -> Option<ResolvedImage>;

    /// Whether a new commit from `node` may carry *alias extents* — virtual
    /// chunks (see `mtcp::incr`) naming byte ranges of the already-stored
    /// image `prev_path`. Returns that image's logical byte length when it
    /// can; any alias extent must lie entirely below this bound (a torn
    /// prior image shrinks it, forcing the tail back onto the full path).
    /// The default store (plain files) cannot alias.
    fn alias_bound(&self, _w: &World, _node: NodeId, _prev_path: &str) -> Option<u64> {
        None
    }

    /// A process on `node` was just restored, at `now`, from the image
    /// `path` that [`ImageStore::resolve`] served out of `from`'s store
    /// ([`ResolvedImage::fetched_from`]) — every byte checked on arrival.
    /// A store that aliases makes `node` a holder of that image too, so the
    /// restored process's next commit finds its baseline where
    /// [`ImageStore::alias_bound`] looks for it. Whatever this writes is
    /// charged at `now` but is not part of the restore: nothing waits for
    /// it. The default store keeps no second copy.
    fn adopt(&self, _w: &mut World, _now: Nanos, _node: NodeId, _from: NodeId, _path: &str) {}
}

/// The installed store (a typed world extension; absent = plain files).
#[derive(Default)]
struct Installed(Option<Rc<dyn ImageStore>>);

/// Install an image store (replacing any previous one).
pub fn install(w: &mut World, store: Rc<dyn ImageStore>) {
    w.ext::<Installed>().0 = Some(store);
}

/// Remove the image store; MTCP reverts to plain-file images.
pub fn uninstall(w: &mut World) {
    w.ext_remove::<Installed>();
}

/// The installed store, if any (cloned out so callers can use it while
/// mutating the world).
pub fn installed(w: &World) -> Option<Rc<dyn ImageStore>> {
    w.ext_ref::<Installed>()?.0.clone()
}
