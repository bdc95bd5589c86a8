//! Checkpoint image reading and process restoration.
//!
//! `read_image` parses the header out of an image file; `restore_into`
//! rebuilds a process's address space and threads inside an existing
//! (freshly created) process shell — the DMTCP restart program creates that
//! shell, restores fds/sockets around it, and then calls down into MTCP,
//! matching Figure 2 step 5 ("restore memory and threads").

use crate::image::{CkptImage, HeaderError, RegionMeta, StoredAs};
use crate::incr::{self, IncrState, RegionRec};
use oskit::fs::{Blob, Chunk};
use oskit::mem::{Content, RegionKind};
use oskit::proc::ThreadState;
use oskit::world::{NodeId, Pid, World};
use simkit::Nanos;
use std::cell::RefCell;
use std::rc::Rc;

/// Errors surfaced while reading or restoring an image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// The image file does not exist.
    NotFound,
    /// The file is not an MTCP image or its header is truncated/corrupt
    /// (the inner [`HeaderError`] says which).
    BadHeader(HeaderError),
    /// A region payload is truncated or failed to decompress.
    BadPayload(String),
    /// A restored region's bytes do not match the recorded CRC.
    CrcMismatch {
        /// Region name.
        region: String,
        /// Index of the region in the image's region table.
        index: usize,
        /// Byte offset of the region's payload within the image file.
        offset: u64,
    },
    /// A thread's program tag has no loader in the registry.
    UnknownProgram(String),
}

/// The satellite-facing name: errors from validating/reading an image file
/// (truncated, bad magic, bad CRC, …).
pub type ImageError = RestoreError;

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::NotFound => write!(f, "image file not found"),
            RestoreError::BadHeader(e) => write!(f, "not a valid MTCP image: {e}"),
            RestoreError::BadPayload(r) => write!(f, "corrupt payload for region {r}"),
            RestoreError::CrcMismatch {
                region,
                index,
                offset,
            } => {
                write!(
                    f,
                    "CRC mismatch restoring region {region} (index {index}, payload at byte {offset})"
                )
            }
            RestoreError::UnknownProgram(t) => write!(f, "no program loader for tag {t}"),
        }
    }
}

impl std::error::Error for RestoreError {}

/// Timing of a completed restore.
#[derive(Debug, Clone, Copy)]
pub struct RestoreReport {
    /// When memory and threads are fully restored.
    pub done_at: Nanos,
    /// Image file size read.
    pub image_bytes: u64,
    /// Raw bytes reconstructed.
    pub raw_bytes: u64,
}

/// Resolve the blob behind an image path: the plain file when present,
/// otherwise whatever an installed store source can reassemble — from the
/// reader's own store or a replica node's. Returns the blob plus the remote
/// node that served it, if any, so callers can charge the network fetch.
fn resolve_blob(
    w: &World,
    node: NodeId,
    path: &str,
) -> Result<(Blob, Option<NodeId>), RestoreError> {
    if let Some(f) = w.fs_for(node, path).get(path) {
        return Ok((f.blob.clone(), None));
    }
    if let Some(store) = crate::store::installed(w) {
        if let Some(r) = store.resolve(w, node, path) {
            let remote = r.fetched_from.filter(|n| *n != node);
            return Ok((r.blob, remote));
        }
    }
    Err(RestoreError::NotFound)
}

/// Parse the image header from `path` on `node`'s view of the filesystem
/// (or from an installed store, when the plain file is gone).
pub fn read_image(w: &World, node: NodeId, path: &str) -> Result<CkptImage, RestoreError> {
    let (blob, _) = resolve_blob(w, node, path)?;
    // The header always lives at the front of the first real chunk.
    let head = match blob.chunks().first() {
        Some(Chunk::Real(bytes)) => bytes,
        _ => return Err(RestoreError::BadHeader(HeaderError::Truncated)),
    };
    let (img, _) = CkptImage::decode_header(head).map_err(RestoreError::BadHeader)?;
    Ok(img)
}

/// Fully validate an image without restoring it: header magic/CRC, then
/// every region payload walked, length-checked, decompressed, and verified
/// against its recorded CRC. This is what the restart path runs before
/// trusting an image — a torn or bit-flipped generation is rejected here
/// with a typed error so restart can fall back to an older one.
pub fn verify_image(w: &World, node: NodeId, path: &str) -> Result<CkptImage, ImageError> {
    let (blob, _) = resolve_blob(w, node, path)?;
    let mut cursor = BlobCursor::new(blob.chunks());
    let head = cursor
        .peek_real()
        .ok_or(RestoreError::BadHeader(HeaderError::Truncated))?;
    let (img, header_len) = CkptImage::decode_header(head).map_err(RestoreError::BadHeader)?;
    cursor.skip_real(header_len);
    let mut payload_off = header_len as u64;
    for (index, rm) in img.regions.iter().enumerate() {
        match &rm.stored {
            StoredAs::Real { comp_len } | StoredAs::Shared { comp_len, .. } => {
                cursor.take_checked(rm, *comp_len, img.compressed, index, payload_off)?;
                payload_off += *comp_len;
            }
            StoredAs::Synthetic { comp_len, .. } => {
                cursor
                    .take_virtual(*comp_len)
                    .ok_or_else(|| RestoreError::BadPayload(rm.name.clone()))?;
                payload_off += *comp_len;
            }
        }
    }
    Ok(img)
}

/// Restore memory, signal state, and threads of `img` into the existing
/// process `pid` (its current regions/threads are replaced). Returns timing.
///
/// Shared-memory regions follow the paper's §4.5 rules against the *target*
/// world: recreate a missing backing file when the directory is writable;
/// overwrite the live segment when the file is writable; otherwise map the
/// file's current data instead of the checkpointed bytes.
///
/// A compressed image becomes the restored process's incremental baseline
/// (see [`crate::incr`]): every region was just checked against the bytes
/// mapped for it, so once the whole restore has succeeded the new address
/// space tracks dirty regions and the process's state names `path` — its
/// next capture aliases what it did not touch. When the bytes came off a
/// peer's store, the installed store is asked to
/// [`adopt`](crate::store::ImageStore::adopt) the image on `node`, which is
/// where that capture will look for it.
pub fn restore_into(
    w: &mut World,
    now: Nanos,
    pid: Pid,
    node: NodeId,
    path: &str,
    img: &CkptImage,
) -> Result<RestoreReport, RestoreError> {
    // Walk payload chunks in lockstep with the region table.
    let (blob, fetched_from) = resolve_blob(w, node, path)?;
    let image_bytes = blob.len();
    let payload_owned = blob.chunks().to_vec();
    let mut cursor = BlobCursor::new(&payload_owned);
    // Skip the header bytes within the first chunk.
    let head = cursor
        .peek_real()
        .ok_or(RestoreError::BadHeader(HeaderError::Truncated))?;
    let (_, header_len) = CkptImage::decode_header(head).map_err(RestoreError::BadHeader)?;
    cursor.skip_real(header_len);

    let mut new_mem = oskit::mem::AddressSpace::new();
    // What a capture of exactly this image would have left behind: where
    // each region's payload sits in it, under the ids of the new mapping.
    // (Nothing aliases an uncompressed image.)
    let mut baseline = img.compressed.then(|| IncrState {
        prev_path: path.to_string(),
        regions: std::collections::BTreeMap::new(),
    });
    let mut raw_bytes = 0u64;
    let mut payload_off = header_len as u64;
    for (index, rm) in img.regions.iter().enumerate() {
        raw_bytes += rm.raw_len;
        let (kind, content, stored_len) = match &rm.stored {
            StoredAs::Real { comp_len } => {
                let raw = cursor.take_checked(rm, *comp_len, img.compressed, index, payload_off)?;
                (rm.kind.clone(), Content::Real(Rc::new(raw)), *comp_len)
            }
            StoredAs::Shared { backing, comp_len } => {
                let raw = cursor.take_checked(rm, *comp_len, img.compressed, index, payload_off)?;
                let seg = restore_shared_segment(w, node, backing, raw);
                let kind = RegionKind::Shm {
                    backing: backing.clone(),
                };
                (kind, Content::Shared(seg), *comp_len)
            }
            StoredAs::Synthetic {
                seed,
                profile,
                comp_len,
                ..
            } => {
                cursor
                    .take_virtual(*comp_len)
                    .ok_or_else(|| RestoreError::BadPayload(rm.name.clone()))?;
                let content = Content::Synthetic {
                    seed: *seed,
                    len: rm.raw_len,
                    profile: *profile,
                };
                (rm.kind.clone(), content, *comp_len)
            }
        };
        let id = new_mem.map(rm.name.clone(), kind, rm.prot, content);
        if let Some(baseline) = &mut baseline {
            let rec = RegionRec {
                raw_len: rm.raw_len,
                crc: rm.crc,
                stored: rm.stored.clone(),
                payload_off,
            };
            baseline.regions.insert(id, rec);
        }
        payload_off += stored_len;
    }

    // Rebuild threads through the registry (must happen before we borrow
    // the process mutably, since the registry lives on the world).
    let mut new_threads = Vec::new();
    for t in &img.threads {
        let prog = w
            .registry
            .load(&t.tag, &t.state)
            .map_err(|_| RestoreError::UnknownProgram(t.tag.clone()))?;
        new_threads.push(prog);
    }

    // Nothing can fail from here on: the restore is complete and CRC-clean,
    // so the image it came from is what the new memory is relative to.
    match baseline {
        Some(baseline) => {
            new_mem.enable_dirty_tracking();
            incr::commit_state(w, pid, baseline);
        }
        None => incr::clear_state(w, pid),
    }
    {
        let p = w
            .procs
            .get_mut(&pid)
            .expect("restore target process exists");
        p.mem = new_mem;
        p.cmd = img.cmd.clone();
        p.env = img.env.iter().cloned().collect();
        p.sig_actions = img.sig_actions.iter().map(|(s, a)| (*s, *a)).collect();
        // Replace user threads with the restored ones; manager threads (the
        // restarter's own) are left alone.
        p.threads.retain(|t| !t.user);
        for prog in new_threads {
            p.add_thread(prog, true);
        }
        // Restored user threads must not run until the DMTCP layer finishes
        // the refill stage; it resumes them explicitly.
        p.user_suspended = true;
        for t in &mut p.threads {
            if t.user {
                t.state = ThreadState::Runnable;
            }
        }
    }

    // Charge time: read the image, decompress, copy into place. When a
    // store source pulled the bytes off a replica node, the fetch also
    // crosses the network: the replica's NIC plus one propagation delay.
    let spec = w.spec.clone();
    let mut io_done = w.charge_storage_read(now, node, path, image_bytes);
    if let Some(remote) = fetched_from {
        let net_done =
            w.nodes[remote.0 as usize].nic_tx.transfer(now, image_bytes) + spec.net_latency;
        io_done = io_done.max(net_done);
        w.obs
            .metrics
            .add("ckptstore.replica_fetch_bytes", node.0 as u64, image_bytes);
    }
    let cpu_done = if img.compressed {
        let (_s, e) = w.nodes[node.0 as usize]
            .cpu
            .run(now, spec.gunzip_time(raw_bytes));
        e
    } else {
        now + spec.memcpy_time(raw_bytes)
    };
    let done_at = io_done.max(cpu_done);
    // After the restore's own read is on the disk's books, so the copy the
    // store keeps queues behind it and not the other way round.
    if let (Some(from), Some(store)) = (fetched_from, crate::store::installed(w)) {
        store.adopt(w, now, node, from, path);
    }
    w.obs.metrics.add("mtcp.restore.bytes", 0, image_bytes);
    w.obs.spans.complete(
        obs::TrackId::new(node.0, img.vpid, 0),
        "mtcp.restore",
        "mtcp",
        now,
        done_at,
        vec![("image_bytes", image_bytes), ("raw_bytes", raw_bytes)],
    );
    Ok(RestoreReport {
        done_at,
        image_bytes,
        raw_bytes,
    })
}

/// §4.5 shared-memory restore rules, against the current world state.
fn restore_shared_segment(
    w: &mut World,
    node: NodeId,
    backing: &str,
    ckpt_data: Vec<u8>,
) -> Rc<RefCell<Vec<u8>>> {
    let key = (node, backing.to_string());
    if let Some(seg) = w.shm_segs.get(&key) {
        // Another restored process on this host already re-created the
        // segment; both write the same data (same checkpoint), so aliasing
        // is safe — exactly the paper's argument.
        return seg.clone();
    }
    let fs = w.fs_for_mut(node, backing);
    let file_exists = fs.exists(backing);
    let file_writable = fs.get(backing).map(|f| f.writable).unwrap_or(false);
    let dir_writable = fs.dir_writable(backing);
    let data = if !file_exists && dir_writable {
        // Backing file missing and we may create it: recreate, use ckpt data.
        fs.create(backing).expect("dir checked writable");
        let f = fs.get_mut(backing).expect("file just created");
        f.blob = oskit::fs::Blob::from_bytes(ckpt_data.clone());
        ckpt_data
    } else if file_exists && file_writable {
        // Overwrite with checkpoint data.
        let f = fs.get_mut(backing).expect("file exists");
        f.blob = oskit::fs::Blob::from_bytes(ckpt_data.clone());
        ckpt_data
    } else if file_exists {
        // Read-only (system-wide data): map the file's *current* contents.
        fs.read_all(backing).unwrap_or(ckpt_data)
    } else {
        // No file and nowhere to create it: fall back to ckpt bytes in an
        // anonymous segment.
        ckpt_data
    };
    let seg = Rc::new(RefCell::new(data));
    w.shm_segs.insert(key, seg.clone());
    seg
}

fn unpack_real(stored: &[u8], compressed: bool) -> Result<Vec<u8>, ()> {
    if compressed {
        szip::decompress(stored).map_err(|_| ())
    } else {
        Ok(stored.to_vec())
    }
}

/// Walks a blob's chunks, consuming real bytes and virtual extents.
struct BlobCursor<'a> {
    chunks: &'a [Chunk],
    idx: usize,
    offset: usize, // within a real chunk
}

impl<'a> BlobCursor<'a> {
    fn new(chunks: &'a [Chunk]) -> Self {
        BlobCursor {
            chunks,
            idx: 0,
            offset: 0,
        }
    }

    fn peek_real(&self) -> Option<&'a [u8]> {
        match self.chunks.get(self.idx)? {
            Chunk::Real(b) => Some(&b[self.offset..]),
            Chunk::Virtual { .. } => None,
        }
    }

    fn skip_real(&mut self, n: usize) {
        self.offset += n;
        self.normalize();
    }

    fn take_real(&mut self, n: usize) -> Option<Vec<u8>> {
        let b = self.peek_real()?;
        if b.len() < n {
            return None;
        }
        let out = b[..n].to_vec();
        self.skip_real(n);
        Some(out)
    }

    /// Take region `rm`'s `comp_len` stored bytes (at byte `offset` of the
    /// image, region `index` of its table), unpack them and check them
    /// against the recorded CRC: the raw bytes, or why not.
    fn take_checked(
        &mut self,
        rm: &RegionMeta,
        comp_len: u64,
        compressed: bool,
        index: usize,
        offset: u64,
    ) -> Result<Vec<u8>, RestoreError> {
        let bad = || RestoreError::BadPayload(rm.name.clone());
        let stored = self.take_real(comp_len as usize).ok_or_else(bad)?;
        let raw = unpack_real(&stored, compressed).map_err(|_| bad())?;
        if szip::crc32(&raw) != rm.crc {
            return Err(RestoreError::CrcMismatch {
                region: rm.name.clone(),
                index,
                offset,
            });
        }
        Ok(raw)
    }

    fn take_virtual(&mut self, expect_len: u64) -> Option<()> {
        match self.chunks.get(self.idx)? {
            Chunk::Virtual { len, .. } if *len == expect_len => {
                self.idx += 1;
                self.offset = 0;
                Some(())
            }
            _ => None,
        }
    }

    fn normalize(&mut self) {
        while let Some(Chunk::Real(b)) = self.chunks.get(self.idx) {
            if self.offset >= b.len() {
                self.offset -= b.len();
                self.idx += 1;
            } else {
                break;
            }
        }
    }
}
