//! Checkpoint image reading and process restoration.
//!
//! `read_image` parses the header out of an image file; `restore_into`
//! rebuilds a process's address space and threads inside an existing
//! (freshly created) process shell — the DMTCP restart program creates that
//! shell, restores fds/sockets around it, and then calls down into MTCP,
//! matching Figure 2 step 5 ("restore memory and threads").

use crate::image::{CkptImage, HeaderError, RegionMeta, StoredAs};
use crate::incr::{self, IncrState, RegionRec};
use crate::store::ResolvedImage;
use oskit::fs::{Blob, Chunk};
use oskit::mem::{Content, RegionId, RegionKind};
use oskit::proc::ThreadState;
use oskit::world::{NodeId, Pid, World};
use simkit::Nanos;
use std::cell::RefCell;
use std::ops::Range;
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
    /// The process to restore into does not exist (any more).
    NoTarget(u32),
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
            RestoreError::NoTarget(pid) => write!(f, "restore target process {pid} does not exist"),
        }
    }
}

impl std::error::Error for RestoreError {}

/// Timing of a completed restore.
#[derive(Debug, Clone, Copy)]
pub struct RestoreReport {
    /// When the hot set is mapped — header, thread state and every region
    /// the newest generation wrote: the restored threads may run.
    pub done_at: Nanos,
    /// When the last region inherited from an older generation has landed
    /// behind them; `done_at` when there is none.
    pub fill_done: Nanos,
    /// Image file size read.
    pub image_bytes: u64,
    /// Raw bytes reconstructed.
    pub raw_bytes: u64,
}

/// Resolve the blob behind an image path: the plain file when present,
/// otherwise whatever an installed store source can reassemble — from the
/// reader's own store or a replica node's. `fetched_from` names the remote
/// node that served it, if any, so callers can charge the network fetch; a
/// plain file inherits nothing.
fn resolve_blob(w: &World, node: NodeId, path: &str) -> Result<ResolvedImage, RestoreError> {
    if let Some(f) = w.fs_for(node, path).get(path) {
        return Ok(ResolvedImage {
            blob: f.blob.clone(),
            fetched_from: None,
            inherited: Vec::new(),
        });
    }
    if let Some(store) = crate::store::installed(w) {
        if let Some(mut r) = store.resolve(w, node, path) {
            r.fetched_from = r.fetched_from.filter(|n| *n != node);
            return Ok(r);
        }
    }
    Err(RestoreError::NotFound)
}

/// Parse the image header from `path` on `node`'s view of the filesystem
/// (or from an installed store, when the plain file is gone).
pub fn read_image(w: &World, node: NodeId, path: &str) -> Result<CkptImage, RestoreError> {
    let (img, _) = decode_head(&resolve_blob(w, node, path)?.blob)?;
    Ok(img)
}

/// The image header and its length. The header always lives at the front
/// of the first real chunk.
fn decode_head(blob: &Blob) -> Result<(CkptImage, usize), RestoreError> {
    match blob.chunks().first() {
        Some(Chunk::Real(head)) => CkptImage::decode_header(head).map_err(RestoreError::BadHeader),
        _ => Err(RestoreError::BadHeader(HeaderError::Truncated)),
    }
}

/// Fully validate an image without restoring it: header magic/CRC, then
/// every region payload walked, length-checked, decompressed, and verified
/// against its recorded CRC. This is what the restart path runs before
/// trusting an image — a torn or bit-flipped generation is rejected here
/// with a typed error so restart can fall back to an older one.
pub fn verify_image(w: &World, node: NodeId, path: &str) -> Result<CkptImage, ImageError> {
    let blob = resolve_blob(w, node, path)?.blob;
    let (img, header_len) = decode_head(&blob)?;
    let (checked, _) = check_payloads(blob.chunks(), header_len, &img, false);
    for region in checked {
        region?;
    }
    Ok(img)
}

/// Walk `chunks` past the `header_len`-byte header in lockstep with `img`'s
/// region table, then unpack every real payload and check it against its
/// recorded CRC — on every host core when at least two of them are a szip
/// block or more of compressed data ([`crate::fanout::map`]).
///
/// Element *i* is region *i*'s raw bytes (empty for a synthetic region, and
/// dropped once checked unless `keep`) or why it is bad. The list ends at
/// the first region whose payload the blob does not hold, with that
/// region's `BadPayload`; read in order, the first error is the one a
/// region-at-a-time walk would stop at. Also returns how many regions were
/// unpacked off the calling thread.
fn check_payloads(
    chunks: &[Chunk],
    header_len: usize,
    img: &CkptImage,
    keep: bool,
) -> (Vec<Result<Vec<u8>, RestoreError>>, usize) {
    let mut cursor = BlobCursor::new(chunks);
    cursor.skip_real(header_len);
    let mut jobs = Vec::new();
    let mut missing = None;
    let mut offset = header_len as u64;
    for (index, rm) in img.regions.iter().enumerate() {
        let (stored, comp_len) = match &rm.stored {
            StoredAs::Real { comp_len } | StoredAs::Shared { comp_len, .. } => {
                let Some(bytes) = cursor.take_real(*comp_len as usize) else {
                    missing = Some(RestoreError::BadPayload(rm.name.clone()));
                    break;
                };
                (Some(bytes), *comp_len)
            }
            StoredAs::Synthetic { comp_len, .. } => {
                if cursor.take_virtual(*comp_len).is_none() {
                    missing = Some(RestoreError::BadPayload(rm.name.clone()));
                    break;
                }
                (None, *comp_len)
            }
        };
        // Bytes the restored process keeps are allocated here, on the
        // calling thread (see `fanout::map`); a failed reservation only
        // leaves the decoder to grow the buffer itself.
        let mut raw = Vec::new();
        if keep && stored.is_some() {
            let _ = raw.try_reserve_exact(rm.raw_len as usize);
        }
        jobs.push(Check {
            index,
            stored,
            offset,
            raw,
        });
        offset += comp_len;
    }
    let heavy = |job: &Check| {
        img.compressed
            && job.stored.is_some()
            && img.regions[job.index].raw_len >= szip::stream::BLOCK as u64
    };
    let (mut checked, off_thread) = crate::fanout::map(jobs, heavy, |job| {
        let Some(stored) = job.stored else {
            return Ok(Vec::new());
        };
        let rm = &img.regions[job.index];
        let raw = unpack_checked(rm, stored, img.compressed, job.index, job.offset, job.raw)?;
        Ok(if keep { raw } else { Vec::new() })
    });
    checked.extend(missing.map(Err));
    (checked, off_thread)
}

/// One region's payload as the blob lends it: region `index`, its `stored`
/// bytes (none for a synthetic region) at byte `offset` of the image, and
/// the buffer its raw bytes are unpacked into.
struct Check<'a> {
    index: usize,
    stored: Option<&'a [u8]>,
    offset: u64,
    raw: Vec<u8>,
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
///
/// Memory comes back in demand order. A `Real` region whose whole payload
/// the image inherited from an older generation
/// ([`ResolvedImage::inherited`]: a clean region an incremental capture
/// aliased) is *cold*. Everything else is *hot*: the header and thread
/// state, `Shared` segments, synthetic recipes, and every region the newest
/// generation wrote. The hot set's read and decompression are charged before
/// [`RestoreReport::done_at`], when the restored threads may run. Each cold
/// region's are queued behind them, in region order, and the region is
/// mapped with the instant it lands as its
/// [`ready_at`](oskit::mem::Region::ready_at) — a thread touching it sooner
/// stalls until then. A full image, an uncompressed one and a plain file
/// inherit nothing, so all of such an image is hot. Either way the host has
/// unpacked and CRC-checked every byte before this returns, and the cold
/// regions are clean against the baseline: a checkpoint taken mid-fill
/// aliases them rather than waiting for them.
pub fn restore_into(
    w: &mut World,
    now: Nanos,
    pid: Pid,
    node: NodeId,
    path: &str,
    img: &CkptImage,
) -> Result<RestoreReport, RestoreError> {
    let ResolvedImage {
        blob,
        fetched_from,
        inherited,
    } = resolve_blob(w, node, path)?;
    let image_bytes = blob.len();
    let (_, header_len) = decode_head(&blob)?;
    let (checked, off_thread) = check_payloads(blob.chunks(), header_len, img, true);
    if off_thread > 0 {
        w.obs
            .metrics
            .add("mtcp.fanout.regions", 0, off_thread as u64);
    }

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
    // Cold regions: (id in the new mapping, stored bytes, raw bytes).
    let mut cold: Vec<(RegionId, u64, u64)> = Vec::new();
    // Mapped in region order, each only once every region before it checked
    // clean: a §4.5 shared-segment rule runs exactly when it did while the
    // restore unpacked one region at a time.
    for (rm, raw) in img.regions.iter().zip(checked) {
        let raw = raw?;
        raw_bytes += rm.raw_len;
        let (kind, content, stored_len) = match &rm.stored {
            StoredAs::Real { comp_len } => {
                (rm.kind.clone(), Content::Real(Rc::new(raw)), *comp_len)
            }
            StoredAs::Shared { backing, comp_len } => {
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
                let content = Content::Synthetic {
                    seed: *seed,
                    len: rm.raw_len,
                    profile: *profile,
                };
                (rm.kind.clone(), content, *comp_len)
            }
        };
        let id = new_mem.map(rm.name.clone(), kind, rm.prot, content);
        let payload = payload_off..payload_off + stored_len;
        if matches!(rm.stored, StoredAs::Real { .. }) && within(&inherited, payload) {
            cold.push((id, stored_len, rm.raw_len));
        }
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

    // Charge time. The hot set's read — plus the serving peer's NIC when
    // the bytes came off a replica — overlaps its decompression; the
    // restored threads may run once both are done. Each cold region's read
    // then queues behind the hot set's on the same disk and NIC, and one
    // core, booked from the release on, unpacks the cold regions in region
    // order: each lands once its bytes are in and its turn has come.
    let cold_bytes: u64 = cold.iter().map(|&(_, stored, _)| stored).sum();
    let cold_raw_bytes: u64 = cold.iter().map(|&(_, _, raw)| raw).sum();
    let spec = &w.spec;
    let hot_unpack = unpack_time(spec, img.compressed, raw_bytes - cold_raw_bytes);
    let cold_unpack: Vec<Nanos> = cold
        .iter()
        .map(|&(_, _, raw)| unpack_time(spec, img.compressed, raw))
        .collect();
    let arrived = fetch(w, now, node, path, fetched_from, image_bytes - cold_bytes);
    let (_, hot_unpacked) = unpack(w, now, node, img.compressed, hot_unpack);
    let done_at = arrived.max(hot_unpacked);
    let mut fill_done = done_at;
    if !cold.is_empty() {
        let busy = cold_unpack.iter().fold(Nanos::ZERO, |a, &d| a + d);
        (fill_done, _) = unpack(w, done_at, node, img.compressed, busy);
    }
    for (&(id, stored, _), dur) in cold.iter().zip(cold_unpack) {
        let arrived = fetch(w, now, node, path, fetched_from, stored);
        fill_done = fill_done.max(arrived) + dur;
        new_mem.set_ready_at(id, fill_done);
    }
    if fetched_from.is_some() {
        w.obs
            .metrics
            .add("ckptstore.replica_fetch_bytes", node.0 as u64, image_bytes);
    }

    // The restore is complete and CRC-clean, so the image it came from is
    // what the new memory is relative to.
    {
        let Some(p) = w.procs.get_mut(&pid) else {
            return Err(RestoreError::NoTarget(pid.0));
        };
        if baseline.is_some() {
            new_mem.enable_dirty_tracking();
        }
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
    match baseline {
        Some(baseline) => incr::commit_state(w, pid, baseline),
        None => incr::clear_state(w, pid),
    }

    // After the restore's own read is on the disk's books, so the copy the
    // store keeps queues behind it and not the other way round.
    if let (Some(from), Some(store)) = (fetched_from, crate::store::installed(w)) {
        store.adopt(w, now, node, from, path);
    }
    let m = &mut w.obs.metrics;
    m.add("mtcp.restore.bytes", 0, image_bytes);
    m.add("mtcp.restore.raw_bytes", 0, raw_bytes);
    m.add("mtcp.restore.cold_raw_bytes", 0, cold_raw_bytes);
    let track = obs::TrackId::new(node.0, img.vpid, 0);
    let sizes = vec![("image_bytes", image_bytes), ("raw_bytes", raw_bytes)];
    w.obs
        .spans
        .complete(track, "mtcp.restore", "mtcp", now, done_at, sizes);
    if fill_done > done_at {
        let sizes = vec![
            ("regions", cold.len() as u64),
            ("cold_raw_bytes", cold_raw_bytes),
        ];
        w.obs
            .spans
            .complete(track, "mtcp.fill", "mtcp", done_at, fill_done, sizes);
    }
    Ok(RestoreReport {
        done_at,
        fill_done,
        image_bytes,
        raw_bytes,
    })
}

/// Whether the non-empty byte range `payload` lies inside one of `ranges`
/// (ascending, disjoint, merged where they touch).
fn within(ranges: &[Range<u64>], payload: Range<u64>) -> bool {
    let i = ranges.partition_point(|r| r.end <= payload.start);
    !payload.is_empty()
        && ranges
            .get(i)
            .is_some_and(|r| r.start <= payload.start && payload.end <= r.end)
}

/// Charge reading `bytes` of the image at `path` into `node`, asked for at
/// `now`: the storage read and, when the peer `from` served them, its NIC
/// plus one propagation delay. Returns when the bytes are in.
fn fetch(
    w: &mut World,
    now: Nanos,
    node: NodeId,
    path: &str,
    from: Option<NodeId>,
    bytes: u64,
) -> Nanos {
    let read = w.charge_storage_read(now, node, path, bytes);
    match from {
        Some(peer) => {
            let sent = w.nodes[peer.0 as usize].nic_tx.transfer(now, bytes);
            read.max(sent + w.spec.net_latency)
        }
        None => read,
    }
}

/// How long turning stored bytes back into `raw` bytes of memory takes:
/// gunzip, or a copy for an uncompressed image.
fn unpack_time(spec: &oskit::HwSpec, compressed: bool, raw: u64) -> Nanos {
    if compressed {
        spec.gunzip_time(raw)
    } else {
        spec.memcpy_time(raw)
    }
}

/// Charge `dur` of unpacking on `node` from `at`: gunzip runs on one of its
/// cores, a copy takes none. Returns when it starts and ends.
fn unpack(w: &mut World, at: Nanos, node: NodeId, compressed: bool, dur: Nanos) -> (Nanos, Nanos) {
    if compressed {
        w.nodes[node.0 as usize].cpu.run(at, dur)
    } else {
        (at, at + dur)
    }
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

/// Unpack region `rm`'s `stored` bytes (at byte `offset` of the image,
/// region `index` of its table) into `raw` and check them against the
/// recorded CRC: the raw bytes, or why not.
fn unpack_checked(
    rm: &RegionMeta,
    stored: &[u8],
    compressed: bool,
    index: usize,
    offset: u64,
    mut raw: Vec<u8>,
) -> Result<Vec<u8>, RestoreError> {
    if compressed {
        szip::decompress_into(stored, &mut raw)
            .map_err(|_| RestoreError::BadPayload(rm.name.clone()))?;
    } else {
        raw.extend_from_slice(stored);
    }
    if szip::crc32(&raw) != rm.crc {
        return Err(RestoreError::CrcMismatch {
            region: rm.name.clone(),
            index,
            offset,
        });
    }
    Ok(raw)
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

    /// Lend the next `n` real bytes, when one real chunk holds them all.
    fn take_real(&mut self, n: usize) -> Option<&'a [u8]> {
        let out = self.peek_real()?.get(..n)?;
        self.skip_real(n);
        Some(out)
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
