//! Checkpoint image writing.
//!
//! `write_image` runs at a single virtual instant (user threads are already
//! suspended by the caller), produces the image file in the target
//! filesystem, and *charges* the time the work would take — compression on
//! a CPU core, bytes through the disk/SAN/NFS path — returning when each
//! part completes so the checkpoint-manager thread can sleep until then.
//!
//! `begin_forked_write` is the asynchronous variant: it snapshots the
//! address space via a region-granularity COW fork, commits the image from
//! the frozen snapshot, and returns a [`ForkedWrite`] handle the manager
//! holds while the application keeps running. The handle keeps the snapshot
//! alive so application writes during the in-flight checkpoint are charged
//! as COW copies; `ForkedWrite::finish` collects that dirty ledger once the
//! image is durable, and `ForkedWrite::abort` rolls the incremental
//! baseline back when the generation dies mid-drain.
//!
//! [`write_checkpoint`] is what the checkpoint manager calls: it plans the
//! capture first and then takes whichever of the two costs the application
//! less — under [`WriteMode::ForkedCompressed`] it forks exactly when the
//! fork is cheaper than compressing the planned bytes in-line.
//!
//! ## Incremental captures
//!
//! At generation N ≥ 2, when the address space has an armed dirty-region
//! set, a previous compressed capture left an [`incr::IncrState`], and the
//! installed [`crate::store::ImageStore`] can alias the prior image
//! ([`crate::store::ImageStore::alias_bound`]), only mutated regions are
//! read, compressed, and hashed. Clean regions are emitted as *alias
//! extents* — virtual payloads naming a byte range of the previous image —
//! with their `RegionMeta` rebuilt from the cached CRC and compressed
//! length (sound because szip is deterministic). Everything else — no
//! store, store can't alias, uncompressed mode, first generation — falls
//! back to the full path, which also arms dirty tracking so the *next*
//! generation can go incremental. A restored process is not on that list:
//! [`crate::reader::restore_into`] hands it the image it was restored from
//! as its baseline.

use crate::image::{CkptImage, RegionMeta, StoredAs, IMAGE_MAGIC};
use crate::incr::{self, IncrState, RegionRec};
use oskit::fs::Blob;
use oskit::mem::{AddressSpace, Content, CowStats, FillProfile, RegionId};
use oskit::proc::{ThreadCtx, ThreadState};
use oskit::world::{Pid, World};
use simkit::{Nanos, Snap, SnapWriter};
use std::collections::{BTreeMap, BTreeSet};
use szip::SizeEstimator;

/// How the image is produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteMode {
    /// Write raw payloads.
    Uncompressed,
    /// Pipe payloads through szip (the paper's gzip default).
    Compressed,
    /// Forked checkpointing: a COW child compresses and writes in the
    /// background; the parent is blocked only for the fork itself. Given to
    /// [`write_checkpoint`] this is permission, not an order — a capture
    /// whose planned bytes compress faster than the address space forks is
    /// written in-line.
    ForkedCompressed,
}

impl WriteMode {
    /// Whether payloads go through the compressor.
    pub fn compressed(self) -> bool {
        !matches!(self, WriteMode::Uncompressed)
    }
}

/// Completion report.
#[derive(Debug, Clone, Copy)]
pub struct WriteReport {
    /// When the checkpointed process may resume (for forked mode this is
    /// just after the COW fork; otherwise when the image is fully written).
    pub resume_at: Nanos,
    /// When the image file is completely on storage.
    pub image_complete_at: Nanos,
    /// Total image file size in bytes.
    pub image_bytes: u64,
    /// Total raw address-space bytes captured.
    pub raw_bytes: u64,
    /// Raw bytes actually read + compressed + hashed by this capture
    /// (equal to `raw_bytes` for a full capture, the dirty subset for an
    /// incremental one).
    pub captured_raw_bytes: u64,
    /// Whether this was an incremental (alias-extent) capture.
    pub incremental: bool,
}

/// How [`write_checkpoint`] wrote the image.
#[derive(Debug)]
pub enum Written {
    /// In-line: the image is durable and the incremental baseline committed.
    Inline(WriteReport),
    /// Forked: the application resumes at `report.resume_at`; the caller
    /// holds the handle until `report.image_complete_at`.
    Forked(ForkedWrite),
}

/// An in-flight forked (background) checkpoint write.
///
/// Returned by [`begin_forked_write`]. The embedded snapshot is the COW
/// child's view of memory: holding it keeps every still-shared region's
/// `Rc` count above one, which is exactly what makes application writes
/// during the overlapped drain detectable (and chargeable) as copies.
#[derive(Debug)]
pub struct ForkedWrite {
    /// Timing/size report; `resume_at` is fork-only, `image_complete_at`
    /// is when the background compress+write pipeline drains.
    pub report: WriteReport,
    /// The frozen COW snapshot (kept alive until `finish`).
    snapshot: AddressSpace,
    /// Incremental baseline for the *next* generation; committed only once
    /// this image is durable (CKPT_WRITTEN), discarded on abort.
    pending: Pending,
    /// The dirty set consumed by this capture; merged back into the live
    /// address space on abort so the next incremental capture stays
    /// relative to the last durable image.
    taken: Option<BTreeSet<RegionId>>,
}

impl ForkedWrite {
    /// The background pipeline is done and the image is durable: drop the
    /// COW snapshot, close the live process's dirty ledger, record the COW
    /// tax as metrics, and commit the incremental baseline so the next
    /// generation can alias this image. Returns the ledger (zeros when the
    /// process died while the write was in flight).
    pub fn finish(self, w: &mut World, pid: Pid) -> CowStats {
        self.close(w, pid, true)
    }

    /// The generation died mid-drain: the image never became durable, so
    /// the incremental baseline stays at the previous generation. Merges
    /// the consumed dirty set back into the live address space (regions
    /// this capture "cleaned" are still dirty relative to the last durable
    /// image) and discards the pending state.
    pub fn abort(self, w: &mut World, pid: Pid) -> CowStats {
        self.close(w, pid, false)
    }

    fn close(self, w: &mut World, pid: Pid, durable: bool) -> CowStats {
        let stats = match w.procs.get_mut(&pid) {
            Some(p) => {
                let stats = p.mem.end_cow_snapshot();
                if !durable {
                    if let Some(taken) = self.taken {
                        p.mem.merge_dirty(taken);
                    }
                }
                stats
            }
            None => CowStats::default(),
        };
        drop(self.snapshot);
        if durable {
            self.pending.apply(w, pid);
        }
        if stats.copied_bytes > 0 {
            w.obs
                .metrics
                .add("mtcp.cow.dirty_bytes", 0, stats.copied_bytes);
            w.obs
                .metrics
                .add("mtcp.cow.dirty_regions", 0, stats.copied_regions);
        }
        stats
    }
}

/// What should happen to the process's incremental baseline once the
/// written image is durable.
#[derive(Debug)]
enum Pending {
    /// Replace the baseline with this capture's state.
    Commit(IncrState),
    /// The dirty set was consumed but this image cannot be aliased
    /// (uncompressed): drop the baseline so a later generation cannot
    /// alias a stale image.
    Clear,
    /// Leave the baseline untouched (shadow full captures).
    Keep,
}

impl Pending {
    fn apply(self, w: &mut World, pid: Pid) {
        match self {
            Pending::Commit(state) => incr::commit_state(w, pid, state),
            Pending::Clear => incr::clear_state(w, pid),
            Pending::Keep => {}
        }
    }
}

/// How a capture was planned.
enum Plan {
    /// Capture every region. `taken` holds a consumed dirty set (when
    /// tracking was armed but incremental was not possible this time).
    Full { taken: Option<BTreeSet<RegionId>> },
    /// Capture dirty regions; alias the rest into `prev` below `bound`.
    Incr {
        dirty: BTreeSet<RegionId>,
        prev: IncrState,
        bound: u64,
    },
    /// Shadow full capture: touch neither the dirty set nor the baseline.
    Shadow,
}

/// Decide full vs incremental and arm/consume the dirty set accordingly.
fn plan_capture(w: &mut World, pid: Pid, mode: WriteMode, force_full: bool) -> Plan {
    if force_full {
        return Plan::Shadow;
    }
    let node = w.procs[&pid].node;
    let allow = mode.compressed() && incr::enabled(w);
    let prev = incr::state_of(w, pid);
    let bound = match (&prev, crate::store::installed(w)) {
        (Some(st), Some(store)) if allow => store.alias_bound(w, node, &st.prev_path),
        _ => None,
    };
    let mem = &mut w.procs.get_mut(&pid).expect("capture of live process").mem;
    let taken = mem.take_dirty();
    if taken.is_none() {
        // First capture of this address space: arm tracking so the next
        // generation can go incremental against the image we write now.
        mem.enable_dirty_tracking();
    }
    match (taken, prev, bound) {
        (Some(dirty), Some(prev), Some(bound)) => Plan::Incr { dirty, prev, bound },
        (taken, _, _) => Plan::Full { taken },
    }
}

/// Capture `pid`'s address space and threads into `path`.
///
/// The caller (DMTCP's checkpoint manager) guarantees user threads are
/// suspended. `dmtcp_meta` is the upper layer's connection-information
/// table, stored opaquely. Goes incremental automatically when possible
/// (see module docs); the image is durable when this returns, so the
/// incremental baseline is committed before returning.
pub fn write_image(
    w: &mut World,
    now: Nanos,
    pid: Pid,
    path: &str,
    mode: WriteMode,
    vpid: u32,
    dmtcp_meta: Vec<u8>,
) -> WriteReport {
    let plan = plan_capture(w, pid, mode, false);
    let cap = capture_live(w, pid, mode.compressed(), &plan);
    let (report, state) = commit_image(w, now, pid, path, mode, vpid, dmtcp_meta, cap);
    pending_for(&plan, mode, state).apply(w, pid);
    report
}

/// Checkpoint `pid` into `path` the way that stops it for the shortest
/// time: plan the capture, then — under [`WriteMode::ForkedCompressed`] —
/// fork iff forking the address space costs less than compressing the
/// planned bytes in-line. Both sides are costs the model already charges
/// ([`oskit::HwSpec::fork_time`] of every mapped byte against
/// [`oskit::HwSpec::gzip_time`] of the bytes this capture reads), so the
/// choice follows the input: a process rewriting most of its memory forks,
/// one that dirtied a region a hundredth of its size does not. The other
/// modes have nothing to choose and are [`write_image`].
pub fn write_checkpoint(
    w: &mut World,
    now: Nanos,
    pid: Pid,
    path: &str,
    mode: WriteMode,
    vpid: u32,
    dmtcp_meta: Vec<u8>,
) -> Written {
    let plan = plan_capture(w, pid, mode, false);
    let cap = capture_live(w, pid, mode.compressed(), &plan);
    let may_fork = mode == WriteMode::ForkedCompressed;
    if may_fork && w.spec.fork_time(cap.raw_bytes) < w.spec.gzip_time(cap.captured_raw_bytes) {
        return Written::Forked(commit_forked(
            w, now, pid, path, vpid, dmtcp_meta, plan, cap,
        ));
    }
    // In-line — a forked-mode capture sent this way is a plain compressed
    // one — the image is durable on return, so the baseline moves now.
    let mode = if may_fork {
        WriteMode::Compressed
    } else {
        mode
    };
    let (report, state) = commit_image(w, now, pid, path, mode, vpid, dmtcp_meta, cap);
    pending_for(&plan, mode, state).apply(w, pid);
    Written::Inline(report)
}

/// Capture a *full* image of `pid` at this instant without consuming the
/// dirty set or moving the incremental baseline. This is the differential
/// test hook: called next to [`write_image`] on the same suspended process
/// it produces the full-image ground truth an incremental image must
/// restore identically to. Production code never calls it.
pub fn write_image_full(
    w: &mut World,
    now: Nanos,
    pid: Pid,
    path: &str,
    mode: WriteMode,
    vpid: u32,
    dmtcp_meta: Vec<u8>,
) -> WriteReport {
    let cap = capture_live(w, pid, mode.compressed(), &Plan::Shadow);
    let (report, _) = commit_image(w, now, pid, path, mode, vpid, dmtcp_meta, cap);
    report
}

/// Start a forked checkpoint of `pid`: COW-snapshot the address space,
/// commit the image from the frozen snapshot, and arm the live side's
/// dirty ledger. The returned report's `resume_at` covers only the fork
/// pause; the caller resumes the application there and sleeps (in the
/// manager thread) until `image_complete_at` before calling
/// [`ForkedWrite::finish`] (or [`ForkedWrite::abort`] if the generation
/// dies first).
pub fn begin_forked_write(
    w: &mut World,
    now: Nanos,
    pid: Pid,
    path: &str,
    vpid: u32,
    dmtcp_meta: Vec<u8>,
) -> ForkedWrite {
    let plan = plan_capture(w, pid, WriteMode::ForkedCompressed, false);
    let cap = capture_live(w, pid, true, &plan);
    commit_forked(w, now, pid, path, vpid, dmtcp_meta, plan, cap)
}

/// Fork, and commit a planned, captured image from the child. Plan,
/// capture and COW snapshot all happen at the same suspended instant, so
/// the payloads read from the live address space are exactly the snapshot's
/// — the pre-fork bytes the image must hold however soon the application
/// dirties its own copy — and the dirty set describes exactly that snapshot.
#[allow(clippy::too_many_arguments)]
fn commit_forked(
    w: &mut World,
    now: Nanos,
    pid: Pid,
    path: &str,
    vpid: u32,
    dmtcp_meta: Vec<u8>,
    plan: Plan,
    cap: CaptureOut,
) -> ForkedWrite {
    let snapshot = w
        .procs
        .get_mut(&pid)
        .expect("forked write of live process")
        .mem
        .begin_cow_snapshot();
    let (report, state) = commit_image(
        w,
        now,
        pid,
        path,
        WriteMode::ForkedCompressed,
        vpid,
        dmtcp_meta,
        cap,
    );
    let pending = pending_for(&plan, WriteMode::ForkedCompressed, state);
    let taken = match plan {
        Plan::Full { taken } => taken,
        Plan::Incr { dirty, .. } => Some(dirty),
        Plan::Shadow => None,
    };
    ForkedWrite {
        report,
        snapshot,
        pending,
        taken,
    }
}

/// The baseline outcome for a capture under `plan`.
fn pending_for(plan: &Plan, mode: WriteMode, state: IncrState) -> Pending {
    match plan {
        Plan::Shadow => Pending::Keep,
        _ if mode.compressed() => Pending::Commit(state),
        _ => Pending::Clear,
    }
}

/// Everything phase 1 produces: the region table, payload streams, and the
/// byte accounting the cost model and metrics need.
struct CaptureOut {
    /// Live region ids, parallel to `regions`/`payloads`.
    ids: Vec<RegionId>,
    regions: Vec<RegionMeta>,
    payloads: Vec<Payload>,
    /// Total raw address-space bytes the image represents.
    raw_bytes: u64,
    /// Raw bytes actually read + compressed + hashed by this capture.
    captured_raw_bytes: u64,
    /// Compressor input/output bytes (freshly packed regions only).
    comp_in: u64,
    comp_out: u64,
    /// Regions emitted as alias extents.
    aliased_regions: u64,
    /// Synthetic regions the size estimator actually ran on (memo misses).
    synth_sized: u64,
    incremental: bool,
}

/// The compressed size every synthetic region this world has ever captured
/// was given: `(seed, len, profile) → (comp_len, sampled)`.
///
/// A synthetic region is immutable and its bytes are a pure function of that
/// triple, szip is deterministic and the [`SizeEstimator`] is a constant, so
/// the size is a pure function of the key — generating the sample and
/// compressing it again at every generation (and once per rank for the same
/// array) can only reproduce the number. Looked up, never iterated; no
/// eviction, because the key space is the set of synthetic regions the world
/// ever maps; dropped with the world, so two worlds never share a result.
#[derive(Default)]
struct SynthSizes(BTreeMap<(u64, u64, FillProfile), (u64, bool)>);

/// [`capture_planned`] over `pid`'s live address space. The memo and the
/// address space are both inside `w`, so the memo is lifted out for the
/// duration of the (pure) capture and put back.
fn capture_live(w: &mut World, pid: Pid, compressed: bool, plan: &Plan) -> CaptureOut {
    let mut sizes = std::mem::take(w.ext::<SynthSizes>());
    let (cap, off_thread) = capture_planned(&w.procs[&pid].mem, compressed, plan, &mut sizes);
    *w.ext::<SynthSizes>() = sizes;
    if off_thread > 0 {
        w.obs
            .metrics
            .add("mtcp.fanout.regions", 0, off_thread as u64);
    }
    cap
}

/// Where one region of a capture comes from: emitted without reading its
/// bytes (an alias extent or a synthetic recipe), or packed from them.
enum Source<'a> {
    Done(RegionMeta, Payload),
    Pack(&'a oskit::mem::Region, Held<'a>),
}

/// A region's real bytes, held for packing: a private region's are lent
/// straight from its mapping, a shared segment's through a borrow taken on
/// the calling thread.
enum Held<'a> {
    Private(&'a [u8]),
    Shared(std::cell::Ref<'a, Vec<u8>>),
}

impl Held<'_> {
    fn bytes(&self) -> &[u8] {
        match self {
            Held::Private(bytes) => bytes,
            Held::Shared(bytes) => bytes,
        }
    }
}

/// Phase 1: build the region table and payload byte streams under `plan`.
/// (Pure data work on a frozen address space; timing charged at commit.)
///
/// Which regions alias and what each synthetic one sizes to is settled
/// first, in region order; the real bytes of the rest are then packed
/// through [`crate::fanout::map`] and everything is assembled in region
/// order again — the same image a one-region-at-a-time loop writes. Also
/// returns how many regions were packed off the calling thread.
fn capture_planned(
    mem: &AddressSpace,
    compressed: bool,
    plan: &Plan,
    sizes: &mut SynthSizes,
) -> (CaptureOut, usize) {
    let mut out = CaptureOut {
        ids: Vec::new(),
        regions: Vec::new(),
        payloads: Vec::new(),
        raw_bytes: 0,
        captured_raw_bytes: 0,
        comp_in: 0,
        comp_out: 0,
        aliased_regions: 0,
        synth_sized: 0,
        incremental: matches!(plan, Plan::Incr { .. }),
    };
    let known = sizes.0.len();
    let mut sources = Vec::new();
    for (id, region) in mem.iter() {
        let raw_len = region.len();
        out.raw_bytes += raw_len;
        out.ids.push(id);
        if let Plan::Incr { dirty, prev, bound } = plan {
            if let Some((meta, payload)) = alias_region(id, region, raw_len, dirty, prev, *bound) {
                out.aliased_regions += 1;
                sources.push(Source::Done(meta, payload));
                continue;
            }
        }
        out.captured_raw_bytes += raw_len;
        sources.push(match &region.content {
            Content::Real(bytes) => Source::Pack(region, Held::Private(bytes)),
            // Shared segments are materialized eagerly at this instant (the
            // fork instant, for a forked write): MAP_SHARED memory is not
            // COW under fork, so the image carries whatever the segment
            // held when the snapshot was taken.
            Content::Shared(seg) => Source::Pack(region, Held::Shared(seg.borrow())),
            Content::Synthetic { seed, len, profile } => {
                let recipe = (*seed, *len, *profile);
                let (meta, payload) = capture_synthetic(region, recipe, compressed, sizes);
                if compressed {
                    out.comp_in += raw_len;
                    out.comp_out += payload.len();
                }
                Source::Done(meta, payload)
            }
        });
    }
    // Every estimator run adds exactly one entry.
    out.synth_sized = (sizes.0.len() - known) as u64;

    let jobs: Vec<&[u8]> = sources
        .iter()
        .filter_map(|s| match s {
            Source::Pack(_, held) => Some(held.bytes()),
            Source::Done(..) => None,
        })
        .collect();
    let heavy = |bytes: &&[u8]| compressed && bytes.len() >= szip::stream::BLOCK;
    let (packed, off_thread) =
        crate::fanout::map(jobs, heavy, |bytes| pack_real(bytes, compressed));

    // One packed result per `Pack` source, in the same order.
    let mut packed = packed.into_iter();
    for source in sources {
        let (meta, payload) = match source {
            Source::Done(meta, payload) => (meta, payload),
            Source::Pack(region, _) => {
                let (stored_bytes, crc) = packed.next().unwrap_or_default();
                let stored_len = stored_bytes.len() as u64;
                if compressed {
                    out.comp_in += region.len();
                    out.comp_out += stored_len;
                }
                let meta = packed_meta(region, stored_len, crc);
                (meta, Payload::Real(stored_bytes))
            }
        };
        out.regions.push(meta);
        out.payloads.push(payload);
    }
    (out, off_thread)
}

/// Emit `region` as a clean alias extent when the previous capture's record
/// still describes it exactly; `None` sends it down the full path.
fn alias_region(
    id: RegionId,
    region: &oskit::mem::Region,
    raw_len: u64,
    dirty: &BTreeSet<RegionId>,
    prev: &IncrState,
    bound: u64,
) -> Option<(RegionMeta, Payload)> {
    if dirty.contains(&id) {
        return None;
    }
    let rec = prev.regions.get(&id)?;
    if rec.raw_len != raw_len {
        return None;
    }
    match (&region.content, &rec.stored) {
        (Content::Real(_), StoredAs::Real { comp_len }) => {
            // The raw bytes are unchanged since the previous capture, so the
            // previous compressed payload (szip is deterministic) and CRC
            // still describe them; reference those bytes instead of
            // recompressing them.
            if rec.payload_off + comp_len > bound {
                return None;
            }
            let meta = RegionMeta {
                name: region.name.clone(),
                kind: region.kind.clone(),
                prot: region.prot,
                raw_len,
                stored: rec.stored.clone(),
                crc: rec.crc,
            };
            let payload = Payload::Virtual {
                len: *comp_len,
                meta: incr::encode_alias(&prev.prev_path, rec.payload_off, *comp_len),
            };
            Some((meta, payload))
        }
        // Synthetic regions are immutable; reuse the previous recipe (and
        // its estimated compressed size) without re-running the estimator.
        // The virtual chunk dedups in the store by identity, so no alias
        // extent is needed.
        (Content::Synthetic { .. }, StoredAs::Synthetic { comp_len, .. }) => {
            let mut meta_bytes = SnapWriter::new();
            rec.stored.save(&mut meta_bytes);
            let meta = RegionMeta {
                name: region.name.clone(),
                kind: region.kind.clone(),
                prot: region.prot,
                raw_len,
                stored: rec.stored.clone(),
                crc: 0,
            };
            let payload = Payload::Virtual {
                len: *comp_len,
                meta: meta_bytes.into_bytes(),
            };
            Some((meta, payload))
        }
        // MAP_SHARED segments can be written through *another* process's
        // address space without marking our dirty set — never alias them.
        _ => None,
    }
}

/// The meta of a real or shared region packed into `stored_len` bytes whose
/// raw bytes have CRC `crc`.
fn packed_meta(region: &oskit::mem::Region, stored_len: u64, crc: u32) -> RegionMeta {
    let stored = match &region.content {
        Content::Shared(_) => {
            let backing = match &region.kind {
                oskit::mem::RegionKind::Shm { backing } => backing.clone(),
                _ => String::new(),
            };
            StoredAs::Shared {
                backing,
                comp_len: stored_len,
            }
        }
        _ => StoredAs::Real {
            comp_len: stored_len,
        },
    };
    RegionMeta {
        name: region.name.clone(),
        kind: region.kind.clone(),
        prot: region.prot,
        raw_len: region.len(),
        stored,
        crc,
    }
}

/// Capture the synthetic region `region` with recipe `(seed, len, profile)`:
/// its meta and a virtual payload of its (memoised) compressed size.
fn capture_synthetic(
    region: &oskit::mem::Region,
    (seed, len, profile): (u64, u64, FillProfile),
    compressed: bool,
    sizes: &mut SynthSizes,
) -> (RegionMeta, Payload) {
    let (comp_len, sampled) = if !compressed {
        (len, false)
    } else {
        *sizes
            .0
            .entry((seed, len, profile))
            .or_insert_with(|| size_synthetic(seed, len, profile))
    };
    let stored = StoredAs::Synthetic {
        seed,
        profile,
        comp_len,
        sampled,
    };
    // The virtual chunk's meta carries the recipe so a reader could
    // re-derive it from the file alone.
    let mut meta = SnapWriter::new();
    stored.save(&mut meta);
    (
        RegionMeta {
            name: region.name.clone(),
            kind: region.kind.clone(),
            prot: region.prot,
            raw_len: region.len(),
            stored,
            crc: 0,
        },
        Payload::Virtual {
            len: comp_len,
            meta: meta.into_bytes(),
        },
    )
}

/// Run the estimator: the compressed size of the synthetic region
/// `(seed, len, profile)` and whether it was extrapolated from a sample.
fn size_synthetic(seed: u64, len: u64, profile: FillProfile) -> (u64, bool) {
    let estimator = SizeEstimator::default();
    if estimator.should_sample(len) {
        let sample = profile.bytes(seed, estimator.sample_len as usize);
        let sample_comp = szip::compressed_len(&sample);
        (
            estimator.extrapolate(len, sample.len() as u64, sample_comp),
            true,
        )
    } else {
        (
            szip::compressed_len(&profile.bytes(seed, len as usize)),
            false,
        )
    }
}

/// Phases 2–4: thread contexts, file materialization, commit + time
/// charging, and observability. Also returns the [`IncrState`] describing
/// this image, for the caller to commit once the image is durable.
#[allow(clippy::too_many_arguments)]
fn commit_image(
    w: &mut World,
    now: Nanos,
    pid: Pid,
    path: &str,
    mode: WriteMode,
    vpid: u32,
    dmtcp_meta: Vec<u8>,
    cap: CaptureOut,
) -> (WriteReport, IncrState) {
    let node = w.procs[&pid].node;
    let CaptureOut {
        ids,
        regions,
        payloads,
        raw_bytes,
        captured_raw_bytes,
        comp_in,
        comp_out,
        aliased_regions,
        synth_sized,
        incremental,
    } = cap;

    // ---- Phase 2: thread contexts (registers/stack analogue). ----
    let threads: Vec<ThreadCtx> = {
        let p = &w.procs[&pid];
        p.threads
            .iter()
            .filter(|t| t.user && t.state != ThreadState::Exited)
            .map(|t| ThreadCtx {
                tag: t.program.tag().to_string(),
                state: t.program.save(),
                user: true,
                blocked: t.state == ThreadState::Blocked,
            })
            .collect()
    };

    let header = {
        let p = &w.procs[&pid];
        CkptImage {
            vpid,
            cmd: p.cmd.clone(),
            env: p.env.iter().map(|(k, v)| (k.clone(), v.clone())).collect(),
            threads,
            regions,
            sig_actions: p.sig_actions.iter().map(|(s, a)| (*s, *a)).collect(),
            compressed: mode.compressed(),
            dmtcp_meta,
        }
    };

    // ---- Phase 3: materialize the file. ----
    let header_bytes = header.encode_header();
    let header_len = header_bytes.len() as u64;
    let mut blob = Blob::new();
    blob.append_bytes(&header_bytes);
    for p in &payloads {
        match p {
            Payload::Real(bytes) => blob.append_bytes(bytes),
            Payload::Virtual { len, meta } => blob.append_virtual(*len, meta.clone()),
        }
    }
    // The incremental baseline for the *next* generation: where each
    // region's payload landed in this image, plus the cached CRC and
    // stored form a clean region can be re-emitted from.
    let state = {
        let mut st = IncrState {
            prev_path: path.to_string(),
            regions: std::collections::BTreeMap::new(),
        };
        let mut off = header_len;
        for (i, id) in ids.iter().enumerate() {
            let r = &header.regions[i];
            st.regions.insert(
                *id,
                RegionRec {
                    raw_len: r.raw_len,
                    crc: r.crc,
                    stored: r.stored.clone(),
                    payload_off: off,
                },
            );
            off += payloads[i].len();
        }
        st
    };
    // Fault-injection hook: a torn write truncates or bit-flips the blob
    // between "bytes produced" and "file committed" — the CRC/length checks
    // on the read side must catch whatever happens here. For a forked write
    // this models a crash mid-way through the background commit.
    w.apply_image_fault(now, path, &mut blob);
    let image_bytes = blob.len();

    // ---- Phase 4: commit and charge time. ----
    let spec = w.spec.clone();
    let fork_cost = spec.fork_time(raw_bytes);
    let (work_start, fork_pause) = match mode {
        WriteMode::ForkedCompressed => (now + fork_cost, fork_cost),
        _ => (now, Nanos::ZERO),
    };
    // Compression occupies one core of the node (gzip is single-threaded
    // per process; concurrent processes use distinct cores via the pool).
    // An incremental capture only ran the compressor over the dirty bytes.
    let cpu_done = if mode.compressed() {
        let dur = spec.gzip_time(captured_raw_bytes);
        let (_s, e) = w.nodes[node.0 as usize].cpu.run(work_start, dur);
        e
    } else {
        work_start + spec.memcpy_time(raw_bytes)
    };
    // Commit goes through the pluggable `ImageStore` when one is installed
    // (content-addressed, deduplicated, replicated) and charges only its
    // physical traffic; otherwise the blob lands as a plain file. Either
    // way the file goes out behind the compressor; model the pipeline as
    // overlap: I/O completes no earlier than compression, charged from
    // work_start so disk contention with other processes is respected.
    let io_done = if let Some(store) = crate::store::installed(w) {
        store.commit(w, work_start, node, path, &blob).io_done
    } else {
        {
            let fs = w.fs_for_mut(node, path);
            fs.create(path).expect("checkpoint directory writable");
            let f = fs.get_mut(path).expect("file just created");
            f.blob = blob;
        }
        w.charge_storage_write(work_start, node, path, image_bytes)
    };
    let image_complete_at = cpu_done.max(io_done);
    let resume_at = match mode {
        WriteMode::ForkedCompressed => now + fork_pause,
        _ => image_complete_at,
    };

    // ---- Observability: per-segment sizes, compression totals, span. ----
    {
        for r in &header.regions {
            let stored_len = match &r.stored {
                StoredAs::Real { comp_len } => *comp_len,
                StoredAs::Shared { comp_len, .. } => *comp_len,
                StoredAs::Synthetic { comp_len, .. } => *comp_len,
            };
            w.obs.metrics.observe("mtcp.segment.bytes", 0, stored_len);
        }
        w.obs.metrics.add("mtcp.image.bytes", 0, image_bytes);
        w.obs.metrics.add("mtcp.image.raw_bytes", 0, raw_bytes);
        if incremental {
            w.obs.metrics.add("mtcp.dirty_bytes", 0, captured_raw_bytes);
            w.obs.metrics.add("mtcp.incr.images", 0, 1);
            w.obs
                .metrics
                .add("mtcp.incr.aliased_regions", 0, aliased_regions);
        }
        if synth_sized > 0 {
            w.obs.metrics.add("mtcp.synth_sized", 0, synth_sized);
        }
        if comp_in > 0 {
            w.obs.metrics.add("szip.bytes_in", 0, comp_in);
            w.obs.metrics.add("szip.bytes_out", 0, comp_out);
            w.obs
                .metrics
                .set_gauge("szip.ratio", vpid as u64, comp_out as f64 / comp_in as f64);
        }
        w.obs.spans.complete(
            obs::TrackId::new(node.0, vpid, 0),
            "mtcp.write",
            "mtcp",
            now,
            image_complete_at,
            vec![
                ("image_bytes", image_bytes),
                ("raw_bytes", raw_bytes),
                ("captured_raw_bytes", captured_raw_bytes),
            ],
        );
    }

    (
        WriteReport {
            resume_at,
            image_complete_at,
            image_bytes,
            raw_bytes,
            captured_raw_bytes,
            incremental,
        },
        state,
    )
}

enum Payload {
    Real(Vec<u8>),
    Virtual { len: u64, meta: Vec<u8> },
}

impl Payload {
    /// Bytes the payload takes in the image.
    fn len(&self) -> u64 {
        match self {
            Payload::Real(bytes) => bytes.len() as u64,
            Payload::Virtual { len, .. } => *len,
        }
    }
}

/// Compress (or pass through) real bytes and compute their CRC.
fn pack_real(bytes: &[u8], compress: bool) -> (Vec<u8>, u32) {
    let crc = szip::crc32(bytes);
    let stored = if compress {
        szip::compress(bytes)
    } else {
        bytes.to_vec()
    };
    (stored, crc)
}

/// Verify a blob starts with an image header (restart scripts sanity-check
/// files before launching restarters).
pub fn looks_like_image(blob_head: &[u8]) -> bool {
    blob_head.len() >= IMAGE_MAGIC.len() && &blob_head[..IMAGE_MAGIC.len()] == IMAGE_MAGIC
}
