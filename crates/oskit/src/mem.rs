//! Simulated process address spaces.
//!
//! An [`AddressSpace`] is an ordered set of [`Region`]s. Region contents
//! come in three flavours:
//!
//! * [`Content::Real`] — actual bytes (application state). Reference-counted
//!   so `fork` is copy-on-write at region granularity, which is what makes
//!   forked checkpointing cheap.
//! * [`Content::Shared`] — a segment shared *between* processes (`mmap` of a
//!   backing file with `MAP_SHARED`), aliased through `Rc<RefCell<…>>`.
//! * [`Content::Synthetic`] — deterministic fill described by `(seed, len,
//!   profile)`. Used for multi-gigabyte ballast (RunCMS's 680 MB, Figure 6's
//!   70 GB) so the *host* never allocates it, while the checkpointer can
//!   still stream the exact bytes through the real compressor on demand.
//!
//! The checkpoint layer consumes regions through [`AddressSpace::chunks`],
//! which hands out either borrowed real bytes or the synthetic recipe — it
//! never learns what the application stored there.

use simkit::impl_snap;
use simkit::rng::{mix2, splitmix64};
use simkit::Nanos;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

/// Protection bits (PROT_READ/WRITE/EXEC compressed into one byte).
pub const PROT_R: u8 = 1;
/// Write permission.
pub const PROT_W: u8 = 2;
/// Execute permission.
pub const PROT_X: u8 = 4;

/// What a region is, for `/proc/<pid>/maps`-style introspection and for the
/// restore-time shared-memory rules of §4.5.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegionKind {
    /// Program text / dynamic library image.
    Lib,
    /// Heap (`brk`/anonymous map used as heap).
    Heap,
    /// Anonymous mapping (ballast, arenas).
    Anon,
    /// `MAP_SHARED` mapping of a backing file at this path.
    Shm {
        /// Absolute path of the backing file.
        backing: String,
    },
}

impl_snap!(enum RegionKind { Lib, Heap, Anon, Shm { backing } });

/// Deterministic fill recipes with calibrated compressibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FillProfile {
    /// All zero bytes (untouched allocations; NAS/IS's empty buckets).
    Zeros,
    /// Incompressible noise (numeric data, already-compressed payloads).
    Random,
    /// Natural-language-like text (szip ratio ≈ 4–6×).
    Text,
    /// Machine-code-like structured binary (szip ratio ≈ 2×, the typical
    /// compressibility of loaded dynamic libraries).
    Code,
    /// Per-page mixture: `zero_pct`% zero pages, `text_pct`% text pages,
    /// `code_pct`% code pages, remainder random. Percentages must sum ≤ 100.
    Mixed {
        /// Percent of pages that are zero.
        zero_pct: u8,
        /// Percent of pages that are text-like.
        text_pct: u8,
        /// Percent of pages that are code-like.
        code_pct: u8,
    },
}

impl_snap!(enum FillProfile { Zeros, Random, Text, Code, Mixed { zero_pct, text_pct, code_pct } });

const PAGE: u64 = 4096;
const WORDS: [&str; 16] = [
    "checkpoint ",
    "restart ",
    "the ",
    "of ",
    "distributed ",
    "process ",
    "socket ",
    "memory ",
    "thread ",
    "cluster ",
    "barrier ",
    "kernel ",
    "image ",
    "buffer ",
    "transparent ",
    "data ",
];

impl FillProfile {
    /// Fill `out` with the bytes of this profile at absolute `offset` within
    /// the region. Chunk-boundary independent: any chunking of the region
    /// produces the same byte stream.
    pub fn fill(&self, seed: u64, offset: u64, out: &mut [u8]) {
        match self {
            FillProfile::Zeros => out.fill(0),
            FillProfile::Random => fill_random(seed, offset, out),
            FillProfile::Text => fill_text(seed, offset, out),
            FillProfile::Code => fill_code(seed, offset, out),
            FillProfile::Mixed {
                zero_pct,
                text_pct,
                code_pct,
            } => {
                debug_assert!(*zero_pct as u16 + *text_pct as u16 + *code_pct as u16 <= 100);
                let mut pos = 0usize;
                while pos < out.len() {
                    let abs = offset + pos as u64;
                    let page = abs / PAGE;
                    let page_end = (page + 1) * PAGE;
                    let take = ((page_end - abs) as usize).min(out.len() - pos);
                    let roll = (mix2(seed, page) % 100) as u8;
                    let sub = &mut out[pos..pos + take];
                    if roll < *zero_pct {
                        sub.fill(0);
                    } else if roll < zero_pct + text_pct {
                        fill_text(seed, abs, sub);
                    } else if roll < zero_pct + text_pct + code_pct {
                        fill_code(seed, abs, sub);
                    } else {
                        fill_random(seed, abs, sub);
                    }
                    pos += take;
                }
            }
        }
    }

    /// Materialize `len` bytes starting at offset 0 (tests and small fills).
    pub fn bytes(&self, seed: u64, len: usize) -> Vec<u8> {
        let mut v = vec![0u8; len];
        self.fill(seed, 0, &mut v);
        v
    }
}

/// Fill `out` from fixed-size cells: `cell_bytes(c)` is the content of the
/// aligned `N`-byte cell `c`, computed once per cell and sliced to whatever
/// part of it `[offset, offset + out.len())` covers — which is what makes a
/// fill independent of how the region is chunked, at any alignment.
fn fill_cells<const N: usize>(
    offset: u64,
    out: &mut [u8],
    mut cell_bytes: impl FnMut(u64) -> [u8; N],
) {
    let mut pos = 0usize;
    while pos < out.len() {
        let abs = offset + pos as u64;
        let within = (abs % N as u64) as usize;
        let take = (N - within).min(out.len() - pos);
        let cell = cell_bytes(abs / N as u64);
        out[pos..pos + take].copy_from_slice(&cell[within..within + take]);
        pos += take;
    }
}

/// Incompressible: one splitmix word per aligned 8-byte cell.
fn fill_random(seed: u64, offset: u64, out: &mut [u8]) {
    fill_cells(offset, out, |cell| {
        let mut s = mix2(seed, cell);
        splitmix64(&mut s).to_le_bytes()
    });
}

/// Each vocabulary word repeated out to one 16-byte text cell.
const TEXT_CELLS: [[u8; 16]; 16] = {
    let mut cells = [[0u8; 16]; 16];
    let mut w = 0;
    while w < 16 {
        let word = WORDS[w].as_bytes();
        let mut k = 0;
        while k < 16 {
            cells[w][k] = word[k % word.len()];
            k += 1;
        }
        w += 1;
    }
    cells
};

/// Text-like: 16-byte cells, each a word chosen by a per-cell hash; szip
/// finds abundant 3+ byte matches.
fn fill_text(seed: u64, offset: u64, out: &mut [u8]) {
    fill_cells(offset, out, |cell| {
        TEXT_CELLS[(mix2(seed ^ 0x7e87, cell) % 16) as usize]
    });
}

/// Code-like: 4-byte "instructions" — a small opcode vocabulary, a 16-value
/// register byte, a displacement that is zero half the time, and a zero high
/// byte. Compresses ≈ 2× under szip, like real `.so` text under gzip.
fn fill_code(seed: u64, offset: u64, out: &mut [u8]) {
    // The opcode is shared by a group of 16 instructions: hash it once per
    // group, not once per instruction.
    let mut group = (u64::MAX, 0u8);
    fill_cells(offset, out, |insn| {
        if group.0 != insn / 16 {
            group = (insn / 16, 0x40 | (mix2(seed ^ 0xc0de, insn / 16) % 8) as u8);
        }
        let h = mix2(seed ^ 0xc0de, insn);
        // Displacement byte: zero three times out of four.
        let disp = if h & 0x300 != 0 { 0 } else { (h >> 16) as u8 };
        [group.1, (insn % 16) as u8, disp, 0]
    });
}

/// Region contents.
#[derive(Debug, Clone)]
pub enum Content {
    /// Real bytes, COW-shared after fork.
    Real(Rc<Vec<u8>>),
    /// Bytes shared live between processes (`MAP_SHARED`).
    Shared(Rc<RefCell<Vec<u8>>>),
    /// Deterministic synthetic fill; never materialized wholesale.
    Synthetic {
        /// Generator seed.
        seed: u64,
        /// Length in bytes.
        len: u64,
        /// Fill recipe.
        profile: FillProfile,
    },
}

impl Content {
    /// Length in bytes.
    pub fn len(&self) -> u64 {
        match self {
            Content::Real(b) => b.len() as u64,
            Content::Shared(b) => b.borrow().len() as u64,
            Content::Synthetic { len, .. } => *len,
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A content-identity digest used by tests to prove bit-identical
    /// restore. Real/Shared hash their bytes; Synthetic hashes its recipe
    /// (its bytes are a pure function of the recipe).
    pub fn digest(&self) -> u64 {
        match self {
            Content::Real(b) => hash_bytes(b),
            Content::Shared(b) => hash_bytes(&b.borrow()),
            Content::Synthetic { seed, len, profile } => {
                let mut w = simkit::SnapWriter::new();
                use simkit::Snap;
                seed.save(&mut w);
                len.save(&mut w);
                profile.save(&mut w);
                hash_bytes(&w.into_bytes()) ^ 0x5e_ed
            }
        }
    }
}

fn hash_bytes(b: &[u8]) -> u64 {
    // FNV-1a 64.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &x in b {
        h ^= x as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// One mapped region.
#[derive(Debug, Clone)]
pub struct Region {
    /// Base virtual address (cosmetic but stable across checkpoint/restart).
    pub start: u64,
    /// Mapping name as `/proc/<pid>/maps` would show it.
    pub name: String,
    /// Kind, driving restore rules.
    pub kind: RegionKind,
    /// Protection bits.
    pub prot: u8,
    /// The bytes.
    pub content: Content,
    /// When a restore's background fill lands this region: a thread that
    /// touches it earlier stalls until then ([`crate::Kernel::mem_read`]).
    /// Zero for a region mapped whole.
    pub ready_at: Nanos,
}

impl Region {
    /// Length in bytes.
    pub fn len(&self) -> u64 {
        self.content.len()
    }
    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.content.is_empty()
    }
}

/// A chunk handed to the checkpoint writer.
pub enum ChunkRef<'a> {
    /// Borrowed real bytes.
    Bytes(&'a [u8]),
    /// Synthetic recipe covering `len` bytes starting at `offset` within
    /// the region.
    Synthetic {
        /// Generator seed.
        seed: u64,
        /// Offset of this chunk within the region.
        offset: u64,
        /// Chunk length.
        len: u64,
        /// Fill recipe.
        profile: FillProfile,
    },
}

/// Copy-on-write accounting for an in-flight forked checkpoint: how much
/// the live process paid in physical copies because it wrote to regions
/// still shared with the frozen snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CowStats {
    /// Regions that were physically duplicated by a write.
    pub copied_regions: u64,
    /// Bytes physically duplicated (region granularity: the whole region is
    /// copied on the first write, mirroring `Rc::make_mut`).
    pub copied_bytes: u64,
}

/// A process address space.
#[derive(Debug, Clone, Default)]
pub struct AddressSpace {
    regions: Vec<Option<Region>>,
    next_addr: u64,
    /// Active COW ledger; `Some` between `begin_cow_snapshot` and
    /// `end_cow_snapshot` on the *live* side of a forked checkpoint.
    cow: Option<CowStats>,
    /// Region-granularity dirty bitmap for incremental checkpointing.
    /// `Some` once armed; every write (and new mapping) inserts the region
    /// id. The set is *persistent* — it survives forks and checkpoint
    /// snapshots — and is only swapped out by [`Self::take_dirty`] when a
    /// capture consumes it. Snapshots and fork children start untracked.
    dirty: Option<BTreeSet<RegionId>>,
}

/// Index of a region within its address space.
pub type RegionId = usize;

impl AddressSpace {
    /// An empty address space.
    pub fn new() -> Self {
        AddressSpace {
            regions: Vec::new(),
            next_addr: 0x0040_0000,
            cow: None,
            dirty: None,
        }
    }

    /// Map a new region; returns its id.
    pub fn map(
        &mut self,
        name: impl Into<String>,
        kind: RegionKind,
        prot: u8,
        content: Content,
    ) -> RegionId {
        let len = content.len();
        let start = self.next_addr;
        // Keep a guard gap and page alignment for realism.
        self.next_addr += len.div_ceil(PAGE) * PAGE + PAGE;
        self.regions.push(Some(Region {
            start,
            name: name.into(),
            kind,
            prot,
            content,
            ready_at: Nanos::ZERO,
        }));
        let id = self.regions.len() - 1;
        // A region mapped after the last capture has no prior-generation
        // image to alias — it is dirty by definition.
        if let Some(d) = &mut self.dirty {
            d.insert(id);
        }
        id
    }

    /// Unmap a region (id stays dead forever).
    pub fn unmap(&mut self, id: RegionId) {
        self.regions[id] = None;
        if let Some(d) = &mut self.dirty {
            d.remove(&id);
        }
    }

    /// Iterate live regions as `(id, &Region)`.
    pub fn iter(&self) -> impl Iterator<Item = (RegionId, &Region)> {
        self.regions
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().map(|r| (i, r)))
    }

    /// A live region by id.
    pub fn region(&self, id: RegionId) -> Option<&Region> {
        self.regions.get(id).and_then(|r| r.as_ref())
    }

    /// Mark region `id` as landing at `at` (see [`Region::ready_at`]).
    pub fn set_ready_at(&mut self, id: RegionId, at: Nanos) {
        if let Some(r) = self.regions.get_mut(id).and_then(|r| r.as_mut()) {
            r.ready_at = at;
        }
    }

    /// Number of live regions.
    pub fn region_count(&self) -> usize {
        self.iter().count()
    }

    /// Total mapped bytes.
    pub fn total_bytes(&self) -> u64 {
        self.iter().map(|(_, r)| r.len()).sum()
    }

    /// Read from a region. Synthetic regions materialize on the fly.
    pub fn read(&self, id: RegionId, offset: u64, len: usize) -> Vec<u8> {
        let r = self.region(id).expect("read from unmapped region");
        assert!(offset + len as u64 <= r.len(), "read past end of region");
        match &r.content {
            Content::Real(b) => b[offset as usize..offset as usize + len].to_vec(),
            Content::Shared(b) => b.borrow()[offset as usize..offset as usize + len].to_vec(),
            Content::Synthetic { seed, profile, .. } => {
                let mut out = vec![0u8; len];
                profile.fill(*seed, offset, &mut out);
                out
            }
        }
    }

    /// Write into a region. Triggers region-granularity copy-on-write for
    /// `Real` content shared with a forked sibling; writes through to every
    /// mapper for `Shared` content. Writing a synthetic region is a logic
    /// error — ballast is immutable by construction.
    ///
    /// Returns the number of bytes *physically copied* to satisfy the write
    /// (the whole region length when the write broke COW sharing, zero when
    /// the region was already exclusively owned). When a COW ledger is
    /// active ([`Self::begin_cow_snapshot`]) the copy is also charged there.
    pub fn write(&mut self, id: RegionId, offset: u64, bytes: &[u8]) -> u64 {
        let r = self.regions[id].as_mut().expect("write to unmapped region");
        assert!(r.prot & PROT_W != 0, "write to read-only region {}", r.name);
        assert!(
            offset + bytes.len() as u64 <= r.len(),
            "write past end of region"
        );
        if let Some(d) = &mut self.dirty {
            d.insert(id);
        }
        match &mut r.content {
            Content::Real(b) => {
                let copied = if Rc::strong_count(b) > 1 {
                    b.len() as u64
                } else {
                    0
                };
                let target = Rc::make_mut(b); // COW point
                target[offset as usize..offset as usize + bytes.len()].copy_from_slice(bytes);
                if copied > 0 {
                    if let Some(cow) = &mut self.cow {
                        cow.copied_regions += 1;
                        cow.copied_bytes += copied;
                    }
                }
                copied
            }
            Content::Shared(b) => {
                // MAP_SHARED writes go straight through — never copied, and
                // visible to the frozen snapshot too (the checkpoint writer
                // materializes shared segments eagerly at the fork instant).
                b.borrow_mut()[offset as usize..offset as usize + bytes.len()]
                    .copy_from_slice(bytes);
                0
            }
            Content::Synthetic { .. } => {
                panic!("write into synthetic ballast region {}", r.name)
            }
        }
    }

    /// Fork: COW-clone every region. `Real` shares the Rc (copied lazily on
    /// first write by either side); `Shared` stays shared (UNIX semantics);
    /// `Synthetic` recipes are `Copy`.
    pub fn fork_cow(&self) -> AddressSpace {
        AddressSpace {
            regions: self.regions.clone(),
            next_addr: self.next_addr,
            cow: None,
            dirty: None,
        }
    }

    /// Begin a forked-checkpoint snapshot: returns a frozen COW clone of
    /// this address space and arms a fresh dirty ledger on the live side.
    /// Every subsequent [`Self::write`] that breaks sharing with the
    /// snapshot charges the ledger until [`Self::end_cow_snapshot`].
    ///
    /// The caller must keep the returned snapshot alive for the duration of
    /// the background write — dropping it releases the `Rc` sharing that
    /// makes writes detectable as COW copies.
    pub fn begin_cow_snapshot(&mut self) -> AddressSpace {
        self.cow = Some(CowStats::default());
        AddressSpace {
            regions: self.regions.clone(),
            next_addr: self.next_addr,
            cow: None,
            dirty: None,
        }
    }

    /// End the forked-checkpoint snapshot window and collect the dirty
    /// ledger. Idempotent: returns zeros if no snapshot was active.
    pub fn end_cow_snapshot(&mut self) -> CowStats {
        self.cow.take().unwrap_or_default()
    }

    /// Whether a forked-checkpoint COW ledger is currently armed.
    pub fn cow_snapshot_active(&self) -> bool {
        self.cow.is_some()
    }

    /// Arm dirty-region tracking. From this instant on, every write and
    /// every new mapping marks its region; a capture that consumes the set
    /// via [`Self::take_dirty`] leaves tracking armed with a fresh empty
    /// set. Idempotent: re-arming keeps the accumulated set.
    pub fn enable_dirty_tracking(&mut self) {
        if self.dirty.is_none() {
            self.dirty = Some(BTreeSet::new());
        }
    }

    /// Whether dirty-region tracking is armed.
    pub fn dirty_tracking_active(&self) -> bool {
        self.dirty.is_some()
    }

    /// The regions written since tracking was armed (or last taken), if
    /// tracking is on.
    pub fn dirty_regions(&self) -> Option<&BTreeSet<RegionId>> {
        self.dirty.as_ref()
    }

    /// Consume the dirty set, swapping in a fresh empty one so tracking
    /// continues seamlessly. Returns `None` when tracking was never armed.
    ///
    /// The caller owns the returned set until the image it captured becomes
    /// *durable*; if the generation aborts instead, the set must be merged
    /// back via [`Self::merge_dirty`] — otherwise the next incremental
    /// capture would treat those regions as clean and alias stale bytes.
    pub fn take_dirty(&mut self) -> Option<BTreeSet<RegionId>> {
        self.dirty.replace(BTreeSet::new())
    }

    /// Union a previously taken dirty set back in (abort path). Arms
    /// tracking if it was off.
    pub fn merge_dirty(&mut self, taken: BTreeSet<RegionId>) {
        match &mut self.dirty {
            Some(d) => d.extend(taken),
            None => self.dirty = Some(taken),
        }
    }

    /// Stream a region's content in ≤`chunk` byte pieces for the image
    /// writer, without materializing synthetic bytes.
    pub fn chunks(&self, id: RegionId, chunk: u64) -> Vec<ChunkRef<'_>> {
        let r = self.region(id).expect("chunks of unmapped region");
        match &r.content {
            Content::Real(b) => b.chunks(chunk as usize).map(ChunkRef::Bytes).collect(),
            Content::Shared(_) => {
                // Borrow restrictions on RefCell mean shared content is
                // surfaced as a single materialized chunk by the caller via
                // `read`; keep the API total by delegating.
                vec![]
            }
            Content::Synthetic { seed, len, profile } => {
                let mut out = Vec::new();
                let mut off = 0u64;
                while off < *len {
                    let take = chunk.min(*len - off);
                    out.push(ChunkRef::Synthetic {
                        seed: *seed,
                        offset: off,
                        len: take,
                        profile: *profile,
                    });
                    off += take;
                }
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-byte fills as they stood before the per-cell rewrite: the
    /// definition of each profile's byte stream, kept as the test oracle.
    mod per_byte {
        use super::super::*;

        fn fill_random(seed: u64, offset: u64, out: &mut [u8]) {
            for (i, b) in out.iter_mut().enumerate() {
                let abs = offset + i as u64;
                let cell = abs / 8;
                let mut s = mix2(seed, cell);
                let word = splitmix64(&mut s);
                *b = (word >> ((abs % 8) * 8)) as u8;
            }
        }

        fn fill_text(seed: u64, offset: u64, out: &mut [u8]) {
            for (i, b) in out.iter_mut().enumerate() {
                let abs = offset + i as u64;
                let cell = abs / 16;
                let w = WORDS[(mix2(seed ^ 0x7e87, cell) % 16) as usize].as_bytes();
                *b = w[(abs % 16) as usize % w.len()];
            }
        }

        fn fill_code(seed: u64, offset: u64, out: &mut [u8]) {
            for (i, b) in out.iter_mut().enumerate() {
                let abs = offset + i as u64;
                let insn = abs / 4;
                let h = mix2(seed ^ 0xc0de, insn);
                *b = match abs % 4 {
                    0 => 0x40 | (mix2(seed ^ 0xc0de, insn / 16) % 8) as u8,
                    1 => (insn % 16) as u8,
                    2 => {
                        if h & 0x300 != 0 {
                            0
                        } else {
                            (h >> 16) as u8
                        }
                    }
                    _ => 0,
                };
            }
        }

        /// `FillProfile::fill`, one byte at a time (so `Mixed` needs no page
        /// walk: every byte looks up its own page's roll).
        pub fn fill(profile: &FillProfile, seed: u64, offset: u64, out: &mut [u8]) {
            for (i, b) in out.iter_mut().enumerate() {
                let abs = offset + i as u64;
                let one = std::slice::from_mut(b);
                let leaf = match *profile {
                    FillProfile::Mixed {
                        zero_pct,
                        text_pct,
                        code_pct,
                    } => {
                        let roll = (mix2(seed, abs / PAGE) % 100) as u8;
                        if roll < zero_pct {
                            FillProfile::Zeros
                        } else if roll < zero_pct + text_pct {
                            FillProfile::Text
                        } else if roll < zero_pct + text_pct + code_pct {
                            FillProfile::Code
                        } else {
                            FillProfile::Random
                        }
                    }
                    leaf => leaf,
                };
                match leaf {
                    FillProfile::Zeros => *b = 0,
                    FillProfile::Random => fill_random(seed, abs, one),
                    FillProfile::Text => fill_text(seed, abs, one),
                    FillProfile::Code => fill_code(seed, abs, one),
                    FillProfile::Mixed { .. } => unreachable!("resolved above"),
                }
            }
        }
    }

    #[test]
    fn fill_is_chunk_boundary_independent() {
        for profile in [
            FillProfile::Zeros,
            FillProfile::Random,
            FillProfile::Text,
            FillProfile::Code,
            FillProfile::Mixed {
                zero_pct: 30,
                text_pct: 30,
                code_pct: 20,
            },
        ] {
            let whole = profile.bytes(99, 40_000);
            let mut pieced = vec![0u8; 40_000];
            let mut off = 0usize;
            for size in [1usize, 7, 4096, 13, 10_000].iter().cycle() {
                if off >= pieced.len() {
                    break;
                }
                let take = (*size).min(pieced.len() - off);
                let (s, e) = (off, off + take);
                profile.fill(99, s as u64, &mut pieced[s..e]);
                off = e;
            }
            assert_eq!(whole, pieced, "profile {profile:?}");
        }

        // Differential against the per-byte definition: random profile
        // (Mixed included), seed, unaligned offset and length up to three
        // pages, so every (head, whole cells, tail) shape of every cell
        // size and the page walk of `Mixed` are all hit.
        let mut rng = simkit::DetRng::seed_from_u64(0xF111_0001);
        for case in 0..400 {
            let profile = match rng.below(5) {
                0 => FillProfile::Zeros,
                1 => FillProfile::Random,
                2 => FillProfile::Text,
                3 => FillProfile::Code,
                _ => {
                    let zero_pct = rng.below(101) as u8;
                    let text_pct = rng.below(101 - zero_pct as u64) as u8;
                    let code_pct = rng.below(101 - zero_pct as u64 - text_pct as u64) as u8;
                    FillProfile::Mixed {
                        zero_pct,
                        text_pct,
                        code_pct,
                    }
                }
            };
            let seed = rng.next_u64();
            let offset = match rng.below(3) {
                0 => rng.below(64),
                1 => rng.below(1 << 40),
                _ => (rng.below(1 << 20) * PAGE).saturating_sub(rng.below(32)),
            };
            let len = match rng.below(3) {
                0 => rng.below(40),
                _ => rng.below(3 * PAGE + 1),
            } as usize;
            let mut got = vec![0xEEu8; len];
            let mut want = vec![0xEEu8; len];
            profile.fill(seed, offset, &mut got);
            per_byte::fill(&profile, seed, offset, &mut want);
            assert_eq!(
                got, want,
                "case {case}: {profile:?} seed {seed:#x} offset {offset} len {len}"
            );
        }
    }

    #[test]
    fn profiles_hit_their_compressibility_bands() {
        let len = 1 << 20;
        let ratio = |p: FillProfile| {
            let raw = p.bytes(7, len);
            len as f64 / szip::compressed_len(&raw) as f64
        };
        let zeros = ratio(FillProfile::Zeros);
        let text = ratio(FillProfile::Text);
        let code = ratio(FillProfile::Code);
        let random = ratio(FillProfile::Random);
        assert!(zeros > 50.0, "zeros ratio {zeros}");
        assert!(text > 3.0 && text < 20.0, "text ratio {text}");
        assert!(code > 1.5 && code < 4.0, "code ratio {code}");
        assert!(random > 0.9 && random < 1.1, "random ratio {random}");
        assert!(zeros > text && text > code && code > random);
    }

    #[test]
    fn mixed_ratio_interpolates() {
        let len = 1 << 20;
        let p = FillProfile::Mixed {
            zero_pct: 50,
            text_pct: 0,
            code_pct: 0,
        };
        let raw = p.bytes(3, len);
        let ratio = len as f64 / szip::compressed_len(&raw) as f64;
        // Half zeros, half random → ratio just under 2.
        assert!(ratio > 1.6 && ratio < 2.4, "ratio {ratio}");
    }

    #[test]
    fn cow_fork_shares_until_write() {
        let mut a = AddressSpace::new();
        let id = a.map(
            "heap",
            RegionKind::Heap,
            PROT_R | PROT_W,
            Content::Real(Rc::new(vec![1u8; 100])),
        );
        let mut b = a.fork_cow();
        // Writing in the child must not affect the parent.
        b.write(id, 0, &[9, 9, 9]);
        assert_eq!(a.read(id, 0, 3), vec![1, 1, 1]);
        assert_eq!(b.read(id, 0, 3), vec![9, 9, 9]);
        // And the parent writing afterwards must not affect the child.
        a.write(id, 50, &[7]);
        assert_eq!(b.read(id, 50, 1), vec![1]);
    }

    #[test]
    fn cow_ledger_charges_first_write_per_shared_region() {
        let mut a = AddressSpace::new();
        let id1 = a.map(
            "heap",
            RegionKind::Heap,
            PROT_R | PROT_W,
            Content::Real(Rc::new(vec![1u8; 1000])),
        );
        let id2 = a.map(
            "anon",
            RegionKind::Anon,
            PROT_R | PROT_W,
            Content::Real(Rc::new(vec![2u8; 500])),
        );
        let snap = a.begin_cow_snapshot();
        assert!(a.cow_snapshot_active());
        // First write to a shared region copies the whole region once.
        assert_eq!(a.write(id1, 0, &[9]), 1000);
        // Second write to the same region: already exclusive, no copy.
        assert_eq!(a.write(id1, 10, &[9]), 0);
        // First write to the other region copies it too.
        assert_eq!(a.write(id2, 0, &[9]), 500);
        let stats = a.end_cow_snapshot();
        assert_eq!(stats.copied_regions, 2);
        assert_eq!(stats.copied_bytes, 1500);
        assert!(!a.cow_snapshot_active());
        // The frozen snapshot still sees pre-fork bytes.
        assert_eq!(snap.read(id1, 0, 1), vec![1]);
        assert_eq!(snap.read(id2, 0, 1), vec![2]);
    }

    #[test]
    fn cow_ledger_ignores_shared_segments_and_unshared_regions() {
        let mut a = AddressSpace::new();
        let shm = a.map(
            "shm",
            RegionKind::Shm {
                backing: "/tmp/seg".into(),
            },
            PROT_R | PROT_W,
            Content::Shared(Rc::new(RefCell::new(vec![0u8; 64]))),
        );
        let snap = a.begin_cow_snapshot();
        // MAP_SHARED writes are never COW copies…
        assert_eq!(a.write(shm, 0, &[7]), 0);
        // …and they are visible through the snapshot (UNIX fork semantics).
        assert_eq!(snap.read(shm, 0, 1), vec![7]);
        // A region mapped *after* the snapshot is not shared with it.
        let fresh = a.map(
            "fresh",
            RegionKind::Anon,
            PROT_R | PROT_W,
            Content::Real(Rc::new(vec![0u8; 32])),
        );
        assert_eq!(a.write(fresh, 0, &[1]), 0);
        let stats = a.end_cow_snapshot();
        assert_eq!(stats, CowStats::default());
    }

    #[test]
    fn end_cow_snapshot_is_idempotent() {
        let mut a = AddressSpace::new();
        assert_eq!(a.end_cow_snapshot(), CowStats::default());
    }

    #[test]
    fn shared_regions_alias_across_fork() {
        let mut a = AddressSpace::new();
        let seg = Rc::new(RefCell::new(vec![0u8; 64]));
        let id = a.map(
            "shm",
            RegionKind::Shm {
                backing: "/tmp/seg".into(),
            },
            PROT_R | PROT_W,
            Content::Shared(seg),
        );
        let mut b = a.fork_cow();
        b.write(id, 10, &[5]);
        assert_eq!(a.read(id, 10, 1), vec![5], "shared write visible to parent");
    }

    #[test]
    fn synthetic_read_matches_profile() {
        let mut a = AddressSpace::new();
        let id = a.map(
            "ballast",
            RegionKind::Anon,
            PROT_R,
            Content::Synthetic {
                seed: 4,
                len: 10_000,
                profile: FillProfile::Text,
            },
        );
        let direct = FillProfile::Text.bytes(4, 10_000);
        assert_eq!(a.read(id, 0, 10_000), direct);
        assert_eq!(a.read(id, 5_000, 100), direct[5_000..5_100].to_vec());
    }

    #[test]
    #[should_panic(expected = "read-only")]
    fn write_to_readonly_region_panics() {
        let mut a = AddressSpace::new();
        let id = a.map(
            "lib",
            RegionKind::Lib,
            PROT_R | PROT_X,
            Content::Real(Rc::new(vec![0u8; 16])),
        );
        a.write(id, 0, &[1]);
    }

    #[test]
    fn unmap_removes_from_iteration_and_totals() {
        let mut a = AddressSpace::new();
        let id1 = a.map(
            "x",
            RegionKind::Anon,
            PROT_R,
            Content::Real(Rc::new(vec![0; 10])),
        );
        let _id2 = a.map(
            "y",
            RegionKind::Anon,
            PROT_R,
            Content::Real(Rc::new(vec![0; 20])),
        );
        assert_eq!(a.total_bytes(), 30);
        a.unmap(id1);
        assert_eq!(a.total_bytes(), 20);
        assert_eq!(a.region_count(), 1);
        assert!(a.region(id1).is_none());
    }

    #[test]
    fn digests_distinguish_contents() {
        let real1 = Content::Real(Rc::new(vec![1, 2, 3]));
        let real2 = Content::Real(Rc::new(vec![1, 2, 4]));
        assert_ne!(real1.digest(), real2.digest());
        let syn = Content::Synthetic {
            seed: 1,
            len: 3,
            profile: FillProfile::Zeros,
        };
        let syn2 = Content::Synthetic {
            seed: 2,
            len: 3,
            profile: FillProfile::Zeros,
        };
        assert_ne!(syn.digest(), syn2.digest());
    }

    /// Build an address space with `n` writable real regions for the
    /// dirty-bitmap property tests.
    fn space_with_regions(n: usize) -> (AddressSpace, Vec<RegionId>) {
        let mut a = AddressSpace::new();
        let ids = (0..n)
            .map(|i| {
                a.map(
                    format!("r{i}"),
                    RegionKind::Anon,
                    PROT_R | PROT_W,
                    Content::Real(Rc::new(vec![i as u8; 256])),
                )
            })
            .collect();
        (a, ids)
    }

    #[test]
    fn dirty_bitmap_marks_exactly_the_written_regions() {
        // Property: over random write patterns, the dirty set equals the
        // set of regions actually written — no false positives from reads,
        // no misses.
        for seed in 0..16u64 {
            let mut rng = simkit::DetRng::seed_from_u64(0xd1_47_00 + seed);
            let (mut a, ids) = space_with_regions(8);
            a.enable_dirty_tracking();
            assert!(a.dirty_tracking_active());
            assert!(a.dirty_regions().unwrap().is_empty());
            let mut expect = BTreeSet::new();
            for _ in 0..rng.range(1, 40) {
                let id = ids[rng.below(ids.len() as u64) as usize];
                if rng.chance(0.5) {
                    let off = rng.below(250);
                    a.write(id, off, &[rng.next_u64() as u8]);
                    expect.insert(id);
                } else {
                    // Reads never dirty.
                    a.read(id, 0, 16);
                }
            }
            assert_eq!(a.dirty_regions(), Some(&expect), "seed {seed}");
        }
    }

    #[test]
    fn dirty_bitmap_tracks_map_shared_writes_and_new_mappings() {
        let mut a = AddressSpace::new();
        a.enable_dirty_tracking();
        // A region mapped after arming is dirty by definition (no prior
        // generation can alias it).
        let shm = a.map(
            "shm",
            RegionKind::Shm {
                backing: "/tmp/seg".into(),
            },
            PROT_R | PROT_W,
            Content::Shared(Rc::new(RefCell::new(vec![0u8; 64]))),
        );
        assert!(a.dirty_regions().unwrap().contains(&shm));
        a.take_dirty();
        // MAP_SHARED writes through *this* space mark the region even
        // though no COW copy happens.
        a.write(shm, 3, &[9]);
        assert_eq!(
            a.dirty_regions()
                .unwrap()
                .iter()
                .copied()
                .collect::<Vec<_>>(),
            vec![shm]
        );
        // Unmap drops the id from the set — a dead region is never captured.
        a.unmap(shm);
        assert!(a.dirty_regions().unwrap().is_empty());
    }

    #[test]
    fn dirty_bitmap_ignores_immutable_ballast() {
        // Synthetic ballast cannot be written (writes panic), so arming
        // tracking and reading it back leaves the set empty: ballast pages
        // are aliasable at every generation.
        let mut a = AddressSpace::new();
        let id = a.map(
            "ballast",
            RegionKind::Anon,
            PROT_R,
            Content::Synthetic {
                seed: 1,
                len: 1 << 20,
                profile: FillProfile::Random,
            },
        );
        a.enable_dirty_tracking();
        a.read(id, 4096, 4096);
        assert!(a.dirty_regions().unwrap().is_empty());
    }

    #[test]
    fn take_dirty_resets_only_on_consumption_not_on_rearm() {
        // The bitmap lifecycle the checkpointer depends on: re-arming
        // (which happens every generation, including ones that stop at
        // REFILLED) must NOT clear the set; only take_dirty — the
        // CKPT_WRITTEN/durable-commit point — swaps in a fresh one.
        let (mut a, ids) = space_with_regions(3);
        a.enable_dirty_tracking();
        a.write(ids[0], 0, &[1]);
        a.enable_dirty_tracking(); // re-arm = REFILLED without consumption
        assert!(
            a.dirty_regions().unwrap().contains(&ids[0]),
            "re-arming must keep the accumulated set"
        );
        let taken = a.take_dirty().unwrap();
        assert_eq!(taken.iter().copied().collect::<Vec<_>>(), vec![ids[0]]);
        // Tracking stays armed with a fresh set; later writes accumulate.
        assert!(a.dirty_tracking_active());
        assert!(a.dirty_regions().unwrap().is_empty());
        a.write(ids[1], 0, &[2]);
        assert!(a.dirty_regions().unwrap().contains(&ids[1]));
    }

    #[test]
    fn merge_dirty_unions_the_aborted_generations_set_back() {
        // Abort path: an image that never became durable must return its
        // consumed set, and writes made meanwhile must survive the union.
        let (mut a, ids) = space_with_regions(3);
        a.enable_dirty_tracking();
        a.write(ids[0], 0, &[1]);
        let taken = a.take_dirty().unwrap();
        a.write(ids[1], 0, &[2]); // dirtied during the doomed drain
        a.merge_dirty(taken);
        let got: Vec<_> = a.dirty_regions().unwrap().iter().copied().collect();
        assert_eq!(got, vec![ids[0], ids[1]]);
    }

    #[test]
    fn cow_faults_mark_the_live_side_only() {
        // A forked-checkpoint snapshot (and a plain fork child) starts
        // untracked; COW faults on the live side mark exactly the regions
        // whose sharing broke, and the frozen snapshot never observes them.
        let (mut a, ids) = space_with_regions(4);
        a.enable_dirty_tracking();
        a.take_dirty();
        let snap = a.begin_cow_snapshot();
        assert!(snap.dirty_regions().is_none(), "snapshot starts untracked");
        assert!(a.fork_cow().dirty_regions().is_none(), "child untracked");
        assert!(a.write(ids[2], 7, &[9]) > 0, "write breaks COW sharing");
        assert_eq!(
            a.dirty_regions()
                .unwrap()
                .iter()
                .copied()
                .collect::<Vec<_>>(),
            vec![ids[2]]
        );
        let stats = a.end_cow_snapshot();
        assert_eq!(stats.copied_regions, 1);
        assert_eq!(snap.read(ids[2], 7, 1), vec![2], "snapshot sees old byte");
    }

    #[test]
    fn whole_region_overwrites_cow_and_dirty_like_any_other_write() {
        // Property: under a snapshot, a random mix of partial and
        // whole-region writes leaves the bytes a model array holds, the
        // snapshot untouched, one charged copy per region however much of
        // it the first write replaced, and exactly the written regions
        // dirty.
        for seed in 0..16u64 {
            let mut rng = simkit::DetRng::seed_from_u64(0xc0_3e_00 + seed);
            let (mut a, ids) = space_with_regions(6);
            a.enable_dirty_tracking();
            let before: Vec<Vec<u8>> = ids.iter().map(|&id| a.read(id, 0, 256)).collect();
            let mut model = before.clone();
            let snap = a.begin_cow_snapshot();
            let mut touched = BTreeSet::new();
            let mut ledger = CowStats::default();
            for _ in 0..rng.range(1, 30) {
                let i = rng.below(ids.len() as u64) as usize;
                let (off, len) = if rng.chance(0.4) {
                    (0, 256)
                } else {
                    let off = rng.below(256);
                    (off, rng.range(1, 256 - off + 1))
                };
                let mut buf = vec![0u8; len as usize];
                rng.fill_bytes(&mut buf);
                let copied = a.write(ids[i], off, &buf);
                model[i][off as usize..(off + len) as usize].copy_from_slice(&buf);
                if touched.insert(ids[i]) {
                    assert_eq!(copied, 256, "seed {seed}: first write breaks sharing");
                    ledger.copied_regions += 1;
                    ledger.copied_bytes += 256;
                } else {
                    assert_eq!(copied, 0, "seed {seed}: region already private");
                }
            }
            for (i, &id) in ids.iter().enumerate() {
                assert_eq!(a.read(id, 0, 256), model[i], "seed {seed}: live bytes");
                assert_eq!(
                    snap.read(id, 0, 256),
                    before[i],
                    "seed {seed}: frozen bytes"
                );
            }
            assert_eq!(a.dirty_regions(), Some(&touched), "seed {seed}");
            assert_eq!(a.end_cow_snapshot(), ledger, "seed {seed}");
        }
    }

    #[test]
    fn addresses_are_page_aligned_and_disjoint() {
        let mut a = AddressSpace::new();
        let id1 = a.map(
            "x",
            RegionKind::Anon,
            PROT_R,
            Content::Real(Rc::new(vec![0; 5000])),
        );
        let id2 = a.map(
            "y",
            RegionKind::Anon,
            PROT_R,
            Content::Real(Rc::new(vec![0; 100])),
        );
        let r1 = a.region(id1).unwrap();
        let r2 = a.region(id2).unwrap();
        assert_eq!(r1.start % 4096, 0);
        assert_eq!(r2.start % 4096, 0);
        assert!(r2.start >= r1.start + 5000);
    }
}
