//! The benchmark's own simulated programs and the pure functions that
//! predict their final state.
//!
//! Both programs are checkpoint-unaware state machines that tick on a fixed
//! period until the harness creates [`STOP_PATH`], then write
//! `<ticks> <running checksum> <memory checksum>` to their result file and
//! exit. The oracle recomputes both checksums from `(seed, index, ticks)`
//! alone, so a restart or migration that loses or corrupts a byte of memory
//! or a tick of control state shows up as a mismatch.

use apps::nas::{NasKernel, NasRank};
use oskit::mem::FillProfile;
use oskit::program::{Program, Registry, Step};
use oskit::world::World;
use oskit::Kernel;
use simkit::rng::mix2;
use simkit::{Nanos, Snap};
use simmpi::launch::RankFactory;
use std::cell::RefCell;
use std::rc::Rc;

/// Created by the harness after the last cycle; programs exit on seeing it.
pub const STOP_PATH: &str = "/shared/perf/stop";

pub fn result_path(idx: u32) -> String {
    format!("/shared/perf/out{idx}")
}

/// Real-memory regions per [`RealHog`] and their size: 16 x 512 KiB = 8 MiB.
pub const HOG_REGIONS: usize = 16;
pub const HOG_REGION_LEN: usize = 512 << 10;
/// The scratch region every hog stamps each tick: 64 KiB plus up to 2 KiB
/// chosen by the seed, so the bytes an idle hog dirties — and with them every
/// virtual checkpoint time — are an input, not a constant.
fn hog_scratch_len(seed: u64, idx: u32) -> usize {
    (64 << 10) + (mix2(seed ^ 0x5c7a, idx as u64) % 256) as usize * 8
}
/// Distinct pre-generated region images; 24 x 512 KiB is larger than the
/// host's last-level cache, so rewrites stream from memory as a real
/// application's would.
const POOL_BUFS: usize = 24;
/// Every region image carries a 16-byte stamp at the head of each 256 KiB
/// half, unique per (process, region, tick), so no two writes produce
/// identical store chunks: churn must not collapse into dedup hits.
const STAMP_LEN: usize = 16;
const STAMP_OFFS: [usize; 2] = [0, HOG_REGION_LEN / 2];
const HOG_PERIOD: Nanos = Nanos::from_millis(200);
const SLEEPER_PERIOD: Nanos = Nanos::from_millis(10);

/// The seeded region images [`RealHog`] copies from. Generated once per
/// set-up so the program itself costs a `memcpy` per region and nothing else.
pub struct Pool {
    bufs: Vec<Vec<u8>>,
}

impl Pool {
    /// Region images of seeded content in a fixed page mix: of every ten
    /// 4 KiB pages two are zero, three text-like, three code-like and two
    /// random — `FillProfile::Mixed`'s ingredients, but dealt in exact shares
    /// rather than rolled per page, so compressibility (and with it every
    /// stored-bytes number) barely moves with the seed.
    pub fn generate(seed: u64) -> Pool {
        use FillProfile::{Code, Random, Text, Zeros};
        const PAGE: usize = 4096;
        const MIX: [FillProfile; 10] = [
            Zeros, Text, Code, Random, Text, Code, Zeros, Text, Code, Random,
        ];
        let bufs = (0..POOL_BUFS)
            .map(|j| {
                let mut buf = vec![0u8; HOG_REGION_LEN];
                for (k, page) in buf.chunks_mut(PAGE).enumerate() {
                    MIX[(j + k) % MIX.len()].fill(mix2(seed, j as u64), (k * PAGE) as u64, page);
                }
                buf
            })
            .collect();
        Pool { bufs }
    }

    #[cfg(test)]
    pub fn bufs(&self) -> &[Vec<u8>] {
        &self.bufs
    }
}

thread_local! {
    // Restart rebuilds a program from its saved bytes through a plain `fn`
    // loader, so the pool cannot travel inside the program; the harness is
    // single-threaded and installs the pool of the instance it is driving.
    static POOL: RefCell<Option<Rc<Pool>>> = const { RefCell::new(None) };
}

pub fn install_pool(pool: Rc<Pool>) {
    POOL.with(|p| *p.borrow_mut() = Some(pool));
}

fn pool() -> Rc<Pool> {
    POOL.with(|p| p.borrow().clone())
        .expect("install_pool runs before any RealHog steps")
}

fn stamp(seed: u64, idx: u32, region: usize, tick: u64) -> [u8; STAMP_LEN] {
    let mut out = [0u8; STAMP_LEN];
    let key = mix2(seed ^ ((idx as u64) << 32) ^ region as u64, tick);
    out[..8].copy_from_slice(&key.to_le_bytes());
    out[8..].copy_from_slice(&tick.to_le_bytes());
    out
}

fn pool_index(seed: u64, idx: u32, region: usize, tick: u64) -> usize {
    (mix2(mix2(seed, idx as u64), (region as u64) << 40 ^ tick) % POOL_BUFS as u64) as usize
}

/// The tick at which `region` was last rewritten, as of `tick`. A churning
/// hog rewrites every region but `tick % HOG_REGIONS` each tick (15 of 16,
/// so >= 90 % of memory); an idle hog never rewrites after the initial fill.
fn last_write(region: usize, tick: u64, churn: bool) -> u64 {
    if !churn || tick == 0 {
        0
    } else if (tick % HOG_REGIONS as u64) as usize != region {
        tick
    } else {
        tick - 1
    }
}

/// Where the running checksum samples memory at `tick`: a region and an
/// 8-byte-aligned offset.
fn sample_at(seed: u64, idx: u32, tick: u64) -> (usize, usize) {
    let h = mix2(seed ^ 0x5a4d_504c, ((idx as u64) << 40) ^ tick);
    let region = (h % HOG_REGIONS as u64) as usize;
    let off = ((h >> 8) % (HOG_REGION_LEN as u64 / 8)) as usize * 8;
    (region, off)
}

/// The bytes a hog's `region` holds after the write of tick `wtick`.
fn region_image(pool: &Pool, seed: u64, idx: u32, region: usize, wtick: u64) -> Vec<u8> {
    let mut buf = pool.bufs[pool_index(seed, idx, region, wtick)].clone();
    let st = stamp(seed, idx, region, wtick);
    for off in STAMP_OFFS {
        buf[off..off + STAMP_LEN].copy_from_slice(&st);
    }
    buf
}

fn fold(ck: u64, sample: &[u8], tick: u64) -> u64 {
    let word = u64::from_le_bytes(sample.try_into().expect("8-byte sample"));
    mix2(ck ^ word, tick)
}

/// A process with 8 MiB of real memory in 512 KiB regions plus a 64 KiB
/// scratch region. `churn` selects the rewrite pattern (see [`last_write`]);
/// the scratch region is stamped every tick either way.
pub struct RealHog {
    pub pc: u8,
    pub idx: u32,
    pub seed: u64,
    pub churn: bool,
    pub tick: u64,
    pub ck: u64,
    pub regions: Vec<u64>,
    pub scratch: u64,
}
simkit::impl_snap!(struct RealHog { pc, idx, seed, churn, tick, ck, regions, scratch });

impl RealHog {
    pub fn new(idx: u32, seed: u64, churn: bool) -> Self {
        RealHog {
            pc: 0,
            idx,
            seed,
            churn,
            tick: 0,
            ck: seed,
            regions: Vec::new(),
            scratch: 0,
        }
    }

    fn write_region(&self, k: &mut Kernel<'_>, pool: &Pool, region: usize, tick: u64) {
        let id = self.regions[region] as usize;
        k.mem_write(
            id,
            0,
            &pool.bufs[pool_index(self.seed, self.idx, region, tick)],
        );
        let st = stamp(self.seed, self.idx, region, tick);
        for off in STAMP_OFFS {
            k.mem_write(id, off as u64, &st);
        }
    }

    fn finish(&self, k: &mut Kernel<'_>) -> Step {
        let mut mem = 0u64;
        for &id in &self.regions {
            let bytes = k.mem_read(id as usize, 0, HOG_REGION_LEN);
            mem = mix2(mem, szip::crc32(&bytes) as u64);
        }
        write_result(k, self.idx, self.tick, self.ck, mem)
    }
}

impl Program for RealHog {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        let pool = pool();
        if self.pc == 0 {
            for r in 0..HOG_REGIONS {
                let id = k.mmap_anon(&format!("hog{r}"), HOG_REGION_LEN);
                self.regions.push(id as u64);
                self.write_region(k, &pool, r, 0);
            }
            self.scratch = k.mmap_anon("scratch", hog_scratch_len(self.seed, self.idx)) as u64;
            self.pc = 1;
            // Stagger the processes inside one period.
            return Step::Sleep(Nanos(HOG_PERIOD.0 / 8 * (1 + self.idx as u64 % 7)));
        }
        if k.file_size(STOP_PATH).is_ok() {
            return self.finish(k);
        }
        self.tick += 1;
        for r in 0..HOG_REGIONS {
            if last_write(r, self.tick, self.churn) == self.tick {
                self.write_region(k, &pool, r, self.tick);
            }
        }
        let st = stamp(self.seed, self.idx, HOG_REGIONS, self.tick);
        k.mem_write(self.scratch as usize, 0, &st);
        let (r, off) = sample_at(self.seed, self.idx, self.tick);
        let got = k.mem_read(self.regions[r] as usize, off as u64, 8);
        self.ck = fold(self.ck, &got, self.tick);
        Step::Sleep(HOG_PERIOD)
    }
    fn tag(&self) -> &'static str {
        "perf-realhog"
    }
    fn save(&self) -> Vec<u8> {
        self.to_snap_bytes()
    }
}

/// What hog `idx` must report after `ticks` ticks: `(running, memory)`.
pub fn hog_expected(pool: &Pool, seed: u64, idx: u32, churn: bool, ticks: u64) -> (u64, u64) {
    let mut ck = seed;
    for tick in 1..=ticks {
        let (r, off) = sample_at(seed, idx, tick);
        let img = region_image(pool, seed, idx, r, last_write(r, tick, churn));
        ck = fold(ck, &img[off..off + 8], tick);
    }
    let mut mem = 0u64;
    for r in 0..HOG_REGIONS {
        let img = region_image(pool, seed, idx, r, last_write(r, ticks, churn));
        mem = mix2(mem, szip::crc32(&img) as u64);
    }
    (ck, mem)
}

/// A process that maps `ballast` bytes of synthetic (never materialized)
/// memory once and then sleeps in a loop — the per-process cost floor, so a
/// workload built from these isolates coordinator, relay and scheduler work.
pub struct Sleeper {
    pub pc: u8,
    pub idx: u32,
    pub seed: u64,
    pub ballast: u64,
    pub region: u64,
    pub tick: u64,
    pub ck: u64,
}
simkit::impl_snap!(struct Sleeper { pc, idx, seed, ballast, region, tick, ck });

impl Sleeper {
    pub fn new(idx: u32, seed: u64, ballast: u64) -> Self {
        Sleeper {
            pc: 0,
            idx,
            seed,
            ballast,
            region: 0,
            tick: 0,
            ck: seed,
        }
    }
}

fn sleeper_fill_seed(seed: u64, idx: u32) -> u64 {
    mix2(seed ^ 0x5ca1e, idx as u64)
}

fn sleeper_sample_off(seed: u64, idx: u32, ballast: u64, tick: u64) -> u64 {
    mix2(seed ^ tick, idx as u64) % (ballast / 8) * 8
}

impl Program for Sleeper {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        if self.pc == 0 {
            self.region = k.mmap_synthetic(
                "ballast",
                self.ballast,
                sleeper_fill_seed(self.seed, self.idx),
                FillProfile::Random,
            ) as u64;
            self.pc = 1;
            // Spread wake-ups over the period instead of a thundering herd.
            let phase = mix2(self.seed, self.idx as u64) % SLEEPER_PERIOD.0;
            return Step::Sleep(Nanos(1 + phase));
        }
        if k.file_size(STOP_PATH).is_ok() {
            return write_result(k, self.idx, self.tick, self.ck, self.ballast);
        }
        self.tick += 1;
        let off = sleeper_sample_off(self.seed, self.idx, self.ballast, self.tick);
        let got = k.mem_read(self.region as usize, off, 8);
        self.ck = fold(self.ck, &got, self.tick);
        Step::Sleep(SLEEPER_PERIOD)
    }
    fn tag(&self) -> &'static str {
        "perf-sleeper"
    }
    fn save(&self) -> Vec<u8> {
        self.to_snap_bytes()
    }
}

/// What sleeper `idx` must report after `ticks` ticks: `(running, memory)`.
pub fn sleeper_expected(seed: u64, idx: u32, ballast: u64, ticks: u64) -> (u64, u64) {
    let fill = sleeper_fill_seed(seed, idx);
    let mut ck = seed;
    let mut word = [0u8; 8];
    for tick in 1..=ticks {
        let off = sleeper_sample_off(seed, idx, ballast, tick);
        FillProfile::Random.fill(fill, off, &mut word);
        ck = fold(ck, &word, tick);
    }
    (ck, ballast)
}

/// A NAS/MG rank that also maps a small zero-filled array whose size the seed
/// picks (4..64 KiB): untouched allocations differ between runs of a real
/// job, and here they make each rank's image size — hence every virtual
/// checkpoint and restart time — depend on the seed. The numerics, and so the
/// job's answer, do not.
pub struct PaddedRank {
    pub inner: NasRank,
    pub pad: u64,
    pub mapped: bool,
}
simkit::impl_snap!(struct PaddedRank { inner, pad, mapped });

impl Program for PaddedRank {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        if !self.mapped {
            k.mmap_synthetic("seeded-pad", self.pad, 0, FillProfile::Zeros);
            self.mapped = true;
        }
        self.inner.step(k)
    }
    fn tag(&self) -> &'static str {
        "perf-padded-rank"
    }
    fn save(&self) -> Vec<u8> {
        self.to_snap_bytes()
    }
    fn on_signal(&mut self, sig: u8) {
        self.inner.on_signal(sig)
    }
}

/// Rank factory for an MG job of `iters` iterations with seeded padding.
pub fn padded_mg_factory(seed: u64, iters: u32) -> RankFactory {
    Rc::new(move |rank, size, hosts, port| {
        Box::new(PaddedRank {
            inner: NasRank::new(NasKernel::Mg, rank, size, hosts, port, iters, 1024),
            pad: (4 << 10) + (mix2(seed ^ 0x9ad, rank as u64) % 7680) * 8,
            mapped: false,
        }) as Box<dyn Program>
    })
}

fn write_result(k: &mut Kernel<'_>, idx: u32, ticks: u64, ck: u64, mem: u64) -> Step {
    let fd = k
        .open(&result_path(idx), true)
        .expect("result directory is writable");
    k.write(fd, format!("{ticks} {ck} {mem}").as_bytes())
        .expect("result write");
    Step::Exit(0)
}

/// Parse a result file back into `(ticks, running, memory)`.
pub fn read_result(w: &World, idx: u32) -> Option<(u64, u64, u64)> {
    let bytes = w.shared_fs.read_all(&result_path(idx)).ok()?;
    let text = String::from_utf8(bytes).ok()?;
    let mut it = text.split(' ').map(|f| f.parse::<u64>().ok());
    Some((it.next()??, it.next()??, it.next()??))
}

pub fn register(reg: &mut Registry) {
    reg.register_snap::<RealHog>("perf-realhog");
    reg.register_snap::<Sleeper>("perf-sleeper");
    reg.register_snap::<PaddedRank>("perf-padded-rank");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_is_a_pure_function_of_the_seed() {
        let (a, b, c) = (Pool::generate(7), Pool::generate(7), Pool::generate(8));
        assert_eq!(a.bufs(), b.bufs());
        assert_ne!(a.bufs(), c.bufs());
        assert_eq!(a.bufs().len(), POOL_BUFS);
        assert!(a.bufs().iter().all(|b| b.len() == HOG_REGION_LEN));
    }

    #[test]
    fn churn_rewrites_at_least_ninety_percent_of_regions_per_tick() {
        for tick in 1..40u64 {
            let n = (0..HOG_REGIONS)
                .filter(|&r| last_write(r, tick, true) == tick)
                .count();
            assert!(n * 10 >= HOG_REGIONS * 9, "tick {tick}: {n} regions");
            assert!((0..HOG_REGIONS).all(|r| last_write(r, tick, false) == 0));
        }
    }

    #[test]
    fn expected_checksums_depend_on_seed_and_ticks() {
        let pool = Pool::generate(3);
        let base = hog_expected(&pool, 3, 0, true, 9);
        assert_eq!(base, hog_expected(&pool, 3, 0, true, 9));
        assert_ne!(base, hog_expected(&pool, 3, 0, true, 10));
        assert_ne!(base, hog_expected(&pool, 3, 1, true, 9));
        assert_ne!(base.1, hog_expected(&pool, 3, 0, false, 9).1);
        assert_ne!(
            sleeper_expected(3, 0, 4096, 50),
            sleeper_expected(4, 0, 4096, 50)
        );
    }
}
