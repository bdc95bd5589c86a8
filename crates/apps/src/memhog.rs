//! Figure 6's synthetic workload: "A synthetic OpenMPI program allocating
//! random data on 32 nodes", swept from 0 to ~70 GB of aggregate memory
//! with compression disabled.

use oskit::mem::FillProfile;
use oskit::program::{Program, Registry, Step};
use oskit::Kernel;
use simkit::{Nanos, Snap};
use simmpi::coll::CollOp;
use simmpi::launch::RankFactory;
use simmpi::rt::MpiRt;
use std::rc::Rc;

/// One memory-hog rank: joins the job, allocates `mb` MiB of random data,
/// then idles so the checkpoint can be taken at a known footprint.
pub struct MemHogRank {
    /// Runtime.
    pub rt: MpiRt,
    /// Program counter.
    pub pc: u8,
    /// MiB of random data to allocate.
    pub mb: u64,
    /// Collective scratch.
    pub coll: CollOp,
}
simkit::impl_snap!(struct MemHogRank { rt, pc, mb, coll });

impl Program for MemHogRank {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        loop {
            match self.pc {
                0 => {
                    if !self.rt.init(k) {
                        return Step::Sleep(Nanos::from_millis(1));
                    }
                    if self.mb > 0 {
                        k.mmap_synthetic(
                            "random-data",
                            self.mb << 20,
                            0xfeed ^ self.rt.rank as u64,
                            FillProfile::Random,
                        );
                    }
                    self.coll = CollOp::begin(&mut self.rt);
                    self.pc = 1;
                }
                1 => {
                    // Barrier so every rank has its memory before anyone
                    // reports ready.
                    if !self.coll.barrier(&mut self.rt, k) {
                        return Step::Block;
                    }
                    self.pc = 2;
                }
                2 => {
                    // Idle: the harness checkpoints us here.
                    return Step::Sleep(Nanos::from_millis(20));
                }
                _ => unreachable!(),
            }
        }
    }
    fn tag(&self) -> &'static str {
        "memhog-rank"
    }
    fn save(&self) -> Vec<u8> {
        self.to_snap_bytes()
    }
}

/// Scratch buffer the hog rewrites on every wake.
const SCRATCH_LEN: usize = 64 << 10;

/// A mostly-idle desktop process for the incremental-checkpoint bench: it
/// materializes `mb` MiB of real (non-synthetic) ballast once at startup,
/// then rewrites a single 64 KiB scratch buffer on every wake and reads one
/// word of its ballast, a different 4 MiB region each time. From generation
/// 2 on the dirty set is just the scratch region, so the incremental writer
/// aliases the ballast into the previous generation's chunks while a full
/// capture re-reads and re-compresses every byte — and a restore of such a
/// generation fills the ballast in behind the process, which waits only
/// when it reads a region that has not landed yet.
pub struct IdleHog {
    /// Program counter.
    pub pc: u8,
    /// MiB of real ballast, written once at startup.
    pub mb: u64,
    /// Scratch region id (valid once `pc > 0`).
    pub scratch: u64,
    /// Wake counter, stamped into the scratch buffer so its content (and
    /// thus its chunk identity) changes every generation.
    pub tick: u64,
}
simkit::impl_snap!(struct IdleHog { pc, mb, scratch, tick });

impl IdleHog {
    /// A hog with `mb` MiB of ballast.
    pub fn new(mb: u64) -> Self {
        IdleHog {
            pc: 0,
            mb,
            scratch: 0,
            tick: 0,
        }
    }
}

impl Program for IdleHog {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        if self.pc == 0 {
            // One region per 4 MiB gives the page-granular dirty bitmap
            // region granularity to work with. The content is mildly
            // varied (distinct per region and per block) so chunks don't
            // collapse into one dedup hit, but stays compressible.
            let mut left = self.mb;
            let mut i = 0u64;
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            while left > 0 {
                let mb = left.min(4);
                let id = k.mmap_anon(&format!("ballast{i}"), (mb << 20) as usize);
                let mut buf = vec![0u8; (mb << 20) as usize];
                for (j, b) in buf.iter_mut().enumerate() {
                    if j % 512 == 0 {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407 ^ i);
                    }
                    *b = (x >> 56) as u8;
                }
                k.mem_write(id, 0, &buf);
                left -= mb;
                i += 1;
            }
            self.scratch = k.mmap_anon("scratch", SCRATCH_LEN) as u64;
            self.pc = 1;
        }
        self.tick += 1;
        let stamp = self.tick.to_le_bytes();
        let mut buf = vec![0u8; SCRATCH_LEN];
        for (j, b) in buf.iter_mut().enumerate() {
            *b = stamp[j % 8] ^ j as u8;
        }
        k.mem_write(self.scratch as usize, 0, &buf);
        // The ballast regions were mapped one after another right before
        // the scratch region, so their ids are the `n` below it.
        let n = self.mb.div_ceil(4);
        if n > 0 {
            let ballast = self.scratch - n + self.tick % n;
            k.mem_read(ballast as usize, 0, 8);
        }
        Step::Sleep(Nanos::from_millis(10))
    }
    fn tag(&self) -> &'static str {
        "idlehog"
    }
    fn save(&self) -> Vec<u8> {
        self.to_snap_bytes()
    }
}

/// Factory allocating `mb_per_rank` MiB per rank.
pub fn memhog_factory(mb_per_rank: u64) -> RankFactory {
    Rc::new(move |rank, size, hosts, port| {
        Box::new(MemHogRank {
            rt: MpiRt::new(rank, size, port, hosts),
            pc: 0,
            mb: mb_per_rank,
            coll: CollOp::default(),
        }) as Box<dyn Program>
    })
}

/// Register loaders.
pub fn register(reg: &mut Registry) {
    reg.register_snap::<MemHogRank>("memhog-rank");
    reg.register_snap::<IdleHog>("idlehog");
}
