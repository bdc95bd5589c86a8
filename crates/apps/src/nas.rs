//! NAS NPB2.4-style kernels (§5.2: CG under MPICH2; EP, LU, SP, MG, IS, BT
//! under OpenMPI).
//!
//! Each kernel really computes at simulation scale — EP's Gaussian tallies,
//! IS's distributed bucket sort (with its famously zero-heavy bucket
//! arrays, which is what makes IS compress "quickly and efficiently" in
//! §5.4), and CG's conjugate-gradient iterations are the genuine
//! algorithms with verified results. LU, SP, MG and BT share a wavefront/
//! stencil sweep engine with per-kernel communication and compute
//! constants. Every rank then maps synthetic ballast bringing it to its
//! class-C-like footprint, so image sizes and compression behaviour match
//! the paper's scale without the simulation host allocating gigabytes.

use crate::result_path;
use oskit::mem::FillProfile;
use oskit::program::{Program, Registry, Step};
use oskit::{Errno, Kernel};
use simkit::rng::DetRng;
use simkit::{Nanos, Snap};
use simmpi::coll::CollOp;
use simmpi::launch::RankFactory;
use simmpi::rt::MpiRt;
use std::rc::Rc;

/// Which kernel to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NasKernel {
    /// Embarrassingly Parallel.
    Ep,
    /// Integer Sort.
    Is,
    /// Conjugate Gradient.
    Cg,
    /// Multi-Grid (stencil-sweep engine).
    Mg,
    /// Lower-Upper Gauss-Seidel (stencil-sweep engine).
    Lu,
    /// Scalar Pentadiagonal (stencil-sweep engine).
    Sp,
    /// Block Tridiagonal (stencil-sweep engine).
    Bt,
}
simkit::impl_snap!(
    enum NasKernel {
        Ep,
        Is,
        Cg,
        Mg,
        Lu,
        Sp,
        Bt,
    }
);

impl NasKernel {
    /// Kernel name as the figures label it.
    pub fn name(&self) -> &'static str {
        match self {
            NasKernel::Ep => "EP",
            NasKernel::Is => "IS",
            NasKernel::Cg => "CG",
            NasKernel::Mg => "MG",
            NasKernel::Lu => "LU",
            NasKernel::Sp => "SP",
            NasKernel::Bt => "BT",
        }
    }

    /// Per-rank class-C-like resident footprint (MiB of ballast), chosen so
    /// cluster-wide image sizes land in Figure 4(c)'s ranges.
    pub fn ballast_mb(&self) -> u64 {
        match self {
            NasKernel::Ep => 4,
            NasKernel::Is => 120,
            NasKernel::Cg => 60,
            NasKernel::Mg => 55,
            NasKernel::Lu => 70,
            NasKernel::Sp => 180,
            NasKernel::Bt => 200,
        }
    }

    /// Ballast compressibility: IS buckets are overwhelmingly zero
    /// (allocated against overflow, mostly unwritten — §5.4); the float
    /// kernels carry incompressible numeric data.
    pub fn ballast_profile(&self) -> FillProfile {
        match self {
            NasKernel::Is => FillProfile::Mixed {
                zero_pct: 85,
                text_pct: 0,
                code_pct: 0,
            },
            NasKernel::Ep => FillProfile::Mixed {
                zero_pct: 30,
                text_pct: 10,
                code_pct: 30,
            },
            _ => FillProfile::Mixed {
                zero_pct: 8,
                text_pct: 2,
                code_pct: 10,
            },
        }
    }

    /// Stencil-sweep constants `(halo bytes, work units, sweeps/iter)` for
    /// the kernels sharing the sweep engine.
    fn sweep_params(&self) -> (usize, u64, u32) {
        match self {
            NasKernel::Mg => (2048, 1_500_000, 2),
            NasKernel::Lu => (512, 2_500_000, 4),
            NasKernel::Sp => (4096, 3_000_000, 3),
            NasKernel::Bt => (6144, 4_000_000, 3),
            _ => unreachable!("not a sweep kernel"),
        }
    }
}

/// One NAS rank.
pub struct NasRank {
    /// Which kernel.
    pub kernel: NasKernel,
    /// MPI runtime.
    pub rt: MpiRt,
    /// Program counter.
    pub pc: u8,
    /// Iterations completed.
    pub iter: u32,
    /// Iterations requested.
    pub iters: u32,
    /// Kernel state vector (CG vectors / EP tallies / IS keys / sweep line).
    pub v0: Vec<f64>,
    /// Second state vector.
    pub v1: Vec<f64>,
    /// Third state vector.
    pub v2: Vec<f64>,
    /// Integer state (IS keys).
    pub keys: Vec<u64>,
    /// Scalar accumulator.
    pub acc: f64,
    /// Deterministic RNG.
    pub rng: DetRng,
    /// In-flight collective.
    pub coll: CollOp,
    /// Scratch for collectives.
    pub scratch: Vec<f64>,
    /// Scale factor: local problem size.
    pub local_n: u32,
    /// Sub-phase within an iteration (re-entry safety across blocks).
    pub sub: u8,
    /// Stash for values that must survive a block mid-iteration.
    pub saved: Vec<f64>,
}
simkit::impl_snap!(struct NasRank {
    kernel, rt, pc, iter, iters, v0, v1, v2, keys, acc, rng, coll, scratch, local_n,
    sub, saved
});

impl NasRank {
    /// Build rank `rank` of `size` for `kernel`.
    pub fn new(
        kernel: NasKernel,
        rank: u32,
        size: u32,
        hosts: Vec<String>,
        port: u16,
        iters: u32,
        local_n: u32,
    ) -> Self {
        NasRank {
            kernel,
            rt: MpiRt::new(rank, size, port, hosts),
            pc: 0,
            iter: 0,
            iters,
            v0: Vec::new(),
            v1: Vec::new(),
            v2: Vec::new(),
            keys: Vec::new(),
            acc: 0.0,
            rng: DetRng::seed_from_u64(0x4a5 ^ (rank as u64) << 8 ^ kernel.ballast_mb()),
            coll: CollOp::default(),
            scratch: Vec::new(),
            local_n,
            sub: 0,
            saved: Vec::new(),
        }
    }

    fn setup(&mut self, k: &mut Kernel<'_>) {
        let mb = self.kernel.ballast_mb();
        k.mmap_synthetic(
            &format!("{}-arrays", self.kernel.name()),
            mb << 20,
            0xba11a57 ^ self.rt.rank as u64,
            self.kernel.ballast_profile(),
        );
        let n = self.local_n as usize;
        match self.kernel {
            NasKernel::Ep => {
                self.v0 = vec![0.0; 12]; // sx, sy, 10 annulus counts
            }
            NasKernel::Is => {
                self.keys = (0..n).map(|_| self.rng.below(1 << 20)).collect();
            }
            NasKernel::Cg => {
                // Ax = b with A = tridiag(-1, 3, -1) (strictly diagonally
                // dominant ⇒ CG converges); b = 1.
                self.v0 = vec![0.0; n]; // x
                self.v1 = vec![1.0; n]; // r = b
                self.v2 = vec![1.0; n]; // p
                self.acc = n as f64 * self.rt.size as f64; // rTr
            }
            _ => {
                self.v0 = (0..n).map(|i| (i as f64 * 0.01).sin()).collect();
            }
        }
    }

    fn left(&self) -> Option<u32> {
        (self.rt.rank > 0).then(|| self.rt.rank - 1)
    }
    fn right(&self) -> Option<u32> {
        (self.rt.rank + 1 < self.rt.size).then_some(self.rt.rank + 1)
    }
}

const TAG_HALO_L: u32 = 0x0010_0000;
const TAG_HALO_R: u32 = 0x0020_0000;
const TAG_IS_BOUND: u32 = 0x0030_0000;

impl Program for NasRank {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        loop {
            match self.pc {
                0 => {
                    if !self.rt.init(k) {
                        return Step::Sleep(Nanos::from_millis(1));
                    }
                    self.setup(k);
                    self.pc = 1;
                }
                1 => return self.run_kernel(k),
                _ => unreachable!(),
            }
        }
    }
    fn tag(&self) -> &'static str {
        "nas-rank"
    }
    fn save(&self) -> Vec<u8> {
        self.to_snap_bytes()
    }
}

impl NasRank {
    fn finishing(&mut self, k: &mut Kernel<'_>, value: f64) -> Step {
        if !self.rt.drain_out(k) {
            return Step::Block;
        }
        if self.rt.rank == 0 {
            let path = result_path(&format!("nas-{}", self.kernel.name()));
            let fd = k.open(&path, true).expect("result file");
            k.write(fd, format!("{value:.10e}").as_bytes()).expect("w");
        }
        Step::Exit(0)
    }

    fn run_kernel(&mut self, k: &mut Kernel<'_>) -> Step {
        match self.kernel {
            NasKernel::Ep => self.run_ep(k),
            NasKernel::Is => self.run_is(k),
            NasKernel::Cg => self.run_cg(k),
            _ => self.run_sweep(k),
        }
    }

    // ---- EP: Gaussian pairs via Marsaglia polar, annulus tallies ----
    fn run_ep(&mut self, k: &mut Kernel<'_>) -> Step {
        if self.iter < self.iters {
            // One batch of pairs.
            for _ in 0..self.local_n {
                let x = 2.0 * self.rng.unit_f64() - 1.0;
                let y = 2.0 * self.rng.unit_f64() - 1.0;
                let t = x * x + y * y;
                if t <= 1.0 && t > 0.0 {
                    let f = (-2.0 * t.ln() / t).sqrt();
                    let (gx, gy) = (x * f, y * f);
                    self.v0[0] += gx;
                    self.v0[1] += gy;
                    let l = gx.abs().max(gy.abs()) as usize;
                    if l < 10 {
                        self.v0[2 + l] += 1.0;
                    }
                }
            }
            self.iter += 1;
            return Step::Compute(self.local_n as u64 * 60);
        }
        // Final allreduce of the tallies.
        if self.scratch.is_empty() && self.coll == CollOp::default() {
            self.coll = CollOp::begin(&mut self.rt);
        }
        let contrib = self.v0.clone();
        let mut out = std::mem::take(&mut self.scratch);
        let done = self
            .coll
            .allreduce_sum_f64(&mut self.rt, k, &contrib, &mut out);
        self.scratch = out;
        if !done {
            return Step::Block;
        }
        let value = self.scratch[0] + self.scratch[1] + self.scratch[2..].iter().sum::<f64>();
        self.finishing(k, value)
    }

    // ---- IS: distributed bucket sort with boundary verification ----
    //
    // Each *round* bucket-exchanges the keys (alltoall), sorts locally,
    // verifies global order against the left neighbor, and allreduces a
    // permutation-invariant checksum; `iters` rounds run back to back (the
    // benchmark form keeps re-ranking fresh keys).
    fn run_is(&mut self, k: &mut Kernel<'_>) -> Step {
        loop {
            match self.sub {
                // Phase 0: exchange keys so rank r gets range slice r.
                0 => {
                    let size = self.rt.size as u64;
                    if self.v0.is_empty() {
                        self.coll = CollOp::begin(&mut self.rt);
                        self.v0 = vec![0.0]; // marker: collective started
                    }
                    // The alltoall reads the buckets only until it has sent
                    // them; a wake after that needs none.
                    let mut sends: Vec<Vec<u8>> = vec![Vec::new(); size as usize];
                    if !self.coll.sent() {
                        let width = (1u64 << 20) / size + 1;
                        for &key in &self.keys {
                            let dest = (key / width).min(size - 1) as usize;
                            sends[dest].extend_from_slice(&key.to_le_bytes());
                        }
                    }
                    let mut recvs: Vec<Option<Vec<u8>>> = vec![None; size as usize];
                    if !self.coll.alltoall(&mut self.rt, k, &sends, &mut recvs) {
                        return Step::Block;
                    }
                    self.keys = recvs
                        .into_iter()
                        .flat_map(|r| simmpi::bytes_to_u64s(&r.expect("alltoall complete")))
                        .collect();
                    self.keys.sort_unstable();
                    self.sub = 1;
                    // Ranking + local sort cost: keeps the alltoall rate at
                    // benchmark-like intervals rather than a message storm.
                    return Step::Compute(self.local_n as u64 * 2_500);
                }
                // Phase 1: send my max to the right neighbor.
                1 => {
                    if let Some(r) = self.right() {
                        let maxv = self.keys.last().copied().unwrap_or(0);
                        self.rt
                            .send(r, TAG_IS_BOUND + self.iter, &maxv.to_le_bytes());
                    }
                    self.sub = 2;
                }
                // Phase 2: verify against the left neighbor's max.
                2 => {
                    if let Some(l) = self.left() {
                        match self.rt.recv_or_block(k, l, TAG_IS_BOUND + self.iter) {
                            Some(d) => {
                                let left_max = u64::from_le_bytes(d[..8].try_into().expect("8"));
                                if let Some(&my_min) = self.keys.first() {
                                    assert!(left_max <= my_min, "global sort order violated");
                                }
                            }
                            None => return Step::Block,
                        }
                    }
                    self.sub = 3;
                }
                // Phase 3: checksum allreduce (permutation-invariant).
                _ => {
                    if self.v1.is_empty() {
                        self.coll = CollOp::begin(&mut self.rt);
                        self.v1 = vec![0.0];
                    }
                    let local_sum: f64 = self.keys.iter().map(|&x| x as f64).sum();
                    let contrib = [local_sum, self.keys.len() as f64];
                    let mut out = std::mem::take(&mut self.scratch);
                    let done = self
                        .coll
                        .allreduce_sum_f64(&mut self.rt, k, &contrib, &mut out);
                    self.scratch = out;
                    if !done {
                        return Step::Block;
                    }
                    self.iter += 1;
                    if self.iter >= self.iters {
                        let value = self.scratch[0] + self.scratch[1];
                        return self.finishing(k, value);
                    }
                    // Next round: fresh keys, fresh collective markers.
                    let n = self.local_n as usize;
                    self.keys = (0..n).map(|_| self.rng.below(1 << 20)).collect();
                    self.v0 = Vec::new();
                    self.v1 = Vec::new();
                    self.scratch = Vec::new();
                    self.coll = CollOp::default();
                    self.sub = 0;
                }
            }
        }
    }

    // ---- CG on a distributed tridiagonal system ----
    //
    // A = tridiag(-1, 3, -1) over the concatenation of all ranks' slices;
    // b = 1. v0 = x, v1 = r, v2 = p. Each iteration:
    //   halo-exchange boundary p  →  q = A·p  →  allreduce [pᵀq, rᵀr]
    //   →  α update of x, r       →  allreduce new rᵀr  →  β update of p.
    // `sub` tracks the phase so a checkpoint (or socket block) anywhere
    // inside the iteration resumes without duplicating sends.
    fn run_cg(&mut self, k: &mut Kernel<'_>) -> Step {
        loop {
            if self.iter >= self.iters && self.sub == 0 {
                if self.saved.len() != 1 {
                    self.coll = CollOp::begin(&mut self.rt);
                    self.saved = vec![1.0];
                }
                let local: f64 = self.v1.iter().map(|r| r * r).sum();
                let mut out = std::mem::take(&mut self.scratch);
                let done = self
                    .coll
                    .allreduce_sum_f64(&mut self.rt, k, &[local], &mut out);
                self.scratch = out;
                if !done {
                    return Step::Block;
                }
                let value = self.scratch[0].sqrt();
                return self.finishing(k, value);
            }
            let n = self.v2.len();
            match self.sub {
                0 => {
                    if let Some(l) = self.left() {
                        self.rt
                            .send(l, TAG_HALO_L + self.iter, &self.v2[0].to_le_bytes());
                    }
                    if let Some(r) = self.right() {
                        self.rt
                            .send(r, TAG_HALO_R + self.iter, &self.v2[n - 1].to_le_bytes());
                    }
                    self.saved.clear();
                    self.sub = 1;
                }
                1 => {
                    let v = match self.left() {
                        Some(l) => match self.rt.recv_or_block(k, l, TAG_HALO_R + self.iter) {
                            Some(d) => f64::from_le_bytes(d[..8].try_into().expect("8")),
                            None => return Step::Block,
                        },
                        None => 0.0,
                    };
                    self.saved.push(v); // p_left
                    self.sub = 2;
                }
                2 => {
                    let v = match self.right() {
                        Some(r) => match self.rt.recv_or_block(k, r, TAG_HALO_L + self.iter) {
                            Some(d) => f64::from_le_bytes(d[..8].try_into().expect("8")),
                            None => return Step::Block,
                        },
                        None => 0.0,
                    };
                    self.saved.push(v); // p_right
                                        // q is a pure function of (v2, saved); compute the dots.
                    let q = self.q_of_p();
                    let p_dot_q: f64 = self.v2.iter().zip(&q).map(|(p, q)| p * q).sum();
                    let r_dot_r: f64 = self.v1.iter().map(|r| r * r).sum();
                    self.saved.push(p_dot_q);
                    self.saved.push(r_dot_r);
                    self.coll = CollOp::begin(&mut self.rt);
                    self.sub = 3;
                    return Step::Compute(self.local_n as u64 * 120);
                }
                3 => {
                    let contrib = [self.saved[2], self.saved[3]];
                    let mut out = Vec::new();
                    if !self
                        .coll
                        .allreduce_sum_f64(&mut self.rt, k, &contrib, &mut out)
                    {
                        return Step::Block;
                    }
                    let (gpq, grr) = (out[0], out[1]);
                    if grr < 1e-280 || gpq.abs() < 1e-280 {
                        // Converged to machine zero: further α/β updates
                        // would divide 0/0. Restart the solve from x = 0
                        // (benchmark form: every rank sees the same global
                        // dot products, so all reset in lockstep), counting
                        // the iteration.
                        let n = self.v0.len();
                        self.v0 = vec![0.0; n];
                        self.v1 = vec![1.0; n];
                        self.v2 = vec![1.0; n];
                        self.iter += 1;
                        self.sub = 0;
                        self.saved.clear();
                        self.coll = CollOp::default();
                        continue;
                    }
                    let alpha = grr / gpq;
                    let q = self.q_of_p();
                    for (i, qi) in q.iter().enumerate().take(n) {
                        self.v0[i] += alpha * self.v2[i];
                        self.v1[i] -= alpha * qi;
                    }
                    let new_rr_local: f64 = self.v1.iter().map(|r| r * r).sum();
                    self.saved.push(grr);
                    self.saved.push(new_rr_local);
                    self.coll = CollOp::begin(&mut self.rt);
                    self.sub = 4;
                }
                4 => {
                    let contrib = [self.saved[5]];
                    let mut out = Vec::new();
                    if !self
                        .coll
                        .allreduce_sum_f64(&mut self.rt, k, &contrib, &mut out)
                    {
                        return Step::Block;
                    }
                    let grr = self.saved[4];
                    let beta = out[0] / grr;
                    for i in 0..n {
                        self.v2[i] = self.v1[i] + beta * self.v2[i];
                    }
                    self.acc = out[0];
                    self.iter += 1;
                    self.sub = 0;
                    self.saved.clear();
                    self.coll = CollOp::default();
                }
                _ => unreachable!(),
            }
        }
    }

    /// q = A·p given the stashed halo values (saved[0], saved[1]).
    fn q_of_p(&self) -> Vec<f64> {
        let n = self.v2.len();
        (0..n)
            .map(|i| {
                let left = if i == 0 {
                    self.saved[0]
                } else {
                    self.v2[i - 1]
                };
                let right = if i + 1 == n {
                    self.saved[1]
                } else {
                    self.v2[i + 1]
                };
                3.0 * self.v2[i] - left - right
            })
            .collect()
    }

    // ---- Stencil sweep engine (MG/LU/SP/BT) ----
    fn run_sweep(&mut self, k: &mut Kernel<'_>) -> Step {
        let (halo_bytes, work, sweeps) = self.kernel.sweep_params();
        loop {
            if self.iter >= self.iters * sweeps && self.sub == 0 {
                if self.v1.is_empty() {
                    self.coll = CollOp::begin(&mut self.rt);
                    self.v1 = vec![1.0];
                }
                let local: f64 = self.v0.iter().sum();
                let mut out = std::mem::take(&mut self.scratch);
                let done = self
                    .coll
                    .allreduce_sum_f64(&mut self.rt, k, &[local], &mut out);
                self.scratch = out;
                if !done {
                    return Step::Block;
                }
                let value = self.scratch[0];
                return self.finishing(k, value);
            }
            let tag_salt = self.iter;
            match self.sub {
                0 => {
                    let slab: Vec<u8> = {
                        let b0 = self.v0.first().copied().unwrap_or(0.0).to_le_bytes();
                        b0.iter().copied().cycle().take(halo_bytes).collect()
                    };
                    if let Some(l) = self.left() {
                        self.rt.send(l, TAG_HALO_L + tag_salt, &slab);
                    }
                    if let Some(r) = self.right() {
                        self.rt.send(r, TAG_HALO_R + tag_salt, &slab);
                    }
                    self.sub = 1;
                }
                1 => {
                    if let Some(l) = self.left() {
                        match self.rt.recv_or_block(k, l, TAG_HALO_R + tag_salt) {
                            Some(d) => {
                                let x = f64::from_le_bytes(d[..8].try_into().expect("8"));
                                self.v0[0] = 0.5 * (self.v0[0] + x) + 0.01;
                            }
                            None => return Step::Block,
                        }
                    }
                    self.sub = 2;
                }
                2 => {
                    if let Some(r) = self.right() {
                        match self.rt.recv_or_block(k, r, TAG_HALO_L + tag_salt) {
                            Some(d) => {
                                let x = f64::from_le_bytes(d[..8].try_into().expect("8"));
                                let n = self.v0.len();
                                self.v0[n - 1] = 0.5 * (self.v0[n - 1] + x) + 0.01;
                            }
                            None => return Step::Block,
                        }
                    }
                    // Interior relaxation.
                    let n = self.v0.len();
                    for i in 1..n.saturating_sub(1) {
                        self.v0[i] =
                            0.25 * self.v0[i - 1] + 0.5 * self.v0[i] + 0.25 * self.v0[i + 1];
                    }
                    self.iter += 1;
                    self.sub = 0;
                    return Step::Compute(work);
                }
                _ => unreachable!(),
            }
        }
    }
}

/// Rank factory for a kernel.
pub fn nas_factory(kernel: NasKernel, iters: u32, local_n: u32) -> RankFactory {
    Rc::new(move |rank, size, hosts, port| {
        Box::new(NasRank::new(
            kernel, rank, size, hosts, port, iters, local_n,
        )) as Box<dyn Program>
    })
}

/// A "hello world" MPI baseline (the paper's `Baseline[2]`/`Baseline[3]`):
/// ranks wire up, exchange one round of greetings, then idle until killed
/// or checkpointed — measuring the cost of checkpointing the MPI plumbing
/// itself.
pub struct BaselineRank {
    /// Runtime.
    pub rt: MpiRt,
    /// Program counter.
    pub pc: u8,
    /// Collective state.
    pub coll: CollOp,
    /// How long to idle (virtual) before exiting; 0 = forever.
    pub linger_ms: u64,
    /// Elapsed idle.
    pub idled_ms: u64,
}
simkit::impl_snap!(struct BaselineRank { rt, pc, coll, linger_ms, idled_ms });

impl Program for BaselineRank {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        loop {
            match self.pc {
                0 => {
                    if !self.rt.init(k) {
                        return Step::Sleep(Nanos::from_millis(1));
                    }
                    k.mmap_synthetic(
                        "mpi-runtime",
                        2 << 20,
                        99,
                        FillProfile::Mixed {
                            zero_pct: 20,
                            text_pct: 20,
                            code_pct: 40,
                        },
                    );
                    self.coll = CollOp::begin(&mut self.rt);
                    self.pc = 1;
                }
                1 => {
                    if !self.coll.barrier(&mut self.rt, k) {
                        return Step::Block;
                    }
                    self.pc = 2;
                }
                2 => {
                    if self.linger_ms > 0 && self.idled_ms >= self.linger_ms {
                        if !self.rt.drain_out(k) {
                            return Step::Block;
                        }
                        if self.rt.rank == 0 {
                            let fd = k.open(&result_path("baseline"), true).expect("result");
                            k.write(fd, b"hello world").expect("w");
                        }
                        return Step::Exit(0);
                    }
                    self.idled_ms += 10;
                    return Step::Sleep(Nanos::from_millis(10));
                }
                _ => unreachable!(),
            }
        }
    }
    fn tag(&self) -> &'static str {
        "baseline-rank"
    }
    fn save(&self) -> Vec<u8> {
        self.to_snap_bytes()
    }
}

/// Factory for the baseline.
pub fn baseline_factory(linger_ms: u64) -> RankFactory {
    Rc::new(move |rank, size, hosts, port| {
        Box::new(BaselineRank {
            rt: MpiRt::new(rank, size, port, hosts),
            pc: 0,
            coll: CollOp::default(),
            linger_ms,
            idled_ms: 0,
        }) as Box<dyn Program>
    })
}

/// Register NAS program loaders.
pub fn register(reg: &mut Registry) {
    reg.register_snap::<NasRank>("nas-rank");
    reg.register_snap::<BaselineRank>("baseline-rank");
}

#[allow(unused)]
fn _unused(_: Errno) {}
