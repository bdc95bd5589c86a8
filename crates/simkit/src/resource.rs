//! Analytic hardware resources.
//!
//! The cluster model charges virtual time for bulk data movement (disk
//! writes, NIC transfers, compression) through these small queueing models
//! rather than simulating individual packets or blocks. Two shapes cover
//! everything the DMTCP evaluation needs:
//!
//! * [`Pipe`] — a FIFO bandwidth resource (a disk, a NIC, an NFS server).
//!   Requests are served in arrival order at a fixed byte rate; a request
//!   arriving while the pipe is busy queues behind the in-flight bytes.
//!   FIFO aggregation gives the same *completion* times as processor sharing
//!   for the batch transfers that dominate checkpointing, while staying O(1).
//! * [`CorePool`] — `n` identical servers (CPU cores). A job occupies the
//!   earliest-free core for its duration; used to charge gzip/gunzip time
//!   with per-core parallelism, matching the paper's observation that each
//!   process compresses its own image concurrently.
//!
//! [`CachedDisk`] composes two `Pipe`s to model Linux's page cache: writes
//! stream at memory speed until the cache fills, then degrade to platter
//! speed — the effect §5.2 of the paper sees in Figure 6 ("the implied
//! bandwidth is well beyond the typical 100 MB/s of disk").

use crate::time::Nanos;

/// A FIFO bandwidth resource.
#[derive(Debug, Clone)]
pub struct Pipe {
    bytes_per_sec: f64,
    /// Per-request fixed overhead (seek, RPC round-trip, syscall).
    pub overhead: Nanos,
    free_at: Nanos,
    total_bytes: u64,
}

impl Pipe {
    /// A pipe with the given sustained rate in bytes/second.
    pub fn new(bytes_per_sec: f64) -> Self {
        assert!(bytes_per_sec > 0.0);
        Pipe {
            bytes_per_sec,
            overhead: Nanos::ZERO,
            free_at: Nanos::ZERO,
            total_bytes: 0,
        }
    }

    /// A pipe with a fixed per-request overhead (e.g. NFS round trip).
    pub fn with_overhead(bytes_per_sec: f64, overhead: Nanos) -> Self {
        let mut p = Pipe::new(bytes_per_sec);
        p.overhead = overhead;
        p
    }

    /// The configured rate.
    pub fn rate(&self) -> f64 {
        self.bytes_per_sec
    }

    /// Enqueue a transfer of `bytes` arriving at `now`; returns its
    /// completion time.
    pub fn transfer(&mut self, now: Nanos, bytes: u64) -> Nanos {
        let start = self.free_at.max(now);
        let dur = Nanos::from_secs_f64(bytes as f64 / self.bytes_per_sec);
        let end = start + self.overhead + dur;
        self.free_at = end;
        self.total_bytes += bytes;
        end
    }

    /// When the pipe next becomes idle.
    pub fn free_at(&self) -> Nanos {
        self.free_at
    }

    /// Total bytes ever pushed through (for reports).
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Forget all queued work (used when a world is torn down and rebuilt
    /// for restart experiments).
    pub fn reset(&mut self) {
        self.free_at = Nanos::ZERO;
        self.total_bytes = 0;
    }
}

/// `n` identical servers; a job runs on the earliest-free one.
#[derive(Debug, Clone)]
pub struct CorePool {
    free_at: Vec<Nanos>,
}

impl CorePool {
    /// A pool of `cores` identical cores.
    pub fn new(cores: usize) -> Self {
        assert!(cores > 0);
        CorePool {
            free_at: vec![Nanos::ZERO; cores],
        }
    }

    /// Number of cores in the pool.
    pub fn cores(&self) -> usize {
        self.free_at.len()
    }

    /// Run a job of length `dur` arriving at `now`; returns `(start, end)`.
    pub fn run(&mut self, now: Nanos, dur: Nanos) -> (Nanos, Nanos) {
        // earliest-free core; ties resolve to the lowest index for determinism
        let (idx, _) = self
            .free_at
            .iter()
            .enumerate()
            .min_by_key(|(i, t)| (**t, *i))
            .expect("pool is non-empty");
        let start = self.free_at[idx].max(now);
        let end = start + dur;
        self.free_at[idx] = end;
        (start, end)
    }

    /// Forget all queued work.
    pub fn reset(&mut self) {
        self.free_at.fill(Nanos::ZERO);
    }
}

/// A disk behind a write-back page cache.
///
/// Writes complete at `cache` speed while the modelled dirty-byte window has
/// room, and at `platter` speed beyond it. `sync()` returns the extra time
/// needed to flush everything to the platter — the paper's optional
/// post-checkpoint `sync` (measured there at +0.79 s for ParGeant4).
#[derive(Debug, Clone)]
pub struct CachedDisk {
    /// Fast path: memcpy into the page cache.
    pub cache: Pipe,
    /// Slow path: the physical device.
    pub platter: Pipe,
    /// How many dirty bytes the cache window absorbs before writers block.
    pub cache_window: u64,
    /// How long dirty pages sit before background writeback starts (the
    /// kernel's dirty_expire timer; makes an explicit `sync` meaningful).
    pub writeback_delay: Nanos,
    dirty: u64,
}

impl CachedDisk {
    /// A cached disk with the given cache rate, platter rate, and window.
    pub fn new(cache_bps: f64, platter_bps: f64, cache_window: u64) -> Self {
        CachedDisk {
            cache: Pipe::new(cache_bps),
            platter: Pipe::new(platter_bps),
            cache_window,
            writeback_delay: Nanos::from_secs(2),
            dirty: 0,
        }
    }

    /// Write `bytes` at `now`; returns the time the write *call* completes
    /// (page-cache semantics: before the data is durable).
    pub fn write(&mut self, now: Nanos, bytes: u64) -> Nanos {
        // Bytes that fit in the remaining cache window go at cache speed;
        // the remainder is throttled to platter speed, which is what the
        // kernel's dirty-ratio writeback does to a large sequential writer.
        let fast = bytes.min(self.cache_window.saturating_sub(self.dirty));
        let slow = bytes - fast;
        self.dirty = (self.dirty + bytes).min(self.cache_window);
        let mut end = self.cache.transfer(now, fast);
        if slow > 0 {
            end = self.platter.transfer(end, slow);
        } else {
            // Dirty pages drain to the platter in the background, after
            // the writeback timer expires.
            self.platter.transfer(now + self.writeback_delay, bytes);
        }
        end
    }

    /// Read `bytes` at `now` (served at cache speed: restart images were
    /// just written and are still resident, matching the paper's restart
    /// observations).
    pub fn read(&mut self, now: Nanos, bytes: u64) -> Nanos {
        self.cache.transfer(now, bytes)
    }

    /// Block until all dirty bytes are durable; returns the completion time.
    pub fn sync(&mut self, now: Nanos) -> Nanos {
        self.dirty = 0;
        self.platter.free_at().max(now)
    }

    /// Forget all queued work and dirty state.
    pub fn reset(&mut self) {
        self.cache.reset();
        self.platter.reset();
        self.dirty = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1 << 20;

    #[test]
    fn pipe_serves_back_to_back() {
        let mut p = Pipe::new(100.0 * MB as f64); // 100 MiB/s
        let t1 = p.transfer(Nanos::ZERO, 100 * MB);
        assert!((t1.as_secs_f64() - 1.0).abs() < 1e-6);
        // Second transfer queues behind the first even though it "arrives" at 0.
        let t2 = p.transfer(Nanos::ZERO, 50 * MB);
        assert!((t2.as_secs_f64() - 1.5).abs() < 1e-6);
        assert_eq!(p.total_bytes(), 150 * MB);
    }

    #[test]
    fn pipe_idle_gap_is_not_credited() {
        let mut p = Pipe::new(MB as f64);
        p.transfer(Nanos::ZERO, MB); // busy until 1s
        let t = p.transfer(Nanos::from_secs(10), MB); // arrives long after idle
        assert!((t.as_secs_f64() - 11.0).abs() < 1e-6);
    }

    #[test]
    fn pipe_overhead_applies_per_request() {
        let mut p = Pipe::with_overhead(MB as f64, Nanos::from_millis(10));
        let t1 = p.transfer(Nanos::ZERO, MB);
        assert!((t1.as_secs_f64() - 1.010).abs() < 1e-6);
        let t2 = p.transfer(Nanos::ZERO, MB);
        assert!((t2.as_secs_f64() - 2.020).abs() < 1e-6);
    }

    #[test]
    fn core_pool_runs_jobs_in_parallel_up_to_width() {
        let mut pool = CorePool::new(2);
        let d = Nanos::from_secs(1);
        let (_, e1) = pool.run(Nanos::ZERO, d);
        let (_, e2) = pool.run(Nanos::ZERO, d);
        let (_, e3) = pool.run(Nanos::ZERO, d);
        assert_eq!(e1, Nanos::from_secs(1));
        assert_eq!(e2, Nanos::from_secs(1));
        assert_eq!(e3, Nanos::from_secs(2)); // third job waits for a core
    }

    #[test]
    fn cached_disk_fast_until_window_exhausted() {
        // 1000 MB/s cache, 100 MB/s platter, 100 MB window.
        let mut d = CachedDisk::new(1000.0 * MB as f64, 100.0 * MB as f64, 100 * MB);
        let t1 = d.write(Nanos::ZERO, 100 * MB);
        assert!((t1.as_secs_f64() - 0.1).abs() < 1e-6); // all cache-speed
        let t2 = d.write(t1, 100 * MB);
        // window is full: second write runs at platter speed, behind the
        // (delayed) background flush of the first 100 MB.
        assert!(t2.as_secs_f64() > 1.9, "got {}", t2.as_secs_f64());
    }

    #[test]
    fn cached_disk_sync_waits_for_platter() {
        let mut d = CachedDisk::new(1000.0 * MB as f64, 100.0 * MB as f64, 1000 * MB);
        let t1 = d.write(Nanos::ZERO, 100 * MB);
        assert!(t1.as_secs_f64() < 0.2);
        // Writeback starts after the dirty timer; sync waits it out.
        let s = d.sync(t1);
        assert!(
            (s.as_secs_f64() - 3.0).abs() < 0.05,
            "got {}",
            s.as_secs_f64()
        );
    }

    #[test]
    fn sync_long_after_the_write_is_free() {
        let mut d = CachedDisk::new(1000.0 * MB as f64, 100.0 * MB as f64, 1000 * MB);
        let t1 = d.write(Nanos::ZERO, 100 * MB);
        let s = d.sync(t1 + Nanos::from_secs(30));
        assert_eq!(s, t1 + Nanos::from_secs(30), "writeback already finished");
    }
}
