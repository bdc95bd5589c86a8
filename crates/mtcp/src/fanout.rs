//! Host fan-out: the one place the simulator runs work on more than one host
//! core.
//!
//! A capture packs (CRC-32 + szip) every region it does not alias, and a
//! verify or restore unpacks and CRC-checks every stored payload. Each of
//! those jobs is a pure function of bytes the calling thread lends it, and
//! szip blocks are independent, so the jobs of one call can run side by side
//! — the way each process of the paper pipes its image through its own
//! `gzip` — and the results, collected back in job order, are exactly the
//! bytes and the verdicts a sequential loop gives. Nothing that touches the
//! world crosses a thread (`World`, `Rc` and `RefCell` are not `Sync`, so the
//! compiler refuses to), and the virtual clock never sees the host's cores.
//!
//! Threads only pay when there is work to split: [`map`] fans out only when
//! at least two jobs are "heavy" — the caller says which — and only then asks
//! the OS how many cores it may use, because that query reads cgroup files
//! and costs more than a small capture.

use std::panic::resume_unwind;
use std::sync::{Mutex, PoisonError};
use std::thread;

/// `f` over `jobs`, results in job order, plus how many jobs ran off the
/// calling thread. Runs on every core the process may use when at least two
/// jobs are `heavy`, on the calling thread otherwise.
///
/// A job is moved to the thread that runs it, so a buffer the caller
/// allocated for a result travels with it: memory that outlives the call
/// then comes from the calling thread's allocator arena, not a worker's.
pub(crate) fn map<J, R, F>(jobs: Vec<J>, heavy: impl Fn(&J) -> bool, f: F) -> (Vec<R>, usize)
where
    J: Send,
    R: Send,
    F: Fn(J) -> R + Sync,
{
    if jobs.iter().filter(|j| heavy(j)).nth(1).is_none() {
        return (jobs.into_iter().map(f).collect(), 0);
    }
    let cores = thread::available_parallelism().map_or(1, |n| n.get());
    map_on(cores, jobs, &f)
}

/// `f` over `jobs` on up to `workers` spawned threads while the calling one
/// waits: each worker claims the next job until none is left, so a thread
/// the OS refuses to spawn only leaves more jobs to the others, and when it
/// spawns none the calling thread runs them all. A job that panics re-raises
/// its own payload on the calling thread.
pub(crate) fn map_on<J, R, F>(workers: usize, jobs: Vec<J>, f: &F) -> (Vec<R>, usize)
where
    J: Send,
    R: Send,
    F: Fn(J) -> R + Sync,
{
    let workers = workers.min(jobs.len());
    if workers <= 1 {
        return (jobs.into_iter().map(f).collect(), 0);
    }
    let queue = Mutex::new(jobs.into_iter().enumerate());
    // The lock is held to claim a job, never while one runs, so no job's
    // panic can poison it.
    let claim = || {
        let mut queue = queue.lock().unwrap_or_else(PoisonError::into_inner);
        queue.next()
    };
    let worker = || {
        let mut done = Vec::new();
        while let Some((i, job)) = claim() {
            done.push((i, f(job)));
        }
        done
    };
    let mut done = thread::scope(|s| {
        let spawned: Vec<_> = (0..workers)
            .filter_map(|_| thread::Builder::new().spawn_scoped(s, worker).ok())
            .collect();
        let mut done = Vec::new();
        for handle in spawned {
            match handle.join() {
                Ok(theirs) => done.extend(theirs),
                Err(payload) => resume_unwind(payload),
            }
        }
        done
    });
    let off_thread = done.len();
    done.extend(worker());
    // Every index below the job count was claimed exactly once.
    done.sort_unstable_by_key(|&(i, _)| i);
    (done.into_iter().map(|(_, r)| r).collect(), off_thread)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::DetRng;
    use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};

    fn job(x: u64) -> (u64, Vec<u8>) {
        let mut rng = DetRng::seed_from_u64(x);
        let mut bytes = vec![0u8; rng.below(64) as usize];
        rng.fill_bytes(&mut bytes);
        (x.wrapping_mul(0x9e37_79b9_7f4a_7c15), bytes)
    }

    #[test]
    fn results_come_back_in_job_order_for_any_worker_count() {
        let mut rng = DetRng::seed_from_u64(0xfa_2028);
        // 0 jobs, 1 job, fewer jobs than workers, more jobs than workers.
        for len in [0usize, 1, 2, 3, 5, 7, 8, 9, 31, 200] {
            let jobs: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
            let want: Vec<_> = jobs.iter().copied().map(job).collect();
            for workers in 1..=8 {
                let (got, off_thread) = map_on(workers, jobs.clone(), &job);
                assert_eq!(got, want, "{len} jobs on {workers} workers");
                // One worker or one job: no thread is worth spawning.
                let spawned = workers > 1 && len > 1;
                let want_off = if spawned { len } else { 0 };
                assert_eq!(off_thread, want_off, "{len} jobs on {workers} workers");
            }
        }
    }

    #[test]
    fn fans_out_only_for_two_heavy_jobs() {
        let jobs: Vec<u64> = (0..16).collect();
        let want: Vec<_> = jobs.iter().copied().map(job).collect();
        let (got, off_thread) = map(jobs.clone(), |&j| j == 3, job);
        assert_eq!(got, want);
        assert_eq!(off_thread, 0, "one heavy job stays on the calling thread");
        let (got, _) = map(jobs, |&j| j % 5 == 0, job);
        assert_eq!(got, want);
    }

    #[derive(Debug, PartialEq)]
    struct Boom(u64);

    #[test]
    fn a_panicking_job_re_raises_its_own_payload() {
        let jobs: Vec<u64> = (0..40).collect();
        for workers in 1..=8 {
            for bad in [0u64, 17, 39] {
                let run = || {
                    map_on(workers, jobs.clone(), &|j: u64| {
                        if j == bad {
                            panic_any(Boom(j));
                        }
                        j
                    })
                };
                let payload = catch_unwind(AssertUnwindSafe(run)).expect_err("job panicked");
                let boom = payload.downcast::<Boom>().map(|b| *b);
                assert_eq!(boom.ok(), Some(Boom(bad)), "{workers} workers, job {bad}");
            }
        }
    }
}
