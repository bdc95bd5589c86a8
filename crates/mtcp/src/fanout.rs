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
/// `f` also gets one of `states`, the scratch a worker keeps from job to
/// job and the caller keeps from call to call: each thread that runs jobs
/// owns one state while it does, and `states` grows to one per thread.
///
/// A job is moved to the thread that runs it, so a buffer the caller
/// allocated for a result travels with it: memory that outlives the call
/// then comes from the calling thread's allocator arena, not a worker's.
pub(crate) fn map<J, R, S, F>(
    jobs: Vec<J>,
    heavy: impl Fn(&J) -> bool,
    states: &mut Vec<S>,
    f: F,
) -> (Vec<R>, usize)
where
    J: Send,
    R: Send,
    S: Default + Send,
    F: Fn(&mut S, J) -> R + Sync,
{
    let workers = if jobs.iter().filter(|j| heavy(j)).nth(1).is_none() {
        1
    } else {
        thread::available_parallelism().map_or(1, |n| n.get())
    };
    map_on(workers, jobs, states, &f)
}

/// `f` over `jobs` on up to `workers` spawned threads while the calling one
/// waits: each worker claims the next job until none is left, so a thread
/// the OS refuses to spawn only leaves more jobs to the others, and when it
/// spawns none the calling thread runs them all with the first state. A job
/// that panics re-raises its own payload on the calling thread.
pub(crate) fn map_on<J, R, S, F>(
    workers: usize,
    jobs: Vec<J>,
    states: &mut Vec<S>,
    f: &F,
) -> (Vec<R>, usize)
where
    J: Send,
    R: Send,
    S: Default + Send,
    F: Fn(&mut S, J) -> R + Sync,
{
    let workers = workers.min(jobs.len()).max(1);
    if states.len() < workers {
        states.resize_with(workers, S::default);
    }
    if workers == 1 {
        let state = &mut states[0];
        return (jobs.into_iter().map(|job| f(state, job)).collect(), 0);
    }
    let queue = Mutex::new(jobs.into_iter().enumerate());
    // The lock is held to claim a job, never while one runs, so no job's
    // panic can poison it.
    let claim = || {
        let mut queue = queue.lock().unwrap_or_else(PoisonError::into_inner);
        queue.next()
    };
    let worker = |state: &mut S| {
        let mut done = Vec::new();
        while let Some((i, job)) = claim() {
            done.push((i, f(state, job)));
        }
        done
    };
    let mut done = thread::scope(|s| {
        let spawned: Vec<_> = states[..workers]
            .iter_mut()
            .filter_map(|state| {
                thread::Builder::new()
                    .spawn_scoped(s, move || worker(state))
                    .ok()
            })
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
    done.extend(worker(&mut states[0]));
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

    fn stateless(_: &mut (), x: u64) -> (u64, Vec<u8>) {
        job(x)
    }

    #[test]
    fn results_come_back_in_job_order_for_any_worker_count() {
        let mut rng = DetRng::seed_from_u64(0xfa_2028);
        // 0 jobs, 1 job, fewer jobs than workers, more jobs than workers.
        for len in [0usize, 1, 2, 3, 5, 7, 8, 9, 31, 200] {
            let jobs: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
            let want: Vec<_> = jobs.iter().copied().map(job).collect();
            for workers in 1..=8 {
                let (got, off_thread) = map_on(workers, jobs.clone(), &mut Vec::new(), &stateless);
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
        let (got, off_thread) = map(jobs.clone(), |&j| j == 3, &mut Vec::new(), stateless);
        assert_eq!(got, want);
        assert_eq!(off_thread, 0, "one heavy job stays on the calling thread");
        let (got, _) = map(jobs, |&j| j % 5 == 0, &mut Vec::new(), stateless);
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
                    map_on(
                        workers,
                        jobs.clone(),
                        &mut Vec::new(),
                        &|_: &mut (), j: u64| {
                            if j == bad {
                                panic_any(Boom(j));
                            }
                            j
                        },
                    )
                };
                let payload = catch_unwind(AssertUnwindSafe(run)).expect_err("job panicked");
                let boom = payload.downcast::<Boom>().map(|b| *b);
                assert_eq!(boom.ok(), Some(Boom(bad)), "{workers} workers, job {bad}");
            }
        }
    }

    #[test]
    fn each_state_is_owned_by_one_thread_at_a_time() {
        use std::sync::Barrier;
        use std::thread::ThreadId;
        for workers in 1..=8usize {
            // Each of the first `workers` jobs of the first round waits
            // until all of them are claimed, so every worker thread runs
            // at once.
            let barrier = Barrier::new(workers);
            let jobs: Vec<u64> = (0..40).collect();
            let want: Vec<u64> = jobs.iter().map(|j| j * 3).collect();
            let mut states: Vec<Vec<(usize, ThreadId)>> = Vec::new();
            for round in 0..2 {
                let (got, _) = map_on(workers, jobs.clone(), &mut states, &|seen, j| {
                    if round == 0 && j < workers as u64 {
                        barrier.wait();
                    }
                    seen.push((round, thread::current().id()));
                    j * 3
                });
                assert_eq!(got, want, "{workers} workers, round {round}");
                assert_eq!(states.len(), workers, "one state per worker");
            }
            let ran = states.iter().map(Vec::len).sum::<usize>();
            assert_eq!(ran, 2 * jobs.len(), "{workers} workers: every job ran once");
            // Within a call, all of a state's jobs ran on one thread; in the
            // first round each state ran on a thread of its own.
            let mut owners = Vec::new();
            for seen in &states {
                for round in 0..2 {
                    let mut threads = seen.iter().filter(|(r, _)| *r == round).map(|(_, t)| t);
                    if let Some(first) = threads.next() {
                        assert!(threads.all(|t| t == first), "{workers} workers");
                        if round == 0 {
                            owners.push(format!("{first:?}"));
                        }
                    }
                }
            }
            owners.sort();
            owners.dedup();
            assert_eq!(
                owners.len(),
                workers,
                "{workers} workers, one thread per state"
            );
        }
    }

    #[test]
    fn reused_scratch_packs_the_bytes_a_fresh_one_does() {
        let mut rng = DetRng::seed_from_u64(0x5c_2046);
        let mut random = vec![0u8; 3 * szip::stream::BLOCK + 17];
        rng.fill_bytes(&mut random);
        let mut stamp = vec![0u8; szip::stream::BLOCK + 1024];
        stamp[..16].copy_from_slice(b"stamp 0123456789");
        let text: Vec<u8> = b"checkpoint the computation, restart the computation. "
            .iter()
            .copied()
            .cycle()
            .take(2 * szip::stream::BLOCK)
            .collect();
        let bufs = [
            random.clone(),
            vec![0u8; 200_000],
            random[..1024].to_vec(),
            stamp,
            text,
            random,
        ];
        let want: Vec<Vec<u8>> = bufs.iter().map(|b| szip::compress(b)).collect();
        for workers in 1..=4 {
            let mut states: Vec<szip::Scratch> = Vec::new();
            for _ in 0..3 {
                let jobs: Vec<&[u8]> = bufs.iter().map(Vec::as_slice).collect();
                let (got, _) = map_on(workers, jobs, &mut states, &|scratch, bytes| {
                    szip::compress_with(bytes, scratch)
                });
                assert_eq!(got, want, "{workers} workers");
            }
        }
    }
}
