//! The job-queue executor: scoped worker threads over an atomic cursor.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

/// Worker count to use when the caller does not care: the machine's
/// available parallelism, or 1 when that cannot be determined.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `run(index, job)` for every job and returns the results **in job
/// order**, regardless of `threads`.
///
/// With `threads <= 1` the jobs run serially on the calling thread — the
/// reference execution. With more, scoped workers pull indices from a shared
/// atomic cursor (so long jobs do not convoy short ones) and send
/// `(index, result)` pairs back over a channel; the merge step then places
/// each result at its index. While they run, the workers beyond the first
/// are claimed ([`hllc_trace::claim_threads`]), so a job's reference
/// streams start a helper thread only on a hardware thread the workers
/// leave free. Because every job derives all of its randomness
/// from its index (see [`crate::job_seed`]) and shares no state with its
/// neighbours, the returned vector is identical for every thread count.
///
/// # Panics
///
/// Propagates the first panicking job (the scope joins all workers first).
#[expect(
    clippy::expect_used,
    reason = "each index is claimed once and reported unless its job panicked, and the scope \
              re-raises that panic before any result is read"
)]
pub fn run_indexed<T, R, F>(jobs: Vec<T>, threads: usize, run: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = jobs.len();
    if threads <= 1 || n <= 1 {
        return jobs
            .into_iter()
            .enumerate()
            .map(|(i, job)| run(i, job))
            .collect();
    }

    let slots: Vec<Mutex<Option<T>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    let workers = threads.min(n);
    let busy = hllc_trace::claim_threads(workers - 1);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let (slots, cursor, run) = (&slots, &cursor, &run);
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // The cursor hands out each index once, so the slot is full.
                let Some(job) = slots[i].lock().ok().and_then(|mut slot| slot.take()) else {
                    break;
                };
                if tx.send((i, run(i, job))).is_err() {
                    break;
                }
            });
        }
    });
    drop((tx, busy));

    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in rx {
        out[i] = Some(r);
    }
    out.into_iter()
        .map(|r| r.expect("worker exited without reporting"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_job_order() {
        let jobs: Vec<usize> = (0..100).collect();
        let out = run_indexed(jobs, 8, |i, job| {
            assert_eq!(i, job);
            // Stagger so completion order differs from submission order.
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            job * 3
        });
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let work = |i: usize, seed: u64| -> u64 {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ i as u64);
            (0..100).map(|_| rng.gen_range(0u64..1000)).sum()
        };
        let serial = run_indexed(vec![7u64; 32], 1, work);
        let parallel = run_indexed(vec![7u64; 32], 4, work);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn handles_more_threads_than_jobs() {
        let out = run_indexed(vec![1, 2, 3], 16, |_, j| j + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn handles_empty_job_list() {
        let out: Vec<u32> = run_indexed(Vec::<u32>::new(), 4, |_, j| j);
        assert!(out.is_empty());
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
