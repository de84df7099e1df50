//! Process-wide accounting of busy hardware threads.
//!
//! A reference helper thread ([`crate::AppStream`]) pays off only on a
//! hardware thread nobody else wants: next to busy workers it slows them
//! down (DESIGN §10.9). The rule is one count for the whole process. The
//! thread that runs a simulation is always busy; every other busy thread
//! holds a [`ThreadClaim`] — a job runner's workers beyond the first, and
//! each live helper. A helper may start only while the count leaves one
//! of `available_parallelism()` hardware threads free.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Threads claimed beyond the simulating one, process-wide.
static CLAIMED: AtomicUsize = AtomicUsize::new(0);
/// Helper threads claimed and not yet joined.
static HELPERS: AtomicUsize = AtomicUsize::new(0);

/// A claim on `n` hardware threads, released when dropped.
#[derive(Debug)]
#[must_use = "the threads are released when the claim drops"]
pub struct ThreadClaim(usize);

impl Drop for ThreadClaim {
    fn drop(&mut self) {
        CLAIMED.fetch_sub(self.0, Ordering::SeqCst);
    }
}

/// Marks `n` more hardware threads busy until the claim drops, whether or
/// not any are free. A job runner claims its workers beyond the first
/// while they run, so no helper competes with them.
pub fn claim_threads(n: usize) -> ThreadClaim {
    CLAIMED.fetch_add(n, Ordering::SeqCst);
    ThreadClaim(n)
}

/// The host's hardware threads as the scheduler allows this process
/// (affinity masks and cgroup quotas included), read once.
pub(crate) fn available() -> usize {
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    *AVAILABLE.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Reference helper threads claimed and not yet joined in this process.
pub fn live_helpers() -> usize {
    HELPERS.load(Ordering::SeqCst)
}

/// The hardware thread a helper runs on, counted in [`live_helpers`] until
/// dropped.
#[derive(Debug)]
pub(crate) struct HelperClaim {
    _thread: ThreadClaim,
}

impl HelperClaim {
    /// Claims a hardware thread for a helper if one is free, or regardless
    /// when `force`d.
    pub(crate) fn new(force: bool) -> Option<Self> {
        let available = available();
        CLAIMED
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |c| {
                // The simulating thread, `c` claimed ones and this helper.
                (force || c + 2 <= available).then_some(c + 1)
            })
            .ok()?;
        HELPERS.fetch_add(1, Ordering::SeqCst);
        Some(HelperClaim {
            _thread: ThreadClaim(1),
        })
    }
}

impl Drop for HelperClaim {
    fn drop(&mut self) {
        HELPERS.fetch_sub(1, Ordering::SeqCst);
    }
}
