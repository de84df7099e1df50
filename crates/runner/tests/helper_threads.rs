//! A runner that occupies every hardware thread leaves none for reference
//! helper threads. Its own test binary, so no other test's helpers or
//! claims share the process-wide counts.

use hllc_runner::{default_threads, run_indexed};
use hllc_trace::{live_helpers, mixes};

#[test]
fn no_helper_starts_inside_a_runner_using_every_thread() {
    let threads = default_threads().max(2);
    let helpers = run_indexed(vec![0u64; 2 * threads], threads, |i, _| {
        let mut streams = mixes()[i % 10].instantiate(0.05, i as u64);
        for (core, s) in streams.iter_mut().enumerate() {
            for _ in 0..2_000 {
                s.next_access(core as u8);
            }
        }
        live_helpers()
    });
    assert!(helpers.iter().all(|&h| h == 0), "helpers seen: {helpers:?}");
    assert_eq!(live_helpers(), 0);
}
