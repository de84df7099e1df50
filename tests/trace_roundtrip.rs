//! The traceio subsystem's headline guarantees, end to end:
//!
//! * recording a live run does not perturb it;
//! * replaying the recording under the recorded policy reproduces every
//!   counter bit-for-bit (`SessionStats` carries the full `HierarchyStats`
//!   and `LlcStats`);
//! * corrupted or truncated files fail with a structured [`TraceError`]
//!   naming the failing chunk, never a panic.

use hybrid_llc::cli::Args;
use hybrid_llc::llc::Policy;
use hybrid_llc::session::{
    live_session, record_session, recording_header, replay_session, stats_json, SessionStats,
};
use hybrid_llc::traceio::{TraceContent, TraceError, TraceReader, TraceWriter};

fn args(policy: Policy, mix: usize) -> Args {
    Args::scaled(policy, mix, 50_000.0, 11)
}

fn record(policy: Policy, mix: usize, cores: usize) -> (Args, SessionStats, Vec<u8>) {
    let a = args(policy, mix);
    let writer = TraceWriter::new(Vec::new(), &recording_header(&a, cores)).unwrap();
    let (live, bytes) = record_session(&a, cores, writer).unwrap();
    (a, live, bytes)
}

fn read(bytes: &[u8]) -> TraceContent {
    TraceReader::new(bytes).unwrap().read_to_end().unwrap()
}

#[test]
fn round_trip_is_bit_identical_across_policies_and_mixes() {
    for policy in [Policy::Bh, Policy::cp_sd()] {
        for mix in [0usize, 3] {
            let a = args(policy, mix);
            let live = live_session(&a);
            let writer = TraceWriter::new(Vec::new(), &recording_header(&a, 4)).unwrap();
            let (recorded, bytes) = record_session(&a, 4, writer).unwrap();
            assert_eq!(
                live,
                recorded,
                "recording perturbed {policy:?} on mix {}",
                mix + 1
            );
            let replayed = replay_session(&read(&bytes), policy, None).unwrap();
            assert_eq!(
                live,
                replayed,
                "replay diverged from the live run for {policy:?} on mix {}",
                mix + 1
            );
            let lhs = serde_json::to_string_pretty(&stats_json("p", "w", &live)).unwrap();
            let rhs = serde_json::to_string_pretty(&stats_json("p", "w", &replayed)).unwrap();
            assert_eq!(lhs, rhs, "stats JSON diverged");
        }
    }
}

#[test]
fn two_core_recordings_round_trip_too() {
    let (a, live, bytes) = record(Policy::cp_sd(), 0, 2);
    let content = read(&bytes);
    assert_eq!(content.header.cores, 2);
    let replayed = replay_session(&content, a.policy(), None).unwrap();
    assert_eq!(live, replayed);
}

#[test]
fn eight_core_systems_record_the_streams_they_run() {
    let mut a = args(Policy::cp_sd(), 0);
    a.spec.system.cores = 8;
    let writer = TraceWriter::new(Vec::new(), &recording_header(&a, 8)).unwrap();
    let (recorded, bytes) = record_session(&a, 8, writer).unwrap();
    let content = read(&bytes);
    assert_eq!(content.header.cores, 4, "a mix has four streams");
    assert_eq!(recorded, live_session(&a));
    assert_eq!(
        recorded,
        replay_session(&content, a.policy(), None).unwrap()
    );
}

#[test]
fn replaying_under_other_policies_reinterleaves_the_same_streams() {
    let (_, _, bytes) = record(Policy::cp_sd(), 0, 4);
    let content = read(&bytes);
    for policy in [Policy::Bh, Policy::BhCp, Policy::LHybrid] {
        let s = replay_session(&content, policy, None).unwrap();
        assert!(s.ipc > 0.0, "{policy:?} idle on replay");
        assert!(s.llc.requests() > 0);
    }
}

#[test]
fn corrupted_chunk_fails_with_a_structured_error() {
    let (_, _, bytes) = record(Policy::Bh, 0, 2);

    // Flip one bit inside the last data-bearing chunk: the reader must
    // report a CRC mismatch for that exact chunk, not panic or misparse.
    let mut corrupt = bytes.clone();
    let n = corrupt.len();
    corrupt[n - 20] ^= 0x10;
    let err = TraceReader::new(&corrupt[..])
        .unwrap()
        .read_to_end()
        .unwrap_err();
    assert!(
        matches!(err, TraceError::CrcMismatch { .. }),
        "expected CrcMismatch, got {err}"
    );
    let text = err.to_string();
    assert!(
        text.contains("chunk"),
        "error does not name the chunk: {text}"
    );
}

#[test]
fn truncated_file_is_reported_as_truncation() {
    let (_, _, bytes) = record(Policy::Bh, 0, 2);
    let cut = &bytes[..bytes.len() - 7];
    let err = TraceReader::new(cut).unwrap().read_to_end().unwrap_err();
    assert!(
        matches!(
            err,
            TraceError::Truncated { .. } | TraceError::CrcMismatch { .. }
        ),
        "expected a structured truncation error, got {err}"
    );
}
