//! Trace-header version 2: recordings embed the resolved experiment spec,
//! version-1 files from before the spec existed still replay bit-
//! identically, and replaying under a mismatched `--spec` fails with an
//! error naming the divergent geometry.

use hybrid_llc::cli::Args;
use hybrid_llc::llc::Policy;
use hybrid_llc::session::{
    record_session, recording_header, replay_session_sized, stats_json, trace_spec,
};
use hybrid_llc::traceio::{TraceContent, TraceData, TraceReader, TraceWriter};

fn fixture(name: &str) -> String {
    format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn read(bytes: &[u8]) -> TraceContent {
    TraceReader::new(bytes).unwrap().read_to_end().unwrap()
}

/// The v1 fixture was recorded by the pre-spec binary
/// (`hllc record --policy cp_sd --mix 1 --cycles 4e4 --seed 7 --cores 2`);
/// its stats JSON sits next to it. The v2 reader must reconstruct the
/// recording's experiment from the v1 header alone — its system, policy
/// and cycle budget — and reproduce every counter.
#[test]
fn v1_fixture_replays_bit_identically() {
    let bytes = std::fs::read(fixture("v1_mix1.trc")).expect("v1 fixture");
    let content = read(&bytes);
    assert_eq!(content.header.spec_json, None, "fixture must be v1");

    let spec = trace_spec(&content).expect("v1 header implies a valid system");
    assert_eq!(spec.system.llc_sets, 512);
    assert_eq!(spec.workload.seed, 7);
    assert_eq!(spec.policy(), Policy::cp_sd());
    assert_eq!(spec.run.cycles, 4e4);

    let stats = replay_session_sized(
        &content,
        &spec,
        Policy::cp_sd(),
        &mut TraceData::from_content(&content),
    )
    .unwrap();
    // The recording ran 2 streams on a 4-core system, and its binary
    // counted the 2 idle cores: zero instructions, and a quarter of the
    // summed IPC where the replay reports half. Both scalings are by
    // powers of two, so the recorded view is exact.
    let (cores, system_cores) = (usize::from(content.header.cores), spec.system.cores);
    assert_eq!((cores, system_cores), (2, 4));
    assert_eq!(stats.hierarchy.instructions.len(), cores);
    let mut as_recorded = stats.clone();
    as_recorded.hierarchy.instructions.resize(system_cores, 0);
    as_recorded.ipc = stats.ipc * cores as f64 / system_cores as f64;
    let rendered =
        serde_json::to_string_pretty(&stats_json("CP_SD", &content.header.workload, &as_recorded))
            .unwrap()
            + "\n";
    let golden = std::fs::read_to_string(fixture("v1_mix1.stats.json")).unwrap();
    assert_eq!(
        rendered, golden,
        "v1 replay diverged from the recorded stats"
    );
}

/// A crafted v1 header with an absurd set count is refused by validation
/// instead of reaching the LLC constructor's allocation.
#[test]
fn v1_header_with_oversized_sets_is_an_error() {
    let bytes = std::fs::read(fixture("v1_mix1.trc")).expect("v1 fixture");
    let mut content = read(&bytes);
    content.header.sets = 1 << 31;
    let e = trace_spec(&content).unwrap_err();
    assert!(
        e.contains("system.llc_sets") && e.contains("2147483648"),
        "{e}"
    );
}

#[test]
fn v2_recordings_embed_the_resolved_spec() {
    let a = Args::scaled(Policy::cp_sd(), 0, 30_000.0, 3);
    let writer = TraceWriter::new(Vec::new(), &recording_header(&a, 2)).unwrap();
    let (_, bytes) = record_session(&a, 2, writer).unwrap();
    let content = read(&bytes);
    assert!(
        content.header.spec_json.is_some(),
        "v2 header carries the spec"
    );
    let embedded = trace_spec(&content).unwrap();
    assert_eq!(embedded, a.spec);
}

#[test]
fn mismatched_spec_fails_naming_the_geometry() {
    let a = Args::scaled(Policy::cp_sd(), 0, 30_000.0, 3);
    let writer = TraceWriter::new(Vec::new(), &recording_header(&a, 2)).unwrap();
    let (_, bytes) = record_session(&a, 2, writer).unwrap();
    let content = read(&bytes);

    let mut other = a.spec.clone();
    other.system.llc_sets = 1024;
    other.validate().unwrap();
    let e = replay_session_sized(
        &content,
        &other,
        Policy::cp_sd(),
        &mut TraceData::from_content(&content),
    )
    .unwrap_err();
    assert!(e.contains("geometry mismatch"), "{e}");
    assert!(e.contains("llc_sets: spec 1024 vs recording 512"), "{e}");

    // The recording's own spec replays fine.
    replay_session_sized(
        &content,
        &a.spec,
        Policy::cp_sd(),
        &mut TraceData::from_content(&content),
    )
    .unwrap();
}

#[test]
fn v1_replay_rejects_an_explicit_mismatched_spec_too() {
    let bytes = std::fs::read(fixture("v1_mix1.trc")).expect("v1 fixture");
    let content = read(&bytes);
    let mut spec = trace_spec(&content).unwrap();
    spec.system.sram_ways = 3;
    spec.system.nvm_ways = 13;
    spec.validate().unwrap();
    let e = replay_session_sized(
        &content,
        &spec,
        Policy::cp_sd(),
        &mut TraceData::from_content(&content),
    )
    .unwrap_err();
    assert!(e.contains("geometry mismatch"), "{e}");
    assert!(e.contains("sram_ways"), "{e}");
}
