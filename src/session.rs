//! One simulation session shared by `run`, `record` and `compare`.
//!
//! Every session runs the spec's phase through
//! [`hllc_forecast::simulate`] — the spec's system, its warm-up fraction,
//! statistics reset, then the measured window — and sessions differ only
//! in where references and block sizes come from: a synthetic mix, a
//! tapped mix being recorded, or a trace file being replayed (`run
//! --trace`, `compare --trace`). One recipe is what makes record/replay
//! round trips byte-comparable: the round-trip tests diff [`stats_json`]
//! output of a live run against a replay of its recording.
//!
//! A replay's experiment is the recording's own unless `--spec` names
//! another: recordings embed the resolved [`ExperimentSpec`] in the trace
//! header (format v2), and v1 traces fall back to the `scaled` preset at
//! the recorded set count, mix, seed, and policy and cycle budget when
//! they read as valid ([`trace_spec`]). Whatever the spec,
//! [`check_replay`] holds its geometry to the recording's.

use serde_json::{json, Value};

use crate::cli::Args;
use crate::forecast::{simulate, PhaseSetup};
use crate::llc::Policy;
use crate::sim::{DataModel, HierarchyStats, LlcPort, LlcStats};
use crate::trace::{mixes, RefSource};
use hllc_config::ExperimentSpec;

pub use crate::traceio::{check_replay, trace_spec};
use crate::traceio::{Recorder, ReplayStream, TraceContent, TraceData, TraceHeader};

/// The measurements of one session: the live `run` printout and the
/// record/replay comparison payload.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionStats {
    /// Arithmetic-mean IPC across the system's cores.
    pub ipc: f64,
    /// References executed in the measured window.
    pub accesses: u64,
    /// LLC statistics over the measured window.
    pub llc: LlcStats,
    /// Full hierarchy counters over the measured window — included so the
    /// round-trip tests compare every counter, not just the LLC's.
    pub hierarchy: HierarchyStats,
    /// Final Set Dueling CP_th (`None` for non-dueling policies).
    pub cp_th: Option<u8>,
    /// Set Dueling epochs `(completed, retained)` — retained is bounded by
    /// the fixed-size history ring (`None` for non-dueling policies).
    /// Reported in the human-readable summary only; [`stats_json`] is kept
    /// byte-stable for the record/replay comparison.
    pub dueling_epochs: Option<(u64, usize)>,
}

/// The phase a session runs: the spec's system under `policy`, measuring
/// `cycles` after the spec's warm-up.
fn session_setup(spec: &ExperimentSpec, policy: Policy, cycles: f64) -> PhaseSetup {
    PhaseSetup::from_spec_for(spec, policy, spec.run.warmup_cycles(cycles), cycles)
}

/// Runs `setup`'s phase from a fresh LLC: the session's view of it.
fn session<S: RefSource, D: DataModel>(
    setup: &PhaseSetup,
    streams: &mut [S],
    data: D,
) -> SessionStats {
    let phase = simulate(setup, streams, data, None);
    let h = &phase.hierarchy;
    let dueling = h.llc().dueling();
    SessionStats {
        ipc: h.system_ipc(),
        accesses: phase.accesses,
        llc: *h.llc().stats(),
        hierarchy: h.stats().clone(),
        cp_th: dueling.map(|d| d.current_cp_th()),
        dueling_epochs: dueling.map(|d| (d.epochs_total(), d.epochs_retained())),
    }
}

/// Runs the spec's phase under `policy` over arbitrary reference sources:
/// `spec.run.warmup_fraction * cycles` of warm-up, statistics reset, then
/// a `cycles`-long measured window.
pub fn run_session<S: RefSource, D: DataModel>(
    spec: &ExperimentSpec,
    policy: Policy,
    cycles: f64,
    streams: &mut [S],
    data: D,
) -> SessionStats {
    session(&session_setup(spec, policy, cycles), streams, data)
}

/// Runs `args` live from the synthetic mix, on the inputs
/// [`PhaseSetup::inputs`] picks for the spec.
pub fn live_session(args: &Args) -> SessionStats {
    let spec = &args.spec;
    let setup = session_setup(spec, args.policy(), spec.run.cycles);
    let (mut streams, data) = setup.inputs(&mixes()[spec.mix_index()], spec.workload.seed);
    session(&setup, &mut streams, data)
}

/// Runs `args` live on at most `cores` of its streams, capturing every
/// reference and block size into `writer`'s sink. The tap never perturbs
/// the run: with every stream recorded, the stats equal [`live_session`]'s.
pub fn record_session<W: std::io::Write>(
    args: &Args,
    cores: usize,
    writer: crate::traceio::TraceWriter<W>,
) -> Result<(SessionStats, W), String> {
    let spec = &args.spec;
    let setup = session_setup(spec, args.policy(), spec.run.cycles);
    let (streams, data) = setup.inputs(&mixes()[spec.mix_index()], spec.workload.seed);
    let recorder = Recorder::new(writer);
    let mut streams: Vec<_> = streams
        .into_iter()
        .take(cores.max(1))
        .map(|s| recorder.stream(s))
        .collect();
    let stats = session(&setup, &mut streams, recorder.data(data));
    drop(streams);
    let mut sink = recorder.finish().map_err(|e| e.to_string())?;
    sink.flush()
        .map_err(|e| format!("flushing trace sink: {e}"))?;
    Ok((stats, sink))
}

/// The header a recording of `args` carries: the legacy summary fields
/// plus the full resolved spec as an embedded JSON blob (format v2). Its
/// core count is the number of streams [`record_session`] captures.
pub fn recording_header(args: &Args, cores: usize) -> TraceHeader {
    let spec = &args.spec;
    let mix = &mixes()[spec.mix_index()];
    let spec_text = serde_json::to_string(&spec.to_json()).expect("spec serialization cannot fail");
    TraceHeader {
        cores: cores.clamp(1, spec.system.cores.min(mix.apps.len())) as u8,
        mix: spec.workload.mix as u8,
        seed: spec.workload.seed,
        sets: spec.system.llc_sets as u32,
        cycles: spec.run.cycles,
        policy: args.policy().name().to_string(),
        workload: mix.name.to_string(),
        spec_json: Some(spec_text),
    }
}

/// Replays a loaded trace under `policy` for `cycles` (the recording's own
/// budget when `None`) on the recorded system — see [`trace_spec`]. Under
/// the recorded policy and cycle budget the result is bit-identical to the
/// recorded live run.
pub fn replay_session(
    content: &TraceContent,
    policy: Policy,
    cycles: Option<f64>,
) -> Result<SessionStats, String> {
    let mut spec = trace_spec(content)?;
    if let Some(cycles) = cycles {
        spec.run.cycles = cycles;
    }
    let mut data = TraceData::from_content(content);
    replay_session_sized(content, &spec, policy, &mut data)
}

/// Replays a loaded trace on `spec`'s system under `policy` for the spec's
/// `run.cycles`, once [`check_replay`] accepts it, sizing blocks from
/// `data`: the recording's table ([`TraceData::from_content`]), so that
/// several replays of one recording build it once and clone it.
/// Afterwards [`TraceData::fallbacks`] counts the size lookups the
/// recording could not serve.
pub fn replay_session_sized(
    content: &TraceContent,
    spec: &ExperimentSpec,
    policy: Policy,
    data: &mut TraceData,
) -> Result<SessionStats, String> {
    check_replay(content, spec)?;
    let mut streams = ReplayStream::per_core(content);
    Ok(run_session(
        spec,
        policy,
        spec.run.cycles,
        &mut streams,
        data,
    ))
}

/// Renders session stats as JSON with sorted keys — two sessions are
/// bit-identical iff their serialized [`stats_json`] values are equal,
/// which is how the CI round-trip check diffs a replay against its live
/// run.
pub fn stats_json(policy: &str, workload: &str, s: &SessionStats) -> Value {
    json!({
        "policy": policy,
        "workload": workload,
        "ipc": s.ipc,
        "accesses": s.accesses,
        "set_dueling_cp_th": s.cp_th,
        "llc": json!({
            "gets": s.llc.gets,
            "getx": s.llc.getx,
            "hits": s.llc.hits,
            "misses": s.llc.misses,
            "hit_rate": s.llc.hit_rate(),
            "sram_hits": s.llc.sram_hits,
            "nvm_hits": s.llc.nvm_hits,
            "sram_inserts": s.llc.sram_inserts,
            "nvm_inserts": s.llc.nvm_inserts,
            "migrations": s.llc.migrations,
            "nvm_bytes_written": s.llc.nvm_bytes_written,
            "writebacks": s.llc.writebacks,
            "bypasses": s.llc.bypasses,
            "write_stall_cycles": s.llc.write_stall_cycles,
        }),
        "hierarchy": json!({
            "instructions": s.hierarchy.instructions,
            "services": &s.hierarchy.services[..],
            "loads": s.hierarchy.loads,
            "stores": s.hierarchy.stores,
            "upgrades": s.hierarchy.upgrades,
            "remote_invalidations": s.hierarchy.remote_invalidations,
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traceio::{TraceReader, TraceWriter};

    fn args() -> Args {
        Args::scaled(Policy::cp_sd(), 0, 40_000.0, 7)
    }

    #[test]
    fn live_session_and_run_phase_agree_for_every_core_count_and_compressor() {
        use crate::forecast::run_phase;
        let mut by_compressor = Vec::new();
        for compressor in ["bdi", "fpc"] {
            for cores in [1, 2, 4, 8] {
                let mut a = Args::scaled(Policy::cp_sd(), 1, 30_000.0, 5);
                a.spec.system.cores = cores;
                a.spec.system.llc_sets = 128;
                a.spec.hybrid.compressor = compressor.into();
                a.spec.validate().unwrap();
                let live = live_session(&a);
                let spec = &a.spec;
                let setup = PhaseSetup::from_spec(
                    spec,
                    spec.run.warmup_cycles(spec.run.cycles),
                    spec.run.cycles,
                );
                let (m, _) = run_phase(&setup, &mixes()[1], None, spec.workload.seed);
                let what = format!("{compressor} on {cores} cores");
                assert_eq!(live.ipc.to_bits(), m.ipc.to_bits(), "IPC, {what}");
                assert_eq!(live.llc, m.llc, "LLC stats, {what}");
                assert!(live.llc.requests() > 0, "{what} idle");
                if cores == 4 {
                    by_compressor.push(live.llc);
                }
            }
        }
        assert_ne!(
            by_compressor[0], by_compressor[1],
            "the spec's compressor did not reach the live run"
        );
    }

    #[test]
    fn replay_of_an_access_beyond_the_header_cores_is_an_error() {
        use crate::sim::Access;
        let a = args();
        let content = TraceContent {
            header: TraceHeader {
                cores: 1,
                ..recording_header(&a, 1)
            },
            accesses: vec![Access::load(0, 0x40), Access::load(1, 0x80)],
            sizes: Vec::new(),
        };
        let mut data = TraceData::from_content(&content);
        let e = replay_session_sized(&content, &a.spec, Policy::Bh, &mut data).unwrap_err();
        assert!(e.contains("access 1 names core 1"), "{e}");
    }

    #[test]
    fn recording_does_not_perturb_the_run() {
        let a = args();
        let live = live_session(&a);
        let writer = TraceWriter::new(Vec::new(), &recording_header(&a, 4)).unwrap();
        let (recorded, _) = record_session(&a, 4, writer).unwrap();
        assert_eq!(live, recorded, "the recorder tap changed the simulation");
    }

    #[test]
    fn replay_reproduces_the_live_run() {
        let a = args();
        let writer = TraceWriter::new(Vec::new(), &recording_header(&a, 2)).unwrap();
        let (live, bytes) = record_session(&a, 2, writer).unwrap();
        let content = TraceReader::new(&bytes[..]).unwrap().read_to_end().unwrap();
        assert_eq!(content.header.cores, 2);
        let replayed = replay_session(&content, a.policy(), None).unwrap();
        assert_eq!(live, replayed, "replay diverged from the recorded run");
        let lhs = stats_json("cp_sd", "mix1", &live);
        let rhs = stats_json("cp_sd", "mix1", &replayed);
        assert_eq!(
            serde_json::to_string_pretty(&lhs).unwrap(),
            serde_json::to_string_pretty(&rhs).unwrap()
        );
    }

    #[test]
    fn a_two_core_recording_reports_the_mean_over_its_two_cores() {
        let a = args();
        let writer = TraceWriter::new(Vec::new(), &recording_header(&a, 2)).unwrap();
        let (stats, _) = record_session(&a, 2, writer).unwrap();
        assert_eq!(a.spec.system.cores, 4);
        let instructions = &stats.hierarchy.instructions;
        assert_eq!(instructions.len(), 2, "idle cores were simulated");
        assert!(instructions.iter().all(|&n| n > 0));
        let four = live_session(&a);
        assert!(stats.ipc > four.ipc / 2.0, "{} vs {}", stats.ipc, four.ipc);
    }

    #[test]
    fn recordings_embed_the_spec() {
        let a = args();
        let writer = TraceWriter::new(Vec::new(), &recording_header(&a, 2)).unwrap();
        let (_, bytes) = record_session(&a, 2, writer).unwrap();
        let content = TraceReader::new(&bytes[..]).unwrap().read_to_end().unwrap();
        let spec = trace_spec(&content).unwrap();
        assert_eq!(spec, a.spec, "embedded spec did not round trip");
    }

    #[test]
    fn replay_under_another_policy_still_runs() {
        let a = args();
        let writer = TraceWriter::new(Vec::new(), &recording_header(&a, 4)).unwrap();
        let (_, bytes) = record_session(&a, 4, writer).unwrap();
        let content = TraceReader::new(&bytes[..]).unwrap().read_to_end().unwrap();
        let other = replay_session(&content, Policy::Bh, None).unwrap();
        assert!(other.ipc > 0.0);
        assert!(other.llc.requests() > 0);
    }

    #[test]
    fn replay_with_mismatched_spec_names_the_geometry() {
        let a = args();
        let writer = TraceWriter::new(Vec::new(), &recording_header(&a, 2)).unwrap();
        let (_, bytes) = record_session(&a, 2, writer).unwrap();
        let content = TraceReader::new(&bytes[..]).unwrap().read_to_end().unwrap();
        let mut other = a.spec.clone();
        other.system.llc_sets = 1024;
        other.system.sram_ways = 3;
        other.system.nvm_ways = 13;
        let mut data = TraceData::from_content(&content);
        let e = replay_session_sized(&content, &other, Policy::Bh, &mut data).unwrap_err();
        assert!(e.contains("geometry mismatch"), "{e}");
        assert!(e.contains("llc_sets: spec 1024 vs recording 512"), "{e}");
        assert!(e.contains("sram_ways"), "{e}");
        // A matching spec replays fine.
        assert!(replay_session_sized(&content, &a.spec, Policy::Bh, &mut data).is_ok());
    }
}
