//! A phase simulates the same bits whether its reference streams are
//! filled by a helper thread or inline. Its own test binary, so no other
//! test's helpers or claims share the process-wide counts that choose the
//! mode.

use hllc_config::ExperimentSpec;
use hllc_core::Policy;
use hllc_forecast::{run_phase, run_phase_streams, PhaseSetup};
use hllc_trace::{claim_threads, live_helpers, mixes};

fn setup() -> PhaseSetup {
    let mut spec = ExperimentSpec::preset("scaled").expect("builtin preset");
    spec.system.llc_sets = 256;
    spec.hybrid.policy = Policy::cp_sd().label();
    spec.validate().expect("256-set scaled variant");
    PhaseSetup::from_spec(&spec, 100_000.0, 200_000.0)
}

#[test]
fn run_phase_is_the_same_with_and_without_a_helper() {
    let (setup, mix, seed) = (setup(), &mixes()[0], 42);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Nothing claimed: a helper fills the batches if a second hardware
    // thread exists.
    let mut streams = mix.instantiate(setup.scale, seed);
    let data = mix.data_model_with(setup.compressor, seed);
    let (with_helper, _) = run_phase_streams(&setup, &mut streams, data, None);
    assert_eq!(live_helpers(), usize::from(threads >= 2));
    drop(streams);
    assert_eq!(live_helpers(), 0);

    // Every hardware thread claimed: the streams fill inline.
    let all = claim_threads(threads);
    let (inline, _) = run_phase(&setup, mix, None, seed);
    drop(all);

    assert!(with_helper.accesses > 1_000);
    assert_eq!(format!("{with_helper:?}"), format!("{inline:?}"));
}
