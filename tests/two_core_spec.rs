//! A spec that validates runs under every synthetic command: `sweep` and
//! `forecast` take the same first `system.cores` streams of the mix that
//! `run` does, so a 2-core system is not handed four streams.

use std::process::Command;

use hybrid_llc::config::ExperimentSpec;

#[test]
fn sweep_and_forecast_run_a_two_core_spec() {
    let mut spec = ExperimentSpec::preset("scaled").unwrap();
    spec.system.cores = 2;
    spec.system.llc_sets = 128;
    spec.forecast.warmup_cycles = 20_000.0;
    spec.forecast.measure_cycles = 100_000.0;
    spec.forecast.max_steps = 2;
    spec.validate().unwrap();
    let path = std::env::temp_dir().join(format!("hllc-two-core-{}.json", std::process::id()));
    spec.store(path.to_str().unwrap()).unwrap();
    let outs = [
        "sweep --policies bh,cp_sd --mixes 1 --seeds 1 --cycles 5e4 --jobs 1",
        "forecast --policy cp_sd",
    ]
    .map(|cmd| {
        let out = Command::new(env!("CARGO_BIN_EXE_hllc"))
            .args(cmd.split(' '))
            .args(["--spec", path.to_str().unwrap()])
            .output()
            .expect("hllc runs");
        (cmd, out)
    });
    std::fs::remove_file(&path).unwrap();
    for (cmd, out) in outs {
        assert_eq!(
            out.status.code(),
            Some(0),
            "hllc {cmd} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
