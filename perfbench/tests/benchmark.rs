//! The benchmark's own checks: its recipes reproduce the crates' results
//! bit for bit, its metric names match `BENCHMARK.json`, the workloads
//! isolate the layers they claim to, and a tampered digest fails the run.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use hllc_perfbench::catalog::{manifest, END_TO_END, PER_LAYER, WORKLOADS};
use hllc_perfbench::probe::Layers;
use hllc_perfbench::workloads::{
    forecast_op, job_digest, record_input, replay_round, series_digest, session_digest, sweep_job,
    sweep_jobs, Plan, Workload,
};
use hllc_perfbench::{run, Outcome, Pins};
use hybrid_llc::forecast::{Forecast, ForecastConfig};
use hybrid_llc::llc::{HybridConfig, Policy};
use hybrid_llc::runner::{run_sweep, SweepSpec};
use hybrid_llc::session::replay_session;
use hybrid_llc::{mixes, ExperimentSpec};

/// The full plan's recipes at a size that runs in seconds.
fn tiny_plan(threads: usize) -> Plan {
    let mut forecast_spec = ExperimentSpec::preset("scaled").expect("builtin preset");
    forecast_spec.system.llc_sets = 128;
    forecast_spec.validate().expect("128-set scaled variant");
    let mut forecast = ForecastConfig::from_spec(&forecast_spec);
    forecast.llc = HybridConfig::new(128, 4, 12, Policy::Bh).with_endurance(2e6, 0.2);
    forecast.warmup_cycles = 2e4;
    forecast.measure_cycles = 8e4;
    forecast.capacity_step = 0.08;
    forecast.max_step_seconds = 50.0;
    forecast.max_steps = 25;

    let mut sweep_spec = ExperimentSpec::preset("scaled").expect("builtin preset");
    sweep_spec.system.llc_sets = 64;
    sweep_spec.validate().expect("64-set scaled variant");
    let full = Plan::full(threads);
    Plan {
        forecast,
        sweep: SweepSpec {
            policies: vec![("BH".into(), Policy::Bh), ("CP_SD".into(), Policy::cp_sd())],
            seeds: 2,
            capacities: vec![1.0, 0.7],
            warmup_cycles: 2e4,
            measure_cycles: 6e4,
            spec: sweep_spec,
            ..full.sweep
        },
        record_flags: ["--mix", "6", "--policy", "cp_sd", "--cycles", "6e4"]
            .map(String::from)
            .to_vec(),
        ..full
    }
}

fn names(outcome: &Outcome) -> Vec<&str> {
    outcome.metrics.iter().map(|(n, _)| n.as_str()).collect()
}

fn value(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .metrics
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .1
}

#[test]
fn sweep_recipe_matches_run_sweep() {
    let plan = tiny_plan(2);
    let mut spec = plan.sweep.clone();
    spec.base_seed = 9;
    let report = run_sweep(&spec);
    let jobs = sweep_jobs(&spec);
    assert_eq!(jobs.len(), report.results.len());
    for traced in [false, true] {
        for (i, (job, want)) in jobs.iter().zip(&report.results).enumerate() {
            assert_eq!((job.capacity, job.mix + 1), (want.capacity, want.mix));
            let got = sweep_job(&spec, i, job, traced);
            assert_eq!(
                job_digest(got.ipc, got.hit_rate, got.nvm_bytes_written),
                job_digest(want.ipc, want.hit_rate, want.nvm_bytes_written),
                "job {i} (traced: {traced}) differs from run_sweep"
            );
        }
    }
}

#[test]
fn forecast_loop_reproduces_forecast_run() {
    let plan = tiny_plan(1);
    let mix = &mixes()[plan.forecast_mix];
    for policy in [Policy::Bh, Policy::cp_sd()] {
        let cfg = plan.forecast.clone().with_policy(policy);
        let want = Forecast::new(cfg.clone()).run(mix, 3);
        assert!(want.points.len() >= 3, "{policy:?}: too short to test");
        let plain = forecast_op(&cfg, mix, 3, None).series;
        assert_eq!(plain, want, "{policy:?} untraced");
        let mut layers = Layers::default();
        let traced = forecast_op(&cfg, mix, 3, Some(&mut layers)).series;
        assert_eq!(traced, want, "{policy:?} traced");
        assert_eq!(series_digest(&traced), series_digest(&want));
        assert!(layers.forecast_phases >= 2 && layers.forecast_predict_s > 0.0);
    }
}

#[test]
fn replay_recipe_matches_replay_session() {
    let plan = tiny_plan(1);
    let input = record_input(&plan, 5).expect("recording");
    let workload = input.content.header.workload.clone();
    let want: Vec<String> = plan
        .replay_policies
        .iter()
        .map(|p| {
            let stats = replay_session(&input.content, *p, None).expect("replay");
            session_digest(p, &workload, &stats)
        })
        .collect();
    for traced in [false, true] {
        let round = replay_round(&plan, &input, traced);
        let names: Vec<&str> = round.ops.iter().map(|o| o.name.as_str()).collect();
        assert_eq!(names, ["encode", "load", "CP_SD", "BH", "LHybrid"]);
        for op in &round.ops {
            assert_eq!(op.error, None, "{} (traced: {traced})", op.name);
        }
        let got: Vec<String> = round.ops[2..].iter().map(|o| o.digest.clone()).collect();
        assert_eq!(got, want, "traced: {traced}");
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn catalog_is_within_the_manifest_rules() {
    let all: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.0)
        .chain(END_TO_END.iter().map(|m| m.0))
        .chain(PER_LAYER.iter().map(|m| m.0))
        .collect();
    for name in &all {
        assert!(valid_name(name), "bad name {name}");
    }
    let mut unique = all.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), all.len(), "duplicate names");
    for unit in END_TO_END
        .iter()
        .map(|m| m.1)
        .chain(PER_LAYER.iter().map(|m| m.1))
    {
        assert!(
            unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {unit}"
        );
    }
    for (name, why) in WORKLOADS {
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "{name}: why too long"
        );
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.0 == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.1, setup.2), ("s", "lower"));
    for m in END_TO_END {
        assert!(m.3 > 0.0 && m.3 <= 0.25 && m.3 <= setup.3, "{}: bound", m.0);
    }
}

#[test]
fn benchmark_json_is_the_manifest() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let file = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    assert_eq!(file, manifest(), "regenerate with `perfbench --manifest`");
}

#[test]
fn runs_emit_the_catalog_and_isolate_layers() {
    let plan = tiny_plan(2);
    let end_to_end: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
    let per_layer: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
    for workload in Workload::ALL {
        let plain = run(workload, 4, 0.0, false, &plan, &Pins::default());
        assert!(plain.correct(), "{workload:?}: {:?}", plain.failures);
        assert_eq!(names(&plain), end_to_end, "{workload:?} untraced");
        for (name, v) in &plain.metrics {
            assert!(*v > 0.0, "{workload:?}: {name} = {v}");
        }

        let traced = run(workload, 4, 0.0, true, &plan, &Pins::default());
        assert!(traced.correct(), "{workload:?}: {:?}", traced.failures);
        assert_eq!(names(&traced), per_layer, "{workload:?} traced");
        let sum = |prefix: &str| -> f64 {
            traced
                .metrics
                .iter()
                .filter(|(n, _)| n.starts_with(prefix))
                .map(|(_, v)| v)
                .sum()
        };
        assert!(value(&traced, "sim.accesses") > 0.0);
        assert!(value(&traced, "core.requests") > 0.0);
        match workload {
            Workload::Replay => {
                assert_eq!(value(&traced, "trace.refs"), 0.0);
                assert_eq!(value(&traced, "compress.calls"), 0.0);
                assert!(value(&traced, "traceio.bytes") > 0.0);
                assert_eq!(sum("runner."), 0.0);
            }
            Workload::Forecast | Workload::Sweep => {
                assert_eq!(sum("traceio."), 0.0, "{workload:?}");
                assert!(value(&traced, "trace.refs") > 0.0);
                assert!(
                    value(&traced, "compress.calls") > 0.0,
                    "{workload:?}: {:?}",
                    traced.metrics
                );
                assert_eq!(sum("runner.") > 0.0, workload == Workload::Sweep);
                assert_eq!(
                    value(&traced, "forecast.phases") > 0.0,
                    workload == Workload::Forecast
                );
            }
        }
    }
}

#[test]
fn tampered_digest_is_a_failure() {
    let plan = tiny_plan(1);
    let first = run(Workload::Forecast, 11, 0.0, false, &plan, &Pins::default());
    assert!(first.correct(), "{:?}", first.failures);
    let mut pins = Pins::default();
    pins.0
        .entry("forecast".into())
        .or_default()
        .insert(11, first.digests.clone());
    let again = run(Workload::Forecast, 11, 0.0, false, &plan, &pins);
    assert!(again.correct(), "{:?}", again.failures);

    let mut tampered = first.digests.clone();
    tampered[1] = format!("{:016x}", 1u64);
    pins.0.get_mut("forecast").unwrap().insert(11, tampered);
    let caught = run(Workload::Forecast, 11, 0.0, false, &plan, &pins);
    assert!(!caught.correct());
    assert_eq!(caught.failures.len(), 1, "{:?}", caught.failures);
    let json = caught.result_json();
    assert_eq!(json.get("correct"), Some(&serde_json::Value::Bool(false)));
    assert_eq!(json.get("failed").and_then(|v| v.as_f64()), Some(1.0));

    // Pins round-trip through their file format.
    let text = serde_json::to_string(&pins.to_json()).unwrap();
    assert_eq!(Pins::parse(&text).unwrap(), pins);
    // The shipped pins parse.
    let _ = Pins::builtin();
}
