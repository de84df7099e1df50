//! The `hllc` binary's error path: a bad flag or spec exits 1 with a named
//! error and the usage text on stderr, and writes nothing to stdout, so
//! `hllc run --json ... > out.json` never captures the usage text.

use std::process::{Command, Output};

fn hllc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hllc"))
        .args(args)
        .output()
        .expect("hllc runs")
}

fn assert_fails_naming(out: &Output, field: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(stderr.contains(field), "stderr names no {field}: {stderr}");
    assert!(stderr.contains("usage: hllc"), "stderr: {stderr}");
}

#[test]
fn bad_flags_report_on_stderr_only() {
    assert_fails_naming(&hllc(&["run", "--cycles", "nan"]), "run.cycles");
    assert_fails_naming(&hllc(&["run", "--json", "--cycles", "nan"]), "run.cycles");
}

#[test]
fn sweep_and_replay_reject_unbounded_cycles() {
    for bad in ["-5", "0", "inf", "nan"] {
        let sweep = ["sweep", "--policies", "bh", "--mixes", "1", "--cycles", bad];
        assert_fails_naming(&hllc(&sweep), "run.cycles");
        let replay = ["replay", "--trace", "missing.trc", "--cycles", bad];
        assert_fails_naming(&hllc(&replay), "run.cycles");
    }
}

#[test]
fn oversized_sweep_grid_is_an_error_not_an_abort() {
    let out = hllc(&["sweep", "--seeds", "1000000000000000", "--cycles", "1e3"]);
    // Default grid: 2 policies x 4 mixes per seed.
    assert_fails_naming(&out, "8000000000000000 jobs");
    let out = hllc(&["sweep", "--seeds", &usize::MAX.to_string()]);
    assert_fails_naming(&out, "jobs");
}

#[test]
fn oversized_spec_geometry_is_an_error_not_an_abort() {
    let spec = hybrid_llc::config::ExperimentSpec::preset("scaled")
        .unwrap()
        .to_string_pretty()
        .replace("\"llc_sets\": 512", "\"llc_sets\": 1099511627776");
    assert!(spec.contains("1099511627776"));
    let path = std::env::temp_dir().join(format!("hllc-oversized-{}.json", std::process::id()));
    std::fs::write(&path, spec).unwrap();
    let out = hllc(&["run", "--spec", path.to_str().unwrap()]);
    std::fs::remove_file(&path).unwrap();
    assert_fails_naming(&out, "system.llc_sets");
}

#[test]
fn help_goes_to_stdout() {
    let out = hllc(&["help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage: hllc"));
    assert!(out.stderr.is_empty());
}
