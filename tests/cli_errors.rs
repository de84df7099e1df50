//! The `hllc` binary's error path: a bad flag or spec exits 1 with a named
//! error and the usage text on stderr, and writes nothing to stdout, so
//! `hllc run --json ... > out.json` never captures the usage text.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn hllc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hllc"))
        .args(args)
        .output()
        .expect("hllc runs")
}

/// Runs `hllc`, killing it if it is still running after `limit`, for
/// inputs that used to mean a run without end.
fn hllc_within(args: &[&str], limit: Duration) -> Result<Output, String> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hllc"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("hllc starts");
    let start = Instant::now();
    while child.try_wait().expect("hllc waits").is_none() {
        if start.elapsed() > limit {
            child.kill().expect("hllc is killed");
            child.wait().expect("hllc is reaped");
            return Err(format!("hllc {args:?} still running after {limit:?}"));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    Ok(child.wait_with_output().expect("hllc output"))
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
        // Flags are checked before the (missing) trace is opened.
        let replay = ["run", "--trace", "missing.trc", "--cycles", bad];
        assert_fails_naming(&hllc(&replay), "run.cycles");
    }
}

#[test]
fn an_absurd_cycle_budget_is_an_error_not_a_hang() {
    let limit = Duration::from_secs(20);
    let run = ["run", "--mix", "1", "--cycles", "1e300"];
    assert_fails_naming(&hllc_within(&run, limit).unwrap(), "run.cycles");
    let sweep = [
        "sweep",
        "--policies",
        "bh",
        "--mixes",
        "1",
        "--cycles",
        "1e300",
    ];
    assert_fails_naming(&hllc_within(&sweep, limit).unwrap(), "run.cycles");
}

#[test]
fn an_absurd_cycle_budget_in_a_spec_file_is_an_error_not_a_hang() {
    let spec = hybrid_llc::config::ExperimentSpec::preset("scaled")
        .unwrap()
        .to_string_pretty()
        .replace("\"cycles\": 2000000", "\"cycles\": 1e300");
    assert!(spec.contains("1e300"), "{spec}");
    let path = std::env::temp_dir().join(format!("hllc-cycles-{}.json", std::process::id()));
    std::fs::write(&path, spec).unwrap();
    let out = hllc_within(
        &["run", "--spec", path.to_str().unwrap()],
        Duration::from_secs(20),
    );
    std::fs::remove_file(&path).unwrap();
    assert_fails_naming(&out.unwrap(), "run.cycles");
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
fn record_refuses_a_trace_with_its_own_error() {
    let out = hllc(&["record", "--trace", "missing.trc", "--out", "unused.trc"]);
    assert_fails_naming(&out, "record captures a live run; it does not take --trace");
}

#[test]
fn replay_is_no_longer_a_command() {
    assert_fails_naming(
        &hllc(&["replay", "--trace", "t.trc"]),
        "unknown command 'replay'",
    );
}

#[test]
fn help_goes_to_stdout() {
    let out = hllc(&["help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage: hllc"));
    assert!(out.stderr.is_empty());
}

#[test]
fn compare_on_a_trace_with_a_mismatched_spec_is_an_error_not_a_panic() {
    let path = std::env::temp_dir().join(format!("hllc-compare-{}.trc", std::process::id()));
    let trace = path.to_str().unwrap();
    let record = hllc(&["record", "--cycles", "2e4", "--cores", "2", "--out", trace]);
    assert!(record.status.success(), "{record:?}");
    let out = hllc(&[
        "compare", "--trace", trace, "--spec", "paper", "--jobs", "1",
    ]);
    std::fs::remove_file(&path).unwrap();
    assert_fails_naming(&out, "llc_sets: spec 4096 vs recording 512");
}

/// Runs `hllc` with stdout on `stdout` and stderr captured.
fn hllc_onto(args: &[&str], stdout: impl Into<Stdio>) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hllc"))
        .args(args)
        .stdout(stdout)
        .stderr(Stdio::piped())
        .output()
        .expect("hllc runs")
}

#[test]
fn a_closed_stdout_ends_the_command_quietly() {
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/v1_mix1.trc");
    for args in [&["policies"][..], &["spec"], &["trace-info", fixture]] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = hllc_onto(args, writer);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(stderr.is_empty(), "{args:?}: {stderr}");
    }
}

#[test]
fn a_failed_stdout_write_is_a_named_error() {
    // Linux's full device fails every write with "no space left".
    let Ok(full) = std::fs::OpenOptions::new().write(true).open("/dev/full") else {
        return;
    };
    let out = hllc_onto(&["policies"], full);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.starts_with("error: writing to stdout: "), "{stderr}");
}
