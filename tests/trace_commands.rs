//! The commands that replay a recording — `hllc run --trace`, `hllc compare
//! --trace` and `hllc sweep --trace` — run the recording's own experiment
//! unless `--spec` or a flag edits it, and hold any other experiment to the
//! recording's geometry with the same named error.

use std::path::PathBuf;
use std::process::{Command, Output};

use hybrid_llc::config::ExperimentSpec;
use serde_json::Value;

fn hllc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hllc"))
        .args(args)
        .output()
        .expect("hllc runs")
}

fn stdout(out: &Output) -> String {
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stdout: {text}\nstderr: {stderr}");
    text
}

/// The `note: ` lines a successful command printed on stderr.
fn notes(out: &Output) -> Vec<String> {
    stdout(out);
    String::from_utf8_lossy(&out.stderr)
        .lines()
        .filter(|l| l.starts_with("note: "))
        .map(str::to_string)
        .collect()
}

/// A per-process path in the temp directory.
fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hllc-trace-cmd-{}-{name}", std::process::id()))
}

/// Runs `hllc record` with `flags` into a fresh trace, returning its path.
fn record(name: &str, flags: &[&str]) -> String {
    let path = temp(name).to_str().unwrap().to_string();
    stdout(&hllc(&[&["record", "--out", &path], flags].concat()));
    path
}

#[test]
fn run_trace_with_no_other_flag_prints_the_recorded_stats() {
    let mut fpc2 = ExperimentSpec::preset("scaled").unwrap();
    fpc2.hybrid.compressor = "fpc".into();
    fpc2.system.cores = 2;
    let spec_path = temp("fpc2.json");
    fpc2.store(spec_path.to_str().unwrap()).unwrap();
    for (name, flags) in [
        ("bh", vec!["--policy", "bh"]),
        ("fpc2", vec!["--spec", spec_path.to_str().unwrap()]),
    ] {
        let live = temp(&format!("{name}-live.json"));
        let live_path = live.to_str().unwrap();
        let trace = record(
            name,
            &[&flags[..], &["--cycles", "2e5", "--json", live_path]].concat(),
        );
        let replay = stdout(&hllc(&["run", "--trace", &trace, "--json"]));
        let recorded = std::fs::read_to_string(&live).unwrap();
        assert_eq!(
            replay, recorded,
            "{name}: the replay ran another experiment"
        );
        std::fs::remove_file(&trace).unwrap();
        std::fs::remove_file(&live).unwrap();
    }
    std::fs::remove_file(&spec_path).unwrap();
}

#[test]
fn compare_trace_runs_the_recorded_budget_and_matches_run_trace() {
    let trace = record("compare", &["--cycles", "1e5", "--cores", "2"]);
    let table = stdout(&hllc(&["compare", "--trace", &trace, "--jobs", "2"]));
    assert!(table.contains("(0.1M cycles each)"), "{table}");
    let bh = stdout(&hllc(&[
        "run", "--trace", &trace, "--policy", "bh", "--json",
    ]));
    std::fs::remove_file(&trace).unwrap();
    let bh: Value = serde_json::from_str(&bh).unwrap();
    let number = |key: &str| bh.get(key).and_then(Value::as_f64).unwrap();
    let llc = bh.get("llc").unwrap();
    let hit_rate = llc.get("hit_rate").and_then(Value::as_f64).unwrap();
    let bytes = llc
        .get("nvm_bytes_written")
        .and_then(Value::as_u64)
        .unwrap();
    let row = [
        "BH".to_string(),
        format!("{:.3}", number("ipc")),
        format!("{:.1}%", 100.0 * hit_rate),
        bytes.to_string(),
    ];
    assert!(
        table.lines().any(|l| l
            .split_whitespace()
            .take(4)
            .eq(row.iter().map(String::as_str))),
        "no {row:?} row in\n{table}"
    );
    let rows = table.lines().skip_while(|l| !l.starts_with("policy"));
    for line in rows.skip(1) {
        assert!(
            !line.contains(" 0.000 "),
            "a policy replayed nothing: {line}"
        );
    }
}

#[test]
fn every_trace_command_names_the_same_geometry_mismatch() {
    let trace = record("mismatch", &["--cycles", "2e4"]);
    let paper = "llc_sets: spec 4096 vs recording 512";
    for (cmd, flags, field) in [
        ("run", &["--spec", "paper"], paper),
        ("compare", &["--spec", "paper"], paper),
        ("sweep", &["--spec", "paper"], paper),
        (
            "sweep",
            &["--sets", "128"],
            "llc_sets: spec 128 vs recording 512",
        ),
    ] {
        let out = hllc(&[&[cmd, "--trace", &trace], &flags[..]].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{cmd}: {stderr}");
        assert!(out.stdout.is_empty(), "{cmd} printed before failing");
        assert!(stderr.contains(field), "{cmd} names no {field}: {stderr}");
    }
    std::fs::remove_file(&trace).unwrap();
}

#[test]
fn compare_rows_line_up_under_the_header() {
    let table = stdout(&hllc(&["compare", "--cycles", "2e4", "--jobs", "2"]));
    let mut lines = table.lines().skip_while(|l| !l.starts_with("policy"));
    let header = lines.next().expect("a header row");
    // The IPC column is right-aligned: every value ends where "IPC" does.
    let end = header.find("IPC").unwrap() + "IPC".len();
    let rows: Vec<&str> = lines.collect();
    assert_eq!(rows.len(), 8, "{table}");
    for row in rows {
        let head = row.get(..end).unwrap_or(row);
        let cells: Vec<&str> = head.split_whitespace().collect();
        assert_eq!(cells.len(), 2, "policy and IPC before column {end}: {row}");
        assert!(cells[1].parse::<f64>().is_ok(), "{row}");
        assert!(
            row[end..].starts_with(' '),
            "IPC overruns its column: {row}"
        );
    }
}

#[test]
fn a_replay_notes_the_block_sizes_its_recording_lacks() {
    // BH compresses nothing, so its recording carries no block size.
    let trace = record(
        "unsized",
        &["--policy", "bh", "--cycles", "1e5", "--cores", "2"],
    );
    let notes = |args: &[&str]| notes(&hllc(&[args, &["--trace", &trace]].concat()));
    assert_eq!(notes(&["run"]), Vec::<String>::new(), "the recorded BH");
    let ca = notes(&["run", "--policy", "ca"]);
    assert_eq!(ca.len(), 1, "{ca:?}");
    assert!(ca[0].contains("took 64 B"), "{}", ca[0]);
    assert!(ca[0].contains("(CA(cpth=58) "), "{}", ca[0]);
    let compare = notes(&["compare", "--jobs", "2"]);
    assert_eq!(compare.len(), 1, "{compare:?}");
    for policy in ["BH_CP ", "CA(cpth=58) ", "CP_SD "] {
        assert!(compare[0].contains(policy), "{policy}: {}", compare[0]);
    }
    std::fs::remove_file(&trace).unwrap();
}

#[test]
fn a_trace_sweep_notes_the_block_sizes_its_recording_lacks() {
    let trace = record(
        "unsized_sweep",
        &["--policy", "bh", "--cycles", "1e5", "--cores", "2"],
    );
    let notes =
        |policies: &str| notes(&hllc(&["sweep", "--trace", &trace, "--policies", policies]));
    assert_eq!(notes("bh"), Vec::<String>::new(), "the recorded BH");
    let both = notes("bh,ca");
    assert_eq!(both.len(), 1, "{both:?}");
    assert!(both[0].contains("took 64 B"), "{}", both[0]);
    assert!(both[0].contains("(CA(cpth=58) "), "{}", both[0]);
    assert!(!both[0].contains("BH"), "{}", both[0]);
    std::fs::remove_file(&trace).unwrap();
}
