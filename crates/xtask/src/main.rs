//! `hllc-xtask` — workspace static-analysis driver.
//!
//! Two commands, both wired into CI's `static-analysis` job:
//!
//! * `cargo run -p hllc-xtask -- lint` — runs the custom rule engine
//!   (std-only tokenizer, no external parser) over the workspace with the
//!   per-rule allowlists in `xtask/lint.toml`, prints `file:line`
//!   diagnostics, and writes the machine-readable `lint_report.json`.
//!   A finding outside the allowlist, a stale allowlist entry (one that
//!   matches nothing) and a rule path prefix that matches no `.rs` file
//!   all fail the run.
//! * `cargo run -p hllc-xtask -- check-protocol` — exhaustively
//!   enumerates the coherence protocol's reachable state space (up to 16
//!   cores' worth of sharer-mask symmetry classes) and proves SWMR,
//!   no-stale-owner, and exact transition-table coverage.
//!
//! Exit codes: 0 clean, 1 violations/invariant failures, 2 usage or
//! configuration errors.

mod config;
mod protocol;
mod report;
mod rules;
mod tokenizer;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
usage: cargo run -p hllc-xtask -- <command> [options]

commands:
  lint             run the workspace lint rules
      --config <path>   lint configuration (default: xtask/lint.toml)
      --report <path>   machine-readable output (default: lint_report.json)
  check-protocol   enumerate the coherence-protocol state space
      --max-cores <n>   largest core count to enumerate (default: 16)
      --json <path>     also write a machine-readable report
";

/// The workspace root: this crate lives at `<root>/crates/xtask`.
fn workspace_root() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .unwrap_or(manifest)
        .to_path_buf()
}

fn take_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        if pos + 1 >= args.len() {
            return Err(format!("{flag} needs a value"));
        }
        let value = args.remove(pos + 1);
        args.remove(pos);
        Ok(Some(value))
    } else {
        Ok(None)
    }
}

fn cmd_lint(mut args: Vec<String>) -> Result<ExitCode, String> {
    let root = workspace_root();
    let config_path = take_value(&mut args, "--config")?
        .map(PathBuf::from)
        .unwrap_or_else(|| root.join("xtask/lint.toml"));
    let report_path = take_value(&mut args, "--report")?
        .map(PathBuf::from)
        .unwrap_or_else(|| root.join("lint_report.json"));
    if let Some(stray) = args.first() {
        return Err(format!("unknown lint option `{stray}`"));
    }

    let text = std::fs::read_to_string(&config_path)
        .map_err(|e| format!("cannot read {}: {e}", config_path.display()))?;
    let config = config::parse(&text).map_err(|e| e.to_string())?;
    let outcome = rules::run(&root, &config);

    for f in &outcome.findings {
        println!("{}", rules::format_finding(f, &config.allow));
    }
    for &i in &outcome.stale_allows {
        let e = &config.allow[i];
        println!(
            "xtask/lint.toml:{}: error: stale allowlist entry ([{}] {} contains \
             {:?} matched nothing)",
            e.line, e.rule, e.path, e.contains
        );
    }
    for (rule, prefix) in &outcome.stale_paths {
        println!("xtask/lint.toml: error: stale path prefix ([rules.{rule}] {prefix:?} matches no .rs file)");
    }

    let doc = report::build(&outcome, &config);
    let json = serde_json::to_string_pretty(&doc).map_err(|e| format!("serialize: {e:?}"))?;
    std::fs::write(&report_path, json + "\n")
        .map_err(|e| format!("cannot write {}: {e}", report_path.display()))?;

    let violations = outcome.violations().count();
    let allowed = outcome.findings.len() - violations;
    println!(
        "lint: {} files scanned, {} violation(s), {} allowed finding(s), \
         {} stale allowlist entr(ies), {} stale path prefix(es), report: {}",
        outcome.files_scanned,
        violations,
        allowed,
        outcome.stale_allows.len(),
        outcome.stale_paths.len(),
        report_path.display()
    );
    Ok(if outcome.passes() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_check_protocol(mut args: Vec<String>) -> Result<ExitCode, String> {
    let max_cores = match take_value(&mut args, "--max-cores")? {
        Some(v) => v
            .parse::<usize>()
            .ok()
            .filter(|n| (1..=32).contains(n))
            .ok_or_else(|| format!("--max-cores wants 1..=32, got `{v}`"))?,
        None => 16,
    };
    let json_path = take_value(&mut args, "--json")?.map(PathBuf::from);
    if let Some(stray) = args.first() {
        return Err(format!("unknown check-protocol option `{stray}`"));
    }

    let report = protocol::check(max_cores);
    print!("{}", protocol::render(&report));
    if let Some(path) = json_path {
        let doc = protocol::to_json(&report);
        let json = serde_json::to_string_pretty(&doc).map_err(|e| format!("serialize: {e:?}"))?;
        std::fs::write(&path, json + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(if report.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    }
    let command = args.remove(0);
    let result = match command.as_str() {
        "lint" => cmd_lint(args),
        "check-protocol" => cmd_check_protocol(args),
        "--help" | "-h" | "help" => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("hllc-xtask: {message}");
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
