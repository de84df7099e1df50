//! `hllc-xtask` — the coherence-protocol state-space checker, run by
//! CI's `static-analysis` job.
//!
//! `cargo run -p hllc-xtask -- check-protocol` exhaustively enumerates the
//! coherence protocol's reachable state space (up to 16 cores' worth of
//! sharer-mask symmetry classes) and proves SWMR, no-stale-owner, and
//! exact transition-table coverage. The workspace lints are clippy's
//! (DESIGN §12.1).
//!
//! Exit codes: 0 clean, 1 invariant failures, 2 usage errors.

mod protocol;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: cargo run -p hllc-xtask -- <command> [options]

commands:
  check-protocol   enumerate the coherence-protocol state space
      --max-cores <n>   largest core count to enumerate (default: 16)
      --json <path>     also write a machine-readable report
";

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
