//! `perfbench --workload <forecast|sweep|replay> --seed <n> --seconds <s>
//! --trace <0|1>`: runs one workload and prints, as the last line of
//! standard output, `{"correct", "attempted", "failed", "metrics"}`.
//! Exits 1 if any op failed a check.
//!
//! `perfbench --manifest` prints the contents of `BENCHMARK.json`;
//! `--pins-out <file>` also writes this run's digests, in the format of
//! `perfbench/pins.json`.

use std::process::ExitCode;

use hllc_perfbench::catalog::{manifest, RUN_SECONDS};
use hllc_perfbench::workloads::{Plan, Workload};
use hllc_perfbench::{run, Pins};

const USAGE: &str = "usage: perfbench --workload <forecast|sweep|replay> --seed <n> \
                     [--seconds <s>] [--trace <0|1>] [--pins-out <file>] | --manifest";

struct Cli {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    pins_out: Option<String>,
}

fn parse(argv: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = RUN_SECONDS as f64;
    let mut traced = false;
    let mut pins_out = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload '{v}'"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse()
                        .map_err(|_| "--seed expects an integer".to_string())?,
                )
            }
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| "--seconds expects a number >= 0".to_string())?
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                }
            }
            "--pins-out" => pins_out = Some(value()?.clone()),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Cli {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        traced,
        pins_out,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--manifest") {
        println!(
            "{}",
            serde_json::to_string_pretty(&manifest()).expect("manifest serializes")
        );
        return ExitCode::SUCCESS;
    }
    let cli = match parse(&argv) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let threads = hybrid_llc::runner::default_threads();
    let out = run(
        cli.workload,
        cli.seed,
        cli.seconds,
        cli.traced,
        &Plan::full(threads),
        &Pins::builtin(),
    );
    for (name, value) in &out.metrics {
        let unit = hllc_perfbench::catalog::unit_of(name).unwrap_or("");
        eprintln!("{name:<24} {value:>16.6} {unit}");
    }
    for note in &out.notes {
        eprintln!("{note}");
    }
    for failure in &out.failures {
        eprintln!("FAILED {failure}");
    }
    if let Some(path) = &cli.pins_out {
        let mut pins = Pins::default();
        pins.0
            .entry(cli.workload.name().to_string())
            .or_default()
            .insert(cli.seed, out.digests.clone());
        let text = serde_json::to_string_pretty(&pins.to_json()).expect("pins serialize");
        if let Err(e) = std::fs::write(path, text + "\n") {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!(
        "{}",
        serde_json::to_string(&out.result_json()).expect("result serializes")
    );
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
