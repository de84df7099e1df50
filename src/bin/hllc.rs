//! `hllc` — command-line front-end for the hybrid-LLC simulator.
//!
//! ```text
//! hllc policies                          list the insertion policies
//! hllc mixes                             list the Table V workloads
//! hllc spec --preset paper               print (or --dump) an experiment spec
//! hllc run      --policy cp_sd --mix 1   one simulation phase, cache stats
//! hllc run      --spec specs/paper.json  the same, from a spec file or preset
//! hllc forecast --policy bh    --mix 1   age the NVM part to 50% capacity
//! hllc compare  --mix 1 --jobs 4         all policies side by side, in parallel
//! hllc sweep    --policies bh,cp_sd --way-splits 4/12,3/13 --nvm-latency 1.0,1.5
//! hllc record   --mix 1 --out m1.trc     capture a live run into a trace file
//! hllc run      --trace m1.trc           rerun the recording (bit-identical)
//! hllc trace-info m1.trc                 inspect and verify a trace file
//! ```

// The lints this crate denies (DESIGN §12.1).
#![deny(clippy::disallowed_types, clippy::wildcard_enum_match_arm)]

use std::io::{self, Write};
use std::process::ExitCode;

use hybrid_llc::cli::{
    parse_args, parse_policy, parse_record_args, parse_spec_args, parse_sweep_args,
    parse_trace_info_args, Args, RecordArgs, SpecArgs, SweepArgs,
};
use hybrid_llc::config::ExperimentSpec;
use hybrid_llc::forecast::{Forecast, ForecastConfig};
use hybrid_llc::runner::{report_json, run_indexed, run_sweep};
use hybrid_llc::session::{
    live_session, record_session, recording_header, replay_session_sized, stats_json, SessionStats,
};
use hybrid_llc::sim::{EnergyBreakdown, Op};
use hybrid_llc::trace::mixes;
use hybrid_llc::traceio::{create_trace, open_trace, Chunk, TraceData, VERSION};
use serde_json::Value;

/// Why a command stopped: a message for stderr, or a failed write to
/// stdout (a closed pipe, a full disk).
enum Failure {
    Msg(String),
    Stdout(io::Error),
}

impl From<String> for Failure {
    fn from(e: String) -> Self {
        Failure::Msg(e)
    }
}

/// `println!` that ends the command on a failed write to stdout instead of
/// panicking.
macro_rules! say {
    ($($arg:tt)*) => {
        writeln!(io::stdout(), $($arg)*).map_err(Failure::Stdout)?
    };
}

fn cmd_policies() -> Result<(), Failure> {
    say!("available insertion policies (Table III):");
    for (flag, desc) in [
        (
            "bh",
            "baseline hybrid: global LRU, NVM-unaware, frame-disabling",
        ),
        ("bh_cp", "BH + compression: global Fit-LRU, byte-disabling"),
        ("ca", "naive compression-aware, CP_th = 58"),
        ("ca_rwr", "compression + read/write-reuse aware, CP_th = 58"),
        ("cp_sd", "CA_RWR + Set Dueling (the paper's proposal)"),
        ("cp_sd_th4", "CP_SD with the rule-based Th=4% knob"),
        ("cp_sd_th8", "CP_SD with the rule-based Th=8% knob"),
        ("lhybrid", "loop-block aware state of the art"),
        ("tap", "thrashing-aware state of the art"),
    ] {
        say!("  {flag:<10} {desc}");
    }
    Ok(())
}

fn cmd_mixes() -> Result<(), Failure> {
    say!("Table V workloads:");
    for m in mixes() {
        let names: Vec<&str> = m.apps.iter().map(|a| a.name).collect();
        say!("  {:<7} {}", m.name, names.join(", "));
    }
    Ok(())
}

fn cmd_spec(args: &SpecArgs) -> Result<(), Failure> {
    match &args.dump {
        Some(path) => {
            args.spec.store(path).map_err(|e| e.to_string())?;
            say!("spec written to {path}");
        }
        None => {
            write!(io::stdout(), "{}", args.spec.to_string_pretty()).map_err(Failure::Stdout)?
        }
    }
    Ok(())
}

fn print_stats(stats: &SessionStats, args: &Args) -> Result<(), Failure> {
    let s = stats.llc;
    let energy = EnergyBreakdown::of(&s, args.cycles(), args.spec.system_config().timing.freq_ghz);
    say!("  system IPC        {:.3}", stats.ipc);
    say!(
        "  LLC hit rate      {:.1}% ({} of {} requests)",
        100.0 * s.hit_rate(),
        s.hits,
        s.requests()
    );
    say!("  hits SRAM/NVM     {} / {}", s.sram_hits, s.nvm_hits);
    say!(
        "  inserts SRAM/NVM  {} / {} (migrations {})",
        s.sram_inserts,
        s.nvm_inserts,
        s.migrations
    );
    say!("  NVM bytes written {}", s.nvm_bytes_written);
    say!("  LLC energy        {:.2} mJ", energy.total_mj());
    if let Some(th) = stats.cp_th {
        say!("  Set Dueling CP_th {th}");
    }
    if let Some((total, retained)) = stats.dueling_epochs {
        say!("  dueling epochs    {total} ({retained} retained)");
    }
    Ok(())
}

/// A session's stats as sorted-key JSON: what `run --json` prints and
/// `record --json` writes, so a replay diffs against its recording.
fn stats_text(policy: &str, workload: &str, stats: &SessionStats) -> Result<String, String> {
    serde_json::to_string_pretty(&stats_json(policy, workload, stats))
        .map_err(|e| format!("serializing stats: {e}"))
}

/// Runs `args`' experiment: a replay of its recording, else live. A replay
/// sizes blocks from `sizes`, the recording's table when the caller built
/// it already, and also returns how many size lookups the recording could
/// not serve ([`TraceData::fallbacks`]).
fn session(args: &Args, sizes: Option<TraceData>) -> Result<(SessionStats, u64), String> {
    match &args.trace {
        Some(t) => {
            let mut data = sizes.unwrap_or_else(|| TraceData::from_content(&t.content));
            let stats = replay_session_sized(&t.content, &args.spec, args.policy(), &mut data)?;
            Ok((stats, data.fallbacks()))
        }
        None => Ok((live_session(args), 0)),
    }
}

/// Says on stderr, in one line, that replays sized blocks the recording
/// never sized, taking them as 64 B (as a `--policy bh` recording, which
/// sizes no block, does under every compressing policy). `fallbacks` pairs
/// each replayed policy with its count; nothing prints when all are 0.
fn note_fallbacks(fallbacks: &[(String, u64)]) {
    let missed: Vec<String> = fallbacks
        .iter()
        .filter(|(_, n)| *n > 0)
        .map(|(policy, n)| format!("{policy} {n}"))
        .collect();
    if missed.is_empty() {
        return;
    }
    let total: u64 = fallbacks.iter().map(|(_, n)| n).sum();
    // A closed stderr loses the note, not the command.
    let _ = writeln!(
        io::stderr(),
        "note: {total} block-size lookups found no size in the recording and took 64 B, \
         as incompressible ({})",
        missed.join(", ")
    );
}

/// The workload `args` runs: the recording's label, else the mix's name.
fn workload(args: &Args) -> String {
    match &args.trace {
        Some(t) => t.content.header.workload.clone(),
        None => mixes()[args.mix_index()].name.to_string(),
    }
}

fn cmd_run(args: &Args) -> Result<(), Failure> {
    if !args.json {
        let action = match &args.trace {
            Some(t) => format!(
                "replaying {} ({} accesses, recorded under {})",
                t.path,
                t.content.accesses.len(),
                t.content.header.policy
            ),
            None => format!("running {}", workload(args)),
        };
        say!(
            "{action} under {} for {:.1}M cycles...",
            args.policy().name(),
            args.cycles() / 1e6
        );
    }
    let (stats, fallbacks) = session(args, None)?;
    note_fallbacks(&[(args.policy().name(), fallbacks)]);
    if args.json {
        // Sorted-key JSON only — the golden determinism tests diff this
        // output byte for byte, so nothing else may reach stdout.
        say!(
            "{}",
            stats_text(&args.policy().name(), &workload(args), &stats)?
        );
    } else {
        print_stats(&stats, args)?;
    }
    Ok(())
}

fn cmd_record(args: &RecordArgs) -> Result<(), Failure> {
    let header = recording_header(&args.run, args.cores);
    let writer = create_trace(&args.out, &header).map_err(|e| format!("{}: {e}", args.out))?;
    say!(
        "recording {} under {} for {:.1}M cycles on {} cores -> {} ...",
        header.workload,
        header.policy,
        args.run.cycles() / 1e6,
        header.cores,
        args.out
    );
    let (stats, _) = record_session(&args.run, args.cores, writer)?;
    // Files first, so a closed stdout cannot lose them.
    if let Some(path) = &args.json {
        let text = stats_text(&header.policy, &header.workload, &stats)?;
        std::fs::write(path, text + "\n").map_err(|e| format!("writing {path}: {e}"))?;
    }
    print_stats(&stats, &args.run)?;
    if let Some(path) = &args.json {
        say!("stats written to {path}");
    }
    say!("trace written to {}", args.out);
    Ok(())
}

fn cmd_trace_info(path: &str) -> Result<(), Failure> {
    let mut reader = open_trace(path).map_err(|e| format!("{path}: {e}"))?;
    let h = reader.header().clone();
    say!("{path}:");
    say!("  format        HLLCTRC (reader v{VERSION})");
    say!("  cores         {}", h.cores);
    say!("  workload      {} (mix {})", h.workload, h.mix);
    say!("  policy        {}", h.policy);
    say!("  seed          {}", h.seed);
    say!("  llc sets      {}", h.sets);
    say!("  cycle budget  {:.1}M", h.cycles / 1e6);
    match &h.spec_json {
        Some(text) => match ExperimentSpec::from_str(text) {
            Ok(spec) => say!("  spec          embedded ('{}', v2 header)", spec.name),
            Err(e) => say!("  spec          embedded but unreadable: {e}"),
        },
        None => say!("  spec          none (v1 header)"),
    }
    let mut chunks = 0u64;
    let mut sizes = 0u64;
    let mut stores = 0u64;
    let mut per_core = vec![0u64; usize::from(h.cores)];
    loop {
        match reader.next_chunk() {
            Ok(None) => break,
            Ok(Some(Chunk::Accesses(v))) => {
                chunks += 1;
                for a in &v {
                    per_core[usize::from(a.core)] += 1;
                    stores += u64::from(a.op == Op::Store);
                }
            }
            Ok(Some(Chunk::Sizes(v))) => {
                chunks += 1;
                sizes += v.len() as u64;
            }
            Err(e) => return Err(format!("{path}: {e}").into()),
        }
    }
    let accesses: u64 = per_core.iter().sum();
    say!("  chunks        {chunks}");
    say!("  accesses      {accesses} ({stores} stores)");
    for (core, n) in per_core.iter().enumerate() {
        say!("    core {core}      {n}");
    }
    say!("  block sizes   {sizes}");
    Ok(())
}

fn cmd_forecast(args: &Args) -> Result<(), Failure> {
    let mix = &mixes()[args.mix_index()];
    say!(
        "forecasting {} under {} (spec '{}', mu={:.0e} writes/frame)...",
        mix.name,
        args.policy().name(),
        args.spec.name,
        args.spec.hybrid.endurance_mean,
    );
    let series = Forecast::new(ForecastConfig::from_spec(&args.spec).with_policy(args.policy()))
        .run(mix, args.seed());
    say!("{:>10} {:>10} {:>8}", "time [h]", "capacity", "IPC");
    for p in &series.points {
        say!(
            "{:>10.2} {:>9.1}% {:>8.3}",
            p.time_seconds / 3600.0,
            p.capacity * 100.0,
            p.ipc
        );
    }
    match series.lifetime_seconds(0.5) {
        Some(s) => {
            let (mu, frames) = args.spec.paper_time_scale();
            say!(
                "=> 50% capacity after {:.2} simulated hours (~{:.0} at paper scale)",
                s / 3600.0,
                mu * frames * s / 3600.0
            )
        }
        None => say!("=> never reached 50% capacity (SRAM-only or idle NVM)"),
    }
    Ok(())
}

fn cmd_compare(args: &Args) -> Result<(), Failure> {
    let workload = match &args.trace {
        Some(t) => format!("{} (trace {})", workload(args), t.path),
        None => workload(args),
    };
    say!(
        "comparing all policies on {} ({:.1}M cycles each)...\n",
        workload,
        args.cycles() / 1e6
    );
    // One job per policy; every job uses the same seed as the serial loop
    // did, and rows print in job order, so --jobs only changes wall-clock.
    let policies: Vec<_> = [
        "bh",
        "bh_cp",
        "ca",
        "ca_rwr",
        "cp_sd",
        "cp_sd_th8",
        "lhybrid",
        "tap",
    ]
    .iter()
    .map(|p| parse_policy(p).unwrap())
    .collect();
    let width = policies
        .iter()
        .fold("policy".len(), |w, p| w.max(p.name().len()));
    say!(
        "{:<width$} {:>8} {:>10} {:>14} {:>12}",
        "policy",
        "IPC",
        "LLC hit%",
        "NVM bytes",
        "energy [mJ]"
    );
    // A replay builds the recording's size table once and clones it per job.
    let sizes = args
        .trace
        .as_ref()
        .map(|t| TraceData::from_content(&t.content));
    let rows = run_indexed(policies, args.jobs, |_, policy| {
        let mut job_args = args.clone();
        job_args.spec.hybrid.policy = policy.label();
        let (stats, fallbacks) = session(&job_args, sizes.clone())?;
        let e = EnergyBreakdown::of(
            &stats.llc,
            args.cycles(),
            args.spec.system_config().timing.freq_ghz,
        );
        let row = format!(
            "{:<width$} {:>8.3} {:>9.1}% {:>14} {:>12.2}",
            policy.name(),
            stats.ipc,
            100.0 * stats.llc.hit_rate(),
            stats.llc.nvm_bytes_written,
            e.total_mj()
        );
        Ok::<_, String>((row, (policy.name(), fallbacks)))
    });
    let mut fallbacks = Vec::new();
    for row in rows {
        let (row, missed) = row?;
        say!("{row}");
        fallbacks.push(missed);
    }
    note_fallbacks(&fallbacks);
    Ok(())
}

fn cmd_sweep(args: &SweepArgs) -> Result<(), Failure> {
    let spec = &args.grid;
    if let (Some(content), Some(path)) = (&spec.trace, &args.trace) {
        say!(
            "replaying trace {path} ({} accesses, {}) in every job, for its mix",
            content.accesses.len(),
            content.header.workload
        );
    }
    say!("sweeping {} policies x {} capacities x {} way splits x {} latencies x {} mixes x {} seeds = {} jobs on {} threads...",
        spec.policies.len(),
        spec.capacities.len(),
        spec.way_splits.len(),
        spec.nvm_latency_factors.len(),
        spec.mixes.len(),
        spec.seeds,
        spec.job_count(),
        spec.threads,
    );
    let report = run_sweep(spec);
    let fallbacks: Vec<(String, u64)> = spec
        .policies
        .iter()
        .map(|(label, policy)| {
            let jobs = report.results.iter().filter(|r| &r.policy == label);
            (policy.name(), jobs.map(|r| r.fallbacks).sum())
        })
        .collect();
    let report = report_json(&report);
    // The report file first, so a closed stdout cannot lose it.
    if let Some(path) = &args.json {
        let text = serde_json::to_string_pretty(&report)
            .map_err(|e| format!("serializing report: {e}"))?;
        std::fs::write(path, text + "\n").map_err(|e| format!("writing {path}: {e}"))?;
    }

    let width = spec
        .policies
        .iter()
        .fold("policy".len(), |w, (label, _)| w.max(label.len()));
    say!(
        "\n{:<width$} {:>9} {:>8} {:>10} {:>14}",
        "policy",
        "capacity",
        "IPC",
        "LLC hit%",
        "NVM bytes"
    );
    let cells = report.get("summary").and_then(Value::as_array);
    for cell in cells.into_iter().flatten() {
        let number = |key| cell.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN);
        let label = cell
            .get("policy")
            .and_then(Value::as_str)
            .unwrap_or_default();
        let bytes = cell.get("total_nvm_bytes_written").and_then(Value::as_u64);
        say!(
            "{label:<width$} {:>9.2} {:>8.3} {:>9.1}% {:>14}",
            number("capacity"),
            number("mean_ipc"),
            100.0 * number("mean_hit_rate"),
            bytes.unwrap_or_default()
        );
    }
    note_fallbacks(&fallbacks);

    if let Some(path) = &args.json {
        say!("\nreport written to {path}");
    }
    Ok(())
}

fn cmd_figures() -> Result<(), Failure> {
    say!("paper tables and figures are regenerated by bench targets:");
    for (bench, what) in [
        ("table1", "Table I  — BDI compression encodings"),
        ("table3", "Table III — policy taxonomy"),
        ("table4", "Table IV — system specification"),
        ("table5", "Table V  — workload mixes"),
        ("fig2", "Figure 2  — per-app compressibility"),
        ("fig6", "Figure 6  — hit rate vs CP_th"),
        ("fig7", "Figure 7  — NVM bytes vs CP_th"),
        ("fig8a", "Figure 8a — optimal CP_th vs capacity"),
        ("fig8b", "Figure 8b — optimal CP_th per mix"),
        ("fig9", "Figure 9  — Th/Tw trade-off"),
        ("fig10a", "Figure 1/10a — performance vs lifetime"),
        ("fig10b", "Figure 10b — 3/13 way split"),
        ("fig10c", "Figure 10c — cv = 0.25"),
        ("fig11a", "Figure 11a — L2 doubled"),
        ("fig11b", "Figure 11b — NVM latency x1.5"),
        ("fig11c", "Figure 11c — equal storage cost"),
        ("energy", "extension — LLC energy"),
        ("variability", "extension — seed noise floor"),
        ("ablation_fit_lru", "ablation — Fit-LRU"),
        ("ablation_epoch", "ablation — dueling epoch"),
        ("ablation_compressor", "ablation — BDI vs FPC"),
        ("ablation_memory", "ablation — DRAM model"),
        ("micro", "Criterion microbenches"),
    ] {
        say!("  cargo bench -p hllc-bench --bench {bench:<20} # {what}");
    }
    Ok(())
}

fn usage() -> String {
    format!(
        "usage: hllc <policies|mixes|figures|spec|run|forecast|compare|sweep|record|trace-info> \
        [--spec file|preset] [--policy P] [--mix 1..10] [--cycles N] [--seed S] [--jobs N] [--trace f.trc] [--json]\n\
        \x20      hllc spec [--preset name] [--dump out.json]           (presets: {})\n\
        \x20      hllc sweep [--spec file|preset] [--policies a,b] [--mixes 1,2] [--seeds K] [--capacities 1.0,0.7] \
        [--way-splits 4/12,3/13] [--nvm-latency 1.0,1.5] [--sets N] [--json out.json] [--trace f.trc]\n\
        \x20      hllc record --out f.trc [--cores N] [--json stats.json] [run flags]\n\
        \x20      hllc run --trace f.trc [--policy P] [--cycles N] [--spec file|preset] [--json]  \
        (default: the recording's own experiment)\n\
        \x20      hllc trace-info f.trc",
        ExperimentSpec::preset_names().join(", ")
    )
}

/// Runs `cmd` with the arguments `rest`.
fn dispatch(cmd: &str, rest: &[String]) -> Result<(), Failure> {
    match cmd {
        "policies" => cmd_policies(),
        "mixes" => cmd_mixes(),
        "figures" => cmd_figures(),
        "spec" => cmd_spec(&parse_spec_args(rest)?),
        "forecast" if rest.iter().any(|a| a == "--trace") => Err(
            "forecast alternates synthetic phases; --trace is not supported"
                .to_string()
                .into(),
        ),
        "run" => cmd_run(&parse_args(rest)?),
        "compare" => cmd_compare(&parse_args(rest)?),
        "forecast" => cmd_forecast(&parse_args(rest)?),
        "sweep" => cmd_sweep(&parse_sweep_args(rest)?),
        "record" => cmd_record(&parse_record_args(rest)?),
        "trace-info" => cmd_trace_info(&parse_trace_info_args(rest)?),
        "-h" | "--help" | "help" => {
            say!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command '{other}'").into()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let outcome =
        dispatch(cmd, &argv[1..]).and_then(|()| io::stdout().flush().map_err(Failure::Stdout));
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        // A reader that stopped reading (`hllc ... | head`) wants no more.
        Err(Failure::Stdout(e)) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(Failure::Stdout(e)) => {
            eprintln!("error: writing to stdout: {e}");
            ExitCode::FAILURE
        }
        Err(Failure::Msg(e)) => {
            eprintln!("error: {e}\n{}", usage());
            ExitCode::FAILURE
        }
    }
}
