//! Command-line parsing for the `hllc` binary, split out of the binary so
//! the flag grammar is unit-testable.
//!
//! Every command resolves one [`ExperimentSpec`] — `--spec <file|preset>`
//! if given, else the experiment a `--trace` recording was made under,
//! else the `scaled` preset — and the familiar flags (`--policy`, `--mix`,
//! `--cycles`, `--seed`, `--sets`, the sweep axes) are edits applied on
//! top of it. The final spec is validated once, and a recording must fit
//! it ([`check_replay`]), so every command reports the same structured
//! errors for the same mistakes.

use std::sync::Arc;

use hllc_config::ExperimentSpec;
use hllc_core::Policy;
use hllc_runner::SweepSpec;
use hllc_traceio::{check_replay, load_trace, trace_spec, TraceContent};

/// Parses a policy flag value into a [`Policy`] (Table III aliases plus
/// the parameterized spellings, e.g. `cp_sd_th4`, `ca_cpth40`, `tap_h5`).
pub fn parse_policy(name: &str) -> Option<Policy> {
    Policy::parse(name)
}

/// [`parse_policy`], with an error naming an unknown policy.
fn policy_arg(name: &str) -> Result<Policy, String> {
    parse_policy(name).ok_or_else(|| format!("unknown policy '{name}' (try `hllc policies`)"))
}

/// Arguments of `hllc run|forecast|compare`.
#[derive(Clone, Debug)]
pub struct Args {
    /// The resolved experiment: its base (see [`parse_args`]) with the flag
    /// edits applied.
    pub spec: ExperimentSpec,
    /// Worker threads (`compare` only; results are independent of it).
    pub jobs: usize,
    /// Recording replacing the synthetic mix (`run`/`compare` only).
    pub trace: Option<TraceArg>,
    /// Print the stats as sorted-key JSON instead of the human summary
    /// (`run` only) — the output the golden determinism tests diff.
    pub json: bool,
}

/// A `--trace` recording, loaded once every flag has been checked.
#[derive(Clone, Debug)]
pub struct TraceArg {
    /// The file it was loaded from.
    pub path: String,
    /// Its verified content.
    pub content: Arc<TraceContent>,
}

impl Args {
    /// The parsed insertion policy.
    pub fn policy(&self) -> Policy {
        self.spec.policy()
    }

    /// The 0-based Table V mix index.
    pub fn mix_index(&self) -> usize {
        self.spec.mix_index()
    }

    /// The measured cycle budget.
    pub fn cycles(&self) -> f64 {
        self.spec.run.cycles
    }

    /// The base seed.
    pub fn seed(&self) -> u64 {
        self.spec.workload.seed
    }

    /// An `Args` over the `scaled` preset with the common overrides — the
    /// constructor tests and benches use.
    pub fn scaled(policy: Policy, mix_index: usize, cycles: f64, seed: u64) -> Args {
        let mut spec = ExperimentSpec::preset("scaled").expect("builtin preset");
        spec.hybrid.policy = policy.label();
        spec.workload.mix = mix_index + 1;
        spec.run.cycles = cycles;
        spec.workload.seed = seed;
        spec.validate().expect("scaled preset with test overrides");
        Args {
            spec,
            jobs: 1,
            trace: None,
            json: false,
        }
    }
}

/// The value of the last `flag` in `argv`, if any.
fn flag_value(argv: &[String], flag: &str) -> Result<Option<String>, String> {
    let mut found = None;
    let mut it = argv.iter();
    while let Some(f) = it.next() {
        if f == flag {
            found = Some(it.next().ok_or(format!("{flag} needs a value"))?.clone());
        }
    }
    Ok(found)
}

/// Resolves a command's experiment through `edit`, which applies every
/// flag but `--spec` and `--trace` to a base spec. The base is `--spec`
/// (a preset name or file path) if given, else the `--trace` recording's
/// own experiment ([`trace_spec`]), else the `scaled` preset. `edit` first
/// runs on `--spec` or the preset, so flag errors come before the trace is
/// opened; it runs again on the recording's spec when that is the base.
fn resolve<T>(
    argv: &[String],
    edit: impl Fn(ExperimentSpec) -> Result<T, String>,
) -> Result<(T, Option<TraceArg>), String> {
    let spec = flag_value(argv, "--spec")?
        .map(|arg| ExperimentSpec::resolve(&arg).map_err(|e| e.to_string()))
        .transpose()?;
    let explicit = spec.is_some();
    let edited =
        edit(spec.unwrap_or_else(|| ExperimentSpec::preset("scaled").expect("builtin preset")))?;
    let Some(path) = flag_value(argv, "--trace")? else {
        return Ok((edited, None));
    };
    let content = load_trace(&path).map_err(|e| format!("{path}: {e}"))?;
    let edited = if explicit {
        edited
    } else {
        edit(trace_spec(&content)?)?
    };
    let content = Arc::new(content);
    Ok((edited, Some(TraceArg { path, content })))
}

/// Parses the flags of `hllc run|forecast|compare`: `--policy`, `--mix`,
/// `--cycles` and `--seed` edit the base experiment (the `--spec` preset
/// or file, else a `--trace` recording's own, else `scaled`), exactly as
/// they edit a live run's. A `--trace` recording must pass
/// [`check_replay`] on the result.
pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut args, trace) = resolve(argv, |spec| edit_run(argv, spec))?;
    if let Some(t) = &trace {
        check_replay(&t.content, &args.spec)?;
    }
    args.trace = trace;
    Ok(args)
}

/// Applies the `run|forecast|compare` flags to `spec`.
fn edit_run(argv: &[String], spec: ExperimentSpec) -> Result<Args, String> {
    let mut args = Args {
        spec,
        jobs: hllc_runner::default_threads(),
        trace: None,
        json: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--spec" | "--trace" => {
                value()?; // read by resolve
            }
            "--policy" => {
                let v = value()?;
                policy_arg(v)?;
                args.spec.hybrid.policy = v.clone();
            }
            "--mix" => {
                let v: usize = value()?
                    .parse()
                    .map_err(|_| "--mix expects 1..10".to_string())?;
                if !(1..=10).contains(&v) {
                    return Err("--mix expects 1..10".into());
                }
                args.spec.workload.mix = v;
            }
            "--cycles" => args.spec.run.cycles = parse_cycles(value()?)?,
            "--seed" => args.spec.workload.seed = parse_seed(value()?)?,
            "--jobs" => args.jobs = parse_jobs(value()?)?,
            "--json" => args.json = true,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    args.spec.validate().map_err(|e| e.to_string())?;
    Ok(args)
}

/// Arguments of `hllc sweep`.
#[derive(Clone, Debug)]
pub struct SweepArgs {
    /// The grid the flags describe: the base spec (whose `workload.seed`
    /// is the base seed), the axes, the cycle windows, the worker threads
    /// and the recording every job replays, if any.
    pub grid: SweepSpec,
    /// Where to write the JSON report, if anywhere.
    pub json: Option<String>,
    /// The file `grid.trace` was loaded from.
    pub trace: Option<String>,
}

/// Parses the flags of `hllc sweep`: the axes and `--sets`, `--seed` and
/// `--cycles` edit the base experiment (picked as [`parse_args`] picks
/// it), and the grid must pass [`SweepSpec::validate`].
pub fn parse_sweep_args(argv: &[String]) -> Result<SweepArgs, String> {
    let ((mut grid, json), trace) = resolve(argv, |spec| edit_sweep(argv, spec))?;
    if let Some(t) = &trace {
        // A recording holds one mix's references: the mix axis is that mix.
        grid.mixes = vec![trace_spec(&t.content)?.mix_index()];
        grid.trace = Some(Arc::clone(&t.content));
    }
    grid.validate()?;
    Ok(SweepArgs {
        grid,
        json,
        trace: trace.map(|t| t.path),
    })
}

/// Applies the `sweep` flags to `spec`: the grid and the report path.
fn edit_sweep(
    argv: &[String],
    spec: ExperimentSpec,
) -> Result<(SweepSpec, Option<String>), String> {
    // The axes default to the base spec's point (no other flag moves it).
    // A recording's sweep runs the base's own budget, a live one 2e5 cycles.
    let traced = flag_value(argv, "--trace")?.is_some();
    let mut grid = SweepSpec {
        policies: parse_policy_list("bh,cp_sd").unwrap(),
        mixes: vec![0, 1, 2, 3],
        seeds: 1,
        capacities: vec![1.0],
        way_splits: vec![(spec.system.sram_ways, spec.system.nvm_ways)],
        nvm_latency_factors: vec![spec.system.nvm_latency_factor],
        base_seed: 0,
        warmup_cycles: 0.0,
        measure_cycles: if traced { spec.run.cycles } else { 2.0e5 },
        threads: hllc_runner::default_threads(),
        trace: None,
        spec,
    };
    let mut json = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--spec" | "--trace" => {
                value()?; // read by resolve
            }
            "--policies" => grid.policies = parse_policy_list(value()?)?,
            "--mixes" if traced => return Err(
                "--mixes does not combine with --trace: the sweep replays the recording's own mix"
                    .into(),
            ),
            "--mixes" => grid.mixes = parse_mix_list(value()?)?,
            "--seeds" => {
                grid.seeds = value()?
                    .parse()
                    .ok()
                    .filter(|&k: &usize| k >= 1)
                    .ok_or_else(|| "--seeds expects an integer >= 1".to_string())?;
            }
            "--capacities" => {
                let fraction = |f: f64| f > 0.0 && f <= 1.0;
                grid.capacities = parse_numbers(value()?, fraction)
                    .map_err(|c| format!("bad capacity '{c}' (expects a fraction in (0, 1])"))?;
            }
            "--way-splits" => grid.way_splits = parse_way_splits(value()?)?,
            "--nvm-latency" => {
                let positive = |x: f64| x.is_finite() && x > 0.0;
                grid.nvm_latency_factors = parse_numbers(value()?, positive)
                    .map_err(|f| format!("bad latency factor '{f}' (expects > 0)"))?;
            }
            "--jobs" => grid.threads = parse_jobs(value()?)?,
            "--cycles" => grid.measure_cycles = parse_cycles(value()?)?,
            "--seed" => grid.spec.workload.seed = parse_seed(value()?)?,
            "--sets" => {
                grid.spec.system.llc_sets = value()?
                    .parse()
                    .ok()
                    .filter(|&s: &usize| s >= 1)
                    .ok_or_else(|| "--sets expects an integer >= 1".to_string())?;
            }
            "--json" => json = Some(value()?.clone()),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    grid.base_seed = grid.spec.workload.seed;
    grid.warmup_cycles = grid.spec.run.warmup_cycles(grid.measure_cycles);
    // Checked, so an absurd `--seeds` cannot wrap the product past the cap.
    grid.checked_job_count()?;
    grid.spec.validate().map_err(|e| e.to_string())?;
    Ok((grid, json))
}

/// Parses a comma-separated list of numbers that pass `valid`; the error
/// is the first item that does not.
fn parse_numbers(v: &str, valid: impl Fn(f64) -> bool) -> Result<Vec<f64>, String> {
    v.split(',')
        .map(|x| {
            x.trim()
                .parse()
                .ok()
                .filter(|&f| valid(f))
                .ok_or_else(|| x.to_string())
        })
        .collect()
}

/// Parses a comma-separated way-split list, e.g. `4/12,3/13`.
fn parse_way_splits(v: &str) -> Result<Vec<(usize, usize)>, String> {
    let list: Vec<(usize, usize)> = v
        .split(',')
        .map(|pair| {
            let bad = || format!("bad way split '{pair}' (expects SRAM/NVM, e.g. 4/12)");
            let (s, n) = pair.trim().split_once('/').ok_or_else(bad)?;
            let s: usize = s.trim().parse().map_err(|_| bad())?;
            let n: usize = n.trim().parse().map_err(|_| bad())?;
            if s + n == 0 || s + n > hllc_config::MAX_WAYS {
                return Err(format!(
                    "bad way split '{pair}' (1 <= SRAM+NVM <= {})",
                    hllc_config::MAX_WAYS
                ));
            }
            Ok((s, n))
        })
        .collect::<Result<_, _>>()?;
    if list.is_empty() {
        return Err("--way-splits expects at least one SRAM/NVM pair".into());
    }
    Ok(list)
}

/// Parses a `--cycles` value: the measured cycle budget of a run, a sweep
/// job or a replay, held to the `run.cycles` rule
/// ([`hllc_config::check_cycle_budget`], at most `MAX_CYCLES`).
fn parse_cycles(v: &str) -> Result<f64, String> {
    let rule = |why: String| format!("invalid --cycles '{v}': run.cycles {why}");
    let cycles = v
        .parse()
        .map_err(|_| rule("must be a finite positive cycle count".into()))?;
    hllc_config::check_cycle_budget(cycles).map_err(rule)
}

fn parse_seed(v: &str) -> Result<u64, String> {
    v.parse()
        .map_err(|_| "--seed expects an integer".to_string())
}

fn parse_jobs(v: &str) -> Result<usize, String> {
    v.parse()
        .ok()
        .filter(|&n: &usize| n >= 1)
        .ok_or_else(|| "--jobs expects an integer >= 1".to_string())
}

/// Arguments of `hllc record`.
#[derive(Clone, Debug)]
pub struct RecordArgs {
    /// The live run to capture (policy, mix, cycles, seed).
    pub run: Args,
    /// Cores to record — the first N streams of the mix.
    pub cores: usize,
    /// Trace file to write.
    pub out: String,
    /// Where to write the live run's stats JSON, if anywhere.
    pub json: Option<String>,
}

/// Parses the flags of `hllc record`: the `run` flags plus `--cores N`,
/// a required `--out <file>`, and an optional `--json <file>`.
pub fn parse_record_args(argv: &[String]) -> Result<RecordArgs, String> {
    let mut cores = 4usize;
    let mut out: Option<String> = None;
    let mut json: Option<String> = None;
    let mut rest: Vec<String> = Vec::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--cores" => {
                cores = it
                    .next()
                    .ok_or_else(|| "--cores needs a value".to_string())?
                    .parse()
                    .ok()
                    .filter(|&c: &usize| (1..=hllc_config::MAX_CORES).contains(&c))
                    .ok_or_else(|| format!("--cores expects 1..{}", hllc_config::MAX_CORES))?;
            }
            "--out" => out = Some(it.next().ok_or("--out needs a value")?.clone()),
            "--json" => json = Some(it.next().ok_or("--json needs a value")?.clone()),
            "--trace" => return Err("record captures a live run; it does not take --trace".into()),
            _ => rest.push(flag.clone()),
        }
    }
    Ok(RecordArgs {
        run: parse_args(&rest)?,
        cores,
        out: out.ok_or_else(|| "record requires --out <file>".to_string())?,
        json,
    })
}

/// Arguments of `hllc spec`.
#[derive(Clone, Debug)]
pub struct SpecArgs {
    /// The resolved spec (`--preset`/`--spec`; default `scaled`).
    pub spec: ExperimentSpec,
    /// Where to write the spec as pretty JSON instead of stdout.
    pub dump: Option<String>,
}

/// Parses the flags of `hllc spec`: `--preset <name>` (or `--spec
/// <file|preset>`) plus an optional `--dump <file>`.
pub fn parse_spec_args(argv: &[String]) -> Result<SpecArgs, String> {
    let mut spec: Option<ExperimentSpec> = None;
    let mut dump: Option<String> = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--preset" | "--spec" => {
                spec = Some(ExperimentSpec::resolve(value()?).map_err(|e| e.to_string())?);
            }
            "--dump" => dump = Some(value()?.clone()),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(SpecArgs {
        spec: match spec {
            Some(s) => s,
            None => ExperimentSpec::preset("scaled").expect("builtin preset"),
        },
        dump,
    })
}

/// Parses `hllc trace-info <file>`: exactly one path.
pub fn parse_trace_info_args(argv: &[String]) -> Result<String, String> {
    match argv {
        [path] if !path.starts_with("--") => Ok(path.clone()),
        _ => Err("trace-info expects exactly one trace file".into()),
    }
}

/// Parses a comma-separated policy list, keeping the flag spelling as label.
fn parse_policy_list(v: &str) -> Result<Vec<(String, Policy)>, String> {
    let list: Vec<(String, Policy)> = v
        .split(',')
        .map(|name| {
            let name = name.trim();
            policy_arg(name).map(|p| (name.to_string(), p))
        })
        .collect::<Result<_, _>>()?;
    if list.is_empty() {
        return Err("--policies expects at least one policy".into());
    }
    Ok(list)
}

/// Parses a comma-separated 1-based mix list into 0-based indices.
fn parse_mix_list(v: &str) -> Result<Vec<usize>, String> {
    let list: Vec<usize> = v
        .split(',')
        .map(|m| {
            m.trim()
                .parse::<usize>()
                .ok()
                .filter(|n| (1..=10).contains(n))
                .map(|n| n - 1)
                .ok_or_else(|| format!("bad mix '{m}' (expects 1..10)"))
        })
        .collect::<Result<_, _>>()?;
    if list.is_empty() {
        return Err("--mixes expects at least one mix".into());
    }
    Ok(list)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hllc_runner::MAX_SWEEP_JOBS;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn every_documented_alias_parses() {
        for alias in [
            "bh",
            "bh_cp",
            "bhcp",
            "ca",
            "ca_rwr",
            "carwr",
            "cp_sd",
            "cpsd",
            "cp_sd_th4",
            "cp_sd_th8",
            "lhybrid",
            "tap",
        ] {
            assert!(parse_policy(alias).is_some(), "alias '{alias}' rejected");
            assert!(
                parse_policy(&alias.to_uppercase()).is_some(),
                "'{alias}' not case-folded"
            );
        }
        assert!(parse_policy("nonsense").is_none());
    }

    #[test]
    fn cp_sd_th_accepts_any_threshold() {
        assert_eq!(parse_policy("cp_sd_th4"), Some(Policy::cp_sd_th(4.0)));
        assert_eq!(parse_policy("cp_sd_th8"), Some(Policy::cp_sd_th(8.0)));
        assert_eq!(parse_policy("cp_sd_th2"), Some(Policy::cp_sd_th(2.0)));
        assert_eq!(parse_policy("cp_sd_th16"), Some(Policy::cp_sd_th(16.0)));
        assert_eq!(parse_policy("CP_SD_TH0.5"), Some(Policy::cp_sd_th(0.5)));
    }

    #[test]
    fn cp_sd_th_rejects_malformed_thresholds() {
        for bad in [
            "cp_sd_th",
            "cp_sd_thx",
            "cp_sd_th-1",
            "cp_sd_th0",
            "cp_sd_th101",
            "cp_sd_thnan",
            "cp_sd_thinf",
            "cp_sd_th1e999",
            "cp_sd_th4%",
        ] {
            assert!(parse_policy(bad).is_none(), "'{bad}' accepted");
        }
    }

    #[test]
    fn alias_pairs_agree() {
        assert_eq!(parse_policy("bh_cp"), parse_policy("bhcp"));
        assert_eq!(parse_policy("ca_rwr"), parse_policy("carwr"));
        assert_eq!(parse_policy("cp_sd"), parse_policy("cpsd"));
    }

    #[test]
    fn parse_args_reads_every_flag() {
        let a = parse_args(&argv("--policy bh --mix 3 --cycles 5e5 --seed 7 --jobs 2")).unwrap();
        assert_eq!(a.policy(), Policy::Bh);
        assert_eq!(a.mix_index(), 2, "mixes are stored 1-based in the spec");
        assert_eq!(a.cycles(), 5.0e5);
        assert_eq!(a.seed(), 7);
        assert_eq!(a.jobs, 2);
    }

    #[test]
    fn parse_args_defaults_to_the_scaled_preset() {
        let a = parse_args(&[]).unwrap();
        assert_eq!(a.spec.name, "scaled");
        assert_eq!(a.spec.system.llc_sets, 512);
        assert_eq!(a.policy(), Policy::cp_sd());
        assert_eq!(a.cycles(), 2.0e6);
        assert_eq!(a.seed(), 42);
    }

    #[test]
    fn parse_args_resolves_spec_presets_with_flag_edits_on_top() {
        let a = parse_args(&argv("--spec waysplit-3-13 --policy bh --cycles 1e5")).unwrap();
        assert_eq!(a.spec.system.sram_ways, 3);
        assert_eq!(a.spec.system.nvm_ways, 13);
        assert_eq!(a.policy(), Policy::Bh, "flags edit the resolved spec");
        assert_eq!(a.cycles(), 1.0e5);
    }

    #[test]
    fn parse_args_reports_spec_errors() {
        let e = parse_args(&argv("--spec warp-speed")).unwrap_err();
        assert!(e.contains("warp-speed"), "{e}");
        let e = parse_args(&argv("--spec")).unwrap_err();
        assert!(e.contains("needs a value"), "{e}");
    }

    #[test]
    fn parse_args_rejects_out_of_range_mixes() {
        assert!(parse_args(&argv("--mix 0")).is_err());
        assert!(parse_args(&argv("--mix 11")).is_err());
        assert!(parse_args(&argv("--mix 1")).is_ok());
        assert!(parse_args(&argv("--mix 10")).is_ok());
    }

    #[test]
    fn parse_args_rejects_missing_values() {
        for flags in ["--policy", "--mix", "--cycles", "--seed", "--jobs"] {
            let e = parse_args(&argv(flags)).unwrap_err();
            assert!(e.contains("needs a value"), "'{flags}': {e}");
        }
    }

    #[test]
    fn parse_args_rejects_unknown_flags_and_bad_values() {
        assert!(parse_args(&argv("--frobnicate 3")).is_err());
        assert!(parse_args(&argv("--policy nonsense")).is_err());
        assert!(parse_args(&argv("--jobs 0")).is_err());
    }

    #[test]
    fn parse_sweep_args_reads_the_grid() {
        let a = parse_sweep_args(&argv(
            "--policies bh,cp_sd,tap --mixes 1,5,10 --seeds 3 --capacities 1.0,0.7 \
             --jobs 4 --cycles 1e5 --seed 9 --sets 256 --json out.json",
        ))
        .unwrap();
        assert_eq!(a.grid.policies.len(), 3);
        assert_eq!(a.grid.policies[2].0, "tap");
        assert_eq!(a.grid.mixes, vec![0, 4, 9]);
        assert_eq!(a.grid.seeds, 3);
        assert_eq!(a.grid.capacities, vec![1.0, 0.7]);
        assert_eq!(a.grid.threads, 4);
        assert_eq!(a.grid.measure_cycles, 1.0e5);
        assert_eq!(a.grid.spec.workload.seed, 9);
        assert_eq!(a.grid.spec.system.llc_sets, 256);
        assert_eq!(a.json.as_deref(), Some("out.json"));
    }

    #[test]
    fn parse_sweep_args_reads_the_new_axes() {
        let a = parse_sweep_args(&argv("--way-splits 4/12,3/13 --nvm-latency 1.0,1.5")).unwrap();
        assert_eq!(a.grid.way_splits, vec![(4, 12), (3, 13)]);
        assert_eq!(a.grid.nvm_latency_factors, vec![1.0, 1.5]);
        // Defaults mirror the base spec: a singleton per axis.
        let d = parse_sweep_args(&[]).unwrap();
        assert_eq!(d.grid.way_splits, vec![(4, 12)]);
        assert_eq!(d.grid.nvm_latency_factors, vec![1.0]);
    }

    #[test]
    fn parse_sweep_args_rejects_bad_grids() {
        assert!(parse_sweep_args(&argv("--mixes 0")).is_err());
        assert!(parse_sweep_args(&argv("--mixes 11")).is_err());
        assert!(parse_sweep_args(&argv("--policies nope")).is_err());
        assert!(parse_sweep_args(&argv("--seeds 0")).is_err());
        assert!(parse_sweep_args(&argv("--capacities 1.5")).is_err());
        let e = parse_sweep_args(&argv("--capacities 0")).unwrap_err();
        assert_eq!(e, "bad capacity '0' (expects a fraction in (0, 1])");
        assert!(parse_sweep_args(&argv("--way-splits 9/9")).is_err());
        assert!(parse_sweep_args(&argv("--way-splits 4-12")).is_err());
        assert!(parse_sweep_args(&argv("--nvm-latency 0")).is_err());
        assert!(
            parse_sweep_args(&argv("--sets 500")).is_err(),
            "not a power of two"
        );
        assert!(parse_sweep_args(&argv("--json")).is_err());
    }

    #[test]
    fn zero_jobs_are_rejected_everywhere() {
        let e = parse_args(&argv("--jobs 0")).unwrap_err();
        assert!(e.contains(">= 1"), "unclear error: {e}");
        let e = parse_sweep_args(&argv("--jobs 0")).unwrap_err();
        assert!(e.contains(">= 1"), "unclear error: {e}");
        assert!(parse_args(&argv("--jobs -1")).is_err());
        assert!(parse_sweep_args(&argv("--jobs many")).is_err());
        assert!(parse_args(&argv("--jobs 1")).is_ok());
        assert!(parse_sweep_args(&argv("--jobs 1")).is_ok());
    }

    #[test]
    fn cycles_must_be_finite_and_positive_everywhere() {
        for bad in ["nan", "inf", "-inf", "-5", "0", "-0", "lots"] {
            let flags = format!("--cycles {bad}");
            // A missing trace file: flag errors come before it is opened.
            let traced = format!("--trace missing.trc {flags}");
            for e in [
                parse_args(&argv(&flags)).unwrap_err(),
                parse_sweep_args(&argv(&flags)).unwrap_err(),
                parse_args(&argv(&traced)).unwrap_err(),
                parse_sweep_args(&argv(&traced)).unwrap_err(),
            ] {
                assert!(
                    e.contains("--cycles") && e.contains("run.cycles"),
                    "{bad}: {e}"
                );
            }
        }
        assert_eq!(parse_args(&argv("--cycles 1e-3")).unwrap().cycles(), 1e-3);
        assert_eq!(
            parse_sweep_args(&argv("--cycles 5e4"))
                .unwrap()
                .grid
                .measure_cycles,
            5e4
        );
        let e = parse_args(&argv("--trace missing.trc --cycles 7")).unwrap_err();
        assert!(
            e.starts_with("missing.trc: "),
            "good flags, then the trace: {e}"
        );
    }

    #[test]
    fn sweep_job_count_is_capped() {
        let at_cap = format!("--policies bh --mixes 1 --seeds {MAX_SWEEP_JOBS}");
        assert_eq!(
            parse_sweep_args(&argv(&at_cap)).unwrap().grid.seeds,
            MAX_SWEEP_JOBS
        );
        let over = format!(
            "--policies bh,tap --mixes 1 --seeds {}",
            MAX_SWEEP_JOBS / 2 + 1
        );
        let e = parse_sweep_args(&argv(&over)).unwrap_err();
        assert!(e.contains(&format!("{} jobs", MAX_SWEEP_JOBS + 2)), "{e}");
        let e = parse_sweep_args(&argv(&format!("--seeds {}", usize::MAX))).unwrap_err();
        assert!(e.contains("more than"), "{e}");
    }

    #[test]
    fn parse_record_args_reads_run_flags_and_its_own() {
        let a = parse_record_args(&argv(
            "--policy bh --mix 2 --cycles 1e5 --seed 3 --cores 2 --out t.trc --json s.json",
        ))
        .unwrap();
        assert_eq!(a.run.policy(), Policy::Bh);
        assert_eq!(a.run.mix_index(), 1);
        assert_eq!(a.run.cycles(), 1.0e5);
        assert_eq!(a.run.seed(), 3);
        assert_eq!(a.cores, 2);
        assert_eq!(a.out, "t.trc");
        assert_eq!(a.json.as_deref(), Some("s.json"));
    }

    #[test]
    fn parse_record_args_requires_out_and_sane_cores() {
        assert!(parse_record_args(&argv("--cores 2")).is_err());
        assert!(parse_record_args(&argv("--out t.trc --cores 0")).is_err());
        assert!(parse_record_args(&argv("--out t.trc --cores 17")).is_err());
        assert!(
            parse_record_args(&argv("--out t.trc --cores 12")).is_ok(),
            "the v2 header supports up to 16 cores"
        );
        assert!(parse_record_args(&argv("--out t.trc --trace x.trc")).is_err());
        assert!(parse_record_args(&argv("--out t.trc")).is_ok());
    }

    #[test]
    fn parse_spec_args_resolves_presets_and_dumps() {
        let a = parse_spec_args(&argv("--preset paper --dump out.json")).unwrap();
        assert_eq!(a.spec.name, "paper");
        assert_eq!(a.dump.as_deref(), Some("out.json"));
        let d = parse_spec_args(&[]).unwrap();
        assert_eq!(d.spec.name, "scaled");
        assert!(d.dump.is_none());
        assert!(parse_spec_args(&argv("--preset warp-speed")).is_err());
        assert!(parse_spec_args(&argv("--frobnicate 1")).is_err());
    }

    #[test]
    fn parse_trace_info_args_wants_one_path() {
        assert_eq!(parse_trace_info_args(&argv("t.trc")).unwrap(), "t.trc");
        assert!(parse_trace_info_args(&argv("")).is_err());
        assert!(parse_trace_info_args(&argv("a b")).is_err());
        assert!(parse_trace_info_args(&argv("--trace")).is_err());
    }

    /// Records `flags` (cycles kept short) on 2 cores into a temp file.
    fn recording(name: &str, flags: &str) -> String {
        let run = parse_args(&argv(flags)).unwrap();
        let path = std::env::temp_dir().join(format!("hllc-cli-{}-{name}.trc", std::process::id()));
        let path = path.to_str().unwrap().to_string();
        let writer = hllc_traceio::create_trace(&path, &crate::session::recording_header(&run, 2));
        crate::session::record_session(&run, 2, writer.unwrap()).unwrap();
        path
    }

    #[test]
    fn run_and_sweep_accept_a_trace_flag() {
        let path = recording("accept", "--policy bh --cycles 2e4");
        let a = parse_args(&argv(&format!("--trace {path}"))).unwrap();
        let recorded = a.trace.as_ref().map(|t| t.path.as_str());
        assert_eq!(recorded, Some(path.as_str()));
        let s = parse_sweep_args(&argv(&format!("--trace {path}"))).unwrap();
        assert_eq!(s.trace.as_deref(), Some(path.as_str()));
        assert!(s.grid.trace.is_some());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_trace_run_edits_the_recordings_own_experiment() {
        let path = recording("base", "--policy bh --mix 3 --cycles 2e4 --seed 5");
        let parse = |flags: &str| parse_args(&argv(&format!("--trace {path} {flags}")));
        let recorded = parse("").unwrap();
        assert_eq!(recorded.policy(), Policy::Bh);
        assert_eq!(recorded.cycles(), 2e4);
        assert_eq!((recorded.mix_index(), recorded.seed()), (2, 5));
        let edited = parse("--policy tap --cycles 1e4").unwrap();
        assert_eq!((edited.policy(), edited.cycles()), (Policy::tap(), 1e4));
        assert_eq!(edited.seed(), 5, "unedited fields stay the recording's");
        // `--spec` replaces the base; its geometry must still fit.
        assert_eq!(parse("--spec scaled").unwrap().policy(), Policy::cp_sd());
        let mismatch = "llc_sets: spec 4096 vs recording 512";
        let e = parse("--spec paper").unwrap_err();
        assert!(e.contains(mismatch), "{e}");
        let sweep = |flags: &str| parse_sweep_args(&argv(&format!("--trace {path} {flags}")));
        let e = sweep("--spec paper").unwrap_err();
        assert!(e.contains(mismatch), "{e}");
        let e = sweep("--sets 128").unwrap_err();
        assert!(e.contains("llc_sets: spec 128 vs recording 512"), "{e}");
        let e = sweep("--way-splits 4/12,3/13").unwrap_err();
        assert!(e.contains("sram_ways: spec 3 vs recording 4"), "{e}");
        // The sweep's axes default to the recording's point.
        let d = sweep("--nvm-latency 1.0,1.5").unwrap();
        assert_eq!(d.grid.way_splits, vec![(4, 12)]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_trace_sweep_runs_the_recordings_mix_and_budget() {
        let path = recording("sweep", "--policy bh --mix 3 --cycles 2e4");
        let sweep = |flags: &str| parse_sweep_args(&argv(&format!("--trace {path} {flags}")));
        let grid = sweep("").unwrap().grid;
        assert_eq!(grid.job_count(), 2, "one job per default policy");
        assert_eq!((grid.mixes, grid.measure_cycles), (vec![2], 2e4));
        assert_eq!(sweep("--cycles 1e4").unwrap().grid.measure_cycles, 1e4);
        // `--spec` replaces the base, budget included; the mix stays.
        let grid = sweep("--spec scaled").unwrap().grid;
        assert_eq!((grid.mixes, grid.measure_cycles), (vec![2], 2e6));
        let e = sweep("--mixes 1,2").unwrap_err();
        assert!(
            e.starts_with("--mixes does not combine with --trace"),
            "{e}"
        );
        // The live sweep keeps its defaults.
        let live = parse_sweep_args(&[]).unwrap().grid;
        assert_eq!((live.mixes, live.measure_cycles), (vec![0, 1, 2, 3], 2e5));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn record_refuses_a_trace_before_reading_it() {
        let e = parse_record_args(&argv("--out t.trc --trace missing.trc")).unwrap_err();
        assert_eq!(e, "record captures a live run; it does not take --trace");
    }

    #[test]
    fn run_json_flag_is_a_boolean() {
        assert!(!parse_args(&argv("--policy bh")).unwrap().json);
        let a = parse_args(&argv("--policy bh --json")).unwrap();
        assert!(a.json);
        assert_eq!(a.policy(), Policy::Bh);
    }

    #[test]
    fn parse_sweep_args_defaults_are_sane() {
        let a = parse_sweep_args(&[]).unwrap();
        assert!(!a.grid.policies.is_empty());
        assert!(!a.grid.mixes.is_empty());
        assert!(a.grid.seeds >= 1 && a.grid.threads >= 1);
        assert_eq!(a.grid.spec.name, "scaled");
        assert!(a.json.is_none());
    }
}
