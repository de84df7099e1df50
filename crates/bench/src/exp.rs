//! Common experiment plumbing: options, the per-mix measurement fan-out,
//! and the forecast-experiment driver.
//!
//! Every curve or row of a harness is an edit of one resolved
//! [`ExperimentSpec`] ([`ExpOpts::spec`]): the policy, a `system.*` axis
//! (way split, L2 sets, NVM latency, DRAM) or a `hybrid.*` knob (endurance
//! cv, epoch length, compressor). Specs become simulator configs only
//! through [`PhaseSetup::from_spec`] and [`ForecastConfig::from_spec`].

use std::fmt;
use std::str::FromStr;

use hllc_config::{ExperimentSpec, PAPER_SETS};
use hllc_core::{Policy, CP_TH_CANDIDATES};
use hllc_forecast::{
    run_phase, Forecast, ForecastConfig, ForecastSeries, PhaseMetrics, PhaseSetup,
};
use hllc_runner::{degraded_array, run_indexed};
use hllc_trace::{mixes, Mix};

/// A malformed `HLLC_*` environment variable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EnvError {
    /// The variable's name.
    pub var: &'static str,
    /// The value it was set to.
    pub value: String,
    /// What the variable accepts.
    pub expected: &'static str,
}

impl fmt::Display for EnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let EnvError {
            var,
            value,
            expected,
        } = self;
        write!(f, "invalid {var}={value:?}: expected {expected}")
    }
}

impl std::error::Error for EnvError {}

/// Options read from the environment (see the crate docs).
#[derive(Clone, Debug)]
pub struct ExpOpts {
    /// The resolved experiment every curve and row edits: the `scaled`
    /// preset (`paper` under `HLLC_FULL=1`) with `HLLC_SEED` as its
    /// `workload.seed`.
    pub spec: ExperimentSpec,
    /// Number of Table V mixes to average over.
    pub mixes: usize,
    /// Worker threads for the per-mix fan-out. Results are independent of
    /// it: per-run seeds depend only on the mix index, and reductions
    /// happen in mix order (see `hllc-runner`).
    pub jobs: usize,
}

/// Reads `var` through `get`: `default` when unset, an [`EnvError`] when
/// the value does not parse or fails `valid`.
fn env_value<T: FromStr>(
    get: &impl Fn(&str) -> Option<String>,
    var: &'static str,
    expected: &'static str,
    default: T,
    valid: impl Fn(&T) -> bool,
) -> Result<T, EnvError> {
    let Some(value) = get(var) else {
        return Ok(default);
    };
    match value.parse() {
        Ok(v) if valid(&v) => Ok(v),
        _ => Err(EnvError {
            var,
            value,
            expected,
        }),
    }
}

impl ExpOpts {
    /// Reads `HLLC_MIXES` / `HLLC_SEED` / `HLLC_FULL` / `HLLC_JOBS` from the
    /// process environment.
    pub fn from_env() -> Result<Self, EnvError> {
        Self::from_lookup(|var| std::env::var(var).ok())
    }

    /// [`from_env`](Self::from_env) for harness `main`s: reports a bad
    /// variable on stderr and exits with status 2.
    pub fn from_env_or_exit() -> Self {
        Self::from_env().unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        })
    }

    /// Builds the options from an arbitrary variable lookup (`None` =
    /// unset). Unset variables take their defaults; set ones must parse
    /// and be in range.
    pub fn from_lookup(get: impl Fn(&str) -> Option<String>) -> Result<Self, EnvError> {
        let full = env_value(&get, "HLLC_FULL", "0 or 1", 0u8, |&v| v <= 1)? == 1;
        let mut spec =
            ExperimentSpec::preset(if full { "paper" } else { "scaled" }).expect("builtin preset");
        spec.workload.seed = env_value(
            &get,
            "HLLC_SEED",
            "an unsigned 64-bit integer",
            spec.workload.seed,
            |_| true,
        )?;
        Ok(ExpOpts {
            mixes: env_value(&get, "HLLC_MIXES", "an integer in 1..=10", 3, |n| {
                (1..=mixes().len()).contains(n)
            })?,
            jobs: env_value(
                &get,
                "HLLC_JOBS",
                "a positive integer",
                hllc_runner::default_threads(),
                |&n| n >= 1,
            )?,
            spec,
        })
    }

    /// True when running the paper's full-scale geometry (`HLLC_FULL=1`).
    pub fn full_scale(&self) -> bool {
        self.spec.system.llc_sets == PAPER_SETS
    }

    /// The mixes this experiment runs over.
    pub fn mix_list(&self) -> Vec<Mix> {
        mixes().into_iter().take(self.mixes).collect()
    }

    /// The resolved spec under `policy`: the starting point of every curve
    /// or row.
    pub fn spec_for(&self, policy: Policy) -> ExperimentSpec {
        let mut spec = self.spec.clone();
        spec.hybrid.policy = policy.label();
        spec
    }

    /// Runs one phase of `spec`'s forecast recipe (no aging) once per mix
    /// — mix `i` with seed `spec.workload.seed + i`, its NVM part
    /// pre-degraded to `capacity` — fanned across `jobs` workers. Returns
    /// the metrics in mix order, so any reduction over them is identical
    /// for every job count.
    pub fn measure(&self, spec: &ExperimentSpec, capacity: f64) -> Vec<PhaseMetrics> {
        self.measure_with(spec, capacity, |_| {})
    }

    /// [`measure`](Self::measure) with `edit` applied to the built phase
    /// setup: for mechanism ablations outside the spec schema (Fit-LRU).
    pub fn measure_with(
        &self,
        spec: &ExperimentSpec,
        capacity: f64,
        edit: impl FnOnce(&mut PhaseSetup),
    ) -> Vec<PhaseMetrics> {
        let f = &spec.forecast;
        let mut setup = PhaseSetup::from_spec(spec, f.warmup_cycles, f.measure_cycles);
        edit(&mut setup);
        run_indexed(self.mix_list(), self.jobs, |i, mix| {
            let seed = spec.workload.seed + i as u64;
            let array = degraded_array(&setup.llc, capacity, seed);
            run_phase(&setup, &mix, array, seed).0
        })
    }
}

/// The unit of the `life50 [h]` column for runs of `spec`, and how to
/// convert it to paper-scale time ([`ExperimentSpec::paper_time_scale`]).
pub fn lifetime_note(spec: &ExperimentSpec) -> String {
    let unit = format!(
        "simulated hours at mu={:e} with {} LLC sets",
        spec.hybrid.endurance_mean, spec.system.llc_sets
    );
    match spec.paper_time_scale() {
        (mu, frames) if mu == 1.0 && frames == 1.0 => format!("{unit} (paper scale)"),
        (mu, frames) => format!(
            "{unit}; multiply by ~{:.0} for paper-scale hours (mu x{mu}, NVM frames x{frames}); \
             the vs-BH ratios need no conversion",
            mu * frames
        ),
    }
}

/// Sums `f` over per-mix metrics in mix order.
pub fn total(metrics: &[PhaseMetrics], f: impl Fn(&PhaseMetrics) -> f64) -> f64 {
    metrics.iter().fold(0.0, |acc, m| acc + f(m))
}

/// The Fig. 8 statistic over `metrics`: for each CP_th candidate, the
/// share (in %) of Set Dueling epochs it won on hits, plus the number of
/// epochs with a winner.
pub fn cp_th_wins(metrics: &[PhaseMetrics]) -> (Vec<f64>, usize) {
    let mut wins = [0usize; CP_TH_CANDIDATES.len()];
    let winners = metrics.iter().flat_map(|m| &m.epochs);
    for k in winners.filter_map(|e| e.max_hits_candidate()) {
        wins[k] += 1;
    }
    let epochs: usize = wins.iter().sum();
    let pct = wins.iter().map(|&w| match epochs {
        0 => 0.0,
        n => 100.0 * w as f64 / n as f64,
    });
    (pct.collect(), epochs)
}

/// The SRAM-only performance bounds (dashed lines of Fig. 1/10): `spec`
/// with `ways` SRAM ways and no NVM, under BH. Such an LLC samples no NVM
/// array and runs no Set Dueling, so the endurance and epoch knobs it
/// inherits from `spec` do not affect it.
pub fn sram_bound(spec: &ExperimentSpec, ways: usize) -> ExperimentSpec {
    let mut bound = spec.clone();
    bound.system.sram_ways = ways;
    bound.system.nvm_ways = 0;
    bound.hybrid.policy = Policy::Bh.label();
    bound
}

/// The headline policy set of Figures 1 and 10a, plus the bounds.
pub fn headline_policies() -> Vec<(String, Policy)> {
    vec![
        ("BH".into(), Policy::Bh),
        ("BH_CP".into(), Policy::BhCp),
        ("LHybrid".into(), Policy::LHybrid),
        ("TAP".into(), Policy::tap()),
        ("CP_SD".into(), Policy::cp_sd()),
        ("CP_SD_Th4".into(), Policy::cp_sd_th(4.0)),
        ("CP_SD_Th8".into(), Policy::cp_sd_th(8.0)),
    ]
}

/// Runs a family of forecast experiments (one spec per curve of a Figure
/// 1/10/11-style plot), prints the summary table plus the full time series,
/// and dumps JSON. The upper performance bound (all ways SRAM) is always
/// run first and used to normalize IPC; the SRAM-part-only lower bound is
/// included when `with_lower_bound` is set. Both bounds derive from the
/// first curve's spec.
pub fn run_forecast_experiment(
    id: &str,
    curves: &[(String, ExperimentSpec)],
    opts: &ExpOpts,
    with_lower_bound: bool,
) {
    assert!(!curves.is_empty(), "need at least one configuration");
    let first = &curves[0].1;
    let total_ways = first.system.sram_ways + first.system.nvm_ways;

    // The bounds plus every requested curve.
    let mut specs = vec![(
        format!("{total_ways}w SRAM (upper bound)"),
        sram_bound(first, total_ways),
    )];
    if with_lower_bound {
        let sram_ways = first.system.sram_ways.max(1);
        specs.push((
            format!("{sram_ways}w SRAM (lower bound)"),
            sram_bound(first, sram_ways),
        ));
    }
    specs.extend(curves.iter().cloned());
    let cfgs: Vec<ForecastConfig> = specs
        .iter()
        .map(|(_, spec)| ForecastConfig::from_spec(spec))
        .collect();

    // Flatten `curve × mix` into one job grid so the thread pool never
    // drains between curves. Seeds and the merge order depend only on the
    // (curve, mix) indices, so any job count reproduces the serial result.
    let mix_list = opts.mix_list();
    let grid: Vec<(usize, usize)> = (0..cfgs.len())
        .flat_map(|c| (0..mix_list.len()).map(move |m| (c, m)))
        .collect();
    let runs = run_indexed(grid, opts.jobs, |_, (c, m)| {
        Forecast::new(cfgs[c].clone()).run(&mix_list[m], specs[c].1.workload.seed + m as u64)
    });
    let curves: Vec<ForecastSeries> = specs
        .iter()
        .zip(runs.chunks(mix_list.len()))
        .map(|((label, _), runs)| ForecastSeries::average(label, runs, 48))
        .collect();
    let base_ipc = curves[0].initial_ipc().unwrap_or(1.0);

    let bh_life = curves
        .iter()
        .find(|c| c.label.starts_with("BH") && !c.label.contains("CP"))
        .and_then(|c| c.lifetime_seconds(0.5));

    let mut table = crate::report::Table::new([
        "configuration",
        "IPC(t=0)",
        "norm IPC",
        "hit rate",
        "NVM B/cyc",
        "life50 [h]",
        "vs BH",
    ]);
    for c in &curves {
        let p0 = c.points.first().copied();
        let life_s = c.lifetime_seconds(0.5);
        let ratio = match (life_s, bh_life) {
            (Some(l), Some(b)) if b > 0.0 => format!("{:6.1}x", l / b),
            _ => "     -".into(),
        };
        table.row([
            c.label.clone(),
            format!("{:.4}", p0.map_or(0.0, |p| p.ipc)),
            format!("{:.3}", p0.map_or(0.0, |p| p.ipc) / base_ipc),
            format!("{:.3}", p0.map_or(0.0, |p| p.hit_rate)),
            format!("{:.3}", p0.map_or(0.0, |p| p.nvm_bytes_per_cycle)),
            fmt_life(life_s.map(|s| s / 3600.0)),
            ratio,
        ]);
    }
    table.print();
    println!("\nLifetime axis: {}", lifetime_note(&opts.spec));

    // Normalized-IPC-over-time series (the lines of the figure).
    println!("\nNormalized IPC over time (columns: fraction of the longest run):");
    let horizon = curves.iter().map(|c| c.end_time()).fold(0.0, f64::max);
    let ticks = 12;
    print!("{:<28}", "configuration");
    for i in 0..=ticks {
        print!(" {:>5.0}%", 100.0 * i as f64 / ticks as f64);
    }
    println!();
    for c in &curves {
        print!("{:<28}", c.label);
        for i in 0..=ticks {
            let t = horizon * i as f64 / ticks as f64;
            let p = c.sample_at(t).unwrap();
            print!(" {:>6.3}", p.ipc / base_ipc);
        }
        println!();
    }

    let json = serde_json::json!({
        "experiment": id,
        "mixes": opts.mixes,
        "seed": opts.spec.workload.seed,
        "full_scale": opts.full_scale(),
        "base_ipc": base_ipc,
        "curves": curves.iter().map(|c| serde_json::json!({
            "label": c.label,
            "lifetime_seconds_50pct": c.lifetime_seconds(0.5),
            "points": c.points.iter().map(|p| serde_json::json!({
                "t": p.time_seconds, "capacity": p.capacity, "ipc": p.ipc,
                "hit_rate": p.hit_rate, "nvm_bytes_per_cycle": p.nvm_bytes_per_cycle,
            })).collect::<Vec<_>>(),
        })).collect::<Vec<_>>(),
    });
    crate::report::save_json(id, &json);
}

/// Formats an optional lifetime in the report's time unit.
pub fn fmt_life(hours: Option<f64>) -> String {
    match hours {
        Some(h) => format!("{h:8.2}"),
        None => "   never".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(mixes: usize) -> ExpOpts {
        ExpOpts {
            mixes,
            jobs: 1,
            ..ExpOpts::from_lookup(|_| None).unwrap()
        }
    }

    fn lookup(vars: &[(&str, &str)]) -> impl Fn(&str) -> Option<String> {
        let vars: Vec<(String, String)> = vars
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        move |var| vars.iter().find(|(k, _)| k == var).map(|(_, v)| v.clone())
    }

    #[test]
    fn mix_list_respects_count() {
        assert_eq!(opts(1).mix_list().len(), 1);
        assert_eq!(opts(10).mix_list().len(), 10);
    }

    #[test]
    fn unset_variables_take_the_defaults() {
        let o = ExpOpts::from_lookup(|_| None).unwrap();
        assert_eq!(o.mixes, 3);
        assert_eq!(o.spec.workload.seed, 42);
        assert_eq!(o.jobs, hllc_runner::default_threads());
        assert_eq!(o.spec, ExperimentSpec::preset("scaled").unwrap());
        assert!(!o.full_scale());
    }

    #[test]
    fn set_variables_are_read() {
        let o = ExpOpts::from_lookup(lookup(&[
            ("HLLC_MIXES", "10"),
            ("HLLC_SEED", "7"),
            ("HLLC_FULL", "1"),
            ("HLLC_JOBS", "3"),
        ]))
        .unwrap();
        assert_eq!((o.mixes, o.spec.workload.seed, o.jobs), (10, 7, 3));
        assert!(o.full_scale());
        assert_eq!(o.spec.name, "paper");
        let o = ExpOpts::from_lookup(lookup(&[("HLLC_FULL", "0")])).unwrap();
        assert!(!o.full_scale());
    }

    #[test]
    fn bad_variables_are_named_errors() {
        for (var, value) in [
            ("HLLC_JOBS", "0"),
            ("HLLC_JOBS", "-1"),
            ("HLLC_SEED", "abc"),
            ("HLLC_MIXES", "50"),
            ("HLLC_MIXES", "0"),
            ("HLLC_FULL", "yes"),
            ("HLLC_FULL", "2"),
        ] {
            let e = ExpOpts::from_lookup(lookup(&[(var, value)])).unwrap_err();
            assert_eq!((e.var, e.value.as_str()), (var, value));
            let text = e.to_string();
            assert!(text.contains(var) && text.contains(value), "{text}");
        }
    }

    #[test]
    fn sram_bound_has_no_nvm() {
        let base = opts(1).spec_for(Policy::cp_sd());
        let bound = sram_bound(&base, 16);
        bound.validate().unwrap();
        let llc = bound.llc_config();
        assert_eq!((llc.sram_ways, llc.nvm_ways), (16, 0));
        assert_eq!(llc.sets, base.llc_config().sets);
        assert_eq!(llc.policy, Policy::Bh);
    }

    #[test]
    fn spec_for_sets_the_policy() {
        let spec = opts(1).spec_for(Policy::cp_sd_th(4.0));
        assert_eq!(spec.llc_config().policy, Policy::cp_sd_th(4.0));
    }

    #[test]
    fn lifetime_note_derives_the_paper_conversion() {
        let scaled = lifetime_note(&ExperimentSpec::preset("scaled").unwrap());
        assert_eq!(
            scaled,
            "simulated hours at mu=1e8 with 512 LLC sets; multiply by ~800 for paper-scale \
             hours (mu x100, NVM frames x8); the vs-BH ratios need no conversion"
        );
        let paper = lifetime_note(&ExperimentSpec::preset("paper").unwrap());
        assert_eq!(
            paper,
            "simulated hours at mu=1e10 with 4096 LLC sets (paper scale)"
        );
        let full = ExpOpts::from_lookup(lookup(&[("HLLC_FULL", "1")])).unwrap();
        assert_eq!(lifetime_note(&full.spec), paper);
        let mut slow = ExperimentSpec::preset("scaled").unwrap();
        slow.hybrid.endurance_mean = 1e9;
        assert!(lifetime_note(&slow).contains("~80 for paper-scale hours (mu x10,"));
    }

    #[test]
    fn fmt_life_handles_never() {
        assert_eq!(fmt_life(None).trim(), "never");
        assert_eq!(fmt_life(Some(1.5)).trim(), "1.50");
    }

    #[test]
    fn headline_set_covers_the_paper() {
        let names: Vec<String> = headline_policies().iter().map(|(n, _)| n.clone()).collect();
        for expected in [
            "BH",
            "BH_CP",
            "LHybrid",
            "TAP",
            "CP_SD",
            "CP_SD_Th4",
            "CP_SD_Th8",
        ] {
            assert!(names.iter().any(|n| n == expected), "{expected} missing");
        }
    }
}
