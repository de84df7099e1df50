//! The hybrid-llc benchmark: three workloads run through the crates'
//! public functions, checked against pinned digests, measured end to end
//! (untraced) or per layer (traced). See `perfbench/README.md`.

pub mod catalog;
pub mod probe;
pub mod workloads;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use serde_json::Value;

use crate::catalog::{unit_of, PAPER_LIFETIME_X_BH};
use crate::probe::Layers;
use crate::workloads::{
    forecast_round, record_input, replay_round, session_digest, sweep_round, OpOut, Plan,
    ReplayInput, Round, RunnerStats, Workload,
};

/// Pinned op digests per workload and seed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Pins(pub BTreeMap<String, BTreeMap<u64, Vec<String>>>);

impl Pins {
    /// The digests pinned in `perfbench/pins.json`.
    pub fn builtin() -> Pins {
        Pins::parse(include_str!("../pins.json")).expect("perfbench/pins.json is valid")
    }

    /// Parses `{"workload": {"seed": ["digest", ...]}}`.
    pub fn parse(text: &str) -> Result<Pins, String> {
        let v = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let Value::Object(workloads) = v else {
            return Err("pins: expected an object".into());
        };
        let mut pins = Pins::default();
        for (workload, seeds) in workloads {
            let Value::Object(seeds) = seeds else {
                return Err(format!("pins.{workload}: expected an object"));
            };
            for (seed, digests) in seeds {
                let seed: u64 = seed
                    .parse()
                    .map_err(|_| format!("pins.{workload}: bad seed '{seed}'"))?;
                let digests = digests
                    .as_array()
                    .ok_or_else(|| format!("pins.{workload}.{seed}: expected an array"))?
                    .iter()
                    .map(|d| d.as_str().map(String::from))
                    .collect::<Option<Vec<_>>>()
                    .ok_or_else(|| format!("pins.{workload}.{seed}: expected strings"))?;
                pins.0
                    .entry(workload.clone())
                    .or_default()
                    .insert(seed, digests);
            }
        }
        Ok(pins)
    }

    pub fn get(&self, workload: Workload, seed: u64) -> Option<&Vec<String>> {
        self.0.get(workload.name())?.get(&seed)
    }

    pub fn to_json(&self) -> Value {
        Value::Object(
            self.0
                .iter()
                .map(|(w, seeds)| {
                    let seeds = seeds
                        .iter()
                        .map(|(s, d)| (s.to_string(), serde_json::to_value(d)))
                        .collect();
                    (w.clone(), Value::Object(seeds))
                })
                .collect(),
        )
    }
}

/// The result of one benchmark run.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub attempted: u64,
    /// Ops that panicked or failed a check, with the reason.
    pub failures: Vec<String>,
    /// `(name, value)` in catalog order.
    pub metrics: Vec<(String, f64)>,
    /// The digests of the first untraced round, in pin order.
    pub digests: Vec<String>,
    /// Human-readable lines for standard error.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The last line of the benchmark's standard output.
    pub fn result_json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = unit_of(name).expect("catalogued metric");
                let mut m = BTreeMap::new();
                m.insert("value".to_string(), serde_json::to_value(value));
                m.insert("unit".to_string(), Value::String(unit.to_string()));
                (name.clone(), Value::Object(m))
            })
            .collect();
        let mut out = BTreeMap::new();
        out.insert("correct".to_string(), Value::Bool(self.correct()));
        out.insert(
            "attempted".to_string(),
            serde_json::to_value(&self.attempted),
        );
        out.insert(
            "failed".to_string(),
            serde_json::to_value(&(self.failures.len() as u64)),
        );
        out.insert("metrics".to_string(), Value::Object(metrics));
        Value::Object(out)
    }
}

fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The smallest value. Host timings of repeated fixed work use it:
/// interference from other tenants only ever adds time.
fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Each job's fastest time over the rounds; every round runs the same jobs
/// in the same order.
fn fastest_jobs(rounds: &[Round]) -> Vec<f64> {
    let n = rounds.iter().map(|r| r.job_s.len()).max().unwrap_or(0);
    (0..n)
        .map(|i| {
            fastest(
                &rounds
                    .iter()
                    .filter_map(|r| r.job_s.get(i).copied())
                    .collect::<Vec<_>>(),
            )
        })
        .collect()
}

/// Linear-interpolated percentile `p` in `[0, 1]`; 0.0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n => {
            let x = p * (n - 1) as f64;
            let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
            v[lo] + (v[hi] - v[lo]) * (x - lo as f64)
        }
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn round_of(
    workload: Workload,
    plan: &Plan,
    seed: u64,
    input: Option<&ReplayInput>,
    traced: bool,
) -> Round {
    match (workload, input) {
        (Workload::Forecast, _) => forecast_round(plan, seed, traced),
        (Workload::Sweep, _) => sweep_round(plan, seed, traced),
        (Workload::Replay, Some(input)) => replay_round(plan, input, traced),
        (Workload::Replay, None) => unreachable!("replay rounds need a recording"),
    }
}

/// Runs `workload` for at least `seconds` of rounds (at least one), checks
/// every op, and computes the end-to-end metrics (untraced) or the
/// per-layer metrics (traced; untraced rounds alternate with the traced
/// ones to give `trace_overhead`).
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    plan: &Plan,
    pins: &Pins,
) -> Outcome {
    let mut failures = Vec::new();
    let mut attempted = 0u64;
    let mut pinned_ops: Vec<OpOut> = Vec::new();
    let input = match workload {
        Workload::Replay => {
            attempted += 1;
            match record_input(plan, seed) {
                Ok(input) => {
                    let workload = input.content.header.workload.clone();
                    let digest = session_digest(&input.policy, &workload, &input.live);
                    pinned_ops.push(OpOut {
                        name: "record".into(),
                        digest,
                        error: None,
                    });
                    Some(input)
                }
                Err(e) => {
                    return Outcome {
                        attempted,
                        failures: vec![format!("record: {e}")],
                        metrics: Vec::new(),
                        digests: Vec::new(),
                        notes: Vec::new(),
                    }
                }
            }
        }
        Workload::Forecast | Workload::Sweep => None,
    };

    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut plain: Vec<Round> = Vec::new();
    let mut traced_rounds: Vec<Round> = Vec::new();
    loop {
        plain.push(round_of(workload, plan, seed, input.as_ref(), false));
        if traced {
            traced_rounds.push(round_of(workload, plan, seed, input.as_ref(), true));
        }
        if start.elapsed() >= budget {
            break;
        }
    }

    pinned_ops.extend(plain[0].ops.iter().cloned());
    let digests: Vec<String> = pinned_ops.iter().map(|o| o.digest.clone()).collect();
    let reference = &plain[0].ops;
    let labelled = plain
        .iter()
        .map(|r| ("untraced", r))
        .chain(traced_rounds.iter().map(|r| ("traced", r)));
    for (i, (kind, round)) in labelled.enumerate() {
        if round.ops.len() != reference.len() {
            failures.push(format!(
                "{kind} round {i}: {} ops, first round had {}",
                round.ops.len(),
                reference.len()
            ));
        }
        for (op, first) in round.ops.iter().zip(reference) {
            attempted += 1;
            let problem = op.error.clone().or_else(|| {
                (op.digest != first.digest).then(|| {
                    format!(
                        "digest {} differs from the first untraced round's {}",
                        op.digest, first.digest
                    )
                })
            });
            if let Some(p) = problem {
                failures.push(format!("{kind} round {i} op {}: {p}", op.name));
            }
        }
    }
    if let Some(pinned) = pins.get(workload, seed) {
        if pinned.len() != digests.len() {
            failures.push(format!(
                "pinned {} digests for seed {seed}, the run produced {}",
                pinned.len(),
                digests.len()
            ));
        }
        for ((op, got), want) in pinned_ops.iter().zip(&digests).zip(pinned) {
            if got != want {
                failures.push(format!(
                    "op {}: digest {got} differs from the pinned {want}",
                    op.name
                ));
            }
        }
    }

    let mut notes = Vec::new();
    let metrics = if traced {
        per_layer(&plain, &traced_rounds)
    } else {
        end_to_end(workload, &plain, &mut notes)
    };
    for (name, value) in &metrics {
        if !value.is_finite() {
            failures.push(format!("metric {name} is not finite"));
        }
    }
    let metrics = metrics
        .into_iter()
        .map(|(n, v)| (n.to_string(), if v.is_finite() { v } else { 0.0 }))
        .collect();
    notes.push(format!(
        "{} untraced and {} traced rounds of {}, seed {seed}; pinned digests: {}",
        plain.len(),
        traced_rounds.len(),
        workload.name(),
        if pins.get(workload, seed).is_some() {
            "checked"
        } else {
            "none for this seed"
        },
    ));
    notes.push(format!(
        "fail_rate {} fraction ({} of {} ops)",
        failures.len() as f64 / attempted.max(1) as f64,
        failures.len(),
        attempted
    ));
    Outcome {
        attempted,
        failures,
        metrics,
        digests,
        notes,
    }
}

fn end_to_end(
    workload: Workload,
    rounds: &[Round],
    notes: &mut Vec<String>,
) -> Vec<(&'static str, f64)> {
    let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    let setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    let rates: Vec<f64> = rounds.iter().map(|r| r.refs as f64 / r.wall_s).collect();
    let jobs = fastest_jobs(rounds);
    let first = &rounds[0];
    let sim_ipc = first.ipc.iter().sum::<f64>() / first.ipc.len().max(1) as f64;
    notes.push(format!(
        "job_p50_s and job_p90_s over {} jobs, each its fastest of {} rounds; round wall_s {:.3?}",
        jobs.len(),
        rounds.len(),
        walls
    ));
    if workload == Workload::Forecast {
        let lifetime = first.lifetime_x_bh;
        notes.push(format!(
            "lifetime_x_bh {lifetime:.3} x (CP_SD / BH lifetime to 50% capacity); paper {PAPER_LIFETIME_X_BH} x (Fig. 10a), signed error {:+.3} x ({:+.1}%). No other metric is validated against a reference.",
            lifetime - PAPER_LIFETIME_X_BH,
            100.0 * (lifetime - PAPER_LIFETIME_X_BH) / PAPER_LIFETIME_X_BH,
        ));
    }
    vec![
        ("setup_s", median(&setups)),
        ("wall_s", fastest(&walls)),
        ("refs_per_s", rates.iter().copied().fold(0.0, f64::max)),
        ("job_p50_s", percentile(&jobs, 0.5)),
        ("job_p90_s", percentile(&jobs, 0.9)),
        ("peak_rss_mb", peak_rss_mb()),
        ("sim_ipc", sim_ipc),
    ]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn per_layer(plain: &[Round], traced: &[Round]) -> Vec<(&'static str, f64)> {
    let n = traced.len() as f64;
    let mut l = Layers::default();
    for r in traced {
        l.add(&r.layers);
    }
    let runs: Vec<RunnerStats> = traced.iter().filter_map(|r| r.runner).collect();
    let runner = |f: fn(&RunnerStats) -> f64| ratio(runs.iter().map(f).sum(), runs.len() as f64);
    let refs = (l.measured.loads + l.measured.stores) as f64;
    let s = &l.measured.services;
    let llc = &l.llc;
    let best_wall =
        |rounds: &[Round]| fastest(&rounds.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    vec![
        ("trace.instantiate_s", l.trace_instantiate_s / n),
        ("trace.refs", l.trace_refs as f64 / n),
        ("trace.next_s", l.trace_next_s / n),
        ("traceio.record_s", l.traceio_record_s / n),
        ("traceio.bytes", l.traceio_bytes as f64 / n),
        ("traceio.load_s", l.traceio_load_s / n),
        ("traceio.next_s", l.traceio_next_s / n),
        ("traceio.sizes_s", l.traceio_sizes_s / n),
        ("compress.calls", l.compress_calls as f64 / n),
        ("compress.s", l.compress_s / n),
        (
            "compress.mean_bytes",
            ratio(l.compress_bytes as f64, l.compress_calls as f64),
        ),
        ("sim.accesses", l.sim_accesses as f64 / n),
        ("sim.self_s", l.sim_self_s / n),
        ("sim.driver_s", l.sim_driver_s / n),
        ("sim.l1_hit_frac", ratio(s[0] as f64, refs)),
        ("sim.l2_hit_frac", ratio(s[1] as f64, refs)),
        (
            "sim.llc_req_per_kref",
            ratio(1000.0 * llc.requests() as f64, refs),
        ),
        ("core.requests", l.core_requests as f64 / n),
        ("core.request_s", l.core_request_s / n),
        ("core.inserts", l.core_inserts as f64 / n),
        ("core.insert_s", l.core_insert_s / n),
        (
            "core.ns_per_req",
            ratio(1e9 * l.core_request_s, l.core_requests as f64),
        ),
        ("core.hit_rate", llc.hit_rate()),
        (
            "core.nvm_insert_frac",
            ratio(
                llc.nvm_inserts as f64,
                (llc.nvm_inserts + llc.sram_inserts) as f64,
            ),
        ),
        ("core.migrations", llc.migrations as f64 / n),
        ("core.write_stall_cycles", llc.write_stall_cycles as f64 / n),
        ("nvm.sample_s", l.nvm_sample_s / n),
        ("nvm.degrade_s", l.nvm_degrade_s / n),
        (
            "nvm.bytes_per_kref",
            ratio(1000.0 * llc.nvm_bytes_written as f64, refs),
        ),
        (
            "nvm.capacity_end",
            ratio(l.nvm_capacity_end_sum, l.nvm_capacity_end_n as f64),
        ),
        ("forecast.phases", l.forecast_phases as f64 / n),
        ("forecast.phase_s", l.forecast_phase_s / n),
        ("forecast.predict_s", l.forecast_predict_s / n),
        ("forecast.lifetime_x_bh", traced[0].lifetime_x_bh),
        ("runner.jobs", runner(|r| r.jobs as f64)),
        ("runner.busy_frac", runner(|r| r.busy_frac)),
        ("runner.tail_s", runner(|r| r.tail_s)),
        ("runner.job_cv", runner(|r| r.job_cv)),
        ("trace_overhead", best_wall(traced) / best_wall(plain) - 1.0),
    ]
}
