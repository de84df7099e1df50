//! The three workloads and one round (one run of the fixed op set) of
//! each, untraced or traced.
//!
//! Untraced rounds call the functions the `hllc` subcommands reach
//! (`run_phase_streams`, `degraded_array` and `run_indexed` as `run_sweep`
//! composes them, `record_session`, `run_session`), with each op's streams
//! wrapped in [`Stamped`] so the end of its set-up is visible. Traced rounds
//! run the same recipes around a [`Hierarchy`] the benchmark builds itself,
//! with [`TracedLlc`] as its LLC and every reference pull and access timed.
//! Both produce the same simulated digests; the run checks that they do.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread::ThreadId;
use std::time::Instant;

use hybrid_llc::cli::parse_args;
use hybrid_llc::forecast::{
    advance_wear, choose_step, run_phase_streams, ForecastConfig, ForecastPoint, ForecastSeries,
    PhaseMetrics, PhaseSetup,
};
use hybrid_llc::llc::{HybridLlc, Policy};
use hybrid_llc::nvm::NvmArray;
use hybrid_llc::runner::{degraded_array, job_seed, run_indexed, SweepSpec};
use hybrid_llc::session::{
    record_session, recording_header, run_session, stats_json, trace_spec, SessionStats,
};
use hybrid_llc::sim::{DataModel, Hierarchy, LlcPort};
use hybrid_llc::trace::{mixes, Mix, RefSource};
use hybrid_llc::traceio::{ReplayStream, TraceContent, TraceData, TraceReader, TraceWriter};
use hybrid_llc::ExperimentSpec;

use crate::probe::{
    fold_traced, timed, traced_drive, DriveTimes, Inputs, Layers, RefTally, Stamped, TracedLlc,
};

/// The workloads, in the order `BENCHMARK.json` lists them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Forecast,
    Sweep,
    Replay,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Forecast, Workload::Sweep, Workload::Replay];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Forecast => "forecast",
            Workload::Sweep => "sweep",
            Workload::Replay => "replay",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Cores a recording captures: the `hllc record --cores` default.
const RECORD_CORES: usize = 4;

/// What each workload runs. [`Plan::full`] is the benchmark; tests use
/// smaller plans with the same recipes.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Forecast recipe; each policy of `forecast_policies` runs it in turn.
    pub forecast: ForecastConfig,
    pub forecast_policies: Vec<Policy>,
    /// Table V mix index, 0-based.
    pub forecast_mix: usize,
    /// Sweep grid; `base_seed` is replaced by the run's seed.
    pub sweep: SweepSpec,
    /// `hllc record` flags of the recording; `--seed` is appended.
    pub record_flags: Vec<String>,
    /// Policies the recording is replayed under.
    pub replay_policies: Vec<Policy>,
}

impl Plan {
    /// The benchmark's workloads (see `perfbench/README.md` for why).
    pub fn full(threads: usize) -> Plan {
        let scaled = ExperimentSpec::preset("scaled").expect("builtin preset");
        let cycles = 8e5;
        let policies = [Policy::Bh, Policy::BhCp, Policy::cp_sd(), Policy::LHybrid];
        Plan {
            forecast: ForecastConfig::scaled(Policy::Bh),
            forecast_policies: vec![Policy::Bh, Policy::cp_sd()],
            forecast_mix: 0,
            sweep: SweepSpec {
                policies: policies.iter().map(|p| (p.name(), *p)).collect(),
                mixes: vec![0, 5],
                seeds: 5,
                capacities: vec![1.0, 0.75, 0.5],
                way_splits: vec![(scaled.system.sram_ways, scaled.system.nvm_ways)],
                nvm_latency_factors: vec![scaled.system.nvm_latency_factor],
                base_seed: 0,
                warmup_cycles: scaled.run.warmup_fraction * cycles,
                measure_cycles: cycles,
                spec: scaled,
                threads,
                trace: None,
            },
            record_flags: [
                "--spec", "paper", "--mix", "6", "--policy", "cp_sd", "--cycles", "1e7",
            ]
            .map(String::from)
            .to_vec(),
            replay_policies: vec![Policy::cp_sd(), Policy::Bh, Policy::LHybrid],
        }
    }
}

/// One op of a round: its name, the digest of its simulated output, and
/// the first check it failed, if any.
#[derive(Clone, Debug)]
pub struct OpOut {
    pub name: String,
    pub digest: String,
    pub error: Option<String>,
}

impl OpOut {
    fn new(name: impl Into<String>, digest: String) -> Self {
        OpOut {
            name: name.into(),
            digest,
            error: None,
        }
    }

    fn failed(name: impl Into<String>, error: String) -> Self {
        OpOut {
            name: name.into(),
            digest: String::new(),
            error: Some(error),
        }
    }
}

/// Scheduling of one sweep round on the runner's workers.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunnerStats {
    pub jobs: u64,
    /// Σ job host seconds ÷ (threads × makespan).
    pub busy_frac: f64,
    /// Makespan after the first worker went idle.
    pub tail_s: f64,
    /// Coefficient of variation of the job host times.
    pub job_cv: f64,
}

/// One run of a workload's fixed op set.
#[derive(Clone, Debug, Default)]
pub struct Round {
    pub wall_s: f64,
    /// Σ over simulation ops of the host time before their first reference.
    pub setup_s: f64,
    /// Simulated references executed (warm-up included).
    pub refs: u64,
    /// Host latency of each simulation job.
    pub job_s: Vec<f64>,
    /// System IPC of each measured window.
    pub ipc: Vec<f64>,
    /// CP_SD lifetime ÷ BH lifetime to 50 % capacity (`forecast` only).
    pub lifetime_x_bh: f64,
    pub ops: Vec<OpOut>,
    /// Traced rounds only.
    pub layers: Layers,
    pub runner: Option<RunnerStats>,
}

/// 64-bit FNV-1a, printed as 16 hex digits.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

fn digest_floats(label: &str, values: impl IntoIterator<Item = f64>) -> String {
    let mut bytes = label.as_bytes().to_vec();
    for v in values {
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    digest(&bytes)
}

/// Digest of a whole forecast timeline, bit for bit.
pub fn series_digest(s: &ForecastSeries) -> String {
    digest_floats(
        &s.label,
        s.points.iter().flat_map(|p| {
            [
                p.time_seconds,
                p.capacity,
                p.ipc,
                p.hit_rate,
                p.nvm_bytes_per_cycle,
            ]
        }),
    )
}

/// Digest of a sweep job's reported fields.
pub fn job_digest(ipc: f64, hit_rate: f64, nvm_bytes_written: u64) -> String {
    digest_floats("job", [ipc, hit_rate, nvm_bytes_written as f64])
}

/// Digest of a session's `stats_json` text.
pub fn session_digest(policy: &Policy, workload: &str, s: &SessionStats) -> String {
    let text =
        serde_json::to_string(&stats_json(&policy.label(), workload, s)).expect("stats serialize");
    digest(text.as_bytes())
}

fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".into())
}

/// A phase's outputs: the forecast's view, the session's view, and the
/// array handed to the next phase.
struct PhaseOut {
    metrics: PhaseMetrics,
    session: SessionStats,
    array: Option<NvmArray>,
}

/// `run_phase_streams` around a [`TracedLlc`] and the traced driver: the
/// same warm-up, statistics reset and measured window.
fn traced_phase<S: RefSource, D: DataModel>(
    setup: &PhaseSetup,
    llc: HybridLlc,
    streams: &mut [S],
    data: D,
    inputs: Inputs,
    layers: &mut Layers,
) -> PhaseOut {
    let mut h = Hierarchy::new(&setup.system, TracedLlc::new(llc), data);
    let mut times = DriveTimes::default();
    let warm = traced_drive(&mut h, streams, setup.warmup_cycles, &mut times);
    h.reset_stats();
    let measured = traced_drive(
        &mut h,
        streams,
        setup.warmup_cycles + setup.measure_cycles,
        &mut times,
    );
    fold_traced(layers, inputs, &times, &h);
    let ipc = h.system_ipc();
    let llc_stats = *h.llc().stats();
    let inner = h.llc().inner();
    let session = SessionStats {
        ipc,
        accesses: measured,
        llc: llc_stats,
        hierarchy: h.stats().clone(),
        cp_th: inner.dueling().map(|d| d.current_cp_th()),
        dueling_epochs: inner
            .dueling()
            .map(|d| (d.epochs_total(), d.epochs_retained())),
    };
    let epochs = inner.dueling().map(|d| d.history()).unwrap_or_default();
    let frame_bytes_written = h
        .llc_mut()
        .inner_mut()
        .array_mut()
        .map(|a| a.take_pending_writes())
        .unwrap_or_default();
    let array = h.llc_mut().inner_mut().array_mut().map(|a| a.clone());
    PhaseOut {
        metrics: PhaseMetrics {
            ipc,
            hit_rate: llc_stats.hit_rate(),
            llc: llc_stats,
            frame_bytes_written,
            measured_cycles: setup.measure_cycles,
            epochs,
            accesses: warm + measured,
        },
        session,
        array,
    }
}

/// The LLC a traced phase starts from: the handed-over array, or a freshly
/// sampled one (timed as `nvm.sample_s`).
fn traced_llc(setup: &PhaseSetup, array: Option<NvmArray>, layers: &mut Layers) -> HybridLlc {
    match array {
        Some(a) => HybridLlc::with_array(&setup.llc, Some(a)),
        None => timed(&mut layers.nvm_sample_s, || HybridLlc::new(&setup.llc)),
    }
}

/// `run_phase` over a synthetic mix: instantiate the streams and the data
/// model, then simulate.
fn synthetic_phase(
    setup: &PhaseSetup,
    mix: &Mix,
    array: Option<NvmArray>,
    seed: u64,
    tally: &RefTally,
    layers: Option<&mut Layers>,
) -> (PhaseMetrics, Option<NvmArray>) {
    match layers {
        None => {
            let mut streams = Stamped::all(mix.instantiate(setup.scale, seed), tally);
            let data = mix.data_model_with(setup.compressor, seed);
            run_phase_streams(setup, &mut streams, data, array)
        }
        Some(layers) => {
            let (streams, data) = timed(&mut layers.trace_instantiate_s, || {
                (
                    mix.instantiate(setup.scale, seed),
                    mix.data_model_with(setup.compressor, seed),
                )
            });
            let llc = traced_llc(setup, array, layers);
            let mut streams = Stamped::all(streams, tally);
            let out = traced_phase(setup, llc, &mut streams, data, Inputs::Synthetic, layers);
            (out.metrics, out.array)
        }
    }
}

/// Seconds from `start` to the op's first reference (the whole op if it
/// never pulled one).
fn setup_of(start: Instant, tally: &RefTally) -> f64 {
    tally
        .first()
        .map_or_else(|| start.elapsed(), |t| t.duration_since(start))
        .as_secs_f64()
}

/// A finished forecast op.
#[derive(Clone, Debug)]
pub struct ForecastOut {
    pub series: ForecastSeries,
    pub setup_s: f64,
    pub refs: u64,
    /// IPC and host seconds of each simulation phase.
    pub phase_ipc: Vec<f64>,
    pub phase_s: Vec<f64>,
}

/// One forecast op: `Forecast::run`'s alternating simulate/predict loop.
pub fn forecast_op(
    cfg: &ForecastConfig,
    mix: &Mix,
    seed: u64,
    mut layers: Option<&mut Layers>,
) -> ForecastOut {
    let start = Instant::now();
    let tally = RefTally::default();
    let setup = PhaseSetup {
        system: cfg.system.clone(),
        llc: cfg.llc.clone(),
        warmup_cycles: cfg.warmup_cycles,
        measure_cycles: cfg.measure_cycles,
        scale: PhaseSetup::scale_for_sets(cfg.llc.sets),
        compressor: cfg.compressor,
    };
    let freq_hz = cfg.system.timing.freq_ghz * 1e9;
    let mut series = ForecastSeries::new(cfg.llc.policy.name());
    let mut array: Option<NvmArray> = None;
    let mut time = 0.0f64;
    let mut phase_ipc = Vec::new();
    let mut phase_s = Vec::new();

    for step in 0..cfg.max_steps {
        let capacity = array.as_ref().map_or(1.0, |a| a.capacity_fraction());
        let phase_seed = seed ^ (step as u64) << 32;
        let t = Instant::now();
        let (metrics, array_back) = synthetic_phase(
            &setup,
            mix,
            array,
            phase_seed,
            &tally,
            layers.as_deref_mut(),
        );
        phase_s.push(t.elapsed().as_secs_f64());
        phase_ipc.push(metrics.ipc);
        if let Some(l) = layers.as_deref_mut() {
            l.forecast_phases += 1;
            l.forecast_phase_s += t.elapsed().as_secs_f64();
        }
        series.points.push(ForecastPoint {
            time_seconds: time,
            capacity,
            ipc: metrics.ipc,
            hit_rate: metrics.hit_rate,
            nvm_bytes_per_cycle: metrics.nvm_bytes_per_cycle(),
        });

        let Some(mut a) = array_back else {
            array = None;
            break;
        };
        if capacity <= cfg.stop_capacity {
            array = Some(a);
            break;
        }
        let t = Instant::now();
        let rates: Vec<f64> = metrics
            .frame_bytes_written
            .iter()
            .map(|&b| b as f64 / metrics.measured_cycles * freq_hz)
            .collect();
        if rates.iter().all(|&r| r == 0.0) {
            array = Some(a);
            break;
        }
        let dt = choose_step(&a, &rates, cfg.capacity_step, cfg.max_step_seconds);
        advance_wear(&mut a, &rates, dt);
        if let Some(l) = layers.as_deref_mut() {
            l.forecast_predict_s += t.elapsed().as_secs_f64();
        }
        time += dt;
        array = Some(a);
    }

    if let Some(a) = &array {
        let last = series.points.last().copied();
        series.points.push(ForecastPoint {
            time_seconds: time,
            capacity: a.capacity_fraction(),
            ipc: last.map_or(0.0, |p| p.ipc),
            hit_rate: last.map_or(0.0, |p| p.hit_rate),
            nvm_bytes_per_cycle: last.map_or(0.0, |p| p.nvm_bytes_per_cycle),
        });
    }
    if let Some(l) = layers {
        l.nvm_capacity_end_sum += array.as_ref().map_or(1.0, |a| a.capacity_fraction());
        l.nvm_capacity_end_n += 1;
    }
    ForecastOut {
        series,
        setup_s: setup_of(start, &tally),
        refs: tally.refs(),
        phase_ipc,
        phase_s,
    }
}

/// Forecast round: every policy's forecast in turn, on one thread. Its
/// jobs are the simulation phases.
pub fn forecast_round(plan: &Plan, seed: u64, traced: bool) -> Round {
    let mix = &mixes()[plan.forecast_mix];
    let mut round = Round::default();
    let mut lifetimes = Vec::new();
    let start = Instant::now();
    for policy in &plan.forecast_policies {
        let cfg = plan.forecast.clone().with_policy(*policy);
        let layers = traced.then_some(&mut round.layers);
        let out = catch_unwind(AssertUnwindSafe(|| forecast_op(&cfg, mix, seed, layers)));
        match out {
            Ok(ForecastOut {
                series,
                setup_s,
                refs,
                phase_ipc,
                phase_s,
            }) => {
                round.setup_s += setup_s;
                round.refs += refs;
                round.ipc.extend(phase_ipc);
                round.job_s.extend(phase_s);
                let life = series.lifetime_seconds(cfg.stop_capacity);
                let mut op = OpOut::new(policy.name(), series_digest(&series));
                if life.is_none() {
                    op.error = Some(format!(
                        "{} never reached {} capacity",
                        policy.name(),
                        cfg.stop_capacity
                    ));
                }
                lifetimes.push((*policy, life.unwrap_or(f64::NAN)));
                round.ops.push(op);
            }
            Err(p) => round
                .ops
                .push(OpOut::failed(policy.name(), panic_text(p.as_ref()))),
        }
    }
    round.wall_s = start.elapsed().as_secs_f64();
    let life_of = |p: Policy| lifetimes.iter().find(|(q, _)| *q == p).map(|(_, l)| *l);
    round.lifetime_x_bh = match (life_of(Policy::cp_sd()), life_of(Policy::Bh)) {
        (Some(cp), Some(bh)) => cp / bh,
        _ => f64::NAN,
    };
    round
}

/// One enumerated sweep job, in `run_sweep`'s order: policies outermost,
/// then capacities, way splits, latencies, mixes, replicates.
#[derive(Clone, Debug)]
pub struct SweepJob {
    pub policy: Policy,
    pub capacity: f64,
    pub sram_ways: usize,
    pub nvm_ways: usize,
    pub nvm_latency_factor: f64,
    pub mix: usize,
}

pub fn sweep_jobs(spec: &SweepSpec) -> Vec<SweepJob> {
    let mut jobs = Vec::with_capacity(spec.job_count());
    for (_, policy) in &spec.policies {
        for &capacity in &spec.capacities {
            for &(sram_ways, nvm_ways) in &spec.way_splits {
                for &nvm_latency_factor in &spec.nvm_latency_factors {
                    for &mix in &spec.mixes {
                        for _ in 0..spec.seeds {
                            jobs.push(SweepJob {
                                policy: *policy,
                                capacity,
                                sram_ways,
                                nvm_ways,
                                nvm_latency_factor,
                                mix,
                            });
                        }
                    }
                }
            }
        }
    }
    jobs
}

/// A finished sweep job: what `run_sweep` reports for it, plus timing.
#[derive(Clone, Debug)]
pub struct JobOut {
    pub ipc: f64,
    pub hit_rate: f64,
    pub nvm_bytes_written: u64,
    pub setup_s: f64,
    pub refs: u64,
    /// Host interval relative to the round's start, and the worker.
    pub span: (f64, f64),
    pub worker: ThreadId,
    pub layers: Layers,
}

/// `run_sweep`'s per-job recipe: `degraded_array`, then `run_phase`.
pub fn sweep_job(spec: &SweepSpec, index: usize, job: &SweepJob, traced: bool) -> JobOut {
    let seed = job_seed(spec.base_seed, index);
    let mut exp = spec.spec.clone();
    exp.system.sram_ways = job.sram_ways;
    exp.system.nvm_ways = job.nvm_ways;
    exp.system.nvm_latency_factor = job.nvm_latency_factor;
    let setup = PhaseSetup {
        system: exp.system_config(),
        llc: exp.llc_config_for(job.policy),
        warmup_cycles: spec.warmup_cycles,
        measure_cycles: spec.measure_cycles,
        scale: exp.footprint_scale(),
        compressor: exp.compressor(),
    };
    let start = Instant::now();
    let tally = RefTally::default();
    let mut layers = Layers::default();
    let (m, array) = if traced {
        let array = timed(&mut layers.nvm_degrade_s, || {
            degraded_array(&setup.llc, job.capacity, seed)
        });
        synthetic_phase(
            &setup,
            &mixes()[job.mix],
            array,
            seed,
            &tally,
            Some(&mut layers),
        )
    } else {
        let array = degraded_array(&setup.llc, job.capacity, seed);
        synthetic_phase(&setup, &mixes()[job.mix], array, seed, &tally, None)
    };
    layers.nvm_capacity_end_sum += array.as_ref().map_or(1.0, |a| a.capacity_fraction());
    layers.nvm_capacity_end_n += 1;
    JobOut {
        ipc: m.ipc,
        hit_rate: m.hit_rate,
        nvm_bytes_written: m.llc.nvm_bytes_written,
        setup_s: setup_of(start, &tally),
        refs: tally.refs(),
        span: (0.0, 0.0),
        worker: std::thread::current().id(),
        layers,
    }
}

fn runner_stats(threads: usize, makespan: f64, jobs: &[JobOut]) -> RunnerStats {
    let n = jobs.len().max(1) as f64;
    let durations: Vec<f64> = jobs.iter().map(|j| j.span.1 - j.span.0).collect();
    let busy: f64 = durations.iter().sum();
    let mean = busy / n;
    let var = durations.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / n;
    // Each worker goes idle after its last job; the first to do so opens
    // the tail.
    let mut last_end: Vec<(ThreadId, f64)> = Vec::new();
    for j in jobs {
        match last_end.iter_mut().find(|(w, _)| *w == j.worker) {
            Some((_, end)) => *end = end.max(j.span.1),
            None => last_end.push((j.worker, j.span.1)),
        }
    }
    let first_idle = if last_end.len() < threads {
        0.0
    } else {
        last_end
            .iter()
            .map(|(_, e)| *e)
            .fold(f64::INFINITY, f64::min)
    };
    RunnerStats {
        jobs: jobs.len() as u64,
        busy_frac: busy / (threads.max(1) as f64 * makespan),
        tail_s: makespan - first_idle,
        job_cv: if mean > 0.0 { var.sqrt() / mean } else { 0.0 },
    }
}

/// Sweep round: the whole grid on `spec.threads` workers.
pub fn sweep_round(plan: &Plan, seed: u64, traced: bool) -> Round {
    let mut spec = plan.sweep.clone();
    spec.base_seed = seed;
    let jobs = sweep_jobs(&spec);
    let names: Vec<String> = jobs
        .iter()
        .enumerate()
        .map(|(i, j)| format!("{i}:{}:{}:mix{}", j.policy.name(), j.capacity, j.mix + 1))
        .collect();
    let start = Instant::now();
    let outs = run_indexed(jobs, spec.threads, |index, job| {
        let t = start.elapsed().as_secs_f64();
        let out = catch_unwind(AssertUnwindSafe(|| sweep_job(&spec, index, &job, traced)));
        out.map(|mut o| {
            o.span = (t, start.elapsed().as_secs_f64());
            o
        })
        .map_err(|p| panic_text(p.as_ref()))
    });
    let mut round = Round {
        wall_s: start.elapsed().as_secs_f64(),
        ..Round::default()
    };
    let mut done = Vec::new();
    for (out, name) in outs.into_iter().zip(names) {
        match out {
            Ok(o) => {
                round.setup_s += o.setup_s;
                round.refs += o.refs;
                round.job_s.push(o.span.1 - o.span.0);
                round.ipc.push(o.ipc);
                round.layers.add(&o.layers);
                round.ops.push(OpOut::new(
                    name,
                    job_digest(o.ipc, o.hit_rate, o.nvm_bytes_written),
                ));
                done.push(o);
            }
            Err(e) => round.ops.push(OpOut::failed(name, e)),
        }
    }
    round.runner = Some(runner_stats(spec.threads, round.wall_s, &done));
    round
}

/// The replay workload's input, made once per run: a live recording and
/// its stats.
pub struct ReplayInput {
    pub content: TraceContent,
    pub live: SessionStats,
    pub policy: Policy,
}

/// Records the plan's mix under its policy into memory, as `hllc record`
/// does into a file.
pub fn record_input(plan: &Plan, seed: u64) -> Result<ReplayInput, String> {
    let mut flags = plan.record_flags.clone();
    flags.extend(["--seed".to_string(), seed.to_string()]);
    let args = parse_args(&flags)?;
    let header = recording_header(&args, RECORD_CORES);
    let writer = TraceWriter::new(Vec::new(), &header).map_err(|e| e.to_string())?;
    let (live, bytes) = record_session(&args, RECORD_CORES, writer)?;
    let content = TraceReader::new(&bytes[..])
        .and_then(|r| r.read_to_end())
        .map_err(|e| e.to_string())?;
    Ok(ReplayInput {
        content,
        live,
        policy: args.policy(),
    })
}

/// One replay op: `hllc replay`'s session over a loaded trace.
fn replay_op(
    content: &TraceContent,
    policy: Policy,
    tally: &RefTally,
    layers: Option<&mut Layers>,
) -> Result<SessionStats, String> {
    let spec = trace_spec(content)?;
    let cycles = content.header.cycles;
    let streams = ReplayStream::per_core(content);
    let data = TraceData::from_content(content);
    let mut streams = Stamped::all(streams, tally);
    Ok(match layers {
        None => run_session(&spec, policy, cycles, &mut streams, data),
        Some(layers) => {
            let setup = PhaseSetup {
                system: spec.system_config(),
                llc: spec.llc_config_for(policy),
                warmup_cycles: spec.run.warmup_fraction * cycles,
                measure_cycles: cycles,
                scale: spec.footprint_scale(),
                compressor: spec.compressor(),
            };
            let llc = traced_llc(&setup, None, layers);
            let out = traced_phase(&setup, llc, &mut streams, data, Inputs::Recorded, layers);
            layers.nvm_capacity_end_sum +=
                out.array.as_ref().map_or(1.0, |a| a.capacity_fraction());
            layers.nvm_capacity_end_n += 1;
            out.session
        }
    })
}

/// Encodes `content` into a fresh trace: the `traceio` write path.
fn encode(content: &TraceContent) -> Result<Vec<u8>, String> {
    let mut w = TraceWriter::new(Vec::new(), &content.header).map_err(|e| e.to_string())?;
    for a in &content.accesses {
        w.push_access(a);
    }
    for &(block, size) in &content.sizes {
        w.push_size(block, size);
    }
    w.finish().map_err(|e| e.to_string())
}

/// Replay round: encode the recording, load it back, and replay it under
/// every policy of the plan.
pub fn replay_round(plan: &Plan, input: &ReplayInput, traced: bool) -> Round {
    let mut round = Round::default();
    let start = Instant::now();
    let encoded = timed(&mut round.layers.traceio_record_s, || {
        encode(&input.content)
    });
    let loaded = match encoded {
        Ok(bytes) => {
            round.ops.push(OpOut::new("encode", digest(&bytes)));
            round.layers.traceio_bytes += bytes.len() as u64;
            timed(&mut round.layers.traceio_load_s, || {
                TraceReader::new(&bytes[..]).and_then(|r| r.read_to_end())
            })
            .map_err(|e| e.to_string())
        }
        Err(e) => {
            round.ops.push(OpOut::failed("encode", e.clone()));
            Err(e)
        }
    };
    let loaded = match loaded {
        Ok(c) if c == input.content => {
            round.ops.push(OpOut::new("load", String::new()));
            Ok(c)
        }
        Ok(_) => Err("loaded trace differs from the recording".to_string()),
        Err(e) => Err(e),
    };
    let loaded = match loaded {
        Ok(c) => c,
        Err(e) => {
            round.ops.push(OpOut::failed("load", e.clone()));
            for p in &plan.replay_policies {
                round.ops.push(OpOut::failed(p.name(), e.clone()));
            }
            round.wall_s = start.elapsed().as_secs_f64();
            return round;
        }
    };
    let workload = loaded.header.workload.clone();
    for &policy in &plan.replay_policies {
        let t = Instant::now();
        let tally = RefTally::default();
        let layers = traced.then_some(&mut round.layers);
        let out = catch_unwind(AssertUnwindSafe(|| {
            replay_op(&loaded, policy, &tally, layers)
        }))
        .unwrap_or_else(|p| Err(panic_text(p.as_ref())));
        round.job_s.push(t.elapsed().as_secs_f64());
        round.setup_s += setup_of(t, &tally);
        round.refs += tally.refs();
        let op = match out {
            Ok(stats) => {
                round.ipc.push(stats.ipc);
                let mut op = OpOut::new(policy.name(), session_digest(&policy, &workload, &stats));
                if policy == input.policy && stats != input.live {
                    op.error =
                        Some("replay under the recording policy differs from the live run".into());
                }
                op
            }
            Err(e) => OpOut::failed(policy.name(), e),
        };
        round.ops.push(op);
    }
    round.wall_s = start.elapsed().as_secs_f64();
    if !traced {
        round.layers = Layers::default();
    }
    round
}
