//! The `policy × capacity × way-split × latency × mix × seed` sweep behind
//! `hllc sweep`.

use std::sync::Arc;

use hllc_config::ExperimentSpec;
use hllc_core::{HybridConfig, Policy};
use hllc_forecast::{run_phase, run_phase_streams, PhaseSetup};
use hllc_nvm::NvmArray;
use hllc_trace::mixes;
use hllc_traceio::{check_replay, ReplayStream, TraceContent, TraceData};
use serde_json::{json, Value};

use crate::pool::run_indexed;
use crate::seed::job_seed;

/// The experiment grid: one job per
/// `policy × capacity × way-split × latency × mix × replicate`.
#[derive(Clone, Debug)]
pub struct SweepSpec {
    /// Policies to sweep, as `(label, policy)` pairs.
    pub policies: Vec<(String, Policy)>,
    /// Table V mix indices, 0-based.
    pub mixes: Vec<usize>,
    /// Seed replicates per grid cell.
    pub seeds: usize,
    /// NVM capacity fractions to pre-degrade to (1.0 = pristine).
    pub capacities: Vec<f64>,
    /// SRAM/NVM way splits to sweep (Fig. 10b axis). A singleton equal to
    /// the base spec's split reproduces the pre-axis job enumeration.
    pub way_splits: Vec<(usize, usize)>,
    /// NVM latency factors to sweep (Fig. 11b axis). A singleton `1.0`
    /// reproduces the pre-axis job enumeration.
    pub nvm_latency_factors: Vec<f64>,
    /// Base seed; every job derives its own via [`job_seed`].
    pub base_seed: u64,
    /// Base experiment every job starts from; the grid axes above edit a
    /// per-job clone of it.
    pub spec: ExperimentSpec,
    /// Warm-up cycles before statistics reset.
    pub warmup_cycles: f64,
    /// Measured cycles after warm-up.
    pub measure_cycles: f64,
    /// Worker threads. Any value produces byte-identical reports.
    pub threads: usize,
    /// Recorded trace replacing the synthetic mixes: every job replays
    /// these reference streams (and recorded block sizes) instead of
    /// instantiating `mixes()[mix]`. `mixes` then holds one entry, the
    /// recording's mix, which labels the jobs.
    pub trace: Option<Arc<TraceContent>>,
}

/// The most jobs one sweep grid may hold: far above any figure's grid (a
/// few thousand jobs at paper scale), far below a job list that cannot be
/// allocated.
pub const MAX_SWEEP_JOBS: usize = 1 << 16;

impl SweepSpec {
    /// Total number of jobs in the grid, saturating at `usize::MAX` where
    /// the product of the axes would overflow.
    pub fn job_count(&self) -> usize {
        self.axis_product().unwrap_or(usize::MAX)
    }

    /// The number of jobs in the grid, or an error naming it when the grid
    /// holds more than [`MAX_SWEEP_JOBS`] (or more than `usize` counts).
    pub fn checked_job_count(&self) -> Result<usize, String> {
        match self.axis_product() {
            Some(n) if n <= MAX_SWEEP_JOBS => Ok(n),
            n => {
                let count = n.map_or(format!("more than {}", usize::MAX), |n| n.to_string());
                Err(format!(
                    "sweep grid has {count} jobs (at most {MAX_SWEEP_JOBS})"
                ))
            }
        }
    }

    /// Checks that the grid can run: [`checked_job_count`](Self::checked_job_count),
    /// mixes in range, and a trace (if any) with one mix entry that
    /// [`check_replay`] accepts for every way split's system (the other
    /// axes leave the geometry as it is).
    pub fn validate(&self) -> Result<(), String> {
        self.checked_job_count()?;
        if let Some(trace) = &self.trace {
            if self.mixes.len() > 1 {
                return Err(format!(
                    "a trace sweep replays one recording, so it has one mix, not {}",
                    self.mixes.len()
                ));
            }
            let factor = self.spec.system.nvm_latency_factor;
            for &split in &self.way_splits {
                check_replay(trace, &self.job_experiment(split, factor))?;
            }
            return Ok(());
        }
        match self.mixes.iter().find(|&&mix| mix >= mixes().len()) {
            Some(mix) => Err(format!("mix index {mix} out of range")),
            None => Ok(()),
        }
    }

    /// The experiment of the jobs at one way split and NVM latency factor:
    /// the base spec with those axes applied.
    fn job_experiment(&self, (sram_ways, nvm_ways): (usize, usize), factor: f64) -> ExperimentSpec {
        let mut exp = self.spec.clone();
        exp.system.sram_ways = sram_ways;
        exp.system.nvm_ways = nvm_ways;
        exp.system.nvm_latency_factor = factor;
        exp
    }

    fn axis_product(&self) -> Option<usize> {
        [
            self.policies.len(),
            self.capacities.len(),
            self.way_splits.len(),
            self.nvm_latency_factors.len(),
            self.mixes.len(),
            self.seeds,
        ]
        .into_iter()
        .try_fold(1usize, usize::checked_mul)
    }
}

/// One enumerated cell of the grid, before it runs.
#[derive(Clone, Debug)]
struct SweepJob {
    label: String,
    policy: Policy,
    capacity: f64,
    sram_ways: usize,
    nvm_ways: usize,
    nvm_latency_factor: f64,
    mix: usize,
    rep: usize,
}

/// One cell of the grid, measured.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// Position in the deterministic job enumeration.
    pub index: usize,
    /// Policy label from the spec.
    pub policy: String,
    /// Table V mix number, 1-based (as printed by `hllc mixes`).
    pub mix: usize,
    /// Replicate number within the cell, 0-based.
    pub rep: usize,
    /// NVM capacity fraction the array was degraded to.
    pub capacity: f64,
    /// SRAM ways of this job's LLC.
    pub sram_ways: usize,
    /// NVM ways of this job's LLC.
    pub nvm_ways: usize,
    /// NVM latency factor this job ran with.
    pub nvm_latency_factor: f64,
    /// The seed this job ran with (`job_seed(base_seed, index)`).
    pub seed: u64,
    /// Arithmetic-mean IPC across the cores.
    pub ipc: f64,
    /// LLC hit rate over the measured window.
    pub hit_rate: f64,
    /// NVM bytes written over the measured window.
    pub nvm_bytes_written: u64,
    /// Block-size lookups a trace job's recording could not serve, taken
    /// as 64 B ([`TraceData::fallbacks`]); 0 for a synthetic job. Not part
    /// of the report.
    pub fallbacks: u64,
}

/// A completed sweep: the spec it ran and its results in job order.
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// The grid that was run.
    pub spec: SweepSpec,
    /// One result per job, indexed by job order.
    pub results: Vec<JobResult>,
}

/// Builds the (optionally degraded) NVM array for a single-phase run:
/// `None` at full capacity (the phase samples a fresh array itself). The
/// degradation RNG is keyed off `seed` so it follows the per-job stream.
pub fn degraded_array(llc_cfg: &HybridConfig, capacity: f64, seed: u64) -> Option<NvmArray> {
    use rand::SeedableRng;
    if capacity >= 1.0 {
        return None;
    }
    let mut array = llc_cfg.sample_array()?;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x0DE6_AADE);
    array.degrade_to(capacity, &mut rng);
    Some(array)
}

/// The deterministic job enumeration: policies outermost, replicates
/// innermost, the new way-split and latency axes between capacities and
/// mixes. The order is part of the report format — job `index` both names
/// the row and derives its seed — and singleton axes keep it identical to
/// the pre-axis enumeration.
fn enumerate_jobs(spec: &SweepSpec) -> Vec<SweepJob> {
    // Reserve only a count within the cap; `run_sweep` refuses larger grids.
    let mut jobs = Vec::with_capacity(spec.checked_job_count().unwrap_or(0));
    for (label, policy) in &spec.policies {
        for &capacity in &spec.capacities {
            for &(sram_ways, nvm_ways) in &spec.way_splits {
                for &nvm_latency_factor in &spec.nvm_latency_factors {
                    for &mix in &spec.mixes {
                        for rep in 0..spec.seeds {
                            jobs.push(SweepJob {
                                label: label.clone(),
                                policy: *policy,
                                capacity,
                                sram_ways,
                                nvm_ways,
                                nvm_latency_factor,
                                mix,
                                rep,
                            });
                        }
                    }
                }
            }
        }
    }
    jobs
}

/// Runs one job: a replay of `replay`, the trace grid's recording and its
/// size table (cloned per job, counting the job's fallbacks), else the
/// job's mix.
fn run_job(
    spec: &SweepSpec,
    replay: Option<&(&TraceContent, TraceData)>,
    index: usize,
    job: SweepJob,
) -> JobResult {
    let seed = job_seed(spec.base_seed, index);
    let exp = spec.job_experiment((job.sram_ways, job.nvm_ways), job.nvm_latency_factor);
    let setup =
        PhaseSetup::from_spec_for(&exp, job.policy, spec.warmup_cycles, spec.measure_cycles);
    let array = degraded_array(&setup.llc, job.capacity, seed);
    let ((m, _), fallbacks) = match replay {
        Some((trace, sizes)) => {
            let mut streams = ReplayStream::per_core(trace);
            let mut sizes = sizes.clone();
            let out = run_phase_streams(&setup, &mut streams, &mut sizes, array);
            (out, sizes.fallbacks())
        }
        None => (run_phase(&setup, &mixes()[job.mix], array, seed), 0),
    };
    JobResult {
        index,
        policy: job.label,
        mix: job.mix + 1,
        rep: job.rep,
        capacity: job.capacity,
        sram_ways: job.sram_ways,
        nvm_ways: job.nvm_ways,
        nvm_latency_factor: job.nvm_latency_factor,
        seed,
        ipc: m.ipc,
        hit_rate: m.hit_rate,
        nvm_bytes_written: m.llc.nvm_bytes_written,
        fallbacks,
    }
}

/// Runs the grid on `spec.threads` workers and returns the report. The
/// report is a pure function of the spec minus its `threads` field.
///
/// # Panics
///
/// Panics if [`SweepSpec::validate`] fails; call it first.
#[expect(clippy::panic, reason = "documented: callers validate first")]
pub fn run_sweep(spec: &SweepSpec) -> SweepReport {
    if let Err(e) = spec.validate() {
        panic!("{e}");
    }
    let jobs = enumerate_jobs(spec);
    // A trace grid builds its recording's size table once.
    let replay = spec
        .trace
        .as_deref()
        .map(|t| (t, TraceData::from_content(t)));
    let results = run_indexed(jobs, spec.threads, |index, job| {
        run_job(spec, replay.as_ref(), index, job)
    });
    SweepReport {
        spec: spec.clone(),
        results,
    }
}

/// Renders the report as JSON. Keys are emitted in sorted order and the
/// thread count is deliberately omitted, so structural equality — and hence
/// serialized byte equality — holds across `--jobs` settings.
pub fn report_json(report: &SweepReport) -> Value {
    let spec = &report.spec;
    let mut summary: Vec<Value> = Vec::new();
    for (label, _) in &spec.policies {
        for &capacity in &spec.capacities {
            // Aggregate in job-index order so float sums are reproducible.
            let cell: Vec<&JobResult> = report
                .results
                .iter()
                .filter(|r| &r.policy == label && r.capacity == capacity)
                .collect();
            if cell.is_empty() {
                continue;
            }
            let n = cell.len() as f64;
            let ipc: f64 = cell.iter().map(|r| r.ipc).sum::<f64>() / n;
            let hit: f64 = cell.iter().map(|r| r.hit_rate).sum::<f64>() / n;
            let bytes: u64 = cell.iter().map(|r| r.nvm_bytes_written).sum();
            summary.push(json!({
                "policy": label,
                "capacity": capacity,
                "mean_ipc": ipc,
                "mean_hit_rate": hit,
                "total_nvm_bytes_written": bytes,
            }));
        }
    }
    json!({
        "experiment": "sweep",
        "base_seed": spec.base_seed,
        "sets": spec.spec.system.llc_sets,
        "warmup_cycles": spec.warmup_cycles,
        "measure_cycles": spec.measure_cycles,
        "policies": spec.policies.iter().map(|(l, _)| l.as_str()).collect::<Vec<_>>(),
        "mixes": spec.mixes.iter().map(|m| m + 1).collect::<Vec<_>>(),
        "seeds_per_cell": spec.seeds,
        "capacities": &spec.capacities,
        "way_splits": spec
            .way_splits
            .iter()
            .map(|&(s, n)| json!(vec![s, n]))
            .collect::<Vec<_>>(),
        "nvm_latency_factors": &spec.nvm_latency_factors,
        "trace_workload": spec.trace.as_ref().map(|t| t.header.workload.clone()),
        "jobs": report.results.iter().map(|r| json!({
            "index": r.index,
            "policy": r.policy,
            "mix": r.mix,
            "rep": r.rep,
            "capacity": r.capacity,
            "sram_ways": r.sram_ways,
            "nvm_ways": r.nvm_ways,
            "nvm_latency_factor": r.nvm_latency_factor,
            "seed": r.seed,
            "ipc": r.ipc,
            "hit_rate": r.hit_rate,
            "nvm_bytes_written": r.nvm_bytes_written,
        })).collect::<Vec<_>>(),
        "summary": summary,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_exp() -> ExperimentSpec {
        let mut exp = ExperimentSpec::preset("scaled").expect("builtin preset");
        exp.system.llc_sets = 64;
        exp.validate().expect("64-set scaled variant");
        exp
    }

    fn tiny_spec(threads: usize) -> SweepSpec {
        let exp = tiny_exp();
        SweepSpec {
            policies: vec![("BH".into(), Policy::Bh), ("CP_SD".into(), Policy::cp_sd())],
            mixes: vec![0],
            seeds: 2,
            capacities: vec![1.0, 0.7],
            way_splits: vec![(exp.system.sram_ways, exp.system.nvm_ways)],
            nvm_latency_factors: vec![exp.system.nvm_latency_factor],
            base_seed: 42,
            spec: exp,
            warmup_cycles: 5_000.0,
            measure_cycles: 10_000.0,
            threads,
            trace: None,
        }
    }

    #[test]
    fn job_enumeration_is_the_full_grid() {
        let spec = tiny_spec(1);
        let jobs = enumerate_jobs(&spec);
        assert_eq!(jobs.len(), spec.job_count());
        assert_eq!(jobs.len(), 8);
        // Policies outermost, replicates innermost.
        assert_eq!(jobs[0].label, "BH");
        assert_eq!(jobs[1].rep, 1);
        assert_eq!(jobs[4].label, "CP_SD");
    }

    #[test]
    fn job_count_is_checked_against_the_cap_and_overflow() {
        let mut spec = tiny_spec(1);
        // 2 policies × 2 capacities = 4 jobs per seed.
        spec.seeds = MAX_SWEEP_JOBS / 4;
        assert_eq!(spec.checked_job_count(), Ok(MAX_SWEEP_JOBS));
        spec.seeds += 1;
        let e = spec.checked_job_count().unwrap_err();
        assert!(e.contains(&format!("{} jobs", MAX_SWEEP_JOBS + 4)), "{e}");
        // 4 × usize::MAX overflows: saturated, never wrapped.
        spec.seeds = usize::MAX;
        assert_eq!(spec.job_count(), usize::MAX);
        let e = spec.checked_job_count().unwrap_err();
        assert!(e.contains(&format!("more than {}", usize::MAX)), "{e}");
    }

    #[test]
    #[should_panic(expected = "at most 65536")]
    fn run_sweep_refuses_an_oversized_grid() {
        let mut spec = tiny_spec(1);
        spec.seeds = usize::MAX / 4;
        run_sweep(&spec);
    }

    #[test]
    fn way_split_and_latency_axes_expand_the_grid() {
        let mut spec = tiny_spec(1);
        spec.capacities = vec![1.0];
        spec.seeds = 1;
        spec.way_splits = vec![(4, 12), (3, 13)];
        spec.nvm_latency_factors = vec![1.0, 1.5];
        assert_eq!(spec.job_count(), 2 * 2 * 2);
        let report = run_sweep(&spec);
        assert_eq!(report.results.len(), 8);
        // Way splits outermost of the two new axes, latency inside.
        assert_eq!(
            (report.results[0].sram_ways, report.results[0].nvm_ways),
            (4, 12)
        );
        assert_eq!(report.results[0].nvm_latency_factor, 1.0);
        assert_eq!(report.results[1].nvm_latency_factor, 1.5);
        assert_eq!(
            (report.results[2].sram_ways, report.results[2].nvm_ways),
            (3, 13)
        );
        for r in &report.results {
            assert!(r.ipc > 0.0, "job {} idle", r.index);
        }
        // The axes land in the report rows and preamble.
        let v = report_json(&report);
        assert_eq!(
            v.get("way_splits").unwrap(),
            &json!(vec![vec![4usize, 12], vec![3, 13]]),
        );
        assert_eq!(v.get("nvm_latency_factors").unwrap(), &json!([1.0, 1.5]));
        let rows = v.get("jobs").and_then(Value::as_array).unwrap();
        assert_eq!(rows[2].get("sram_ways").unwrap(), &json!(3usize));
        assert_eq!(rows[1].get("nvm_latency_factor").unwrap(), &json!(1.5));
    }

    #[test]
    fn sweep_produces_activity_and_ordered_results() {
        let report = run_sweep(&tiny_spec(1));
        assert_eq!(report.results.len(), 8);
        for (i, r) in report.results.iter().enumerate() {
            assert_eq!(r.index, i);
            assert_eq!(r.seed, job_seed(42, i));
            assert!(r.ipc > 0.0, "job {i} idle");
        }
    }

    #[test]
    fn report_json_has_summary_per_cell() {
        let report = run_sweep(&tiny_spec(2));
        let v = report_json(&report);
        assert_eq!(v.get("summary").and_then(Value::as_array).unwrap().len(), 4);
        assert_eq!(v.get("jobs").and_then(Value::as_array).unwrap().len(), 8);
    }

    #[test]
    fn a_trace_beyond_its_header_cores_fails_validation() {
        use hllc_sim::Access;
        use hllc_traceio::TraceHeader;
        let mut spec = tiny_spec(1);
        spec.trace = Some(Arc::new(TraceContent {
            header: TraceHeader {
                cores: 1,
                mix: 0,
                seed: 42,
                sets: 64,
                cycles: 10_000.0,
                policy: "bh".into(),
                workload: "synthetic fixture".into(),
                spec_json: None,
            },
            accesses: vec![Access::load(0, 0x40), Access::load(1, 0x80)],
            sizes: Vec::new(),
        }));
        let e = spec.validate().unwrap_err();
        assert!(e.contains("access 1 names core 1"), "{e}");
        spec.trace = None;
        spec.mixes = vec![10];
        assert_eq!(spec.validate(), Err("mix index 10 out of range".into()));
    }

    #[test]
    fn a_trace_grid_has_one_mix() {
        let mut spec = tiny_spec(1);
        spec.trace = Some(Arc::new(TraceContent {
            header: hllc_traceio::TraceHeader {
                cores: 1,
                mix: 1,
                seed: 42,
                sets: 64,
                cycles: 10_000.0,
                policy: "bh".into(),
                workload: "mix 1".into(),
                spec_json: None,
            },
            accesses: vec![hllc_sim::Access::load(0, 0x40)],
            sizes: Vec::new(),
        }));
        assert_eq!(spec.validate(), Ok(()));
        spec.mixes = vec![0, 1];
        let e = spec.validate().unwrap_err();
        assert!(e.contains("one mix, not 2"), "{e}");
    }

    #[test]
    fn trace_replay_sweep_is_deterministic_and_active() {
        use hllc_sim::Access;
        use hllc_traceio::TraceHeader;
        let accesses: Vec<Access> = (0..40_000u64)
            .map(|i| {
                let core = (i % 2) as u8;
                let addr = (((i / 2) % 512) << 6) | (u64::from(core) << 32);
                Access {
                    inst_gap: (i % 7) as u32,
                    ..Access::load(core, addr)
                }
            })
            .collect();
        let sizes: Vec<(u64, u8)> = accesses
            .iter()
            .map(|a| (a.addr >> 6, 24u8))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let content = Arc::new(TraceContent {
            header: TraceHeader {
                cores: 2,
                mix: 0,
                seed: 42,
                sets: 64,
                cycles: 10_000.0,
                policy: "bh".into(),
                workload: "synthetic fixture".into(),
                spec_json: None,
            },
            accesses,
            sizes,
        });
        let mut spec = tiny_spec(1);
        spec.trace = Some(content);
        let serial = run_sweep(&spec);
        for r in &serial.results {
            assert!(r.ipc > 0.0, "trace job {} idle", r.index);
        }
        spec.threads = 4;
        let parallel = run_sweep(&spec);
        let key = |rep: &SweepReport| -> Vec<(usize, u64, u64)> {
            rep.results
                .iter()
                .map(|r| (r.index, r.ipc.to_bits(), r.nvm_bytes_written))
                .collect()
        };
        assert_eq!(key(&serial), key(&parallel));
        let v = report_json(&serial);
        assert_eq!(
            v.get("trace_workload").and_then(Value::as_str),
            Some("synthetic fixture")
        );
    }

    #[test]
    fn degraded_array_none_at_full_capacity() {
        let exp = tiny_exp();
        let cfg = exp.llc_config_for(Policy::Bh);
        assert!(degraded_array(&cfg, 1.0, 1).is_none());
        let arr = degraded_array(&cfg, 0.8, 1).expect("degraded array");
        assert!(arr.capacity_fraction() <= 0.8);
    }
}
