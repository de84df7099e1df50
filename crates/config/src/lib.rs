//! # hllc-config
//!
//! The declarative experiment layer: every figure of the paper is a point
//! in one configuration space — Table IV geometry × policy × workload ×
//! endurance × sensitivity knobs — and [`ExperimentSpec`] is that point as
//! one owned, validated, serializable value. `hllc run`, `record`,
//! `replay`, `sweep`, and `forecast` all construct their systems through
//! it, recordings embed the resolved spec in the trace header so a replay
//! reconstructs the exact system, and the named [presets](ExperimentSpec::preset)
//! pin the paper's configurations (including the Fig. 10b/11a/11b/11c
//! sensitivity variants) in one place.
//!
//! The JSON schema mirrors the struct nesting (`system` / `hybrid` /
//! `workload` / `run` / `forecast` sections); parsing is strict — unknown
//! or missing fields are structured [`SpecError`]s naming the offending
//! field, not silent defaults.

// The lints this crate denies (DESIGN §12.1).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::disallowed_types, clippy::wildcard_enum_match_arm)]

use std::collections::BTreeMap;

use hllc_compress::CompressorKind;
use hllc_core::{HybridConfig, Policy};
use hllc_sim::SystemConfig;
use serde_json::{Number, Value};

/// LLC sets of the paper's full-scale 4 MB configuration. Workload
/// footprints scale relative to this (see [`footprint_scale`]).
pub const PAPER_SETS: usize = 4096;

/// Mean NVM bitcell endurance of the paper's configuration (writes).
pub const PAPER_ENDURANCE: f64 = 1e10;

/// Width of the `u16` remote-holder mask the hierarchy's peer-L2 probe
/// builds on each coherence miss: the hard ceiling on `system.cores`.
pub const MAX_CORES: usize = 16;

/// Width of the per-set way mask: the hard ceiling on
/// `sram_ways + nvm_ways`.
pub const MAX_WAYS: usize = 16;

/// Ceiling on `l1_sets`, `l2_sets` and `llc_sets`: 4× the paper's LLC.
/// Every cache allocates its sets up front, so this bounds what a spec can
/// make the simulator allocate.
pub const MAX_SETS: usize = 1 << 14;

/// Ceiling on `l1_ways` and `l2_ways`: 2× the paper's L2.
pub const MAX_PRIVATE_WAYS: usize = 32;

/// Ceiling on a cycle budget: `run.cycles`, `forecast.warmup_cycles` and
/// `forecast.measure_cycles` (and `--cycles`). It is 1000× the largest
/// budget used by any preset, harness, test, CI step or the benchmark
/// (which records 1e7 cycles; the paper preset measures 8e6 per phase). A
/// run of this many cycles is minutes of simulation; a larger finite
/// budget, such as 1e300, would run until killed.
pub const MAX_CYCLES: f64 = 1e10;

/// Checks a cycle budget against the rule every cycle field and `--cycles`
/// share: positive and at most [`MAX_CYCLES`] (so never NaN or infinite).
/// The error is the rule, for the caller to attach to its field or flag.
pub fn check_cycle_budget(cycles: f64) -> Result<f64, String> {
    if cycles > 0.0 && cycles <= MAX_CYCLES {
        Ok(cycles)
    } else {
        Err(format!(
            "must be a finite positive cycle count, at most {MAX_CYCLES:e}"
        ))
    }
}

/// Footprint scale implied by an LLC set count ([`PAPER_SETS`] = 1.0).
/// The single home of the sets-relative-to-4096 derivation.
pub fn footprint_scale(sets: usize) -> f64 {
    sets as f64 / PAPER_SETS as f64
}

/// System geometry and timing knobs (Table IV and its sensitivity axes).
#[derive(Clone, Debug, PartialEq)]
pub struct SystemSpec {
    /// Number of cores (1..=[`MAX_CORES`]).
    pub cores: usize,
    /// L1 data-cache sets.
    pub l1_sets: usize,
    /// L1 associativity.
    pub l1_ways: usize,
    /// Private L2 sets.
    pub l2_sets: usize,
    /// L2 associativity.
    pub l2_ways: usize,
    /// Shared LLC sets (power of two).
    pub llc_sets: usize,
    /// SRAM ways per LLC set.
    pub sram_ways: usize,
    /// NVM ways per LLC set.
    pub nvm_ways: usize,
    /// NVM data-array read-latency scale (Fig. 11b runs ×1.5).
    pub nvm_latency_factor: f64,
    /// Model banked open-page DRAM instead of the flat memory latency.
    pub dram: bool,
}

/// Hybrid-LLC policy and endurance knobs.
#[derive(Clone, Debug, PartialEq)]
pub struct HybridSpec {
    /// Insertion-policy label, parsed by [`Policy::parse`].
    pub policy: String,
    /// Mean bitcell endurance (writes).
    pub endurance_mean: f64,
    /// Coefficient of variation of the endurance distribution.
    pub endurance_cv: f64,
    /// Set Dueling epoch length in cycles.
    pub epoch_cycles: u64,
    /// Inter-epoch smoothing of the Set Dueling counters (0 = raw).
    pub dueling_smoothing: f64,
    /// Compressor label: `bdi` or `fpc`.
    pub compressor: String,
}

/// Workload binding: which Table V mix, at what seed. The footprint scale
/// is not stored — it derives from `system.llc_sets` (see
/// [`ExperimentSpec::footprint_scale`]).
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadSpec {
    /// Table V mix number, 1-based (as printed by `hllc mixes`).
    pub mix: usize,
    /// Base seed.
    pub seed: u64,
}

/// Single-phase run recipe.
#[derive(Clone, Debug, PartialEq)]
pub struct RunSpec {
    /// Warm-up, as a fraction of `cycles`, driven before statistics reset.
    pub warmup_fraction: f64,
    /// Measured cycle budget.
    pub cycles: f64,
}

impl RunSpec {
    /// Warm-up cycles before a `measure_cycles`-long measured window.
    pub fn warmup_cycles(&self, measure_cycles: f64) -> f64 {
        self.warmup_fraction * measure_cycles
    }
}

/// Aging-forecast recipe (the alternating simulate/predict procedure).
#[derive(Clone, Debug, PartialEq)]
pub struct ForecastSpec {
    /// Warm-up cycles per simulation phase.
    pub warmup_cycles: f64,
    /// Measured cycles per simulation phase.
    pub measure_cycles: f64,
    /// Maximum capacity fraction lost per prediction step.
    pub capacity_step: f64,
    /// Hard cap on a prediction step, in seconds.
    pub max_step_seconds: f64,
    /// Stop when NVM capacity reaches this fraction.
    pub stop_capacity: f64,
    /// Hard cap on the number of simulate/predict iterations.
    pub max_steps: usize,
}

/// One experiment, fully parameterized. See the crate docs.
#[derive(Clone, Debug, PartialEq)]
pub struct ExperimentSpec {
    /// Human-readable label (preset name, or whatever the file says).
    pub name: String,
    /// System geometry and timing.
    pub system: SystemSpec,
    /// LLC policy and endurance knobs.
    pub hybrid: HybridSpec,
    /// Workload binding.
    pub workload: WorkloadSpec,
    /// Single-phase run recipe.
    pub run: RunSpec,
    /// Forecast recipe.
    pub forecast: ForecastSpec,
}

/// Structured specification errors. Every variant names what went wrong
/// precisely enough to fix the spec file without reading source code.
#[derive(Clone, Debug, PartialEq)]
pub enum SpecError {
    /// A field is present but its value is out of range or malformed.
    Invalid {
        /// Dotted path of the offending field, e.g. `system.llc_sets`.
        field: String,
        /// What constraint was violated.
        message: String,
    },
    /// The JSON names a field the schema does not have (typo protection).
    UnknownField {
        /// Dotted path of the unrecognized field.
        field: String,
    },
    /// A required field is absent.
    MissingField {
        /// Dotted path of the absent field.
        field: String,
    },
    /// The file is not valid JSON at all.
    Json {
        /// Parser message with byte offset.
        message: String,
    },
    /// Reading or writing the spec file failed.
    Io {
        /// The path involved.
        path: String,
        /// The I/O error text.
        message: String,
    },
    /// [`ExperimentSpec::preset`] was asked for a name it does not know.
    UnknownPreset {
        /// The requested name.
        name: String,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Invalid { field, message } => {
                write!(f, "invalid spec field '{field}': {message}")
            }
            SpecError::UnknownField { field } => write!(f, "unknown spec field '{field}'"),
            SpecError::MissingField { field } => write!(f, "missing spec field '{field}'"),
            SpecError::Json { message } => write!(f, "spec is not valid JSON: {message}"),
            SpecError::Io { path, message } => write!(f, "spec file {path}: {message}"),
            SpecError::UnknownPreset { name } => write!(
                f,
                "unknown preset '{name}' (available: {})",
                ExperimentSpec::preset_names().join(", ")
            ),
        }
    }
}

impl std::error::Error for SpecError {}

fn invalid(field: &str, message: impl Into<String>) -> SpecError {
    SpecError::Invalid {
        field: field.to_string(),
        message: message.into(),
    }
}

impl ExperimentSpec {
    // ------------------------------------------------------------------
    // Presets
    // ------------------------------------------------------------------

    /// The names [`ExperimentSpec::preset`] accepts.
    pub fn preset_names() -> Vec<&'static str> {
        vec![
            "paper",
            "scaled",
            "waysplit-3-13",
            "l2-doubled",
            "nvm-latency-x1.5",
            "equal-cost-10w",
        ]
    }

    /// A named preset:
    ///
    /// | name | configuration |
    /// |------|---------------|
    /// | `paper` | Table IV full scale: 4096 sets, μ = 10¹⁰ endurance, 2 M-cycle epochs |
    /// | `scaled` | 1/8-set system for fast runs: 512 sets, μ = 10⁸, 100 k-cycle epochs, 0.6 dueling smoothing (the default of every CLI command) |
    /// | `waysplit-3-13` | `scaled` with 3 SRAM + 13 NVM ways (Fig. 10b) |
    /// | `l2-doubled` | `scaled` with the private L2 doubled (Fig. 11a) |
    /// | `nvm-latency-x1.5` | `scaled` with the NVM data array ×1.5 slower (Fig. 11b) |
    /// | `equal-cost-10w` | `scaled` with 10 NVM ways — the fault-map storage equalization of Fig. 11c |
    pub fn preset(name: &str) -> Result<ExperimentSpec, SpecError> {
        let spec = match name {
            "paper" => ExperimentSpec {
                name: "paper".into(),
                system: SystemSpec {
                    cores: 4,
                    l1_sets: 128,
                    l1_ways: 4,
                    l2_sets: 128,
                    l2_ways: 16,
                    llc_sets: 4096,
                    sram_ways: 4,
                    nvm_ways: 12,
                    nvm_latency_factor: 1.0,
                    dram: false,
                },
                hybrid: HybridSpec {
                    policy: "cp_sd".into(),
                    endurance_mean: PAPER_ENDURANCE,
                    endurance_cv: 0.2,
                    epoch_cycles: 2_000_000,
                    dueling_smoothing: 0.0,
                    compressor: "bdi".into(),
                },
                workload: WorkloadSpec { mix: 1, seed: 42 },
                run: RunSpec {
                    warmup_fraction: 0.2,
                    cycles: 2.0e6,
                },
                forecast: ForecastSpec {
                    warmup_cycles: 2.0e6,
                    measure_cycles: 8.0e6,
                    capacity_step: 0.025,
                    max_step_seconds: 120.0 * 86_400.0,
                    stop_capacity: 0.5,
                    max_steps: 60,
                },
            },
            "scaled" => ExperimentSpec {
                name: "scaled".into(),
                system: SystemSpec {
                    cores: 4,
                    l1_sets: 64,
                    l1_ways: 4,
                    l2_sets: 32,
                    l2_ways: 16,
                    llc_sets: 512,
                    sram_ways: 4,
                    nvm_ways: 12,
                    nvm_latency_factor: 1.0,
                    dram: false,
                },
                hybrid: HybridSpec {
                    policy: "cp_sd".into(),
                    endurance_mean: 1e8,
                    endurance_cv: 0.2,
                    epoch_cycles: 100_000,
                    dueling_smoothing: 0.6,
                    compressor: "bdi".into(),
                },
                workload: WorkloadSpec { mix: 1, seed: 42 },
                run: RunSpec {
                    warmup_fraction: 0.2,
                    cycles: 2.0e6,
                },
                forecast: ForecastSpec {
                    warmup_cycles: 4.0e5,
                    measure_cycles: 1.6e6,
                    capacity_step: 0.03,
                    max_step_seconds: 2.0 * 86_400.0,
                    stop_capacity: 0.5,
                    max_steps: 40,
                },
            },
            "waysplit-3-13" => {
                let mut s = ExperimentSpec::preset("scaled")?;
                s.name = "waysplit-3-13".into();
                s.system.sram_ways = 3;
                s.system.nvm_ways = 13;
                s
            }
            "l2-doubled" => {
                let mut s = ExperimentSpec::preset("scaled")?;
                s.name = "l2-doubled".into();
                s.system.l2_sets *= 2;
                s
            }
            "nvm-latency-x1.5" => {
                let mut s = ExperimentSpec::preset("scaled")?;
                s.name = "nvm-latency-x1.5".into();
                s.system.nvm_latency_factor = 1.5;
                s
            }
            "equal-cost-10w" => {
                let mut s = ExperimentSpec::preset("scaled")?;
                s.name = "equal-cost-10w".into();
                s.system.nvm_ways = 10;
                s
            }
            other => {
                return Err(SpecError::UnknownPreset {
                    name: other.to_string(),
                })
            }
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Resolves a `--spec` argument: a preset name, or a path to a JSON
    /// spec file. The result is validated.
    pub fn resolve(arg: &str) -> Result<ExperimentSpec, SpecError> {
        if Self::preset_names().contains(&arg) {
            return Self::preset(arg);
        }
        Self::load(arg)
    }

    // ------------------------------------------------------------------
    // Validation
    // ------------------------------------------------------------------

    /// Checks every constraint the simulator's constructors would otherwise
    /// assert, returning a structured error naming the offending field.
    pub fn validate(&self) -> Result<(), SpecError> {
        let s = &self.system;
        if s.cores == 0 || s.cores > MAX_CORES {
            return Err(invalid(
                "system.cores",
                format!(
                    "must be 1..={MAX_CORES} (the coherence probe's remote-holder mask is {MAX_CORES} bits), got {}",
                    s.cores
                ),
            ));
        }
        for (field, v) in [("system.l1_ways", s.l1_ways), ("system.l2_ways", s.l2_ways)] {
            if v == 0 || v > MAX_PRIVATE_WAYS {
                return Err(invalid(
                    field,
                    format!("must be 1..={MAX_PRIVATE_WAYS}, got {v}"),
                ));
            }
        }
        for (field, v) in [
            ("system.l1_sets", s.l1_sets),
            ("system.l2_sets", s.l2_sets),
            ("system.llc_sets", s.llc_sets),
        ] {
            if !v.is_power_of_two() {
                return Err(invalid(field, format!("must be a power of two, got {v}")));
            }
            if v > MAX_SETS {
                return Err(invalid(field, format!("must be <= {MAX_SETS}, got {v}")));
            }
        }
        // Saturating, so a huge way count cannot wrap the sum into range.
        let ways = s.sram_ways.saturating_add(s.nvm_ways);
        if ways == 0 {
            return Err(invalid(
                "system.sram_ways",
                "the LLC needs at least one way (sram_ways + nvm_ways >= 1)",
            ));
        }
        if ways > MAX_WAYS {
            return Err(invalid(
                "system.nvm_ways",
                format!(
                    "sram_ways + nvm_ways must be <= {MAX_WAYS} (the per-set way mask is {MAX_WAYS} bits), got {} + {}",
                    s.sram_ways, s.nvm_ways
                ),
            ));
        }
        if !s.nvm_latency_factor.is_finite() || s.nvm_latency_factor <= 0.0 {
            return Err(invalid(
                "system.nvm_latency_factor",
                "must be a finite positive number",
            ));
        }

        let h = &self.hybrid;
        if Policy::parse(&h.policy).is_none() {
            return Err(invalid(
                "hybrid.policy",
                format!("unknown policy '{}' (try `hllc policies`)", h.policy),
            ));
        }
        if !h.endurance_mean.is_finite() || h.endurance_mean <= 0.0 {
            return Err(invalid(
                "hybrid.endurance_mean",
                "must be a finite positive number of writes",
            ));
        }
        if !h.endurance_cv.is_finite() || h.endurance_cv < 0.0 || h.endurance_cv >= 1.0 {
            return Err(invalid("hybrid.endurance_cv", "must be in 0.0..1.0"));
        }
        if h.epoch_cycles == 0 {
            return Err(invalid("hybrid.epoch_cycles", "must be at least 1"));
        }
        if !h.dueling_smoothing.is_finite()
            || h.dueling_smoothing < 0.0
            || h.dueling_smoothing >= 1.0
        {
            return Err(invalid("hybrid.dueling_smoothing", "must be in 0.0..1.0"));
        }
        if parse_compressor(&h.compressor).is_none() {
            return Err(invalid(
                "hybrid.compressor",
                format!("unknown compressor '{}' (bdi or fpc)", h.compressor),
            ));
        }

        if !(1..=10).contains(&self.workload.mix) {
            return Err(invalid(
                "workload.mix",
                format!(
                    "Table V mixes are numbered 1..=10, got {}",
                    self.workload.mix
                ),
            ));
        }

        let r = &self.run;
        if !r.warmup_fraction.is_finite() || r.warmup_fraction < 0.0 || r.warmup_fraction > 10.0 {
            return Err(invalid("run.warmup_fraction", "must be in 0.0..=10.0"));
        }
        let f = &self.forecast;
        for (field, v) in [
            ("run.cycles", r.cycles),
            ("forecast.warmup_cycles", f.warmup_cycles),
            ("forecast.measure_cycles", f.measure_cycles),
        ] {
            check_cycle_budget(v).map_err(|rule| invalid(field, rule))?;
        }
        if !f.max_step_seconds.is_finite() || f.max_step_seconds <= 0.0 {
            return Err(invalid(
                "forecast.max_step_seconds",
                "must be a finite positive number",
            ));
        }
        if !f.capacity_step.is_finite() || f.capacity_step <= 0.0 || f.capacity_step > 1.0 {
            return Err(invalid("forecast.capacity_step", "must be in 0.0..=1.0"));
        }
        if !f.stop_capacity.is_finite() || f.stop_capacity <= 0.0 || f.stop_capacity >= 1.0 {
            return Err(invalid("forecast.stop_capacity", "must be in 0.0..1.0"));
        }
        if f.max_steps == 0 {
            return Err(invalid("forecast.max_steps", "must be at least 1"));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Constructors onto the simulator's types
    // ------------------------------------------------------------------

    /// Builds the [`SystemConfig`] this spec describes: cores, private
    /// caches, timing and memory. The LLC geometry (`llc_sets`, the way
    /// split) goes to [`llc_config`](Self::llc_config) instead. Call
    /// [`validate`](Self::validate) first; geometry constraints are not
    /// re-checked here.
    pub fn system_config(&self) -> SystemConfig {
        let s = &self.system;
        let mut cfg = SystemConfig {
            cores: s.cores,
            l1_sets: s.l1_sets,
            l1_ways: s.l1_ways,
            l2_sets: s.l2_sets,
            l2_ways: s.l2_ways,
            timing: Default::default(),
            dram: s.dram,
        };
        if s.nvm_latency_factor != 1.0 {
            cfg = cfg.with_nvm_latency_factor(s.nvm_latency_factor);
        }
        cfg
    }

    /// The parsed insertion policy.
    ///
    /// # Panics
    ///
    /// Panics if `hybrid.policy` does not parse — validate first.
    #[expect(clippy::panic, reason = "documented; validate() rejects it")]
    pub fn policy(&self) -> Policy {
        Policy::parse(&self.hybrid.policy)
            .unwrap_or_else(|| panic!("unvalidated spec: bad policy '{}'", self.hybrid.policy))
    }

    /// The parsed compressor kind.
    ///
    /// # Panics
    ///
    /// Panics if `hybrid.compressor` does not parse — validate first.
    #[expect(clippy::panic, reason = "documented; validate() rejects it")]
    pub fn compressor(&self) -> CompressorKind {
        parse_compressor(&self.hybrid.compressor).unwrap_or_else(|| {
            panic!(
                "unvalidated spec: bad compressor '{}'",
                self.hybrid.compressor
            )
        })
    }

    /// Builds the [`HybridConfig`] this spec describes, under its own
    /// policy.
    pub fn llc_config(&self) -> HybridConfig {
        self.llc_config_for(self.policy())
    }

    /// Builds the [`HybridConfig`] this spec describes, under `policy`
    /// (the replay-under-another-policy and compare paths).
    pub fn llc_config_for(&self, policy: Policy) -> HybridConfig {
        let s = &self.system;
        let h = &self.hybrid;
        HybridConfig::new(s.llc_sets, s.sram_ways, s.nvm_ways, policy)
            .with_endurance(h.endurance_mean, h.endurance_cv)
            .with_epoch_cycles(h.epoch_cycles)
            .with_dueling_smoothing(h.dueling_smoothing)
    }

    /// Workload footprint scale implied by the LLC geometry
    /// ([`PAPER_SETS`] sets = 1.0).
    pub fn footprint_scale(&self) -> f64 {
        footprint_scale(self.system.llc_sets)
    }

    /// How many times longer the paper's system ([`PAPER_ENDURANCE`],
    /// [`PAPER_SETS`] sets, this spec's ways) takes to reach a capacity
    /// point than this spec's, as `(μ ratio, frame ratio)`. Failure times
    /// are linear in μ, and in the number of NVM frames that share the NVM
    /// write bandwidth, which is about the same bytes per cycle at both
    /// scales. The product converts this spec's simulated time into
    /// paper-equivalent time: ×800 for `scaled`, ×1 for `paper`.
    pub fn paper_time_scale(&self) -> (f64, f64) {
        (
            PAPER_ENDURANCE / self.hybrid.endurance_mean,
            PAPER_SETS as f64 / self.system.llc_sets as f64,
        )
    }

    /// The 0-based index of the Table V mix (`workload.mix` is 1-based).
    pub fn mix_index(&self) -> usize {
        self.workload.mix - 1
    }

    // ------------------------------------------------------------------
    // JSON
    // ------------------------------------------------------------------

    /// Renders the spec as a JSON value with sorted keys.
    pub fn to_json(&self) -> Value {
        let obj = |pairs: Vec<(&str, Value)>| {
            Value::Object(
                pairs
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect::<BTreeMap<_, _>>(),
            )
        };
        let s = &self.system;
        let h = &self.hybrid;
        let f = &self.forecast;
        obj(vec![
            ("name", Value::String(self.name.clone())),
            (
                "system",
                obj(vec![
                    ("cores", uint(s.cores as u64)),
                    ("l1_sets", uint(s.l1_sets as u64)),
                    ("l1_ways", uint(s.l1_ways as u64)),
                    ("l2_sets", uint(s.l2_sets as u64)),
                    ("l2_ways", uint(s.l2_ways as u64)),
                    ("llc_sets", uint(s.llc_sets as u64)),
                    ("sram_ways", uint(s.sram_ways as u64)),
                    ("nvm_ways", uint(s.nvm_ways as u64)),
                    ("nvm_latency_factor", float(s.nvm_latency_factor)),
                    ("dram", Value::Bool(s.dram)),
                ]),
            ),
            (
                "hybrid",
                obj(vec![
                    ("policy", Value::String(h.policy.clone())),
                    ("endurance_mean", float(h.endurance_mean)),
                    ("endurance_cv", float(h.endurance_cv)),
                    ("epoch_cycles", uint(h.epoch_cycles)),
                    ("dueling_smoothing", float(h.dueling_smoothing)),
                    ("compressor", Value::String(h.compressor.clone())),
                ]),
            ),
            (
                "workload",
                obj(vec![
                    ("mix", uint(self.workload.mix as u64)),
                    ("seed", uint(self.workload.seed)),
                ]),
            ),
            (
                "run",
                obj(vec![
                    ("warmup_fraction", float(self.run.warmup_fraction)),
                    ("cycles", float(self.run.cycles)),
                ]),
            ),
            (
                "forecast",
                obj(vec![
                    ("warmup_cycles", float(f.warmup_cycles)),
                    ("measure_cycles", float(f.measure_cycles)),
                    ("capacity_step", float(f.capacity_step)),
                    ("max_step_seconds", float(f.max_step_seconds)),
                    ("stop_capacity", float(f.stop_capacity)),
                    ("max_steps", uint(f.max_steps as u64)),
                ]),
            ),
        ])
    }

    /// Pretty-printed JSON, trailing newline included (the `--dump` and
    /// `specs/` file format).
    #[expect(clippy::expect_used, reason = "writing a JSON value cannot fail")]
    pub fn to_string_pretty(&self) -> String {
        serde_json::to_string_pretty(&self.to_json()).expect("spec serialization cannot fail")
            + "\n"
    }

    /// Decodes and validates a spec from a JSON value. Strict: every field
    /// of the schema is required, unknown fields are errors.
    pub fn from_json(v: &Value) -> Result<ExperimentSpec, SpecError> {
        let root = Fields::new(v, "")?;
        let system = {
            let f = Fields::new(root.get("system")?, "system")?;
            let spec = SystemSpec {
                cores: f.usize("cores")?,
                l1_sets: f.usize("l1_sets")?,
                l1_ways: f.usize("l1_ways")?,
                l2_sets: f.usize("l2_sets")?,
                l2_ways: f.usize("l2_ways")?,
                llc_sets: f.usize("llc_sets")?,
                sram_ways: f.usize("sram_ways")?,
                nvm_ways: f.usize("nvm_ways")?,
                nvm_latency_factor: f.f64("nvm_latency_factor")?,
                dram: f.bool("dram")?,
            };
            f.finish()?;
            spec
        };
        let hybrid = {
            let f = Fields::new(root.get("hybrid")?, "hybrid")?;
            let spec = HybridSpec {
                policy: f.string("policy")?,
                endurance_mean: f.f64("endurance_mean")?,
                endurance_cv: f.f64("endurance_cv")?,
                epoch_cycles: f.u64("epoch_cycles")?,
                dueling_smoothing: f.f64("dueling_smoothing")?,
                compressor: f.string("compressor")?,
            };
            f.finish()?;
            spec
        };
        let workload = {
            let f = Fields::new(root.get("workload")?, "workload")?;
            let spec = WorkloadSpec {
                mix: f.usize("mix")?,
                seed: f.u64("seed")?,
            };
            f.finish()?;
            spec
        };
        let run = {
            let f = Fields::new(root.get("run")?, "run")?;
            let spec = RunSpec {
                warmup_fraction: f.f64("warmup_fraction")?,
                cycles: f.f64("cycles")?,
            };
            f.finish()?;
            spec
        };
        let forecast = {
            let f = Fields::new(root.get("forecast")?, "forecast")?;
            let spec = ForecastSpec {
                warmup_cycles: f.f64("warmup_cycles")?,
                measure_cycles: f.f64("measure_cycles")?,
                capacity_step: f.f64("capacity_step")?,
                max_step_seconds: f.f64("max_step_seconds")?,
                stop_capacity: f.f64("stop_capacity")?,
                max_steps: f.usize("max_steps")?,
            };
            f.finish()?;
            spec
        };
        let name = root.string("name")?;
        root.finish()?;
        let spec = ExperimentSpec {
            name,
            system,
            hybrid,
            workload,
            run,
            forecast,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Parses and validates a spec from JSON text. An inherent method (not
    /// the `FromStr` trait) so call sites read `ExperimentSpec::from_str`
    /// without importing anything.
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(text: &str) -> Result<ExperimentSpec, SpecError> {
        let v = serde_json::from_str(text).map_err(|e| SpecError::Json {
            message: e.to_string(),
        })?;
        Self::from_json(&v)
    }

    /// Loads and validates a spec file.
    pub fn load(path: &str) -> Result<ExperimentSpec, SpecError> {
        let text = std::fs::read_to_string(path).map_err(|e| SpecError::Io {
            path: path.to_string(),
            message: e.to_string(),
        })?;
        Self::from_str(&text)
    }

    /// Writes the spec as pretty JSON to `path`.
    pub fn store(&self, path: &str) -> Result<(), SpecError> {
        std::fs::write(path, self.to_string_pretty()).map_err(|e| SpecError::Io {
            path: path.to_string(),
            message: e.to_string(),
        })
    }
}

fn parse_compressor(name: &str) -> Option<CompressorKind> {
    match name.to_ascii_lowercase().as_str() {
        "bdi" => Some(CompressorKind::Bdi),
        "fpc" => Some(CompressorKind::Fpc),
        _ => None,
    }
}

fn uint(v: u64) -> Value {
    Value::Number(Number::U64(v))
}

fn float(v: f64) -> Value {
    Value::Number(Number::F64(v))
}

/// Strict object cursor: tracks which keys were consumed so `finish` can
/// report the first unknown field by its dotted path.
struct Fields<'a> {
    map: &'a BTreeMap<String, Value>,
    prefix: &'a str,
    seen: std::cell::RefCell<Vec<&'a str>>,
}

impl<'a> Fields<'a> {
    fn new(v: &'a Value, prefix: &'a str) -> Result<Self, SpecError> {
        match v {
            Value::Object(map) => Ok(Fields {
                map,
                prefix,
                seen: std::cell::RefCell::new(Vec::new()),
            }),
            Value::Null
            | Value::Bool(_)
            | Value::Number(_)
            | Value::String(_)
            | Value::Array(_) => Err(invalid(
                if prefix.is_empty() { "(root)" } else { prefix },
                "expected a JSON object",
            )),
        }
    }

    fn path(&self, key: &str) -> String {
        if self.prefix.is_empty() {
            key.to_string()
        } else {
            format!("{}.{key}", self.prefix)
        }
    }

    fn get(&self, key: &'static str) -> Result<&'a Value, SpecError> {
        self.seen.borrow_mut().push(key);
        self.map.get(key).ok_or_else(|| SpecError::MissingField {
            field: self.path(key),
        })
    }

    fn string(&self, key: &'static str) -> Result<String, SpecError> {
        let v = self.get(key)?;
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| invalid(&self.path(key), "expected a string"))
    }

    fn bool(&self, key: &'static str) -> Result<bool, SpecError> {
        match self.get(key)? {
            Value::Bool(b) => Ok(*b),
            Value::Null
            | Value::Number(_)
            | Value::String(_)
            | Value::Array(_)
            | Value::Object(_) => Err(invalid(&self.path(key), "expected true or false")),
        }
    }

    fn f64(&self, key: &'static str) -> Result<f64, SpecError> {
        let v = self.get(key)?;
        v.as_f64()
            .ok_or_else(|| invalid(&self.path(key), "expected a number"))
    }

    fn u64(&self, key: &'static str) -> Result<u64, SpecError> {
        match self.get(key)? {
            Value::Number(Number::U64(v)) => Ok(*v),
            Value::Number(Number::F64(v)) if *v >= 0.0 && v.fract() == 0.0 && *v <= 2e18 => {
                Ok(*v as u64)
            }
            Value::Number(Number::I64(_) | Number::F64(_))
            | Value::Null
            | Value::Bool(_)
            | Value::String(_)
            | Value::Array(_)
            | Value::Object(_) => Err(invalid(&self.path(key), "expected a non-negative integer")),
        }
    }

    fn usize(&self, key: &'static str) -> Result<usize, SpecError> {
        Ok(self.u64(key)? as usize)
    }

    fn finish(&self) -> Result<(), SpecError> {
        let seen = self.seen.borrow();
        for key in self.map.keys() {
            if !seen.contains(&key.as_str()) {
                return Err(SpecError::UnknownField {
                    field: self.path(key),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_preset_validates_and_round_trips() {
        for name in ExperimentSpec::preset_names() {
            let spec = ExperimentSpec::preset(name).unwrap();
            assert_eq!(spec.name, name);
            spec.validate().unwrap();
            let back = ExperimentSpec::from_str(&spec.to_string_pretty()).unwrap();
            assert_eq!(back, spec, "preset '{name}' did not round trip");
        }
    }

    #[test]
    fn scaled_preset_matches_the_historical_recipe() {
        let spec = ExperimentSpec::preset("scaled").unwrap();
        let sys = spec.system_config();
        assert_eq!(sys.cores, 4);
        assert_eq!((sys.l1_sets, sys.l1_ways), (64, 4));
        assert_eq!((sys.l2_sets, sys.l2_ways), (32, 16));
        assert!(!sys.dram);
        let llc = spec.llc_config();
        assert_eq!((llc.sets, llc.sram_ways, llc.nvm_ways), (512, 4, 12));
        assert_eq!(llc.policy, Policy::cp_sd());
        assert_eq!(llc.endurance.mean(), 1e8);
        assert_eq!(llc.endurance.cv(), 0.2);
        assert_eq!(llc.epoch_cycles, 100_000);
        assert_eq!(llc.dueling_smoothing, 0.6);
        assert_eq!(spec.footprint_scale(), 0.125);
        assert_eq!(spec.compressor(), CompressorKind::Bdi);
    }

    #[test]
    fn paper_preset_is_table_iv() {
        let spec = ExperimentSpec::preset("paper").unwrap();
        assert_eq!(spec.system_config().cores, 4);
        assert_eq!(spec.footprint_scale(), 1.0);
        let llc = spec.llc_config();
        let llc_bytes = llc.sets * (llc.sram_ways + llc.nvm_ways) * 64;
        assert_eq!(llc_bytes, 4 * 1024 * 1024);
        assert_eq!(llc.endurance.mean(), 1e10);
        assert_eq!(llc.epoch_cycles, hllc_core::DEFAULT_EPOCH_CYCLES);
        assert_eq!(llc.dueling_smoothing, 0.0);
    }

    /// The `paper` preset and the simulator's own Table IV defaults are
    /// the same system.
    #[test]
    fn paper_preset_builds_the_table_iv_defaults() {
        let spec = ExperimentSpec::preset("paper").unwrap();
        assert_eq!(spec.system_config(), SystemConfig::paper_default());
        assert_eq!(
            spec.llc_config(),
            HybridConfig::new(4096, 4, 12, Policy::cp_sd())
        );
    }

    #[test]
    fn sensitivity_presets_differ_only_on_their_axis() {
        let base = ExperimentSpec::preset("scaled").unwrap();
        // Each axis is checked in the spec and in the derived config that
        // owns it: the way split in `llc_config()`, the private caches and
        // timing in `system_config()`.
        let split = ExperimentSpec::preset("waysplit-3-13").unwrap();
        assert_eq!((split.system.sram_ways, split.system.nvm_ways), (3, 13));
        let llc = split.llc_config();
        assert_eq!((llc.sram_ways, llc.nvm_ways), (3, 13));
        assert_eq!(split.system_config(), base.system_config());
        let l2 = ExperimentSpec::preset("l2-doubled").unwrap();
        assert_eq!(l2.system.l2_sets, 2 * base.system.l2_sets);
        assert_eq!(l2.system_config().l2_sets, 2 * base.system_config().l2_sets);
        assert_eq!(l2.llc_config(), base.llc_config());
        let lat = ExperimentSpec::preset("nvm-latency-x1.5").unwrap();
        assert_eq!(lat.system.nvm_latency_factor, 1.5);
        assert_eq!(lat.system_config().timing.llc_nvm_hit(), 36);
        assert_eq!(lat.llc_config(), base.llc_config());
        let eq = ExperimentSpec::preset("equal-cost-10w").unwrap();
        assert_eq!(eq.system.nvm_ways, 10);
        assert_eq!(eq.llc_config().nvm_ways, 10);
        assert_eq!(eq.llc_config().sram_ways, base.llc_config().sram_ways);
        assert_eq!(eq.system_config(), base.system_config());
        assert_eq!(ExperimentSpec::preset("scaled").unwrap(), base);
    }

    #[test]
    fn unknown_preset_is_a_structured_error() {
        let e = ExperimentSpec::preset("warp-speed").unwrap_err();
        assert!(matches!(e, SpecError::UnknownPreset { ref name } if name == "warp-speed"));
        assert!(e.to_string().contains("scaled"), "{e}");
    }

    #[test]
    fn unknown_fields_are_named() {
        let mut spec = ExperimentSpec::preset("scaled").unwrap().to_json();
        if let Value::Object(m) = &mut spec {
            if let Some(Value::Object(sys)) = m.get_mut("system") {
                sys.insert("frobnicate".into(), Value::Bool(true));
            }
        }
        let text = serde_json::to_string_pretty(&spec).unwrap();
        let e = ExperimentSpec::from_str(&text).unwrap_err();
        assert_eq!(
            e,
            SpecError::UnknownField {
                field: "system.frobnicate".into()
            }
        );
        assert!(e.to_string().contains("system.frobnicate"), "{e}");
    }

    #[test]
    fn missing_fields_are_named() {
        let mut spec = ExperimentSpec::preset("scaled").unwrap().to_json();
        if let Value::Object(m) = &mut spec {
            if let Some(Value::Object(w)) = m.get_mut("workload") {
                w.remove("seed");
            }
        }
        let text = serde_json::to_string_pretty(&spec).unwrap();
        let e = ExperimentSpec::from_str(&text).unwrap_err();
        assert_eq!(
            e,
            SpecError::MissingField {
                field: "workload.seed".into()
            }
        );
    }

    #[test]
    fn malformed_json_reports_the_parser_message() {
        let e = ExperimentSpec::from_str("{ not json").unwrap_err();
        assert!(matches!(e, SpecError::Json { .. }), "{e:?}");
    }

    #[test]
    fn validation_names_the_offending_field() {
        let mut spec = ExperimentSpec::preset("scaled").unwrap();
        spec.system.llc_sets = 500;
        assert_eq!(
            spec.validate().unwrap_err(),
            invalid("system.llc_sets", "must be a power of two, got 500")
        );

        let mut spec = ExperimentSpec::preset("scaled").unwrap();
        spec.system.l1_sets = 48;
        assert_eq!(
            spec.validate().unwrap_err(),
            invalid("system.l1_sets", "must be a power of two, got 48")
        );

        let mut spec = ExperimentSpec::preset("scaled").unwrap();
        spec.system.l2_sets = 0;
        assert_eq!(
            spec.validate().unwrap_err(),
            invalid("system.l2_sets", "must be a power of two, got 0")
        );
        spec.system.l2_sets = 24;
        assert_eq!(
            spec.validate().unwrap_err(),
            invalid("system.l2_sets", "must be a power of two, got 24")
        );

        let mut spec = ExperimentSpec::preset("scaled").unwrap();
        spec.system.sram_ways = 8;
        spec.system.nvm_ways = 9;
        let e = spec.validate().unwrap_err();
        assert!(matches!(e, SpecError::Invalid { ref field, .. } if field == "system.nvm_ways"));

        let mut spec = ExperimentSpec::preset("scaled").unwrap();
        spec.system.cores = 17;
        let e = spec.validate().unwrap_err();
        assert!(matches!(e, SpecError::Invalid { ref field, .. } if field == "system.cores"));
        spec.system.cores = 16;
        spec.validate().unwrap();

        let mut spec = ExperimentSpec::preset("scaled").unwrap();
        spec.hybrid.policy = "nonsense".into();
        let e = spec.validate().unwrap_err();
        assert!(matches!(e, SpecError::Invalid { ref field, .. } if field == "hybrid.policy"));

        let mut spec = ExperimentSpec::preset("scaled").unwrap();
        spec.workload.mix = 11;
        let e = spec.validate().unwrap_err();
        assert!(matches!(e, SpecError::Invalid { ref field, .. } if field == "workload.mix"));
    }

    #[test]
    fn oversized_geometry_is_rejected_per_field() {
        type Field = fn(&mut SystemSpec) -> &mut usize;
        let fields: [(&str, Field, usize); 5] = [
            ("system.l1_sets", |s| &mut s.l1_sets, MAX_SETS),
            ("system.l2_sets", |s| &mut s.l2_sets, MAX_SETS),
            ("system.llc_sets", |s| &mut s.llc_sets, MAX_SETS),
            ("system.l1_ways", |s| &mut s.l1_ways, MAX_PRIVATE_WAYS),
            ("system.l2_ways", |s| &mut s.l2_ways, MAX_PRIVATE_WAYS),
        ];
        for (name, field, cap) in fields {
            let mut spec = ExperimentSpec::preset("scaled").unwrap();
            *field(&mut spec.system) = cap;
            spec.validate().unwrap();
            for v in [2 * cap, 1 << 40] {
                *field(&mut spec.system) = v;
                let e = spec.validate().unwrap_err();
                assert!(
                    matches!(e, SpecError::Invalid { ref field, .. } if field == name),
                    "{e}"
                );
                assert!(e.to_string().contains(&format!("got {v}")), "{e}");
            }
        }
        let paper = ExperimentSpec::preset("paper").unwrap().system;
        assert!(2 * paper.l2_sets <= MAX_SETS && paper.llc_sets <= MAX_SETS);
        assert!(paper.l2_ways <= MAX_PRIVATE_WAYS);
    }

    #[test]
    fn cycle_budgets_are_capped_per_field() {
        type Field = fn(&mut ExperimentSpec) -> &mut f64;
        let fields: [(&str, Field); 3] = [
            ("run.cycles", |s| &mut s.run.cycles),
            ("forecast.warmup_cycles", |s| &mut s.forecast.warmup_cycles),
            ("forecast.measure_cycles", |s| {
                &mut s.forecast.measure_cycles
            }),
        ];
        for (name, field) in fields {
            let mut spec = ExperimentSpec::preset("scaled").unwrap();
            *field(&mut spec) = MAX_CYCLES;
            spec.validate().unwrap();
            for v in [2.0 * MAX_CYCLES, 1e300, f64::INFINITY, f64::NAN, 0.0, -5.0] {
                *field(&mut spec) = v;
                let e = spec.validate().unwrap_err();
                assert!(
                    matches!(e, SpecError::Invalid { ref field, .. } if field == name),
                    "{name} = {v}: {e}"
                );
            }
        }
        // Seconds, not cycles: the paper preset's step is ~1e7 s, and the
        // cycle cap does not apply.
        let mut spec = ExperimentSpec::preset("paper").unwrap();
        spec.forecast.max_step_seconds = 1e12;
        spec.validate().unwrap();
        // Every preset's budgets sit at least 100x below the cap.
        for preset in ["scaled", "paper"] {
            let s = ExperimentSpec::preset(preset).unwrap();
            let largest = s
                .run
                .cycles
                .max(s.forecast.warmup_cycles)
                .max(s.forecast.measure_cycles);
            assert!(100.0 * largest <= MAX_CYCLES, "{preset}: {largest}");
        }
    }

    #[test]
    fn nvm_latency_factor_flows_into_timing() {
        let mut spec = ExperimentSpec::preset("scaled").unwrap();
        spec.system.nvm_latency_factor = 1.5;
        assert_eq!(spec.system_config().timing.llc_nvm_hit(), 36);
        spec.system.nvm_latency_factor = 1.0;
        assert_eq!(spec.system_config().timing.llc_nvm_hit(), 32);
    }

    #[test]
    fn footprint_scale_is_sets_relative_to_paper() {
        assert_eq!(footprint_scale(PAPER_SETS), 1.0);
        assert_eq!(footprint_scale(512), 0.125);
        assert_eq!(footprint_scale(256), 0.0625);
    }

    #[test]
    fn dram_flag_enables_the_model() {
        let mut spec = ExperimentSpec::preset("scaled").unwrap();
        spec.system.dram = true;
        assert!(spec.system_config().dram);
    }

    #[test]
    fn resolve_prefers_presets() {
        assert_eq!(
            ExperimentSpec::resolve("scaled").unwrap(),
            ExperimentSpec::preset("scaled").unwrap()
        );
        let e = ExperimentSpec::resolve("/nonexistent/spec.json").unwrap_err();
        assert!(matches!(e, SpecError::Io { .. }), "{e:?}");
    }
}
