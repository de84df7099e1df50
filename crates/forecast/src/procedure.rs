//! The full alternating simulate/predict procedure.

use hllc_config::ExperimentSpec;
use hllc_core::{HybridConfig, Policy};
use hllc_nvm::NvmArray;
use hllc_sim::SystemConfig;
use hllc_trace::Mix;

use crate::phase::{run_phase, PhaseSetup};
use crate::predict::{advance_wear, choose_step};
use crate::series::{ForecastPoint, ForecastSeries};

/// Forecast parameters.
#[derive(Clone, Debug)]
pub struct ForecastConfig {
    /// System configuration (private caches, timing).
    pub system: SystemConfig,
    /// LLC configuration (geometry, policy, endurance).
    pub llc: HybridConfig,
    /// Warm-up cycles per simulation phase.
    pub warmup_cycles: f64,
    /// Measured cycles per simulation phase.
    pub measure_cycles: f64,
    /// Maximum capacity fraction lost per prediction step.
    pub capacity_step: f64,
    /// Hard cap on a prediction step, in seconds.
    pub max_step_seconds: f64,
    /// Stop when NVM capacity reaches this fraction (paper: 0.5).
    pub stop_capacity: f64,
    /// Hard cap on the number of simulate/predict iterations.
    pub max_steps: usize,
    /// Compression mechanism (BDI unless running the compressor ablation).
    pub compressor: hllc_compress::CompressorKind,
}

impl ForecastConfig {
    /// The forecast an [`ExperimentSpec`] describes: its system, its LLC
    /// under its own policy, and its `forecast` recipe.
    pub fn from_spec(spec: &ExperimentSpec) -> Self {
        let f = &spec.forecast;
        let phase = PhaseSetup::from_spec(spec, f.warmup_cycles, f.measure_cycles);
        ForecastConfig {
            system: phase.system,
            llc: phase.llc,
            warmup_cycles: phase.warmup_cycles,
            measure_cycles: phase.measure_cycles,
            capacity_step: f.capacity_step,
            max_step_seconds: f.max_step_seconds,
            stop_capacity: f.stop_capacity,
            max_steps: f.max_steps,
            compressor: phase.compressor,
        }
    }

    /// Scaled-down configuration for fast experimentation: the `scaled`
    /// preset's 512-set LLC, μ = 10⁸ endurance. Lifetime *ratios* between
    /// policies are preserved because failure times are linear in μ
    /// (DESIGN.md substitution #4); `ExperimentSpec::paper_time_scale`
    /// gives the factor (about 800) to paper-equivalent time.
    #[expect(clippy::expect_used, reason = "the built-in preset validates")]
    pub fn scaled(policy: Policy) -> Self {
        Self::from_spec(&ExperimentSpec::preset("scaled").expect("builtin preset"))
            .with_policy(policy)
    }

    /// The simulation phase each step of the forecast runs.
    pub fn phase(&self) -> PhaseSetup {
        PhaseSetup {
            system: self.system.clone(),
            llc: self.llc.clone(),
            warmup_cycles: self.warmup_cycles,
            measure_cycles: self.measure_cycles,
            scale: PhaseSetup::scale_for_sets(self.llc.sets),
            compressor: self.compressor,
        }
    }

    /// Replaces the policy, keeping geometry and endurance.
    pub fn with_policy(mut self, policy: Policy) -> Self {
        self.llc.policy = policy;
        self
    }
}

/// The forecast engine.
#[derive(Clone, Debug)]
pub struct Forecast {
    cfg: ForecastConfig,
}

impl Forecast {
    /// Creates a forecast from a configuration.
    pub fn new(cfg: ForecastConfig) -> Self {
        Forecast { cfg }
    }

    /// Runs the alternating procedure on `mix` and returns the performance
    /// timeline. Deterministic for a given `seed`.
    pub fn run(&self, mix: &Mix, seed: u64) -> ForecastSeries {
        let cfg = &self.cfg;
        let setup = cfg.phase();

        let mut series = ForecastSeries::new(cfg.llc.policy.name());
        let mut array: Option<NvmArray> = None;
        let mut time = 0.0f64;

        for step in 0..cfg.max_steps {
            let capacity = array.as_ref().map_or(1.0, |a| a.capacity_fraction());
            let (metrics, array_back) = run_phase(&setup, mix, array, seed ^ (step as u64) << 32);
            series.points.push(ForecastPoint {
                time_seconds: time,
                capacity,
                ipc: metrics.ipc,
                hit_rate: metrics.hit_rate,
                nvm_bytes_per_cycle: metrics.nvm_bytes_per_cycle(),
            });

            let Some(mut a) = array_back else {
                array = None; // SRAM-only cache: flat forever, one point suffices
                break;
            };
            if capacity <= cfg.stop_capacity {
                array = Some(a);
                break;
            }

            let rates = metrics.frame_write_rates(cfg.system.timing.freq_ghz * 1e9);
            if rates.iter().all(|&r| r == 0.0) {
                // No NVM writes at all: the cache never ages.
                array = Some(a);
                break;
            }

            let dt = choose_step(&a, &rates, cfg.capacity_step, cfg.max_step_seconds);
            advance_wear(&mut a, &rates, dt);
            time += dt;
            array = Some(a);
        }

        // Close the timeline with the final capacity so lifetimes are
        // interpolable even when the loop ended on the step limit.
        if let Some(a) = &array {
            let last_ipc = series.points.last().map_or(0.0, |p| p.ipc);
            let last_hr = series.points.last().map_or(0.0, |p| p.hit_rate);
            let last_bw = series.points.last().map_or(0.0, |p| p.nvm_bytes_per_cycle);
            series.points.push(ForecastPoint {
                time_seconds: time,
                capacity: a.capacity_fraction(),
                ipc: last_ipc,
                hit_rate: last_hr,
                nvm_bytes_per_cycle: last_bw,
            });
        }
        series
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hllc_trace::mixes;

    /// A very small, fast forecast used by the tests.
    fn tiny(policy: Policy) -> ForecastConfig {
        let mut spec = ExperimentSpec::preset("scaled").expect("builtin preset");
        spec.system.llc_sets = 128;
        spec.validate().expect("128-set scaled variant");
        let mut cfg = ForecastConfig::from_spec(&spec);
        // Keep the historical test knobs: near-default LLC at a drastically
        // reduced endurance so the aging loop converges in milliseconds.
        cfg.llc = HybridConfig::new(128, 4, 12, policy).with_endurance(2e6, 0.2);
        cfg.warmup_cycles = 5.0e4;
        cfg.measure_cycles = 2.0e5;
        cfg.capacity_step = 0.06;
        cfg.max_step_seconds = 50.0;
        cfg.max_steps = 25;
        cfg
    }

    #[test]
    fn bh_forecast_reaches_half_capacity() {
        let series = Forecast::new(tiny(Policy::Bh)).run(&mixes()[0], 3);
        assert!(
            series.points.len() >= 3,
            "too few samples: {}",
            series.points.len()
        );
        let life = series.lifetime_seconds(0.5);
        assert!(life.is_some(), "BH never reached 50% capacity: {series:?}");
        // Capacity is non-increasing.
        for w in series.points.windows(2) {
            assert!(w[1].capacity <= w[0].capacity + 1e-12);
        }
    }

    #[test]
    fn lhybrid_outlives_bh() {
        let bh = Forecast::new(tiny(Policy::Bh)).run(&mixes()[0], 3);
        let lh = Forecast::new(tiny(Policy::LHybrid)).run(&mixes()[0], 3);
        let bh_life = bh.lifetime_seconds(0.8).expect("BH ages");
        // LHybrid writes far less: it should not have reached 80% before BH.
        let lh_life = lh.lifetime_seconds(0.8).unwrap_or(f64::INFINITY);
        assert!(
            lh_life > bh_life,
            "LHybrid ({lh_life}s) should outlive BH ({bh_life}s)"
        );
    }

    #[test]
    fn sram_only_never_ages() {
        let mut cfg = tiny(Policy::Bh);
        cfg.llc = HybridConfig::new(128, 16, 0, Policy::Bh);
        let series = Forecast::new(cfg).run(&mixes()[0], 3);
        assert_eq!(series.points.len(), 1);
        assert_eq!(series.points[0].capacity, 1.0);
        assert!(series.lifetime_seconds(0.99).is_none());
    }

    #[test]
    fn deterministic_runs() {
        let a = Forecast::new(tiny(Policy::cp_sd())).run(&mixes()[2], 9);
        let b = Forecast::new(tiny(Policy::cp_sd())).run(&mixes()[2], 9);
        assert_eq!(a, b);
    }
}
