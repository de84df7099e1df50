//! One simulation phase: run a mix over the current NVM state.

use hllc_compress::CompressorKind;
use hllc_config::ExperimentSpec;
use hllc_core::{HybridConfig, HybridLlc};
use hllc_nvm::NvmArray;
use hllc_sim::{DataModel, Hierarchy, LlcPort, LlcStats, SystemConfig};
use hllc_trace::{drive_cycles, Mix, RefSource};

/// Inputs of a simulation phase.
#[derive(Clone, Debug)]
pub struct PhaseSetup {
    /// System (cores, private caches, timing).
    pub system: SystemConfig,
    /// LLC configuration (geometry + policy).
    pub llc: HybridConfig,
    /// Cycles of warm-up before statistics are reset.
    pub warmup_cycles: f64,
    /// Measured cycles after warm-up.
    pub measure_cycles: f64,
    /// Footprint scale relative to the paper's 4 MB LLC.
    pub scale: f64,
    /// Compression mechanism sizing the blocks (BDI unless running the
    /// compressor ablation).
    pub compressor: CompressorKind,
}

impl PhaseSetup {
    /// The phase an [`ExperimentSpec`] describes (system, LLC under the
    /// spec's policy, footprint scale, compressor) with the given lengths.
    /// [`ForecastConfig::from_spec`](crate::ForecastConfig::from_spec) and
    /// sweep jobs build on it.
    pub fn from_spec(spec: &ExperimentSpec, warmup_cycles: f64, measure_cycles: f64) -> Self {
        PhaseSetup {
            system: spec.system_config(),
            llc: spec.llc_config(),
            warmup_cycles,
            measure_cycles,
            scale: spec.footprint_scale(),
            compressor: spec.compressor(),
        }
    }

    /// Footprint scale implied by the LLC geometry
    /// ([`hllc_config::PAPER_SETS`] sets = 1.0).
    pub fn scale_for_sets(sets: usize) -> f64 {
        hllc_config::footprint_scale(sets)
    }
}

/// Outputs of a simulation phase.
#[derive(Clone, Debug)]
pub struct PhaseMetrics {
    /// Arithmetic-mean IPC across the cores (the paper's metric).
    pub ipc: f64,
    /// LLC hit rate over the measured window.
    pub hit_rate: f64,
    /// Full LLC statistics for the measured window.
    pub llc: LlcStats,
    /// Bytes written per frame during the measured window (index =
    /// `set * nvm_ways + way`), for the prediction phase.
    pub frame_bytes_written: Vec<u64>,
    /// Measured window length in cycles.
    pub measured_cycles: f64,
    /// Set Dueling epoch history collected during the phase (empty for
    /// non-CP_SD policies).
    pub epochs: Vec<hllc_core::EpochRecord>,
    /// References executed (diagnostics).
    pub accesses: u64,
}

impl PhaseMetrics {
    /// NVM write bandwidth in bytes per cycle.
    pub fn nvm_bytes_per_cycle(&self) -> f64 {
        if self.measured_cycles == 0.0 {
            0.0
        } else {
            self.llc.nvm_bytes_written as f64 / self.measured_cycles
        }
    }
}

/// Runs one simulation phase over `array` (or a freshly sampled array when
/// `None`), returning the metrics and the (unchanged-wear, possibly `None`)
/// array for the next phase.
pub fn run_phase(
    setup: &PhaseSetup,
    mix: &Mix,
    array: Option<NvmArray>,
    seed: u64,
) -> (PhaseMetrics, Option<NvmArray>) {
    let mut streams = mix.instantiate(setup.scale, seed);
    let data = mix.data_model_with(setup.compressor, seed);
    run_phase_streams(setup, &mut streams, data, array)
}

/// [`run_phase`] over explicit reference streams and data model — the entry
/// point trace replay uses: the same phase logic runs whether references
/// come from synthetic generators or from a recorded file.
///
/// # Panics
///
/// Panics if `streams` is empty or has more streams than `setup.system`
/// has cores.
pub fn run_phase_streams<S: RefSource, D: DataModel>(
    setup: &PhaseSetup,
    streams: &mut [S],
    data: D,
    array: Option<NvmArray>,
) -> (PhaseMetrics, Option<NvmArray>) {
    assert!(
        !streams.is_empty() && streams.len() <= setup.system.cores,
        "stream count {} incompatible with {} cores",
        streams.len(),
        setup.system.cores
    );
    let llc = match array {
        Some(a) => HybridLlc::with_array(&setup.llc, Some(a)),
        None => HybridLlc::new(&setup.llc),
    };
    let mut h = Hierarchy::new(&setup.system, llc, data);

    let warm = drive_cycles(&mut h, streams, setup.warmup_cycles);
    h.reset_stats();
    let measured = drive_cycles(&mut h, streams, setup.warmup_cycles + setup.measure_cycles);

    let ipc = h.system_ipc();
    let llc_stats = *h.llc().stats();
    let epochs = h.llc().dueling().map(|d| d.history()).unwrap_or_default();
    let frame_bytes_written = h
        .llc_mut()
        .array_mut()
        .map(|a| a.take_pending_writes())
        .unwrap_or_default();
    let array_out = h.into_llc().into_array();

    let metrics = PhaseMetrics {
        ipc,
        hit_rate: llc_stats.hit_rate(),
        llc: llc_stats,
        frame_bytes_written,
        measured_cycles: setup.measure_cycles,
        epochs,
        accesses: warm + measured,
    };
    (metrics, array_out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hllc_core::Policy;
    use hllc_trace::mixes;

    fn setup(policy: Policy) -> PhaseSetup {
        let mut spec = ExperimentSpec::preset("scaled").expect("builtin preset");
        spec.system.llc_sets = 256;
        spec.hybrid.policy = policy.label();
        spec.validate().expect("256-set scaled variant");
        PhaseSetup::from_spec(&spec, 100_000.0, 200_000.0)
    }

    #[test]
    fn phase_produces_activity() {
        let (m, array) = run_phase(&setup(Policy::Bh), &mixes()[0], None, 42);
        assert!(m.ipc > 0.0, "ipc {}", m.ipc);
        assert!(m.llc.requests() > 0);
        assert!(m.accesses > 1000);
        assert!(m.llc.nvm_bytes_written > 0, "BH must write NVM");
        let total_frame_bytes: u64 = m.frame_bytes_written.iter().sum();
        assert_eq!(total_frame_bytes, m.llc.nvm_bytes_written);
        assert!(array.is_some());
    }

    #[test]
    fn cp_sd_collects_epochs() {
        let mut s = setup(Policy::cp_sd());
        s.llc = s.llc.with_epoch_cycles(50_000);
        let (m, _) = run_phase(&s, &mixes()[0], None, 42);
        assert!(!m.epochs.is_empty(), "expected epoch history");
    }

    #[test]
    fn aged_array_is_threaded_through() {
        let s = setup(Policy::cp_sd());
        let (_, array) = run_phase(&s, &mixes()[0], None, 1);
        let mut array = array.unwrap();
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        array.degrade_to(0.7, &mut rng);
        let degraded_capacity = array.capacity_fraction();
        let (m2, array2) = run_phase(&s, &mixes()[0], Some(array), 2);
        assert!((array2.unwrap().capacity_fraction() - degraded_capacity).abs() < 1e-12);
        assert!(m2.ipc > 0.0);
    }
}
