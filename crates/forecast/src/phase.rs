//! One simulation phase: run references over the current NVM state.
//!
//! [`simulate`] is the workspace's one copy of this recipe, and
//! [`PhaseSetup::inputs`] the one place a phase picks its synthetic inputs.

use hllc_compress::CompressorKind;
use hllc_config::ExperimentSpec;
use hllc_core::{HybridConfig, HybridLlc, Policy};
use hllc_nvm::NvmArray;
use hllc_sim::{DataModel, Hierarchy, LlcPort, LlcStats, SystemConfig};
use hllc_trace::{drive_cycles, AppStream, Mix, RefSource, WorkloadData};

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
    /// Compression mechanism sizing the blocks: the spec's
    /// `hybrid.compressor`.
    pub compressor: CompressorKind,
}

impl PhaseSetup {
    /// The phase an [`ExperimentSpec`] describes (system, LLC under the
    /// spec's policy, footprint scale, compressor) with the given lengths.
    /// [`ForecastConfig::from_spec`](crate::ForecastConfig::from_spec) and
    /// the harnesses build on it.
    pub fn from_spec(spec: &ExperimentSpec, warmup_cycles: f64, measure_cycles: f64) -> Self {
        Self::from_spec_for(spec, spec.policy(), warmup_cycles, measure_cycles)
    }

    /// [`from_spec`](Self::from_spec) under `policy` in place of the
    /// spec's own: sweep jobs, and sessions replaying under another policy.
    pub fn from_spec_for(
        spec: &ExperimentSpec,
        policy: Policy,
        warmup_cycles: f64,
        measure_cycles: f64,
    ) -> Self {
        PhaseSetup {
            system: spec.system_config(),
            llc: spec.llc_config_for(policy),
            warmup_cycles,
            measure_cycles,
            scale: spec.footprint_scale(),
            compressor: spec.compressor(),
        }
    }

    /// The synthetic inputs of this phase over `mix`: the first
    /// `min(system.cores, apps)` of the mix's streams, and its data model
    /// sizing blocks with [`compressor`](Self::compressor).
    pub fn inputs(&self, mix: &Mix, seed: u64) -> (Vec<AppStream>, WorkloadData) {
        let mut streams = mix.instantiate(self.scale, seed);
        streams.truncate(self.system.cores);
        (streams, mix.data_model_with(self.compressor, seed))
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

    /// Bytes per second written to each frame, on a `freq_hz` clock.
    pub fn frame_write_rates(&self, freq_hz: f64) -> Vec<f64> {
        self.frame_bytes_written
            .iter()
            .map(|&b| b as f64 / self.measured_cycles * freq_hz)
            .collect()
    }
}

/// A finished phase: the hierarchy after its measured window, whose
/// statistics cover that window only, and the references it executed.
pub struct Phase<D> {
    /// The hierarchy, its LLC and the LLC's NVM array.
    pub hierarchy: Hierarchy<HybridLlc, D>,
    /// References executed during the warm-up.
    pub warm_accesses: u64,
    /// References executed during the measured window.
    pub accesses: u64,
}

/// Runs one phase of `setup` over `streams` and `data`, starting from
/// `array` (or a freshly sampled array when `None`): the warm-up,
/// statistics reset, then the measured window. The hierarchy has one core
/// per stream, so a mix with fewer apps than `setup.system` has cores
/// reports the IPC of the cores that ran, not a mean diluted by idle ones.
///
/// # Panics
///
/// Panics if `streams` is empty or has more streams than `setup.system`
/// has cores.
pub fn simulate<S: RefSource, D: DataModel>(
    setup: &PhaseSetup,
    streams: &mut [S],
    data: D,
    array: Option<NvmArray>,
) -> Phase<D> {
    assert!(
        !streams.is_empty() && streams.len() <= setup.system.cores,
        "stream count {} incompatible with {} cores",
        streams.len(),
        setup.system.cores
    );
    let system = SystemConfig {
        cores: streams.len(),
        ..setup.system.clone()
    };
    let llc = HybridLlc::with_array(&setup.llc, array.or_else(|| setup.llc.sample_array()));
    let mut hierarchy = Hierarchy::new(&system, llc, data);
    let warm_accesses = drive_cycles(&mut hierarchy, streams, setup.warmup_cycles);
    hierarchy.reset_stats();
    let end = setup.warmup_cycles + setup.measure_cycles;
    let accesses = drive_cycles(&mut hierarchy, streams, end);
    Phase {
        hierarchy,
        warm_accesses,
        accesses,
    }
}

/// Runs one simulation phase of `mix` over `array` (or a freshly sampled
/// array when `None`), returning the metrics and the (unchanged-wear,
/// possibly `None`) array for the next phase.
pub fn run_phase(
    setup: &PhaseSetup,
    mix: &Mix,
    array: Option<NvmArray>,
    seed: u64,
) -> (PhaseMetrics, Option<NvmArray>) {
    let (mut streams, data) = setup.inputs(mix, seed);
    run_phase_streams(setup, &mut streams, data, array)
}

/// [`run_phase`] over explicit reference streams and data model — the entry
/// point trace replay uses: the same phase logic runs whether references
/// come from synthetic generators or from a recorded file.
///
/// # Panics
///
/// As [`simulate`].
pub fn run_phase_streams<S: RefSource, D: DataModel>(
    setup: &PhaseSetup,
    streams: &mut [S],
    data: D,
    array: Option<NvmArray>,
) -> (PhaseMetrics, Option<NvmArray>) {
    let mut phase = simulate(setup, streams, data, array);
    let h = &mut phase.hierarchy;
    let llc = *h.llc().stats();
    let epochs = h.llc().dueling().map(|d| d.history()).unwrap_or_default();
    let frame_bytes_written = h
        .llc_mut()
        .array_mut()
        .map(|a| a.take_pending_writes())
        .unwrap_or_default();
    let metrics = PhaseMetrics {
        ipc: h.system_ipc(),
        hit_rate: llc.hit_rate(),
        llc,
        frame_bytes_written,
        measured_cycles: setup.measure_cycles,
        epochs,
        accesses: phase.warm_accesses + phase.accesses,
    };
    (metrics, phase.hierarchy.into_llc().into_array())
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn idle_cores_do_not_dilute_the_ipc() {
        let four = PhaseSetup {
            warmup_cycles: 10_000.0,
            measure_cycles: 30_000.0,
            ..setup(Policy::Bh)
        };
        let mut eight = four.clone();
        eight.system.cores = 8;
        let (m4, _) = run_phase(&four, &mixes()[0], None, 42);
        let (m8, _) = run_phase(&eight, &mixes()[0], None, 42);
        assert!(m4.ipc > 0.0);
        assert_eq!(m4.ipc.to_bits(), m8.ipc.to_bits(), "8 cores, 4 apps");
        assert_eq!(m4.llc, m8.llc);
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
