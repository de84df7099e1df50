//! Hybrid LLC configuration.

use hllc_nvm::{EnduranceModel, NvmArray};

use crate::dueling::DEFAULT_EPOCH_CYCLES;
use crate::policy::Policy;

/// RNG seed for the endurance sampling. Every LLC with the same geometry
/// and endurance model draws the same endurance limits (see
/// [`HybridConfig::sample_array`]), so sweep replicates differ in their
/// workload and degrade draws, not in endurance.
pub const ENDURANCE_SEED: u64 = 0xC0FFEE;

/// Configuration of a [`HybridLlc`](crate::HybridLlc).
///
/// # Example
///
/// ```
/// use hllc_core::{HybridConfig, Policy};
///
/// let cfg = HybridConfig::new(4096, 4, 12, Policy::cp_sd()).with_endurance(1e10, 0.2);
/// assert_eq!(cfg.sets, 4096);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct HybridConfig {
    /// Number of sets (power of two).
    pub sets: usize,
    /// SRAM ways per set.
    pub sram_ways: usize,
    /// NVM ways per set (0 for the SRAM-only bounds).
    pub nvm_ways: usize,
    /// Insertion policy.
    pub policy: Policy,
    /// NVM bitcell endurance model.
    pub endurance: EnduranceModel,
    /// Set Dueling epoch length in cycles.
    pub epoch_cycles: u64,
    /// Inter-epoch smoothing of the Set Dueling counters (0 = the paper's
    /// raw per-epoch counters; scaled-down simulations use ~0.6 to recover
    /// full-size sampler statistics).
    pub dueling_smoothing: f64,
    /// Use Fit-LRU in the NVM part (the paper's design): the victim is the
    /// LRU block among the frames the incoming ECB fits in. Disabling this
    /// (ablation) picks the plain LRU frame and falls back to SRAM when the
    /// block does not fit it.
    pub fit_lru: bool,
}

impl HybridConfig {
    /// Creates a configuration with the paper's endurance defaults
    /// (`μ = 10^10`, `cv = 0.2`) and 2 M-cycle epochs.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or the cache has no ways.
    pub fn new(sets: usize, sram_ways: usize, nvm_ways: usize, policy: Policy) -> Self {
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(sram_ways + nvm_ways > 0, "cache must have at least one way");
        HybridConfig {
            sets,
            sram_ways,
            nvm_ways,
            policy,
            endurance: EnduranceModel::paper_default(),
            epoch_cycles: DEFAULT_EPOCH_CYCLES,
            dueling_smoothing: 0.0,
            fit_lru: true,
        }
    }

    /// Overrides the endurance distribution.
    pub fn with_endurance(mut self, mean: f64, cv: f64) -> Self {
        self.endurance = EnduranceModel::new(mean, cv);
        self
    }

    /// Overrides the Set Dueling epoch length.
    pub fn with_epoch_cycles(mut self, cycles: u64) -> Self {
        self.epoch_cycles = cycles;
        self
    }

    /// Overrides the Set Dueling counter smoothing.
    pub fn with_dueling_smoothing(mut self, smoothing: f64) -> Self {
        self.dueling_smoothing = smoothing;
        self
    }

    /// The pristine NVM array of this configuration, or `None` without NVM
    /// ways, under the policy's disabling granularity. Its endurances are
    /// drawn from [`ENDURANCE_SEED`] ([`NvmArray::new`]) when something
    /// first reads one, so the same limits whatever the policy, and no
    /// draw at all for an array that is only simulated.
    pub fn sample_array(&self) -> Option<NvmArray> {
        (self.nvm_ways > 0).then(|| {
            NvmArray::new(
                self.sets,
                self.nvm_ways,
                &self.endurance,
                self.policy.granularity(),
                ENDURANCE_SEED,
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders() {
        let cfg = HybridConfig::new(64, 3, 13, Policy::LHybrid)
            .with_endurance(1e8, 0.25)
            .with_epoch_cycles(500);
        assert_eq!(cfg.nvm_ways, 13);
        assert_eq!(cfg.endurance.cv(), 0.25);
        assert_eq!(cfg.epoch_cycles, 500);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2_sets() {
        HybridConfig::new(100, 4, 12, Policy::Bh);
    }
}
