//! System configuration (Table IV).

use crate::timing::TimingModel;

/// Full system configuration: core count, private cache geometry, and
/// timing. The shared LLC is configured separately (its geometry lives in
/// `hllc_core::HybridConfig`) and handed to `Hierarchy::new` already built.
///
/// # Example
///
/// ```
/// use hllc_sim::SystemConfig;
///
/// let cfg = SystemConfig::default();
/// assert_eq!(cfg.cores, 4);
/// assert_eq!(cfg.l2_sets, 128);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SystemConfig {
    /// Number of cores (paper: 4).
    pub cores: usize,
    /// L1 data cache sets (32 KB, 4-way, 64 B blocks → 128 sets).
    pub l1_sets: usize,
    /// L1 associativity (paper: 4).
    pub l1_ways: usize,
    /// Private L2 sets (128 KB, 16-way → 128 sets).
    pub l2_sets: usize,
    /// L2 associativity (paper: 16).
    pub l2_ways: usize,
    /// Timing parameters.
    pub timing: TimingModel,
    /// Charge misses through the banked open-page [`Dram`](crate::Dram)
    /// model; `false` charges the flat [`MEMORY`](crate::MEMORY) latency
    /// instead (the calibrated default).
    pub dram: bool,
}

impl SystemConfig {
    /// The paper's Table IV system: 4 cores, 32 KB L1, 128 KB L2.
    pub fn paper_default() -> Self {
        SystemConfig {
            cores: 4,
            l1_sets: 128,
            l1_ways: 4,
            l2_sets: 128,
            l2_ways: 16,
            timing: TimingModel::paper_default(),
            dram: false,
        }
    }

    /// Scales the NVM read latency (the Figure 11b ×1.5 study raises the
    /// 8-cycle data array to 12 cycles, i.e. load-use 32 → 36). Only the
    /// scale is stored; the effective latency derives from the Table IV
    /// constants, so applying this twice does not compound.
    pub fn with_nvm_latency_factor(mut self, factor: f64) -> Self {
        self.timing.nvm_latency_factor = factor;
        self
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nvm_latency_factor() {
        let cfg = SystemConfig::paper_default().with_nvm_latency_factor(1.5);
        assert_eq!(cfg.timing.llc_nvm_hit(), 36);
        let cfg1 = SystemConfig::paper_default().with_nvm_latency_factor(1.0);
        assert_eq!(cfg1.timing.llc_nvm_hit(), 32);
        // Applying the factor twice does not compound.
        let twice = cfg.clone().with_nvm_latency_factor(1.5);
        assert_eq!(twice.timing.llc_nvm_hit(), 36);
    }
}
