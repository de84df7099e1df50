//! Analytical timing model (Table IV latencies).
//!
//! The paper's detailed numbers come from gem5; this reproduction uses a
//! cycle-approximate model: each memory reference charges its instruction
//! gap at the base CPI plus a stall proportional to the load-use latency of
//! the level that served it, attenuated by a memory-level-parallelism (MLP)
//! factor for the out-of-order core's ability to overlap misses. Stores are
//! largely absorbed by the store buffer and attenuated further. Absolute
//! IPC is not comparable to gem5, but *normalized* IPC — the only form the
//! paper reports — preserves its shape.

use crate::access::Op;

/// Where an access was resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ServiceLevel {
    /// L1 hit (load-use latency hidden by the pipeline).
    L1,
    /// Private L2 hit.
    L2,
    /// LLC hit in an SRAM way.
    LlcSram,
    /// LLC hit in an NVM way, uncompressed block.
    LlcNvm,
    /// LLC hit in an NVM way, compressed block (decompression +
    /// rearrangement adds 2 cycles, §III-B3).
    LlcNvmCompressed,
    /// Main memory.
    Memory,
    /// Cache-to-cache transfer from another core's L2 (coherence lookup +
    /// remote array access).
    RemoteL2,
}

/// Cycles per non-memory instruction of the 8-wide OoO core.
pub(crate) const CPI_BASE: f64 = 0.25;
/// L2 hit load-use latency (Table IV: 12 cycles).
pub const L2_HIT: u32 = 12;
/// LLC SRAM-way load-use latency (Table IV: 28 cycles).
pub const LLC_SRAM_HIT: u32 = 28;
/// Interconnect + tag portion of an NVM-way hit. Fixed: the tag array is
/// SRAM regardless of the data technology.
const LLC_NVM_TAG: u32 = 24;
/// NVM data-array portion of an NVM-way hit, before scaling (Table IV: 8
/// of the 32 load-use cycles).
const LLC_NVM_ARRAY: u32 = 8;
/// Extra cycles for BDI decompression + block rearrangement (§III-B3).
pub const NVM_DECOMPRESS: u32 = 2;
/// Main-memory load-use latency (cycles).
pub const MEMORY: u32 = 180;
/// Fraction of a load miss's latency that stalls the core.
const LOAD_MLP: f64 = 0.6;
/// Fraction of a store miss's latency that stalls the core.
const STORE_MLP: f64 = 0.15;

/// The timing parameters an experiment varies; the Table IV latencies
/// and stall fractions they scale are this module's constants.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimingModel {
    /// Scale applied to the NVM data array only (the Figure 11b
    /// sensitivity axis). The effective NVM-hit latency is
    /// [`TimingModel::llc_nvm_hit`].
    pub nvm_latency_factor: f64,
    /// Core frequency in GHz (Table IV: 3.5 GHz), used to convert cycles to
    /// wall-clock time in the aging forecast.
    pub freq_ghz: f64,
}

impl TimingModel {
    /// Table IV defaults.
    pub fn paper_default() -> Self {
        TimingModel {
            nvm_latency_factor: 1.0,
            freq_ghz: 3.5,
        }
    }

    /// LLC NVM-way load-use latency: fixed tag portion plus the scaled
    /// data array (32 cycles at factor 1.0, Table IV; 36 at the ×1.5 of
    /// Figure 11b).
    pub fn llc_nvm_hit(&self) -> u32 {
        LLC_NVM_TAG + (f64::from(LLC_NVM_ARRAY) * self.nvm_latency_factor).round() as u32
    }

    /// Raw load-use latency of a service level.
    pub fn latency(&self, level: ServiceLevel) -> u32 {
        match level {
            ServiceLevel::L1 => 0,
            ServiceLevel::L2 => L2_HIT,
            ServiceLevel::LlcSram => LLC_SRAM_HIT,
            ServiceLevel::LlcNvm => self.llc_nvm_hit(),
            ServiceLevel::LlcNvmCompressed => self.llc_nvm_hit() + NVM_DECOMPRESS,
            ServiceLevel::Memory => MEMORY,
            ServiceLevel::RemoteL2 => LLC_SRAM_HIT + L2_HIT,
        }
    }
}

/// Effective stall cycles charged to the core for an access of kind `op`
/// whose load-use latency was `raw_latency`.
pub(crate) fn stall_cycles(op: Op, raw_latency: f64) -> f64 {
    match op {
        Op::Load => raw_latency * LOAD_MLP,
        Op::Store => raw_latency * STORE_MLP,
    }
}

impl Default for TimingModel {
    fn default() -> Self {
        TimingModel::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latencies_ordered() {
        let t = TimingModel::paper_default();
        assert!(t.latency(ServiceLevel::L1) < t.latency(ServiceLevel::L2));
        assert!(t.latency(ServiceLevel::L2) < t.latency(ServiceLevel::LlcSram));
        assert!(t.latency(ServiceLevel::LlcSram) < t.latency(ServiceLevel::LlcNvm));
        assert!(t.latency(ServiceLevel::LlcNvm) < t.latency(ServiceLevel::LlcNvmCompressed));
        assert!(t.latency(ServiceLevel::LlcNvmCompressed) < t.latency(ServiceLevel::Memory));
        assert!(t.latency(ServiceLevel::RemoteL2) < t.latency(ServiceLevel::Memory));
        assert!(t.latency(ServiceLevel::RemoteL2) > t.latency(ServiceLevel::LlcSram));
    }

    #[test]
    fn nvm_hit_composes_tag_and_scaled_array() {
        let mut t = TimingModel::paper_default();
        assert_eq!(t.llc_nvm_hit(), 32);
        t.nvm_latency_factor = 1.5;
        assert_eq!(t.llc_nvm_hit(), 36);
        assert_eq!(t.latency(ServiceLevel::LlcNvmCompressed), 38);
    }

    #[test]
    fn stores_stall_less_than_loads() {
        let t = TimingModel::paper_default();
        let memory = f64::from(t.latency(ServiceLevel::Memory));
        assert!(stall_cycles(Op::Store, memory) < stall_cycles(Op::Load, memory));
    }
}
