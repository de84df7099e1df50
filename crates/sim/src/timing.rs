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

/// Latency and CPI parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimingModel {
    /// Cycles per non-memory instruction of the 8-wide OoO core.
    pub cpi_base: f64,
    /// L2 hit load-use latency (cycles).
    pub l2_hit: u32,
    /// LLC SRAM-way load-use latency (28 cycles, Table IV).
    pub llc_sram_hit: u32,
    /// Interconnect + tag portion of an NVM-way hit (cycles). Fixed: the
    /// tag array is SRAM regardless of the data technology.
    pub llc_nvm_tag: u32,
    /// NVM data-array portion of an NVM-way hit (cycles), before scaling.
    /// Table IV: 8 of the 32 load-use cycles.
    pub llc_nvm_array: u32,
    /// Scale applied to the NVM data array only (the Figure 11b
    /// sensitivity axis). The effective NVM-hit latency is
    /// [`TimingModel::llc_nvm_hit`].
    pub nvm_latency_factor: f64,
    /// Extra cycles for BDI decompression + block rearrangement.
    pub nvm_decompress: u32,
    /// Main-memory load-use latency (cycles).
    pub memory: u32,
    /// Fraction of a load miss's latency that stalls the core.
    pub load_mlp: f64,
    /// Fraction of a store miss's latency that stalls the core.
    pub store_mlp: f64,
    /// Core frequency in GHz (Table IV: 3.5 GHz), used to convert cycles to
    /// wall-clock time in the aging forecast.
    pub freq_ghz: f64,
}

impl TimingModel {
    /// Table IV defaults.
    pub fn paper_default() -> Self {
        TimingModel {
            cpi_base: 0.25,
            l2_hit: 12,
            llc_sram_hit: 28,
            llc_nvm_tag: 24,
            llc_nvm_array: 8,
            nvm_latency_factor: 1.0,
            nvm_decompress: 2,
            memory: 180,
            load_mlp: 0.6,
            store_mlp: 0.15,
            freq_ghz: 3.5,
        }
    }

    /// LLC NVM-way load-use latency: fixed tag portion plus the scaled
    /// data array (32 cycles at factor 1.0, Table IV; 36 at the ×1.5 of
    /// Figure 11b).
    pub fn llc_nvm_hit(&self) -> u32 {
        self.llc_nvm_tag + (f64::from(self.llc_nvm_array) * self.nvm_latency_factor).round() as u32
    }

    /// Raw load-use latency of a service level.
    pub fn latency(&self, level: ServiceLevel) -> u32 {
        match level {
            ServiceLevel::L1 => 0,
            ServiceLevel::L2 => self.l2_hit,
            ServiceLevel::LlcSram => self.llc_sram_hit,
            ServiceLevel::LlcNvm => self.llc_nvm_hit(),
            ServiceLevel::LlcNvmCompressed => self.llc_nvm_hit() + self.nvm_decompress,
            ServiceLevel::Memory => self.memory,
            ServiceLevel::RemoteL2 => self.llc_sram_hit + self.l2_hit,
        }
    }

    /// Effective stall cycles charged to the core for an access of kind
    /// `op` served at `level`.
    pub fn stall(&self, op: Op, level: ServiceLevel) -> f64 {
        self.stall_cycles(op, f64::from(self.latency(level)))
    }

    /// Effective stall for a raw latency (used when the latency is
    /// variable: DRAM bank state, NVM write contention).
    pub fn stall_cycles(&self, op: Op, raw_latency: f64) -> f64 {
        match op {
            Op::Load => raw_latency * self.load_mlp,
            Op::Store => raw_latency * self.store_mlp,
        }
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
        // Scaling acts on the stored base, so re-deriving is idempotent
        // and survives prior timing customization.
        t.llc_nvm_tag = 30;
        assert_eq!(t.llc_nvm_hit(), 42);
    }

    #[test]
    fn stores_stall_less_than_loads() {
        let t = TimingModel::paper_default();
        assert!(t.stall(Op::Store, ServiceLevel::Memory) < t.stall(Op::Load, ServiceLevel::Memory));
    }
}
