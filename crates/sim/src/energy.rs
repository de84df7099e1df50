//! LLC energy accounting.
//!
//! The hybrid-LLC literature the paper builds on (TAP in particular)
//! motivates NVM-aware insertion with *energy*: STT-MRAM reads are cheap
//! and its leakage is negligible, but writes are energy-hungry, while SRAM
//! burns leakage continuously. This module computes a post-hoc energy
//! breakdown from the LLC statistics — dynamic energy per access plus
//! per-byte NVM write energy (so compression directly saves write energy)
//! and leakage over the simulated interval.
//!
//! The coefficients are representative NVSim-style values for the paper's
//! 1 MB SRAM + 3 MB NVM split at 16 nm (documented, not paper-normative —
//! the paper does not tabulate its energy numbers).

use crate::llc::LlcStats;

/// SRAM read energy per access (pJ).
const SRAM_READ_PJ: f64 = 180.0;
/// SRAM write energy per access (pJ).
const SRAM_WRITE_PJ: f64 = 200.0;
/// NVM read energy per access (pJ).
const NVM_READ_PJ: f64 = 260.0;
/// NVM write energy per *byte* written (pJ/B) — the write mask only drives
/// the ECB bytes, so compressed writes cost proportionally less.
const NVM_WRITE_PJ_PER_BYTE: f64 = 15.0;
/// SRAM-part leakage power (mW).
const SRAM_LEAKAGE_MW: f64 = 90.0;
/// NVM-part leakage power (mW) — near zero for STT-MRAM.
const NVM_LEAKAGE_MW: f64 = 2.0;

/// Energy totals over an interval, in millijoules.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Dynamic energy spent in the SRAM part.
    pub sram_dynamic_mj: f64,
    /// Dynamic energy spent in the NVM part (reads + per-byte writes).
    pub nvm_dynamic_mj: f64,
    /// Leakage over the interval.
    pub leakage_mj: f64,
}

impl EnergyBreakdown {
    /// The energy of an interval of `cycles` at `freq_ghz` with the LLC
    /// activity `stats`.
    pub fn of(stats: &LlcStats, cycles: f64, freq_ghz: f64) -> Self {
        let seconds = cycles / (freq_ghz * 1e9);
        let sram_dynamic_pj =
            stats.sram_hits as f64 * SRAM_READ_PJ + stats.sram_inserts as f64 * SRAM_WRITE_PJ;
        let nvm_dynamic_pj = stats.nvm_hits as f64 * NVM_READ_PJ
            + stats.nvm_bytes_written as f64 * NVM_WRITE_PJ_PER_BYTE;
        let leakage_mj = (SRAM_LEAKAGE_MW + NVM_LEAKAGE_MW) * seconds;
        EnergyBreakdown {
            sram_dynamic_mj: sram_dynamic_pj * 1e-9,
            nvm_dynamic_mj: nvm_dynamic_pj * 1e-9,
            leakage_mj,
        }
    }

    /// Total LLC energy in millijoules.
    pub fn total_mj(&self) -> f64 {
        self.sram_dynamic_mj + self.nvm_dynamic_mj + self.leakage_mj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(nvm_bytes: u64, nvm_hits: u64, sram_hits: u64) -> LlcStats {
        LlcStats {
            nvm_bytes_written: nvm_bytes,
            nvm_hits,
            sram_hits,
            sram_inserts: 10,
            ..Default::default()
        }
    }

    #[test]
    fn write_energy_scales_with_bytes() {
        let a = EnergyBreakdown::of(&stats(1000, 0, 0), 0.0, 3.5);
        let b = EnergyBreakdown::of(&stats(2000, 0, 0), 0.0, 3.5);
        // Doubling bytes doubles the NVM write component.
        let write_a = a.nvm_dynamic_mj;
        let write_b = b.nvm_dynamic_mj;
        assert!((write_b - 2.0 * write_a).abs() < 1e-15);
    }

    #[test]
    fn leakage_scales_with_time() {
        let one_ms = EnergyBreakdown::of(&LlcStats::default(), 3.5e6, 3.5);
        assert!((one_ms.leakage_mj - 92.0 * 1e-3).abs() < 1e-9);
        let two_ms = EnergyBreakdown::of(&LlcStats::default(), 7e6, 3.5);
        assert!((two_ms.leakage_mj - 2.0 * one_ms.leakage_mj).abs() < 1e-12);
    }

    /// The coefficients and the order of the float expressions, pinned
    /// bit for bit on fixed counters.
    #[test]
    fn breakdown_is_pinned() {
        let s = LlcStats {
            sram_hits: 123_456,
            sram_inserts: 78_901,
            nvm_hits: 234_567,
            nvm_bytes_written: 9_876_543,
            ..Default::default()
        };
        let b = EnergyBreakdown::of(&s, 12_345_678.0, 3.5);
        let bits = [
            b.sram_dynamic_mj,
            b.nvm_dynamic_mj,
            b.leakage_mj,
            b.total_mj(),
        ]
        .map(f64::to_bits);
        assert_eq!(
            bits,
            [
                0x3fa3_7508_eb8b_ffa8,
                0x3fca_c4f4_460d_8072,
                0x3fd4_c4da_69f9_668e,
                0x3fe2_4afa_d538_d35e
            ]
        );
    }

    #[test]
    fn totals_add_up() {
        let b = EnergyBreakdown::of(&stats(500, 20, 30), 1e6, 3.5);
        assert!(
            (b.total_mj() - (b.sram_dynamic_mj + b.nvm_dynamic_mj + b.leakage_mj)).abs() < 1e-18
        );
        assert!(b.total_mj() > 0.0);
    }
}
