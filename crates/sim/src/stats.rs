//! Aggregate hierarchy statistics.

use crate::timing::ServiceLevel;

/// Counters collected by the [`Hierarchy`](crate::Hierarchy).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HierarchyStats {
    /// Instructions retired per core (memory references + gaps).
    pub instructions: Vec<u64>,
    /// Accesses served at each level: `[L1, L2, LLC-SRAM, LLC-NVM,
    /// LLC-NVM-compressed, memory, remote-L2]`.
    pub services: [u64; 7],
    /// Loads observed.
    pub loads: u64,
    /// Stores observed.
    pub stores: u64,
    /// Write-permission upgrades that had to consult the LLC.
    pub upgrades: u64,
    /// Remote private-cache copies invalidated by writes (coherence).
    pub remote_invalidations: u64,
}

impl HierarchyStats {
    /// Creates zeroed statistics for `cores` cores.
    pub fn new(cores: usize) -> Self {
        HierarchyStats {
            instructions: vec![0; cores],
            ..Default::default()
        }
    }

    pub(crate) fn level_slot(level: ServiceLevel) -> usize {
        match level {
            ServiceLevel::L1 => 0,
            ServiceLevel::L2 => 1,
            ServiceLevel::LlcSram => 2,
            ServiceLevel::LlcNvm => 3,
            ServiceLevel::LlcNvmCompressed => 4,
            ServiceLevel::Memory => 5,
            ServiceLevel::RemoteL2 => 6,
        }
    }

    /// Total memory references.
    pub fn accesses(&self) -> u64 {
        self.loads + self.stores
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_distinct() {
        use ServiceLevel::*;
        let mut seen = [false; 7];
        for l in [L1, L2, LlcSram, LlcNvm, LlcNvmCompressed, Memory, RemoteL2] {
            let s = HierarchyStats::level_slot(l);
            assert!(!seen[s]);
            seen[s] = true;
        }
    }
}
