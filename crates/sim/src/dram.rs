//! A banked, open-page DRAM model.
//!
//! Table IV specifies one DDR4 channel. The default hierarchy charges a
//! fixed memory latency; enabling this model replaces it with a
//! bank-visible one: row-buffer hits pay CAS only, row misses pay
//! precharge + activate + CAS, and requests queue behind a busy bank.
//! Latencies are expressed in core cycles (3.5 GHz: ~14 ns ≈ 50 cycles per
//! DRAM timing step).

/// Banks in the channel.
const BANKS: usize = 16;
/// Blocks per row (a 2 KB row holds 32 64-byte blocks).
const BLOCKS_PER_ROW: u64 = 32;
/// Core cycles for a row-buffer hit (CAS + bus).
const ROW_HIT_CYCLES: u32 = 90;
/// Core cycles for a closed-row access (activate + CAS + bus).
const ROW_MISS_CYCLES: u32 = 160;
/// Additional core cycles to precharge an open conflicting row.
const PRECHARGE_CYCLES: u32 = 50;
/// Core cycles a bank stays busy per access (command occupancy).
const BANK_OCCUPANCY_CYCLES: u32 = 24;

/// Per-bank open-row state.
#[derive(Clone, Copy, Debug, Default)]
struct Bank {
    open_row: Option<u64>,
    busy_until: u64,
}

/// The DRAM channel: open-page row buffers plus bank queueing, one
/// DDR4-2400-ish channel at a 3.5 GHz core clock.
///
/// # Example
///
/// ```
/// use hllc_sim::Dram;
///
/// let mut d = Dram::default();
/// let first = d.access(0, 0);   // row miss
/// let second = d.access(1, 1_000); // same row: row hit, cheaper
/// assert!(second < first);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Dram {
    banks: [Bank; BANKS],
    row_hits: u64,
    row_misses: u64,
    conflicts: u64,
}

/// The (bank, row) of a block address.
fn locate(block: u64) -> (usize, u64) {
    let row = block / BLOCKS_PER_ROW;
    // XOR-fold the row into the bank index to spread streams.
    let bank = ((row ^ (row >> 7)) as usize) % BANKS;
    (bank, row)
}

impl Dram {
    /// Services one block access at time `now`, returning its latency in
    /// core cycles (including any wait for the bank).
    #[expect(clippy::indexing_slicing, reason = "locate() reduces modulo BANKS")]
    pub fn access(&mut self, block: u64, now: u64) -> u32 {
        let (bank_idx, row) = locate(block);
        let bank = &mut self.banks[bank_idx];

        let queue_wait = bank.busy_until.saturating_sub(now) as u32;
        let service = match bank.open_row {
            Some(open) if open == row => {
                self.row_hits += 1;
                ROW_HIT_CYCLES
            }
            Some(_) => {
                self.conflicts += 1;
                PRECHARGE_CYCLES + ROW_MISS_CYCLES
            }
            None => {
                self.row_misses += 1;
                ROW_MISS_CYCLES
            }
        };
        bank.open_row = Some(row);
        bank.busy_until = now.max(bank.busy_until) + u64::from(BANK_OCCUPANCY_CYCLES);
        queue_wait + service
    }

    /// (row hits, row misses, row conflicts) served so far.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.row_hits, self.row_misses, self.conflicts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> Dram {
        Dram::default()
    }

    #[test]
    fn row_hits_are_cheaper_than_misses() {
        let mut d = dram();
        let miss = d.access(0, 0);
        let hit = d.access(1, 10_000);
        assert!(hit < miss, "row hit {hit} !< miss {miss}");
        assert_eq!(d.stats(), (1, 1, 0));
    }

    #[test]
    fn row_conflicts_pay_precharge() {
        let mut d = dram();
        let (bank0, row0) = locate(0);
        d.access(0, 0);
        // Find a block in the same bank but a different row.
        let block = (1..)
            .map(|r| r * BLOCKS_PER_ROW)
            .find(|&b| {
                let (bank, row) = locate(b);
                bank == bank0 && row != row0
            })
            .unwrap();
        let lat = d.access(block, 1_000_000); // bank idle by then
        assert_eq!(lat, PRECHARGE_CYCLES + ROW_MISS_CYCLES);
        assert_eq!(d.stats().2, 1, "must count one conflict");
    }

    #[test]
    fn busy_bank_queues_requests() {
        let mut d = dram();
        let l1 = d.access(0, 0);
        // Immediate second access to the same bank waits out the occupancy.
        let l2 = d.access(1, 0);
        assert!(l2 > ROW_HIT_CYCLES, "queued access must wait: {l2}");
        let _ = l1;
    }

    /// Row-hit, row-miss, conflict and queued-access latencies, in core
    /// cycles.
    #[test]
    fn latencies_are_pinned() {
        let mut d = dram();
        assert_eq!(d.access(0, 0), 160, "row miss");
        assert_eq!(d.access(1, 1_000), 90, "row hit");
        assert_eq!(d.access(2, 1_000), 24 + 90, "queued row hit");
        let (bank0, row0) = locate(0);
        let conflict = (1..)
            .map(|r| r * 32)
            .find(|&b| locate(b).0 == bank0 && locate(b).1 != row0)
            .unwrap();
        assert_eq!(d.access(conflict, 1_000_000), 50 + 160, "row conflict");
        assert_eq!(d.stats(), (2, 1, 1));
    }

    #[test]
    fn sequential_stream_is_mostly_row_hits() {
        let mut d = dram();
        for b in 0..320u64 {
            d.access(b, b * 500);
        }
        let (hits, misses, conflicts) = d.stats();
        assert!(hits > 300, "streaming should hit the row buffer: {hits}");
        assert!(misses + conflicts <= 20);
    }

    #[test]
    fn random_stream_mostly_misses() {
        let mut d = dram();
        let mut x = 0x12345u64;
        for i in 0..500 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            d.access(x >> 20, i * 500);
        }
        let (hits, misses, conflicts) = d.stats();
        assert!(
            misses + conflicts > hits,
            "random stream should thrash rows"
        );
    }
}
