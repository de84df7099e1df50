//! Intra-frame wear-leveling (§III-B1).
//!
//! A single global counter, shared by all sets, selects the byte offset at
//! which writes start within a frame. It advances after long periods (hours
//! to days of wall-clock time) so the write region drifts across the frame
//! and wear is spread over all non-faulty bytes.

use crate::fault_map::FRAME_BYTES;

/// The global intra-frame wear-leveling rotation counter.
///
/// # Example
///
/// ```
/// use hllc_nvm::WearLevelCounter;
///
/// // Advance once per simulated hour at 3.5 GHz (1.26e13 cycles).
/// let mut wl = WearLevelCounter::new(3_600.0 * 3.5e9);
/// wl.tick(2.0 * 3_600.0 * 3.5e9); // two simulated hours
/// assert_eq!(wl.offset(), 2);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WearLevelCounter {
    period_cycles: f64,
    accumulated: f64,
    offset: usize,
}

impl WearLevelCounter {
    /// Creates a counter that advances its offset every `period_cycles`
    /// cycles.
    ///
    /// # Panics
    ///
    /// Panics if `period_cycles <= 0`.
    pub fn new(period_cycles: f64) -> Self {
        assert!(period_cycles > 0.0, "period must be positive");
        WearLevelCounter {
            period_cycles,
            accumulated: 0.0,
            offset: 0,
        }
    }

    /// Current starting byte offset for frame writes.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Accounts for `cycles` elapsed cycles, advancing the offset as many
    /// whole periods as fit.
    pub fn tick(&mut self, cycles: f64) {
        self.accumulated += cycles;
        let steps = (self.accumulated / self.period_cycles) as u64;
        if steps > 0 {
            self.accumulated -= steps as f64 * self.period_cycles;
            self.offset = (self.offset + steps as usize) % FRAME_BYTES;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advances_every_period() {
        let mut wl = WearLevelCounter::new(100.0);
        wl.tick(99.0);
        assert_eq!(wl.offset(), 0);
        wl.tick(1.0);
        assert_eq!(wl.offset(), 1);
        wl.tick(250.0);
        assert_eq!(wl.offset(), 3);
        // Residual 50 cycles carried over.
        wl.tick(50.0);
        assert_eq!(wl.offset(), 4);
    }

    #[test]
    fn wraps_modulo_frame_bytes() {
        let mut wl = WearLevelCounter::new(1.0);
        wl.tick(FRAME_BYTES as f64 + 3.0);
        assert_eq!(wl.offset(), 3);
    }

    #[test]
    fn covers_all_offsets_over_time() {
        let mut wl = WearLevelCounter::new(10.0);
        let mut seen = [false; FRAME_BYTES];
        for _ in 0..FRAME_BYTES {
            seen[wl.offset()] = true;
            wl.tick(10.0);
        }
        assert!(seen.iter().all(|&s| s), "rotation must visit every offset");
    }
}
