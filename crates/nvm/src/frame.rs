//! A single NVM frame: fault map + per-byte wear state.

use crate::fault_map::{FaultMap, FRAME_BYTES};

/// One NVM frame: 66 physical bytes, each with a fault bit and a
/// cumulative write-wear counter.
///
/// Wear is tracked in fractional writes so the forecast can apply
/// `rate × Δt` increments; the functional path adds 1.0 per actual write.
/// The bytes' endurance limits belong to the array
/// ([`NvmArray::endurance`](crate::NvmArray::endurance)); every method that
/// compares wear against them takes the frame's limits as an argument. The
/// wear lane is allocated by the first [`record_write`](Self::record_write)
/// or [`apply_uniform_wear`](Self::apply_uniform_wear): until then it reads
/// as all zeros, so building an array the simulation never wears (every
/// sweep job and replay) allocates no wear at all.
///
/// # Example
///
/// ```
/// use hllc_nvm::{Frame, FRAME_BYTES};
///
/// let limits = [3.0; FRAME_BYTES];
/// let mut f = Frame::new();
/// // Write bytes 0 and 1 three times; both die on the third write.
/// let failed: usize = (0..3).map(|_| f.record_write(&limits, 0b11)).sum();
/// assert_eq!(failed, 2);
/// assert_eq!(f.live_bytes(), 64);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Frame {
    fault_map: FaultMap,
    /// Per-byte wear; `None` until the first wear is applied, and equal to
    /// an all-zero lane.
    wear: Option<Box<[f64; FRAME_BYTES]>>,
}

/// The wear of a frame that has never been worn.
const NO_WEAR: [f64; FRAME_BYTES] = [0.0; FRAME_BYTES];

impl PartialEq for Frame {
    fn eq(&self, other: &Self) -> bool {
        self.fault_map == other.fault_map && self.wear() == other.wear()
    }
}

impl Frame {
    /// A pristine frame: no faulty byte, no wear.
    pub fn new() -> Self {
        Frame::default()
    }

    /// Per-byte wear so far (all zeros before the first write).
    fn wear(&self) -> &[f64; FRAME_BYTES] {
        self.wear.as_deref().unwrap_or(&NO_WEAR)
    }

    /// The frame's current fault map.
    #[inline]
    pub fn fault_map(&self) -> &FaultMap {
        &self.fault_map
    }

    /// Number of live bytes (effective capacity in bytes).
    #[inline]
    pub fn live_bytes(&self) -> usize {
        self.fault_map.live_bytes()
    }

    /// True if every byte has failed.
    #[inline]
    pub fn is_dead(&self) -> bool {
        self.fault_map.is_dead()
    }

    /// Remaining writes byte `i` can absorb under the frame's `endurance`
    /// limits (0 if already faulty).
    ///
    /// # Panics
    ///
    /// Panics if `i >= FRAME_BYTES`.
    #[expect(clippy::indexing_slicing, reason = "i < FRAME_BYTES (asserted)")]
    pub fn remaining_writes(&self, endurance: &[f64; FRAME_BYTES], i: usize) -> f64 {
        assert!(i < FRAME_BYTES);
        if self.fault_map.is_faulty(i) {
            0.0
        } else {
            (endurance[i] - self.wear()[i]).max(0.0)
        }
    }

    /// Writes the remaining writes of each live byte, in ascending byte
    /// order, to the front of `out` and returns their count (the live-byte
    /// count): the values [`remaining_writes`](Self::remaining_writes)
    /// gives for `fault_map().live_indices()`, read straight from the
    /// endurance and wear lanes.
    #[expect(clippy::indexing_slicing, reason = "i is a live bit, n < live count")]
    pub fn live_remaining(
        &self,
        endurance: &[f64; FRAME_BYTES],
        out: &mut [f64; FRAME_BYTES],
    ) -> usize {
        let wear = self.wear();
        let mut n = 0;
        for (w, &word) in self.fault_map.live_words().iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                out[n] = (endurance[i] - wear[i]).max(0.0);
                n += 1;
            }
        }
        n
    }

    /// Records one selective write with the given byte mask (bit `i` set =
    /// byte `i` written), as produced by the rearrangement circuitry, against
    /// the frame's `endurance` limits. Returns the number of bytes that
    /// failed as a result.
    #[expect(clippy::indexing_slicing, reason = "w < 2 == live.len(), i is live")]
    pub fn record_write(&mut self, endurance: &[f64; FRAME_BYTES], mask: u128) -> usize {
        // Faulty bytes absorb no wear: drop them from the mask a whole
        // word at a time, then walk the surviving bits.
        let live = self.fault_map.live_words();
        let mask_words = [mask as u64, (mask >> 64) as u64];
        let wear = self.wear.get_or_insert_with(|| Box::new(NO_WEAR));
        let mut failed = 0;
        for (w, &word) in mask_words.iter().enumerate() {
            let mut bits = word & live[w];
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                wear[i] += 1.0;
                if wear[i] >= endurance[i] {
                    self.fault_map.mark_faulty(i);
                    failed += 1;
                }
            }
        }
        failed
    }

    /// Spreads `total_byte_writes` of wear uniformly across the live bytes —
    /// the aggregate effect of the rotating wear-leveling counter over a
    /// long interval — against the frame's `endurance` limits. Returns the
    /// number of bytes that failed.
    #[expect(clippy::indexing_slicing, reason = "i < FRAME_BYTES: i is a live bit")]
    pub fn apply_uniform_wear(
        &mut self,
        endurance: &[f64; FRAME_BYTES],
        total_byte_writes: f64,
    ) -> usize {
        let live = self.live_bytes();
        if live == 0 || total_byte_writes <= 0.0 {
            return 0;
        }
        let per_byte = total_byte_writes / live as f64;
        let wear = self.wear.get_or_insert_with(|| Box::new(NO_WEAR));
        let mut failed = 0;
        for (w, &word) in self.fault_map.live_words().iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                wear[i] += per_byte;
                if wear[i] >= endurance[i] {
                    self.fault_map.mark_faulty(i);
                    failed += 1;
                }
            }
        }
        failed
    }

    /// Directly disables byte `i`. An array's frames go through
    /// [`NvmArray::disable_byte`](crate::NvmArray::disable_byte), which
    /// also applies the disabling granularity.
    ///
    /// # Panics
    ///
    /// Panics if `i >= FRAME_BYTES`.
    pub fn disable_byte(&mut self, i: usize) {
        self.fault_map.mark_faulty(i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EnduranceModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sampled(model: &EnduranceModel, seed: u64) -> [f64; FRAME_BYTES] {
        let mut rng = StdRng::seed_from_u64(seed);
        std::array::from_fn(|_| model.sample(&mut rng) as f64)
    }

    #[test]
    fn fresh_frames_start_healthy() {
        let limits = sampled(&EnduranceModel::new(1e6, 0.2), 3);
        let f = Frame::new();
        assert_eq!(f.live_bytes(), FRAME_BYTES);
        assert!(f.remaining_writes(&limits, 0) > 0.0);
    }

    #[test]
    fn record_write_wears_only_masked_bytes() {
        let limits = [10.0; FRAME_BYTES];
        let mut f = Frame::new();
        for _ in 0..9 {
            assert_eq!(f.record_write(&limits, 0b1), 0);
        }
        assert_eq!(f.remaining_writes(&limits, 0), 1.0);
        assert_eq!(f.remaining_writes(&limits, 1), 10.0);
        assert_eq!(f.record_write(&limits, 0b1), 1);
        assert!(f.fault_map().is_faulty(0));
    }

    #[test]
    fn faulty_bytes_absorb_no_more_wear() {
        let limits = [1.0; FRAME_BYTES];
        let mut f = Frame::new();
        assert_eq!(f.record_write(&limits, 0b1), 1);
        // Further writes to a dead byte fail nothing and change no wear.
        assert_eq!(f.record_write(&limits, 0b1), 0);
        assert_eq!(f.remaining_writes(&limits, 0), 0.0);
    }

    #[test]
    fn uniform_wear_kills_weakest_bytes_first() {
        let limits = sampled(&EnduranceModel::new(1000.0, 0.3), 11);
        let mut f = Frame::new();
        // Find the weakest byte.
        let weakest = (0..FRAME_BYTES)
            .min_by(|&a, &b| {
                f.remaining_writes(&limits, a)
                    .total_cmp(&f.remaining_writes(&limits, b))
            })
            .unwrap();
        let threshold = f.remaining_writes(&limits, weakest);
        assert!(f.apply_uniform_wear(&limits, threshold * FRAME_BYTES as f64) > 0);
        assert!(f.fault_map().is_faulty(weakest));
    }

    #[test]
    fn uniform_wear_on_dead_frame_is_noop() {
        let limits = [1.0; FRAME_BYTES];
        let mut f = Frame::new();
        for i in 0..FRAME_BYTES {
            f.disable_byte(i);
        }
        assert!(f.is_dead());
        assert_eq!(f.apply_uniform_wear(&limits, 1e9), 0);
    }
}
