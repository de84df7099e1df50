//! A single NVM frame: fault map + per-byte wear state.

use std::sync::Arc;

use rand::Rng;

use crate::endurance::EnduranceModel;
use crate::fault_map::{FaultMap, FRAME_BYTES};

/// One NVM frame: 66 physical bytes, each with an endurance limit drawn
/// from the [`EnduranceModel`] and a cumulative write-wear counter.
///
/// Wear is tracked in fractional writes so the forecast can apply
/// `rate × Δt` increments; the functional path adds 1.0 per actual write.
/// Endurance limits never change after sampling, so they sit behind an
/// [`Arc`] that every array built from the same sample shares; only the
/// fault map and wear belong to the frame. The wear lane is allocated by
/// the first [`record_write`](Self::record_write) or
/// [`apply_uniform_wear`](Self::apply_uniform_wear): until then it reads
/// as all zeros, so building an array the simulation never wears (every
/// sweep job and replay) allocates no wear at all.
///
/// # Example
///
/// ```
/// use hllc_nvm::Frame;
///
/// let mut f = Frame::with_uniform_endurance(3);
/// // Write bytes 0 and 1 three times; both die on the third write.
/// let failed: usize = (0..3).map(|_| f.record_write(0b11)).sum();
/// assert_eq!(failed, 2);
/// assert_eq!(f.live_bytes(), 64);
/// ```
#[derive(Clone, Debug)]
pub struct Frame {
    fault_map: FaultMap,
    endurance: Arc<[f64; FRAME_BYTES]>,
    /// Per-byte wear; `None` until the first wear is applied, and equal to
    /// an all-zero lane.
    wear: Option<Box<[f64; FRAME_BYTES]>>,
}

/// The wear of a frame that has never been worn.
static NO_WEAR: [f64; FRAME_BYTES] = [0.0; FRAME_BYTES];

impl PartialEq for Frame {
    fn eq(&self, other: &Self) -> bool {
        self.fault_map == other.fault_map
            && self.endurance == other.endurance
            && self.wear() == other.wear()
    }
}

/// Draws one frame's byte endurances from `model`, byte 0 first.
pub(crate) fn sample_endurance<R: Rng + ?Sized>(
    model: &EnduranceModel,
    rng: &mut R,
) -> Arc<[f64; FRAME_BYTES]> {
    let mut endurance = [0.0; FRAME_BYTES];
    for e in endurance.iter_mut() {
        *e = model.sample(rng) as f64;
    }
    Arc::new(endurance)
}

impl Frame {
    /// Creates a pristine, unworn frame over the given endurance limits.
    pub(crate) fn with_endurance(endurance: Arc<[f64; FRAME_BYTES]>) -> Self {
        Frame {
            fault_map: FaultMap::new(),
            endurance,
            wear: None,
        }
    }

    /// Creates a frame whose byte endurances are sampled from `model`.
    pub fn sampled<R: Rng + ?Sized>(model: &EnduranceModel, rng: &mut R) -> Self {
        Frame::with_endurance(sample_endurance(model, rng))
    }

    /// Creates a frame where every byte endures exactly `writes` writes —
    /// handy for deterministic tests.
    pub fn with_uniform_endurance(writes: u64) -> Self {
        Frame::with_endurance(Arc::new([writes as f64; FRAME_BYTES]))
    }

    /// The frame's byte endurance limits, shared with this frame's
    /// counterpart in every array built from the same sample.
    #[inline]
    pub fn endurance(&self) -> &Arc<[f64; FRAME_BYTES]> {
        &self.endurance
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

    /// Remaining writes byte `i` can absorb (0 if already faulty).
    ///
    /// # Panics
    ///
    /// Panics if `i >= FRAME_BYTES`.
    pub fn remaining_writes(&self, i: usize) -> f64 {
        assert!(i < FRAME_BYTES);
        if self.fault_map.is_faulty(i) {
            0.0
        } else {
            // i < FRAME_BYTES (asserted above), the length of both lanes.
            (self.endurance[i] - self.wear()[i]).max(0.0)
        }
    }

    /// Writes the remaining writes of each live byte, in ascending byte
    /// order, to the front of `out` and returns their count (the live-byte
    /// count): the values [`remaining_writes`](Self::remaining_writes)
    /// gives for `fault_map().live_indices()`, read straight from the
    /// endurance and wear lanes.
    pub fn live_remaining(&self, out: &mut [f64; FRAME_BYTES]) -> usize {
        let wear = self.wear();
        let mut n = 0;
        for (w, &word) in self.fault_map.live_words().iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                // i < FRAME_BYTES (a live bit) and n < the live count.
                out[n] = (self.endurance[i] - wear[i]).max(0.0);
                n += 1;
            }
        }
        n
    }

    /// Records one selective write with the given byte mask (bit `i` set =
    /// byte `i` written), as produced by the rearrangement circuitry.
    /// Returns the number of bytes that failed as a result.
    pub fn record_write(&mut self, mask: u128) -> usize {
        // Faulty bytes absorb no wear: drop them from the mask a whole
        // word at a time, then walk the surviving bits.
        let live = self.fault_map.live_words();
        let mask_words = [mask as u64, (mask >> 64) as u64];
        let wear = self.wear.get_or_insert_with(|| Box::new(NO_WEAR));
        let mut failed = 0;
        for (w, &word) in mask_words.iter().enumerate() {
            // w < 2 == live.len() (both arrays cover FRAME_BYTES bits).
            let mut bits = word & live[w];
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                wear[i] += 1.0;
                if wear[i] >= self.endurance[i] {
                    self.fault_map.mark_faulty(i);
                    failed += 1;
                }
            }
        }
        failed
    }

    /// Spreads `total_byte_writes` of wear uniformly across the live bytes —
    /// the aggregate effect of the rotating wear-leveling counter over a
    /// long interval. Returns the number of bytes that failed.
    pub fn apply_uniform_wear(&mut self, total_byte_writes: f64) -> usize {
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
                if wear[i] >= self.endurance[i] {
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

    /// Total wear accumulated across all bytes (diagnostics).
    pub fn total_wear(&self) -> f64 {
        self.wear().iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sampled_frames_start_healthy() {
        let mut rng = StdRng::seed_from_u64(3);
        let f = Frame::sampled(&EnduranceModel::new(1e6, 0.2), &mut rng);
        assert_eq!(f.live_bytes(), FRAME_BYTES);
        assert!(f.remaining_writes(0) > 0.0);
    }

    #[test]
    fn record_write_wears_only_masked_bytes() {
        let mut f = Frame::with_uniform_endurance(10);
        for _ in 0..9 {
            assert_eq!(f.record_write(0b1), 0);
        }
        assert_eq!(f.remaining_writes(0), 1.0);
        assert_eq!(f.remaining_writes(1), 10.0);
        assert_eq!(f.record_write(0b1), 1);
        assert!(f.fault_map().is_faulty(0));
    }

    #[test]
    fn faulty_bytes_absorb_no_more_wear() {
        let mut f = Frame::with_uniform_endurance(1);
        assert_eq!(f.record_write(0b1), 1);
        // Further writes to a dead byte fail nothing and change no wear.
        assert_eq!(f.record_write(0b1), 0);
        assert_eq!(f.remaining_writes(0), 0.0);
    }

    #[test]
    fn uniform_wear_kills_weakest_bytes_first() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut f = Frame::sampled(&EnduranceModel::new(1000.0, 0.3), &mut rng);
        // Find the weakest byte.
        let weakest = (0..FRAME_BYTES)
            .min_by(|&a, &b| f.remaining_writes(a).total_cmp(&f.remaining_writes(b)))
            .unwrap();
        let threshold = f.remaining_writes(weakest);
        assert!(f.apply_uniform_wear(threshold * FRAME_BYTES as f64) > 0);
        assert!(f.fault_map().is_faulty(weakest));
    }

    #[test]
    fn uniform_wear_on_dead_frame_is_noop() {
        let mut f = Frame::with_uniform_endurance(1);
        for i in 0..FRAME_BYTES {
            f.disable_byte(i);
        }
        assert!(f.is_dead());
        assert_eq!(f.apply_uniform_wear(1e9), 0);
    }
}
