//! The NVM portion of the LLC data array.

use std::cell::Cell;
use std::sync::{Arc, Mutex, PoisonError};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::endurance::EnduranceModel;
use crate::fault_map::FRAME_BYTES;
use crate::frame::{sample_endurance, Frame, WearEvent};

/// Sentinel in the capacity lane: the cached value must be recomputed from
/// the frame's fault map on the next query.
const CAP_DIRTY: u8 = u8::MAX;

/// The endurance limits of a whole array, one shared map per frame in
/// `set * ways + way` order.
type EnduranceMap = Arc<[Arc<[f64; FRAME_BYTES]>]>;

/// What determines a seeded endurance map: `(sets, ways, mean bits, cv
/// bits, seed)`.
type MapKey = (usize, usize, u64, u64, u64);

/// The most recently sampled seeded map ([`NvmArray::sampled`]). A single
/// slot, so at most one map outlives the arrays built from it.
static LAST_MAP: Mutex<Option<(MapKey, EnduranceMap)>> = Mutex::new(None);

/// Draws the endurance limits of `frames` frames from `model`, frame by
/// frame.
fn sample_map<R: Rng + ?Sized>(frames: usize, model: &EnduranceModel, rng: &mut R) -> EnduranceMap {
    (0..frames).map(|_| sample_endurance(model, rng)).collect()
}

/// `x % d` for a fixed divisor `d`, by multiplication instead of a
/// hardware divide (Lemire, Kaser & Kurz, "Faster Remainder by Direct
/// Computation", 2019, Theorem 1 with N = 64 and L = 64). With
/// `c = ceil(2^128 / d)`, `c·d` lies in `[2^128, 2^128 + d)` and
/// `d <= 2^64`, so for every 64-bit `x`
/// `x % d == (((c·x) mod 2^128) · d) >> 128` exactly. For `d = 1`, `c` is
/// `2^128 ≡ 0` and the formula gives 0. `gen_range(0..d)` is
/// `next_u64() % d`, so drawing through this returns the same values from
/// the same RNG stream.
#[derive(Clone, Copy)]
struct FastMod {
    c: u128,
    d: u64,
}

impl FastMod {
    const fn new(d: u64) -> Self {
        assert!(d > 0, "remainder by zero");
        FastMod {
            c: (u128::MAX / d as u128).wrapping_add(1),
            d,
        }
    }

    /// `x % self.d`.
    #[inline]
    fn rem(self, x: u64) -> u64 {
        let low = self.c.wrapping_mul(u128::from(x));
        let d = u128::from(self.d);
        // The top 64 bits of the 192-bit `low · d`: (hi·d + (lo·d >> 64))
        // >> 64, which cannot overflow since hi·d < 2^128 - 2^64.
        let carry = (low as u64 as u128 * d) >> 64;
        ((((low >> 64) * d) + carry) >> 64) as u64
    }
}

/// One [`FastMod`] per possible live-byte count of a frame (index 0 unused).
const LIVE_MODS: [FastMod; FRAME_BYTES + 1] = {
    let mut mods = [FastMod::new(1); FRAME_BYTES + 1];
    let mut d = 1;
    while d <= FRAME_BYTES {
        // d <= FRAME_BYTES < mods.len().
        mods[d] = FastMod::new(d as u64);
        d += 1;
    }
    mods
};

/// Hard-fault disabling granularity (Table III).
///
/// * `Frame`: the first hard fault disables the whole frame (BH, LHybrid,
///   TAP).
/// * `Byte`: individual bytes are disabled and the frame keeps serving
///   compressed blocks that fit its remaining capacity (BH_CP, CP_SD).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DisableGranularity {
    /// Whole-frame disabling: cheap metadata, coarse capacity loss.
    Frame,
    /// Byte-level disabling: needs the 66-bit fault map per frame.
    Byte,
}

/// Identifies a frame by its (set, way) coordinates within the NVM part.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FrameId {
    /// Cache set index.
    pub set: usize,
    /// NVM way index within the set (0-based over the NVM ways only).
    pub way: usize,
}

/// The NVM data array: `sets × ways` frames with per-byte wear state,
/// write accounting for the aging forecast, and a disabling policy.
///
/// # Example
///
/// ```
/// use hllc_nvm::{DisableGranularity, EnduranceModel, NvmArray};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let arr = NvmArray::new(16, 12, &EnduranceModel::paper_default(),
///                         DisableGranularity::Byte, &mut rng);
/// assert_eq!(arr.capacity_fraction(), 1.0);
/// assert_eq!(arr.effective_capacity(0, 0), 66);
/// ```
#[derive(Clone, Debug)]
pub struct NvmArray {
    sets: usize,
    ways: usize,
    granularity: DisableGranularity,
    frames: Vec<Frame>,
    disabled: Vec<bool>,
    /// Cached effective capacity per frame (one byte each) so that
    /// way-selection sweeps read a contiguous lane instead of touching every
    /// frame's fault map. Entries invalidated by wear or by the `frame_mut`
    /// escape hatch hold [`CAP_DIRTY`] and are recomputed lazily.
    capacity: Vec<Cell<u8>>,
    /// Bytes written per frame since the last `take_pending_writes`.
    pending_byte_writes: Vec<u64>,
    total_writes: u64,
    total_bytes_written: u64,
}

impl NvmArray {
    /// Builds an array of `sets × ways` frames with endurances sampled from
    /// `model`, frame by frame in `set * ways + way` order.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn new<R: Rng + ?Sized>(
        sets: usize,
        ways: usize,
        model: &EnduranceModel,
        granularity: DisableGranularity,
        rng: &mut R,
    ) -> Self {
        assert!(sets > 0 && ways > 0, "array must have at least one frame");
        let map = sample_map(sets * ways, model, rng);
        Self::with_endurance(sets, ways, granularity, &map)
    }

    /// The array `new` builds from `StdRng::seed_from_u64(seed)`, with its
    /// endurance map shared rather than resampled: the most recently drawn
    /// map is memoised per `(sets, ways, model, seed)`, and every array
    /// built from it holds the same immutable limits. Wear, fault maps and
    /// disabling stay per array.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn sampled(
        sets: usize,
        ways: usize,
        model: &EnduranceModel,
        granularity: DisableGranularity,
        seed: u64,
    ) -> Self {
        assert!(sets > 0 && ways > 0, "array must have at least one frame");
        let key = (
            sets,
            ways,
            model.mean().to_bits(),
            model.cv().to_bits(),
            seed,
        );
        let map = {
            // The slot is only ever replaced whole, so a panic elsewhere
            // cannot leave it half-written: a poisoned lock is safe to use.
            let mut last = LAST_MAP.lock().unwrap_or_else(PoisonError::into_inner);
            match &*last {
                Some((k, map)) if *k == key => Arc::clone(map),
                _ => {
                    let map = sample_map(sets * ways, model, &mut StdRng::seed_from_u64(seed));
                    *last = Some((key, Arc::clone(&map)));
                    map
                }
            }
        };
        Self::with_endurance(sets, ways, granularity, &map)
    }

    /// A pristine array over per-frame endurance limits (`sets * ways` of
    /// them, in frame order).
    fn with_endurance(
        sets: usize,
        ways: usize,
        granularity: DisableGranularity,
        map: &[Arc<[f64; FRAME_BYTES]>],
    ) -> Self {
        let n = map.len();
        debug_assert_eq!(n, sets * ways);
        let frames = map
            .iter()
            .map(|e| Frame::with_endurance(Arc::clone(e)))
            .collect();
        NvmArray {
            sets,
            ways,
            granularity,
            frames,
            disabled: vec![false; n],
            capacity: vec![Cell::new(FRAME_BYTES as u8); n],
            pending_byte_writes: vec![0; n],
            total_writes: 0,
            total_bytes_written: 0,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// NVM ways per set.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// The disabling granularity this array operates under.
    pub fn granularity(&self) -> DisableGranularity {
        self.granularity
    }

    #[inline]
    fn idx(&self, set: usize, way: usize) -> usize {
        assert!(
            set < self.sets && way < self.ways,
            "frame ({set},{way}) out of range"
        );
        set * self.ways + way
    }

    /// Immutable access to a frame.
    #[inline]
    pub fn frame(&self, set: usize, way: usize) -> &Frame {
        // idx() < sets * ways == frames.len().
        &self.frames[self.idx(set, way)]
    }

    /// Mutable access to a frame (fault injection, tests). Invalidates the
    /// frame's cached capacity, since the caller may mutate its fault map.
    pub fn frame_mut(&mut self, set: usize, way: usize) -> &mut Frame {
        let i = self.idx(set, way);
        // i = idx() < sets * ways, the length of every lane.
        self.capacity[i].set(CAP_DIRTY);
        &mut self.frames[i]
    }

    fn compute_capacity(&self, i: usize) -> u8 {
        if self.disabled[i] {
            0
        } else {
            match self.granularity {
                DisableGranularity::Byte => self.frames[i].live_bytes() as u8,
                DisableGranularity::Frame => FRAME_BYTES as u8,
            }
        }
    }

    /// Effective capacity of a frame in bytes, under the array's disabling
    /// granularity: a frame-disabled frame has zero capacity; otherwise the
    /// live-byte count.
    #[inline]
    pub fn effective_capacity(&self, set: usize, way: usize) -> usize {
        let i = self.idx(set, way);
        let cached = self.capacity[i].get();
        if cached != CAP_DIRTY {
            return cached as usize;
        }
        let fresh = self.compute_capacity(i);
        self.capacity[i].set(fresh);
        fresh as usize
    }

    /// True if the frame can hold an ECB of `ecb_len` bytes.
    #[inline]
    pub fn fits(&self, set: usize, way: usize, ecb_len: usize) -> bool {
        ecb_len <= self.effective_capacity(set, way)
    }

    /// The contiguous effective-capacity lane of `set`, one byte per way —
    /// victim sweeps read this instead of querying each frame. Dirty entries
    /// are refreshed before the slice is returned, so every cell holds the
    /// frame's current capacity.
    #[inline]
    pub fn capacity_lane(&self, set: usize) -> &[Cell<u8>] {
        assert!(set < self.sets, "set {set} out of range");
        let base = set * self.ways;
        // base + ways <= sets * ways == capacity.len() (set checked above).
        let lane = &self.capacity[base..base + self.ways];
        for (way, cap) in lane.iter().enumerate() {
            if cap.get() == CAP_DIRTY {
                cap.set(self.compute_capacity(base + way));
            }
        }
        lane
    }

    /// Accounts for one block write of `ecb_len` bytes into a frame.
    ///
    /// This is the fast accounting path used during simulation phases: wear
    /// is accumulated per frame and applied later by the forecast's
    /// prediction phase (`apply_uniform_wear`). Returns the bytes written
    /// (for bandwidth statistics).
    #[inline]
    pub fn note_write(&mut self, set: usize, way: usize, ecb_len: usize) -> u64 {
        let i = self.idx(set, way);
        debug_assert!(!self.disabled[i], "writing a disabled frame");
        self.pending_byte_writes[i] += ecb_len as u64;
        self.total_writes += 1;
        self.total_bytes_written += ecb_len as u64;
        ecb_len as u64
    }

    /// Drains the per-frame byte-write counters accumulated since the last
    /// call (simulation → prediction hand-off).
    pub fn take_pending_writes(&mut self) -> Vec<u64> {
        let mut out = vec![0; self.frames.len()];
        std::mem::swap(&mut out, &mut self.pending_byte_writes);
        out
    }

    /// Applies `byte_writes` of uniformly-spread wear to a frame, honouring
    /// the disabling granularity. Returns newly failed bytes (empty for an
    /// already-disabled frame).
    pub fn apply_uniform_wear(
        &mut self,
        set: usize,
        way: usize,
        byte_writes: f64,
    ) -> Vec<WearEvent> {
        let i = self.idx(set, way);
        if self.disabled[i] {
            return Vec::new();
        }
        let events = self.frames[i].apply_uniform_wear(byte_writes);
        if !events.is_empty() && self.granularity == DisableGranularity::Frame {
            self.disabled[i] = true;
        }
        if self.frames[i].is_dead() {
            self.disabled[i] = true;
        }
        if !events.is_empty() || self.disabled[i] {
            self.capacity[i].set(CAP_DIRTY);
        }
        events
    }

    /// Administratively disables a whole frame (fault injection, tests,
    /// and the frame-disabling policies' reaction to tag-array faults).
    pub fn disable_frame(&mut self, set: usize, way: usize) {
        let i = self.idx(set, way);
        self.disabled[i] = true;
        self.capacity[i].set(0);
    }

    /// True if the frame has been disabled (dead frame, or frame-granularity
    /// disabling after its first fault).
    pub fn is_disabled(&self, set: usize, way: usize) -> bool {
        self.disabled[self.idx(set, way)]
    }

    /// Fraction of the original capacity still usable:
    /// live bytes / total bytes under byte disabling, live frames / total
    /// frames under frame disabling.
    pub fn capacity_fraction(&self) -> f64 {
        match self.granularity {
            DisableGranularity::Byte => {
                let live: usize = self
                    .frames
                    .iter()
                    .zip(&self.disabled)
                    .map(|(f, &d)| if d { 0 } else { f.live_bytes() })
                    .sum();
                live as f64 / (self.frames.len() * FRAME_BYTES) as f64
            }
            DisableGranularity::Frame => {
                let live = self.disabled.iter().filter(|&&d| !d).count();
                live as f64 / self.frames.len() as f64
            }
        }
    }

    /// Artificially degrades the array until `capacity_fraction` is at most
    /// `target` by disabling the weakest bytes uniformly at random — used by
    /// the sensitivity harnesses (Figures 8a and 9) that study caches at
    /// 100/90/80/…% NVM capacity.
    ///
    /// Each step draws a frame, then (under byte disabling) the index of
    /// one of its live bytes, as `gen_range` would: both remainders are
    /// taken by multiplication ([`FastMod`]) and the byte is found by a
    /// constant-time select, so a step costs the same for any frame. The
    /// frame's live count is read once per step from the capacity lane
    /// (a popcount only if the entry is stale), and each step leaves the
    /// entry exact rather than stale.
    pub fn degrade_to<R: Rng + ?Sized>(&mut self, target: f64, rng: &mut R) {
        assert!((0.0..=1.0).contains(&target), "target must be a fraction");
        let frames = FastMod::new(self.frames.len() as u64);
        match self.granularity {
            DisableGranularity::Byte => {
                let total = self.frames.len() * FRAME_BYTES;
                let mut live: usize = self
                    .frames
                    .iter()
                    .zip(&self.disabled)
                    .map(|(f, &d)| if d { 0 } else { f.live_bytes() })
                    .sum();
                let target_live = (target * total as f64).floor() as usize;
                while live > target_live {
                    // rem < frames.len(), the length of every lane.
                    let i = frames.rem(rng.next_u64()) as usize;
                    if self.disabled[i] {
                        continue;
                    }
                    // A live frame's capacity entry is its live-byte count
                    // under byte disabling, or stale.
                    let in_frame = match self.capacity[i].get() {
                        CAP_DIRTY => self.frames[i].live_bytes(),
                        cached => usize::from(cached),
                    };
                    if in_frame == 0 {
                        continue;
                    }
                    // in_frame <= FRAME_BYTES; k < in_frame.
                    let k = LIVE_MODS[in_frame].rem(rng.next_u64()) as usize;
                    let Some(b) = self.frames[i].fault_map().nth_live(k) else {
                        continue;
                    };
                    self.frames[i].disable_byte(b);
                    self.capacity[i].set((in_frame - 1) as u8);
                    live -= 1;
                    if in_frame == 1 {
                        self.disabled[i] = true;
                    }
                }
            }
            DisableGranularity::Frame => {
                let total = self.frames.len();
                let mut live = self.disabled.iter().filter(|&&d| !d).count();
                let target_live = (target * total as f64).floor() as usize;
                while live > target_live {
                    // rem < total, the length of every lane.
                    let i = frames.rem(rng.next_u64()) as usize;
                    if !self.disabled[i] {
                        self.disabled[i] = true;
                        self.capacity[i].set(0);
                        live -= 1;
                    }
                }
            }
        }
    }

    /// Total block writes accounted so far.
    pub fn total_writes(&self) -> u64 {
        self.total_writes
    }

    /// Total bytes written so far.
    pub fn total_bytes_written(&self) -> u64 {
        self.total_bytes_written
    }

    /// Resets the lifetime byte/write counters (capacity state is kept).
    pub fn reset_write_stats(&mut self) {
        self.total_writes = 0;
        self.total_bytes_written = 0;
        self.pending_byte_writes.iter_mut().for_each(|w| *w = 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_array(granularity: DisableGranularity) -> NvmArray {
        let mut rng = StdRng::seed_from_u64(5);
        NvmArray::new(
            4,
            2,
            &EnduranceModel::new(100.0, 0.0),
            granularity,
            &mut rng,
        )
    }

    #[test]
    fn fresh_array_full_capacity() {
        let a = small_array(DisableGranularity::Byte);
        assert_eq!(a.capacity_fraction(), 1.0);
        assert!(a.fits(3, 1, 66));
        assert!(!a.fits(3, 1, 67));
    }

    #[test]
    fn capacity_cache_tracks_every_mutation_path() {
        let mut a = small_array(DisableGranularity::Byte);
        assert_eq!(a.effective_capacity(0, 0), FRAME_BYTES);
        // Mutation through the escape hatch must invalidate the cache.
        a.frame_mut(0, 0).disable_byte(3);
        assert_eq!(a.effective_capacity(0, 0), FRAME_BYTES - 1);
        // Wear-driven faults (endurance 100 in `small_array`).
        let events = a.apply_uniform_wear(0, 1, 100.0 * FRAME_BYTES as f64);
        assert!(!events.is_empty());
        assert_eq!(a.effective_capacity(0, 1), 0);
        assert!(a.is_disabled(0, 1));
        // Administrative frame disabling.
        a.disable_frame(0, 0);
        assert_eq!(a.effective_capacity(0, 0), 0);
    }

    #[test]
    fn note_write_accumulates_and_drains() {
        let mut a = small_array(DisableGranularity::Byte);
        a.note_write(0, 0, 30);
        a.note_write(0, 0, 36);
        a.note_write(1, 1, 10);
        assert_eq!(a.total_writes(), 3);
        assert_eq!(a.total_bytes_written(), 76);
        let pending = a.take_pending_writes();
        assert_eq!(pending[0], 66);
        assert_eq!(pending[3], 10);
        assert!(a.take_pending_writes().iter().all(|&w| w == 0));
    }

    #[test]
    fn byte_disabling_degrades_gradually() {
        let mut a = small_array(DisableGranularity::Byte);
        // Uniform endurance 100: spreading 66*100 byte-writes kills all bytes.
        let ev = a.apply_uniform_wear(0, 0, 66.0 * 100.0);
        assert_eq!(ev.len(), FRAME_BYTES);
        assert_eq!(a.effective_capacity(0, 0), 0);
        // 1 of 8 frames dead.
        assert!((a.capacity_fraction() - 7.0 / 8.0).abs() < 1e-9);
    }

    #[test]
    fn frame_disabling_kills_whole_frame_on_first_fault() {
        let mut a = small_array(DisableGranularity::Frame);
        // Enough wear to kill exactly the whole frame's budget on one byte
        // share: per-byte share = 100 → every byte dies, but even one event
        // would disable the frame.
        let _ = a.apply_uniform_wear(2, 0, 66.0 * 100.0);
        assert_eq!(a.effective_capacity(2, 0), 0);
        assert!((a.capacity_fraction() - 7.0 / 8.0).abs() < 1e-9);
    }

    #[test]
    fn degrade_to_reaches_target() {
        let mut rng = StdRng::seed_from_u64(8);
        for g in [DisableGranularity::Byte, DisableGranularity::Frame] {
            let mut a = NvmArray::new(16, 4, &EnduranceModel::new(1e6, 0.2), g, &mut rng);
            a.degrade_to(0.8, &mut rng);
            assert!(a.capacity_fraction() <= 0.8);
            assert!(
                a.capacity_fraction() > 0.5,
                "overshot: {}",
                a.capacity_fraction()
            );
        }
    }

    #[test]
    fn fast_mod_matches_the_hardware_remainder() {
        let mut rng = StdRng::seed_from_u64(0xFA57);
        let divisors = (1..=2 * FRAME_BYTES as u64).chain([
            6144,
            49_152,
            1 << 32,
            (1 << 32) + 1,
            u64::MAX / 3,
            1 << 63,
            u64::MAX,
        ]);
        for d in divisors {
            let m = FastMod::new(d);
            let edges = [0, 1, d - 1, d, d.wrapping_add(1), u64::MAX, u64::MAX - 1];
            let draws = (0..2000).map(|_| rng.gen::<u64>()).collect::<Vec<_>>();
            for x in edges.into_iter().chain(draws) {
                assert_eq!(m.rem(x), x % d, "{x} % {d}");
            }
        }
        for (d, m) in LIVE_MODS.iter().enumerate().skip(1) {
            assert_eq!(m.d, d as u64);
        }
    }

    #[test]
    fn disabled_frame_absorbs_no_wear() {
        let mut a = small_array(DisableGranularity::Frame);
        let _ = a.apply_uniform_wear(0, 0, 66.0 * 100.0);
        assert!(a.apply_uniform_wear(0, 0, 1e12).is_empty());
    }
}
