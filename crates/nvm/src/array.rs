//! The NVM portion of the LLC data array.

use std::sync::{Arc, OnceLock};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::endurance::EnduranceModel;
use crate::fault_map::FRAME_BYTES;
use crate::frame::Frame;

/// An array's byte endurance limits: one lane of `[f64; FRAME_BYTES]` per
/// frame, in frame order, drawn from `StdRng::seed_from_u64(seed)` frame by
/// frame, byte 0 first, the first time anything reads a limit. Until then
/// the array holds only the model and the seed: the simulation never reads
/// a limit, so only the forecast's prediction steps pay for the draw.
/// Clones share a drawn lane through the [`Arc`].
#[derive(Clone, Debug)]
struct Limits {
    model: EnduranceModel,
    seed: u64,
    lane: OnceLock<Arc<[[f64; FRAME_BYTES]]>>,
}

impl Limits {
    /// The lane of `frames` frames, drawn on the first call.
    fn get(&self, frames: usize) -> &[[f64; FRAME_BYTES]] {
        self.lane.get_or_init(|| {
            let rng = &mut StdRng::seed_from_u64(self.seed);
            (0..frames)
                .map(|_| std::array::from_fn(|_| self.model.sample(rng) as f64))
                .collect()
        })
    }
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
#[expect(clippy::indexing_slicing, reason = "d <= FRAME_BYTES < mods.len()")]
const LIVE_MODS: [FastMod; FRAME_BYTES + 1] = {
    let mut mods = [FastMod::new(1); FRAME_BYTES + 1];
    let mut d = 1;
    while d <= FRAME_BYTES {
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

/// The NVM data array: `sets × ways` frames with per-byte wear state,
/// write accounting for the aging forecast, and a disabling policy.
///
/// # Example
///
/// ```
/// use hllc_nvm::{DisableGranularity, EnduranceModel, NvmArray};
///
/// let arr = NvmArray::new(16, 12, &EnduranceModel::paper_default(),
///                         DisableGranularity::Byte, 1);
/// assert_eq!(arr.capacity_fraction(), 1.0);
/// assert_eq!(arr.effective_capacity(0, 0), 66);
/// ```
#[derive(Clone, Debug)]
pub struct NvmArray {
    sets: usize,
    ways: usize,
    granularity: DisableGranularity,
    frames: Vec<Frame>,
    /// The frames' endurance limits, drawn when first read.
    limits: Limits,
    /// Effective capacity of each frame in bytes, in frame order: its
    /// live-byte count, or 0 once the frame is disabled. This is the only
    /// record of which frames are usable; every mutator that changes a
    /// fault map re-derives the frame's entry ([`settle`](Self::settle)),
    /// so way-selection sweeps read exact values from one contiguous lane.
    capacity: Vec<u8>,
    /// Bytes written per frame since the last `take_pending_writes`.
    pending_byte_writes: Vec<u64>,
}

impl NvmArray {
    /// Builds a pristine array of `sets × ways` frames whose byte
    /// endurances are drawn from `model` with `StdRng::seed_from_u64(seed)`,
    /// frame by frame in `set * ways + way` order, byte 0 first. The draw
    /// waits for the first read of a limit
    /// ([`endurance`](Self::endurance), [`live_remaining`](Self::live_remaining),
    /// [`record_write`](Self::record_write) or
    /// [`apply_uniform_wear`](Self::apply_uniform_wear)); an array that is
    /// only simulated, degraded or measured never draws.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn new(
        sets: usize,
        ways: usize,
        model: &EnduranceModel,
        granularity: DisableGranularity,
        seed: u64,
    ) -> Self {
        assert!(sets > 0 && ways > 0, "array must have at least one frame");
        let n = sets * ways;
        NvmArray {
            sets,
            ways,
            granularity,
            frames: vec![Frame::new(); n],
            limits: Limits {
                model: *model,
                seed,
                lane: OnceLock::new(),
            },
            capacity: vec![FRAME_BYTES as u8; n],
            pending_byte_writes: vec![0; n],
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
    #[expect(clippy::indexing_slicing, reason = "idx() < sets * ways = lane length")]
    pub fn frame(&self, set: usize, way: usize) -> &Frame {
        &self.frames[self.idx(set, way)]
    }

    /// A frame's byte endurance limits (drawing the array's limits if
    /// nothing has read them yet).
    #[expect(clippy::indexing_slicing, reason = "idx() < sets * ways = lane length")]
    pub fn endurance(&self, set: usize, way: usize) -> &[f64; FRAME_BYTES] {
        let i = self.idx(set, way);
        &self.limits.get(self.frames.len())[i]
    }

    /// A frame's [`Frame::live_remaining`]: the remaining writes of each
    /// live byte, in ascending byte order, at the front of `out`; returns
    /// their count.
    #[expect(clippy::indexing_slicing, reason = "idx() < sets * ways = lane length")]
    pub fn live_remaining(&self, set: usize, way: usize, out: &mut [f64; FRAME_BYTES]) -> usize {
        let i = self.idx(set, way);
        self.frames[i].live_remaining(&self.limits.get(self.frames.len())[i], out)
    }

    /// Re-derives frame `i`'s capacity entry after its fault map lost
    /// bytes, leaving `live` of them, under the disabling granularity:
    /// under frame disabling the first fault disables the frame, and a dead
    /// frame is disabled under either. A disabled frame stays disabled.
    #[expect(clippy::indexing_slicing, reason = "i < sets * ways = lane length")]
    fn settle(&mut self, i: usize, live: usize) {
        let usable = self.capacity[i] != 0
            && (self.granularity == DisableGranularity::Byte || live == FRAME_BYTES);
        // live <= FRAME_BYTES < 256.
        self.capacity[i] = if usable { live as u8 } else { 0 };
    }

    /// Effective capacity of a frame in bytes, under the array's disabling
    /// granularity: 0 for a disabled frame, otherwise the live-byte count.
    #[inline]
    #[expect(clippy::indexing_slicing, reason = "idx() < sets * ways = lane length")]
    pub fn effective_capacity(&self, set: usize, way: usize) -> usize {
        usize::from(self.capacity[self.idx(set, way)])
    }

    /// The contiguous effective-capacity lane of `set`, one byte per way —
    /// victim sweeps read this instead of querying each frame.
    #[inline]
    #[expect(clippy::indexing_slicing, reason = "base + ways <= sets * ways")]
    pub fn capacity_lane(&self, set: usize) -> &[u8] {
        assert!(set < self.sets, "set {set} out of range");
        let base = set * self.ways;
        &self.capacity[base..base + self.ways]
    }

    /// Accounts for one block write of `ecb_len` bytes into a frame.
    ///
    /// This is the fast accounting path used during simulation phases: wear
    /// is accumulated per frame and applied later by the forecast's
    /// prediction phase (`apply_uniform_wear`).
    #[inline]
    #[expect(clippy::indexing_slicing, reason = "idx() < sets * ways = lane length")]
    pub fn note_write(&mut self, set: usize, way: usize, ecb_len: usize) {
        let i = self.idx(set, way);
        debug_assert!(self.capacity[i] != 0, "writing a disabled frame");
        self.pending_byte_writes[i] += ecb_len as u64;
    }

    /// Drains the per-frame byte-write counters accumulated since the last
    /// call (simulation → prediction hand-off).
    pub fn take_pending_writes(&mut self) -> Vec<u64> {
        let mut out = vec![0; self.frames.len()];
        std::mem::swap(&mut out, &mut self.pending_byte_writes);
        out
    }

    /// Records one selective write into a frame with the given byte mask
    /// ([`Frame::record_write`]), honouring the disabling granularity.
    /// Returns the number of newly failed bytes (0 for a disabled frame,
    /// which absorbs no wear).
    #[expect(clippy::indexing_slicing, reason = "idx() < sets * ways = lane length")]
    pub fn record_write(&mut self, set: usize, way: usize, mask: u128) -> usize {
        let i = self.idx(set, way);
        if self.capacity[i] == 0 {
            return 0;
        }
        let limits = self.limits.get(self.frames.len());
        let failed = self.frames[i].record_write(&limits[i], mask);
        if failed > 0 {
            self.settle(i, self.frames[i].live_bytes());
        }
        failed
    }

    /// Applies `byte_writes` of uniformly-spread wear to a frame
    /// ([`Frame::apply_uniform_wear`]), honouring the disabling
    /// granularity. Returns the number of newly failed bytes (0 for a
    /// disabled frame, which absorbs no wear).
    #[expect(clippy::indexing_slicing, reason = "idx() < sets * ways = lane length")]
    pub fn apply_uniform_wear(&mut self, set: usize, way: usize, byte_writes: f64) -> usize {
        let i = self.idx(set, way);
        if self.capacity[i] == 0 {
            return 0;
        }
        let limits = self.limits.get(self.frames.len());
        let failed = self.frames[i].apply_uniform_wear(&limits[i], byte_writes);
        if failed > 0 {
            self.settle(i, self.frames[i].live_bytes());
        }
        failed
    }

    /// Marks byte `byte` of a frame faulty (fault injection), honouring
    /// the disabling granularity.
    ///
    /// # Panics
    ///
    /// Panics if `byte >= FRAME_BYTES`.
    #[expect(clippy::indexing_slicing, reason = "idx() < sets * ways = lane length")]
    pub fn disable_byte(&mut self, set: usize, way: usize, byte: usize) {
        let i = self.idx(set, way);
        self.frames[i].disable_byte(byte);
        self.settle(i, self.frames[i].live_bytes());
    }

    /// Administratively disables a whole frame (fault injection, tests,
    /// and the frame-disabling policies' reaction to tag-array faults).
    #[expect(clippy::indexing_slicing, reason = "idx() < sets * ways = lane length")]
    pub fn disable_frame(&mut self, set: usize, way: usize) {
        let i = self.idx(set, way);
        self.capacity[i] = 0;
    }

    /// True if the frame has been disabled: a dead frame, a frame with a
    /// fault under frame disabling, or one given to
    /// [`disable_frame`](Self::disable_frame).
    #[expect(clippy::indexing_slicing, reason = "idx() < sets * ways = lane length")]
    pub fn is_disabled(&self, set: usize, way: usize) -> bool {
        self.capacity[self.idx(set, way)] == 0
    }

    /// Bytes per capacity unit: one under byte disabling, a whole frame
    /// under frame disabling (where a usable frame has no faulty byte).
    fn unit_bytes(&self) -> usize {
        match self.granularity {
            DisableGranularity::Byte => 1,
            DisableGranularity::Frame => FRAME_BYTES,
        }
    }

    /// Capacity units of the whole array, usable or not — bytes under byte
    /// disabling, frames under frame disabling: the denominator of every
    /// capacity fraction.
    pub fn total_units(&self) -> usize {
        self.capacity.len() * FRAME_BYTES / self.unit_bytes()
    }

    /// Usable capacity units: the lane's bytes, in units.
    fn live_units(&self) -> usize {
        self.capacity.iter().map(|&c| usize::from(c)).sum::<usize>() / self.unit_bytes()
    }

    /// Fraction of the original capacity still usable:
    /// live bytes / total bytes under byte disabling, live frames / total
    /// frames under frame disabling.
    pub fn capacity_fraction(&self) -> f64 {
        self.live_units() as f64 / self.total_units() as f64
    }

    /// Artificially degrades the array until `capacity_fraction` is at most
    /// `target` by disabling the weakest bytes uniformly at random — used by
    /// the sensitivity harnesses (Figures 8a and 9) that study caches at
    /// 100/90/80/…% NVM capacity.
    ///
    /// Each step draws a frame and skips it if disabled; under byte
    /// disabling it then draws the index of one of the frame's live bytes,
    /// as `gen_range` would, and disables that byte, while under frame
    /// disabling it disables the frame. Both remainders are taken by
    /// multiplication (`FastMod`) and the byte is found by a
    /// constant-time select, so a step costs the same for any frame. The
    /// frame's live count is read from the capacity lane.
    #[expect(clippy::indexing_slicing, reason = "rem(x) is below its divisor")]
    pub fn degrade_to<R: Rng + ?Sized>(&mut self, target: f64, rng: &mut R) {
        assert!((0.0..=1.0).contains(&target), "target must be a fraction");
        let frames = FastMod::new(self.frames.len() as u64);
        let mut live = self.live_units();
        let target_live = (target * self.total_units() as f64).floor() as usize;
        while live > target_live {
            let i = frames.rem(rng.next_u64()) as usize;
            let in_frame = usize::from(self.capacity[i]);
            if in_frame == 0 {
                continue;
            }
            match self.granularity {
                DisableGranularity::Byte => {
                    // in_frame <= FRAME_BYTES; k < in_frame, the frame's
                    // live-byte count, so the select finds a byte.
                    let k = LIVE_MODS[in_frame].rem(rng.next_u64()) as usize;
                    let Some(b) = self.frames[i].fault_map().nth_live(k) else {
                        continue;
                    };
                    self.frames[i].disable_byte(b);
                    self.settle(i, in_frame - 1);
                }
                DisableGranularity::Frame => self.capacity[i] = 0,
            }
            live -= 1;
        }
    }

    /// Clears the pending byte-write counters (capacity state is kept).
    pub fn reset_write_stats(&mut self) {
        self.pending_byte_writes.iter_mut().for_each(|w| *w = 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_array(granularity: DisableGranularity) -> NvmArray {
        NvmArray::new(4, 2, &EnduranceModel::new(100.0, 0.0), granularity, 5)
    }

    #[test]
    fn fresh_array_full_capacity() {
        let a = small_array(DisableGranularity::Byte);
        assert_eq!(a.capacity_fraction(), 1.0);
        assert_eq!(a.capacity_lane(3), [66, 66]);
    }

    #[test]
    fn disable_byte_honours_the_granularity() {
        let mut a = small_array(DisableGranularity::Byte);
        a.disable_byte(0, 0, 3);
        a.disable_byte(0, 0, 3);
        assert_eq!(a.effective_capacity(0, 0), FRAME_BYTES - 1);
        for b in 0..FRAME_BYTES {
            a.disable_byte(0, 1, b);
        }
        assert!(a.is_disabled(0, 1), "a dead frame is disabled");
        let mut f = small_array(DisableGranularity::Frame);
        f.disable_byte(1, 1, 65);
        assert!(f.is_disabled(1, 1), "the first fault disables the frame");
        assert!((f.capacity_fraction() - 7.0 / 8.0).abs() < 1e-9);
    }

    #[test]
    fn note_write_accumulates_and_drains() {
        let mut a = small_array(DisableGranularity::Byte);
        a.note_write(0, 0, 30);
        a.note_write(0, 0, 36);
        a.note_write(1, 1, 10);
        let pending = a.take_pending_writes();
        assert_eq!(pending[0], 66);
        assert_eq!(pending[3], 10);
        assert!(a.take_pending_writes().iter().all(|&w| w == 0));
    }

    #[test]
    fn byte_disabling_degrades_gradually() {
        let mut a = small_array(DisableGranularity::Byte);
        // Uniform endurance 100: spreading 66*100 byte-writes kills all bytes.
        assert_eq!(a.apply_uniform_wear(0, 0, 66.0 * 100.0), FRAME_BYTES);
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
            let mut a = NvmArray::new(16, 4, &EnduranceModel::new(1e6, 0.2), g, 8);
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

    /// The limits `new` promises: `model`'s draws from the seeded RNG, in
    /// frame order, byte 0 first.
    fn drawn(sets: usize, ways: usize, model: &EnduranceModel, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..sets * ways * FRAME_BYTES)
            .map(|_| (model.sample(&mut rng) as f64).to_bits())
            .collect()
    }

    fn limits_of(a: &NvmArray) -> Vec<u64> {
        (0..a.sets() * a.ways())
            .flat_map(|f| *a.endurance(f / a.ways(), f % a.ways()))
            .map(f64::to_bits)
            .collect()
    }

    #[test]
    fn limits_are_drawn_at_the_first_read_only() {
        let model = EnduranceModel::new(1e6, 0.2);
        for g in [DisableGranularity::Byte, DisableGranularity::Frame] {
            let expected = drawn(8, 3, &model, 21);
            let mut a = NvmArray::new(8, 3, &model, g, 21);
            a.degrade_to(0.9, &mut StdRng::seed_from_u64(2));
            a.note_write(1, 2, 40);
            let _ = a.take_pending_writes();
            let _ = a.capacity_fraction();
            a.disable_byte(0, 0, 7);
            a.disable_frame(7, 2);
            assert!(a.limits.lane.get().is_none(), "{g:?}: drawn before a read");
            let copy = a.clone();

            // A first `&self` read, as `choose_step` makes, draws the same
            // lane as a first wear does.
            let mut remaining = [0.0; FRAME_BYTES];
            let live = a.live_remaining(0, 0, &mut remaining);
            assert_eq!(live, a.frame(0, 0).live_bytes());
            assert!(a.limits.lane.get().is_some());
            let mut worn = copy.clone();
            let _ = worn.apply_uniform_wear(3, 1, 1.0);
            let mut written = copy.clone();
            let _ = written.record_write(3, 1, 0b1);
            for drew in [&a, &worn, &written] {
                assert_eq!(limits_of(drew), expected, "{g:?}");
            }
            assert!(copy.limits.lane.get().is_none(), "clones draw apart");

            // A clone taken after the draw shares the lane.
            let shared = a.clone();
            let (x, y) = (a.limits.lane.get(), shared.limits.lane.get());
            assert!(matches!((x, y), (Some(x), Some(y)) if Arc::ptr_eq(x, y)));
        }
    }

    #[test]
    fn disabled_frame_absorbs_no_wear() {
        let mut a = small_array(DisableGranularity::Frame);
        let _ = a.apply_uniform_wear(0, 0, 66.0 * 100.0);
        assert_eq!(a.apply_uniform_wear(0, 0, 1e12), 0);
    }
}
