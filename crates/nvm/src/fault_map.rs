//! Per-frame byte fault maps (Figure 4).

use std::fmt;

/// Physical bytes per NVM frame: the 527-bit (527,516) code word occupies
/// 66 bytes, and the fault map holds one bit per byte — matching the paper's
/// 66-bit fault-map entries.
pub const FRAME_BYTES: usize = 66;

/// Number of `u64` words backing a fault map (`ceil(FRAME_BYTES / 64)`).
pub const FAULT_WORDS: usize = FRAME_BYTES.div_ceil(64);

/// Mask of the in-range bits of each backing word.
const WORD_MASKS: [u64; FAULT_WORDS] = [u64::MAX, (1u64 << (FRAME_BYTES - 64)) - 1];

/// `SELECT_IN_BYTE[b][r]`: the position of the `r`-th set bit (0-based) of
/// byte `b`, for `r` below its popcount.
#[expect(clippy::indexing_slicing, reason = "b < 256 and r <= bit < 8")]
const SELECT_IN_BYTE: [[u8; 8]; 256] = {
    let mut table = [[0u8; 8]; 256];
    let mut b = 0;
    while b < 256 {
        let (mut bit, mut r) = (0, 0);
        while bit < 8 {
            if b >> bit & 1 == 1 {
                table[b][r] = bit as u8;
                r += 1;
            }
            bit += 1;
        }
        b += 1;
    }
    table
};

/// The position of the `k`-th set bit (0-based) of `x`, or `Err` with the
/// popcount of `x` if it has at most `k` set bits — in constant time, by
/// broadword select (Vigna, "Broadword Implementation of Rank/Select
/// Queries", 2008). One multiply turns the per-byte popcounts into prefix
/// sums, a borrow-free byte-wise subtraction counts the bytes whose prefix
/// is at most `k` (which names the byte holding the bit), and a table
/// finishes inside that byte.
#[inline]
#[expect(clippy::indexing_slicing, reason = "in_byte < 256, k - before < 8")]
fn select64(x: u64, k: usize) -> Result<usize, usize> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    let mut s = x - ((x >> 1) & 0x5555_5555_5555_5555);
    s = (s & 0x3333_3333_3333_3333) + ((s >> 2) & 0x3333_3333_3333_3333);
    s = (s + (s >> 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    // Byte i of `prefix` counts the set bits of bytes 0..=i (at most 64).
    let prefix = s.wrapping_mul(ONES);
    let ones = (prefix >> 56) as usize;
    if k >= ones {
        return Err(ones);
    }
    // Byte i of `(k | 0x80) - prefix_i` keeps its high bit iff
    // prefix_i <= k; as k < 64 every byte stays positive and none
    // borrows. Since k < prefix_7, at most seven bytes qualify and `byte`
    // is at most 56.
    let k = k as u64;
    let byte = ((((k * ONES) | HIGHS) - prefix) & HIGHS).count_ones() * 8;
    let before = ((prefix << 8) >> byte) & 0xFF;
    let in_byte = (x >> byte) & 0xFF;
    // in_byte < 256 and k - before < popcount(in_byte) <= 8.
    let bit = SELECT_IN_BYTE[in_byte as usize][(k - before) as usize];
    Ok(byte as usize + usize::from(bit))
}

/// A 66-bit fault map for one NVM frame: bit `i` set means byte `i` has a
/// hard fault and is disabled.
///
/// The map is packed into [`FAULT_WORDS`] `u64` words so fault counting is
/// a popcount per word and live-byte iteration consumes whole words via
/// `trailing_zeros`, instead of testing all 66 positions one by one.
///
/// # Example
///
/// ```
/// use hllc_nvm::{FaultMap, FRAME_BYTES};
///
/// let mut fm = FaultMap::new();
/// assert_eq!(fm.live_bytes(), FRAME_BYTES);
/// fm.mark_faulty(10);
/// assert!(fm.is_faulty(10));
/// assert_eq!(fm.live_bytes(), FRAME_BYTES - 1);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultMap {
    words: [u64; FAULT_WORDS],
}

impl FaultMap {
    /// A fully functional frame (no faulty bytes).
    pub fn new() -> Self {
        FaultMap {
            words: [0; FAULT_WORDS],
        }
    }

    /// Builds a fault map from an iterator of faulty byte indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= FRAME_BYTES`.
    pub fn from_faulty<I: IntoIterator<Item = usize>>(faulty: I) -> Self {
        let mut fm = FaultMap::new();
        for i in faulty {
            fm.mark_faulty(i);
        }
        fm
    }

    /// True if byte `i` is faulty.
    ///
    /// # Panics
    ///
    /// Panics if `i >= FRAME_BYTES`.
    #[inline]
    #[expect(clippy::indexing_slicing, reason = "i < FRAME_BYTES, so i >> 6 < 2")]
    pub fn is_faulty(&self, i: usize) -> bool {
        assert!(i < FRAME_BYTES, "byte index {i} out of range");
        self.words[i >> 6] >> (i & 63) & 1 == 1
    }

    /// Marks byte `i` faulty (idempotent).
    ///
    /// # Panics
    ///
    /// Panics if `i >= FRAME_BYTES`.
    #[inline]
    #[expect(clippy::indexing_slicing, reason = "i < FRAME_BYTES, so i >> 6 < 2")]
    pub fn mark_faulty(&mut self, i: usize) {
        assert!(i < FRAME_BYTES, "byte index {i} out of range");
        self.words[i >> 6] |= 1 << (i & 63);
    }

    /// Number of non-faulty bytes — the frame's effective capacity for an
    /// extended compressed block. One popcount per backing word.
    #[inline]
    pub fn live_bytes(&self) -> usize {
        FRAME_BYTES - self.faulty_bytes()
    }

    /// Number of faulty bytes (popcount over the packed words).
    #[inline]
    pub fn faulty_bytes(&self) -> usize {
        self.words
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum::<usize>()
    }

    /// True if every byte is dead.
    #[inline]
    pub fn is_dead(&self) -> bool {
        self.live_bytes() == 0
    }

    /// The packed fault words (bit set = faulty); bits at and above
    /// [`FRAME_BYTES`] are always zero.
    #[inline]
    pub fn words(&self) -> [u64; FAULT_WORDS] {
        self.words
    }

    /// The packed *live* words (bit set = usable byte), complementing
    /// [`words`](Self::words) within the frame range.
    #[inline]
    #[expect(clippy::indexing_slicing, reason = "w < FAULT_WORDS = every length")]
    pub fn live_words(&self) -> [u64; FAULT_WORDS] {
        let mut live = [0u64; FAULT_WORDS];
        for (w, l) in live.iter_mut().enumerate() {
            *l = !self.words[w] & WORD_MASKS[w];
        }
        live
    }

    /// The `k`-th live byte in ascending order (0-based), as
    /// `live_indices().nth(k)` would yield it, found by a constant-time
    /// select on the packed live words. `None` if at most `k` bytes are
    /// live.
    pub(crate) fn nth_live(&self, k: usize) -> Option<usize> {
        let mut k = k;
        for (w, &word) in self.live_words().iter().enumerate() {
            match select64(word, k) {
                Ok(bit) => return Some(w * 64 + bit),
                Err(ones) => k -= ones,
            }
        }
        None
    }

    /// Iterator over live (non-faulty) byte indices in ascending order.
    pub fn live_indices(&self) -> LiveIndices {
        self.live_indices_from(0)
    }

    /// Iterator over live byte indices starting at `offset` (taken modulo
    /// [`FRAME_BYTES`]) and wrapping around — the circular scan order of
    /// the rearrangement circuitry. Word-granular: each step pops the next
    /// set bit of the live mask via `trailing_zeros`.
    #[expect(clippy::indexing_slicing, reason = "w < FAULT_WORDS = every length")]
    pub fn live_indices_from(&self, offset: usize) -> LiveIndices {
        let offset = offset % FRAME_BYTES;
        let live = self.live_words();
        // Split the live mask into [offset..FRAME_BYTES) and [0..offset):
        // ascending iteration of the first then the second reproduces the
        // circular scan.
        let mut head = [0u64; FAULT_WORDS];
        let mut tail = [0u64; FAULT_WORDS];
        for w in 0..FAULT_WORDS {
            let lo = w * 64;
            let from_offset = if offset <= lo {
                u64::MAX
            } else if offset - lo >= 64 {
                0
            } else {
                u64::MAX << (offset - lo)
            };
            head[w] = live[w] & from_offset;
            tail[w] = live[w] & !from_offset;
        }
        LiveIndices {
            segments: [head, tail],
            segment: 0,
        }
    }

    /// Raw 66-bit map (bit set = faulty).
    #[inline]
    pub fn raw(&self) -> u128 {
        u128::from(self.words[0]) | u128::from(self.words[1]) << 64
    }
}

/// Word-granular iterator over live byte positions (see
/// [`FaultMap::live_indices_from`]).
#[derive(Clone, Debug)]
pub struct LiveIndices {
    segments: [[u64; FAULT_WORDS]; 2],
    segment: usize,
}

impl Iterator for LiveIndices {
    type Item = usize;

    #[expect(clippy::indexing_slicing, reason = "segment < 2 == segments.len()")]
    fn next(&mut self) -> Option<usize> {
        while self.segment < 2 {
            let words = &mut self.segments[self.segment];
            for (w, word) in words.iter_mut().enumerate() {
                if *word != 0 {
                    let bit = word.trailing_zeros() as usize;
                    *word &= *word - 1;
                    return Some(w * 64 + bit);
                }
            }
            self.segment += 1;
        }
        None
    }
}

impl Default for FaultMap {
    fn default() -> Self {
        FaultMap::new()
    }
}

impl fmt::Debug for FaultMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FaultMap(live={}/{}", self.live_bytes(), FRAME_BYTES)?;
        if self.faulty_bytes() > 0 {
            write!(f, ", faulty=[")?;
            let mut first = true;
            for i in 0..FRAME_BYTES {
                if self.is_faulty(i) {
                    if !first {
                        write!(f, ",")?;
                    }
                    write!(f, "{i}")?;
                    first = false;
                }
            }
            write!(f, "]")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_map_is_fully_live() {
        let fm = FaultMap::new();
        assert_eq!(fm.live_bytes(), 66);
        assert_eq!(fm.faulty_bytes(), 0);
        assert!(!fm.is_dead());
        assert_eq!(fm.live_indices().count(), 66);
    }

    #[test]
    fn marking_is_idempotent() {
        let mut fm = FaultMap::new();
        fm.mark_faulty(65);
        fm.mark_faulty(65);
        assert_eq!(fm.faulty_bytes(), 1);
        assert!(fm.is_faulty(65));
    }

    #[test]
    fn from_faulty_collects() {
        let fm = FaultMap::from_faulty([0, 1, 65]);
        assert_eq!(fm.live_bytes(), 63);
        assert_eq!(fm.live_indices().next(), Some(2));
    }

    #[test]
    fn fully_dead() {
        let fm = FaultMap::from_faulty(0..FRAME_BYTES);
        assert!(fm.is_dead());
        assert_eq!(fm.live_indices().count(), 0);
    }

    #[test]
    fn words_and_raw_agree() {
        let fm = FaultMap::from_faulty([0, 63, 64, 65]);
        let words = fm.words();
        assert_eq!(words[0], 1 | 1 << 63);
        assert_eq!(words[1], 0b11);
        assert_eq!(fm.raw(), u128::from(words[0]) | u128::from(words[1]) << 64);
        let live = fm.live_words();
        assert_eq!(live[0], !words[0]);
        assert_eq!(live[1], 0);
        assert_eq!(
            (live[0].count_ones() + live[1].count_ones()) as usize,
            fm.live_bytes()
        );
    }

    #[test]
    fn live_indices_from_wraps_circularly() {
        let fm = FaultMap::from_faulty([2, 5, 64]);
        // Offset 3: scan 3,4,(5 faulty),6..63,(64 faulty),65 then 0,1,(2),..
        let order: Vec<usize> = fm.live_indices_from(3).collect();
        assert_eq!(order.len(), fm.live_bytes());
        assert_eq!(&order[..4], &[3, 4, 6, 7]);
        assert_eq!(order[order.len() - 3..], [65, 0, 1]);
        // Offsets beyond the frame wrap modulo FRAME_BYTES.
        let wrapped: Vec<usize> = fm.live_indices_from(3 + FRAME_BYTES).collect();
        assert_eq!(order, wrapped);
        // Offset in the second word starts there.
        assert_eq!(fm.live_indices_from(65).next(), Some(65));
    }

    /// The select against `live_indices().nth(k)` for every `k`, on a fixed
    /// map and on random maps whose words are each empty, full, or random
    /// at a random density — the top word holds only bytes 64 and 65.
    #[test]
    fn nth_live_selects_like_live_indices() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let fixed = FaultMap::from_faulty([0, 2, 5, 63, 64]);
        let mut rng = StdRng::seed_from_u64(0x5E1E_C7ED);
        let random = (0..20_000).map(|_| {
            let mut word = |mask: u64| -> u64 {
                match rng.gen_range(0..4) {
                    0 => 0,
                    1 => mask,
                    2 => rng.gen::<u64>() & mask,
                    // Sparse or dense: AND or OR of several draws.
                    _ => {
                        let (a, b, c): (u64, u64, u64) = (rng.gen(), rng.gen(), rng.gen());
                        if rng.gen() {
                            a & b & c & mask
                        } else {
                            (a | b | c) & mask
                        }
                    }
                }
            };
            FaultMap {
                words: [word(WORD_MASKS[0]), word(WORD_MASKS[1])],
            }
        });
        for fm in std::iter::once(fixed).chain(random) {
            let live: Vec<usize> = fm.live_indices().collect();
            for k in 0..=FRAME_BYTES {
                assert_eq!(fm.nth_live(k), live.get(k).copied(), "{fm:?} k = {k}");
            }
        }
        assert_eq!(FaultMap::from_faulty(0..FRAME_BYTES).nth_live(0), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        FaultMap::new().mark_faulty(66);
    }
}
