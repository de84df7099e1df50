//! The BDI compressor and decompressor.
//!
//! Hardware evaluates all compression encodings in parallel and picks the
//! smallest applicable one (§II-B); this software model gathers the same
//! information in a single pass over the block: one sweep computes the
//! zero/repeated flags and the min/max signed delta against lane 0 for every
//! base width, from which the minimal delta width per base — and therefore
//! the unique smallest encoding (Table I sizes are all distinct) — follows
//! arithmetically. Decompression is exact: `decompress(compress(b)) == b`
//! for every 64-byte block.
//!
//! Nothing in this module allocates: [`Compressor::probe`] works from the
//! raw bytes alone, and [`CompressedBlock`] stores its payload inline.

use crate::block::{le_bytes, Block, BLOCK_SIZE};
use crate::encoding::Encoding;

/// A compressed cache block: the chosen encoding plus its payload bytes.
///
/// The payload layout is `base || delta_1 || ... || delta_{lanes-1}` with
/// little-endian bases and little-endian two's-complement deltas, matching
/// [`Encoding::compressed_size`] exactly. The payload is stored inline (the
/// unused tail is zero), so compressing never touches the heap.
///
/// # Example
///
/// ```
/// use hllc_compress::{Block, Compressor};
///
/// let block = Block::from_u64_lanes([100, 101, 102, 103, 104, 105, 106, 107]);
/// let cb = Compressor::new().compress(&block);
/// assert_eq!(cb.size(), 15); // B8Δ1
/// assert_eq!(cb.decompress(), block);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompressedBlock {
    encoding: Encoding,
    payload: [u8; BLOCK_SIZE],
}

impl CompressedBlock {
    /// The encoding this block was compressed with.
    pub fn encoding(&self) -> Encoding {
        self.encoding
    }

    /// Compressed block (CB) size in bytes.
    pub fn size(&self) -> u8 {
        self.encoding.compressed_size()
    }

    /// Extended compressed block (ECB) size in bytes: CB plus the 4-bit CE
    /// and the 11-bit SECDED code, rounded up to whole bytes (§III-B1).
    pub fn ecb_size(&self) -> u8 {
        ecb_size(self.encoding.compressed_size())
    }

    /// The raw payload bytes (base followed by deltas).
    #[expect(clippy::indexing_slicing, reason = "compressed_size() <= 64")]
    pub fn payload(&self) -> &[u8] {
        &self.payload[..self.encoding.compressed_size() as usize]
    }

    /// Reconstructs the original 64-byte block.
    pub fn decompress(&self) -> Block {
        match self.encoding {
            Encoding::Zeros => Block::zeroed(),
            Encoding::Repeated => {
                let v = u64::from_le_bytes(le_bytes(&self.payload, 0));
                Block::from_u64_lanes([v; 8])
            }
            Encoding::Uncompressed => Block::new(self.payload),
            e @ (Encoding::B8D1
            | Encoding::B8D2
            | Encoding::B8D3
            | Encoding::B8D4
            | Encoding::B8D5
            | Encoding::B8D6
            | Encoding::B8D7
            | Encoding::B4D1
            | Encoding::B4D2
            | Encoding::B4D3
            | Encoding::B2D1) => decompress_base_delta(e, self.payload()),
        }
    }

    /// Reassembles a `CompressedBlock` from an encoding and payload bytes,
    /// e.g. after reading an ECB back from an NVM frame.
    ///
    /// Returns `None` if the payload length does not match the encoding.
    #[expect(clippy::indexing_slicing, reason = "payload.len() == CB size <= 64")]
    pub fn from_parts(encoding: Encoding, payload: &[u8]) -> Option<Self> {
        if payload.len() == encoding.compressed_size() as usize {
            let mut inline = [0u8; BLOCK_SIZE];
            inline[..payload.len()].copy_from_slice(payload);
            Some(CompressedBlock {
                encoding,
                payload: inline,
            })
        } else {
            None
        }
    }
}

/// Extended-compressed-block size for a CB of `cb_size` bytes: the CB plus
/// 4 CE bits plus 11 SECDED bits, i.e. `cb_size + 2` whole bytes.
pub(crate) fn ecb_size(cb_size: u8) -> u8 {
    cb_size + 2
}

/// The modified BDI compressor (Table I).
///
/// Stateless; `Compressor` exists as a type so callers can later swap in a
/// different compression mechanism — the paper notes the insertion policies
/// are orthogonal to the compressor.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Compressor;

/// The B8 encodings indexed by `delta_width - 1`.
const B8_BY_WIDTH: [Encoding; 7] = [
    Encoding::B8D1,
    Encoding::B8D2,
    Encoding::B8D3,
    Encoding::B8D4,
    Encoding::B8D5,
    Encoding::B8D6,
    Encoding::B8D7,
];

/// The B4 encodings indexed by `delta_width - 1`.
const B4_BY_WIDTH: [Encoding; 3] = [Encoding::B4D1, Encoding::B4D2, Encoding::B4D3];

impl Compressor {
    /// Creates a compressor.
    pub fn new() -> Self {
        Compressor
    }

    /// Compresses a block, choosing the smallest applicable encoding.
    ///
    /// The encoding comes from [`probe`](Self::probe); this method only adds
    /// the payload materialization, writing base and deltas straight into
    /// the inline buffer.
    pub fn compress(&self, block: &Block) -> CompressedBlock {
        let encoding = self.probe(block.bytes());
        let mut payload = [0u8; BLOCK_SIZE];
        match encoding {
            Encoding::Zeros => {}
            Encoding::Repeated => payload[..8].copy_from_slice(&block.bytes()[..8]),
            Encoding::Uncompressed => payload.copy_from_slice(block.bytes()),
            e @ (Encoding::B8D1
            | Encoding::B8D2
            | Encoding::B8D3
            | Encoding::B8D4
            | Encoding::B8D5
            | Encoding::B8D6
            | Encoding::B8D7
            | Encoding::B4D1
            | Encoding::B4D2
            | Encoding::B4D3
            | Encoding::B2D1) => encode_base_delta(e, block, &mut payload),
        }
        CompressedBlock { encoding, payload }
    }

    /// Returns only the compressed size in bytes — the fast path used by the
    /// insertion engine, which needs the size before deciding where (and
    /// whether) to materialize the compressed payload.
    pub fn compressed_size(&self, block: &Block) -> u8 {
        self.probe(block.bytes()).compressed_size()
    }

    /// The one-pass size probe: determines the best encoding from the raw
    /// bytes alone, without materializing a payload.
    ///
    /// A single sweep over the eight 64-bit lanes computes everything every
    /// encoding's applicability test needs — the OR of all lanes (zero
    /// check), whether every lane equals lane 0 (repeated check), and the
    /// min/max signed delta against lane 0 for the 8-, 4-, and 2-byte
    /// groupings (the narrower lanes are carved out of the same loaded
    /// words). The minimal delta width per base follows from the ranges, and
    /// because Table I sizes are pairwise distinct the smallest applicable
    /// encoding is unique, so this equals the exhaustive per-encoding
    /// search (proven by property test).
    #[expect(clippy::indexing_slicing, reason = "d8 in 1..=7, d4 in 1..=3 there")]
    pub fn probe(&self, bytes: &[u8; BLOCK_SIZE]) -> Encoding {
        let mut lanes = [0u64; 8];
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = u64::from_le_bytes(le_bytes(bytes, i * 8));
        }

        let first = lanes[0];
        let base8 = first as i64;
        let base4 = i64::from(first as u32 as i32);
        let base2 = i64::from(first as u16 as i16);

        let mut any_bits = 0u64;
        let mut repeated = true;
        let (mut min8, mut max8) = (0i64, 0i64);
        let (mut min4, mut max4) = (0i64, 0i64);
        let (mut min2, mut max2) = (0i64, 0i64);

        for (i, &lane) in lanes.iter().enumerate() {
            any_bits |= lane;
            if i > 0 {
                repeated &= lane == first;
                let d = (lane as i64).wrapping_sub(base8);
                min8 = min8.min(d);
                max8 = max8.max(d);
            }
            for j in 0..2 {
                if i == 0 && j == 0 {
                    continue;
                }
                let d = i64::from((lane >> (32 * j)) as u32 as i32) - base4;
                min4 = min4.min(d);
                max4 = max4.max(d);
            }
            for j in 0..4 {
                if i == 0 && j == 0 {
                    continue;
                }
                let d = i64::from((lane >> (16 * j)) as u16 as i16) - base2;
                min2 = min2.min(d);
                max2 = max2.max(d);
            }
        }

        if any_bits == 0 {
            return Encoding::Zeros;
        }

        let mut best = Encoding::Uncompressed;
        if repeated {
            best = smaller(best, Encoding::Repeated);
        }
        let d8 = min_delta_width(min8, max8);
        if d8 <= 7 {
            best = smaller(best, B8_BY_WIDTH[usize::from(d8) - 1]);
        }
        let d4 = min_delta_width(min4, max4);
        if d4 <= 3 {
            best = smaller(best, B4_BY_WIDTH[usize::from(d4) - 1]);
        }
        if min_delta_width(min2, max2) == 1 {
            best = smaller(best, Encoding::B2D1);
        }
        best
    }
}

/// The smaller-CB of two encodings (sizes are distinct, so no tie exists).
fn smaller(a: Encoding, b: Encoding) -> Encoding {
    if b.compressed_size() < a.compressed_size() {
        b
    } else {
        a
    }
}

/// Smallest signed byte width (1..=8) whose two's-complement range
/// `[-(1 << (8w - 1)), (1 << (8w - 1)) - 1]` contains `[min, max]`.
fn min_delta_width(min: i64, max: i64) -> u8 {
    let mut w = 1u8;
    while w < 8 {
        let hi = (1i64 << (8 * w - 1)) - 1;
        if min >= -hi - 1 && max <= hi {
            break;
        }
        w += 1;
    }
    w
}

/// Writes `base || deltas` for a base/delta encoding into `out` without any
/// intermediate lane buffer: each lane is read from the block bytes, its
/// delta computed, and the truncated little-endian bytes stored directly.
#[expect(clippy::indexing_slicing, reason = "base_w <= 8, off + delta_w <= 64")]
fn encode_base_delta(encoding: Encoding, block: &Block, out: &mut [u8; BLOCK_SIZE]) {
    let (Some(base_w), Some(delta_w)) = (encoding.base_width(), encoding.delta_width()) else {
        debug_assert!(false, "encode_base_delta only sees base/delta encodings");
        return;
    };
    let (base_w, delta_w) = (base_w as usize, delta_w as usize);
    let bytes = block.bytes();
    out[..base_w].copy_from_slice(&bytes[..base_w]);
    let base = read_lane(bytes, 0, base_w);
    let mut off = base_w;
    for lane in 1..BLOCK_SIZE / base_w {
        let d = read_lane(bytes, lane, base_w).wrapping_sub(base);
        out[off..off + delta_w].copy_from_slice(&d.to_le_bytes()[..delta_w]);
        off += delta_w;
    }
}

/// Reads lane `lane` of width `width` from `bytes`, sign-extended to i64.
fn read_lane(bytes: &[u8; BLOCK_SIZE], lane: usize, width: usize) -> i64 {
    let off = lane * width;
    match width {
        8 => i64::from_le_bytes(le_bytes(bytes, off)),
        4 => i64::from(i32::from_le_bytes(le_bytes(bytes, off))),
        2 => i64::from(i16::from_le_bytes(le_bytes(bytes, off))),
        _ => {
            debug_assert!(false, "lane widths are 2, 4, or 8");
            0
        }
    }
}

#[expect(clippy::indexing_slicing, reason = "payload holds the encoding's CB")]
fn decompress_base_delta(encoding: Encoding, payload: &[u8]) -> Block {
    let (Some(base_w), Some(delta_w)) = (encoding.base_width(), encoding.delta_width()) else {
        debug_assert!(
            false,
            "decompress_base_delta only sees base/delta encodings"
        );
        return Block::zeroed();
    };
    let (base_w, delta_w) = (base_w as usize, delta_w as usize);
    let n_lanes = BLOCK_SIZE / base_w;

    let mut base_bytes = [0u8; 8];
    base_bytes[..base_w].copy_from_slice(&payload[..base_w]);
    // Sign-extend the base to i64 according to its width.
    let base = match base_w {
        4 => i64::from(u32::from_le_bytes(le_bytes(&base_bytes, 0)) as i32),
        2 => i64::from(u16::from_le_bytes(le_bytes(&base_bytes, 0)) as i16),
        w => {
            debug_assert_eq!(w, 8, "base widths are 2, 4, or 8");
            u64::from_le_bytes(base_bytes) as i64
        }
    };

    let mut lanes = [0i64; BLOCK_SIZE / 2];
    lanes[0] = base;
    let mut off = base_w;
    // n_lanes = BLOCK_SIZE / base_w <= BLOCK_SIZE / 2 == lanes.len().
    for lane in lanes[1..n_lanes].iter_mut() {
        let mut d_bytes = [0u8; 8];
        d_bytes[..delta_w].copy_from_slice(&payload[off..off + delta_w]);
        // Sign-extend the delta.
        let shift = 64 - 8 * delta_w;
        let d = (i64::from_le_bytes(d_bytes) << shift) >> shift;
        *lane = base.wrapping_add(d);
        off += delta_w;
    }

    match base_w {
        // from_fn's i < lane count (8/16/32) <= lanes.len() == 32.
        8 => Block::from_u64_lanes(core::array::from_fn(|i| lanes[i] as u64)),
        4 => Block::from_u32_lanes(core::array::from_fn(|i| lanes[i] as u32)),
        w => {
            debug_assert_eq!(w, 2, "base widths are 2, 4, or 8");
            Block::from_u16_lanes(core::array::from_fn(|i| lanes[i] as u16))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(block: Block) -> Encoding {
        let cb = Compressor::new().compress(&block);
        assert_eq!(cb.decompress(), block, "round trip failed for {block:?}");
        cb.encoding()
    }

    /// The pre-probe oracle: per-encoding applicability by re-scanning the
    /// block, exactly as the original multi-pass implementation did. The
    /// probe must agree with an exhaustive minimum-size search over this.
    fn applies(encoding: Encoding, block: &Block) -> bool {
        fn fits<const N: usize>(lanes: &[i64; N], min: i64, max: i64) -> bool {
            let base = lanes[0];
            lanes[1..]
                .iter()
                .all(|&v| matches!(v.wrapping_sub(base), d if d >= min && d <= max))
        }
        let (Some(base), Some(delta)) = (encoding.base_width(), encoding.delta_width()) else {
            let lanes = block.u64_lanes();
            return encoding == Encoding::Uncompressed
                || (encoding == Encoding::Zeros && block.is_zero())
                || (encoding == Encoding::Repeated && lanes.iter().all(|&v| v == lanes[0]));
        };
        let max = (1i64 << (8 * delta - 1)) - 1;
        let min = -(1i64 << (8 * delta - 1));
        match base {
            8 => fits::<8>(&block.u64_lanes().map(|v| v as i64), min, max),
            4 => fits::<16>(&block.u32_lanes().map(|v| i64::from(v as i32)), min, max),
            // The one other base width, 2.
            _ => fits::<32>(&block.u16_lanes().map(|v| i64::from(v as i16)), min, max),
        }
    }

    /// Exhaustive minimum-size search over the oracle.
    fn oracle_best(block: &Block) -> Encoding {
        let mut best = Encoding::Uncompressed;
        for e in Encoding::ALL {
            if e.compressed_size() < best.compressed_size() && applies(e, block) {
                best = e;
            }
        }
        best
    }

    #[test]
    fn probe_agrees_with_exhaustive_search() {
        let c = Compressor::new();
        let mut x: u64 = 0x9e3779b97f4a7c15;
        for round in 0..2000u64 {
            let mut bytes = [0u8; 64];
            for b in bytes.iter_mut() {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *b = (x >> 56) as u8;
            }
            // Alternate raw noise with clustered variants that actually
            // exercise the base/delta encodings.
            if round % 2 == 1 {
                let spread = 1u64 << (round % 60);
                let base = x;
                let lanes: [u64; 8] =
                    core::array::from_fn(|i| base.wrapping_add((x >> (i * 7)) % spread.max(2)));
                bytes = *Block::from_u64_lanes(lanes).bytes();
            }
            let block = Block::new(bytes);
            assert_eq!(
                c.probe(block.bytes()),
                oracle_best(&block),
                "probe diverged on {block:?}"
            );
        }
        // The structured corners.
        for block in [
            Block::zeroed(),
            Block::from_u64_lanes([u64::MAX; 8]),
            Block::from_u64_lanes([i64::MIN as u64, i64::MAX as u64, 0, 1, 2, 3, 4, 5]),
        ] {
            assert_eq!(c.probe(block.bytes()), oracle_best(&block));
        }
    }

    #[test]
    fn zeros() {
        assert_eq!(round_trip(Block::zeroed()), Encoding::Zeros);
    }

    #[test]
    fn repeated() {
        assert_eq!(
            round_trip(Block::from_u64_lanes([0xdead_beef_cafe_f00d; 8])),
            Encoding::Repeated
        );
    }

    #[test]
    fn b8d1() {
        let b = Block::from_u64_lanes([1000, 1001, 999, 1127, 1000 - 128, 1000, 1000, 1000]);
        assert_eq!(round_trip(b), Encoding::B8D1);
    }

    #[test]
    fn b8d1_boundary_deltas() {
        // +127 and -128 are the extreme 1-byte deltas; +128 must spill to Δ2.
        let inside = Block::from_u64_lanes([0, 127, (-128i64) as u64, 0, 0, 0, 0, 0]);
        // Note: the all-zeros block would win; shift base so Zeros/Rep do not apply.
        let inside = Block::from_u64_lanes(inside.u64_lanes().map(|v| v.wrapping_add(5000)));
        assert_eq!(round_trip(inside), Encoding::B8D1);

        let outside = Block::from_u64_lanes([5000, 5128, 5000, 5001, 5002, 5003, 5004, 5005]);
        assert_eq!(round_trip(outside), Encoding::B8D2);
    }

    #[test]
    fn all_delta_widths_reachable() {
        // Construct blocks whose max delta needs exactly d bytes.
        for (d, expect) in [
            (1u32, Encoding::B8D1),
            (2, Encoding::B8D2),
            (3, Encoding::B8D3),
            (4, Encoding::B8D4),
            (5, Encoding::B8D5),
            (6, Encoding::B8D6),
            (7, Encoding::B8D7),
        ] {
            let delta = 1u64 << (8 * (d - 1) + 6); // needs d bytes signed
            let base = 0x0100_0000_0000_0000u64;
            let mut lanes = [base; 8];
            lanes[3] = base + delta;
            // Vary another lane so Repeated never applies.
            lanes[5] = base + 1;
            assert_eq!(
                round_trip(Block::from_u64_lanes(lanes)),
                expect,
                "delta width {d}"
            );
        }
    }

    #[test]
    fn b4_variants() {
        // Perturb the *high* u32 of a u64 lane so the B8 groupings see a huge
        // delta and the B4 encodings genuinely win on size.
        let mut lanes = [0x7000_0000u32; 16];
        lanes[3] = 0x7000_0001;
        assert_eq!(round_trip(Block::from_u32_lanes(lanes)), Encoding::B4D1);
        lanes[3] = 0x7000_4000;
        assert_eq!(round_trip(Block::from_u32_lanes(lanes)), Encoding::B4D2);
        lanes[3] = 0x7040_0000;
        assert_eq!(round_trip(Block::from_u32_lanes(lanes)), Encoding::B4D3);
    }

    #[test]
    fn b2d1() {
        let mut lanes = [0x4000u16; 32];
        lanes[7] = 0x4001;
        lanes[8] = 0x3FFF;
        assert_eq!(round_trip(Block::from_u16_lanes(lanes)), Encoding::B2D1);
    }

    #[test]
    fn incompressible() {
        // High-entropy-looking bytes: wide 2-, 4-, and 8-byte spreads.
        let mut bytes = [0u8; 64];
        let mut x: u64 = 0x9e3779b97f4a7c15;
        for b in bytes.iter_mut() {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *b = (x >> 33) as u8;
        }
        assert_eq!(round_trip(Block::new(bytes)), Encoding::Uncompressed);
    }

    #[test]
    fn smaller_encoding_preferred() {
        // A block that is both B4Δ1 (19 B) and B8Δ4-compatible must pick B4Δ1.
        let lanes = [0x10u32; 16];
        let mut lanes = lanes;
        lanes[1] = 0x11;
        let cb = Compressor::new().compress(&Block::from_u32_lanes(lanes));
        assert_eq!(cb.encoding(), Encoding::B4D1);
    }

    #[test]
    fn ecb_adds_two_bytes() {
        let cb = Compressor::new().compress(&Block::zeroed());
        assert_eq!(cb.ecb_size(), cb.size() + 2);
    }

    #[test]
    fn from_parts_validates_length() {
        assert!(CompressedBlock::from_parts(Encoding::Zeros, &[0]).is_some());
        assert!(CompressedBlock::from_parts(Encoding::Zeros, &[0, 0]).is_none());
    }

    #[test]
    fn payload_length_matches_encoding() {
        let c = Compressor::new();
        let cb = c.compress(&Block::from_u64_lanes([5000, 5001, 5002, 5003, 5, 6, 7, 8]));
        assert_eq!(cb.payload().len(), cb.size() as usize);
    }

    #[test]
    fn compressed_size_matches_compress() {
        let c = Compressor::new();
        for seed in 0..50u64 {
            let mut bytes = [0u8; 64];
            let mut x = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
            for b in bytes.iter_mut() {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *b = (x >> 56) as u8;
            }
            let blk = Block::new(bytes);
            assert_eq!(c.compressed_size(&blk), c.compress(&blk).size());
        }
    }

    #[test]
    fn min_delta_width_boundaries() {
        assert_eq!(min_delta_width(0, 0), 1);
        assert_eq!(min_delta_width(-128, 127), 1);
        assert_eq!(min_delta_width(-129, 0), 2);
        assert_eq!(min_delta_width(0, 128), 2);
        assert_eq!(min_delta_width(i64::MIN, i64::MAX), 8);
        for w in 1..=7u8 {
            let hi = (1i64 << (8 * w - 1)) - 1;
            assert_eq!(min_delta_width(-hi - 1, hi), w);
            assert_eq!(min_delta_width(0, hi + 1), w + 1);
        }
    }

    #[test]
    fn negative_base_values() {
        // Lanes interpreted as signed: base near i64::MIN with small spread.
        let base = i64::MIN as u64 + 10;
        let mut lanes = [base; 8];
        lanes[1] = base + 3;
        assert_eq!(round_trip(Block::from_u64_lanes(lanes)), Encoding::B8D1);
    }
}
