//! Fixed-size cache block payloads.

use std::fmt;

/// Size of a cache block in bytes, uniform across all cache levels
/// (Table IV: "64 B data block in all levels").
pub const BLOCK_SIZE: usize = 64;

/// A 64-byte cache block payload.
///
/// `Block` is the unit the compressor operates on. It is deliberately a thin
/// newtype over `[u8; 64]` so the simulator can synthesize payloads cheaply
/// and the compressor can reinterpret them as 8-, 4-, or 2-byte lanes.
///
/// # Example
///
/// ```
/// use hllc_compress::Block;
///
/// let b = Block::from_u64_lanes([7; 8]);
/// assert_eq!(b.u64_lanes()[3], 7);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Block([u8; BLOCK_SIZE]);

/// Copies `N` bytes out of `src` starting at `at` — a panic-free stand-in
/// for `src[at..at + N].try_into().unwrap()`. The zip reads short (and the
/// debug assertion fires) if the caller's offset were ever out of range.
#[inline]
pub(crate) fn le_bytes<const N: usize>(src: &[u8], at: usize) -> [u8; N] {
    debug_assert!(at + N <= src.len());
    let mut out = [0u8; N];
    for (o, b) in out.iter_mut().zip(src.iter().skip(at)) {
        *o = *b;
    }
    out
}

impl Block {
    /// Creates a block of all zero bytes.
    pub fn zeroed() -> Self {
        Block([0; BLOCK_SIZE])
    }

    /// Creates a block from raw bytes.
    pub fn new(bytes: [u8; BLOCK_SIZE]) -> Self {
        Block(bytes)
    }

    /// Builds a block from eight little-endian 64-bit lanes.
    #[expect(clippy::indexing_slicing, reason = "(i + 1) * 8 <= BLOCK_SIZE")]
    pub fn from_u64_lanes(lanes: [u64; 8]) -> Self {
        let mut bytes = [0u8; BLOCK_SIZE];
        for (i, lane) in lanes.iter().enumerate() {
            bytes[i * 8..(i + 1) * 8].copy_from_slice(&lane.to_le_bytes());
        }
        Block(bytes)
    }

    /// Builds a block from sixteen little-endian 32-bit lanes.
    #[expect(clippy::indexing_slicing, reason = "(i + 1) * 4 <= BLOCK_SIZE")]
    pub fn from_u32_lanes(lanes: [u32; 16]) -> Self {
        let mut bytes = [0u8; BLOCK_SIZE];
        for (i, lane) in lanes.iter().enumerate() {
            bytes[i * 4..(i + 1) * 4].copy_from_slice(&lane.to_le_bytes());
        }
        Block(bytes)
    }

    /// Builds a block from thirty-two little-endian 16-bit lanes.
    #[expect(clippy::indexing_slicing, reason = "(i + 1) * 2 <= BLOCK_SIZE")]
    pub fn from_u16_lanes(lanes: [u16; 32]) -> Self {
        let mut bytes = [0u8; BLOCK_SIZE];
        for (i, lane) in lanes.iter().enumerate() {
            bytes[i * 2..(i + 1) * 2].copy_from_slice(&lane.to_le_bytes());
        }
        Block(bytes)
    }

    /// Returns the raw bytes of the block.
    pub fn bytes(&self) -> &[u8; BLOCK_SIZE] {
        &self.0
    }

    /// Reinterprets the block as eight little-endian 64-bit lanes.
    pub fn u64_lanes(&self) -> [u64; 8] {
        let mut lanes = [0u64; 8];
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = u64::from_le_bytes(le_bytes(&self.0, i * 8));
        }
        lanes
    }

    /// Reinterprets the block as sixteen little-endian 32-bit lanes.
    pub fn u32_lanes(&self) -> [u32; 16] {
        let mut lanes = [0u32; 16];
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = u32::from_le_bytes(le_bytes(&self.0, i * 4));
        }
        lanes
    }

    /// Reinterprets the block as thirty-two little-endian 16-bit lanes.
    pub fn u16_lanes(&self) -> [u16; 32] {
        let mut lanes = [0u16; 32];
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = u16::from_le_bytes(le_bytes(&self.0, i * 2));
        }
        lanes
    }

    /// True iff every byte in the block is zero.
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|&b| b == 0)
    }
}

impl Default for Block {
    fn default() -> Self {
        Block::zeroed()
    }
}

impl From<[u8; BLOCK_SIZE]> for Block {
    fn from(bytes: [u8; BLOCK_SIZE]) -> Self {
        Block(bytes)
    }
}

impl AsRef<[u8]> for Block {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl fmt::Debug for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Block(")?;
        for chunk in self.0.chunks(8) {
            for b in chunk {
                write!(f, "{b:02x}")?;
            }
            write!(f, " ")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_is_zero() {
        assert!(Block::zeroed().is_zero());
        assert!(Block::default().is_zero());
    }

    #[test]
    fn lane_round_trips() {
        let b = Block::from_u64_lanes([1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(b.u64_lanes(), [1, 2, 3, 4, 5, 6, 7, 8]);

        let lanes32: [u32; 16] = core::array::from_fn(|i| i as u32 * 1000);
        assert_eq!(Block::from_u32_lanes(lanes32).u32_lanes(), lanes32);

        let lanes16: [u16; 32] = core::array::from_fn(|i| i as u16 * 99);
        assert_eq!(Block::from_u16_lanes(lanes16).u16_lanes(), lanes16);
    }

    #[test]
    fn nonzero_detected() {
        let mut raw = [0u8; BLOCK_SIZE];
        raw[63] = 1;
        assert!(!Block::new(raw).is_zero());
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", Block::zeroed()).is_empty());
    }
}
