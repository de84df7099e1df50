//! Frequent Pattern Compression (FPC) — an alternative block compressor.
//!
//! The paper's insertion policies are orthogonal to the compression
//! mechanism (§II-B); this module provides Alameldeen & Wood's FPC so the
//! claim can be exercised: each 32-bit word is encoded with a 3-bit prefix
//! selecting one of eight patterns. Sizes here include the prefixes,
//! rounded up to whole bytes.

use crate::block::Block;

/// FPC word patterns, in prefix order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FpcPattern {
    /// 000 — all-zero word (data bits: 0).
    Zero,
    /// 001 — 4-bit sign-extended immediate.
    Imm4,
    /// 010 — 8-bit sign-extended immediate.
    Imm8,
    /// 011 — 16-bit sign-extended immediate.
    Imm16,
    /// 100 — halfword padded with a zero halfword (low half zero).
    PaddedHalf,
    /// 101 — two halfwords, each a sign-extended byte.
    TwoSignedBytes,
    /// 110 — word consisting of four repeated bytes.
    RepeatedBytes,
    /// 111 — uncompressed 32-bit word.
    Uncompressed,
}

impl FpcPattern {
    /// Data bits stored for a word of this pattern (the 3-bit prefix is
    /// charged separately).
    pub fn data_bits(self) -> u32 {
        match self {
            FpcPattern::Zero => 0,
            FpcPattern::Imm4 => 4,
            FpcPattern::Imm8 => 8,
            FpcPattern::Imm16 => 16,
            FpcPattern::PaddedHalf => 16,
            FpcPattern::TwoSignedBytes => 16,
            FpcPattern::RepeatedBytes => 8,
            FpcPattern::Uncompressed => 32,
        }
    }

    /// Classifies one 32-bit word.
    pub fn classify(word: u32) -> FpcPattern {
        let signed = word as i32;
        if word == 0 {
            FpcPattern::Zero
        } else if (-8..8).contains(&signed) {
            FpcPattern::Imm4
        } else if (-128..128).contains(&signed) {
            FpcPattern::Imm8
        } else if (-32_768..32_768).contains(&signed) {
            FpcPattern::Imm16
        } else if word & 0xFFFF == 0 {
            FpcPattern::PaddedHalf
        } else if Self::halves_are_signed_bytes(word) {
            FpcPattern::TwoSignedBytes
        } else if Self::bytes_repeat(word) {
            FpcPattern::RepeatedBytes
        } else {
            FpcPattern::Uncompressed
        }
    }

    fn halves_are_signed_bytes(word: u32) -> bool {
        let lo = (word & 0xFFFF) as u16 as i16;
        let hi = (word >> 16) as u16 as i16;
        (-128..128).contains(&lo) && (-128..128).contains(&hi)
    }

    fn bytes_repeat(word: u32) -> bool {
        let b = word & 0xFF;
        word == b * 0x0101_0101
    }
}

/// The FPC compressor (size model).
///
/// # Example
///
/// ```
/// use hllc_compress::{Block, Fpc};
///
/// let fpc = Fpc::new();
/// assert_eq!(fpc.compressed_size(&Block::zeroed()), 6); // 16 × 3-bit prefixes
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Fpc;

impl Fpc {
    /// Creates an FPC compressor.
    pub fn new() -> Self {
        Fpc
    }

    /// Compressed size in bytes (1–64): 16 prefixes plus per-word data
    /// bits, rounded up, capped at the uncompressed size.
    pub fn compressed_size(&self, block: &Block) -> u8 {
        let mut bits = 0u32;
        for word in block.u32_lanes() {
            bits += 3 + FpcPattern::classify(word).data_bits();
        }
        (bits.div_ceil(8) as u8).min(64)
    }
}

/// Which compression mechanism a data model sizes blocks with.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum CompressorKind {
    /// The paper's modified Base-Delta-Immediate (Table I).
    #[default]
    Bdi,
    /// Frequent Pattern Compression (ablation).
    Fpc,
}

impl CompressorKind {
    /// Compressed size of a block under this mechanism.
    pub fn compressed_size(self, block: &Block) -> u8 {
        match self {
            CompressorKind::Bdi => crate::bdi::Compressor::new().compressed_size(block),
            CompressorKind::Fpc => Fpc::new().compressed_size(block),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            CompressorKind::Bdi => "BDI",
            CompressorKind::Fpc => "FPC",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_classification() {
        assert_eq!(FpcPattern::classify(0), FpcPattern::Zero);
        assert_eq!(FpcPattern::classify(7), FpcPattern::Imm4);
        assert_eq!(FpcPattern::classify(0xFFFF_FFF8), FpcPattern::Imm4); // -8
        assert_eq!(FpcPattern::classify(100), FpcPattern::Imm8);
        assert_eq!(FpcPattern::classify(30_000), FpcPattern::Imm16);
        assert_eq!(FpcPattern::classify(0xFFFF_8000), FpcPattern::Imm16); // -32768
        assert_eq!(FpcPattern::classify(0x1234_0000), FpcPattern::PaddedHalf);
        assert_eq!(
            FpcPattern::classify(0x0042_0017),
            FpcPattern::TwoSignedBytes
        );
        assert_eq!(FpcPattern::classify(0xABAB_ABAB), FpcPattern::RepeatedBytes);
        assert_eq!(FpcPattern::classify(0x1234_5678), FpcPattern::Uncompressed);
    }

    #[test]
    fn zero_block_size() {
        // 16 words × 3 prefix bits = 48 bits = 6 bytes.
        assert_eq!(Fpc::new().compressed_size(&Block::zeroed()), 6);
    }

    #[test]
    fn incompressible_block_capped_at_64() {
        let lanes: [u32; 16] = core::array::from_fn(|i| 0x1234_5678u32.wrapping_mul(i as u32 | 1));
        let b = Block::from_u32_lanes(lanes);
        // 16 × (3 + 32) = 560 bits = 70 bytes, capped to 64.
        assert_eq!(Fpc::new().compressed_size(&b), 64);
    }

    #[test]
    fn small_immediates_compress_well() {
        let lanes: [u32; 16] = core::array::from_fn(|i| i as u32 % 8);
        let b = Block::from_u32_lanes(lanes);
        // Mixed Zero/Imm4 words: 16×3 prefix + (<=15)×4 data < 16 bytes.
        assert!(Fpc::new().compressed_size(&b) <= 14);
    }

    #[test]
    fn kind_dispatch() {
        let zeros = Block::zeroed();
        assert_eq!(CompressorKind::Bdi.compressed_size(&zeros), 1);
        assert_eq!(CompressorKind::Fpc.compressed_size(&zeros), 6);
        assert_eq!(CompressorKind::Bdi.name(), "BDI");
        assert_eq!(CompressorKind::Fpc.name(), "FPC");
    }

    #[test]
    fn patterns_reported_per_word() {
        let mut lanes = [0u32; 16];
        lanes[3] = 0x1234_5678;
        let block = Block::from_u32_lanes(lanes);
        let p: Vec<FpcPattern> = block
            .u32_lanes()
            .into_iter()
            .map(FpcPattern::classify)
            .collect();
        assert_eq!(p.len(), 16);
        assert_eq!(p[0], FpcPattern::Zero);
        assert_eq!(p[3], FpcPattern::Uncompressed);
    }
}
