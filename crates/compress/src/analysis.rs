//! Block-population compressibility analysis (Figure 2 of the paper).

use crate::bdi::{CompressedBlock, Compressor};
use crate::block::Block;
use crate::encoding::{Encoding, LCR_THRESHOLD};

/// Coarse compressibility class of a block, as plotted in Figure 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BlockClass {
    /// Compressed size `<= 37` bytes.
    Hcr,
    /// Compressed, but size `> 37` bytes.
    Lcr,
    /// Not compressible by any encoding in the table.
    Incompressible,
}

/// Classifies a compressed size (in bytes) into HCR / LCR / incompressible.
///
/// # Example
///
/// ```
/// use hllc_compress::{classify, BlockClass};
///
/// assert_eq!(classify(15), BlockClass::Hcr);
/// assert_eq!(classify(57), BlockClass::Lcr);
/// assert_eq!(classify(64), BlockClass::Incompressible);
/// ```
pub fn classify(compressed_size: u8) -> BlockClass {
    if compressed_size >= 64 {
        BlockClass::Incompressible
    } else if compressed_size <= LCR_THRESHOLD {
        BlockClass::Hcr
    } else {
        BlockClass::Lcr
    }
}

/// Counts of blocks per compressibility class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassCounts {
    /// Blocks compressed to `<= 37` bytes.
    pub hcr: u64,
    /// Blocks compressed to 38–63 bytes.
    pub lcr: u64,
    /// Incompressible (64-byte) blocks.
    pub incompressible: u64,
}

impl ClassCounts {
    /// Total number of classified blocks.
    pub fn total(&self) -> u64 {
        self.hcr + self.lcr + self.incompressible
    }

    /// Fraction of blocks in `class`, or 0.0 if no blocks were counted.
    pub fn fraction(&self, class: BlockClass) -> f64 {
        let t = self.total();
        if t == 0 {
            return 0.0;
        }
        let n = match class {
            BlockClass::Hcr => self.hcr,
            BlockClass::Lcr => self.lcr,
            BlockClass::Incompressible => self.incompressible,
        };
        n as f64 / t as f64
    }

    /// Records one block of the given class.
    pub fn record(&mut self, class: BlockClass) {
        match class {
            BlockClass::Hcr => self.hcr += 1,
            BlockClass::Lcr => self.lcr += 1,
            BlockClass::Incompressible => self.incompressible += 1,
        }
    }
}

/// Streaming compression statistics over a population of blocks.
///
/// Feed blocks (or pre-compressed blocks) in; read per-encoding histograms,
/// class fractions, and the mean compression ratio out. This is the engine
/// behind the Figure 2 harness.
///
/// # Example
///
/// ```
/// use hllc_compress::{Block, CompressionStats};
///
/// let mut stats = CompressionStats::new();
/// stats.observe(&Block::zeroed());
/// assert_eq!(stats.class_counts().hcr, 1);
/// assert!(stats.mean_compression_ratio() > 60.0);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CompressionStats {
    compressor: Compressor,
    per_encoding: [u64; Encoding::ALL.len()],
    classes: ClassCounts,
    total_uncompressed_bytes: u64,
    total_compressed_bytes: u64,
}

impl CompressionStats {
    /// Creates an empty statistics accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Compresses `block` and records the outcome.
    pub fn observe(&mut self, block: &Block) -> Encoding {
        let cb = self.compressor.compress(block);
        self.observe_compressed(&cb);
        cb.encoding()
    }

    /// Records an already-compressed block.
    #[expect(clippy::indexing_slicing, reason = "ce() < 16 == per_encoding.len()")]
    pub fn observe_compressed(&mut self, cb: &CompressedBlock) {
        let e = cb.encoding();
        self.per_encoding[e.ce() as usize] += 1;
        self.classes.record(classify(cb.size()));
        self.total_uncompressed_bytes += 64;
        self.total_compressed_bytes += u64::from(cb.size());
    }

    /// Number of blocks observed with `encoding`.
    #[expect(clippy::indexing_slicing, reason = "ce() < 16 == per_encoding.len()")]
    pub fn count(&self, encoding: Encoding) -> u64 {
        self.per_encoding[encoding.ce() as usize]
    }

    /// Per-class counts.
    pub fn class_counts(&self) -> ClassCounts {
        self.classes
    }

    /// Total number of observed blocks.
    pub fn total(&self) -> u64 {
        self.classes.total()
    }

    /// Mean compression ratio (uncompressed bytes / compressed bytes);
    /// 1.0 when everything is incompressible, 0.0 when empty.
    pub fn mean_compression_ratio(&self) -> f64 {
        if self.total_compressed_bytes == 0 {
            return 0.0;
        }
        self.total_uncompressed_bytes as f64 / self.total_compressed_bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_boundaries() {
        assert_eq!(classify(1), BlockClass::Hcr);
        assert_eq!(classify(37), BlockClass::Hcr);
        assert_eq!(classify(38), BlockClass::Lcr);
        assert_eq!(classify(63), BlockClass::Lcr);
        assert_eq!(classify(64), BlockClass::Incompressible);
    }

    #[test]
    fn class_counts_fractions() {
        let mut c = ClassCounts::default();
        for _ in 0..49 {
            c.record(BlockClass::Hcr);
        }
        for _ in 0..29 {
            c.record(BlockClass::Lcr);
        }
        for _ in 0..22 {
            c.record(BlockClass::Incompressible);
        }
        // The paper's average population: 49% HCR, 29% LCR, 78% compressible.
        assert!((c.fraction(BlockClass::Hcr) - 0.49).abs() < 1e-9);
        assert!((c.fraction(BlockClass::Incompressible) - 0.22).abs() < 1e-9);
    }

    #[test]
    fn empty_fractions_are_zero() {
        let c = ClassCounts::default();
        assert_eq!(c.fraction(BlockClass::Hcr), 0.0);
        assert_eq!(CompressionStats::new().mean_compression_ratio(), 0.0);
    }

    #[test]
    fn stats_track_encodings() {
        let mut s = CompressionStats::new();
        s.observe(&Block::zeroed());
        s.observe(&Block::from_u64_lanes([42; 8]));
        assert_eq!(s.count(Encoding::Zeros), 1);
        assert_eq!(s.count(Encoding::Repeated), 1);
        assert_eq!(s.total(), 2);
        // 128 raw bytes vs 1 + 8 compressed.
        assert!((s.mean_compression_ratio() - 128.0 / 9.0).abs() < 1e-9);
    }
}
