//! Per-way line state of the hybrid LLC.

use hllc_sim::ReuseClass;

/// Metadata of one block resident in the LLC.
///
/// Lives in the (SRAM) tag array: block identity, coherence dirtiness,
/// reuse tag, the block's compressed size (computed by the BDI compressor
/// at insertion time), and the LRU stamp. TAP's hit counts live in the
/// LLC's hashed predictor, not per line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LineState {
    /// Block address.
    pub block: u64,
    /// True if this is the only up-to-date copy (writeback needed on evict).
    pub dirty: bool,
    /// Reuse classification (read-reuse / write-reuse / none).
    pub reuse: ReuseClass,
    /// Compressed block (CB) size in bytes at insertion time (64 when the
    /// policy stores blocks uncompressed).
    pub cb_size: u8,
    /// LRU stamp: larger = more recently used.
    pub lru: u64,
}

impl LineState {
    /// Creates a freshly inserted line.
    pub fn new(block: u64, dirty: bool, reuse: ReuseClass, cb_size: u8, lru: u64) -> Self {
        LineState {
            block,
            dirty,
            reuse,
            cb_size,
            lru,
        }
    }

    /// Extended-compressed-block size: CB + CE + SECDED, i.e. `cb_size + 2`
    /// bytes (§III-B1).
    pub fn ecb_size(&self) -> usize {
        self.cb_size as usize + 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecb_adds_metadata_bytes() {
        let l = LineState::new(1, false, ReuseClass::None, 36, 0);
        assert_eq!(l.ecb_size(), 38);
        let u = LineState::new(1, false, ReuseClass::None, 64, 0);
        assert_eq!(u.ecb_size(), 66);
    }
}
