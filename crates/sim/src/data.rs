//! The data model: where block *contents* come from.
//!
//! The insertion policies only need the compressed size of a block at LLC
//! insertion time. Rather than carrying 64-byte payloads through the whole
//! hierarchy, the hierarchy consults a [`DataModel`] when it inserts a block
//! into the LLC. The workload generator (`hllc-trace`) implements this trait
//! from per-application compressibility profiles: each block has a sticky
//! compressibility class whose BDI size is known without building a
//! payload (under the FPC ablation, real 64-byte payloads of the class are
//! synthesized and compressed, and the size memoized per block).

/// Source of per-block compressed sizes.
pub trait DataModel {
    /// Compressed size in bytes (1–64) of the current contents of `block`.
    fn compressed_size(&mut self, block: u64) -> u8;
}

/// A trivial data model where every block compresses to the same size.
/// Useful for unit tests and for the incompressible upper bound.
///
/// # Example
///
/// ```
/// use hllc_sim::{ConstSizeData, DataModel};
///
/// let mut d = ConstSizeData::new(22);
/// assert_eq!(d.compressed_size(0xABC), 22);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConstSizeData {
    size: u8,
}

impl ConstSizeData {
    /// Creates a model reporting `size` bytes for every block.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or exceeds 64.
    pub fn new(size: u8) -> Self {
        assert!((1..=64).contains(&size), "compressed size must be 1..=64");
        ConstSizeData { size }
    }
}

impl DataModel for ConstSizeData {
    fn compressed_size(&mut self, _block: u64) -> u8 {
        self.size
    }
}

impl<D: DataModel + ?Sized> DataModel for &mut D {
    fn compressed_size(&mut self, block: u64) -> u8 {
        (**self).compressed_size(block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_size() {
        let mut d = ConstSizeData::new(64);
        assert_eq!(d.compressed_size(1), 64);
        assert_eq!(d.compressed_size(2), 64);
    }

    #[test]
    #[should_panic(expected = "1..=64")]
    fn rejects_zero() {
        ConstSizeData::new(0);
    }
}
