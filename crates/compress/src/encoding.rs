//! Compression encodings (CE) — Table I of the paper.
//!
//! A Compression Encoding is a particular combination of base width and
//! delta width that a 64-byte block may be compacted with. The CE identifier
//! travels with the compressed block (4 bits) so the decompressor can be
//! selected on a read.

use std::fmt;

/// Number of bits used to encode the CE alongside the compressed block.
pub const CE_BITS: u32 = 4;

/// Boundary between high- and low-compression-ratio blocks (§II-B).
///
/// Blocks whose compressed size is `<= LCR_THRESHOLD` bytes are HCR
/// ("high compression ratio"); larger-but-still-compressed blocks are LCR.
pub const LCR_THRESHOLD: u8 = 37;

/// A compression encoding from the modified BDI table (Table I).
///
/// Naming: `B<base>D<delta>` compacts the block into one `<base>`-byte base
/// value plus one signed `<delta>`-byte difference for each remaining lane.
///
/// # Example
///
/// ```
/// use hllc_compress::Encoding;
///
/// assert_eq!(Encoding::B8D1.compressed_size(), 15);
/// assert!(Encoding::B8D1.is_hcr());
/// assert!(Encoding::B8D7.is_lcr());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Encoding {
    /// All 64 bytes are zero; 1-byte representation.
    Zeros = 0,
    /// Eight repetitions of the same 8-byte value.
    Repeated = 1,
    /// 8-byte base, 1-byte deltas.
    B8D1 = 2,
    /// 8-byte base, 2-byte deltas.
    B8D2 = 3,
    /// 8-byte base, 3-byte deltas.
    B8D3 = 4,
    /// 8-byte base, 4-byte deltas.
    B8D4 = 5,
    /// 8-byte base, 5-byte deltas (LCR).
    B8D5 = 6,
    /// 8-byte base, 6-byte deltas (LCR).
    B8D6 = 7,
    /// 8-byte base, 7-byte deltas (LCR).
    B8D7 = 8,
    /// 4-byte base, 1-byte deltas.
    B4D1 = 9,
    /// 4-byte base, 2-byte deltas.
    B4D2 = 10,
    /// 4-byte base, 3-byte deltas (LCR).
    B4D3 = 11,
    /// 2-byte base, 1-byte deltas.
    B2D1 = 12,
    /// Incompressible; stored verbatim.
    Uncompressed = 13,
}

impl Encoding {
    /// All encodings, in CE-identifier order.
    pub const ALL: [Encoding; 14] = [
        Encoding::Zeros,
        Encoding::Repeated,
        Encoding::B8D1,
        Encoding::B8D2,
        Encoding::B8D3,
        Encoding::B8D4,
        Encoding::B8D5,
        Encoding::B8D6,
        Encoding::B8D7,
        Encoding::B4D1,
        Encoding::B4D2,
        Encoding::B4D3,
        Encoding::B2D1,
        Encoding::Uncompressed,
    ];

    /// Base width in bytes, or `None` for the special encodings.
    pub fn base_width(self) -> Option<u8> {
        match self {
            Encoding::Zeros | Encoding::Repeated | Encoding::Uncompressed => None,
            Encoding::B8D1
            | Encoding::B8D2
            | Encoding::B8D3
            | Encoding::B8D4
            | Encoding::B8D5
            | Encoding::B8D6
            | Encoding::B8D7 => Some(8),
            Encoding::B4D1 | Encoding::B4D2 | Encoding::B4D3 => Some(4),
            Encoding::B2D1 => Some(2),
        }
    }

    /// Delta width in bytes, or `None` for the special encodings.
    pub fn delta_width(self) -> Option<u8> {
        match self {
            Encoding::Zeros | Encoding::Repeated | Encoding::Uncompressed => None,
            Encoding::B8D1 | Encoding::B4D1 | Encoding::B2D1 => Some(1),
            Encoding::B8D2 | Encoding::B4D2 => Some(2),
            Encoding::B8D3 | Encoding::B4D3 => Some(3),
            Encoding::B8D4 => Some(4),
            Encoding::B8D5 => Some(5),
            Encoding::B8D6 => Some(6),
            Encoding::B8D7 => Some(7),
        }
    }

    /// Number of lanes the 64-byte block is split into, for base/delta
    /// encodings (8, 16, or 32).
    pub fn lanes(self) -> Option<u8> {
        self.base_width().map(|b| (64 / b as usize) as u8)
    }

    /// Compressed block (CB) size in bytes.
    ///
    /// The base is stored once; deltas are stored for the remaining
    /// `lanes - 1` lanes: `size = base + (lanes - 1) * delta`.
    pub fn compressed_size(self) -> u8 {
        match self {
            Encoding::Zeros => 1,
            Encoding::Repeated => 8,
            Encoding::Uncompressed => 64,
            Encoding::B8D1
            | Encoding::B8D2
            | Encoding::B8D3
            | Encoding::B8D4
            | Encoding::B8D5
            | Encoding::B8D6
            | Encoding::B8D7
            | Encoding::B4D1
            | Encoding::B4D2
            | Encoding::B4D3
            | Encoding::B2D1 => {
                let (Some(base), Some(delta), Some(lanes)) =
                    (self.base_width(), self.delta_width(), self.lanes())
                else {
                    debug_assert!(false, "base/delta encoding without widths");
                    return 64;
                };
                base + (lanes - 1) * delta
            }
        }
    }

    /// True if the encoding yields a high-compression-ratio block
    /// (compressed size `<=` [`LCR_THRESHOLD`]).
    pub fn is_hcr(self) -> bool {
        self != Encoding::Uncompressed && self.compressed_size() <= LCR_THRESHOLD
    }

    /// True if the encoding yields a low-compression-ratio block: compressed
    /// relative to 64 B, but above [`LCR_THRESHOLD`]. Marked with a star in
    /// Table I; the original BDI discards them but this design keeps them.
    pub fn is_lcr(self) -> bool {
        self != Encoding::Uncompressed && self.compressed_size() > LCR_THRESHOLD
    }

    /// The 4-bit CE identifier stored alongside the compressed block.
    pub fn ce(self) -> u8 {
        self as u8
    }

    /// Reconstructs an encoding from its 4-bit CE identifier.
    ///
    /// Returns `None` for identifiers outside the table (14 and 15 are
    /// reserved).
    pub fn from_ce(ce: u8) -> Option<Encoding> {
        Encoding::ALL.get(ce as usize).copied()
    }
}

impl fmt::Display for Encoding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Encoding::Zeros => "Z",
            Encoding::Repeated => "R",
            Encoding::B8D1 => "B8Δ1",
            Encoding::B8D2 => "B8Δ2",
            Encoding::B8D3 => "B8Δ3",
            Encoding::B8D4 => "B8Δ4",
            Encoding::B8D5 => "B8Δ5",
            Encoding::B8D6 => "B8Δ6",
            Encoding::B8D7 => "B8Δ7",
            Encoding::B4D1 => "B4Δ1",
            Encoding::B4D2 => "B4Δ2",
            Encoding::B4D3 => "B4Δ3",
            Encoding::B2D1 => "B2Δ1",
            Encoding::Uncompressed => "U",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_sizes() {
        assert_eq!(Encoding::Zeros.compressed_size(), 1);
        assert_eq!(Encoding::Repeated.compressed_size(), 8);
        assert_eq!(Encoding::B8D1.compressed_size(), 15);
        assert_eq!(Encoding::B8D2.compressed_size(), 22);
        assert_eq!(Encoding::B8D3.compressed_size(), 29);
        assert_eq!(Encoding::B8D4.compressed_size(), 36);
        assert_eq!(Encoding::B8D5.compressed_size(), 43);
        assert_eq!(Encoding::B8D6.compressed_size(), 50);
        assert_eq!(Encoding::B8D7.compressed_size(), 57);
        assert_eq!(Encoding::B4D1.compressed_size(), 19);
        assert_eq!(Encoding::B4D2.compressed_size(), 34);
        assert_eq!(Encoding::B4D3.compressed_size(), 49);
        assert_eq!(Encoding::B2D1.compressed_size(), 33);
        assert_eq!(Encoding::Uncompressed.compressed_size(), 64);
    }

    #[test]
    fn hcr_lcr_partition() {
        // Exactly the >37-byte compressible encodings are LCR (paper §II-B).
        let lcr: Vec<Encoding> = Encoding::ALL
            .iter()
            .copied()
            .filter(|e| e.is_lcr())
            .collect();
        assert_eq!(
            lcr,
            vec![
                Encoding::B8D5,
                Encoding::B8D6,
                Encoding::B8D7,
                Encoding::B4D3
            ]
        );
        // Uncompressed is neither HCR nor LCR.
        assert!(!Encoding::Uncompressed.is_hcr());
        assert!(!Encoding::Uncompressed.is_lcr());
    }

    #[test]
    fn b8d7_fits_one_faulty_byte_frame() {
        // §III-B: a frame with one disabled byte can still hold B8Δ7 blocks.
        // ECB = CB + 2 bytes of CE+SECDED; 66-byte frame with 65 live bytes.
        assert!(Encoding::B8D7.compressed_size() + 2 <= 65);
    }

    #[test]
    fn ce_round_trip() {
        for e in Encoding::ALL {
            assert_eq!(Encoding::from_ce(e.ce()), Some(e));
            assert!(u32::from(e.ce()) < (1 << CE_BITS));
        }
        assert_eq!(Encoding::from_ce(14), None);
        assert_eq!(Encoding::from_ce(15), None);
    }

    #[test]
    fn display_names() {
        assert_eq!(Encoding::B8D7.to_string(), "B8Δ7");
        assert_eq!(Encoding::Zeros.to_string(), "Z");
        assert_eq!(Encoding::Uncompressed.to_string(), "U");
    }

    #[test]
    fn sizes_strictly_below_uncompressed() {
        for e in Encoding::ALL {
            if e != Encoding::Uncompressed {
                assert!(e.compressed_size() < 64, "{e} does not compress");
            }
        }
    }
}
