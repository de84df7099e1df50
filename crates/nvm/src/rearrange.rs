//! Block-rearrangement circuitry: index generator + crossbar (Figure 5).
//!
//! On a write, the extended compressed block (ECB) is scattered over the
//! non-faulty bytes of the target frame starting at the intra-frame
//! wear-leveling offset, producing the rearranged ECB (RECB) and a write
//! mask for selective writing. On a read, the same index vector is computed
//! again and used to gather the ECB back out of the RECB.
//!
//! The hardware computes the index vector with a parallel tree adder over
//! the fault map; this model walks the packed live-byte words of the fault
//! map directly (`trailing_zeros` per step, see
//! [`FaultMap::live_indices_from`]), so scatter and gather never
//! materialize the 66-entry index vector and the write mask is assembled
//! word by word.

use crate::fault_map::{FaultMap, FAULT_WORDS, FRAME_BYTES};

fn assert_fits(fault_map: &FaultMap, ecb_len: usize) {
    assert!(
        ecb_len <= fault_map.live_bytes(),
        "ECB of {ecb_len} bytes cannot fit in a frame with {} live bytes",
        fault_map.live_bytes()
    );
}

/// Computes the index vector `I[frame_byte] = Some(ecb_byte)` for an ECB of
/// `ecb_len` bytes: live frame bytes, scanned circularly from the rotation
/// `offset`, receive ECB bytes 0, 1, 2, … in order. Faulty bytes and unused
/// live bytes map to `None` (the "don't care" ✗ of Figure 5c).
///
/// # Panics
///
/// Panics if `ecb_len` exceeds the frame's live-byte count.
#[expect(clippy::indexing_slicing, reason = "live positions are < FRAME_BYTES")]
pub fn index_vector(
    fault_map: &FaultMap,
    offset: usize,
    ecb_len: usize,
) -> [Option<u8>; FRAME_BYTES] {
    assert_fits(fault_map, ecb_len);
    let mut iv = [None; FRAME_BYTES];
    for (ecb_byte, pos) in fault_map
        .live_indices_from(offset)
        .take(ecb_len)
        .enumerate()
    {
        iv[pos] = Some(ecb_byte as u8);
    }
    iv
}

/// Scatters an ECB into a frame image: returns the RECB (66 bytes, with
/// don't-care positions left zero) and the selective-write mask (bit `i` set
/// means frame byte `i` is written).
///
/// # Panics
///
/// Panics if the ECB does not fit in the frame's live bytes.
#[expect(clippy::indexing_slicing, reason = "live positions are < FRAME_BYTES")]
pub fn scatter(ecb: &[u8], fault_map: &FaultMap, offset: usize) -> ([u8; FRAME_BYTES], u128) {
    assert_fits(fault_map, ecb.len());
    let mut recb = [0u8; FRAME_BYTES];
    let mut mask = [0u64; FAULT_WORDS];
    for (&byte, pos) in ecb.iter().zip(fault_map.live_indices_from(offset)) {
        recb[pos] = byte;
        // pos < FRAME_BYTES (live index), so pos >> 6 < FAULT_WORDS.
        mask[pos >> 6] |= 1 << (pos & 63);
    }
    (recb, u128::from(mask[0]) | u128::from(mask[1]) << 64)
}

/// Gathers an ECB of `ecb_len` bytes back out of a RECB into `ecb`, using
/// the same fault map and rotation offset the block was written with. The
/// allocation-free core of [`gather`].
///
/// # Panics
///
/// Panics if `ecb.len()` exceeds the frame's live-byte count.
#[expect(clippy::indexing_slicing, reason = "live positions are < FRAME_BYTES")]
pub fn gather_into(recb: &[u8; FRAME_BYTES], fault_map: &FaultMap, offset: usize, ecb: &mut [u8]) {
    assert_fits(fault_map, ecb.len());
    for (byte, pos) in ecb.iter_mut().zip(fault_map.live_indices_from(offset)) {
        *byte = recb[pos];
    }
}

/// Gathers an ECB of `ecb_len` bytes back out of a RECB, using the same
/// fault map and rotation offset the block was written with.
///
/// # Panics
///
/// Panics if `ecb_len` exceeds the frame's live-byte count.
pub fn gather(
    recb: &[u8; FRAME_BYTES],
    fault_map: &FaultMap,
    offset: usize,
    ecb_len: usize,
) -> Vec<u8> {
    let mut ecb = vec![0u8; ecb_len];
    gather_into(recb, fault_map, offset, &mut ecb);
    ecb
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_figure_5c_example() {
        // Figure 5c scaled: 5-byte ECB into a frame with faulty bytes 2 and 5,
        // offset 0. Expected placements: bytes 0,1,3,4,6 receive ECB 0..5.
        let fm = FaultMap::from_faulty([2, 5]);
        let iv = index_vector(&fm, 0, 5);
        assert_eq!(iv[0], Some(0));
        assert_eq!(iv[1], Some(1));
        assert_eq!(iv[2], None); // faulty
        assert_eq!(iv[3], Some(2));
        assert_eq!(iv[4], Some(3));
        assert_eq!(iv[5], None); // faulty
        assert_eq!(iv[6], Some(4)); // the I[6]=2 example generalized
        assert_eq!(iv[7], None); // unused
    }

    #[test]
    fn scatter_gather_round_trip() {
        let fm = FaultMap::from_faulty([0, 13, 64]);
        let ecb: Vec<u8> = (0..59).map(|i| i as u8 ^ 0x5A).collect();
        for offset in [0, 1, 17, 65, 130] {
            let (recb, mask) = scatter(&ecb, &fm, offset);
            assert_eq!(mask.count_ones() as usize, ecb.len());
            // Mask never touches faulty bytes.
            assert_eq!(mask & fm.raw(), 0);
            assert_eq!(gather(&recb, &fm, offset, ecb.len()), ecb);
        }
    }

    #[test]
    fn scatter_mask_matches_index_vector() {
        let fm = FaultMap::from_faulty([3, 40, 65]);
        let ecb: Vec<u8> = (0..50).collect();
        for offset in [0, 9, 63, 64, 65] {
            let (recb, mask) = scatter(&ecb, &fm, offset);
            let iv = index_vector(&fm, offset, ecb.len());
            for (pos, slot) in iv.iter().enumerate() {
                assert_eq!(mask >> pos & 1 == 1, slot.is_some());
                if let Some(ecb_byte) = slot {
                    assert_eq!(recb[pos], ecb[*ecb_byte as usize]);
                }
            }
        }
    }

    #[test]
    fn rotation_shifts_write_region() {
        let fm = FaultMap::new();
        let ecb = [1u8, 2, 3];
        let (_, m0) = scatter(&ecb, &fm, 0);
        let (_, m1) = scatter(&ecb, &fm, 1);
        assert_eq!(m0, 0b111);
        assert_eq!(m1, 0b1110);
    }

    #[test]
    fn wraps_around_frame_end() {
        let fm = FaultMap::new();
        let ecb = [9u8, 8, 7, 6];
        let (recb, mask) = scatter(&ecb, &fm, 64);
        assert_eq!(recb[64], 9);
        assert_eq!(recb[65], 8);
        assert_eq!(recb[0], 7);
        assert_eq!(recb[1], 6);
        assert_eq!(mask, (1 << 64) | (1 << 65) | 0b11);
        assert_eq!(gather(&recb, &fm, 64, 4), ecb);
    }

    #[test]
    fn exact_fit_uses_every_live_byte() {
        let fm = FaultMap::from_faulty([1, 3, 5]);
        let ecb: Vec<u8> = (0..63).collect();
        let (_, mask) = scatter(&ecb, &fm, 7);
        assert_eq!(mask.count_ones(), 63);
        assert_eq!(mask & fm.raw(), 0);
    }

    #[test]
    #[should_panic(expected = "cannot fit")]
    fn rejects_oversized_ecb() {
        let fm = FaultMap::from_faulty([0, 1, 2, 3]);
        let ecb = [0u8; 63];
        scatter(&ecb, &fm, 0);
    }
}
