//! Cross-crate integration: the complete §III-B NVM write/read datapath —
//! BDI compression → ECB packing → block rearrangement over a faulty frame
//! → gather → decompression.
//!
//! Hard-fault detection is assumed perfect (DESIGN.md §2), so the ECB's two
//! header bytes carry the 4-bit CE and stand in for the 11 check bits that
//! make ECB = CB + 2.

use hybrid_llc::compress::{Block, CompressedBlock, Compressor, Encoding};
use hybrid_llc::nvm::{rearrange, FaultMap, FRAME_BYTES};
use proptest::prelude::*;

/// Writes a block into a frame image and reads it back. Returns the
/// recovered block.
fn round_trip(block: &Block, fault_map: &FaultMap, offset: usize) -> Block {
    // Write path.
    let cb = Compressor::new().compress(block);
    let mut ecb = vec![cb.encoding().ce(), 0];
    ecb.extend_from_slice(cb.payload());
    assert_eq!(ecb.len(), cb.ecb_size() as usize);
    assert!(
        ecb.len() <= fault_map.live_bytes(),
        "test harness must pick fitting frames"
    );
    let (recb, mask) = rearrange::scatter(&ecb, fault_map, offset);
    assert_eq!(mask & fault_map.raw(), 0, "never write faulty bytes");

    // Read path.
    let gathered = rearrange::gather(&recb, fault_map, offset, ecb.len());
    let encoding = Encoding::from_ce(gathered[0]).expect("valid CE");
    CompressedBlock::from_parts(encoding, &gathered[2..])
        .expect("payload length matches")
        .decompress()
}

#[test]
fn clean_datapath_for_every_encoding_class() {
    let blocks = [
        Block::zeroed(),
        Block::from_u64_lanes([7; 8]),
        Block::from_u64_lanes(core::array::from_fn(|i| 1000 + i as u64)),
        Block::from_u64_lanes(core::array::from_fn(|i| (i as u64) << 40)),
    ];
    let fm = FaultMap::from_faulty([5, 31]);
    for b in &blocks {
        assert_eq!(round_trip(b, &fm, 13), *b);
    }
}

#[test]
fn uncompressed_blocks_need_a_pristine_frame() {
    // A 64-byte block has a 66-byte ECB: exactly one fully live frame.
    let mut raw = [0u8; 64];
    for (i, b) in raw.iter_mut().enumerate() {
        *b = (i as u8).wrapping_mul(97).wrapping_add(13);
    }
    let block = Block::new(raw);
    assert_eq!(Compressor::new().compressed_size(&block), 64);
    let fm = FaultMap::new();
    assert_eq!(round_trip(&block, &fm, 0), block);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any clustered block survives the full datapath through any frame it
    /// fits in, at any rotation offset.
    #[test]
    fn datapath_round_trip(
        base in any::<u64>(),
        jitter in prop::collection::vec(-100_000i64..100_000, 8),
        faults in prop::collection::btree_set(0usize..FRAME_BYTES, 0..5),
        offset in 0usize..200,
    ) {
        let lanes: [u64; 8] = core::array::from_fn(|i| base.wrapping_add(jitter[i] as u64));
        let block = Block::from_u64_lanes(lanes);
        let fm = FaultMap::from_faulty(faults);
        let cb_size = Compressor::new().compressed_size(&block) as usize;
        prop_assume!(cb_size + 2 <= fm.live_bytes());
        prop_assert_eq!(round_trip(&block, &fm, offset), block);
    }
}
