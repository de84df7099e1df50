//! Compression explorer: walk a 64-byte block through the complete NVM
//! write/read datapath of §III-B — BDI compression, ECB packing,
//! scattering over a partially faulty frame with the rearrangement
//! circuitry, and recovery.
//!
//! ```sh
//! cargo run --release --example compression_explorer
//! ```

use hybrid_llc::compress::{Block, CompressedBlock, Compressor, Encoding};
use hybrid_llc::nvm::{rearrange, FaultMap};

fn main() {
    // Some representative cache-block payloads.
    let samples: Vec<(&str, Block)> = vec![
        ("zero block", Block::zeroed()),
        ("repeated value", Block::from_u64_lanes([0xDEAD_BEEF; 8])),
        (
            "pointer array (small deltas)",
            Block::from_u64_lanes(core::array::from_fn(|i| 0x7f00_0000_1000 + 64 * i as u64)),
        ),
        (
            "float-ish data (wide deltas)",
            Block::from_u64_lanes(core::array::from_fn(|i| {
                0x3FF0_0000_0000_0000u64
                    .wrapping_add(0x000F_3A00_0000_0000u64.wrapping_mul(i as u64))
            })),
        ),
        ("random bytes", {
            let mut b = [0u8; 64];
            let mut x = 0x243F_6A88_85A3_08D3u64;
            for v in b.iter_mut() {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *v = (x >> 40) as u8;
            }
            Block::new(b)
        }),
    ];

    let compressor = Compressor::new();
    println!(
        "{:<30} {:>9} {:>8} {:>9}",
        "payload", "encoding", "CB size", "ECB size"
    );
    for (name, block) in &samples {
        let cb = compressor.compress(block);
        println!(
            "{name:<30} {:>9} {:>7}B {:>8}B",
            cb.encoding().to_string(),
            cb.size(),
            cb.ecb_size()
        );
    }

    // Now push the pointer-array block through a worn frame.
    let (_, block) = &samples[2];
    let cb = compressor.compress(block);
    println!("\n— full §III-B datapath for the pointer array —");

    // The frame has lost five bytes to wear.
    let fault_map = FaultMap::from_faulty([2, 9, 33, 40, 65]);
    println!(
        "target frame: {} live bytes of 66 (faulty: 2, 9, 33, 40, 65)",
        fault_map.live_bytes()
    );
    assert!(
        cb.ecb_size() as usize <= fault_map.live_bytes(),
        "block must fit"
    );

    // The ECB: two header bytes (the 4-bit CE, plus the room the 11 SECDED
    // check bits take; hard-fault detection is assumed perfect) + payload.
    let mut ecb = vec![cb.encoding().ce(), 0];
    ecb.extend_from_slice(cb.payload());
    println!("packed ECB: {} bytes (CB {} + 2)", ecb.len(), cb.size());

    // Scatter over the live bytes starting at the wear-leveling offset.
    let offset = 17;
    let (recb, mask) = rearrange::scatter(&ecb, &fault_map, offset);
    println!("scattered with write mask of {} bytes", mask.count_ones());

    // ... time passes; gather the live bytes back and decompress ...
    let gathered = rearrange::gather(&recb, &fault_map, offset, ecb.len());
    let recovered = CompressedBlock::from_parts(
        Encoding::from_ce(gathered[0]).expect("valid CE"),
        &gathered[2..],
    )
    .expect("payload length matches encoding");
    assert_eq!(recovered.decompress(), *block);
    println!("decompressed block matches the original exactly ✓");
}
