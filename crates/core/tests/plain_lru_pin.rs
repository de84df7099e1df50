//! Determinism pin of the `fit_lru = false` ablation: a fixed stream of
//! inserts and requests through a CP_SD LLC over a pre-degraded NVM array
//! must keep producing exactly these stats. The plain-LRU victim rule is
//! reached by no golden run of the CLI, so a refactor of victim selection
//! shows up here instead.

use hllc_core::{HybridConfig, HybridLlc, Policy};
use hllc_sim::{DataModel, LlcPort, LlcReq, LlcStats, ReuseClass};

const SETS: usize = 64;

/// splitmix64: a fixed, dependency-free pseudo-random sequence.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Sticky compressed size in 1..=64 from the hash of the block.
struct HashSizeData;

impl DataModel for HashSizeData {
    fn compressed_size(&mut self, block: u64) -> u8 {
        [
            1u8, 8, 15, 19, 22, 29, 33, 34, 36, 43, 49, 50, 57, 64, 64, 64,
        ][mix(block) as usize % 16]
    }
}

/// Runs 40 000 ops over 2 560 blocks (40 per set) and returns the stats.
fn run(fit_lru: bool) -> LlcStats {
    let mut cfg = HybridConfig::new(SETS, 4, 12, Policy::cp_sd()).with_epoch_cycles(20_000);
    cfg.fit_lru = fit_lru;
    let mut llc = HybridLlc::new(&cfg);
    let array = llc.array_mut().unwrap();
    for set in 0..SETS {
        for way in 0..12 {
            let h = mix((set * 12 + way) as u64);
            if h.is_multiple_of(9) {
                array.disable_frame(set, way);
                continue;
            }
            for byte in 0..(h >> 8) as usize % 40 {
                array.disable_byte(set, way, (byte * 7 + (h >> 16) as usize) % 64);
            }
        }
    }
    for i in 0..40_000u64 {
        let h = mix(i ^ 0xA5A5);
        let now = i * 7;
        let block = (h >> 8) % (SETS as u64 * 40);
        match h % 8 {
            0 => llc.insert(now, block, false, ReuseClass::None, &mut HashSizeData),
            1 => llc.insert(now, block, true, ReuseClass::None, &mut HashSizeData),
            2 => llc.insert(now, block, false, ReuseClass::Read, &mut HashSizeData),
            3 => llc.insert(now, block, true, ReuseClass::Write, &mut HashSizeData),
            4..=6 => {
                let _ = llc.request(now, block, LlcReq::GetS);
            }
            _ => {
                let _ = llc.request(now, block, LlcReq::GetX);
            }
        }
    }
    *llc.stats()
}

#[test]
fn plain_lru_stats_are_pinned() {
    let expected = LlcStats {
        gets: 14890,
        getx: 4981,
        hits: 6700,
        misses: 13171,
        sram_hits: 1944,
        nvm_hits: 4756,
        sram_inserts: 9930,
        nvm_inserts: 7095,
        migrations: 224,
        nvm_bytes_written: 193398,
        writebacks: 7061,
        bypasses: 0,
        write_stall_cycles: 4389,
    };
    assert_eq!(run(false), expected);
}

/// The same stream under Fit-LRU, so the pin above also shows what the
/// ablation changes.
#[test]
fn fit_lru_stats_are_pinned() {
    let expected = LlcStats {
        gets: 14890,
        getx: 4981,
        hits: 6622,
        misses: 13249,
        sram_hits: 1905,
        nvm_hits: 4717,
        sram_inserts: 8752,
        nvm_inserts: 8125,
        migrations: 67,
        nvm_bytes_written: 243564,
        writebacks: 7051,
        bypasses: 0,
        write_stall_cycles: 5062,
    };
    assert_eq!(run(true), expected);
}
