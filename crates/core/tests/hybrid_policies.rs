//! Behavioural tests for every insertion policy of Table III.

use std::collections::BTreeMap;

use hllc_core::{HybridConfig, HybridLlc, Part, Policy, CP_TH_CANDIDATES};
use hllc_sim::{ConstSizeData, DataModel, LlcPort, LlcReq, ReuseClass};

/// Data model with per-block compressed sizes.
#[derive(Default)]
struct MapData(BTreeMap<u64, u8>);

impl MapData {
    fn with(mut self, block: u64, size: u8) -> Self {
        self.0.insert(block, size);
        self
    }
}

impl DataModel for MapData {
    fn compressed_size(&mut self, block: u64) -> u8 {
        *self.0.get(&block).unwrap_or(&64)
    }
}

/// A small cache: 32 sets so every policy fits in a quick test, uniform
/// endurance so wear is deterministic.
fn llc(policy: Policy) -> HybridLlc {
    HybridLlc::new(&HybridConfig::new(32, 4, 12, policy))
}

/// Blocks 0, 32, 64, … all land in set 0 of a 32-set cache.
fn set0_block(i: u64) -> u64 {
    i * 32
}

// ---------------------------------------------------------------- BH

#[test]
fn bh_fills_all_sixteen_ways_globally() {
    let mut c = llc(Policy::Bh);
    let mut d = ConstSizeData::new(64);
    for i in 0..16 {
        c.insert(0, set0_block(i), false, ReuseClass::None, &mut d);
    }
    for i in 0..16 {
        assert!(c.contains(set0_block(i)), "block {i} evicted too early");
    }
    // 17th block evicts exactly one (the LRU = block 0).
    c.insert(0, set0_block(16), false, ReuseClass::None, &mut d);
    assert!(!c.contains(set0_block(0)));
    assert!(c.contains(set0_block(16)));
}

#[test]
fn bh_eviction_follows_global_lru_touch_order() {
    let mut c = llc(Policy::Bh);
    let mut d = ConstSizeData::new(64);
    for i in 0..16 {
        c.insert(0, set0_block(i), false, ReuseClass::None, &mut d);
    }
    // Touch block 0 so block 1 becomes LRU.
    assert!(c.request(1, set0_block(0), LlcReq::GetS).hit);
    c.insert(2, set0_block(16), false, ReuseClass::None, &mut d);
    assert!(c.contains(set0_block(0)));
    assert!(!c.contains(set0_block(1)));
}

#[test]
fn bh_ignores_disabled_frames() {
    let mut c = llc(Policy::Bh);
    let mut d = ConstSizeData::new(64);
    // Disable every NVM frame in set 0: only the 4 SRAM ways remain.
    for way in 0..12 {
        c.array_mut().unwrap().disable_frame(0, way);
    }
    for i in 0..5 {
        c.insert(0, set0_block(i), false, ReuseClass::None, &mut d);
    }
    // Only 4 ways available -> block 0 evicted.
    assert!(!c.contains(set0_block(0)));
    assert_eq!((1..5).filter(|&i| c.contains(set0_block(i))).count(), 4);
    assert_eq!(c.stats().nvm_inserts, 0);
}

#[test]
fn bh_writes_whole_frames() {
    let mut c = llc(Policy::Bh);
    let mut d = ConstSizeData::new(64);
    for i in 0..16 {
        c.insert(0, set0_block(i), false, ReuseClass::None, &mut d);
    }
    // 12 NVM inserts at 66 bytes each (uncompressed frame writes).
    assert_eq!(c.stats().nvm_inserts, 12);
    assert_eq!(c.stats().nvm_bytes_written, 12 * 66);
}

// ---------------------------------------------------------------- BH_CP

#[test]
fn bh_cp_uses_partially_faulty_frames_for_compressed_blocks() {
    let mut c = llc(Policy::BhCp);
    // Make every NVM frame in set 0 lose one byte: capacity 65.
    for way in 0..12 {
        c.array_mut().unwrap().disable_byte(0, way, 0);
    }
    // Fill the 4 SRAM ways with incompressible blocks first.
    let mut d = MapData::default()
        .with(set0_block(0), 64)
        .with(set0_block(1), 64)
        .with(set0_block(2), 64)
        .with(set0_block(3), 64)
        .with(set0_block(4), 64)
        .with(set0_block(5), 57);
    for i in 0..4 {
        c.insert(0, set0_block(i), false, ReuseClass::None, &mut d);
    }
    assert_eq!(
        c.stats().nvm_inserts,
        0,
        "65-byte frames cannot hold 66-byte ECBs"
    );
    // An uncompressible 5th block must replace an SRAM block (global fit-LRU).
    c.insert(0, set0_block(4), false, ReuseClass::None, &mut d);
    assert_eq!(c.stats().nvm_inserts, 0);
    assert!(!c.contains(set0_block(0)));
    // A B8Δ7 block (57 B -> 59 B ECB) fits the faulty frames.
    c.insert(0, set0_block(5), false, ReuseClass::None, &mut d);
    assert_eq!(c.stats().nvm_inserts, 1);
    assert_eq!(c.locate(set0_block(5)), Some(Part::Nvm));
    assert_eq!(c.stats().nvm_bytes_written, 59);
}

#[test]
fn bh_cp_compressed_bytes_accounting() {
    let mut c = llc(Policy::BhCp);
    let mut d = ConstSizeData::new(20);
    // Fill SRAM first (global LRU prefers empty ways in SRAM order), then NVM.
    for i in 0..16 {
        c.insert(0, set0_block(i), false, ReuseClass::None, &mut d);
    }
    assert_eq!(c.stats().nvm_inserts, 12);
    assert_eq!(c.stats().nvm_bytes_written, 12 * 22); // ECB = 20 + 2
}

// ---------------------------------------------------------------- CA

#[test]
fn ca_steers_by_compressed_size() {
    let mut c = llc(Policy::Ca { cp_th: 37 });
    let mut d = MapData::default().with(100 * 32, 22).with(101 * 32, 57);
    c.insert(0, 100 * 32, false, ReuseClass::None, &mut d);
    c.insert(0, 101 * 32, false, ReuseClass::None, &mut d);
    assert_eq!(
        c.locate(100 * 32),
        Some(Part::Nvm),
        "small block belongs in NVM"
    );
    assert_eq!(
        c.locate(101 * 32),
        Some(Part::Sram),
        "big block belongs in SRAM"
    );
}

#[test]
fn ca_cp_th_64_sends_everything_compressible_to_nvm() {
    let mut c = llc(Policy::Ca { cp_th: 64 });
    let mut d = ConstSizeData::new(64);
    c.insert(0, 7, false, ReuseClass::None, &mut d);
    assert_eq!(c.locate(7), Some(Part::Nvm));
}

#[test]
fn ca_ignores_reuse_tags() {
    let mut c = llc(Policy::Ca { cp_th: 37 });
    let mut d = ConstSizeData::new(64);
    // Even a read-reuse block goes to SRAM if incompressible.
    c.insert(0, 5, false, ReuseClass::Read, &mut d);
    assert_eq!(c.locate(5), Some(Part::Sram));
}

#[test]
fn ca_falls_back_to_sram_when_nothing_fits() {
    let mut c = llc(Policy::Ca { cp_th: 64 });
    // Degrade all of set 0's frames to 10 live bytes.
    let array = c.array_mut().unwrap();
    for way in 0..12 {
        for b in 0..56 {
            array.disable_byte(0, way, b);
        }
    }
    let mut d = ConstSizeData::new(30); // ECB 32 > 10
    c.insert(0, set0_block(1), false, ReuseClass::None, &mut d);
    assert_eq!(c.locate(set0_block(1)), Some(Part::Sram));
    // A tiny block (ECB 10) still lands in NVM.
    let mut d8 = ConstSizeData::new(8);
    c.insert(0, set0_block(2), false, ReuseClass::None, &mut d8);
    assert_eq!(c.locate(set0_block(2)), Some(Part::Nvm));
}

// ---------------------------------------------------------------- CA_RWR

#[test]
fn ca_rwr_table2_steering() {
    let mut c = llc(Policy::CaRwr { cp_th: 37 });
    let mut small = ConstSizeData::new(20);
    let mut big = ConstSizeData::new(64);
    // Read reuse -> NVM regardless of size.
    c.insert(0, set0_block(1), false, ReuseClass::Read, &mut big);
    assert_eq!(c.locate(set0_block(1)), Some(Part::Nvm));
    // Write reuse -> SRAM regardless of size.
    c.insert(0, set0_block(2), true, ReuseClass::Write, &mut small);
    assert_eq!(c.locate(set0_block(2)), Some(Part::Sram));
    // No reuse -> by size.
    c.insert(0, set0_block(3), false, ReuseClass::None, &mut small);
    c.insert(0, set0_block(4), false, ReuseClass::None, &mut big);
    assert_eq!(c.locate(set0_block(3)), Some(Part::Nvm));
    assert_eq!(c.locate(set0_block(4)), Some(Part::Sram));
}

#[test]
fn ca_rwr_hit_classification() {
    let mut c = llc(Policy::CaRwr { cp_th: 37 });
    let mut d = ConstSizeData::new(20);
    // Clean block: GetS hit classifies Read.
    c.insert(0, 11, false, ReuseClass::None, &mut d);
    let r = c.request(1, 11, LlcReq::GetS);
    assert_eq!(r.reuse, ReuseClass::Read);
    // Dirty block: GetS hit classifies Write.
    c.insert(2, 43, true, ReuseClass::None, &mut d);
    let r = c.request(3, 43, LlcReq::GetS);
    assert_eq!(r.reuse, ReuseClass::Write);
    // GetX hit classifies Write and invalidates.
    let r = c.request(4, 11, LlcReq::GetX);
    assert_eq!(r.reuse, ReuseClass::Write);
    assert!(!c.contains(11));
}

#[test]
fn ca_rwr_migrates_read_reuse_sram_victims_to_nvm() {
    let mut c = llc(Policy::CaRwr { cp_th: 37 });
    let mut big = ConstSizeData::new(50); // big: goes to SRAM, LCR: fits NVM
                                          // Fill SRAM ways of set 0 with no-reuse big blocks.
    for i in 0..4 {
        c.insert(0, set0_block(i), false, ReuseClass::None, &mut big);
    }
    // Touch block 0 with a GetS: it becomes read-reused, stays in SRAM.
    c.request(1, set0_block(0), LlcReq::GetS);
    assert_eq!(c.locate(set0_block(0)), Some(Part::Sram));
    // Make block 0 the SRAM LRU again by touching the others.
    for i in 1..4 {
        c.request(2, set0_block(i), LlcReq::GetS);
    }
    // Next SRAM insertion evicts block 0 -> must migrate to NVM.
    c.insert(3, set0_block(9), false, ReuseClass::None, &mut big);
    assert_eq!(c.locate(set0_block(0)), Some(Part::Nvm));
    assert_eq!(c.stats().migrations, 1);
}

#[test]
fn ca_rwr_drops_migration_when_nvm_cannot_fit() {
    let mut c = llc(Policy::CaRwr { cp_th: 37 });
    let array = c.array_mut().unwrap();
    for way in 0..12 {
        for b in 0..60 {
            array.disable_byte(0, way, b); // 6 live bytes: nothing real fits
        }
    }
    let mut big = ConstSizeData::new(64);
    for i in 0..4 {
        c.insert(0, set0_block(i), false, ReuseClass::None, &mut big);
    }
    c.request(1, set0_block(0), LlcReq::GetS); // read reuse
    for i in 1..4 {
        c.request(2, set0_block(i), LlcReq::GetS);
    }
    c.insert(3, set0_block(9), false, ReuseClass::None, &mut big);
    // Migration target did not fit: block 0 is gone, not displacing SRAM.
    assert!(!c.contains(set0_block(0)));
    assert_eq!(c.stats().migrations, 0);
}

// ---------------------------------------------------------------- CP_SD

#[test]
fn cp_sd_sampler_sets_pin_their_candidate() {
    let mut c = llc(Policy::cp_sd());
    // 32 sets: set k < 6 samples candidate k. Candidate 0 has CP_th 30.
    // A 36-byte block goes to SRAM in set 0 (36 > 30) but to NVM in set 4
    // (CP_th 58).
    let mut d = ConstSizeData::new(36);
    c.insert(0, 0, false, ReuseClass::None, &mut d); // set 0
    c.insert(0, 4, false, ReuseClass::None, &mut d); // set 4
    assert_eq!(c.locate(0), Some(Part::Sram));
    assert_eq!(c.locate(4), Some(Part::Nvm));
}

#[test]
fn cp_sd_followers_adopt_the_epoch_winner() {
    let epoch = 1_000u64;
    let cfg = HybridConfig::new(64, 4, 12, Policy::cp_sd()).with_epoch_cycles(epoch);
    let mut c = HybridLlc::new(&cfg);
    let mut d = ConstSizeData::new(36);
    // Give candidate 0 (sets ≡ 0 mod 32 → set 0 and 32) lots of hits.
    c.insert(0, 0, false, ReuseClass::None, &mut d);
    for _ in 0..50 {
        c.request(1, 0, LlcReq::GetS);
    }
    // Cross the epoch boundary.
    c.request(epoch + 1, 999, LlcReq::GetS);
    assert_eq!(c.dueling().unwrap().current_cp_th(), CP_TH_CANDIDATES[0]);
    // Follower set 40: a 36-byte block now exceeds CP_th=30 -> SRAM.
    c.insert(epoch + 2, 40, false, ReuseClass::None, &mut d);
    assert_eq!(c.locate(40), Some(Part::Sram));
}

#[test]
fn cp_sd_records_sampler_writes() {
    let mut c = llc(Policy::cp_sd());
    let mut d = ConstSizeData::new(20);
    c.insert(0, 3, false, ReuseClass::None, &mut d); // sampler set 3, NVM
    c.insert(0, 40, false, ReuseClass::None, &mut d); // follower set 8
                                                      // Writes recorded only for the sampler (internal counters are private;
                                                      // verified via the epoch record).
    c.request(2_000_001, 777, LlcReq::GetS); // roll the epoch
    let rec = c.dueling().unwrap().history()[0];
    assert_eq!(rec.writes[3], 22);
    assert_eq!(rec.writes.iter().sum::<u64>(), 22);
}

// ---------------------------------------------------------------- LHybrid

#[test]
fn lhybrid_nlb_to_sram_lb_to_nvm() {
    let mut c = llc(Policy::LHybrid);
    let mut d = ConstSizeData::new(64);
    c.insert(0, set0_block(1), false, ReuseClass::None, &mut d);
    assert_eq!(c.locate(set0_block(1)), Some(Part::Sram));
    c.insert(0, set0_block(2), false, ReuseClass::Read, &mut d);
    assert_eq!(c.locate(set0_block(2)), Some(Part::Nvm));
    // Dirty blocks never enter NVM, even tagged Read.
    c.insert(0, set0_block(3), true, ReuseClass::Read, &mut d);
    assert_eq!(c.locate(set0_block(3)), Some(Part::Sram));
}

#[test]
fn lhybrid_tags_loop_blocks_on_clean_read_hits() {
    let mut c = llc(Policy::LHybrid);
    let mut d = ConstSizeData::new(64);
    c.insert(0, 21, false, ReuseClass::None, &mut d);
    assert_eq!(c.request(1, 21, LlcReq::GetS).reuse, ReuseClass::Read);
    // Dirty hit is not a loop block.
    c.insert(0, 53, true, ReuseClass::None, &mut d);
    assert_eq!(c.request(1, 53, LlcReq::GetS).reuse, ReuseClass::None);
    // GetX hits are never loop blocks.
    c.insert(0, 85, false, ReuseClass::None, &mut d);
    assert_eq!(c.request(1, 85, LlcReq::GetX).reuse, ReuseClass::None);
}

#[test]
fn lhybrid_sram_replacement_migrates_most_recent_lb() {
    let mut c = llc(Policy::LHybrid);
    let mut d = ConstSizeData::new(64);
    for i in 0..4 {
        c.insert(0, set0_block(i), false, ReuseClass::None, &mut d);
    }
    // Blocks 1 and 2 become loop blocks; 2 is more recent.
    c.request(1, set0_block(1), LlcReq::GetS);
    c.request(2, set0_block(2), LlcReq::GetS);
    // SRAM full; inserting an NLB must migrate LB 2 to NVM.
    c.insert(3, set0_block(9), false, ReuseClass::None, &mut d);
    assert_eq!(c.locate(set0_block(2)), Some(Part::Nvm));
    assert_eq!(c.locate(set0_block(1)), Some(Part::Sram));
    assert_eq!(c.locate(set0_block(9)), Some(Part::Sram));
    assert_eq!(c.stats().migrations, 1);
}

#[test]
fn lhybrid_without_lbs_evicts_sram_lru() {
    let mut c = llc(Policy::LHybrid);
    let mut d = ConstSizeData::new(64);
    for i in 0..4 {
        c.insert(0, set0_block(i), false, ReuseClass::None, &mut d);
    }
    c.insert(1, set0_block(9), false, ReuseClass::None, &mut d);
    assert!(!c.contains(set0_block(0)));
    assert_eq!(c.stats().migrations, 0);
}

// ---------------------------------------------------------------- TAP

#[test]
fn tap_requires_repeated_hits_before_nvm() {
    // Default TAP threshold is 3 cumulative clean hits (tracked by the
    // hashed thrashing predictor, persisting across residencies).
    let mut c = llc(Policy::tap());
    let mut d = ConstSizeData::new(64);
    c.insert(0, 13, false, ReuseClass::None, &mut d);
    assert_eq!(c.request(1, 13, LlcReq::GetS).reuse, ReuseClass::None);
    assert_eq!(c.request(2, 13, LlcReq::GetS).reuse, ReuseClass::None);
    assert_eq!(c.request(3, 13, LlcReq::GetS).reuse, ReuseClass::Read);
    // The predictor persists across an eviction/re-insertion round trip.
    c.request(4, 13, LlcReq::GetX); // invalidate
    c.insert(5, 13, false, ReuseClass::None, &mut d);
    assert_eq!(c.request(6, 13, LlcReq::GetS).reuse, ReuseClass::Read);
}

#[test]
fn tap_dirty_hits_never_qualify() {
    let mut c = llc(Policy::tap());
    let mut d = ConstSizeData::new(64);
    c.insert(0, 21, true, ReuseClass::None, &mut d);
    for t in 1..6 {
        assert_eq!(c.request(t, 21, LlcReq::GetS).reuse, ReuseClass::None);
    }
}

#[test]
fn tap_inserts_only_clean_thrashing_blocks_in_nvm() {
    let mut c = llc(Policy::tap());
    let mut d = ConstSizeData::new(64);
    c.insert(0, set0_block(1), false, ReuseClass::Read, &mut d);
    assert_eq!(c.locate(set0_block(1)), Some(Part::Nvm));
    c.insert(0, set0_block(2), true, ReuseClass::Read, &mut d);
    assert_eq!(c.locate(set0_block(2)), Some(Part::Sram));
    c.insert(0, set0_block(3), false, ReuseClass::None, &mut d);
    assert_eq!(c.locate(set0_block(3)), Some(Part::Sram));
}

// ---------------------------------------------------------------- generic

#[test]
fn getx_hit_invalidates_and_does_not_write_back() {
    let mut c = llc(Policy::cp_sd());
    let mut d = ConstSizeData::new(20);
    c.insert(0, 99, true, ReuseClass::None, &mut d);
    let r = c.request(1, 99, LlcReq::GetX);
    assert!(r.hit);
    assert!(!c.contains(99));
    // Ownership transferred: no memory writeback.
    assert_eq!(c.stats().writebacks, 0);
}

#[test]
fn clean_reinsert_of_resident_block_writes_nothing() {
    let mut c = llc(Policy::cp_sd());
    let mut d = ConstSizeData::new(20);
    c.insert(0, 77, false, ReuseClass::None, &mut d);
    let written = c.stats().nvm_bytes_written;
    c.insert(1, 77, false, ReuseClass::None, &mut d);
    assert_eq!(
        c.stats().nvm_bytes_written,
        written,
        "silent LRU refresh expected"
    );
    assert_eq!(c.stats().nvm_inserts, 1);
}

#[test]
fn dirty_reinsert_overwrites_stale_copy() {
    let mut c = llc(Policy::cp_sd());
    let mut d = ConstSizeData::new(20);
    c.insert(0, 77, false, ReuseClass::None, &mut d);
    c.insert(1, 77, true, ReuseClass::Write, &mut d);
    assert!(c.contains(77));
    assert!(c.peek(77).unwrap().dirty);
    // Write-reuse dirty data landed in SRAM; only one copy exists.
    assert_eq!(c.locate(77), Some(Part::Sram));
}

#[test]
fn nvm_hit_reports_compression_latency_flag() {
    let mut c = llc(Policy::cp_sd());
    let mut d = ConstSizeData::new(20);
    c.insert(0, 4, false, ReuseClass::None, &mut d); // set 4: CP_th 58 -> NVM
    let r = c.request(1, 4, LlcReq::GetS);
    assert!(r.nvm && r.compressed);

    let mut bh = llc(Policy::Bh);
    let mut d64 = ConstSizeData::new(64);
    for i in 0..16 {
        bh.insert(0, set0_block(i), false, ReuseClass::None, &mut d64);
    }
    // Find one NVM-resident block; its hits must not claim compression.
    let nvm_block = (0..16)
        .map(set0_block)
        .find(|&b| bh.locate(b) == Some(Part::Nvm))
        .unwrap();
    let r = bh.request(1, nvm_block, LlcReq::GetS);
    assert!(r.nvm && !r.compressed);
}

#[test]
fn dirty_evictions_write_back_to_memory() {
    let mut c = llc(Policy::LHybrid);
    let mut d = ConstSizeData::new(64);
    for i in 0..5 {
        c.insert(0, set0_block(i), true, ReuseClass::None, &mut d);
    }
    // 5 dirty NLBs through 4 SRAM ways: one dirty eviction.
    assert_eq!(c.stats().writebacks, 1);
}

#[test]
fn sram_only_bound_works_without_nvm() {
    let cfg = HybridConfig::new(32, 16, 0, Policy::Bh);
    let mut c = HybridLlc::new(&cfg);
    let mut d = ConstSizeData::new(64);
    for i in 0..17 {
        c.insert(0, set0_block(i), false, ReuseClass::None, &mut d);
    }
    assert!(!c.contains(set0_block(0)));
    assert_eq!(c.stats().sram_inserts, 17);
    assert_eq!(c.stats().nvm_inserts, 0);
    assert_eq!(c.capacity_fraction(), 1.0);
}

#[test]
fn fully_dead_set_bypasses() {
    let cfg = HybridConfig::new(32, 0, 12, Policy::Ca { cp_th: 64 });
    let mut c = HybridLlc::new(&cfg);
    for way in 0..12 {
        c.array_mut().unwrap().disable_frame(0, way);
    }
    let mut d = ConstSizeData::new(20);
    c.insert(0, set0_block(1), true, ReuseClass::None, &mut d);
    assert!(!c.contains(set0_block(1)));
    assert_eq!(c.stats().bypasses, 1);
    assert_eq!(c.stats().writebacks, 1);
}

#[test]
fn stats_reset_preserves_contents_and_wear() {
    let mut c = llc(Policy::cp_sd());
    let mut d = ConstSizeData::new(20);
    c.insert(0, 4, false, ReuseClass::None, &mut d);
    c.reset_stats();
    assert_eq!(c.stats().nvm_bytes_written, 0);
    assert!(c.contains(4));
}

#[test]
fn capacity_fraction_reflects_degradation() {
    let mut c = llc(Policy::cp_sd());
    assert_eq!(c.capacity_fraction(), 1.0);
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    c.array_mut().unwrap().degrade_to(0.8, &mut rng);
    assert!(c.capacity_fraction() <= 0.8);
}
