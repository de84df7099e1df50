//! The reuse-tag round trip through the full hierarchy — the pathway the
//! CA_RWR/CP_SD policies depend on (§IV-B):
//!
//! 1. a block misses everywhere and fills L2 from memory (tag: none);
//! 2. its L2 eviction inserts it into the LLC (no reuse → steered by size);
//! 3. a later reload hits the LLC (`GetS`): the block is tagged read-reuse,
//!    the tag travels to L2 with the data;
//! 4. a store upgrades through the LLC (`GetX` hit): the LLC copy is
//!    invalidated and the tag becomes write-reuse;
//! 5. the next L2 eviction re-inserts the block as write-reuse → SRAM.

use hybrid_llc::llc::{HybridConfig, HybridLlc, Part, Policy};
use hybrid_llc::sim::{Access, ConstSizeData, Hierarchy, SystemConfig};
use hybrid_llc::LlcPort;

/// A tiny hierarchy where evictions are easy to force: 2-set L1/L2.
fn tiny() -> (SystemConfig, HybridConfig) {
    let mut system = SystemConfig::paper_default();
    system.cores = 1;
    system.l1_sets = 2;
    system.l1_ways = 1;
    system.l2_sets = 2;
    system.l2_ways = 2;
    let llc = HybridConfig::new(16, 4, 12, Policy::CaRwr { cp_th: 37 });
    (system, llc)
}

/// Byte address of a block landing in L2 set 0 and a chosen LLC set.
fn addr(i: u64) -> u64 {
    // L2 has 2 sets: even block addresses land in set 0. LLC has 16 sets.
    i * 2 * 64
}

#[test]
fn read_then_write_reuse_round_trip() {
    let (system, llc_cfg) = tiny();
    // A small-compressing block: no-reuse insertion goes to NVM.
    let mut h = Hierarchy::new(&system, HybridLlc::new(&llc_cfg), ConstSizeData::new(20));

    let target = addr(0);

    // (1) Fill from memory.
    h.access(&Access::load(0, target));
    assert!(!h.llc().contains(target / 64));

    // (2) Evict from L2 (two conflicting fills) → LLC insert, by size → NVM.
    h.access(&Access::load(0, addr(1)));
    h.access(&Access::load(0, addr(2)));
    assert_eq!(
        h.llc().locate(target / 64),
        Some(Part::Nvm),
        "no-reuse small block → NVM"
    );

    // (3) Reload: LLC GetS hit tags read-reuse; block stays in the LLC.
    h.access(&Access::load(0, target));
    assert_eq!(
        h.llc().peek(target / 64).unwrap().reuse,
        hybrid_llc::sim::ReuseClass::Read
    );

    // (4) Store: S→M upgrade goes through the LLC as GetX and invalidates.
    h.access(&Access::store(0, target));
    assert!(
        !h.llc().contains(target / 64),
        "GetX hit must invalidate the LLC copy"
    );

    // (5) Evict the now-dirty block from L2 again: write-reuse → SRAM.
    h.access(&Access::load(0, addr(3)));
    h.access(&Access::load(0, addr(4)));
    assert_eq!(
        h.llc().locate(target / 64),
        Some(Part::Sram),
        "write-reuse block must be steered to SRAM despite compressing well"
    );
    let line = h.llc().peek(target / 64).unwrap();
    assert!(line.dirty, "the dirty data travelled with the block");
    assert_eq!(h.llc().stats().getx, 1);
}

#[test]
fn read_reuse_blocks_return_to_nvm() {
    let (system, llc_cfg) = tiny();
    // Incompressible blocks: no-reuse → SRAM; read-reuse must override.
    let mut h = Hierarchy::new(&system, HybridLlc::new(&llc_cfg), ConstSizeData::new(64));
    let target = addr(0);

    h.access(&Access::load(0, target));
    h.access(&Access::load(0, addr(1)));
    h.access(&Access::load(0, addr(2)));
    assert_eq!(
        h.llc().locate(target / 64),
        Some(Part::Sram),
        "big no-reuse block → SRAM"
    );

    // Reload tags Read (clean hit) and keeps it resident.
    h.access(&Access::load(0, target));
    // Evict from L2 again: the clean copy is already in the LLC → LRU refresh
    // only; it remains wherever it is until SRAM replacement migrates it.
    h.access(&Access::load(0, addr(3)));
    h.access(&Access::load(0, addr(4)));
    let line = h.llc().peek(target / 64).expect("still resident");
    assert_eq!(line.reuse, hybrid_llc::sim::ReuseClass::Read);
}

#[test]
fn memory_refill_loses_history() {
    let (system, llc_cfg) = tiny();
    let mut h = Hierarchy::new(&system, HybridLlc::new(&llc_cfg), ConstSizeData::new(20));
    let target = addr(0);

    // Establish read reuse, then kick the block out of the LLC entirely by
    // flooding its set, and out of L2.
    h.access(&Access::load(0, target));
    h.access(&Access::load(0, addr(1)));
    h.access(&Access::load(0, addr(2)));
    h.access(&Access::load(0, target)); // Read tag
                                        // Flood LLC set 0 (blocks ≡ 0 mod 16 within the LLC) via direct inserts:
                                        // 16 conflicting L2-evicted blocks. LLC set of `target` is 0; blocks
                                        // addr(8k) map there (8k*2 % 16 == 0).
    for k in 1..40 {
        let a = addr(8 * k);
        h.access(&Access::load(0, a));
        h.access(&Access::load(0, addr(8 * k + 1)));
        h.access(&Access::load(0, addr(8 * k + 2)));
    }
    assert!(
        !h.llc().contains(target / 64),
        "flood must evict the target"
    );

    // Refill from memory: history gone, the block is no-reuse again.
    h.access(&Access::load(0, target));
    h.access(&Access::load(0, addr(1)));
    h.access(&Access::load(0, addr(2)));
    if let Some(line) = h.llc().peek(target / 64) {
        assert_eq!(line.reuse, hybrid_llc::sim::ReuseClass::None);
    }
}
