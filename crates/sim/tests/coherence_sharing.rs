//! Cross-core sharing with no sharer directory: the hierarchy finds the
//! remote holders by probing the peer L2s. Covers cache-to-cache
//! transfers, invalidate-on-write, and the single-owner invariant, also
//! when private slot-disjoint traffic (which each peer L2's address
//! signature rejects without a scan) surrounds the shared blocks.

use hllc_sim::{Access, ConstSizeData, Hierarchy, LlcPort, NullLlc, SystemConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn cfg(cores: usize) -> SystemConfig {
    let mut cfg = SystemConfig::paper_default();
    cfg.cores = cores;
    cfg.l1_sets = 2;
    cfg.l1_ways = 2;
    cfg.l2_sets = 4;
    cfg.l2_ways = 2;
    cfg
}

fn h(cores: usize) -> Hierarchy<NullLlc, ConstSizeData> {
    Hierarchy::new(&cfg(cores), NullLlc::default(), ConstSizeData::new(64))
}

const REMOTE_SLOT: usize = 6;

/// Byte-address bit of the per-app address slot, as in the trace crate.
const ADDR_SLOT_SHIFT: u32 = 40;

/// An address slot no core owns privately.
const SHARED_SLOT: u64 = 31;

#[test]
fn second_reader_gets_cache_to_cache_transfer() {
    let mut h = h(2);
    h.access(&Access::load(0, 0x80)); // core 0: memory fill (E)
    h.access(&Access::load(1, 0x80)); // core 1: remote transfer
    assert_eq!(h.stats().services[5], 1, "one memory fill");
    assert_eq!(h.stats().services[REMOTE_SLOT], 1, "one remote transfer");
    h.assert_coherent();
    // Both can now read locally.
    h.access(&Access::load(0, 0x80));
    h.access(&Access::load(1, 0x80));
    assert_eq!(h.stats().services[0], 2, "both L1 hit afterwards");
}

#[test]
fn reading_a_remote_dirty_block_writes_it_back() {
    let mut h = h(2);
    h.access(&Access::store(0, 0x80)); // core 0 owns dirty data (M)
    h.access(&Access::load(1, 0x80)); // core 1 reads: transfer + LLC writeback
                                      // The dirty data was handed to the (Null) LLC: one insert with dirty,
                                      // which NullLlc counts as a writeback.
    assert_eq!(h.llc().stats().writebacks, 1);
    h.assert_coherent();
    // Core 0 still has a (now clean, shared) copy.
    h.access(&Access::load(0, 0x80));
    assert_eq!(h.stats().services[0], 1);
}

#[test]
fn writer_invalidates_all_readers() {
    let mut h = h(3);
    for core in 0..3 {
        h.access(&Access::load(core, 0x100));
    }
    h.assert_coherent();
    // Core 2 writes: cores 0 and 1 lose their copies.
    h.access(&Access::store(2, 0x100));
    assert_eq!(h.stats().remote_invalidations, 2);
    h.assert_coherent();
    // A reader must re-fetch (remote transfer from the new owner).
    let before = h.stats().services[REMOTE_SLOT];
    h.access(&Access::load(0, 0x100));
    assert_eq!(h.stats().services[REMOTE_SLOT], before + 1);
    h.assert_coherent();
}

#[test]
fn upgrade_from_shared_invalidates_peers() {
    let mut h = h(2);
    h.access(&Access::load(0, 0x40));
    h.access(&Access::load(1, 0x40)); // both S
    h.assert_coherent();
    // Core 0 writes its L1-resident shared copy: upgrade path.
    h.access(&Access::store(0, 0x40));
    assert_eq!(h.stats().remote_invalidations, 1);
    assert_eq!(h.stats().upgrades, 1);
    h.assert_coherent();
    // Core 1's next read cannot be a local hit.
    let l1_hits = h.stats().services[0];
    h.access(&Access::load(1, 0x40));
    assert_eq!(h.stats().services[0], l1_hits, "core 1's copy must be gone");
}

#[test]
fn ping_pong_writes_stay_coherent() {
    let mut h = h(2);
    for i in 0..20 {
        let core = (i % 2) as u8;
        h.access(&Access::store(core, 0x200));
        h.assert_coherent();
    }
    // Exactly one core holds the block (M); 19 of the 20 stores invalidated
    // the other side.
    assert_eq!(h.stats().remote_invalidations, 19);
}

/// Random loads and stores from `cores` cores over a few shared blocks,
/// checking the coherence invariants after every access.
fn random_sharing_traffic(cores: u8) {
    let mut h = h(usize::from(cores));
    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..3_000 {
        let core = rng.gen_range(0..cores);
        let addr = u64::from(rng.gen_range(0..24u8)) * 64; // heavy sharing
        if rng.gen_bool(0.3) {
            h.access(&Access::store(core, addr));
        } else {
            h.access(&Access::load(core, addr));
        }
        h.assert_coherent();
    }
    assert!(h.stats().remote_invalidations > 0, "{cores} cores");
    assert!(h.stats().services[REMOTE_SLOT] > 0, "{cores} cores");
}

#[test]
fn random_sharing_traffic_maintains_invariants() {
    for cores in [2, 4, 12, 16] {
        random_sharing_traffic(cores);
    }
}

#[test]
fn disjoint_workloads_never_find_a_remote_holder() {
    let mut h = h(2);
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..2_000 {
        let core = rng.gen_range(0..2u8);
        // Disjoint address spaces per core, like the real workloads.
        let addr = (u64::from(core) << 40) | (u64::from(rng.gen_range(0..64u8)) * 64);
        if rng.gen_bool(0.3) {
            h.access(&Access::store(core, addr));
        } else {
            h.access(&Access::load(core, addr));
        }
    }
    h.assert_coherent();
    assert_eq!(h.stats().remote_invalidations, 0);
    assert_eq!(h.stats().services[REMOTE_SLOT], 0);
}

/// Each core streams blocks of its own address slot, as the paper's mixes
/// do, and now and then touches a small region every core shares, in a
/// slot no core owns. The peer probe's address signatures reject the
/// private blocks; they must still let every holder of a shared block be
/// found.
fn private_and_shared_traffic(cores: u8) {
    let mut h = h(usize::from(cores));
    let mut rng = StdRng::seed_from_u64(2024);
    for _ in 0..4_000 {
        let core = rng.gen_range(0..cores);
        let (slot, blocks) = if rng.gen_bool(0.25) {
            (SHARED_SLOT, 8u64)
        } else {
            (u64::from(core), 32)
        };
        let addr = (slot << ADDR_SLOT_SHIFT) | (rng.gen_range(0..blocks) * 64);
        if rng.gen_bool(0.3) {
            h.access(&Access::store(core, addr));
        } else {
            h.access(&Access::load(core, addr));
        }
        h.assert_coherent();
    }
    assert!(h.stats().remote_invalidations > 0, "{cores} cores");
    assert!(h.stats().services[REMOTE_SLOT] > 0, "{cores} cores");
}

#[test]
fn slot_disjoint_traffic_around_a_shared_region_stays_coherent() {
    for cores in [4, 16] {
        private_and_shared_traffic(cores);
    }
}

#[test]
fn a_holder_is_found_after_its_copy_was_evicted_and_refilled() {
    let mut h = h(2);
    // Block 2 of the shared slot maps to L2 set 2 (4 sets, 2 ways).
    let shared = (SHARED_SLOT << ADDR_SLOT_SHIFT) | (2 * 64);
    h.access(&Access::load(1, shared));
    // Two private blocks of core 1 in the same set evict the shared one.
    for i in [6u64, 10] {
        h.access(&Access::load(1, (1 << ADDR_SLOT_SHIFT) | (i * 64)));
    }
    h.access(&Access::load(1, shared)); // refilled from memory (E)
    assert_eq!(h.stats().services[5], 4, "four memory fills");
    // Core 0's store must find core 1's copy and invalidate it.
    h.access(&Access::store(0, shared));
    assert_eq!(h.stats().remote_invalidations, 1);
    assert_eq!(h.stats().services[REMOTE_SLOT], 1);
    h.assert_coherent();
}
