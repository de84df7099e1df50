//! Property-based tests of the hybrid LLC's structural invariants, plus a
//! reference-model equivalence check: BH on a fresh cache must behave as a
//! textbook 16-way LRU.

use std::collections::BTreeMap;

use hllc_core::{HybridConfig, HybridLlc, Policy};
use hllc_sim::{DataModel, LlcPort, LlcReq, ReuseClass};
use proptest::prelude::*;

const SETS: usize = 8;

/// Data model mapping block → size from the hash of the block address.
struct HashSizeData;

impl DataModel for HashSizeData {
    fn compressed_size(&mut self, block: u64) -> u8 {
        // Sticky pseudo-random size in 1..=64.
        let h = block.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58;
        [
            1u8, 8, 15, 19, 22, 29, 33, 34, 36, 43, 49, 50, 57, 64, 64, 64,
        ][h as usize % 16]
    }
}

#[derive(Clone, Copy, Debug)]
enum OpKind {
    InsertClean,
    InsertDirty,
    InsertRead,
    InsertWriteDirty,
    GetS,
    GetX,
}

fn arb_ops() -> impl Strategy<Value = Vec<(OpKind, u64)>> {
    let op = prop_oneof![
        Just(OpKind::InsertClean),
        Just(OpKind::InsertDirty),
        Just(OpKind::InsertRead),
        Just(OpKind::InsertWriteDirty),
        Just(OpKind::GetS),
        Just(OpKind::GetX),
    ];
    prop::collection::vec((op, 0u64..64), 1..400)
}

fn arb_policy() -> impl Strategy<Value = Policy> {
    prop_oneof![
        Just(Policy::Bh),
        Just(Policy::BhCp),
        Just(Policy::Ca { cp_th: 37 }),
        Just(Policy::CaRwr { cp_th: 58 }),
        Just(Policy::cp_sd()),
        Just(Policy::cp_sd_th(8.0)),
        Just(Policy::LHybrid),
        Just(Policy::tap()),
    ]
}

fn apply(llc: &mut HybridLlc, now: u64, op: OpKind, block: u64, data: &mut HashSizeData) {
    match op {
        OpKind::InsertClean => llc.insert(now, block, false, ReuseClass::None, data),
        OpKind::InsertDirty => llc.insert(now, block, true, ReuseClass::None, data),
        OpKind::InsertRead => llc.insert(now, block, false, ReuseClass::Read, data),
        OpKind::InsertWriteDirty => llc.insert(now, block, true, ReuseClass::Write, data),
        OpKind::GetS => {
            let _ = llc.request(now, block, LlcReq::GetS);
        }
        OpKind::GetX => {
            let _ = llc.request(now, block, LlcReq::GetX);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Structural invariants hold for every policy under arbitrary
    /// operation sequences.
    #[test]
    fn invariants_hold(policy in arb_policy(), ops in arb_ops()) {
        let cfg = HybridConfig::new(SETS, 4, 12, policy);
        let mut llc = HybridLlc::new(&cfg);
        let mut data = HashSizeData;
        for (now, (op, block)) in ops.iter().enumerate() {
            apply(&mut llc, now as u64, *op, *block, &mut data);

            // A resident block is found exactly once.
            if llc.contains(*block) {
                prop_assert!(llc.locate(*block).is_some());
                let line = llc.peek(*block).unwrap();
                prop_assert_eq!(line.block, *block);
                prop_assert!(line.cb_size >= 1 && line.cb_size <= 64);
            }
        }
        let s = llc.stats();
        prop_assert_eq!(s.hits + s.misses, s.gets + s.getx);
        prop_assert_eq!(s.hits, s.sram_hits + s.nvm_hits);
        prop_assert!(s.migrations <= s.nvm_inserts);
    }

    /// A `GetX` hit always invalidates; a subsequent `GetS` misses.
    #[test]
    fn getx_invalidate(policy in arb_policy(), block in 0u64..64) {
        let cfg = HybridConfig::new(SETS, 4, 12, policy);
        let mut llc = HybridLlc::new(&cfg);
        let mut data = HashSizeData;
        llc.insert(0, block, false, ReuseClass::None, &mut data);
        prop_assume!(llc.contains(block)); // could have bypassed in odd configs
        let r = llc.request(1, block, LlcReq::GetX);
        prop_assert!(r.hit);
        prop_assert!(!llc.contains(block));
        prop_assert!(!llc.request(2, block, LlcReq::GetS).hit);
    }

    /// On a fresh (fault-free) cache, BH is exactly a 16-way LRU: the same
    /// hit/miss sequence as a reference model.
    #[test]
    fn bh_matches_reference_lru(ops in arb_ops()) {
        let cfg = HybridConfig::new(SETS, 4, 12, Policy::Bh);
        let mut llc = HybridLlc::new(&cfg);
        let mut data = HashSizeData;

        // Reference: per-set LRU lists of capacity 16.
        let mut model: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
        let touch = |model: &mut BTreeMap<usize, Vec<u64>>, block: u64| -> bool {
            let set = (block as usize) % SETS;
            let list = model.entry(set).or_default();
            if let Some(pos) = list.iter().position(|&b| b == block) {
                list.remove(pos);
                list.push(block);
                true
            } else {
                false
            }
        };

        for (now, (op, block)) in ops.iter().enumerate() {
            let now = now as u64;
            match op {
                OpKind::InsertClean | OpKind::InsertDirty
                | OpKind::InsertRead | OpKind::InsertWriteDirty => {
                    let dirty = matches!(op, OpKind::InsertDirty | OpKind::InsertWriteDirty);
                    llc.insert(now, *block, dirty, ReuseClass::None, &mut data);
                    // Model: refresh if present, else insert with LRU evict.
                    if !touch(&mut model, *block) {
                        let set = (*block as usize) % SETS;
                        let list = model.entry(set).or_default();
                        if list.len() == 16 {
                            list.remove(0);
                        }
                        list.push(*block);
                    }
                }
                OpKind::GetS => {
                    let r = llc.request(now, *block, LlcReq::GetS);
                    let model_hit = touch(&mut model, *block);
                    prop_assert_eq!(r.hit, model_hit, "GetS divergence on block {}", block);
                }
                OpKind::GetX => {
                    let r = llc.request(now, *block, LlcReq::GetX);
                    let set = (*block as usize) % SETS;
                    let list = model.entry(set).or_default();
                    let model_hit = list.iter().position(|&b| b == *block).map(|p| {
                        list.remove(p);
                    });
                    prop_assert_eq!(r.hit, model_hit.is_some(), "GetX divergence on block {}", block);
                }
            }
        }
        // Final contents agree.
        for (set, list) in &model {
            for &b in list {
                prop_assert!(llc.contains(b), "model has {b} in set {set}, LLC does not");
            }
        }
    }
}
