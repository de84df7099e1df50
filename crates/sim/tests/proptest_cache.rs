//! Property-based equivalence of the generic set-associative cache against
//! a reference LRU model.
//!
//! Blocks come from four high-bit regions (like the per-app address slots
//! of a mix), so the cache's address signature both rejects blocks outright
//! and admits them to a full scan; `peek`/`contains` are checked against
//! the model after every operation either way.

use hllc_sim::Cache;
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug)]
enum Op {
    Lookup(u64),
    Insert(u64),
    /// A lookup that misses, then a `fill` of the slot it returned.
    LookupFill(u64),
    Invalidate(u64),
}

/// Bit where a block's region starts (the app slot bit of a block address).
const REGION_SHIFT: u32 = 34;

fn arb_block() -> impl Strategy<Value = u64> {
    (0u64..64, 0u64..4).prop_map(|(b, region)| b | region << REGION_SHIFT)
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        arb_block().prop_map(Op::Lookup),
        arb_block().prop_map(Op::Insert),
        arb_block().prop_map(Op::LookupFill),
        arb_block().prop_map(Op::Invalidate),
    ];
    prop::collection::vec(op, 1..300)
}

/// Reference: per-set vectors of blocks in LRU order (front = LRU).
#[derive(Default)]
struct Model {
    sets: usize,
    ways: usize,
    lists: BTreeMap<usize, Vec<u64>>,
}

impl Model {
    fn new(sets: usize, ways: usize) -> Self {
        Model {
            sets,
            ways,
            lists: BTreeMap::new(),
        }
    }

    fn set_of(&self, block: u64) -> usize {
        (block as usize) % self.sets
    }

    fn lookup(&mut self, block: u64) -> bool {
        let set = self.set_of(block);
        let list = self.lists.entry(set).or_default();
        if let Some(pos) = list.iter().position(|&b| b == block) {
            let e = list.remove(pos);
            list.push(e);
            true
        } else {
            false
        }
    }

    fn insert(&mut self, block: u64) -> Option<u64> {
        let ways = self.ways;
        let set = self.set_of(block);
        let list = self.lists.entry(set).or_default();
        let victim = if list.len() == ways {
            Some(list.remove(0))
        } else {
            None
        };
        list.push(block);
        victim
    }

    fn contains(&self, block: u64) -> bool {
        self.lists
            .get(&self.set_of(block))
            .is_some_and(|l| l.contains(&block))
    }

    fn invalidate(&mut self, block: u64) -> Option<u64> {
        let set = self.set_of(block);
        let list = self.lists.entry(set).or_default();
        list.iter()
            .position(|&b| b == block)
            .map(|p| list.remove(p))
    }
}

proptest! {
    #[test]
    fn cache_matches_reference_lru(ops in arb_ops(), sets_log in 0u32..3, ways in 1usize..5) {
        let sets = 1usize << sets_log;
        let mut cache: Cache<()> = Cache::new(sets, ways);
        let mut model = Model::new(sets, ways);

        for op in ops {
            match op {
                Op::Lookup(b) => {
                    let hit = cache.lookup(b).is_ok();
                    prop_assert_eq!(hit, model.lookup(b), "lookup({}) diverged", b);
                }
                Op::Insert(b) | Op::LookupFill(b) if cache.contains(b) => {
                    // Insert and fill require absence; refresh instead
                    // (mirrors how the hierarchy uses them).
                    prop_assert!(cache.lookup(b).is_ok());
                    model.lookup(b);
                }
                Op::Insert(b) => {
                    let victim = cache.insert(b, ()).map(|v| v.block);
                    prop_assert_eq!(victim, model.insert(b), "insert({}) victims diverged", b);
                }
                Op::LookupFill(b) => {
                    // The same placement as `insert` on an identical copy.
                    let mut twin = cache.clone();
                    let inserted = twin.insert(b, ()).map(|v| v.block);
                    let slot = match cache.lookup(b) {
                        Ok(_) => return Err(TestCaseError::fail(format!("{b} was present"))),
                        Err(slot) => slot,
                    };
                    let filled = cache.fill(slot, b, ()).map(|v| v.block);
                    prop_assert_eq!(filled, inserted, "fill({}) and insert victims differ", b);
                    let ways: Vec<u64> = cache.iter().map(|e| e.block).collect();
                    let twin_ways: Vec<u64> = twin.iter().map(|e| e.block).collect();
                    prop_assert_eq!(ways, twin_ways, "fill({}) and insert placements differ", b);
                    prop_assert_eq!(filled, model.insert(b), "fill({}) victims diverged", b);
                }
                Op::Invalidate(b) => {
                    let got = cache.invalidate(b).map(|e| e.block);
                    prop_assert_eq!(got, model.invalidate(b), "invalidate({}) diverged", b);
                }
            }
            // Contents agree, and so do `peek`/`contains` for the block in
            // every region: rejected by the signature or scanned.
            let mut held: Vec<u64> = cache.iter().map(|e| e.block).collect();
            let mut expected: Vec<u64> = model.lists.values().flatten().copied().collect();
            held.sort_unstable();
            expected.sort_unstable();
            prop_assert_eq!(held, expected, "contents diverged after {:?}", op);
            let low = match op {
                Op::Lookup(b) | Op::Insert(b) | Op::LookupFill(b) | Op::Invalidate(b) => {
                    b & !(3 << REGION_SHIFT)
                }
            };
            for probe in (0..4u64).map(|r| low | r << REGION_SHIFT) {
                let held = model.contains(probe);
                prop_assert_eq!(cache.contains(probe), held, "contains({}) after {:?}", probe, op);
                prop_assert_eq!(cache.peek(probe).is_some(), held, "peek({}) after {:?}", probe, op);
            }
        }

        // Final occupancy agrees.
        let model_occupancy: usize = model.lists.values().map(|l| l.len()).sum();
        prop_assert_eq!(cache.occupancy(), model_occupancy);
    }
}
