//! Property-based equivalence of the generic set-associative cache against
//! a reference LRU model.

use hllc_sim::Cache;
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Clone, Copy, Debug)]
enum Op {
    Lookup(u64),
    Insert(u64),
    Invalidate(u64),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        (0u64..64).prop_map(Op::Lookup),
        (0u64..64).prop_map(Op::Insert),
        (0u64..64).prop_map(Op::Invalidate),
    ];
    prop::collection::vec(op, 1..300)
}

/// Reference: per-set vectors of blocks in LRU order (front = LRU).
#[derive(Default)]
struct Model {
    sets: usize,
    ways: usize,
    lists: HashMap<usize, Vec<u64>>,
}

impl Model {
    fn new(sets: usize, ways: usize) -> Self {
        Model {
            sets,
            ways,
            lists: HashMap::new(),
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
                    let hit = cache.lookup(b).is_some();
                    prop_assert_eq!(hit, model.lookup(b), "lookup({}) diverged", b);
                }
                Op::Insert(b) => {
                    if cache.contains(b) {
                        // The cache's insert requires absence; refresh instead
                        // (mirrors how the hierarchy uses it).
                        cache.lookup(b);
                        model.lookup(b);
                        continue;
                    }
                    let victim = cache.insert(b, ()).map(|v| v.block);
                    prop_assert_eq!(victim, model.insert(b), "insert({}) victims diverged", b);
                }
                Op::Invalidate(b) => {
                    let got = cache.invalidate(b).map(|e| e.block);
                    prop_assert_eq!(got, model.invalidate(b), "invalidate({}) diverged", b);
                }
            }
        }

        // Final occupancy agrees.
        let model_occupancy: usize = model.lists.values().map(|l| l.len()).sum();
        prop_assert_eq!(cache.occupancy(), model_occupancy);
    }
}
