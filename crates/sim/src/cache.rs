//! A generic set-associative cache with true-LRU replacement, used for the
//! private L1 and L2 levels. It keeps no dirty bit: the hierarchy reads
//! dirtiness from the L2 coherence state in the caller metadata.

use crate::address::set_index;

/// One valid cache entry carrying caller-defined metadata `T`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Entry<T> {
    /// Block address stored in this entry.
    pub block: u64,
    /// Caller metadata (e.g. coherence state, reuse tag).
    pub aux: T,
    lru: u64,
}

/// A block evicted by [`Cache::insert`] or removed by [`Cache::invalidate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Evicted<T> {
    /// Block address of the victim.
    pub block: u64,
    /// Caller metadata of the victim.
    pub aux: T,
}

/// Set-associative cache of block addresses with per-set LRU.
///
/// # Example
///
/// ```
/// use hllc_sim::Cache;
///
/// let mut c: Cache<()> = Cache::new(2, 2);
/// assert!(c.insert(0, ()).is_none());
/// assert!(c.lookup(0).is_some());
/// ```
#[derive(Clone, Debug)]
pub struct Cache<T> {
    sets: usize,
    ways: usize,
    entries: Vec<Option<Entry<T>>>,
    stamp: u64,
}

impl<T> Cache<T> {
    /// Creates an empty cache with `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `ways` is zero.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(ways > 0, "cache must have at least one way");
        Cache {
            sets,
            ways,
            entries: (0..sets * ways).map(|_| None).collect(),
            stamp: 0,
        }
    }

    fn set_range(&self, block: u64) -> std::ops::Range<usize> {
        let s = set_index(block, self.sets);
        s * self.ways..(s + 1) * self.ways
    }

    /// Looks a block up, updating LRU order. Returns the entry on a hit.
    pub fn lookup(&mut self, block: u64) -> Option<&mut Entry<T>> {
        self.stamp += 1;
        let stamp = self.stamp;
        let range = self.set_range(block);
        // range is in bounds: set_index(_, sets) < sets, len == sets * ways.
        let e = self.entries[range]
            .iter_mut()
            .flatten()
            .find(|e| e.block == block)?;
        e.lru = stamp;
        Some(e)
    }

    /// Mutable access to a block's entry without touching LRU order — for
    /// coherence actions (downgrades) performed *on* a cache rather than
    /// *by* it.
    pub fn entry_mut(&mut self, block: u64) -> Option<&mut Entry<T>> {
        // set_range is in bounds (see `lookup`).
        let range = self.set_range(block);
        self.entries[range]
            .iter_mut()
            .flatten()
            .find(|e| e.block == block)
    }

    /// Looks a block up without touching LRU order.
    pub fn peek(&self, block: u64) -> Option<&Entry<T>> {
        let range = self.set_range(block);
        self.entries[range]
            .iter()
            .flatten()
            .find(|e| e.block == block)
    }

    /// Inserts a block (which must not already be present), evicting the
    /// set's LRU entry if the set is full. Returns the victim, if any.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the block is already present.
    pub fn insert(&mut self, block: u64, aux: T) -> Option<Evicted<T>> {
        debug_assert!(
            self.peek(block).is_none(),
            "block {block:#x} already present"
        );
        self.stamp += 1;
        let stamp = self.stamp;
        let range = self.set_range(block);

        // Prefer an invalid way; otherwise evict the LRU entry.
        let mut victim_idx = range.start;
        let mut victim_lru = u64::MAX;
        for i in range.clone() {
            // i ranges over the set's ways (range ⊆ entries).
            match &self.entries[i] {
                None => {
                    victim_idx = i;
                    break;
                }
                Some(e) if e.lru < victim_lru => {
                    victim_idx = i;
                    victim_lru = e.lru;
                }
                Some(_) => {}
            }
        }

        // victim_idx was chosen inside `range`, so it is in bounds.
        let evicted = self.entries[victim_idx].take().map(|e| Evicted {
            block: e.block,
            aux: e.aux,
        });
        self.entries[victim_idx] = Some(Entry {
            block,
            aux,
            lru: stamp,
        });
        evicted
    }

    /// Removes a block if present, returning it.
    pub fn invalidate(&mut self, block: u64) -> Option<Evicted<T>> {
        let range = self.set_range(block);
        for i in range {
            // i ranges over the set's ways (range ⊆ entries).
            if let Some(e) = self.entries[i].take_if(|e| e.block == block) {
                return Some(Evicted {
                    block: e.block,
                    aux: e.aux,
                });
            }
        }
        None
    }

    /// True if the block is cached.
    pub fn contains(&self, block: u64) -> bool {
        self.peek(block).is_some()
    }

    /// Number of valid entries (diagnostics).
    pub fn occupancy(&self) -> usize {
        self.entries.iter().flatten().count()
    }

    /// Iterates over all valid entries.
    pub fn iter(&self) -> impl Iterator<Item = &Entry<T>> {
        self.entries.iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert() {
        let mut c: Cache<u8> = Cache::new(4, 2);
        c.insert(100, 7);
        let e = c.lookup(100).expect("hit");
        assert_eq!(e.aux, 7);
    }

    #[test]
    fn lru_eviction_order() {
        // One set, two ways: fill a, b; touch a; inserting c evicts b.
        let mut c: Cache<()> = Cache::new(1, 2);
        c.insert(1, ());
        c.insert(2, ());
        c.lookup(1);
        let victim = c.insert(3, ()).expect("eviction");
        assert_eq!(victim.block, 2);
        assert!(c.contains(1) && c.contains(3));
    }

    #[test]
    fn victim_carries_its_metadata() {
        let mut c: Cache<u8> = Cache::new(1, 1);
        c.insert(5, 3);
        let v = c.insert(9, 4).unwrap();
        assert_eq!((v.block, v.aux), (5, 3));
    }

    #[test]
    fn invalidate_removes() {
        let mut c: Cache<()> = Cache::new(2, 2);
        c.insert(4, ());
        let v = c.invalidate(4).unwrap();
        assert_eq!(v.block, 4);
        assert!(!c.contains(4));
        assert!(c.invalidate(4).is_none());
    }

    #[test]
    fn sets_are_independent() {
        let mut c: Cache<()> = Cache::new(2, 1);
        c.insert(0, ()); // set 0
        c.insert(1, ()); // set 1
        assert!(c.insert(3, ()).is_some()); // set 1 again -> evicts 1
        assert!(c.contains(0));
        assert_eq!(c.occupancy(), 2);
    }

    #[test]
    fn empty_ways_used_before_eviction() {
        let mut c: Cache<()> = Cache::new(1, 4);
        for b in 0..4 {
            assert!(c.insert(b, ()).is_none());
        }
        assert!(c.insert(4, ()).is_some());
    }

    #[test]
    fn peek_does_not_affect_lru() {
        let mut c: Cache<()> = Cache::new(1, 2);
        c.insert(1, ());
        c.insert(2, ());
        let _ = c.peek(1); // must not refresh 1
        let victim = c.insert(3, ()).unwrap();
        assert_eq!(victim.block, 1);
    }
}
