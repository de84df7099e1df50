//! A generic set-associative cache with true-LRU replacement, used for the
//! private L1 and L2 levels. It keeps no dirty bit: the hierarchy reads
//! dirtiness from the L2 coherence state in the caller metadata.
//!
//! # One scan per set
//!
//! Every operation reaches a set through one routine, `scan`, which finds
//! the block's way and, in the same pass, the way a fill would take (the
//! first empty way, else the smallest LRU stamp). [`Cache::lookup`] hands
//! that victim slot to the caller on a miss, and [`Cache::fill`] places the
//! missed block there without scanning again; [`Cache::insert`] is the two
//! steps back to back.
//!
//! # Address signature
//!
//! The cache also keeps the OR and the AND of every block it has ever
//! placed. A block with a 1 bit where no placed block had one, or a 0 bit
//! where every placed block had a 1, was never placed and so cannot be
//! resident: [`Cache::peek`], [`Cache::entry_mut`], [`Cache::invalidate`]
//! and [`Cache::contains`] answer it without scanning. The signature
//! summarizes history, not contents, so evictions and invalidations leave
//! it alone and it never hides a resident block. For the hierarchy's peer
//! probe on slot-disjoint workloads (each app in its own high-bit address
//! slot) every peer L2 rejects the block on these two word tests.

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

/// A block evicted by [`Cache::fill`] or removed by [`Cache::invalidate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Evicted<T> {
    /// Block address of the victim.
    pub block: u64,
    /// Caller metadata of the victim.
    pub aux: T,
}

/// The way a missed block would be placed in, returned by a missing
/// [`Cache::lookup`] and consumed by [`Cache::fill`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Slot(usize);

/// Set-associative cache of block addresses with per-set LRU.
///
/// # Example
///
/// ```
/// use hllc_sim::Cache;
///
/// let mut c: Cache<()> = Cache::new(2, 2);
/// assert!(c.insert(0, ()).is_none());
/// assert!(c.lookup(0).is_ok());
/// let slot = c.lookup(2).unwrap_err(); // miss: the way a fill would take
/// assert!(c.fill(slot, 2, ()).is_none());
/// assert!(c.contains(2));
/// ```
#[derive(Clone, Debug)]
pub struct Cache<T> {
    sets: usize,
    ways: usize,
    entries: Vec<Option<Entry<T>>>,
    stamp: u64,
    /// OR of every block ever placed (the address signature).
    ever_or: u64,
    /// AND of every block ever placed (the address signature).
    ever_and: u64,
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
            ever_or: 0,
            ever_and: !0,
        }
    }

    /// Scans `block`'s set once: `Ok(index)` of its entry on a hit, else
    /// `Err(index)` of the victim way — the first empty way, otherwise the
    /// least recently used entry. This is the only placement rule.
    #[expect(clippy::indexing_slicing, reason = "set_index < sets, len sets * ways")]
    fn scan(&self, block: u64) -> Result<usize, usize> {
        let start = set_index(block, self.sets) * self.ways;
        let mut empty = None;
        let mut lru_way = 0;
        let mut lru_stamp = u64::MAX;
        for (way, slot) in self.entries[start..start + self.ways].iter().enumerate() {
            match slot {
                Some(e) if e.block == block => return Ok(start + way),
                Some(e) => {
                    if e.lru < lru_stamp {
                        lru_way = way;
                        lru_stamp = e.lru;
                    }
                }
                None => {
                    empty.get_or_insert(way);
                }
            }
        }
        Err(start + empty.unwrap_or(lru_way))
    }

    /// The index of `block`'s entry, answering from the address signature
    /// without a scan when the block was never placed.
    fn find(&self, block: u64) -> Option<usize> {
        let never_placed = (block & !self.ever_or) | (!block & self.ever_and) != 0;
        if never_placed {
            return None;
        }
        self.scan(block).ok()
    }

    /// Looks a block up, updating LRU order. Returns the entry on a hit, or
    /// on a miss the [`Slot`] a [`Cache::fill`] of the block would take.
    #[expect(clippy::indexing_slicing, reason = "scan's indices lie in the set")]
    pub fn lookup(&mut self, block: u64) -> Result<&mut Entry<T>, Slot> {
        self.stamp += 1;
        let stamp = self.stamp;
        let hit = self.scan(block).map_err(Slot)?;
        let e = self.entries[hit].as_mut().ok_or(Slot(hit))?;
        e.lru = stamp;
        Ok(e)
    }

    /// Mutable access to a block's entry without touching LRU order — for
    /// coherence actions (downgrades) performed *on* a cache rather than
    /// *by* it.
    #[expect(clippy::indexing_slicing, reason = "scan's indices lie in the set")]
    pub fn entry_mut(&mut self, block: u64) -> Option<&mut Entry<T>> {
        let i = self.find(block)?;
        self.entries[i].as_mut()
    }

    /// Looks a block up without touching LRU order.
    #[expect(clippy::indexing_slicing, reason = "scan's indices lie in the set")]
    pub fn peek(&self, block: u64) -> Option<&Entry<T>> {
        let i = self.find(block)?;
        self.entries[i].as_ref()
    }

    /// Places a block missed by [`Cache::lookup`] in the returned `slot`,
    /// evicting the entry there. Returns the victim, if any.
    ///
    /// The slot is exact only while the set is untouched: nothing may be
    /// placed in or removed from the block's set between the lookup and
    /// the fill.
    ///
    /// # Panics
    ///
    /// Panics if `slot` came from a cache with more entries; in debug
    /// builds, also if it lies outside the block's set.
    #[expect(clippy::indexing_slicing, reason = "scan's indices lie in the set")]
    pub fn fill(&mut self, slot: Slot, block: u64, aux: T) -> Option<Evicted<T>> {
        debug_assert_eq!(
            slot.0 / self.ways,
            set_index(block, self.sets),
            "slot lies outside block {block:#x}'s set"
        );
        self.stamp += 1;
        self.ever_or |= block;
        self.ever_and &= block;
        let entry = Entry {
            block,
            aux,
            lru: self.stamp,
        };
        self.entries[slot.0].replace(entry).map(|e| Evicted {
            block: e.block,
            aux: e.aux,
        })
    }

    /// Inserts a block (which must not already be present), evicting the
    /// set's LRU entry if the set is full. Returns the victim, if any.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the block is already present.
    pub fn insert(&mut self, block: u64, aux: T) -> Option<Evicted<T>> {
        let way = self.scan(block);
        debug_assert!(way.is_err(), "block {block:#x} already present");
        let (Ok(i) | Err(i)) = way;
        self.fill(Slot(i), block, aux)
    }

    /// Removes a block if present, returning it.
    #[expect(clippy::indexing_slicing, reason = "scan's indices lie in the set")]
    pub fn invalidate(&mut self, block: u64) -> Option<Evicted<T>> {
        let i = self.find(block)?;
        self.entries[i].take().map(|e| Evicted {
            block: e.block,
            aux: e.aux,
        })
    }

    /// True if the block is cached.
    pub fn contains(&self, block: u64) -> bool {
        self.find(block).is_some()
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
        let _ = c.lookup(1);
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
    fn missed_lookup_hands_insert_s_victim_to_fill() {
        let mut c: Cache<u8> = Cache::new(1, 2);
        c.insert(1, 1);
        c.insert(2, 2);
        let _ = c.lookup(1);
        let slot = c.lookup(3).unwrap_err();
        let victim = c.fill(slot, 3, 3).expect("eviction");
        assert_eq!((victim.block, victim.aux), (2, 2));
        assert!(c.contains(1) && c.contains(3));
    }

    #[test]
    fn signature_admits_a_block_evicted_and_refilled() {
        // One way; `a` and `b` differ in a high (address-slot) bit.
        let (a, b) = (5u64, 5 | 1 << 34);
        let mut c: Cache<()> = Cache::new(1, 1);
        c.insert(a, ());
        assert!(c.peek(b).is_none());
        assert_eq!(c.insert(b, ()).map(|v| v.block), Some(a));
        assert!(c.contains(b) && !c.contains(a));
        assert_eq!(c.insert(a, ()).map(|v| v.block), Some(b));
        assert!(c.contains(a) && c.peek(a).is_some());
        assert!(c.invalidate(a).is_some());
        assert!(c.entry_mut(a).is_none());
        assert!(c.insert(b, ()).is_none());
        assert!(c.contains(b) && c.entry_mut(b).is_some());
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
