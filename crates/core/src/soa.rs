//! Struct-of-arrays backing store for the ways of the hybrid LLC: one
//! lane set holds every way of a set, SRAM ways first, so a way's part
//! follows from its index.
//!
//! The per-access hot path is dominated by way scans: a tag lookup on every
//! request and an LRU sweep on every insert. With an array-of-structs
//! `Vec<Option<LineState>>` each scan strides over ~40-byte entries and
//! touches every field; here the fields live in parallel flat arrays
//! indexed by `set * ways + way`, so a tag probe reads one 8-byte occupancy
//! word plus a contiguous run of 8-byte tags, and an LRU sweep reads only
//! the stamp lane. Occupancy is a per-set bitmask.
//!
//! [`LineState`] remains the API currency: lines are assembled from and
//! scattered back into the lanes at the edges, so policy code keeps reading
//! like the paper while the storage stays scan-friendly.

use hllc_sim::ReuseClass;

use crate::line::LineState;

/// Parallel per-way metadata lanes for `sets * ways` frames.
#[derive(Clone, Debug)]
pub(crate) struct WayArray {
    ways: usize,
    /// Per-set occupancy bitmask (bit `w` set ⇔ way `w` holds a line).
    valid: Vec<u64>,
    /// Block addresses.
    tags: Vec<u64>,
    /// LRU stamps (larger = more recently used), updated incrementally on
    /// hits — never recomputed set-wide.
    lru: Vec<u64>,
    /// Compressed block sizes at insertion time.
    cb_size: Vec<u8>,
    /// Packed dirty bit (bit 0) and reuse class (bits 1–2).
    meta: Vec<u8>,
}

const DIRTY_BIT: u8 = 1;
const REUSE_SHIFT: u8 = 1;

fn encode_reuse(reuse: ReuseClass) -> u8 {
    match reuse {
        ReuseClass::None => 0,
        ReuseClass::Read => 1,
        ReuseClass::Write => 2,
    }
}

fn decode_reuse(bits: u8) -> ReuseClass {
    match bits {
        1 => ReuseClass::Read,
        2 => ReuseClass::Write,
        _ => ReuseClass::None,
    }
}

impl WayArray {
    /// An empty array of `sets * ways` frames.
    ///
    /// # Panics
    ///
    /// Panics if `ways > 64` (the occupancy word is a `u64`).
    pub(crate) fn new(sets: usize, ways: usize) -> Self {
        assert!(ways <= 64, "WayArray supports at most 64 ways, got {ways}");
        WayArray {
            ways,
            valid: vec![0; sets],
            tags: vec![0; sets * ways],
            lru: vec![0; sets * ways],
            cb_size: vec![0; sets * ways],
            meta: vec![0; sets * ways],
        }
    }

    /// Ways per set.
    #[inline]
    pub(crate) fn ways(&self) -> usize {
        self.ways
    }

    #[inline]
    fn idx(&self, set: usize, way: usize) -> usize {
        debug_assert!(way < self.ways);
        set * self.ways + way
    }

    /// True if `way` of `set` holds a line.
    #[inline]
    #[expect(clippy::indexing_slicing, reason = "set < sets == valid.len()")]
    pub(crate) fn is_valid(&self, set: usize, way: usize) -> bool {
        self.valid[set] & (1u64 << way) != 0
    }

    /// The way holding `block` in `set`, if resident: one occupancy-word
    /// load plus a linear sweep over the set's contiguous tag lane.
    #[inline]
    #[expect(clippy::indexing_slicing, reason = "set < sets and way < ways")]
    pub(crate) fn find(&self, set: usize, block: u64) -> Option<usize> {
        let mask = self.valid[set];
        if mask == 0 {
            return None;
        }
        let base = set * self.ways;
        let tags = &self.tags[base..base + self.ways];
        for (way, &tag) in tags.iter().enumerate() {
            if tag == block && mask & (1u64 << way) != 0 {
                return Some(way);
            }
        }
        None
    }

    /// The LRU stamp of `way` (only meaningful when valid).
    #[inline]
    #[expect(clippy::indexing_slicing, reason = "set < sets and way < ways")]
    pub(crate) fn lru(&self, set: usize, way: usize) -> u64 {
        self.lru[self.idx(set, way)]
    }

    /// The occupancy word of `set` (bit `w` set ⇔ way `w` holds a line).
    #[inline]
    #[expect(clippy::indexing_slicing, reason = "set < sets == valid.len()")]
    pub(crate) fn valid_mask(&self, set: usize) -> u64 {
        self.valid[set]
    }

    /// The contiguous LRU-stamp lane of `set` — lets victim sweeps iterate
    /// a slice instead of paying an index computation per way.
    #[inline]
    #[expect(clippy::indexing_slicing, reason = "base + ways <= sets * ways")]
    pub(crate) fn lru_lane(&self, set: usize) -> &[u64] {
        let base = set * self.ways;
        &self.lru[base..base + self.ways]
    }

    /// Incrementally refreshes the LRU stamp of a resident line.
    #[inline]
    #[expect(clippy::indexing_slicing, reason = "set < sets and way < ways")]
    pub(crate) fn touch(&mut self, set: usize, way: usize, stamp: u64) {
        let i = self.idx(set, way);
        self.lru[i] = stamp;
    }

    /// Sets the reuse class of a resident line.
    #[inline]
    #[expect(clippy::indexing_slicing, reason = "set < sets and way < ways")]
    pub(crate) fn set_reuse(&mut self, set: usize, way: usize, reuse: ReuseClass) {
        let i = self.idx(set, way);
        self.meta[i] = (self.meta[i] & DIRTY_BIT) | (encode_reuse(reuse) << REUSE_SHIFT);
    }

    /// True if the resident line at `way` is dirty.
    #[inline]
    #[expect(clippy::indexing_slicing, reason = "set < sets and way < ways")]
    pub(crate) fn dirty(&self, set: usize, way: usize) -> bool {
        self.meta[self.idx(set, way)] & DIRTY_BIT != 0
    }

    /// The reuse class of the resident line at `way`.
    #[inline]
    #[expect(clippy::indexing_slicing, reason = "set < sets and way < ways")]
    pub(crate) fn reuse(&self, set: usize, way: usize) -> ReuseClass {
        decode_reuse(self.meta[self.idx(set, way)] >> REUSE_SHIFT)
    }

    /// The compressed size of the resident line at `way`.
    #[inline]
    #[expect(clippy::indexing_slicing, reason = "set < sets and way < ways")]
    pub(crate) fn cb_size(&self, set: usize, way: usize) -> u8 {
        self.cb_size[self.idx(set, way)]
    }

    /// Gathers the lanes of `way` back into a [`LineState`], or `None` if
    /// the way is empty.
    #[expect(clippy::indexing_slicing, reason = "set < sets and way < ways")]
    pub(crate) fn get(&self, set: usize, way: usize) -> Option<LineState> {
        if !self.is_valid(set, way) {
            return None;
        }
        let i = self.idx(set, way);
        Some(LineState {
            block: self.tags[i],
            dirty: self.meta[i] & DIRTY_BIT != 0,
            reuse: decode_reuse(self.meta[i] >> REUSE_SHIFT),
            cb_size: self.cb_size[i],
            lru: self.lru[i],
        })
    }

    /// Scatters `line` into the lanes of `way`, marking it occupied.
    #[expect(clippy::indexing_slicing, reason = "set < sets and way < ways")]
    pub(crate) fn put(&mut self, set: usize, way: usize, line: LineState) {
        let i = self.idx(set, way);
        self.tags[i] = line.block;
        self.lru[i] = line.lru;
        self.cb_size[i] = line.cb_size;
        self.meta[i] = u8::from(line.dirty) | (encode_reuse(line.reuse) << REUSE_SHIFT);
        self.valid[set] |= 1u64 << way;
    }

    /// Removes and returns the line at `way`, if any.
    #[expect(clippy::indexing_slicing, reason = "set < sets == valid.len()")]
    pub(crate) fn take(&mut self, set: usize, way: usize) -> Option<LineState> {
        let line = self.get(set, way)?;
        self.valid[set] &= !(1u64 << way);
        Some(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(block: u64, lru: u64) -> LineState {
        LineState::new(block, true, ReuseClass::Write, 22, lru)
    }

    #[test]
    fn put_get_take_round_trip() {
        let mut a = WayArray::new(4, 3);
        assert_eq!(a.get(2, 1), None);
        let l = line(0xABC, 7);
        a.put(2, 1, l);
        assert!(a.is_valid(2, 1));
        assert_eq!(a.get(2, 1), Some(l));
        assert_eq!(a.find(2, 0xABC), Some(1));
        assert_eq!(a.take(2, 1), Some(l));
        assert!(!a.is_valid(2, 1));
        assert_eq!(a.find(2, 0xABC), None, "stale tags must not match");
    }

    #[test]
    fn field_round_trips_cover_every_reuse_class_and_dirtiness() {
        let mut a = WayArray::new(1, 8);
        for (way, (dirty, reuse)) in [
            (false, ReuseClass::None),
            (true, ReuseClass::None),
            (false, ReuseClass::Read),
            (true, ReuseClass::Read),
            (false, ReuseClass::Write),
            (true, ReuseClass::Write),
        ]
        .into_iter()
        .enumerate()
        {
            let l = LineState::new(way as u64 + 100, dirty, reuse, way as u8, way as u64);
            a.put(0, way, l);
            assert_eq!(a.get(0, way), Some(l));
            assert_eq!(a.dirty(0, way), dirty);
            assert_eq!(a.reuse(0, way), reuse);
            assert_eq!(a.cb_size(0, way), way as u8);
        }
    }

    #[test]
    fn incremental_updates_show_through_get() {
        let mut a = WayArray::new(2, 2);
        a.put(1, 0, line(5, 1));
        a.touch(1, 0, 99);
        a.set_reuse(1, 0, ReuseClass::Read);
        let l = a.get(1, 0).unwrap();
        assert_eq!(l.lru, 99);
        assert_eq!(l.reuse, ReuseClass::Read);
        assert!(l.dirty, "touch/set_reuse must not clobber the dirty bit");
    }

    #[test]
    fn sixty_four_ways_are_supported() {
        let mut a = WayArray::new(1, 64);
        a.put(0, 63, line(9, 3));
        assert!(a.is_valid(0, 63));
        assert_eq!(a.find(0, 9), Some(63));
    }

    #[test]
    #[should_panic(expected = "at most 64 ways")]
    fn too_many_ways_panic() {
        let _ = WayArray::new(1, 65);
    }
}
