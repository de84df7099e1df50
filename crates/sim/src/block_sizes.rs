//! A paged block → compressed-size table (DESIGN §10.10): replay's sizes,
//! the recorder's first-seen set and the FPC memo. A lookup hashes a small
//! page directory and reads one byte.

/// log2 of the blocks per page.
const PAGE_SHIFT: u32 = 6;
/// Blocks per page: one bit of [`Page::present`] each.
const PAGE_BLOCKS: usize = 1 << PAGE_SHIFT;
/// A block's slot within its page.
const SLOT_MASK: u64 = PAGE_BLOCKS as u64 - 1;

/// The sizes of 64 consecutive blocks and which of them are present.
#[derive(Clone, Debug)]
struct Page {
    present: u64,
    sizes: [u8; PAGE_BLOCKS],
}

/// A map from block number to a one-byte size, stored in pages of 64
/// consecutive blocks.
///
/// Any `u8` value and any block (up to `u64::MAX`) round-trips, and a
/// later insert overwrites. An empty table owns no heap memory. Heap use is
/// linear in the number of entries: at worst, with every entry in a page of
/// its own, about 183 bytes per entry (DESIGN §10.10).
///
/// # Example
///
/// ```
/// use hllc_sim::BlockSizes;
///
/// let mut t = BlockSizes::new();
/// assert_eq!(t.insert(u64::MAX, 0), None);
/// assert_eq!(t.insert(u64::MAX, 37), Some(0));
/// assert_eq!(t.get(u64::MAX), Some(37));
/// assert_eq!(t.get(u64::MAX - 1), None);
/// assert_eq!(t.len(), 1);
/// ```
#[derive(Clone, Debug, Default)]
#[expect(
    clippy::disallowed_types,
    reason = "the page directory of the one block-size table (replay sizes, the recorder's \
              first-seen set, the FPC memo) is keyed SipHash because its keys come from trace \
              files; it is only probed and inserted, never iterated, so no order reaches any output"
)]
pub struct BlockSizes {
    /// Page number (`block >> 6`) → index into `pages`. Std's randomly
    /// keyed SipHash, because blocks come from outside input (trace files):
    /// with an unkeyed or invertible hash a crafted file could send every
    /// page to one probe sequence and make building quadratic.
    dir: std::collections::HashMap<u64, usize>,
    pages: Vec<Page>,
}

impl BlockSizes {
    /// An empty table (allocates nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Blocks in the table (a count over the pages' presence masks).
    pub fn len(&self) -> usize {
        self.pages
            .iter()
            .map(|p| p.present.count_ones() as usize)
            .sum()
    }

    /// True when no block has been inserted (a page exists only once one
    /// of its blocks has).
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// The size stored for `block`, if any.
    #[inline]
    #[expect(clippy::indexing_slicing, reason = "slot < PAGE_BLOCKS by SLOT_MASK")]
    pub fn get(&self, block: u64) -> Option<u8> {
        let &index = self.dir.get(&(block >> PAGE_SHIFT))?;
        let page = self.pages.get(index)?;
        let slot = (block & SLOT_MASK) as usize;
        if page.present >> slot & 1 == 0 {
            return None;
        }
        Some(page.sizes[slot])
    }

    /// Stores `size` for `block` and returns the size it replaces, if any.
    pub fn insert(&mut self, block: u64, size: u8) -> Option<u8> {
        let index = self.page_index(block >> PAGE_SHIFT);
        self.set(index, block, size)
    }

    /// The index in `pages` of page `page`, pushing an empty page if the
    /// directory has none.
    fn page_index(&mut self, page: u64) -> usize {
        let pages = &mut self.pages;
        *self.dir.entry(page).or_insert_with(|| {
            pages.push(Page {
                present: 0,
                sizes: [0; PAGE_BLOCKS],
            });
            pages.len() - 1
        })
    }

    /// Stores `size` for `block` in `pages[index]`, the page holding it,
    /// and returns the size it replaces, if any.
    #[expect(clippy::indexing_slicing, reason = "slot < PAGE_BLOCKS by SLOT_MASK")]
    fn set(&mut self, index: usize, block: u64, size: u8) -> Option<u8> {
        // index < pages.len(): every directory value is the index of the
        // page pushed with it, and pages are never removed.
        let page = &mut self.pages[index];
        let slot = (block & SLOT_MASK) as usize;
        let bit = 1u64 << slot;
        let old = (page.present & bit != 0).then_some(page.sizes[slot]);
        page.present |= bit;
        page.sizes[slot] = size;
        old
    }
}

/// Slots in the bulk build's record of recently written pages.
const RECENT_PAGES: usize = 64;

impl FromIterator<(u64, u8)> for BlockSizes {
    /// Builds the table in one pass; a later duplicate wins.
    ///
    /// Entries of one page tend to arrive close together (a trace logs
    /// blocks as the LLC first sizes them), so the build keeps the page
    /// indices of recently written pages in a small direct-mapped record,
    /// slot = page number mod `RECENT_PAGES`, and probes the directory
    /// only on a miss. Inputs that keep missing it cost what one
    /// [`insert`](Self::insert) per entry does.
    #[expect(clippy::indexing_slicing, reason = "the remainder is < RECENT_PAGES")]
    fn from_iter<I: IntoIterator<Item = (u64, u8)>>(entries: I) -> Self {
        let mut table = BlockSizes::new();
        // `block >> PAGE_SHIFT` never reaches u64::MAX, so it marks an
        // empty slot.
        let mut recent = [(u64::MAX, 0usize); RECENT_PAGES];
        for (block, size) in entries {
            let page = block >> PAGE_SHIFT;
            let slot = &mut recent[(page % RECENT_PAGES as u64) as usize];
            if slot.0 != page {
                *slot = (page, table.page_index(page));
            }
            table.set(slot.1, block, size);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn neighbours_share_a_page_and_keep_their_own_sizes() {
        let t: BlockSizes = (0..64u64).map(|b| (b, b as u8)).collect();
        assert_eq!((t.len(), t.pages.len(), t.dir.len()), (64, 1, 1));
        assert!((0..64).all(|b| t.get(b) == Some(b as u8)));
        assert_eq!(t.get(64), None);
    }

    /// Blocks of three pages that share one recent-page slot, of dense
    /// low pages, of the top of the address space and of the whole range.
    fn arb_block() -> impl Strategy<Value = u64> {
        prop_oneof![
            (0u64..3, 0u64..64).prop_map(|(k, b)| (5 + 64 * k) << PAGE_SHIFT | b),
            0u64..300,
            (u64::MAX - 200)..=u64::MAX,
            Just(u64::MAX),
            any::<u64>(),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn the_bulk_build_equals_one_insert_per_entry(
            entries in prop::collection::vec((arb_block(), any::<u8>()), 0..400),
        ) {
            let built: BlockSizes = entries.iter().copied().collect();
            let mut inserted = BlockSizes::new();
            for &(block, size) in &entries {
                inserted.insert(block, size);
            }
            // The same pages, opened in the same order, hold the same sizes.
            prop_assert_eq!(&built.dir, &inserted.dir);
            prop_assert_eq!(built.pages.len(), inserted.pages.len());
            for (b, i) in built.pages.iter().zip(&inserted.pages) {
                prop_assert_eq!(b.present, i.present);
                prop_assert_eq!(b.sizes, i.sizes);
            }
            // A later duplicate wins.
            for &(block, _) in &entries {
                let last = entries.iter().rev().find(|e| e.0 == block).map(|e| e.1);
                prop_assert_eq!(built.get(block), last);
            }
        }
    }
}
