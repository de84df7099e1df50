//! `BlockSizes` against a `BTreeMap` oracle, and its heap use measured by a
//! counting allocator: nothing for an empty table, and at most the
//! per-entry bound DESIGN §10.10 states in the worst case (every entry in a
//! page of its own).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

use hllc_sim::BlockSizes;
use proptest::prelude::*;

/// Forwards to the system allocator and keeps, per thread, the bytes
/// currently allocated and the number of allocations made. Tests run on
/// threads of their own, and each reads only its own thread's counts.
struct Counting;

thread_local! {
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn note(bytes: isize, allocations: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = LIVE_BYTES.try_with(|b| b.set(b.get() + bytes));
    let _ = ALLOCATIONS.try_with(|a| a.set(a.get() + allocations));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are the ones callers get. The bookkeeping only
// touches const-initialized thread-locals through `try_with`, which neither
// allocates nor panics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            note(layout.size() as isize, 1);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        note(-(layout.size() as isize), 0);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            note(new_size as isize - layout.size() as isize, 1);
        }
        q
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn live_bytes() -> isize {
    LIVE_BYTES.with(Cell::get)
}

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

/// DESIGN §10.10's worst-case heap bound: bytes per entry, and a constant
/// for the smallest tables.
const BYTES_PER_ENTRY: isize = 184;
const BYTES_CONSTANT: isize = 512;

/// Blocks drawn from dense runs (so pages fill and entries repeat), from
/// the top of the address space, and from the whole `u64` range.
fn arb_block() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..300,
        (u64::MAX - 200)..=u64::MAX,
        Just(u64::MAX),
        any::<u64>(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn matches_a_btree_map_oracle(
        entries in prop::collection::vec((arb_block(), any::<u8>()), 0..600),
        probes in prop::collection::vec(arb_block(), 0..200),
    ) {
        let mut table = BlockSizes::new();
        let mut oracle = BTreeMap::new();
        for &(block, size) in &entries {
            prop_assert_eq!(table.insert(block, size), oracle.insert(block, size));
            prop_assert_eq!(table.len(), oracle.len());
        }
        for &(block, _) in &entries {
            prop_assert_eq!(table.get(block), oracle.get(&block).copied());
        }
        for &block in &probes {
            prop_assert_eq!(table.get(block), oracle.get(&block).copied());
        }
        let collected: BlockSizes = entries.iter().copied().collect();
        prop_assert_eq!(collected.len(), oracle.len());
        for (&block, &size) in &oracle {
            prop_assert_eq!(collected.get(block), Some(size));
        }
        prop_assert_eq!(table.is_empty(), oracle.is_empty());
    }
}

#[test]
fn every_size_round_trips_including_zero_and_255() {
    let mut table = BlockSizes::new();
    for size in 0..=u8::MAX {
        let block = u64::MAX - u64::from(size);
        assert_eq!(table.insert(block, size), None);
    }
    for size in 0..=u8::MAX {
        assert_eq!(table.get(u64::MAX - u64::from(size)), Some(size));
    }
    assert_eq!(table.len(), 256);
}

#[test]
fn an_empty_table_allocates_nothing() {
    let before = allocations();
    let table = BlockSizes::new();
    assert_eq!(table.get(42), None);
    let clone = table.clone();
    assert!(clone.is_empty());
    drop((table, clone));
    assert_eq!(allocations() - before, 0, "BlockSizes::new() allocated");
}

#[test]
fn one_entry_per_page_stays_within_the_worst_case_bound() {
    let base = live_bytes();
    let mut table = BlockSizes::new();
    let mut worst = 0.0f64;
    for n in 1..=50_000u64 {
        // Blocks 64 apart: each entry opens a page of its own.
        table.insert(n << 6, n as u8);
        let used = live_bytes() - base;
        let n = n as isize;
        assert!(
            used <= BYTES_PER_ENTRY * n + BYTES_CONSTANT,
            "{used} heap bytes for {n} entries"
        );
        if n >= 1024 {
            worst = worst.max(used as f64 / n as f64);
        }
    }
    // The bound is not loose: past the smallest sizes, some table size
    // comes within 10 % of it.
    assert!(
        worst > 0.9 * BYTES_PER_ENTRY as f64,
        "worst {worst:.1} B/entry"
    );
    drop(table);
    assert_eq!(live_bytes(), base, "dropping the table freed everything");
}
