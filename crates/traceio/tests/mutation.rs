//! Mutation test of the trace load path: a small recorded trace is
//! corrupted (bytes flipped, the file truncated, a run of it spliced in
//! elsewhere, or a chunk payload edited and its CRC recomputed so the
//! decoders see it), then loaded the way `hllc run --trace` loads it:
//! `TraceReader::read_to_end`, then `trace_spec` → `check_replay`. The
//! decoders `TraceData::from_content` and `ReplayStream::per_core` run on
//! every input that reads, whether or not those checks accept it.
//!
//! Every mutated input must give `Ok` or a named error (a `TraceError`, or
//! the recorded experiment's), never a panic, and the heap must stay within
//! one chunk buffer at the 16 MiB cap plus a linear bound per input byte
//! (the decoded records, the replay streams' position lanes and the size
//! table at its worst case, DESIGN §10.10). Mutations are
//! drawn by SplitMix64 from seeds the vendored proptest supplies.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use hllc_compress::CompressorKind;
use hllc_sim::{block_of, DataModel};
use hllc_trace::RefSource;
use hllc_traceio::{
    check_replay, crc32, trace_spec, Recorder, ReplayStream, TraceData, TraceHeader, TraceReader,
    TraceWriter, MAX_CHUNK_BYTES,
};
use proptest::prelude::*;

/// Forwards to the system allocator and tracks, per thread, the bytes
/// currently allocated and their high-water mark.
struct Counting;

thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn grow(bytes: usize) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + bytes;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

fn shrink(bytes: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(bytes)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are the ones callers get. The bookkeeping only
// touches const-initialized thread-locals through `try_with`, which neither
// allocates nor panics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            // Counted as a fresh block next to the old one, as a moving
            // realloc briefly holds both.
            grow(new_size);
            shrink(layout.size());
        }
        q
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap allowed per input byte. A data entry takes at least 2 input bytes
/// and costs 16 B in its chunk's vector, up to 32 B in the trace's (which
/// doubles as it grows) and at most 184 B in the size table: 116 B per
/// input byte. An access record takes at least 3 bytes and costs 16 B in
/// its chunk's vector, up to 32 B in the trace's and up to 8 B in its
/// core's position lane (4 B, doubling as it grows): 19 B per input byte.
/// So 128 covers either.
const HEAP_PER_INPUT_BYTE: usize = 128;
/// Small fixed allocations (header strings, per-core vectors, the
/// recorded experiment, the error).
const HEAP_CONSTANT: usize = 64 << 10;

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A value in `0..n` (`n > 0`).
fn below(x: &mut u64, n: usize) -> usize {
    (splitmix(x) % n as u64) as usize
}

/// Mix 1 recorded through the `Recorder` taps: 9 000 references pulled
/// round-robin from its four cores (three access chunks), and every third
/// reference's block sized through the data model (logged on first query).
fn recorded_trace() -> &'static [u8] {
    static TRACE: OnceLock<Vec<u8>> = OnceLock::new();
    TRACE.get_or_init(|| {
        let mix = &hllc_trace::mixes()[0];
        let streams = mix.instantiate(0.05, 11);
        let cores = streams.len() as u8;
        let header = TraceHeader {
            cores,
            mix: 1,
            seed: 11,
            sets: 64,
            cycles: 1.0e4,
            policy: "cp_sd".into(),
            workload: mix.name.to_string(),
            spec_json: None,
        };
        let recorder = Recorder::new(TraceWriter::new(Vec::new(), &header).unwrap());
        let mut taps: Vec<_> = streams.into_iter().map(|s| recorder.stream(s)).collect();
        let mut data = recorder.data(mix.data_model_with(CompressorKind::Bdi, 11));
        for i in 0..9_000usize {
            let core = (i % taps.len()) as u8;
            let a = taps[usize::from(core)].next_access(core).unwrap();
            if i % 3 == 0 {
                data.compressed_size(block_of(a.addr));
            }
        }
        drop((taps, data));
        recorder.finish().unwrap()
    })
}

/// Offsets of each chunk's tag byte, after the magic and header.
fn chunk_offsets(bytes: &[u8]) -> Vec<usize> {
    let header_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    let mut at = 12 + header_len + 4;
    let mut out = Vec::new();
    while at + 5 <= bytes.len() {
        out.push(at);
        let len = u32::from_le_bytes(bytes[at + 1..at + 5].try_into().unwrap()) as usize;
        at += 1 + 4 + len + 4;
    }
    out
}

/// One mutation of `original`, chosen and placed by `seed`.
fn mutate(original: &[u8], seed: u64) -> Vec<u8> {
    let mut x = seed;
    let mut bytes = original.to_vec();
    match below(&mut x, 5) {
        // Flip 1–8 bytes anywhere, header included.
        0 => {
            for _ in 0..1 + below(&mut x, 8) {
                let at = below(&mut x, bytes.len());
                bytes[at] ^= 1 + below(&mut x, 255) as u8;
            }
        }
        // Truncate.
        1 => bytes.truncate(below(&mut x, original.len())),
        // Splice: copy a run of the file over another place, or insert it.
        2 => {
            let from = below(&mut x, original.len());
            let len = 1 + below(&mut x, (original.len() - from).min(4096));
            let run = original[from..from + len].to_vec();
            let to = below(&mut x, bytes.len());
            if splitmix(&mut x) & 1 == 0 {
                let end = (to + len).min(bytes.len());
                bytes.splice(to..end, run);
            } else {
                bytes.splice(to..to, run);
            }
        }
        // Edit inside one chunk (its tag, counts, deltas or sizes) and
        // recompute its CRC, so the edit reaches the decoders.
        kind => {
            let chunks = chunk_offsets(&bytes);
            let at = chunks[below(&mut x, chunks.len())];
            let len = u32::from_le_bytes(bytes[at + 1..at + 5].try_into().unwrap()) as usize;
            let payload = at + 5..at + 5 + len;
            if kind == 3 || len == 0 {
                // Retag: access records decoded as data entries, and back.
                bytes[at] = [b'A', b'D', b'E', b'Z'][below(&mut x, 4)];
            }
            if len > 0 {
                for _ in 0..1 + below(&mut x, 4) {
                    // Half the edits land in the leading count varint.
                    let offset = if splitmix(&mut x) & 1 == 0 {
                        below(&mut x, len.min(4))
                    } else {
                        below(&mut x, len)
                    };
                    bytes[payload.start + offset] = splitmix(&mut x) as u8;
                }
            }
            let mut sealed = vec![bytes[at]];
            sealed.extend_from_slice(&bytes[payload.clone()]);
            let crc = crc32(&sealed).to_le_bytes();
            bytes[payload.end..payload.end + 4].copy_from_slice(&crc);
        }
    }
    bytes
}

/// The replay load path. Returns the table size and per-core reference
/// counts, so the whole pipeline runs.
fn load(bytes: &[u8]) -> Result<(usize, usize), String> {
    let content = TraceReader::new(bytes)
        .and_then(|r| r.read_to_end())
        .map_err(|e| e.to_string())?;
    // The decoders run on every input that reads, whatever the recorded
    // experiment's checks say, so they see cores, sets and budgets that
    // `check_replay` would refuse.
    let checked = trace_spec(&content).and_then(|spec| check_replay(&content, &spec));
    let data = TraceData::from_content(&content);
    let streams = ReplayStream::per_core(&content);
    checked?;
    Ok((
        data.len(),
        streams.iter().map(ReplayStream::remaining).sum(),
    ))
}

#[test]
fn the_unmutated_trace_loads() {
    let bytes = recorded_trace();
    let (entries, refs) = load(bytes).unwrap();
    assert_eq!(refs, 9_000);
    assert!(entries > 1_000, "{entries} size entries");
    assert!(chunk_offsets(bytes).len() >= 5, "expected several chunks");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn mutated_traces_fail_cleanly_within_the_heap_bound(seed in any::<u64>()) {
        let bytes = mutate(recorded_trace(), seed);
        let base = LIVE.with(Cell::get);
        PEAK.with(|p| p.set(base));
        let outcome = catch_unwind(AssertUnwindSafe(|| load(&bytes)));
        let peak = PEAK.with(Cell::get) - base;
        prop_assert!(outcome.is_ok(), "seed {seed:#x}: the load path panicked");
        let bound = MAX_CHUNK_BYTES as usize + HEAP_PER_INPUT_BYTE * bytes.len() + HEAP_CONSTANT;
        prop_assert!(
            peak <= bound,
            "seed {seed:#x}: peak heap {peak} bytes over the bound {bound}"
        );
    }
}
