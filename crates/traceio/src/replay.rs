//! Replay: feed a recorded trace back through the hierarchy.
//!
//! [`ReplayStream`] implements the same `next_access` contract as the
//! synthetic `AppStream`, so the existing interleaving drivers
//! (`drive_cycles` / `drive_accesses`) run a hierarchy from a file exactly
//! as they run it from a generator. Under the policy and configuration the
//! trace was recorded with, the laggard-core selection reproduces the
//! recorded global order bit-for-bit; under a *different* policy the same
//! per-core reference streams are re-interleaved by the simulated clocks —
//! which is precisely what makes one trace a fair input to every policy.

use hllc_sim::{Access, BlockSizes, DataModel};
use hllc_trace::RefSource;

use crate::reader::TraceContent;

/// One core's recorded reference stream, read in place from the loaded
/// trace and consumed front to back.
///
/// The stream copies no record: it holds the positions of its core's
/// accesses in [`TraceContent::accesses`] (4 bytes each) and reads the
/// record at the next position on every pull.
#[derive(Clone, Debug)]
pub struct ReplayStream<'a> {
    accesses: &'a [Access],
    /// Positions in `accesses` not yet replayed, in program order.
    lane: std::vec::IntoIter<u32>,
}

impl<'a> ReplayStream<'a> {
    /// Splits a trace into one replay stream per core (index = core, more
    /// than the header's if an access names a higher core), each in
    /// program order, in one pass over the records.
    ///
    /// Positions are `u32`, so a trace longer than [`u32::MAX`] records
    /// replays its first `u32::MAX`; [`check_replay`](crate::check_replay)
    /// refuses such a trace.
    pub fn per_core(content: &'a TraceContent) -> Vec<ReplayStream<'a>> {
        let mut lanes: Vec<Vec<u32>> = vec![Vec::new(); usize::from(content.header.cores)];
        for (pos, a) in (0..u32::MAX).zip(&content.accesses) {
            let core = usize::from(a.core);
            if core >= lanes.len() {
                lanes.resize_with(core + 1, Vec::new);
            }
            lanes[core].push(pos);
        }
        lanes
            .into_iter()
            .map(|lane| ReplayStream {
                accesses: &content.accesses,
                lane: lane.into_iter(),
            })
            .collect()
    }

    /// References not yet replayed.
    pub fn remaining(&self) -> usize {
        self.lane.len()
    }
}

impl RefSource for ReplayStream<'_> {
    /// Reads the next recorded reference. The record keeps its recorded
    /// core stamp; `core` is only sanity-checked in debug builds (the
    /// driver indexes streams by core, so they always agree).
    fn next_access(&mut self, core: u8) -> Option<Access> {
        let pos = self.lane.next()?;
        let a = *self.accesses.get(pos as usize)?;
        debug_assert_eq!(a.core, core, "replay stream driven as the wrong core");
        Some(a)
    }
}

/// A [`DataModel`] serving the compressed sizes the recorded run observed.
///
/// Every block the recorded LLC sized is present, so a same-configuration
/// replay never misses; a replay that sizes *new* blocks (different LLC
/// geometry evicting different victims) falls back to incompressible
/// (64 B) and counts the miss. Sizes are served from a paged
/// [`BlockSizes`] table (DESIGN §10.10).
#[derive(Clone, Debug)]
pub struct TraceData {
    sizes: BlockSizes,
    fallbacks: u64,
}

impl TraceData {
    /// Builds the size table from a trace in one pass. Later duplicates win
    /// (there are none in well-formed traces: the recorder logs each block
    /// once).
    pub fn from_content(content: &TraceContent) -> Self {
        TraceData {
            sizes: content.sizes.iter().copied().collect(),
            fallbacks: 0,
        }
    }

    /// Blocks in the table.
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// True when the trace carried no data entries.
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }

    /// Queries that missed the table and fell back to 64 B.
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks
    }
}

impl DataModel for TraceData {
    fn compressed_size(&mut self, block: u64) -> u8 {
        match self.sizes.get(block) {
            Some(s) => s,
            None => {
                self.fallbacks += 1;
                64
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::TraceHeader;
    use hllc_sim::Op;
    use proptest::prelude::*;

    fn content() -> TraceContent {
        let accesses = vec![
            Access::load(0, 0x40),
            Access {
                inst_gap: 3,
                ..Access::store(1, 0x80)
            },
            Access::load(0, 0xC0),
            Access::load(1, 0x100),
        ];
        TraceContent {
            header: TraceHeader {
                cores: 2,
                mix: 1,
                seed: 9,
                sets: 512,
                cycles: 100.0,
                policy: "bh".into(),
                workload: "mix 1".into(),
                spec_json: None,
            },
            accesses,
            sizes: vec![(1, 8), (2, 64)],
        }
    }

    #[test]
    fn streams_preserve_per_core_order() {
        let content = content();
        let mut streams = ReplayStream::per_core(&content);
        assert_eq!(streams.len(), 2);
        assert_eq!(streams[0].remaining(), 2);
        let a = streams[1].next_access(1).unwrap();
        assert_eq!((a.op, a.addr, a.inst_gap), (Op::Store, 0x80, 3));
        assert_eq!(streams[1].next_access(1).unwrap().addr, 0x100);
        assert_eq!(
            streams[1].next_access(1),
            None,
            "exhausted stream yields None"
        );
    }

    #[test]
    fn trace_data_serves_recorded_sizes_and_counts_fallbacks() {
        let mut d = TraceData::from_content(&content());
        assert_eq!(d.len(), 2);
        assert_eq!(d.compressed_size(1), 8);
        assert_eq!(d.compressed_size(2), 64);
        assert_eq!(d.fallbacks(), 0);
        assert_eq!(d.compressed_size(999), 64);
        assert_eq!(d.fallbacks(), 1);
    }

    /// The split `per_core` replaced: every core's records copied out in
    /// program order, one vector per core up to the highest named.
    fn copied_split(content: &TraceContent) -> Vec<Vec<Access>> {
        let named = content.accesses.iter().map(|a| usize::from(a.core) + 1);
        let cores = named.fold(usize::from(content.header.cores), usize::max);
        (0..cores)
            .map(|c| {
                let mine = content.accesses.iter().filter(|a| usize::from(a.core) == c);
                mine.copied().collect()
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn per_core_replays_what_a_copying_split_holds(
            header_cores in 1u8..=16,
            // Mostly the first few cores (so others stay empty), sometimes
            // any of 18, beyond the header's count too.
            records in prop::collection::vec(
                (prop_oneof![0u8..3, 0u8..18], any::<u64>(), any::<bool>()),
                0..300,
            ),
        ) {
            let mut content = content();
            content.header.cores = header_cores;
            content.accesses = records
                .iter()
                .map(|&(core, addr, store)| {
                    let a = if store { Access::store(core, addr) } else { Access::load(core, addr) };
                    Access {
                        inst_gap: addr as u32 % 97,
                        ..a
                    }
                })
                .collect();
            let oracle = copied_split(&content);
            let mut streams = ReplayStream::per_core(&content);
            prop_assert_eq!(streams.len(), oracle.len());
            // Pull the streams round-robin, as the drivers interleave them.
            let mut pulled = vec![0usize; oracle.len()];
            let mut live = true;
            while live {
                live = false;
                for (c, (stream, want)) in streams.iter_mut().zip(&oracle).enumerate() {
                    prop_assert_eq!(stream.remaining(), want.len() - pulled[c]);
                    let got = stream.next_access(c as u8);
                    prop_assert_eq!(got, want.get(pulled[c]).copied());
                    if got.is_some() {
                        pulled[c] += 1;
                        live = true;
                    }
                }
            }
            prop_assert!(streams.iter().all(|s| s.remaining() == 0));
        }
    }
}
