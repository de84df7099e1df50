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

/// One core's recorded reference stream, consumed front to back.
#[derive(Clone, Debug)]
pub struct ReplayStream {
    accesses: Vec<Access>,
    cursor: usize,
}

impl ReplayStream {
    /// Splits a trace into one replay stream per core (index = core).
    pub fn per_core(content: &TraceContent) -> Vec<ReplayStream> {
        content
            .per_core()
            .into_iter()
            .map(|accesses| ReplayStream {
                accesses,
                cursor: 0,
            })
            .collect()
    }

    /// References not yet replayed.
    pub fn remaining(&self) -> usize {
        self.accesses.len() - self.cursor
    }
}

impl RefSource for ReplayStream {
    /// Pops the next recorded reference. The record keeps its recorded core
    /// stamp; `core` is only sanity-checked in debug builds (the driver
    /// indexes streams by core, so they always agree).
    fn next_access(&mut self, core: u8) -> Option<Access> {
        let a = *self.accesses.get(self.cursor)?;
        self.cursor += 1;
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

    fn content() -> TraceContent {
        let accesses = vec![
            Access::load(0, 0x40),
            Access::store(1, 0x80).with_gap(3),
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
        let mut streams = ReplayStream::per_core(&content());
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
}
