//! The hybrid NVM–SRAM LLC engine.
//!
//! One structure implements every policy of Table III; the policy value
//! selects the insertion target, the replacement flavour (LRU, Fit-LRU,
//! global vs local), the migration behaviour, and the reuse tagging rules.
//!
//! Each set is one array of `sram_ways + nvm_ways` ways, SRAM ways first:
//! way `w` is SRAM when `w < sram_ways` and is otherwise NVM frame
//! `w - sram_ways` of the [`NvmArray`]. Way metadata is stored
//! struct-of-arrays (see [`crate::soa`]), and every placement picks its
//! victim with one rule over a range of ways (`victim`).

use std::ops::Range;

use hllc_nvm::NvmArray;
use hllc_sim::{set_index, DataModel, LlcPort, LlcReq, LlcResponse, LlcStats, ReuseClass};

use crate::config::HybridConfig;
use crate::dueling::SetDueling;
use crate::line::LineState;
use crate::policy::Policy;
use crate::soa::WayArray;

/// Which half of a hybrid set a block lives in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Part {
    /// Fast, wear-free SRAM ways (blocks stored uncompressed).
    Sram,
    /// Dense NVM ways (blocks stored compressed under byte-disabling
    /// policies).
    Nvm,
}

/// The hybrid last-level cache.
///
/// See the crate-level docs for the policy taxonomy and an example.
#[derive(Clone, Debug)]
pub struct HybridLlc {
    sets: usize,
    sram_ways: usize,
    policy: Policy,
    /// Every way of every set, SRAM ways first.
    ways: WayArray,
    array: Option<NvmArray>,
    dueling: Option<SetDueling>,
    /// TAP's thrashing predictor: a hashed table of saturating per-block
    /// hit counters that persists across LLC residencies (the original TAP
    /// tracks thrashing behaviour with a predictor, not per-residency
    /// counts).
    tap_table: Vec<u8>,
    fit_lru: bool,
    /// Per-bank cycle timestamps until which the NVM data array is busy
    /// writing; reads arriving earlier wait out the difference.
    bank_busy_until: [u64; BANKS],
    /// Monotone view of the cycle clock (per-core clocks jitter slightly;
    /// contention must not charge skew as wait time).
    clock: u64,
    stamp: u64,
    stats: LlcStats,
}

/// Size of TAP's hashed predictor table.
const TAP_TABLE_ENTRIES: usize = 1 << 16;

/// LLC banks (Table IV: 4); banks interleave by set index.
const BANKS: usize = 4;

/// NVM data-array write latency in cycles (Table IV: 20). A read that
/// arrives at a bank while a write is in flight waits out the remainder,
/// capped at one write.
const NVM_WRITE_CYCLES: u32 = 20;

impl HybridLlc {
    /// Builds an LLC from a configuration with its pristine NVM array
    /// ([`HybridConfig::sample_array`]).
    pub fn new(cfg: &HybridConfig) -> Self {
        Self::with_array(cfg, cfg.sample_array())
    }

    /// Builds an LLC around an existing (possibly aged) NVM array — the
    /// forecast procedure threads wear state through successive simulation
    /// phases this way.
    ///
    /// # Panics
    ///
    /// Panics if the array's geometry does not match the configuration.
    pub fn with_array(cfg: &HybridConfig, array: Option<NvmArray>) -> Self {
        if let Some(a) = &array {
            assert_eq!(a.sets(), cfg.sets, "array/config set mismatch");
            assert_eq!(a.ways(), cfg.nvm_ways, "array/config way mismatch");
            assert_eq!(
                a.granularity(),
                cfg.policy.granularity(),
                "array granularity does not match the policy"
            );
        } else {
            assert_eq!(cfg.nvm_ways, 0, "NVM ways require an array");
        }
        let dueling = if let Policy::CpSd { th, tw } = cfg.policy {
            let mut d = SetDueling::new(th, tw, cfg.epoch_cycles);
            d.set_smoothing(cfg.dueling_smoothing);
            Some(d)
        } else {
            None
        };
        let tap_table = match cfg.policy {
            Policy::Tap { .. } => vec![0u8; TAP_TABLE_ENTRIES],
            Policy::Bh
            | Policy::BhCp
            | Policy::Ca { .. }
            | Policy::CaRwr { .. }
            | Policy::CpSd { .. }
            | Policy::LHybrid => Vec::new(),
        };
        HybridLlc {
            sets: cfg.sets,
            sram_ways: cfg.sram_ways,
            policy: cfg.policy,
            ways: WayArray::new(cfg.sets, cfg.sram_ways + cfg.nvm_ways),
            array,
            dueling,
            tap_table,
            fit_lru: cfg.fit_lru,
            bank_busy_until: [0; BANKS],
            clock: 0,
            stamp: 0,
            stats: LlcStats::default(),
        }
    }

    /// The configured policy.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// The NVM wear state, if the cache has NVM ways.
    pub fn array(&self) -> Option<&NvmArray> {
        self.array.as_ref()
    }

    /// Mutable NVM wear state (forecast prediction phases, fault injection).
    pub fn array_mut(&mut self) -> Option<&mut NvmArray> {
        self.array.as_mut()
    }

    /// Extracts the NVM wear state, consuming the cache.
    pub fn into_array(self) -> Option<NvmArray> {
        self.array
    }

    /// Remaining NVM capacity fraction (1.0 for an SRAM-only cache).
    pub fn capacity_fraction(&self) -> f64 {
        self.array.as_ref().map_or(1.0, |a| a.capacity_fraction())
    }

    /// The Set Dueling controller (CP_SD policies only).
    pub fn dueling(&self) -> Option<&SetDueling> {
        self.dueling.as_ref()
    }

    fn next_stamp(&mut self) -> u64 {
        self.stamp += 1;
        self.stamp
    }

    /// The part way `way` of a set belongs to.
    fn part_of(&self, way: usize) -> Part {
        if way < self.sram_ways {
            Part::Sram
        } else {
            Part::Nvm
        }
    }

    /// True if `block` is currently resident (test/diagnostic helper).
    pub fn contains(&self, block: u64) -> bool {
        self.ways.find(set_index(block, self.sets), block).is_some()
    }

    /// Where `block` currently lives, if resident.
    pub fn locate(&self, block: u64) -> Option<Part> {
        let way = self.ways.find(set_index(block, self.sets), block)?;
        Some(self.part_of(way))
    }

    /// The resident line for `block`, if any (diagnostics; gathered by
    /// value from the metadata lanes).
    pub fn peek(&self, block: u64) -> Option<LineState> {
        let set = set_index(block, self.sets);
        self.ways.get(set, self.ways.find(set, block)?)
    }

    fn maybe_epoch(&mut self, now: u64) {
        if let Some(d) = &mut self.dueling {
            d.maybe_epoch(now);
        }
    }

    /// The compression threshold in force for `set`.
    fn cp_th_for(&self, set: usize) -> u8 {
        match self.policy {
            Policy::Ca { cp_th } | Policy::CaRwr { cp_th } => cp_th,
            // `dueling` is always Some under CP_SD (see `with_array`); the
            // fallback is the uncompressed threshold.
            Policy::CpSd { .. } => self.dueling.as_ref().map_or(64, |d| d.cp_th_for_set(set)),
            Policy::Bh | Policy::BhCp | Policy::LHybrid | Policy::Tap { .. } => 64,
        }
    }

    /// TAP predictor slot for a block.
    fn tap_slot(block: u64) -> usize {
        (block.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48) as usize % TAP_TABLE_ENTRIES
    }

    /// Updates TAP's thrashing predictor on a hit to a line with dirtiness
    /// `dirty` and returns the block's cumulative (hashed) hit count.
    #[expect(clippy::indexing_slicing, reason = "slot < tap_table.len() under TAP")]
    fn tap_observe(&mut self, block: u64, dirty: bool, req: LlcReq) -> u32 {
        let slot = Self::tap_slot(block);
        if req == LlcReq::GetS && !dirty {
            self.tap_table[slot] = self.tap_table[slot].saturating_add(1);
        }
        u32::from(self.tap_table[slot])
    }

    /// Reuse tag handed back on a hit, per the policy's classification
    /// rules (§IV-B; LHybrid/TAP per §II-C). `dirty` is the hit line's
    /// dirtiness; `tap_count` is the block's cumulative predictor count
    /// (TAP only).
    fn classify_hit(&self, dirty: bool, req: LlcReq, tap_count: u32) -> ReuseClass {
        match self.policy {
            Policy::CaRwr { .. } | Policy::CpSd { .. } => match req {
                LlcReq::GetX => ReuseClass::Write,
                LlcReq::GetS => {
                    if dirty {
                        ReuseClass::Write
                    } else {
                        ReuseClass::Read
                    }
                }
            },
            Policy::LHybrid => match req {
                LlcReq::GetS if !dirty => ReuseClass::Read,
                LlcReq::GetS | LlcReq::GetX => ReuseClass::None,
            },
            Policy::Tap { hit_threshold } => match req {
                LlcReq::GetS if !dirty && tap_count >= hit_threshold => ReuseClass::Read,
                LlcReq::GetS | LlcReq::GetX => ReuseClass::None,
            },
            Policy::Bh | Policy::BhCp | Policy::Ca { .. } => ReuseClass::None,
        }
    }

    /// True if an NVM-aware policy inserts `line` into the NVM part
    /// (Table II), false for SRAM.
    fn goes_to_nvm(&self, set: usize, line: &LineState) -> bool {
        match self.policy {
            Policy::Ca { .. } => line.cb_size <= self.cp_th_for(set),
            Policy::CaRwr { .. } | Policy::CpSd { .. } => match line.reuse {
                ReuseClass::Read => true,
                ReuseClass::Write => false,
                ReuseClass::None => line.cb_size <= self.cp_th_for(set),
            },
            Policy::LHybrid | Policy::Tap { .. } => line.reuse == ReuseClass::Read && !line.dirty,
            Policy::Bh | Policy::BhCp => {
                debug_assert!(
                    false,
                    "BH variants use global replacement, not part steering"
                );
                false
            }
        }
    }

    /// Bytes `line` occupies in an NVM frame: its ECB under the compressing
    /// policies, the whole frame otherwise.
    fn ecb(&self, line: &LineState) -> usize {
        if self.policy.uses_compression() {
            line.ecb_size()
        } else {
            hllc_nvm::FRAME_BYTES // uncompressed policies rewrite the frame
        }
    }

    /// The one victim rule (Fit-LRU, §III-B1, [18]): among the ways of
    /// `ways` the `ecb` bytes fit, the first empty one, else the
    /// least-recently-used. SRAM ways fit any block; an NVM way fits up to
    /// its frame's effective capacity.
    ///
    /// With `fit` false (the plain-LRU ablation) the LRU is taken over every
    /// usable (non-dead) frame and kept only if the block happens to fit it,
    /// modelling a fault-oblivious replacement that wastes
    /// partially-disabled frames. Empty frames are still taken only when the
    /// block fits.
    #[expect(clippy::indexing_slicing, reason = "ways lies within the set's ways")]
    fn victim(&self, set: usize, ways: Range<usize>, ecb: usize, fit: bool) -> Option<usize> {
        // No array means no NVM ways (see `with_array`).
        let caps = self
            .array
            .as_ref()
            .map_or(&[][..], |a| a.capacity_lane(set));
        // SRAM ways (below `sram_ways`) wrap past the lane and fit any block.
        let capacity = |way: usize| {
            caps.get(way.wrapping_sub(self.sram_ways))
                .map_or(usize::MAX, |&cap| usize::from(cap))
        };
        let valid = self.ways.valid_mask(set);
        let stamps = self.ways.lru_lane(set);
        let mut lru_way = None;
        let mut lru_stamp = u64::MAX;
        for (way, &stamp) in ways.clone().zip(&stamps[ways]) {
            let cap = capacity(way);
            if cap == 0 || (fit && ecb > cap) {
                continue;
            }
            if valid & (1u64 << way) == 0 {
                if ecb <= cap {
                    return Some(way);
                }
                continue;
            }
            if stamp < lru_stamp {
                lru_stamp = stamp;
                lru_way = Some(way);
            }
        }
        lru_way.filter(|&way| fit || ecb <= capacity(way))
    }

    /// Drops an evicted line, recording the writeback if it was dirty.
    fn retire(&mut self, line: LineState) {
        if line.dirty {
            self.stats.writebacks += 1;
        }
    }

    /// Drops a line no way could take.
    fn bypass(&mut self, line: LineState) {
        self.stats.bypasses += 1;
        self.retire(line);
    }

    /// Writes `line` into `way`, retiring the line it displaces, with the
    /// accounting of the way's part: an NVM write also wears its frame,
    /// feeds Set Dueling and occupies its bank.
    #[expect(clippy::indexing_slicing, reason = "set % BANKS < BANKS")]
    fn commit(&mut self, now: u64, set: usize, way: usize, line: LineState, migration: bool) {
        if let Some(old) = self.ways.take(set, way) {
            self.retire(old);
        }
        let Some(frame) = way.checked_sub(self.sram_ways) else {
            self.stats.sram_inserts += 1;
            self.ways.put(set, way, line);
            return;
        };
        let ecb = self.ecb(&line);
        let Some(array) = self.array.as_mut() else {
            debug_assert!(false, "NVM insert requires an array");
            return;
        };
        array.note_write(set, frame, ecb);
        let bytes = ecb as u64;
        self.stats.nvm_inserts += 1;
        self.stats.nvm_bytes_written += bytes;
        if migration {
            self.stats.migrations += 1;
        }
        if let Some(d) = &mut self.dueling {
            d.record_write(set, bytes);
        }
        self.clock = self.clock.max(now);
        let busy = &mut self.bank_busy_until[set % BANKS];
        *busy = (*busy).max(self.clock) + u64::from(NVM_WRITE_CYCLES);
        self.ways.put(set, way, line);
    }

    /// Inserts into the NVM part via Fit-LRU (plain LRU under the
    /// ablation). Falls back to SRAM when no frame fits; a `migration`
    /// victim is dropped instead (it must not displace younger SRAM
    /// blocks), and without SRAM ways the block bypasses the LLC.
    fn place_nvm(&mut self, now: u64, set: usize, line: LineState, migration: bool) {
        let ecb = self.ecb(&line);
        let nvm = self.sram_ways..self.ways.ways();
        match self.victim(set, nvm, ecb, self.fit_lru) {
            Some(way) => self.commit(now, set, way, line, migration),
            None if migration => self.retire(line),
            None if self.sram_ways == 0 => self.bypass(line),
            None => self.place_sram(now, set, line),
        }
    }

    /// Inserts into the SRAM part, applying the policy's replacement and
    /// migration rules.
    fn place_sram(&mut self, now: u64, set: usize, line: LineState) {
        // Asymmetric configurations without SRAM: try NVM, else bypass.
        let Some(way) = self.victim(set, 0..self.sram_ways, 0, true) else {
            return self.place_nvm(now, set, line, false);
        };
        // LHybrid with SRAM full (the victim holds a line): migrate the
        // most-recent loop-block to NVM and take its way instead.
        if self.policy == Policy::LHybrid && self.ways.is_valid(set, way) {
            if let Some(lb_way) = self.most_recent_lb_way(set) {
                // most_recent_lb_way only returns valid ways.
                if let Some(lb) = self.ways.take(set, lb_way) {
                    self.place_nvm(now, set, lb, true);
                }
                return self.commit(now, set, lb_way, line, false);
            }
        }
        if let Some(victim) = self.ways.take(set, way) {
            let migrate = matches!(self.policy, Policy::CaRwr { .. } | Policy::CpSd { .. })
                && victim.reuse == ReuseClass::Read;
            if migrate {
                self.place_nvm(now, set, victim, true);
            } else {
                self.retire(victim);
            }
        }
        self.commit(now, set, way, line, false);
    }

    /// SRAM way holding the most-recently-used loop-block, if any.
    fn most_recent_lb_way(&self, set: usize) -> Option<usize> {
        let mut best: Option<(usize, u64)> = None;
        for way in 0..self.sram_ways {
            if !self.ways.is_valid(set, way) {
                continue;
            }
            if self.ways.reuse(set, way) == ReuseClass::Read {
                let stamp = self.ways.lru(set, way);
                if best.is_none_or(|(_, s)| stamp > s) {
                    best = Some((way, stamp));
                }
            }
        }
        best.map(|(w, _)| w)
    }
}

impl LlcPort for HybridLlc {
    #[expect(clippy::indexing_slicing, reason = "set % BANKS < BANKS")]
    fn request(&mut self, now: u64, block: u64, req: LlcReq) -> LlcResponse {
        self.maybe_epoch(now);
        match req {
            LlcReq::GetS => self.stats.gets += 1,
            LlcReq::GetX => self.stats.getx += 1,
        }
        let set = set_index(block, self.sets);
        let Some(way) = self.ways.find(set, block) else {
            self.stats.misses += 1;
            return LlcResponse::miss();
        };

        self.stats.hits += 1;
        let nvm = self.part_of(way) == Part::Nvm;
        if nvm {
            self.stats.nvm_hits += 1;
        } else {
            self.stats.sram_hits += 1;
        }
        if let Some(d) = &mut self.dueling {
            d.record_hit(set);
        }

        let stamp = self.next_stamp();
        let dirty = self.ways.dirty(set, way);
        let tap_count = match self.policy {
            Policy::Tap { .. } => self.tap_observe(block, dirty, req),
            Policy::Bh
            | Policy::BhCp
            | Policy::Ca { .. }
            | Policy::CaRwr { .. }
            | Policy::CpSd { .. }
            | Policy::LHybrid => 0,
        };
        let reuse = self.classify_hit(dirty, req, tap_count);
        let compressed = nvm && self.policy.uses_compression() && self.ways.cb_size(set, way) < 64;
        let extra_cycles = if nvm {
            self.clock = self.clock.max(now);
            // Wait for the in-flight write; capped at one write duration so
            // per-core clock skew cannot masquerade as queueing.
            let wait = (self.bank_busy_until[set % BANKS].saturating_sub(self.clock) as u32)
                .min(NVM_WRITE_CYCLES);
            self.stats.write_stall_cycles += u64::from(wait);
            wait
        } else {
            0
        };

        match req {
            LlcReq::GetX => {
                // Invalidate-on-hit: ownership moves to the private levels.
                self.ways.take(set, way);
            }
            LlcReq::GetS => {
                self.ways.touch(set, way, stamp);
                self.ways.set_reuse(set, way, reuse);
            }
        }

        LlcResponse {
            hit: true,
            nvm,
            compressed,
            reuse,
            extra_cycles,
        }
    }

    fn insert(
        &mut self,
        now: u64,
        block: u64,
        dirty: bool,
        reuse: ReuseClass,
        data: &mut dyn DataModel,
    ) {
        self.maybe_epoch(now);
        let set = set_index(block, self.sets);

        if let Some(way) = self.ways.find(set, block) {
            if !dirty {
                // Clean copy already resident: refresh LRU only ("written if
                // it was not there", §III-A).
                let stamp = self.next_stamp();
                self.ways.touch(set, way, stamp);
                return;
            }
            // Stale resident copy vs dirty incoming data: replace it.
            self.ways.take(set, way);
        }

        let cb_size = if self.policy.uses_compression() {
            data.compressed_size(block)
        } else {
            64
        };
        let stamp = self.next_stamp();
        let line = LineState::new(block, dirty, reuse, cb_size, stamp);

        match self.policy {
            // Global Fit-LRU over all ways for the NVM-unaware baselines.
            Policy::Bh | Policy::BhCp => {
                let ecb = self.ecb(&line);
                match self.victim(set, 0..self.ways.ways(), ecb, true) {
                    Some(way) => self.commit(now, set, way, line, false),
                    None => self.bypass(line),
                }
            }
            Policy::Ca { .. }
            | Policy::CaRwr { .. }
            | Policy::CpSd { .. }
            | Policy::LHybrid
            | Policy::Tap { .. } => {
                if self.goes_to_nvm(set, &line) {
                    self.place_nvm(now, set, line, false);
                } else {
                    self.place_sram(now, set, line);
                }
            }
        }
    }

    fn stats(&self) -> &LlcStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = LlcStats::default();
        if let Some(a) = &mut self.array {
            a.reset_write_stats();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const SETS: usize = 8;

    /// Sticky pseudo-random size in 1..=64 from the hash of the block.
    struct HashSizeData;

    impl DataModel for HashSizeData {
        fn compressed_size(&mut self, block: u64) -> u8 {
            let h = block.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58;
            [
                1u8, 8, 15, 19, 22, 29, 33, 34, 36, 43, 49, 50, 57, 64, 64, 64,
            ][h as usize % 16]
        }
    }

    /// Inserts as `(dirty, reuse)`: clean, dirty, read reuse, write reuse.
    const INSERTS: [(bool, ReuseClass); 4] = [
        (false, ReuseClass::None),
        (true, ReuseClass::None),
        (false, ReuseClass::Read),
        (true, ReuseClass::Write),
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// NVM-resident compressed blocks always fit their frame's
        /// capacity. Ops 0..4 index `INSERTS`; 4 is a GetS, 5 a GetX.
        #[test]
        fn nvm_residents_fit_their_frames(
            ops in prop::collection::vec((0usize..6, 0u64..64), 1..400),
            faulty_bytes in 0usize..40,
        ) {
            let cfg = HybridConfig::new(SETS, 4, 12, Policy::cp_sd());
            let mut llc = HybridLlc::new(&cfg);
            // Injure some frames first.
            for set in 0..SETS {
                for way in 0..12 {
                    let n = (set * 7 + way * 13 + faulty_bytes) % faulty_bytes.max(1);
                    for b in 0..n {
                        llc.array_mut().unwrap().disable_byte(set, way, b);
                    }
                }
            }
            for (now, &(op, block)) in ops.iter().enumerate() {
                let now = now as u64;
                match INSERTS.get(op) {
                    Some(&(dirty, reuse)) => llc.insert(now, block, dirty, reuse, &mut HashSizeData),
                    None => {
                        let req = if op == 4 { LlcReq::GetS } else { LlcReq::GetX };
                        let _ = llc.request(now, block, req);
                    }
                }
            }
            for block in 0u64..64 {
                let set = set_index(block, SETS);
                if llc.locate(block) == Some(Part::Nvm) {
                    let line = llc.peek(block).unwrap();
                    let way = llc.ways.find(set, block).unwrap();
                    let capacity = llc.array().unwrap().effective_capacity(set, way - 4);
                    prop_assert!(
                        line.ecb_size() <= capacity,
                        "block {block}: ECB {} bytes in a {capacity}-byte frame",
                        line.ecb_size()
                    );
                }
            }
        }
    }
}
