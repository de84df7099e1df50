//! The multi-core hierarchy: private L1/L2 over a pluggable LLC.
//!
//! # Protocol
//!
//! The hierarchy implements the paper's NVM-friendly non-inclusive model
//! (§III-A):
//!
//! * A miss in all levels fetches from main memory **directly into L1/L2**;
//!   the LLC is not filled on the way in.
//! * The victim replaced in L2, clean or dirty, is sent to the LLC and
//!   written if it was not already there.
//! * A `GetX` (write permission) request that hits the LLC returns the
//!   block and **invalidates** the LLC copy.
//!
//! # Coherence
//!
//! L2 entries carry M/E/S states: memory fills grant E (no LLC copy), LLC
//! `GetS` hits grant S (the LLC keeps a copy), stores upgrade S→M through a
//! `GetX` to the LLC and E→M silently.
//!
//! The L2 coherence state is the only record of who holds a block and
//! whether it is dirty (`M` is the only dirty state). There is no sharer
//! directory: when the table needs the remote side, one `peek` pass over
//! the peer L2s (at most 15) yields both the remote class and the mask of
//! holders. Each `peek` first tests the peer's address signature (see
//! [`Cache`]), so a block from another app's address slot costs two word
//! tests per peer instead of a set scan. Cross-core reads of a modified
//! block trigger a cache-to-cache transfer (the dirty data is
//! simultaneously written back into the LLC, which becomes the owner — the
//! "O" responsibility of MOESI); writes invalidate every remote copy. The paper's multi-programmed workloads
//! never share, so the peer probe always comes back empty there, but the
//! protocol is fully functional (see `assert_coherent` and the sharing
//! tests).
//!
//! # Miss path
//!
//! A private miss scans the requester's L2 set once: the missed
//! [`Cache::lookup`] returns the [`Slot`] the fill will take, and `serve`
//! passes that slot down to `fill_l2`.
//!
//! The protocol itself is specified as data: every coherence decision is
//! a lookup in [`coherence::TRANSITION_TABLE`] through the pure
//! [`coherence::step`] function, and this module only *executes* the
//! decided [`Transition`]s (cache fills, LLC probes, statistics) in a
//! fixed canonical order. `hllc-xtask -- check-protocol` exhaustively
//! enumerates the table's reachable state space offline.

use crate::access::{Access, Op};
use crate::address::block_of;
use crate::cache::{Cache, Slot};
use crate::coherence::{
    self, CacheState, LlcOp, OthersClass, RemoteAction, ReqKind, ServeClass, Transition,
};
use crate::config::SystemConfig;
use crate::data::DataModel;
use crate::dram::Dram;
use crate::llc::{LlcPort, LlcReq, ReuseClass};
use crate::stats::HierarchyStats;
use crate::timing::{stall_cycles, ServiceLevel, TimingModel, CPI_BASE};

#[derive(Clone, Copy, Debug)]
struct L2Meta {
    /// Coherence state; resident entries are never `CacheState::I`.
    state: CacheState,
    reuse: ReuseClass,
}

/// Looks the configuration up in the transition table.
#[expect(
    clippy::panic,
    reason = "a missing transition-table entry is a protocol bug, not a recoverable error; \
              check-protocol proves the reachable set is fully covered, so this panic is \
              unreachable"
)]
fn step_or_panic(requester: CacheState, others: OthersClass, req: ReqKind) -> Transition {
    coherence::step(requester, others, req).unwrap_or_else(|| {
        panic!("no coherence transition for ({requester:?}, {others:?}, {req:?})")
    })
}

/// Private L1/L2 per core in front of a shared LLC implementation `L`,
/// consulting data model `D` for block compressibility.
///
/// # Example
///
/// ```
/// use hllc_sim::{Access, ConstSizeData, Hierarchy, NullLlc, SystemConfig};
///
/// let mut h = Hierarchy::new(&SystemConfig::default(), NullLlc::default(),
///                            ConstSizeData::new(64));
/// h.access(&Access::load(0, 0x40));
/// h.access(&Access::load(0, 0x40)); // L1 hit
/// assert_eq!(h.stats().services[0], 1);
/// ```
#[derive(Clone, Debug)]
pub struct Hierarchy<L, D> {
    l1: Vec<Cache<()>>,
    l2: Vec<Cache<L2Meta>>,
    llc: L,
    data: D,
    timing: TimingModel,
    dram: Option<Dram>,
    stats: HierarchyStats,
    clocks: Vec<f64>,
}

impl<L: LlcPort, D: DataModel> Hierarchy<L, D> {
    /// Builds the hierarchy described by `cfg` around the given LLC.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.cores` exceeds 16 (the peer probe reports remote
    /// holders in a 16-bit mask; the paper's system has 4 cores).
    /// User-facing inputs are range-checked earlier by
    /// `ExperimentSpec::validate` in `hllc-config`; this assert is the
    /// last-resort guard for configs built by hand.
    pub fn new(cfg: &SystemConfig, llc: L, data: D) -> Self {
        assert!(
            cfg.cores <= 16,
            "the 16-bit remote mask supports at most 16 cores"
        );
        Hierarchy {
            l1: (0..cfg.cores)
                .map(|_| Cache::new(cfg.l1_sets, cfg.l1_ways))
                .collect(),
            l2: (0..cfg.cores)
                .map(|_| Cache::new(cfg.l2_sets, cfg.l2_ways))
                .collect(),
            llc,
            data,
            timing: cfg.timing,
            dram: cfg.dram.then(Dram::default),
            stats: HierarchyStats::new(cfg.cores),
            clocks: vec![0.0; cfg.cores],
        }
    }

    /// The DRAM model, when enabled.
    pub fn dram(&self) -> Option<&Dram> {
        self.dram.as_ref()
    }

    /// The LLC implementation.
    pub fn llc(&self) -> &L {
        &self.llc
    }

    /// Mutable access to the LLC (forecast state updates, epoch pokes).
    pub fn llc_mut(&mut self) -> &mut L {
        &mut self.llc
    }

    /// Consumes the hierarchy, returning its LLC.
    pub fn into_llc(self) -> L {
        self.llc
    }

    /// Hierarchy statistics.
    pub fn stats(&self) -> &HierarchyStats {
        &self.stats
    }

    /// Current cycle clock of `core`.
    #[expect(clippy::indexing_slicing, reason = "callers pass core < cores")]
    pub fn core_clock(&self, core: usize) -> f64 {
        self.clocks[core]
    }

    /// Minimum clock over all cores — the global time reference for
    /// interleaving drivers.
    pub fn min_clock(&self) -> f64 {
        self.clocks.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Instructions-per-cycle of `core` (0.0 before any work).
    #[expect(clippy::indexing_slicing, reason = "callers pass core < cores")]
    pub fn ipc(&self, core: usize) -> f64 {
        if self.clocks[core] == 0.0 {
            0.0
        } else {
            self.stats.instructions[core] as f64 / self.clocks[core]
        }
    }

    /// Arithmetic mean of per-core IPCs — the paper's workload metric.
    pub fn system_ipc(&self) -> f64 {
        let n = self.clocks.len();
        (0..n).map(|c| self.ipc(c)).sum::<f64>() / n as f64
    }

    /// Resets statistics and clocks (after warm-up). Cache contents and LLC
    /// policy state are preserved.
    pub fn reset_stats(&mut self) {
        let cores = self.clocks.len();
        self.stats = HierarchyStats::new(cores);
        self.clocks.iter_mut().for_each(|c| *c = 0.0);
        self.llc.reset_stats();
    }

    /// Executes one memory reference, advancing the issuing core's clock.
    /// Returns the stall cycles charged.
    #[expect(clippy::indexing_slicing, reason = "drivers issue a.core < cores")]
    pub fn access(&mut self, a: &Access) -> f64 {
        let core = a.core as usize;
        let block = block_of(a.addr);

        self.clocks[core] += a.instructions() as f64 * CPI_BASE;
        self.stats.instructions[core] += a.instructions();
        match a.op {
            Op::Load => self.stats.loads += 1,
            Op::Store => self.stats.stores += 1,
        }

        let now = self.clocks[core] as u64;
        let (level, raw_latency) = self.serve(core, block, a.op, now);
        // level_slot maps every ServiceLevel into 0..SERVICE_LEVELS.
        self.stats.services[HierarchyStats::level_slot(level)] += 1;

        let stall = stall_cycles(a.op, f64::from(raw_latency));
        self.clocks[core] += stall;
        stall
    }

    /// Resolves `block` for `core`, returning the serving level and its
    /// raw latency in cycles (variable for DRAM and contended NVM banks).
    #[expect(clippy::indexing_slicing, reason = "core < cores (see access)")]
    fn serve(&mut self, core: usize, block: u64, op: Op, now: u64) -> (ServiceLevel, u32) {
        // L1.
        if self.l1[core].lookup(block).is_ok() {
            if op == Op::Store {
                self.ensure_writable(core, block, now);
            }
            return (ServiceLevel::L1, self.timing.latency(ServiceLevel::L1));
        }

        // L2: on a miss the same scan yields the way the fill will take.
        // Nothing below touches this core's own L2 set before `fill_l2`:
        // the remote mask excludes the requester and the LLC never reaches
        // into the private levels, so the slot stays exact.
        let slot = match self.l2[core].lookup(block) {
            Ok(_) => {
                if op == Op::Store {
                    self.ensure_writable(core, block, now);
                }
                self.fill_l1(core, block);
                return (ServiceLevel::L2, self.timing.latency(ServiceLevel::L2));
            }
            Err(slot) => slot,
        };

        // Miss in the private levels: classify the rest of the system and
        // let the transition table decide what happens.
        let (others, remote_mask) = self.classify_remotes(core, block);
        let req = if op == Op::Store {
            ReqKind::Store
        } else {
            ReqKind::Load
        };
        let t = step_or_panic(CacheState::I, others, req);
        match t.serve {
            ServeClass::Remote => {
                let level = self.serve_from_remote(core, block, slot, &t, remote_mask, now);
                (level, self.timing.latency(level))
            }
            ServeClass::LlcOrMemory | ServeClass::Local | ServeClass::NoService => {
                debug_assert_eq!(t.serve, ServeClass::LlcOrMemory);
                self.serve_from_llc_or_memory(core, block, slot, &t, now)
            }
        }
    }

    /// Executes an `LlcOrMemory` transition: probe the LLC, fall back to
    /// main memory, fill the private levels in the table-decided state
    /// (the L2 fill takes `slot`, from the missed L2 lookup).
    fn serve_from_llc_or_memory(
        &mut self,
        core: usize,
        block: u64,
        slot: Slot,
        t: &Transition,
        now: u64,
    ) -> (ServiceLevel, u32) {
        let req = match t.llc {
            LlcOp::GetX => LlcReq::GetX,
            LlcOp::GetS
            | LlcOp::None
            | LlcOp::WritebackDirty
            | LlcOp::InsertClean
            | LlcOp::InsertDirty => {
                debug_assert_eq!(t.llc, LlcOp::GetS);
                LlcReq::GetS
            }
        };
        let resp = self.llc.request(now, block, req);
        let (level, latency, state, reuse) = if resp.hit {
            let level = match (resp.nvm, resp.compressed) {
                (false, _) => ServiceLevel::LlcSram,
                (true, false) => ServiceLevel::LlcNvm,
                (true, true) => ServiceLevel::LlcNvmCompressed,
            };
            let latency = self.timing.latency(level) + resp.extra_cycles;
            (level, latency, t.next_on_hit, resp.reuse)
        } else {
            let latency = match &mut self.dram {
                Some(dram) => dram.access(block, now),
                None => self.timing.latency(ServiceLevel::Memory),
            };
            (
                ServiceLevel::Memory,
                latency,
                t.next_on_miss,
                ReuseClass::None,
            )
        };

        self.fill_l2(core, slot, block, state, reuse, now);
        self.fill_l1(core, block);
        (level, latency)
    }

    /// Summarizes the holders of `block` other than `core` with one `peek`
    /// pass over the peer L2s. Returns the class the transition table
    /// keys on (a dirty owner wins, then an exclusive-clean owner, then
    /// sharers) and the mask of peers holding the block.
    fn classify_remotes(&self, core: usize, block: u64) -> (OthersClass, u16) {
        let mut class = OthersClass::None;
        let mut mask = 0u16;
        for (other, l2) in self.l2.iter().enumerate() {
            if other == core {
                continue;
            }
            let Some(e) = l2.peek(block) else {
                continue;
            };
            mask |= 1 << other;
            let seen = match e.aux.state {
                CacheState::M => OthersClass::OwnerM,
                CacheState::E => OthersClass::OwnerE,
                CacheState::S | CacheState::I => OthersClass::Sharers,
            };
            // OthersClass is declared in precedence order.
            if seen as u8 > class as u8 {
                class = seen;
            }
        }
        (class, mask)
    }

    /// Grants write permission for a block already held in L2: S requires a
    /// `GetX` through the LLC (invalidate-on-hit); E/M upgrade silently.
    /// The table decides; this only executes the transition.
    #[expect(clippy::indexing_slicing, reason = "core < cores (see access)")]
    fn ensure_writable(&mut self, core: usize, block: u64, now: u64) {
        let Ok(entry) = self.l2[core].lookup(block) else {
            debug_assert!(false, "writable block must be in L2");
            return;
        };
        let state = entry.aux.state;
        // SWMR (proven by `check-protocol`) lets the owner states skip the
        // peer probe: an E/M holder never has remote company.
        let (others, remote_mask) = match state {
            CacheState::M | CacheState::E => (OthersClass::None, 0),
            CacheState::S | CacheState::I => self.classify_remotes(core, block),
        };
        let t = step_or_panic(state, others, ReqKind::Store);
        if t.upgrade {
            self.stats.upgrades += 1;
        }
        if t.remote == RemoteAction::Invalidate {
            self.invalidate_remote(block, remote_mask);
        }
        match t.llc {
            LlcOp::GetX => {
                let resp = self.llc.request(now, block, LlcReq::GetX);
                let Ok(entry) = self.l2[core].lookup(block) else {
                    debug_assert!(false, "upgraded block vanished from L2");
                    return;
                };
                entry.aux.state = if resp.hit {
                    t.next_on_hit
                } else {
                    t.next_on_miss
                };
                if resp.hit {
                    entry.aux.reuse = resp.reuse;
                }
            }
            LlcOp::None
            | LlcOp::GetS
            | LlcOp::WritebackDirty
            | LlcOp::InsertClean
            | LlcOp::InsertDirty => {
                debug_assert_eq!(t.llc, LlcOp::None);
                if let Some(entry) = self.l2[core].entry_mut(block) {
                    entry.aux.state = t.next_on_hit;
                }
            }
        }
        debug_assert_eq!(
            self.l2[core].peek(block).map(|e| e.aux.state),
            Some(CacheState::M),
            "store transitions always end in M"
        );
    }

    #[expect(clippy::indexing_slicing, reason = "core < cores (see access)")]
    fn fill_l1(&mut self, core: usize, block: u64) {
        // L1 victims need no action: a store moves the L2 copy to M, so the
        // L1 copy is never the only up-to-date one.
        let _ = self.l1[core].insert(block, ());
    }

    /// Fills L2 at `slot` (from the missed lookup) and routes the L2
    /// victim (clean or dirty) into the LLC — the non-inclusive insertion
    /// path that generates all LLC write traffic. The victim follows the
    /// table's `Evict` transitions (requester → I, LLC insert, clean or
    /// dirty by coherence state); those rows do not depend on the remote
    /// summary, so the hot path skips re-classifying the victim block.
    #[expect(clippy::indexing_slicing, reason = "core < cores (see access)")]
    fn fill_l2(
        &mut self,
        core: usize,
        slot: Slot,
        block: u64,
        state: CacheState,
        reuse: ReuseClass,
        now: u64,
    ) {
        debug_assert_ne!(state, CacheState::I, "resident entries are never I");
        if let Some(v) = self.l2[core].fill(slot, block, L2Meta { state, reuse }) {
            // Inclusion: drop the L1 copy of the victim.
            let _ = self.l1[core].invalidate(v.block);
            let dirty = v.aux.state == CacheState::M;
            self.llc
                .insert(now, v.block, dirty, v.aux.reuse, &mut self.data);
        }
    }

    /// Executes a `Remote` transition: serves an L2 miss from a remote
    /// private cache (cache-to-cache).
    ///
    /// * `Downgrade` (loads): every remote copy drops to S; a modified
    ///   owner's dirty data is written back into the LLC (which becomes
    ///   the owner) as it is forwarded. The requester receives S.
    /// * `Invalidate` (stores): every remote copy (L1 + L2) is
    ///   invalidated; the requester receives M. Any LLC copy is
    ///   invalidated too (GetX).
    #[expect(clippy::indexing_slicing, reason = "other < l2.len(): the loop bound")]
    fn serve_from_remote(
        &mut self,
        core: usize,
        block: u64,
        slot: Slot,
        t: &Transition,
        remote_mask: u16,
        now: u64,
    ) -> ServiceLevel {
        let mut forwarded_reuse = ReuseClass::None;
        if t.remote == RemoteAction::Invalidate {
            self.invalidate_remote(block, remote_mask);
            // The LLC may also hold a (clean) copy: invalidate-on-GetX.
            debug_assert_eq!(t.llc, LlcOp::GetX);
            let resp = self.llc.request(now, block, LlcReq::GetX);
            if resp.hit {
                forwarded_reuse = resp.reuse;
            }
            self.fill_l2(core, slot, block, t.next_on_hit, forwarded_reuse, now);
            self.fill_l1(core, block);
        } else {
            debug_assert_eq!(t.remote, RemoteAction::Downgrade);
            let mut observed_dirty = false;
            for other in 0..self.l2.len() {
                if remote_mask & (1 << other) == 0 {
                    continue;
                }
                let Some(entry) = self.l2[other].entry_mut(block) else {
                    debug_assert!(false, "remote mask points at a core without the block");
                    continue;
                };
                if entry.aux.state == CacheState::M {
                    observed_dirty = true;
                }
                forwarded_reuse = entry.aux.reuse;
                entry.aux.state = CacheState::S;
            }
            let writeback = t.llc == LlcOp::WritebackDirty;
            debug_assert_eq!(
                writeback, observed_dirty,
                "table writeback decision must match the observed owner state"
            );
            if writeback {
                // Ownership of the dirty data transfers to the LLC.
                self.llc
                    .insert(now, block, true, forwarded_reuse, &mut self.data);
            }
            self.fill_l2(core, slot, block, t.next_on_hit, forwarded_reuse, now);
            self.fill_l1(core, block);
        }
        ServiceLevel::RemoteL2
    }

    /// Invalidates `block` in every core of `mask` (L1 and L2). Dirty
    /// remote data is implicitly forwarded to the requesting writer, whose
    /// copy ends in `M`.
    #[expect(clippy::indexing_slicing, reason = "other < l2.len() == l1.len()")]
    fn invalidate_remote(&mut self, block: u64, mask: u16) {
        for other in 0..self.l2.len() {
            if mask & (1 << other) == 0 {
                continue;
            }
            let _ = self.l1[other].invalidate(block);
            let _ = self.l2[other].invalidate(block);
            self.stats.remote_invalidations += 1;
        }
    }

    /// Verifies the coherence invariants (test/diagnostic helper): no
    /// resident L2 entry is in `I`, and a block held in `E` or `M` has no
    /// other holder (SWMR).
    ///
    /// # Panics
    ///
    /// Panics if an invariant is violated.
    pub fn assert_coherent(&self) {
        for (core, l2) in self.l2.iter().enumerate() {
            for e in l2.iter() {
                let block = e.block;
                assert_ne!(e.aux.state, CacheState::I, "resident block {block:#x} in I");
                if e.aux.state != CacheState::S {
                    let (_, remote_mask) = self.classify_remotes(core, block);
                    assert_eq!(
                        remote_mask, 0,
                        "block {block:#x} is {:?} in core {core} with remote holders {remote_mask:#x}",
                        e.aux.state
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::data::ConstSizeData;
    use crate::llc::{LlcResponse, LlcStats, NullLlc};

    fn tiny_cfg() -> SystemConfig {
        let mut cfg = SystemConfig::paper_default();
        cfg.cores = 2;
        cfg.l1_sets = 2;
        cfg.l1_ways = 2;
        cfg.l2_sets = 2;
        cfg.l2_ways = 2;
        cfg
    }

    fn h() -> Hierarchy<NullLlc, ConstSizeData> {
        Hierarchy::new(&tiny_cfg(), NullLlc::default(), ConstSizeData::new(64))
    }

    #[test]
    fn l1_hit_after_fill() {
        let mut h = h();
        h.access(&Access::load(0, 0x40));
        h.access(&Access::load(0, 0x40));
        assert_eq!(h.stats().services[0], 1); // one L1 hit
        assert_eq!(h.stats().services[5], 1); // one memory fill
    }

    #[test]
    fn l2_victims_are_inserted_into_llc() {
        let mut h = h();
        // Fill one L2 set (2 ways) and overflow it: 3 blocks, same set.
        // L2 has 2 sets, so blocks 0, 2, 4 share set 0.
        for b in [0u64, 2, 4] {
            h.access(&Access::load(0, b * 64));
        }
        // Victim of the third fill must have been offered to the LLC.
        assert_eq!(h.llc().stats().bypasses, 1);
    }

    #[test]
    fn store_after_shared_fill_issues_upgrade() {
        // An LLC that reports hits so fills are granted S.
        #[derive(Default)]
        struct HitLlc {
            stats: LlcStats,
            invalidated: Vec<u64>,
        }
        impl LlcPort for HitLlc {
            fn request(&mut self, _n: u64, block: u64, req: LlcReq) -> LlcResponse {
                match req {
                    LlcReq::GetS => self.stats.gets += 1,
                    LlcReq::GetX => {
                        self.stats.getx += 1;
                        self.invalidated.push(block);
                    }
                }
                self.stats.hits += 1;
                LlcResponse {
                    hit: true,
                    nvm: false,
                    compressed: false,
                    reuse: ReuseClass::Read,
                    extra_cycles: 0,
                }
            }
            fn insert(
                &mut self,
                _n: u64,
                _b: u64,
                _d: bool,
                _r: ReuseClass,
                _dm: &mut dyn DataModel,
            ) {
            }
            fn stats(&self) -> &LlcStats {
                &self.stats
            }
            fn reset_stats(&mut self) {
                self.stats = LlcStats::default();
            }
        }

        let mut h = Hierarchy::new(&tiny_cfg(), HitLlc::default(), ConstSizeData::new(64));
        h.access(&Access::load(0, 0x80)); // GetS hit -> S state
        h.access(&Access::store(0, 0x80)); // L1 hit but S: must GetX
        assert_eq!(h.stats().upgrades, 1);
        assert_eq!(h.llc().invalidated, vec![2]);
        // A second store needs no new upgrade (now M).
        h.access(&Access::store(0, 0x80));
        assert_eq!(h.stats().upgrades, 1);
    }

    #[test]
    fn store_miss_is_getx_and_dirty_eviction_follows() {
        let mut h = h();
        h.access(&Access::store(0, 0)); // miss -> memory, M, dirty
        assert_eq!(h.llc().stats().getx, 1);
        // Evict it by filling the set: set 0 holds blocks 0,2,4.
        h.access(&Access::load(0, 2 * 64));
        h.access(&Access::load(0, 4 * 64));
        // Victim (block 0) must be offered dirty: NullLlc counts writebacks.
        assert_eq!(h.llc().stats().writebacks, 1);
    }

    #[test]
    fn shared_reads_are_forwarded_between_cores() {
        let mut h = h();
        h.access(&Access::load(0, 0x100));
        h.access(&Access::load(1, 0x100));
        // One memory fill; the second core is served core-to-core.
        assert_eq!(h.stats().services[5], 1);
        assert_eq!(h.stats().services[6], 1);
        h.assert_coherent();
    }

    #[test]
    fn disjoint_blocks_stay_private() {
        let mut h = h();
        h.access(&Access::load(0, 0x100));
        h.access(&Access::load(1, 0x10000));
        assert_eq!(h.stats().services[5], 2);
        assert_eq!(h.stats().services[6], 0);
        h.assert_coherent();
    }

    #[test]
    fn twelve_cores_share_through_the_peer_probe() {
        let mut cfg = tiny_cfg();
        cfg.cores = 12;
        let mut h = Hierarchy::new(&cfg, NullLlc::default(), ConstSizeData::new(64));
        // Every core reads the same block: the high cores exercise the
        // remote-mask bits beyond a u8 width.
        for core in 0..12 {
            h.access(&Access::load(core as u8, 0x1000));
        }
        h.assert_coherent();
        // One memory fill, eleven cache-to-cache transfers.
        assert_eq!(h.stats().services[5], 1);
        assert_eq!(h.stats().services[6], 11);
        // A store from core 11 invalidates all other copies.
        h.access(&Access::store(11, 0x1000));
        assert_eq!(h.stats().remote_invalidations, 11);
        h.assert_coherent();
    }

    #[test]
    #[should_panic(expected = "remote holders")]
    fn assert_coherent_catches_an_owner_with_company() {
        let mut h = h();
        h.access(&Access::load(0, 0x100)); // core 0 holds block 4 in E
        let meta = L2Meta {
            state: CacheState::S,
            reuse: ReuseClass::None,
        };
        let _ = h.l2[1].insert(4, meta);
        h.assert_coherent();
    }

    #[test]
    fn clocks_advance_with_stalls() {
        let mut h = h();
        let before = h.core_clock(0);
        h.access(&Access {
            inst_gap: 10,
            ..Access::load(0, 0)
        });
        assert!(h.core_clock(0) > before);
        assert!(h.ipc(0) > 0.0);
        // Other core untouched.
        assert_eq!(h.core_clock(1), 0.0);
    }

    #[test]
    fn reset_stats_preserves_contents() {
        let mut h = h();
        h.access(&Access::load(0, 0x40));
        h.reset_stats();
        assert_eq!(h.stats().accesses(), 0);
        h.access(&Access::load(0, 0x40));
        // Still an L1 hit: contents survived the reset.
        assert_eq!(h.stats().services[0], 1);
    }
}
