//! Pure, table-driven coherence protocol (§III-A).
//!
//! The MESI-subset protocol the [`Hierarchy`](crate::Hierarchy)
//! implements is specified here as data: an explicit
//! [`TRANSITION_TABLE`] mapping every reachable
//! (requester state, others summary, request) configuration to a
//! [`Transition`], and a pure, side-effect-free lookup [`step`]. The
//! hierarchy *executes* transitions (cache fills, LLC probes, stats);
//! this module only *decides* them, which is what lets
//! `hllc-xtask -- check-protocol` exhaustively enumerate the reachable
//! state space and prove the protocol invariants offline:
//!
//! * **SWMR** — at most one core in `E`/`M`, never alongside sharers;
//! * **no-stale-owner** — while a core owns a block (`E`/`M`), the LLC
//!   holds no copy (memory fills bypass the LLC, `GetX` hits invalidate);
//! * **table coverage** — every reachable configuration has exactly one
//!   table entry, and every table entry is reachable.
//!
//! There is no sharer directory to keep consistent: the per-core states
//! are the only record of who holds a block (the hierarchy recomputes the
//! remote holders from the peer L2s on each use), and `M` is the only
//! dirty state, so the table carries no separate dirty flag.
//!
//! The [`model`] submodule is the executable form of the abstract
//! protocol over N cores; the checker and the property tests drive it.

/// Per-core private-cache (L2) coherence state.
///
/// `I` means "not present"; resident L2 entries are never `I`. The states
/// are the MESI subset of §III-A: `E` is granted on a memory fill (no LLC
/// copy), `S` on an LLC or cache-to-cache read, `M` on any write.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum CacheState {
    /// Invalid / not present.
    I = 0,
    /// Shared clean: the LLC or other cores may also hold a copy.
    S = 1,
    /// Exclusive clean: filled from memory; no other copy anywhere.
    E = 2,
    /// Modified: exclusive and dirty; no other copy anywhere.
    M = 3,
}

/// The requester-relative summary of every *other* core's state.
///
/// Under SWMR these four classes are exhaustive: an owner (`E`/`M`) never
/// coexists with remote sharers, so the remote side is either empty, all
/// shared, or a single owner.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum OthersClass {
    /// No other core holds the block.
    None = 0,
    /// One or more other cores hold the block in `S`.
    Sharers = 1,
    /// Exactly one other core holds the block in `E`.
    OwnerE = 2,
    /// Exactly one other core holds the block in `M` (dirty).
    OwnerM = 3,
}

/// Coherence-relevant request kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ReqKind {
    /// A load issued by the requesting core.
    Load = 0,
    /// A store issued by the requesting core.
    Store = 1,
    /// The requesting core's L2 evicts its copy (victim to the LLC).
    Evict = 2,
}

/// What the shared LLC is asked to do during a transition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LlcOp {
    /// The LLC is not involved.
    None,
    /// Read probe: a hit leaves the LLC copy in place.
    GetS,
    /// Write-permission probe: a hit *invalidates* the LLC copy
    /// (invalidate-on-hit, §III-A).
    GetX,
    /// The remote owner's dirty data is written back into the LLC as it is
    /// forwarded (ownership transfers to the LLC).
    WritebackDirty,
    /// The evicted clean victim is inserted into the LLC.
    InsertClean,
    /// The evicted dirty victim is inserted into the LLC.
    InsertDirty,
}

/// What happens to the remote copies during a transition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RemoteAction {
    /// Remote copies are untouched.
    None,
    /// Every remote copy is downgraded to `S` (read forward).
    Downgrade,
    /// Every remote copy is invalidated (write).
    Invalidate,
}

/// Where the request is served from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeClass {
    /// The requester already holds the block (L1/L2 hit).
    Local,
    /// Cache-to-cache transfer from a remote private cache.
    Remote,
    /// LLC probe; on a miss the block comes from main memory.
    LlcOrMemory,
    /// Not a service (evictions).
    NoService,
}

/// The pure outcome of one coherence step: the requester's next state, the
/// fate of remote copies, and the LLC involvement. The hierarchy executes
/// these effects in a fixed canonical order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Transition {
    /// Requester state when the LLC probe hits (or unconditionally, when
    /// the transition involves no probe).
    pub next_on_hit: CacheState,
    /// Requester state when the LLC probe misses (equals `next_on_hit`
    /// when the transition involves no probe).
    pub next_on_miss: CacheState,
    /// Fate of remote copies.
    pub remote: RemoteAction,
    /// LLC involvement.
    pub llc: LlcOp,
    /// Service classification (drives the latency charged).
    pub serve: ServeClass,
    /// True if the step counts as an S→M upgrade in the statistics.
    pub upgrade: bool,
}

/// One row of the protocol specification.
#[derive(Clone, Copy, Debug)]
pub struct Rule {
    /// Requesting core's current state.
    pub requester: CacheState,
    /// Summary of the other cores.
    pub others: OthersClass,
    /// The request being served.
    pub req: ReqKind,
    /// The decided transition.
    pub action: Transition,
}

const fn t(
    next_on_hit: CacheState,
    next_on_miss: CacheState,
    remote: RemoteAction,
    llc: LlcOp,
    serve: ServeClass,
    upgrade: bool,
) -> Transition {
    Transition {
        next_on_hit,
        next_on_miss,
        remote,
        llc,
        serve,
        upgrade,
    }
}

const fn rule(
    requester: CacheState,
    others: OthersClass,
    req: ReqKind,
    action: Transition,
) -> Rule {
    Rule {
        requester,
        others,
        req,
        action,
    }
}

use CacheState::{E, I, M, S};
use LlcOp::{GetS, GetX, InsertClean, InsertDirty, WritebackDirty};
use OthersClass::{OwnerE, OwnerM, Sharers};
use RemoteAction::{Downgrade, Invalidate};
use ReqKind::{Evict, Load, Store};
use ServeClass::{LlcOrMemory, Local, NoService, Remote};

/// The complete protocol: every reachable (requester, others, request)
/// configuration and its transition. `check-protocol` proves this list is
/// exactly the reachable set — no entry missing, none unreachable.
pub const TRANSITION_TABLE: &[Rule] = &[
    // ---- Loads on a locally held block: silent hits. -------------------
    rule(
        S,
        OthersClass::None,
        Load,
        t(S, S, RemoteAction::None, LlcOp::None, Local, false),
    ),
    rule(
        S,
        Sharers,
        Load,
        t(S, S, RemoteAction::None, LlcOp::None, Local, false),
    ),
    rule(
        E,
        OthersClass::None,
        Load,
        t(E, E, RemoteAction::None, LlcOp::None, Local, false),
    ),
    rule(
        M,
        OthersClass::None,
        Load,
        t(M, M, RemoteAction::None, LlcOp::None, Local, false),
    ),
    // ---- Load misses. --------------------------------------------------
    // Nobody else holds it: probe the LLC; a hit grants S (the LLC keeps
    // its copy), a miss fills from memory in E.
    rule(
        I,
        OthersClass::None,
        Load,
        t(S, E, RemoteAction::None, GetS, LlcOrMemory, false),
    ),
    // Remote sharers: cache-to-cache forward, requester joins in S.
    rule(
        I,
        Sharers,
        Load,
        t(S, S, Downgrade, LlcOp::None, Remote, false),
    ),
    // Remote exclusive-clean owner: downgrade to S, forward.
    rule(
        I,
        OwnerE,
        Load,
        t(S, S, Downgrade, LlcOp::None, Remote, false),
    ),
    // Remote modified owner: downgrade to S; the dirty data is written
    // back into the LLC (which becomes the owner) as it is forwarded.
    rule(
        I,
        OwnerM,
        Load,
        t(S, S, Downgrade, WritebackDirty, Remote, false),
    ),
    // ---- Stores on a locally held block. -------------------------------
    rule(
        M,
        OthersClass::None,
        Store,
        t(M, M, RemoteAction::None, LlcOp::None, Local, false),
    ),
    // E→M upgrades silently (no bus traffic).
    rule(
        E,
        OthersClass::None,
        Store,
        t(M, M, RemoteAction::None, LlcOp::None, Local, false),
    ),
    // S→M is an upgrade: GetX through the LLC (invalidate-on-hit).
    rule(
        S,
        OthersClass::None,
        Store,
        t(M, M, RemoteAction::None, GetX, Local, true),
    ),
    // ... invalidating any remote shared copies first.
    rule(S, Sharers, Store, t(M, M, Invalidate, GetX, Local, true)),
    // ---- Store misses. -------------------------------------------------
    // Nobody else holds it: GetX probe (invalidate-on-hit), fill in M.
    rule(
        I,
        OthersClass::None,
        Store,
        t(M, M, RemoteAction::None, GetX, LlcOrMemory, false),
    ),
    // Remote copies exist: invalidate them all; a remote dirty owner's
    // data is implicitly forwarded to the requesting writer.
    rule(I, Sharers, Store, t(M, M, Invalidate, GetX, Remote, false)),
    rule(I, OwnerE, Store, t(M, M, Invalidate, GetX, Remote, false)),
    rule(I, OwnerM, Store, t(M, M, Invalidate, GetX, Remote, false)),
    // ---- Evictions (L2 victim to the LLC, non-inclusive insertion). ----
    rule(
        S,
        OthersClass::None,
        Evict,
        t(I, I, RemoteAction::None, InsertClean, NoService, false),
    ),
    rule(
        S,
        Sharers,
        Evict,
        t(I, I, RemoteAction::None, InsertClean, NoService, false),
    ),
    rule(
        E,
        OthersClass::None,
        Evict,
        t(I, I, RemoteAction::None, InsertClean, NoService, false),
    ),
    rule(
        M,
        OthersClass::None,
        Evict,
        t(I, I, RemoteAction::None, InsertDirty, NoService, false),
    ),
];

/// Number of distinct (requester, others, request) keys.
const KEY_SPACE: usize = 4 * 4 * 3;

const fn key(requester: CacheState, others: OthersClass, req: ReqKind) -> usize {
    requester as usize * 12 + others as usize * 3 + req as usize
}

/// Dense index from configuration key to table row, built at compile time.
/// A duplicate table entry is a compile error.
#[expect(clippy::indexing_slicing, reason = "i < table len; key() < KEY_SPACE")]
const LUT: [Option<u8>; KEY_SPACE] = {
    let mut lut: [Option<u8>; KEY_SPACE] = [None; KEY_SPACE];
    let mut i = 0;
    while i < TRANSITION_TABLE.len() {
        let r = &TRANSITION_TABLE[i];
        let k = key(r.requester, r.others, r.req);
        assert!(lut[k].is_none(), "duplicate transition-table entry");
        lut[k] = Some(i as u8);
        i += 1;
    }
    lut
};

/// Looks the configuration up in the transition table. Returns `None` for
/// configurations the protocol proves unreachable (e.g. a requester in `M`
/// alongside a remote owner) — hitting `None` at runtime is a protocol
/// bug, and `check-protocol` verifies the reachable set is fully covered.
#[expect(clippy::indexing_slicing, reason = "key() < KEY_SPACE; LUT holds rows")]
pub const fn step(requester: CacheState, others: OthersClass, req: ReqKind) -> Option<Transition> {
    match LUT[key(requester, others, req)] {
        Some(i) => Some(TRANSITION_TABLE[i as usize].action),
        None => None,
    }
}

/// Like [`step`], but returns the index of the matching
/// [`TRANSITION_TABLE`] row — the checker uses this to prove every entry
/// reachable.
#[expect(clippy::indexing_slicing, reason = "key() < KEY_SPACE")]
pub const fn step_index(requester: CacheState, others: OthersClass, req: ReqKind) -> Option<usize> {
    match LUT[key(requester, others, req)] {
        Some(i) => Some(i as usize),
        None => None,
    }
}

pub mod model {
    //! Executable abstract model of the protocol over N cores.
    //!
    //! This is the same transition table applied to an abstract system
    //! state: per-core [`CacheState`]s and one LLC presence bit, with the
    //! LLC environment (inserts kept or bypassed, silent LLC evictions)
    //! left nondeterministic. The `check-protocol` state-space checker
    //! enumerates it exhaustively; the property tests drive it with random
    //! request sequences.

    use super::{
        step_index, CacheState, LlcOp, OthersClass, RemoteAction, ReqKind, TRANSITION_TABLE,
    };

    /// A protocol invariant violation or specification gap found while
    /// applying a request to the abstract model.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum ProtocolError {
        /// A reachable (requester, others, request) configuration has no
        /// transition-table entry.
        MissingEntry {
            /// Requesting core's state.
            requester: CacheState,
            /// Summary of the other cores.
            others: OthersClass,
            /// The request without an entry.
            req: ReqKind,
        },
        /// More than one core in `E`/`M`, or an owner alongside sharers.
        MultipleOwners {
            /// Number of cores in `E` or `M`.
            owners: usize,
            /// Number of cores in `S`.
            sharers: usize,
        },
        /// A core owns the block (`E`/`M`) while the LLC also holds a copy.
        StaleOwner {
            /// The owning core.
            core: usize,
            /// The owner's state.
            state: CacheState,
        },
        /// A request was applied to a core that cannot issue it (evicting
        /// a block the core does not hold).
        BadRequest {
            /// The offending core.
            core: usize,
            /// The request.
            req: ReqKind,
        },
    }

    impl std::fmt::Display for ProtocolError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                ProtocolError::MissingEntry {
                    requester,
                    others,
                    req,
                } => write!(
                    f,
                    "no transition-table entry for ({requester:?}, {others:?}, {req:?})"
                ),
                ProtocolError::MultipleOwners { owners, sharers } => write!(
                    f,
                    "SWMR violated: {owners} owner(s) with {sharers} sharer(s)"
                ),
                ProtocolError::StaleOwner { core, state } => write!(
                    f,
                    "stale owner: core {core} in {state:?} while the LLC holds a copy"
                ),
                ProtocolError::BadRequest { core, req } => {
                    write!(f, "core {core} cannot issue {req:?} in state I")
                }
            }
        }
    }

    /// Abstract state of one block across the system.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    pub struct ModelState {
        /// Per-core L2 state.
        pub cores: Vec<CacheState>,
        /// True if the LLC holds a copy.
        pub llc: bool,
    }

    impl ModelState {
        /// All-invalid initial state for `n` cores (n ≤ 32).
        pub fn new(n: usize) -> Self {
            assert!((1..=32).contains(&n), "model supports 1..=32 cores");
            ModelState {
                cores: vec![CacheState::I; n],
                llc: false,
            }
        }

        /// Classifies every core but `core`, the way the hierarchy does
        /// before consulting the table: a dirty owner wins, then an
        /// exclusive-clean owner, then sharers.
        pub fn others_class(&self, core: usize) -> OthersClass {
            let mut class = OthersClass::None;
            for (i, s) in self.cores.iter().enumerate() {
                if i == core {
                    continue;
                }
                match s {
                    CacheState::M => return OthersClass::OwnerM,
                    CacheState::E => class = OthersClass::OwnerE,
                    CacheState::S => {
                        if class == OthersClass::None {
                            class = OthersClass::Sharers;
                        }
                    }
                    CacheState::I => {}
                }
            }
            class
        }

        /// Applies `req` issued by `core`. `insert_kept` resolves the LLC's
        /// nondeterministic choice to keep or bypass an inserted victim
        /// (only meaningful for `Evict` and dirty-forward writebacks).
        ///
        /// Returns the index of the [`TRANSITION_TABLE`] row applied.
        #[expect(clippy::indexing_slicing, reason = "core < cores.len(); idx is a row")]
        pub fn apply(
            &mut self,
            core: usize,
            req: ReqKind,
            insert_kept: bool,
        ) -> Result<usize, ProtocolError> {
            let requester = self.cores[core];
            if req == ReqKind::Evict && requester == CacheState::I {
                return Err(ProtocolError::BadRequest { core, req });
            }
            let others = self.others_class(core);
            let Some(idx) = step_index(requester, others, req) else {
                return Err(ProtocolError::MissingEntry {
                    requester,
                    others,
                    req,
                });
            };
            let t = TRANSITION_TABLE[idx].action;

            // Remote copies.
            match t.remote {
                RemoteAction::None => {}
                RemoteAction::Downgrade => {
                    for (i, s) in self.cores.iter_mut().enumerate() {
                        if i != core && *s != CacheState::I {
                            *s = CacheState::S;
                        }
                    }
                }
                RemoteAction::Invalidate => {
                    for (i, s) in self.cores.iter_mut().enumerate() {
                        if i != core && *s != CacheState::I {
                            *s = CacheState::I;
                        }
                    }
                }
            }

            // LLC involvement. Probes resolve hit/miss against the
            // presence bit; writebacks and inserts may be kept or dropped
            // by the (abstract) LLC.
            let probe_hit = self.llc;
            match t.llc {
                LlcOp::None => {}
                LlcOp::GetS => {}
                LlcOp::GetX => self.llc = false, // invalidate-on-hit (no-op on miss)
                LlcOp::WritebackDirty | LlcOp::InsertClean | LlcOp::InsertDirty => {
                    self.llc = self.llc || insert_kept;
                }
            }

            // Requester state.
            self.cores[core] = if probe_hit {
                t.next_on_hit
            } else {
                t.next_on_miss
            };
            Ok(idx)
        }

        /// The LLC silently evicts its copy (environment event).
        pub fn llc_evict(&mut self) {
            self.llc = false;
        }

        /// Verifies SWMR and no-stale-owner.
        pub fn check_invariants(&self) -> Result<(), ProtocolError> {
            let mut owners = 0usize;
            let mut sharers = 0usize;
            let mut owner_core = 0usize;
            let mut owner_state = CacheState::I;
            for (i, s) in self.cores.iter().enumerate() {
                match s {
                    CacheState::E | CacheState::M => {
                        owners += 1;
                        owner_core = i;
                        owner_state = *s;
                    }
                    CacheState::S => sharers += 1,
                    CacheState::I => {}
                }
            }
            if owners > 1 || (owners == 1 && sharers > 0) {
                return Err(ProtocolError::MultipleOwners { owners, sharers });
            }
            if owners == 1 && self.llc {
                return Err(ProtocolError::StaleOwner {
                    core: owner_core,
                    state: owner_state,
                });
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::model::{ModelState, ProtocolError};
    use super::*;

    #[test]
    fn table_has_no_duplicates_and_lut_agrees() {
        for (i, r) in TRANSITION_TABLE.iter().enumerate() {
            assert_eq!(step_index(r.requester, r.others, r.req), Some(i));
            assert_eq!(step(r.requester, r.others, r.req), Some(r.action));
        }
    }

    #[test]
    fn swmr_violating_configurations_have_no_entry() {
        // A requester already in M never coexists with another owner.
        assert_eq!(step(M, OwnerM, Load), None);
        assert_eq!(step(M, OwnerE, Store), None);
        assert_eq!(step(E, Sharers, Load), None);
        // A block the core does not hold cannot be evicted.
        assert_eq!(step(I, OthersClass::None, Evict), None);
    }

    #[test]
    fn load_miss_grants_e_from_memory_and_s_from_llc() {
        let t = step(I, OthersClass::None, Load).unwrap();
        assert_eq!(t.next_on_hit, S);
        assert_eq!(t.next_on_miss, E);
        assert_eq!(t.llc, GetS);
    }

    #[test]
    fn model_basic_sharing_round_trip() {
        let mut m = ModelState::new(4);
        m.apply(0, Load, false).unwrap(); // memory fill: E
        assert_eq!(m.cores[0], E);
        m.apply(1, Load, false).unwrap(); // forward: both S
        assert_eq!((m.cores[0], m.cores[1]), (S, S));
        m.apply(2, Store, false).unwrap(); // invalidate both, M
        assert_eq!(m.cores, vec![I, I, M, I]);
        m.check_invariants().unwrap();
        // Reading the dirty owner writes the data back into the LLC.
        m.apply(3, Load, true).unwrap();
        assert!(m.llc);
        assert_eq!((m.cores[2], m.cores[3]), (S, S));
        m.check_invariants().unwrap();
    }

    #[test]
    fn model_rejects_eviction_of_an_absent_block() {
        let mut m = ModelState::new(2);
        assert_eq!(
            m.apply(0, Evict, true),
            Err(ProtocolError::BadRequest {
                core: 0,
                req: Evict
            })
        );
    }
}
