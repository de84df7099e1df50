//! Model-based property tests for the coherence protocol.
//!
//! `check-protocol` (in `hllc-xtask`) proves the reachable state space
//! exhaustively via symmetry classes; these tests attack the same model
//! with *random concrete* request sequences, which additionally exercises
//! the model over arbitrary core permutations rather than only canonical
//! representatives. A sequence must never panic, never reach a
//! configuration missing from the transition table, and keep every
//! invariant after every step.

use hllc_sim::coherence::model::{ModelState, ProtocolError};
use hllc_sim::coherence::{CacheState, ReqKind};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    Request {
        core: usize,
        req: ReqKind,
        insert_kept: bool,
    },
    LlcEvict,
}

fn arb_op() -> impl Strategy<Value = Op> {
    (any::<usize>(), 0usize..9, any::<bool>()).prop_map(|(core, r, insert_kept)| match r {
        0..=2 => Op::Request {
            core,
            req: ReqKind::Load,
            insert_kept,
        },
        3..=5 => Op::Request {
            core,
            req: ReqKind::Store,
            insert_kept,
        },
        6..=7 => Op::Request {
            core,
            req: ReqKind::Evict,
            insert_kept,
        },
        _ => Op::LlcEvict,
    })
}

proptest! {
    /// Random request sequences stay inside the transition table and keep
    /// every invariant: SWMR and no stale owner.
    #[test]
    fn random_sequences_never_leave_the_table(
        n in 1usize..=8,
        ops in prop::collection::vec(arb_op(), 1..200),
    ) {
        let mut m = ModelState::new(n);
        for op in ops {
            match op {
                Op::Request { core, req, insert_kept } => {
                    let core = core % n;
                    match m.apply(core, req, insert_kept) {
                        Ok(row) => prop_assert!(row < hllc_sim::coherence::TRANSITION_TABLE.len()),
                        // Evicting a block the core does not hold is the
                        // only request the model may reject.
                        Err(ProtocolError::BadRequest { .. }) => {
                            prop_assert_eq!(req, ReqKind::Evict);
                            prop_assert_eq!(m.cores[core], CacheState::I);
                        }
                        Err(e) => prop_assert!(false, "protocol fell off the table: {e}"),
                    }
                }
                Op::LlcEvict => m.llc_evict(),
            }
            if let Err(e) = m.check_invariants() {
                prop_assert!(false, "invariant violated after {e} in {m:?}");
            }
        }
    }

    /// A load followed by a store from the same core always ends with that
    /// core as the exclusive dirty owner, whatever state the system was
    /// driven into beforehand.
    #[test]
    fn store_always_ends_in_m(
        n in 1usize..=8,
        ops in prop::collection::vec(arb_op(), 0..100),
        requester in any::<usize>(),
    ) {
        let mut m = ModelState::new(n);
        for op in ops {
            match op {
                Op::Request { core, req, insert_kept } => {
                    let _ = m.apply(core % n, req, insert_kept);
                }
                Op::LlcEvict => m.llc_evict(),
            }
        }
        let requester = requester % n;
        m.apply(requester, ReqKind::Store, false).expect("store is always legal");
        prop_assert_eq!(m.cores[requester], CacheState::M);
        for (i, &s) in m.cores.iter().enumerate() {
            if i != requester {
                prop_assert_eq!(s, CacheState::I, "SWMR after store");
            }
        }
        prop_assert!(!m.llc, "invalidate-on-hit must purge the LLC copy");
        prop_assert!(m.check_invariants().is_ok());
    }
}
