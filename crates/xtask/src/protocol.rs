//! `check-protocol`: exhaustive state-space enumeration of the coherence
//! protocol in `hllc_sim::coherence`.
//!
//! The abstract state of one block across an `N`-core system is the
//! per-core L2 state plus the LLC presence bit. Cores holding the same
//! state are interchangeable (the protocol never names a core), so states
//! are explored as *sharer-mask symmetry classes* — the counts
//! `(llc, #S, #E, #M)` — which collapses the `4^N × 2` raw space to a few
//! hundred classes per core count. For every reachable class the checker
//! fires every request class a core can issue (`Load`/`Store` from each
//! distinct held state and from `I`, `Evict` from each held state), with
//! the LLC environment branched both ways (victim kept / bypassed) plus a
//! spontaneous LLC eviction, and after each transition verifies the
//! protocol invariants via [`ModelState::check_invariants`]:
//!
//! * SWMR and no-stale-owner;
//! * no missing table entry (a reachable configuration with no
//!   [`TRANSITION_TABLE`] row fails the run);
//! * no unreachable table entry (every row must be exercised).
//!
//! Directory consistency needs no check: the simulator keeps no sharer
//! directory, and recomputes a block's remote holders from the peer L2
//! states on each use, so the holder set cannot drift from them.

use hllc_sim::coherence::model::ModelState;
use hllc_sim::coherence::{CacheState, ReqKind, TRANSITION_TABLE};
use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// One symmetry class: the LLC presence bit and per-state core counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Class {
    llc: bool,
    n_s: u8,
    n_e: u8,
    n_m: u8,
}

impl Class {
    fn of(m: &ModelState) -> Class {
        let mut c = Class {
            llc: m.llc,
            n_s: 0,
            n_e: 0,
            n_m: 0,
        };
        for s in &m.cores {
            match s {
                CacheState::S => c.n_s += 1,
                CacheState::E => c.n_e += 1,
                CacheState::M => c.n_m += 1,
                CacheState::I => {}
            }
        }
        c
    }

    /// Canonical concrete representative: cores sorted `M, E, S, I…`.
    fn instantiate(&self, n: usize) -> ModelState {
        let mut m = ModelState::new(n);
        let mut i = 0usize;
        for _ in 0..self.n_m {
            m.cores[i] = CacheState::M;
            i += 1;
        }
        for _ in 0..self.n_e {
            m.cores[i] = CacheState::E;
            i += 1;
        }
        for _ in 0..self.n_s {
            m.cores[i] = CacheState::S;
            i += 1;
        }
        m.llc = self.llc;
        m
    }
}

/// The checker's result.
#[derive(Debug, Default)]
pub(crate) struct ProtocolReport {
    /// Core counts enumerated.
    pub(crate) max_cores: usize,
    /// Reachable symmetry classes, summed over all core counts.
    pub(crate) states_explored: u64,
    /// Transitions fired (request × environment branches + LLC evicts).
    pub(crate) transitions_checked: u64,
    /// Transition-table rows exercised (indices into `TRANSITION_TABLE`).
    pub(crate) rows_covered: BTreeSet<usize>,
    /// Reachable classes per core count (for the report).
    pub(crate) classes_per_n: BTreeMap<usize, u64>,
    /// Invariant violations / missing entries, as printable diagnostics.
    pub(crate) errors: Vec<String>,
}

impl ProtocolReport {
    /// True when every invariant held and the table is exactly the
    /// reachable set.
    pub(crate) fn ok(&self) -> bool {
        self.errors.is_empty() && self.rows_covered.len() == TRANSITION_TABLE.len()
    }
}

/// The distinct states cores currently hold, plus `I` if any core is idle
/// — one representative request source per class.
fn requester_classes(c: &Class, n: usize) -> Vec<CacheState> {
    let mut out = Vec::new();
    let held = usize::from(c.n_s) + usize::from(c.n_e) + usize::from(c.n_m);
    if c.n_m > 0 {
        out.push(CacheState::M);
    }
    if c.n_e > 0 {
        out.push(CacheState::E);
    }
    if c.n_s > 0 {
        out.push(CacheState::S);
    }
    if held < n {
        out.push(CacheState::I);
    }
    out
}

/// Index of the canonical representative core holding `state` (cores are
/// laid out `M, E, S, I…` by [`Class::instantiate`]).
fn core_holding(c: &Class, state: CacheState) -> usize {
    let (n_m, n_e, n_s) = (usize::from(c.n_m), usize::from(c.n_e), usize::from(c.n_s));
    match state {
        CacheState::M => 0,
        CacheState::E => n_m,
        CacheState::S => n_m + n_e,
        CacheState::I => n_m + n_e + n_s,
    }
}

/// Exhaustively enumerates the reachable classes for every core count in
/// `1..=max_cores`, firing every request/environment branch and checking
/// the invariants after each step.
pub(crate) fn check(max_cores: usize) -> ProtocolReport {
    let mut report = ProtocolReport {
        max_cores,
        ..ProtocolReport::default()
    };

    for n in 1..=max_cores {
        let mut seen: BTreeSet<Class> = BTreeSet::new();
        let mut queue: VecDeque<Class> = VecDeque::new();
        let start = Class {
            llc: false,
            n_s: 0,
            n_e: 0,
            n_m: 0,
        };
        seen.insert(start);
        queue.push_back(start);

        while let Some(class) = queue.pop_front() {
            let push = |c: Class, seen: &mut BTreeSet<Class>, queue: &mut VecDeque<Class>| {
                if seen.insert(c) {
                    queue.push_back(c);
                }
            };

            for requester in requester_classes(&class, n) {
                let core = core_holding(&class, requester);
                let mut reqs = vec![ReqKind::Load, ReqKind::Store];
                if requester != CacheState::I {
                    reqs.push(ReqKind::Evict);
                }
                for req in reqs {
                    for insert_kept in [false, true] {
                        let mut m = class.instantiate(n);
                        report.transitions_checked += 1;
                        match m.apply(core, req, insert_kept) {
                            Ok(row) => {
                                report.rows_covered.insert(row);
                                if let Err(e) = m.check_invariants() {
                                    report.errors.push(format!(
                                        "N={n} {class:?} core {core} {req:?} \
                                         (kept={insert_kept}): {e}"
                                    ));
                                } else {
                                    push(Class::of(&m), &mut seen, &mut queue);
                                }
                            }
                            Err(e) => {
                                report
                                    .errors
                                    .push(format!("N={n} {class:?} core {core} {req:?}: {e}"));
                            }
                        }
                    }
                }
            }

            // Environment event: the LLC silently evicts its copy.
            if class.llc {
                let mut m = class.instantiate(n);
                m.llc_evict();
                report.transitions_checked += 1;
                if let Err(e) = m.check_invariants() {
                    report
                        .errors
                        .push(format!("N={n} {class:?} llc-evict: {e}"));
                } else {
                    push(Class::of(&m), &mut seen, &mut queue);
                }
            }
        }

        report.classes_per_n.insert(n, seen.len() as u64);
        report.states_explored += seen.len() as u64;
    }

    if report.rows_covered.len() != TRANSITION_TABLE.len() {
        let missing: Vec<String> = (0..TRANSITION_TABLE.len())
            .filter(|i| !report.rows_covered.contains(i))
            .map(|i| {
                let r = &TRANSITION_TABLE[i];
                format!("row {i}: ({:?}, {:?}, {:?})", r.requester, r.others, r.req)
            })
            .collect();
        report.errors.push(format!(
            "unreachable transition-table entries: {}",
            missing.join(", ")
        ));
    }
    report
}

/// Renders the human summary.
pub(crate) fn render(report: &ProtocolReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "check-protocol: N=1..={} cores, sharer-mask symmetry classes\n",
        report.max_cores
    ));
    out.push_str(&format!(
        "  reachable classes: {} (per N: {})\n",
        report.states_explored,
        report
            .classes_per_n
            .iter()
            .map(|(n, c)| format!("{n}:{c}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    out.push_str(&format!(
        "  transitions checked: {}\n",
        report.transitions_checked
    ));
    out.push_str(&format!(
        "  table coverage: {}/{} rows reachable\n",
        report.rows_covered.len(),
        TRANSITION_TABLE.len()
    ));
    if report.errors.is_empty() {
        out.push_str("  invariants: SWMR ok; no stale owner; no missing table entries\n");
    } else {
        out.push_str(&format!("  FAILURES ({}):\n", report.errors.len()));
        for e in &report.errors {
            out.push_str(&format!("    {e}\n"));
        }
    }
    out
}

/// Builds the machine-readable report.
pub(crate) fn to_json(report: &ProtocolReport) -> Value {
    let mut obj: BTreeMap<String, Value> = BTreeMap::new();
    obj.insert(
        "max_cores".into(),
        serde_json::to_value(&(report.max_cores as u64)),
    );
    obj.insert(
        "states_explored".into(),
        serde_json::to_value(&report.states_explored),
    );
    obj.insert(
        "transitions_checked".into(),
        serde_json::to_value(&report.transitions_checked),
    );
    obj.insert(
        "rows_covered".into(),
        Value::Array(
            report
                .rows_covered
                .iter()
                .map(|&i| serde_json::to_value(&(i as u64)))
                .collect(),
        ),
    );
    obj.insert(
        "table_rows".into(),
        serde_json::to_value(&(TRANSITION_TABLE.len() as u64)),
    );
    obj.insert(
        "errors".into(),
        Value::Array(
            report
                .errors
                .iter()
                .map(|e| Value::String(e.clone()))
                .collect(),
        ),
    );
    obj.insert("ok".into(), Value::Bool(report.ok()));
    Value::Object(obj)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_core_covers_exactly_the_private_rows() {
        let report = check(1);
        assert!(report.errors.iter().all(|e| e.contains("unreachable")));
        // With one core every `others` summary is `None`: 11 of the 20
        // rows are reachable (4 load, 4 store, 3 evict).
        assert_eq!(report.rows_covered.len(), 11);
    }

    #[test]
    fn two_cores_reach_the_full_table() {
        let report = check(2);
        assert!(report.ok(), "{}", render(&report));
        assert_eq!(report.rows_covered.len(), TRANSITION_TABLE.len());
    }

    #[test]
    fn sixteen_cores_hold_every_invariant() {
        let report = check(16);
        assert!(report.ok(), "{}", render(&report));
    }
}
