//! Golden determinism pins: `hllc run --json` output must stay
//! byte-identical across refactors of the simulation kernel.
//!
//! The files under `tests/golden/` were produced by
//!
//! ```text
//! hllc run --json --policy <p> --mix <m> --cycles 400000 --seed 7
//! ```
//!
//! before the struct-of-arrays kernel refactor. Any change to victim
//! selection, LRU bookkeeping, size probing, or fault-map accounting shows
//! up here as a diff. If a behaviour change is *intended*, regenerate the
//! files with the command above and explain the change in the commit.

use hybrid_llc::cli::Args;
use hybrid_llc::llc::Policy;
use hybrid_llc::session::{live_session, stats_json};
use hybrid_llc::trace::mixes;

fn golden_case(policy: Policy, policy_slug: &str, mix: usize) {
    let args = Args::scaled(policy, mix, 400_000.0, 7);
    let stats = live_session(&args);
    let value = stats_json(&policy.name(), mixes()[mix].name, &stats);
    let rendered = serde_json::to_string_pretty(&value).unwrap() + "\n";

    let path = format!(
        "{}/tests/golden/run_{policy_slug}_mix{}.json",
        env!("CARGO_MANIFEST_DIR"),
        mix + 1
    );
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    assert_eq!(
        rendered, golden,
        "stats JSON diverged from the pre-refactor golden {path}"
    );
}

#[test]
fn bh_matches_the_golden_trace() {
    golden_case(Policy::Bh, "bh", 0);
    golden_case(Policy::Bh, "bh", 3);
}

#[test]
fn lhybrid_matches_the_golden_trace() {
    golden_case(Policy::LHybrid, "lhybrid", 0);
    golden_case(Policy::LHybrid, "lhybrid", 3);
}

#[test]
fn cp_sd_matches_the_golden_trace() {
    golden_case(Policy::cp_sd(), "cp_sd", 0);
    golden_case(Policy::cp_sd(), "cp_sd", 3);
}
