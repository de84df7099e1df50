//! Golden determinism pins: `hllc run --json` output must stay
//! byte-identical across refactors of the simulation kernel.
//!
//! The files under `tests/golden/` were produced by
//!
//! ```text
//! hllc run --json --policy <p> --mix <m> --cycles 400000 --seed 7
//! ```
//!
//! and are named `run_<label>_mix<m>.json` after the policy's flag label.
//! The `_sramless` files run the same command on a `scaled` spec with
//! `sram_ways = 0` and `nvm_ways = 16` (`--spec` a dump of that variant).
//! Any change to victim selection, LRU bookkeeping, size probing, or
//! fault-map accounting shows up here as a diff. If a behaviour change is
//! *intended*, regenerate the files with the command above and explain the
//! change in the commit.

use hybrid_llc::cli::Args;
use hybrid_llc::llc::Policy;
use hybrid_llc::session::{live_session, stats_json};
use hybrid_llc::trace::mixes;

/// Compares `args`' stats JSON against `tests/golden/run_<stem>.json`.
fn golden_case(args: &Args, stem: &str) {
    let stats = live_session(args);
    let value = stats_json(
        &args.policy().name(),
        mixes()[args.mix_index()].name,
        &stats,
    );
    let rendered = serde_json::to_string_pretty(&value).unwrap() + "\n";

    let path = format!(
        "{}/tests/golden/run_{stem}.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    assert_eq!(
        rendered, golden,
        "stats JSON diverged from the pre-refactor golden {path}"
    );
}

/// `policy` on the `scaled` preset, mixes 1 and 4.
fn golden_policy(policy: Policy) {
    for mix in [0, 3] {
        let args = Args::scaled(policy, mix, 400_000.0, 7);
        golden_case(&args, &format!("{}_mix{}", policy.label(), mix + 1));
    }
}

/// `policy` on a `scaled` variant without SRAM ways (16 NVM ways), mixes 1
/// and 4: every insertion goes through the SRAM-less fallback.
fn golden_sramless(policy: Policy) {
    for mix in [0, 3] {
        let mut args = Args::scaled(policy, mix, 400_000.0, 7);
        args.spec.system.sram_ways = 0;
        args.spec.system.nvm_ways = 16;
        args.spec.validate().unwrap();
        golden_case(
            &args,
            &format!("{}_sramless_mix{}", policy.label(), mix + 1),
        );
    }
}

#[test]
fn bh_matches_the_golden_trace() {
    golden_policy(Policy::Bh);
}

#[test]
fn bh_cp_matches_the_golden_trace() {
    golden_policy(Policy::BhCp);
}

#[test]
fn ca_matches_the_golden_trace() {
    golden_policy(Policy::parse("ca").unwrap());
}

#[test]
fn ca_rwr_matches_the_golden_trace() {
    golden_policy(Policy::parse("ca_rwr").unwrap());
}

#[test]
fn lhybrid_matches_the_golden_trace() {
    golden_policy(Policy::LHybrid);
}

#[test]
fn cp_sd_matches_the_golden_trace() {
    golden_policy(Policy::cp_sd());
}

#[test]
fn cp_sd_th8_matches_the_golden_trace() {
    golden_policy(Policy::cp_sd_th(8.0));
}

#[test]
fn tap_matches_the_golden_trace() {
    golden_policy(Policy::tap());
}

#[test]
fn sramless_bh_matches_the_golden_trace() {
    golden_sramless(Policy::Bh);
}

#[test]
fn sramless_cp_sd_matches_the_golden_trace() {
    golden_sramless(Policy::cp_sd());
}
