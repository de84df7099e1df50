//! Experiment harness shared by the per-figure/per-table bench targets.
//!
//! Every table and figure of the paper's evaluation has a `[[bench]]`
//! target (with `harness = false`) that regenerates its rows or series:
//! run `cargo bench -p hllc-bench --bench fig10a` (or any other target)
//! and read the ASCII report; a machine-readable JSON copy is written under
//! `crates/bench/target/figures/` (the bench processes run with the
//! package directory as their working directory).
//!
//! Every curve or row of a harness is an edit of one resolved
//! `ExperimentSpec` (see [`exp`]), measured by one per-mix fan-out
//! ([`exp::ExpOpts::measure`]) or one forecast grid
//! ([`exp::run_forecast_experiment`]).
//!
//! Environment knobs (all optional; a malformed value is an error naming
//! the variable, not a silent default):
//!
//! * `HLLC_MIXES` — how many of the ten Table V mixes to average over
//!   (1..=10, default 3; the paper uses all 10).
//! * `HLLC_SEED` — base RNG seed (default: the preset's `workload.seed`, 42).
//! * `HLLC_FULL=1` — run at the paper's full scale (4 MB LLC, μ = 10¹⁰)
//!   instead of the fast scaled-down configuration (`fig10a` over all ten
//!   mixes took 3 m 35 s on a 2-vCPU VM).
//! * `HLLC_JOBS` — worker threads for the per-mix and per-curve fan-out
//!   (default: all cores). Every harness writes the same output for any
//!   value.

// The lints this crate denies (DESIGN §12.1).
#![deny(clippy::disallowed_types, clippy::wildcard_enum_match_arm)]

pub mod exp;
pub mod report;
pub mod stats;
