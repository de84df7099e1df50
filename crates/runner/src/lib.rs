//! Deterministic parallel experiment runner.
//!
//! Every experiment in this workspace is a grid — `policy × mix × seed ×
//! config-variant` — of mutually independent simulations. This crate fans
//! such grids across worker threads while guaranteeing that the *results are
//! a pure function of the job list and the base seed*, never of the thread
//! count or of scheduling order:
//!
//! * each job draws its RNG seed from a SplitMix64 stream keyed by
//!   `(base_seed, job_index)` only ([`job_seed`]);
//! * jobs share nothing while running — each builds its own hierarchy,
//!   LLC, and metrics;
//! * results are merged back **in job-index order** ([`run_indexed`]), so
//!   floating-point reductions see operands in one fixed sequence.
//!
//! Consequently `--jobs 1` and `--jobs N` produce byte-identical reports,
//! which `tests/sweep_determinism.rs` (in the root package) enforces.
//!
//! The crate has two layers: [`run_indexed`] / [`job_seed`] are the generic
//! executor any harness can refactor onto, and [`run_sweep`] is the
//! ready-made `policy × mix × seed × capacity` sweep behind `hllc sweep`.

// The lints this crate denies (DESIGN §12.1).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::disallowed_types, clippy::wildcard_enum_match_arm)]

mod pool;
mod seed;
mod sweep;

pub use pool::{default_threads, run_indexed};
pub use seed::job_seed;
pub use sweep::{
    degraded_array, report_json, run_sweep, JobResult, SweepReport, SweepSpec, MAX_SWEEP_JOBS,
};
