//! # hybrid-llc
//!
//! A from-scratch Rust reproduction of *Compression-Aware and
//! Performance-Efficient Insertion Policies for Long-Lasting Hybrid LLCs*
//! (HPCA 2023): a shared last-level cache that combines wear-free SRAM ways
//! with dense but endurance-limited NVM ways, steering incoming blocks by
//! their **compressed size** and **read/write-reuse** behaviour, tuning the
//! compression threshold at runtime with **Set Dueling**, and tolerating
//! byte-level hard faults through **BDI compression + block rearrangement**
//! over partially worn-out frames.
//!
//! The workspace is organized as one crate per subsystem; this facade
//! re-exports them under stable module names:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`compress`] | `hllc-compress` | modified BDI compressor (Table I) |
//! | [`nvm`] | `hllc-nvm` | endurance model, fault maps, wear leveling, rearrangement circuitry |
//! | [`sim`] | `hllc-sim` | private L1/L2 hierarchy, coherence, timing |
//! | [`llc`] | `hllc-core` | the hybrid LLC and every insertion policy |
//! | [`trace`] | `hllc-trace` | synthetic SPEC-like workloads and mixes |
//! | [`traceio`] | `hllc-traceio` | binary trace capture and replay |
//! | [`config`] | `hllc-config` | experiment specifications and presets |
//! | [`forecast`] | `hllc-forecast` | the aging forecast procedure |
//! | [`runner`] | `hllc-runner` | deterministic parallel experiment runner |
//! | [`bench`](mod@bench) | `hllc-bench` | figure/table harnesses and Criterion microbenches |
//!
//! # Quickstart
//!
//! ```
//! use hybrid_llc::config::ExperimentSpec;
//! use hybrid_llc::forecast::{run_phase, PhaseSetup};
//! use hybrid_llc::trace::mixes;
//!
//! // The scaled-down preset running the paper's CP_SD policy on mix 1,
//! // shrunk to 256 sets for an even faster demo: 10 K cycles of warm-up,
//! // then a 50 K-cycle measured window.
//! let mut spec = ExperimentSpec::preset("scaled").unwrap();
//! spec.system.llc_sets = 256;
//! spec.validate().unwrap();
//! let setup = PhaseSetup::from_spec(&spec, 10_000.0, 50_000.0);
//! let (m, _) = run_phase(&setup, &mixes()[spec.mix_index()], None, 1);
//! println!(
//!     "IPC {:.3}, LLC hit rate {:.3}, NVM bytes written {}",
//!     m.ipc, m.hit_rate, m.llc.nvm_bytes_written,
//! );
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! harnesses that regenerate every table and figure of the paper.

// The lints this crate denies (DESIGN §12.1).
#![deny(clippy::disallowed_types, clippy::wildcard_enum_match_arm)]

pub use hllc_bench as bench;
pub use hllc_compress as compress;
pub use hllc_config as config;
pub use hllc_core as llc;
pub use hllc_forecast as forecast;
pub use hllc_nvm as nvm;
pub use hllc_runner as runner;
pub use hllc_sim as sim;
pub use hllc_trace as trace;
pub use hllc_traceio as traceio;

pub mod cli;
pub mod session;

// The types nearly every user touches, re-exported at the crate root.
pub use hllc_config::ExperimentSpec;
pub use hllc_core::{HybridConfig, HybridLlc, Policy};
pub use hllc_forecast::{Forecast, ForecastConfig, ForecastSeries};
pub use hllc_sim::{Hierarchy, LlcPort, SystemConfig};
pub use hllc_trace::mixes;
