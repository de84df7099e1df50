//! The NVM aging forecast procedure.
//!
//! Adapted from the procedure the paper borrows from its reference \[15\] (§V-A): it
//! alternates *simulation phases* — a full hierarchy simulation of a mix
//! over the current fault map, reporting IPC, hit rate, and per-frame write
//! rates — with *prediction phases* that advance wall-clock time, wearing
//! each frame at its measured rate until bytes (or frames) cross their
//! endurance limits. The procedure runs until the NVM part loses half its
//! capacity (or a step limit), yielding the performance-over-time curves of
//! Figures 1, 10, and 11.
//!
//! # Example
//!
//! ```no_run
//! use hllc_core::Policy;
//! use hllc_forecast::{Forecast, ForecastConfig};
//! use hllc_trace::mixes;
//!
//! let cfg = ForecastConfig::scaled(Policy::cp_sd());
//! let series = Forecast::new(cfg).run(&mixes()[0], 1);
//! println!("50% capacity after {:?} s", series.lifetime_seconds(0.5));
//! ```

// The lints this crate denies (DESIGN §12.1).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::disallowed_types, clippy::wildcard_enum_match_arm)]

mod phase;
mod predict;
mod procedure;
mod series;

pub use phase::{run_phase, run_phase_streams, simulate, Phase, PhaseMetrics, PhaseSetup};
pub use predict::{advance_wear, capacity_after, choose_step};
pub use procedure::{Forecast, ForecastConfig};
pub use series::{ForecastPoint, ForecastSeries};
