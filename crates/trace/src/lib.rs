//! Synthetic SPEC CPU 2006/2017-like workloads.
//!
//! The paper evaluates ten multi-programmed mixes of memory-intensive SPEC
//! applications (Table V). SPEC binaries and traces are proprietary, so this
//! crate models each application as a parameterised synthetic reference
//! generator (DESIGN.md substitution #1):
//!
//! * an **access pattern** archetype (looping, streaming, uniform random,
//!   hot/cold, phased combinations) over a private footprint;
//! * a **write fraction** and mean instruction gap;
//! * a **data-compressibility profile** calibrated against Figure 2: each
//!   block gets a sticky class whose synthesized 64-byte payloads all
//!   compress to one BDI size, so the data model reads a block's size from
//!   its class ([`WorkloadData`]).
//!
//! A mix's per-core streams generate their references in batches, on a
//! helper thread when a hardware thread is free ([`AppStream`]); the
//! sequences are those of the one-at-a-time generators ([`AppGen`]).
//!
//! # Example
//!
//! ```
//! use hllc_trace::mixes;
//!
//! let mix = &mixes()[0];
//! assert_eq!(mix.apps.len(), 4);
//! let mut streams = mix.instantiate(1.0, 42);
//! let a = streams[0].next_access(0);
//! assert_eq!(a.core, 0);
//! ```

// The lints this crate denies (DESIGN §12.1).
#![deny(clippy::disallowed_types, clippy::wildcard_enum_match_arm)]

mod app;
mod data;
mod driver;
mod mix;
mod pattern;
mod profile;
mod spec;
mod stream;
mod threads;

pub use app::{AppGen, AppSpec, APP_SLOT_SHIFT};
pub use data::WorkloadData;
pub use driver::{drive_accesses, drive_cycles, RefSource};
pub use mix::{mixes, Mix};
pub use pattern::Pattern;
pub use profile::{Profile, SynthClass};
pub use spec::{app_by_name, spec_apps};
pub use stream::AppStream;
pub use threads::{claim_threads, live_helpers, ThreadClaim};

/// Serializes the unit tests that can start a helper thread or that count
/// live helpers, which are process-wide.
#[cfg(test)]
fn serial_helpers() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
