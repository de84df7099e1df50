//! Hybrid NVM–SRAM last-level cache with compression-aware insertion
//! policies.
//!
//! This crate is the primary contribution of *Compression-Aware and
//! Performance-Efficient Insertion Policies for Long-Lasting Hybrid LLCs*
//! (HPCA 2023): a shared LLC whose sets combine a few fast, wear-free SRAM
//! ways with many dense NVM ways that wear out as they are written.
//!
//! Implemented insertion policies (Table III):
//!
//! | Policy | Disabling | Compression | NVM-aware |
//! |--------|-----------|-------------|-----------|
//! | [`Policy::Bh`] (baseline hybrid) | frame | no | no |
//! | [`Policy::BhCp`] | byte | yes | no |
//! | [`Policy::Ca`] (naive compression-aware) | byte | yes | yes |
//! | [`Policy::CaRwr`] (compression + read/write reuse) | byte | yes | yes |
//! | [`Policy::CpSd`] (CA_RWR + Set Dueling, incl. the rule-based `Th`/`Tw` variant) | byte | yes | yes |
//! | [`Policy::LHybrid`] (loop-block state of the art) | frame | no | yes |
//! | [`Policy::Tap`] (thrashing-aware state of the art) | frame | no | yes |
//!
//! # Example
//!
//! ```
//! use hllc_core::{HybridConfig, HybridLlc, Policy};
//! use hllc_sim::{ConstSizeData, LlcPort, LlcReq, ReuseClass};
//!
//! let cfg = HybridConfig::new(64, 4, 12, Policy::cp_sd());
//! let mut llc = HybridLlc::new(&cfg);
//! let mut data = ConstSizeData::new(22);
//! llc.insert(0, 0x42, false, ReuseClass::None, &mut data);
//! let resp = llc.request(1, 0x42, LlcReq::GetS);
//! assert!(resp.hit);
//! ```

// The lints this crate denies (DESIGN §12.1).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing)]
#![deny(clippy::disallowed_types, clippy::wildcard_enum_match_arm)]

mod config;
mod dueling;
mod hybrid;
mod line;
mod policy;
mod soa;

pub use config::{HybridConfig, ENDURANCE_SEED};
pub use dueling::{
    EpochRecord, SetDueling, CP_TH_CANDIDATES, DEFAULT_EPOCH_CYCLES, HISTORY_EPOCHS,
};
pub use hybrid::{HybridLlc, Part};
pub use line::LineState;
pub use policy::Policy;
