//! NVM endurance and fault-tolerance substrate for the hybrid LLC.
//!
//! Models the byte-level fault-tolerant NVM data array of *Compression-Aware
//! and Performance-Efficient Insertion Policies for Long-Lasting Hybrid LLCs*
//! (HPCA 2023), §II-A and §III-B:
//!
//! * per-bitcell (modelled per-byte) write endurance drawn from a normal
//!   distribution `N(μ, cv·μ)` ([`EnduranceModel`]);
//! * a per-frame fault map with one bit per byte ([`FaultMap`]);
//! * the block-rearrangement circuitry — index generator + crossbar — that
//!   scatters an extended compressed block (ECB) over the non-faulty bytes
//!   of a frame and gathers it back ([`rearrange`]);
//! * an intra-frame wear-leveling rotation counter ([`WearLevelCounter`]);
//! * the full NVM portion of the LLC data array with per-byte wear
//!   accounting and frame- or byte-granularity disabling ([`NvmArray`]).
//!   The array owns its endurance limits, one lane in frame order drawn
//!   from its seed the first time a limit is read: only the aging
//!   forecast's prediction steps read them, so an array that is only
//!   simulated never draws.
//!
//! # Example
//!
//! ```
//! use hllc_nvm::{FaultMap, rearrange};
//!
//! let mut fm = FaultMap::new();
//! fm.mark_faulty(2);
//! fm.mark_faulty(5);
//! let ecb = [0xAA, 0xBB, 0xCC, 0xDD, 0xEE];
//! let (recb, mask) = rearrange::scatter(&ecb, &fm, 0);
//! let back = rearrange::gather(&recb, &fm, 0, ecb.len());
//! assert_eq!(back, ecb);
//! assert_eq!(mask.count_ones() as usize, ecb.len());
//! ```

// The lints this crate denies (DESIGN §12.1).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing)]
#![deny(clippy::disallowed_types, clippy::wildcard_enum_match_arm)]

mod array;
mod endurance;
mod fault_map;
mod frame;
pub mod rearrange;
mod wear;

pub use array::{DisableGranularity, NvmArray};
pub use endurance::EnduranceModel;
pub use fault_map::{FaultMap, LiveIndices, FAULT_WORDS, FRAME_BYTES};
pub use frame::Frame;
pub use wear::WearLevelCounter;
