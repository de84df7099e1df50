//! Trace-driven multi-core cache-hierarchy simulator.
//!
//! This crate provides the substrate the hybrid LLC sits under in
//! *Compression-Aware and Performance-Efficient Insertion Policies for
//! Long-Lasting Hybrid LLCs* (HPCA 2023), §III-A and Table IV:
//!
//! * private, inclusive L1/L2 per core with LRU replacement, where a miss
//!   scans the L2 set once (the missed lookup names the fill's victim way)
//!   and each cache's address signature answers peer probes for blocks it
//!   never held without a scan;
//! * a *non-inclusive, mostly-exclusive* LLC attachment: memory fills go
//!   directly to the private levels, L2 victims (clean or dirty) are
//!   inserted into the LLC, and `GetX` requests that hit the LLC invalidate
//!   the LLC copy;
//! * a block-granular coherence layer without a sharer directory: the
//!   M/E/S states in L2 are the only record of holders and dirtiness
//!   (remote holders are found by probing the peer L2s), with
//!   upgrade-on-write through the LLC, cache-to-cache transfers with
//!   LLC-writeback of forwarded dirty data, and invalidate-on-write — fully
//!   functional for shared data, quiescent under the paper's
//!   multi-programmed (disjoint) workloads;
//! * an analytical timing model using the paper's latencies;
//! * the [`LlcPort`] trait that concrete last-level caches (the hybrid LLC
//!   in `hllc-core`) plug into.
//!
//! # Example
//!
//! ```
//! use hllc_sim::{Access, ConstSizeData, Hierarchy, NullLlc, SystemConfig};
//!
//! let cfg = SystemConfig::default();
//! let mut h = Hierarchy::new(&cfg, NullLlc::default(), ConstSizeData::new(64));
//! let stall = h.access(&Access::load(0, 0x1000));
//! assert!(stall > 0.0); // cold miss goes to memory
//! ```

// The lints this crate denies (DESIGN §12.1).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing)]
#![deny(clippy::disallowed_types, clippy::wildcard_enum_match_arm)]

mod access;
mod address;
mod block_sizes;
mod cache;
pub mod coherence;
mod config;
mod data;
mod dram;
mod energy;
mod hierarchy;
mod llc;
mod stats;
mod timing;

pub use access::{Access, Op};
pub use address::{block_addr, block_of, set_index, BLOCK_OFFSET_BITS};
pub use block_sizes::BlockSizes;
pub use cache::{Cache, Entry, Evicted, Slot};
pub use config::SystemConfig;
pub use data::{ConstSizeData, DataModel};
pub use dram::Dram;
pub use energy::EnergyBreakdown;
pub use hierarchy::Hierarchy;
pub use llc::{LlcPort, LlcReq, LlcResponse, LlcStats, NullLlc, ReuseClass};
pub use stats::HierarchyStats;
pub use timing::{TimingModel, L2_HIT, LLC_SRAM_HIT, MEMORY, NVM_DECOMPRESS};
