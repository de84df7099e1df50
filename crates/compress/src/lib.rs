//! Modified Base-Delta-Immediate (BDI) cache-block compression.
//!
//! This crate implements the compression substrate of the hybrid LLC
//! described in *Compression-Aware and Performance-Efficient Insertion
//! Policies for Long-Lasting Hybrid LLCs* (HPCA 2023), §II-B and Table I.
//!
//! Unlike the original BDI proposal, the variant used by the paper keeps
//! *low-compression-ratio* (LCR) encodings — encodings whose compressed size
//! exceeds 37 bytes — because in a byte-level fault-tolerant NVM cache even a
//! block compressed to 57 bytes can be placed into a partially worn-out
//! frame that can no longer hold an uncompressed block.
//!
//! # Example
//!
//! ```
//! use hllc_compress::{Block, Compressor, Encoding};
//!
//! let block = Block::zeroed();
//! let compressed = Compressor::new().compress(&block);
//! assert_eq!(compressed.encoding(), Encoding::Zeros);
//! assert_eq!(compressed.size(), 1);
//! assert_eq!(compressed.decompress(), block);
//! ```

// The lints this crate denies (DESIGN §12.1).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing)]
#![deny(clippy::disallowed_types, clippy::wildcard_enum_match_arm)]

mod analysis;
mod bdi;
mod block;
mod encoding;
mod fpc;

pub use analysis::{classify, BlockClass, ClassCounts, CompressionStats};
pub use bdi::{CompressedBlock, Compressor};
pub use block::{Block, BLOCK_SIZE};
pub use encoding::{Encoding, CE_BITS, LCR_THRESHOLD};
pub use fpc::{CompressorKind, Fpc, FpcPattern};
