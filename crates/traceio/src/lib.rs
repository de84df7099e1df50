//! Binary trace capture and replay for the hybrid-LLC simulator.
//!
//! The paper's evaluation regenerates its synthetic SPEC streams for every
//! policy run; this crate decouples workload generation from simulation the
//! way ChampSim-style trace-driven studies do. A trace file is:
//!
//! * **self-describing** — magic, version, core count, workload metadata,
//!   and the recording system's LLC geometry live in a CRC-protected
//!   header;
//! * **compact** — access records are delta/varint encoded per core
//!   (address deltas, instruction gaps), data-model entries carry each
//!   block's compressed size exactly once;
//! * **corruption-safe** — every chunk is CRC32-framed, the file ends with
//!   an explicit end marker, and decoding reports the exact failing chunk
//!   as a structured [`TraceError`] instead of panicking.
//!
//! # Capture and replay
//!
//! [`Recorder`] taps a live run without perturbing it: wrap the reference
//! streams with [`RecordingStream`] and the data model with
//! [`RecordingData`], run the simulation as usual, then
//! [`Recorder::finish`]. [`ReplayStream`] + [`TraceData`] feed the file
//! back through the same drivers; under the recorded policy and
//! configuration the replay is bit-identical, while any *other* policy
//! sees the same per-core reference streams re-interleaved by its own
//! clocks — one recording, a level playing field for every policy.
//!
//! A replay reads the loaded [`TraceContent`] in place: each
//! [`ReplayStream`] borrows its records and keeps only their positions.
//! [`TraceData`] holds the recorded block sizes; build it once per loaded
//! trace and clone it for each replay. A block the recording never sized
//! is served as 64 B and counted ([`TraceData::fallbacks`]).
//!
//! [`trace_spec`] reads back the experiment a recording was made under, and
//! [`check_replay`] is the one check that a replay's system fits it: every
//! command that replays a trace resolves its experiment from the former
//! and passes the latter.
//!
//! ```
//! use hllc_traceio::{Recorder, ReplayStream, TraceHeader, TraceReader, TraceWriter};
//! use hllc_trace::RefSource;
//!
//! let header = TraceHeader {
//!     cores: 1, mix: 0, seed: 1, sets: 512, cycles: 0.0,
//!     policy: "doc".into(), workload: "doc".into(), spec_json: None,
//! };
//! let rec = Recorder::new(TraceWriter::new(Vec::new(), &header).unwrap());
//! let mut stream = rec.stream(DocSource);
//! let live: Vec<_> = (0..4).map(|_| stream.next_access(0).unwrap()).collect();
//! drop(stream);
//!
//! let bytes = rec.finish().unwrap();
//! let content = TraceReader::new(&bytes[..]).unwrap().read_to_end().unwrap();
//! let mut replay = ReplayStream::per_core(&content);
//! let replayed: Vec<_> = (0..4).map(|_| replay[0].next_access(0).unwrap()).collect();
//! assert_eq!(live, replayed);
//!
//! struct DocSource;
//! impl RefSource for DocSource {
//!     fn next_access(&mut self, core: u8) -> Option<hllc_sim::Access> {
//!         Some(hllc_sim::Access::load(core, 0x40))
//!     }
//! }
//! ```

// The lints this crate denies (DESIGN §12.1).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::disallowed_types, clippy::wildcard_enum_match_arm)]

mod crc32;
mod experiment;
mod format;
mod reader;
mod record;
mod replay;
mod varint;
mod writer;

pub use crc32::crc32;
pub use experiment::{check_replay, trace_spec};
pub use format::{ChunkKind, TraceError, TraceHeader, MAGIC, MAX_CHUNK_BYTES, VERSION};
pub use reader::{Chunk, TraceContent, TraceReader};
pub use record::{Recorder, RecordingData, RecordingStream};
pub use replay::{ReplayStream, TraceData};
pub use writer::TraceWriter;

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;

/// Opens a trace file for streaming reads.
pub fn open_trace(path: impl AsRef<Path>) -> Result<TraceReader<BufReader<File>>, TraceError> {
    TraceReader::new(BufReader::new(File::open(path)?))
}

/// Reads and fully verifies a trace file.
pub fn load_trace(path: impl AsRef<Path>) -> Result<TraceContent, TraceError> {
    open_trace(path)?.read_to_end()
}

/// Creates a trace file and writes its header.
pub fn create_trace(
    path: impl AsRef<Path>,
    header: &TraceHeader,
) -> Result<TraceWriter<BufWriter<File>>, TraceError> {
    TraceWriter::new(BufWriter::new(File::create(path)?), header)
}
