//! The `hllc` trace container format (version 2).
//!
//! ```text
//! file   := magic header chunk* end-chunk
//! magic  := "HLLCTRC\0"                         (8 bytes)
//! header := len:u32le payload crc32(payload):u32le
//! chunk  := kind:u8 len:u32le payload crc32(kind ++ payload):u32le
//! ```
//!
//! The header payload is fixed fields followed by two length-prefixed
//! strings, and — since version 2 — an optional u32-length-prefixed JSON
//! blob carrying the resolved experiment spec of the recording system, so
//! a replay reconstructs the exact configuration instead of assuming a
//! default (see [`TraceHeader::encode`]). Version 1 files (no blob,
//! cores capped at 8) still decode. Chunks come in three kinds:
//! access records (`'A'`), data-model entries (`'D'`), and the explicit
//! end-of-trace marker (`'E'`, empty payload) that distinguishes a clean
//! close from a truncated file. Decoding stops with a structured
//! [`TraceError`] naming the failing chunk — never a panic — so a corrupted
//! trace reports *where* it broke.

use crate::crc32::crc32;
use crate::varint;

/// File magic: identifies a hybrid-LLC trace.
pub const MAGIC: [u8; 8] = *b"HLLCTRC\0";

/// Current format version. Readers accept 1 and 2, reject anything newer.
pub const VERSION: u16 = 2;

/// Hard cap on a chunk payload (16 MiB): a corrupt length field must not
/// drive an allocation of the claimed size.
pub const MAX_CHUNK_BYTES: u32 = 16 << 20;

/// Chunk kinds of format version 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChunkKind {
    /// Delta/varint-encoded access records.
    Access,
    /// Data-model entries: `(block, compressed size)` pairs, recorded the
    /// first time the simulated LLC sized each block.
    Data,
    /// End-of-trace marker (empty payload).
    End,
}

impl ChunkKind {
    /// On-disk tag byte.
    pub fn tag(self) -> u8 {
        match self {
            ChunkKind::Access => b'A',
            ChunkKind::Data => b'D',
            ChunkKind::End => b'E',
        }
    }

    /// Parses a tag byte.
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            b'A' => Some(ChunkKind::Access),
            b'D' => Some(ChunkKind::Data),
            b'E' => Some(ChunkKind::End),
            _ => None,
        }
    }
}

/// Self-describing trace metadata, stored once at the front of the file.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceHeader {
    /// Cores whose reference streams the trace interleaves (1–16 since
    /// version 2; version 1 capped at 8 to match its directory width).
    pub cores: u8,
    /// Table V mix number, 1-based; 0 for foreign/unknown workloads.
    pub mix: u8,
    /// Base seed of the recorded run (reproducibility metadata).
    pub seed: u64,
    /// LLC sets of the recording system (footprint scale = sets/4096).
    pub sets: u32,
    /// Measured cycles the recording ran for (warm-up was 20% on top);
    /// replay uses this as its default cycle budget.
    pub cycles: f64,
    /// Label of the policy the recording ran under (metadata only — any
    /// policy can replay the trace).
    pub policy: String,
    /// Workload label, e.g. `"mix 3"` (metadata only).
    pub workload: String,
    /// Resolved experiment spec of the recording system, as JSON (version
    /// 2; `None` in version-1 files). The format treats it as opaque
    /// bytes; [`trace_spec`](crate::trace_spec) reads it back as an
    /// `ExperimentSpec`.
    pub spec_json: Option<String>,
}

impl TraceHeader {
    /// Serializes the header payload (excluding magic, length, and CRC).
    pub fn encode(&self) -> Vec<u8> {
        let mut p = Vec::with_capacity(64);
        p.extend_from_slice(&VERSION.to_le_bytes());
        p.push(self.cores);
        p.push(self.mix);
        p.extend_from_slice(&self.seed.to_le_bytes());
        p.extend_from_slice(&self.sets.to_le_bytes());
        p.extend_from_slice(&self.cycles.to_bits().to_le_bytes());
        for s in [&self.policy, &self.workload] {
            let bytes = s.as_bytes();
            let len = bytes.len().min(u8::MAX as usize);
            p.push(len as u8);
            p.extend_from_slice(&bytes[..len]);
        }
        // v2: u32-length-prefixed spec blob; 0 marks "absent".
        match &self.spec_json {
            Some(spec) => {
                p.extend_from_slice(&(spec.len() as u32).to_le_bytes());
                p.extend_from_slice(spec.as_bytes());
            }
            None => p.extend_from_slice(&0u32.to_le_bytes()),
        }
        p
    }

    /// Decodes a header payload. The CRC has already been verified.
    pub fn decode(p: &[u8]) -> Result<Self, TraceError> {
        let bad = |what: &str| TraceError::HeaderCorrupt(what.to_string());
        let mut rest = p;
        let version = u16::from_le_bytes(take(&mut rest)?);
        if version == 0 || version > VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        let max_cores = if version == 1 { 8 } else { 16 };
        let [cores] = take(&mut rest)?;
        if cores == 0 || cores > max_cores {
            return Err(bad(&format!("core count must be 1..={max_cores}")));
        }
        let [mix] = take(&mut rest)?;
        let seed = u64::from_le_bytes(take(&mut rest)?);
        let sets = u32::from_le_bytes(take(&mut rest)?);
        if sets == 0 {
            return Err(bad("sets must be positive"));
        }
        let cycles = f64::from_bits(u64::from_le_bytes(take(&mut rest)?));
        if !cycles.is_finite() || cycles < 0.0 {
            return Err(bad("cycles must be finite and non-negative"));
        }
        let mut label = |what: &str| -> Result<String, TraceError> {
            let [len] = take(&mut rest)?;
            let bytes = take_slice(&mut rest, usize::from(len))?;
            std::str::from_utf8(bytes)
                .map(str::to_string)
                .map_err(|_| bad(what))
        };
        let policy = label("policy label")?;
        let workload = label("workload label")?;
        let spec_json = if version >= 2 {
            let len = u32::from_le_bytes(take(&mut rest)?);
            if len > MAX_CHUNK_BYTES {
                return Err(bad("spec blob length exceeds the chunk cap"));
            }
            if len == 0 {
                None
            } else {
                let bytes = take_slice(&mut rest, len as usize)?;
                let s = std::str::from_utf8(bytes).map_err(|_| bad("spec blob"))?;
                Some(s.to_string())
            }
        } else {
            None
        };
        Ok(TraceHeader {
            cores,
            mix,
            seed,
            sets,
            cycles,
            policy,
            workload,
            spec_json,
        })
    }
}

/// Splits the first `n` bytes off a header payload's unread `rest`.
fn take_slice<'a>(rest: &mut &'a [u8], n: usize) -> Result<&'a [u8], TraceError> {
    let (head, tail) = rest
        .split_at_checked(n)
        .ok_or_else(|| TraceError::HeaderCorrupt("header payload too short".into()))?;
    *rest = tail;
    Ok(head)
}

/// Splits a fixed-width field of `N` bytes off a header payload's unread
/// `rest`.
fn take<const N: usize>(rest: &mut &[u8]) -> Result<[u8; N], TraceError> {
    let mut field = [0u8; N];
    field.copy_from_slice(take_slice(rest, N)?);
    Ok(field)
}

/// Frames `payload` as a chunk of `kind`: tag, length, payload, CRC.
pub(crate) fn frame_chunk(kind: ChunkKind, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 9);
    out.push(kind.tag());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let mut crc_input = Vec::with_capacity(payload.len() + 1);
    crc_input.push(kind.tag());
    crc_input.extend_from_slice(payload);
    out.extend_from_slice(&crc32(&crc_input).to_le_bytes());
    out
}

/// Verifies a chunk's CRC given its tag and payload.
pub(crate) fn chunk_crc(kind_tag: u8, payload: &[u8]) -> u32 {
    let mut crc_input = Vec::with_capacity(payload.len() + 1);
    crc_input.push(kind_tag);
    crc_input.extend_from_slice(payload);
    crc32(&crc_input)
}

/// Everything that can go wrong reading or writing a trace. Decoding
/// failures carry the 0-based index of the chunk where the file broke.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The header names a format version this reader does not speak.
    UnsupportedVersion(u16),
    /// The header failed its CRC or decoded to nonsense.
    HeaderCorrupt(String),
    /// The file ended inside chunk `chunk` (or before the end marker when
    /// `chunk` equals the number of complete chunks read).
    Truncated {
        /// 0-based index of the incomplete chunk.
        chunk: u64,
    },
    /// Chunk `chunk` failed its CRC: stored vs recomputed.
    CrcMismatch {
        /// 0-based index of the failing chunk.
        chunk: u64,
        /// Checksum stored in the file.
        stored: u32,
        /// Checksum recomputed from the chunk bytes.
        computed: u32,
    },
    /// Chunk `chunk` passed its CRC but its contents are malformed (unknown
    /// kind, overlong length, bad varint, out-of-range core, …).
    BadChunk {
        /// 0-based index of the failing chunk.
        chunk: u64,
        /// Human-readable description of the defect.
        reason: String,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::BadMagic => write!(f, "not a hybrid-LLC trace (bad magic)"),
            TraceError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported trace version {v} (this reader speaks {VERSION})"
                )
            }
            TraceError::HeaderCorrupt(why) => write!(f, "corrupt trace header: {why}"),
            TraceError::Truncated { chunk } => {
                write!(f, "trace truncated inside chunk {chunk}")
            }
            TraceError::CrcMismatch {
                chunk,
                stored,
                computed,
            } => write!(
                f,
                "chunk {chunk} corrupt: stored CRC {stored:#010x}, computed {computed:#010x}"
            ),
            TraceError::BadChunk { chunk, reason } => {
                write!(f, "chunk {chunk} malformed: {reason}")
            }
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            TraceError::BadMagic
            | TraceError::UnsupportedVersion(_)
            | TraceError::HeaderCorrupt(_)
            | TraceError::Truncated { .. }
            | TraceError::CrcMismatch { .. }
            | TraceError::BadChunk { .. } => None,
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// Encodes a batch of data-model entries (shared by writer tests and the
/// writer itself): count, then zigzag block deltas + size bytes.
pub(crate) fn encode_data_entries(entries: &[(u64, u8)]) -> Vec<u8> {
    let mut p = Vec::with_capacity(entries.len() * 3 + 4);
    varint::write_u64(&mut p, entries.len() as u64);
    let mut prev = 0u64;
    for &(block, size) in entries {
        let delta = (block as i64).wrapping_sub(prev as i64);
        varint::write_u64(&mut p, varint::zigzag(delta));
        p.push(size);
        prev = block;
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> TraceHeader {
        TraceHeader {
            cores: 4,
            mix: 3,
            seed: 42,
            sets: 512,
            cycles: 2.0e5,
            policy: "cp_sd".into(),
            workload: "mix 3".into(),
            spec_json: None,
        }
    }

    /// Re-encodes a header in the version-1 layout: v1 fixed fields and
    /// strings, no spec blob.
    fn encode_v1(h: &TraceHeader) -> Vec<u8> {
        let mut p = h.encode();
        p[0..2].copy_from_slice(&1u16.to_le_bytes());
        p.truncate(p.len() - 4); // drop the empty spec blob length
        p
    }

    #[test]
    fn header_round_trips() {
        let h = header();
        assert_eq!(TraceHeader::decode(&h.encode()).unwrap(), h);
    }

    #[test]
    fn header_round_trips_with_spec_blob() {
        let mut h = header();
        h.spec_json = Some(r#"{"name":"scaled"}"#.into());
        assert_eq!(TraceHeader::decode(&h.encode()).unwrap(), h);
    }

    #[test]
    fn version1_payload_still_decodes() {
        let h = header();
        let decoded = TraceHeader::decode(&encode_v1(&h)).unwrap();
        assert_eq!(decoded, h);
        assert_eq!(decoded.spec_json, None);
    }

    #[test]
    fn core_cap_depends_on_version() {
        let mut h = header();
        h.cores = 12;
        // v2 accepts up to 16 cores...
        assert_eq!(TraceHeader::decode(&h.encode()).unwrap().cores, 12);
        // ...but the same count is corrupt in a v1 layout (8-bit mask era).
        assert!(matches!(
            TraceHeader::decode(&encode_v1(&h)),
            Err(TraceError::HeaderCorrupt(_))
        ));
        h.cores = 17;
        assert!(matches!(
            TraceHeader::decode(&h.encode()),
            Err(TraceError::HeaderCorrupt(_))
        ));
    }

    #[test]
    fn header_rejects_bad_fields() {
        let mut zero_cores = header();
        zero_cores.cores = 0;
        assert!(matches!(
            TraceHeader::decode(&zero_cores.encode()),
            Err(TraceError::HeaderCorrupt(_))
        ));

        let mut p = header().encode();
        p.truncate(5);
        assert!(matches!(
            TraceHeader::decode(&p),
            Err(TraceError::HeaderCorrupt(_))
        ));
    }

    #[test]
    fn future_version_is_rejected() {
        let mut p = header().encode();
        p[0..2].copy_from_slice(&(VERSION + 1).to_le_bytes());
        assert!(matches!(
            TraceHeader::decode(&p),
            Err(TraceError::UnsupportedVersion(v)) if v == VERSION + 1
        ));
    }

    #[test]
    fn chunk_framing_is_verifiable() {
        let framed = frame_chunk(ChunkKind::Access, b"payload");
        assert_eq!(framed[0], b'A');
        let len = u32::from_le_bytes(framed[1..5].try_into().unwrap()) as usize;
        assert_eq!(len, 7);
        let payload = &framed[5..5 + len];
        let stored = u32::from_le_bytes(framed[5 + len..].try_into().unwrap());
        assert_eq!(stored, chunk_crc(b'A', payload));
    }

    #[test]
    fn errors_display_the_failing_chunk() {
        let e = TraceError::CrcMismatch {
            chunk: 7,
            stored: 1,
            computed: 2,
        };
        assert!(e.to_string().contains("chunk 7"));
        let t = TraceError::Truncated { chunk: 3 };
        assert!(t.to_string().contains("chunk 3"));
    }
}
