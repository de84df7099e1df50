//! Streaming trace reader.

use std::io::Read;

use hllc_sim::{Access, Op};

use crate::crc32::crc32;
use crate::format::{chunk_crc, ChunkKind, TraceError, TraceHeader, MAGIC, MAX_CHUNK_BYTES};
use crate::varint;

/// Smallest encoded access record: the core/op byte, a one-byte address
/// delta and a one-byte instruction gap.
const MIN_RECORD_BYTES: usize = 3;
/// Smallest encoded data entry: a one-byte block delta and the size byte.
const MIN_ENTRY_BYTES: usize = 2;

/// One decoded chunk.
#[derive(Clone, Debug, PartialEq)]
pub enum Chunk {
    /// A batch of access records, in recorded order.
    Accesses(Vec<Access>),
    /// A batch of `(block, compressed size)` data-model entries.
    Sizes(Vec<(u64, u8)>),
}

/// Decodes a trace from any [`Read`] source, chunk by chunk, verifying
/// every CRC. All failures are structured [`TraceError`]s naming the chunk
/// where the file broke; a reader never panics on hostile input.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    source: R,
    header: TraceHeader,
    /// Last decoded address per core (delta decoding state; access deltas
    /// chain across chunks, data-entry deltas restart per chunk).
    prev_addr: Vec<u64>,
    /// Index of the next chunk to read.
    chunk: u64,
    /// Set once the end marker has been consumed.
    finished: bool,
}

impl<R: Read> TraceReader<R> {
    /// Reads and validates the magic and header.
    pub fn new(mut source: R) -> Result<Self, TraceError> {
        let mut magic = [0u8; 8];
        read_exact_or(&mut source, &mut magic, TraceError::BadMagic)?;
        if magic != MAGIC {
            return Err(TraceError::BadMagic);
        }
        let mut len_bytes = [0u8; 4];
        let short = || TraceError::HeaderCorrupt("file ends inside the header".into());
        read_exact_or(&mut source, &mut len_bytes, short())?;
        let len = u32::from_le_bytes(len_bytes);
        if len > MAX_CHUNK_BYTES {
            return Err(TraceError::HeaderCorrupt(format!(
                "header length {len} exceeds the {MAX_CHUNK_BYTES}-byte cap"
            )));
        }
        let mut payload = vec![0u8; len as usize];
        read_exact_or(&mut source, &mut payload, short())?;
        let mut crc_bytes = [0u8; 4];
        read_exact_or(&mut source, &mut crc_bytes, short())?;
        let stored = u32::from_le_bytes(crc_bytes);
        let computed = crc32(&payload);
        if stored != computed {
            return Err(TraceError::HeaderCorrupt(format!(
                "CRC mismatch (stored {stored:#010x}, computed {computed:#010x})"
            )));
        }
        let header = TraceHeader::decode(&payload)?;
        let cores = usize::from(header.cores);
        Ok(TraceReader {
            source,
            header,
            prev_addr: vec![0; cores],
            chunk: 0,
            finished: false,
        })
    }

    /// The trace metadata.
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// Decodes the next chunk. `Ok(None)` after the end marker; a bare EOF
    /// without one reports truncation.
    pub fn next_chunk(&mut self) -> Result<Option<Chunk>, TraceError> {
        if self.finished {
            return Ok(None);
        }
        let truncated = TraceError::Truncated { chunk: self.chunk };
        let mut tag = [0u8; 1];
        read_exact_or(&mut self.source, &mut tag, truncated)?;
        let truncated = || TraceError::Truncated { chunk: self.chunk };
        let mut len_bytes = [0u8; 4];
        read_exact_or(&mut self.source, &mut len_bytes, truncated())?;
        let len = u32::from_le_bytes(len_bytes);
        if len > MAX_CHUNK_BYTES {
            return Err(TraceError::BadChunk {
                chunk: self.chunk,
                reason: format!("length {len} exceeds the {MAX_CHUNK_BYTES}-byte cap"),
            });
        }
        let mut payload = vec![0u8; len as usize];
        read_exact_or(&mut self.source, &mut payload, truncated())?;
        let mut crc_bytes = [0u8; 4];
        read_exact_or(&mut self.source, &mut crc_bytes, truncated())?;
        let stored = u32::from_le_bytes(crc_bytes);
        let computed = chunk_crc(tag[0], &payload);
        if stored != computed {
            return Err(TraceError::CrcMismatch {
                chunk: self.chunk,
                stored,
                computed,
            });
        }
        let kind = ChunkKind::from_tag(tag[0]).ok_or_else(|| TraceError::BadChunk {
            chunk: self.chunk,
            reason: format!("unknown chunk kind {:#04x}", tag[0]),
        })?;
        let decoded = match kind {
            ChunkKind::End => {
                if !payload.is_empty() {
                    return Err(TraceError::BadChunk {
                        chunk: self.chunk,
                        reason: "end marker with a payload".into(),
                    });
                }
                self.finished = true;
                self.chunk += 1;
                return Ok(None);
            }
            ChunkKind::Access => Chunk::Accesses(self.decode_accesses(&payload)?),
            ChunkKind::Data => Chunk::Sizes(self.decode_sizes(&payload)?),
        };
        self.chunk += 1;
        Ok(Some(decoded))
    }

    /// Drains the remaining chunks into flat access and size vectors,
    /// verifying the whole file through the end marker.
    pub fn read_to_end(mut self) -> Result<TraceContent, TraceError> {
        let mut accesses = Vec::new();
        let mut sizes = Vec::new();
        while let Some(chunk) = self.next_chunk()? {
            match chunk {
                Chunk::Accesses(mut batch) => accesses.append(&mut batch),
                Chunk::Sizes(mut batch) => sizes.append(&mut batch),
            }
        }
        Ok(TraceContent {
            header: self.header,
            accesses,
            sizes,
        })
    }

    fn bad(&self, reason: &str) -> TraceError {
        TraceError::BadChunk {
            chunk: self.chunk,
            reason: reason.to_string(),
        }
    }

    fn decode_accesses(&mut self, payload: &[u8]) -> Result<Vec<Access>, TraceError> {
        let mut pos = 0usize;
        let count =
            varint::read_u64(payload, &mut pos).ok_or_else(|| self.bad("missing record count"))?;
        if count > (payload.len().saturating_sub(pos) / MIN_RECORD_BYTES) as u64 {
            return Err(self.bad("record count exceeds what the payload holds"));
        }
        let mut out = Vec::with_capacity(count as usize);
        for i in 0..count {
            let &byte0 = payload
                .get(pos)
                .ok_or_else(|| self.bad(&format!("record {i} truncated")))?;
            pos += 1;
            let core = byte0 & 0x7F;
            if usize::from(core) >= self.prev_addr.len() {
                return Err(self.bad(&format!(
                    "record {i} names core {core}, header has {}",
                    self.prev_addr.len()
                )));
            }
            let op = if byte0 & 0x80 != 0 {
                Op::Store
            } else {
                Op::Load
            };
            let delta = varint::read_u64(payload, &mut pos)
                .ok_or_else(|| self.bad(&format!("record {i}: bad address delta")))?;
            let addr = (self.prev_addr[usize::from(core)] as i64)
                .wrapping_add(varint::unzigzag(delta)) as u64;
            self.prev_addr[usize::from(core)] = addr;
            let gap = varint::read_u64(payload, &mut pos)
                .ok_or_else(|| self.bad(&format!("record {i}: bad instruction gap")))?;
            let gap = u32::try_from(gap)
                .map_err(|_| self.bad(&format!("record {i}: instruction gap overflows u32")))?;
            out.push(Access {
                core,
                op,
                addr,
                inst_gap: gap,
            });
        }
        if pos != payload.len() {
            return Err(self.bad("trailing bytes after the last record"));
        }
        Ok(out)
    }

    fn decode_sizes(&mut self, payload: &[u8]) -> Result<Vec<(u64, u8)>, TraceError> {
        let mut pos = 0usize;
        let count =
            varint::read_u64(payload, &mut pos).ok_or_else(|| self.bad("missing entry count"))?;
        if count > (payload.len().saturating_sub(pos) / MIN_ENTRY_BYTES) as u64 {
            return Err(self.bad("entry count exceeds what the payload holds"));
        }
        let mut out = Vec::with_capacity(count as usize);
        // Data-entry deltas restart from 0 in every chunk (the writer's
        // encoder is chunk-local), unlike the per-core access deltas.
        let mut prev_block = 0u64;
        for i in 0..count {
            let delta = varint::read_u64(payload, &mut pos)
                .ok_or_else(|| self.bad(&format!("entry {i}: bad block delta")))?;
            let block = (prev_block as i64).wrapping_add(varint::unzigzag(delta)) as u64;
            prev_block = block;
            let &size = payload
                .get(pos)
                .ok_or_else(|| self.bad(&format!("entry {i} truncated")))?;
            pos += 1;
            if size == 0 || size > 64 {
                return Err(self.bad(&format!("entry {i}: size {size} outside 1..=64")));
            }
            out.push((block, size));
        }
        if pos != payload.len() {
            return Err(self.bad("trailing bytes after the last entry"));
        }
        Ok(out)
    }
}

/// A fully materialized trace: header plus every record, CRC-verified.
///
/// Replay materializes the whole file (16 bytes per access) because data
/// entries are written *after* the access that first sized their block —
/// a purely sequential consumer would see them one step too late.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceContent {
    /// The trace metadata.
    pub header: TraceHeader,
    /// Every access record, in recorded (global interleaved) order.
    pub accesses: Vec<Access>,
    /// Every `(block, compressed size)` entry, in first-sized order.
    pub sizes: Vec<(u64, u8)>,
}

impl TraceContent {
    /// Checks that the header names 1..=`system_cores` cores and every
    /// access one of those (as any trace from [`TraceReader`] does), and
    /// that the trace holds no more records than a
    /// [`ReplayStream`](crate::ReplayStream) indexes.
    pub(crate) fn check_cores(&self, system_cores: usize) -> Result<(), String> {
        let cores = self.header.cores;
        if cores == 0 || usize::from(cores) > system_cores {
            return Err(format!(
                "trace has {cores} cores but the system has {system_cores}"
            ));
        }
        if self.accesses.len() > u32::MAX as usize {
            return Err(format!(
                "trace has {} accesses, more than the {} a replay indexes",
                self.accesses.len(),
                u32::MAX
            ));
        }
        match self.accesses.iter().position(|a| a.core >= cores) {
            Some(i) => Err(format!(
                "access {i} names core {}, but the trace header has {cores} cores",
                self.accesses[i].core
            )),
            None => Ok(()),
        }
    }
}

/// `read_exact` that maps an unexpected EOF to `on_eof` instead of a bare
/// I/O error, so truncation is reported as such.
fn read_exact_or<R: Read>(r: &mut R, buf: &mut [u8], on_eof: TraceError) -> Result<(), TraceError> {
    match r.read_exact(buf) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Err(on_eof),
        Err(e) => Err(TraceError::Io(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::ReplayStream;
    use crate::writer::TraceWriter;
    use hllc_trace::RefSource;

    fn header() -> TraceHeader {
        TraceHeader {
            cores: 2,
            mix: 1,
            seed: 7,
            sets: 512,
            cycles: 1000.0,
            policy: "bh".into(),
            workload: "mix 1".into(),
            spec_json: None,
        }
    }

    fn sample_trace() -> (Vec<Access>, Vec<(u64, u8)>, Vec<u8>) {
        let accesses: Vec<Access> = (0..10_000u64)
            .map(|i| {
                let core = (i % 2) as u8;
                let a = Access {
                    inst_gap: i as u32 % 37,
                    ..Access::load(core, (i * 64) ^ (u64::from(core) << 40))
                };
                if i % 3 == 0 {
                    Access { op: Op::Store, ..a }
                } else {
                    a
                }
            })
            .collect();
        let sizes: Vec<(u64, u8)> = (0..5000u64).map(|b| (b * 3, (b % 64 + 1) as u8)).collect();
        let mut w = TraceWriter::new(Vec::new(), &header()).unwrap();
        for (i, a) in accesses.iter().enumerate() {
            w.push_access(a);
            if i < sizes.len() {
                w.push_size(sizes[i].0, sizes[i].1);
            }
        }
        let bytes = w.finish().unwrap();
        (accesses, sizes, bytes)
    }

    #[test]
    fn round_trips_records_exactly() {
        let (accesses, sizes, bytes) = sample_trace();
        let content = TraceReader::new(&bytes[..]).unwrap().read_to_end().unwrap();
        assert_eq!(content.accesses, accesses);
        assert_eq!(content.sizes, sizes);
        assert_eq!(content.header, header());
    }

    #[test]
    fn per_core_preserves_program_order() {
        let (_, _, bytes) = sample_trace();
        let content = TraceReader::new(&bytes[..]).unwrap().read_to_end().unwrap();
        let mut streams = ReplayStream::per_core(&content);
        assert_eq!(streams.len(), 2);
        assert_eq!(
            streams.iter().map(ReplayStream::remaining).sum::<usize>(),
            content.accesses.len()
        );
        for (c, s) in streams.iter_mut().enumerate() {
            let core = c as u8;
            let want = content.accesses.iter().filter(|a| a.core == core);
            let got = std::iter::from_fn(|| s.next_access(core));
            assert!(want.copied().eq(got), "core {c} out of program order");
        }
        assert_eq!(content.check_cores(2), Ok(()));
        assert!(content.check_cores(1).is_err());
    }

    #[test]
    fn an_access_beyond_the_header_cores_fails_the_check_not_the_split() {
        let content = TraceContent {
            header: TraceHeader {
                cores: 1,
                ..header()
            },
            accesses: vec![Access::load(0, 0x40), Access::load(1, 0x80)],
            sizes: Vec::new(),
        };
        let streams = ReplayStream::per_core(&content);
        let lens: Vec<usize> = streams.iter().map(ReplayStream::remaining).collect();
        assert_eq!(lens, [1, 1]);
        let e = content.check_cores(4).unwrap_err();
        assert!(e.contains("access 1 names core 1"), "{e}");
        let empty = TraceContent {
            header: TraceHeader {
                cores: 0,
                ..header()
            },
            accesses: Vec::new(),
            sizes: Vec::new(),
        };
        assert!(empty.check_cores(4).is_err());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = TraceReader::new(&b"NOTATRCE........"[..]).unwrap_err();
        assert!(matches!(err, TraceError::BadMagic));
    }

    #[test]
    fn flipped_bit_reports_the_chunk() {
        let (_, _, mut bytes) = sample_trace();
        // Flip a byte well inside the first chunk's payload.
        let header_len = 8 + 4 + header().encode().len() + 4;
        bytes[header_len + 20] ^= 0x10;
        let err = TraceReader::new(&bytes[..])
            .unwrap()
            .read_to_end()
            .unwrap_err();
        assert!(
            matches!(err, TraceError::CrcMismatch { chunk: 0, .. }),
            "got {err}"
        );
    }

    #[test]
    fn truncation_reports_the_chunk() {
        let (_, _, bytes) = sample_trace();
        let err = TraceReader::new(&bytes[..bytes.len() - 4])
            .unwrap()
            .read_to_end()
            .unwrap_err();
        assert!(matches!(err, TraceError::Truncated { .. }), "got {err}");
    }

    #[test]
    fn missing_end_marker_is_truncation() {
        let (_, _, bytes) = sample_trace();
        // Drop the entire 9-byte end chunk: EOF where a chunk should start.
        let err = TraceReader::new(&bytes[..bytes.len() - 9])
            .unwrap()
            .read_to_end()
            .unwrap_err();
        assert!(matches!(err, TraceError::Truncated { .. }), "got {err}");
    }

    #[test]
    fn corrupt_header_crc_is_detected() {
        let (_, _, mut bytes) = sample_trace();
        bytes[10] ^= 0x01; // inside the header payload
        assert!(matches!(
            TraceReader::new(&bytes[..]),
            Err(TraceError::HeaderCorrupt(_))
        ));
    }

    #[test]
    fn empty_trace_round_trips() {
        let w = TraceWriter::new(Vec::new(), &header()).unwrap();
        let bytes = w.finish().unwrap();
        let content = TraceReader::new(&bytes[..]).unwrap().read_to_end().unwrap();
        assert!(content.accesses.is_empty());
        assert!(content.sizes.is_empty());
    }
}
