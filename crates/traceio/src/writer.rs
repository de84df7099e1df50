//! Streaming trace writer.

use std::io::Write;

use hllc_sim::{Access, Op};

use crate::crc32::crc32;
use crate::format::{encode_data_entries, frame_chunk, ChunkKind, TraceError, TraceHeader, MAGIC};
use crate::varint;

/// Access records buffered before a chunk is framed and flushed.
const CHUNK_RECORDS: usize = 4096;

/// Streams a trace to any [`Write`] sink: the header goes out immediately,
/// access records and data-model entries accumulate into CRC-framed chunks
/// that flush every `CHUNK_RECORDS` records, and [`TraceWriter::finish`]
/// seals the file with the end marker.
///
/// The push methods are infallible so they can sit inside the simulator's
/// hot loop (and inside trait impls that cannot return errors): the first
/// I/O failure poisons the writer, later pushes become no-ops, and
/// [`TraceWriter::finish`] reports the stored error.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    sink: W,
    error: Option<TraceError>,
    /// Last address per core, for delta encoding.
    prev_addr: Vec<u64>,
    access_buf: Vec<u8>,
    access_in_buf: u64,
    data_buf: Vec<(u64, u8)>,
    accesses: u64,
    data_entries: u64,
    chunks: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Writes the magic and header to `sink` and returns the open writer.
    pub fn new(mut sink: W, header: &TraceHeader) -> Result<Self, TraceError> {
        sink.write_all(&MAGIC)?;
        let payload = header.encode();
        sink.write_all(&(payload.len() as u32).to_le_bytes())?;
        sink.write_all(&payload)?;
        sink.write_all(&crc32(&payload).to_le_bytes())?;
        Ok(TraceWriter {
            sink,
            error: None,
            prev_addr: vec![0; usize::from(header.cores)],
            access_buf: Vec::new(),
            access_in_buf: 0,
            data_buf: Vec::new(),
            accesses: 0,
            data_entries: 0,
            chunks: 0,
        })
    }

    /// Appends one access record. Core numbers at or beyond the header's
    /// core count poison the writer (the file would not replay).
    pub fn push_access(&mut self, a: &Access) {
        if self.error.is_some() {
            return;
        }
        let core = usize::from(a.core);
        if core >= self.prev_addr.len() {
            self.error = Some(TraceError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "access core {core} >= header cores {}",
                    self.prev_addr.len()
                ),
            )));
            return;
        }
        let mut byte0 = a.core & 0x7F;
        if a.op == Op::Store {
            byte0 |= 0x80;
        }
        self.access_buf.push(byte0);
        let delta = (a.addr as i64).wrapping_sub(self.prev_addr[core] as i64);
        varint::write_u64(&mut self.access_buf, varint::zigzag(delta));
        varint::write_u64(&mut self.access_buf, u64::from(a.inst_gap));
        self.prev_addr[core] = a.addr;
        self.access_in_buf += 1;
        self.accesses += 1;
        if self.access_in_buf as usize >= CHUNK_RECORDS {
            self.flush_pending();
        }
    }

    /// Appends one data-model entry: the compressed size the simulated LLC
    /// observed for `block`. Entries flush alongside the access chunks.
    pub fn push_size(&mut self, block: u64, size: u8) {
        if self.error.is_some() {
            return;
        }
        self.data_buf.push((block, size));
        self.data_entries += 1;
        if self.data_buf.len() >= CHUNK_RECORDS {
            self.flush_data();
        }
    }

    /// Access records pushed so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Data entries pushed so far.
    pub fn data_entries(&self) -> u64 {
        self.data_entries
    }

    /// The first error encountered, if the writer is poisoned.
    pub fn error(&self) -> Option<&TraceError> {
        self.error.as_ref()
    }

    fn write_chunk(&mut self, kind: ChunkKind, payload: &[u8]) {
        if let Err(e) = self.sink.write_all(&frame_chunk(kind, payload)) {
            self.error.get_or_insert(TraceError::Io(e));
            return;
        }
        self.chunks += 1;
    }

    fn flush_data(&mut self) {
        if self.data_buf.is_empty() || self.error.is_some() {
            return;
        }
        let payload = encode_data_entries(&self.data_buf);
        self.data_buf.clear();
        self.write_chunk(ChunkKind::Data, &payload);
    }

    fn flush_pending(&mut self) {
        // Data entries first: a streaming reader then knows every size
        // recorded up to this point before it replays past it.
        self.flush_data();
        if self.access_in_buf == 0 || self.error.is_some() {
            return;
        }
        let mut payload = Vec::with_capacity(self.access_buf.len() + 4);
        varint::write_u64(&mut payload, self.access_in_buf);
        payload.extend_from_slice(&self.access_buf);
        self.access_buf.clear();
        self.access_in_buf = 0;
        self.write_chunk(ChunkKind::Access, &payload);
    }

    /// Flushes pending chunks, writes the end marker, and returns the sink.
    /// Fails with the first error the writer swallowed, if any.
    pub fn finish(mut self) -> Result<W, TraceError> {
        self.flush_pending();
        self.flush_data();
        self.write_chunk(ChunkKind::End, &[]);
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.sink.flush()?;
        Ok(self.sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn writes_magic_then_header() {
        let w = TraceWriter::new(Vec::new(), &header()).unwrap();
        let bytes = w.finish().unwrap();
        assert_eq!(&bytes[..8], &MAGIC);
        // Ends with the end-marker chunk: tag 'E', zero length, CRC.
        let tail = &bytes[bytes.len() - 9..];
        assert_eq!(tail[0], b'E');
        assert_eq!(u32::from_le_bytes(tail[1..5].try_into().unwrap()), 0);
    }

    #[test]
    fn out_of_range_core_poisons() {
        let mut w = TraceWriter::new(Vec::new(), &header()).unwrap();
        w.push_access(&Access::load(5, 0x40));
        assert!(w.error().is_some());
        assert!(w.finish().is_err());
    }

    #[test]
    fn sink_error_is_reported_at_finish() {
        struct Failing(usize);
        impl Write for Failing {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if self.0 == 0 {
                    return Err(std::io::Error::other("disk full"));
                }
                self.0 -= 1;
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        // Enough successful writes for the header, then failure.
        let mut w = TraceWriter::new(Failing(4), &header()).unwrap();
        for i in 0..10_000u64 {
            w.push_access(&Access::load(0, i << 6));
        }
        assert!(matches!(w.finish(), Err(TraceError::Io(_))));
    }
}
