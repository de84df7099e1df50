//! Non-perturbing capture of a live simulation.
//!
//! [`Recorder`] hands out two taps that share one [`TraceWriter`]:
//!
//! * [`RecordingStream`] wraps any reference source (an `AppStream`, or
//!   even a `ReplayStream` when re-recording) and logs every access it
//!   produces, passing it through untouched;
//! * [`RecordingData`] wraps the data model and logs each block's
//!   compressed size the first time the LLC asks for it.
//!
//! Neither tap draws randomness or changes a return value, so a recorded
//! run is bit-identical to the same run without the recorder — the
//! round-trip tests in the root package enforce this.

use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;

use hllc_sim::{Access, BlockSizes, DataModel};
use hllc_trace::RefSource;

use crate::format::TraceError;
use crate::writer::TraceWriter;

/// Shared handle to the trace being written. Single-threaded by design
/// (`Rc<RefCell<…>>`): recording happens inside one simulation loop.
#[derive(Debug)]
pub struct Recorder<W: Write> {
    writer: Rc<RefCell<Option<TraceWriter<W>>>>,
}

impl<W: Write> Recorder<W> {
    /// Wraps an open [`TraceWriter`].
    pub fn new(writer: TraceWriter<W>) -> Self {
        Recorder {
            writer: Rc::new(RefCell::new(Some(writer))),
        }
    }

    /// Taps a reference source: every access it yields is appended to the
    /// trace.
    pub fn stream<S: RefSource>(&self, inner: S) -> RecordingStream<S, W> {
        RecordingStream {
            inner,
            writer: Rc::clone(&self.writer),
        }
    }

    /// Taps a data model: each block's compressed size is appended to the
    /// trace on first query.
    pub fn data<D: DataModel>(&self, inner: D) -> RecordingData<D, W> {
        RecordingData {
            inner,
            seen: BlockSizes::new(),
            writer: Rc::clone(&self.writer),
        }
    }

    /// Seals the trace and returns the sink. Call after the simulation is
    /// done; taps that outlive the recorder silently stop logging.
    #[expect(
        clippy::expect_used,
        reason = "finish consumes the only Recorder and is the only code that takes the writer \
                  out of the shared slot, so the slot still holds it here; the taps read the \
                  emptied slot as the end of recording"
    )]
    pub fn finish(self) -> Result<W, TraceError> {
        let writer = self
            .writer
            .borrow_mut()
            .take()
            .expect("recorder finished twice");
        writer.finish()
    }
}

/// A [`RefSource`] that logs every access flowing through it.
#[derive(Debug)]
pub struct RecordingStream<S, W: Write> {
    inner: S,
    writer: Rc<RefCell<Option<TraceWriter<W>>>>,
}

impl<S: RefSource, W: Write> RefSource for RecordingStream<S, W> {
    fn next_access(&mut self, core: u8) -> Option<Access> {
        let a = self.inner.next_access(core)?;
        if let Some(w) = self.writer.borrow_mut().as_mut() {
            w.push_access(&a);
        }
        Some(a)
    }
}

/// A [`DataModel`] that logs each block's size on first query.
#[derive(Debug)]
pub struct RecordingData<D, W: Write> {
    inner: D,
    /// Blocks already logged, with the size logged for each.
    seen: BlockSizes,
    writer: Rc<RefCell<Option<TraceWriter<W>>>>,
}

impl<D: DataModel, W: Write> DataModel for RecordingData<D, W> {
    fn compressed_size(&mut self, block: u64) -> u8 {
        let size = self.inner.compressed_size(block);
        if self.seen.insert(block, size).is_none() {
            if let Some(w) = self.writer.borrow_mut().as_mut() {
                w.push_size(block, size);
            }
        }
        size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::TraceHeader;
    use crate::reader::TraceReader;
    use hllc_sim::ConstSizeData;

    fn header(cores: u8) -> TraceHeader {
        TraceHeader {
            cores,
            mix: 0,
            seed: 1,
            sets: 512,
            cycles: 0.0,
            policy: "test".into(),
            workload: "unit".into(),
            spec_json: None,
        }
    }

    /// A deterministic fake reference source.
    struct Counter(u64);
    impl RefSource for Counter {
        fn next_access(&mut self, core: u8) -> Option<Access> {
            self.0 += 1;
            Some(Access::load(core, self.0 << 6))
        }
    }

    #[test]
    fn stream_tap_is_transparent_and_logs() {
        let writer = TraceWriter::new(Vec::new(), &header(1)).unwrap();
        let rec = Recorder::new(writer);
        let mut tapped = rec.stream(Counter(0));
        let mut plain = Counter(0);
        let produced: Vec<Access> = (0..100).map(|_| tapped.next_access(0).unwrap()).collect();
        let expected: Vec<Access> = (0..100).map(|_| plain.next_access(0).unwrap()).collect();
        assert_eq!(produced, expected, "tap perturbed the stream");
        drop(tapped);
        let bytes = rec.finish().unwrap();
        let content = TraceReader::new(&bytes[..]).unwrap().read_to_end().unwrap();
        assert_eq!(content.accesses, expected);
    }

    #[test]
    fn data_tap_logs_first_query_only() {
        let writer = TraceWriter::new(Vec::new(), &header(1)).unwrap();
        let rec = Recorder::new(writer);
        let mut data = rec.data(ConstSizeData::new(17));
        for _ in 0..3 {
            assert_eq!(data.compressed_size(5), 17);
        }
        assert_eq!(data.compressed_size(9), 17);
        drop(data);
        let bytes = rec.finish().unwrap();
        let content = TraceReader::new(&bytes[..]).unwrap().read_to_end().unwrap();
        assert_eq!(content.sizes, vec![(5, 17), (9, 17)]);
    }
}
