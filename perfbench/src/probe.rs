//! The seams the benchmark owns: a reference-source stamp used in both
//! modes, and the traced-mode wrappers that count and time the calls into
//! each layer.
//!
//! Per-access seams are kept as count and time aggregates ([`Layers`]);
//! nothing is written out until the run ends.

use std::cell::Cell;
use std::time::{Duration, Instant};

use hybrid_llc::llc::HybridLlc;
use hybrid_llc::sim::{
    Access, DataModel, Hierarchy, HierarchyStats, LlcPort, LlcReq, LlcResponse, LlcStats,
    ReuseClass,
};
use hybrid_llc::trace::RefSource;

/// Shared by every stream of one op: when the first reference was pulled
/// (the end of the op's set-up) and how many references were pulled.
#[derive(Debug, Default)]
pub struct RefTally {
    first: Cell<Option<Instant>>,
    refs: Cell<u64>,
}

impl RefTally {
    /// When the first reference was pulled, if any was.
    pub fn first(&self) -> Option<Instant> {
        self.first.get()
    }

    /// References pulled so far.
    pub fn refs(&self) -> u64 {
        self.refs.get()
    }
}

/// A [`RefSource`] that reports into a [`RefTally`]. It forwards every
/// reference unchanged, so the simulation is the one the crates run.
pub struct Stamped<'a, S> {
    inner: S,
    tally: &'a RefTally,
}

impl<'a, S> Stamped<'a, S> {
    /// Wraps every stream of an op around one tally.
    pub fn all(streams: Vec<S>, tally: &'a RefTally) -> Vec<Self> {
        streams
            .into_iter()
            .map(|inner| Stamped { inner, tally })
            .collect()
    }
}

impl<S: RefSource> RefSource for Stamped<'_, S> {
    fn next_access(&mut self, core: u8) -> Option<Access> {
        if self.tally.first.get().is_none() {
            self.tally.first.set(Some(Instant::now()));
        }
        let a = self.inner.next_access(core)?;
        self.tally.refs.set(self.tally.refs.get() + 1);
        Some(a)
    }
}

/// Per-layer aggregates of one or more ops. Times are host seconds.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Layers {
    pub trace_instantiate_s: f64,
    pub trace_refs: u64,
    pub trace_next_s: f64,
    pub traceio_record_s: f64,
    pub traceio_bytes: u64,
    pub traceio_load_s: f64,
    pub traceio_next_s: f64,
    pub traceio_sizes_s: f64,
    pub compress_calls: u64,
    pub compress_s: f64,
    pub compress_bytes: u64,
    /// References executed (every window, warm-up included).
    pub sim_accesses: u64,
    /// `Hierarchy::access` time minus the LLC-port time inside it.
    pub sim_self_s: f64,
    /// Driver-loop time outside reference pulls and `Hierarchy::access`.
    pub sim_driver_s: f64,
    /// Hierarchy counters summed over the measured windows.
    pub measured: HierarchyStats,
    pub core_requests: u64,
    pub core_request_s: f64,
    pub core_inserts: u64,
    /// `LlcPort::insert` time minus the data-model time inside it.
    pub core_insert_s: f64,
    /// LLC counters summed over the measured windows.
    pub llc: LlcStats,
    pub nvm_sample_s: f64,
    pub nvm_degrade_s: f64,
    /// Sum and count of the NVM capacity fraction each op ended at.
    pub nvm_capacity_end_sum: f64,
    pub nvm_capacity_end_n: u64,
    pub forecast_phases: u64,
    pub forecast_phase_s: f64,
    pub forecast_predict_s: f64,
}

impl Layers {
    /// Adds `o` into `self`.
    pub fn add(&mut self, o: &Layers) {
        self.trace_instantiate_s += o.trace_instantiate_s;
        self.trace_refs += o.trace_refs;
        self.trace_next_s += o.trace_next_s;
        self.traceio_record_s += o.traceio_record_s;
        self.traceio_bytes += o.traceio_bytes;
        self.traceio_load_s += o.traceio_load_s;
        self.traceio_next_s += o.traceio_next_s;
        self.traceio_sizes_s += o.traceio_sizes_s;
        self.compress_calls += o.compress_calls;
        self.compress_s += o.compress_s;
        self.compress_bytes += o.compress_bytes;
        self.sim_accesses += o.sim_accesses;
        self.sim_self_s += o.sim_self_s;
        self.sim_driver_s += o.sim_driver_s;
        add_hierarchy(&mut self.measured, &o.measured);
        self.core_requests += o.core_requests;
        self.core_request_s += o.core_request_s;
        self.core_inserts += o.core_inserts;
        self.core_insert_s += o.core_insert_s;
        add_llc(&mut self.llc, &o.llc);
        self.nvm_sample_s += o.nvm_sample_s;
        self.nvm_degrade_s += o.nvm_degrade_s;
        self.nvm_capacity_end_sum += o.nvm_capacity_end_sum;
        self.nvm_capacity_end_n += o.nvm_capacity_end_n;
        self.forecast_phases += o.forecast_phases;
        self.forecast_phase_s += o.forecast_phase_s;
        self.forecast_predict_s += o.forecast_predict_s;
    }
}

fn add_hierarchy(acc: &mut HierarchyStats, o: &HierarchyStats) {
    for (a, b) in acc.services.iter_mut().zip(o.services) {
        *a += b;
    }
    acc.loads += o.loads;
    acc.stores += o.stores;
    acc.upgrades += o.upgrades;
    acc.remote_invalidations += o.remote_invalidations;
}

fn add_llc(acc: &mut LlcStats, o: &LlcStats) {
    acc.gets += o.gets;
    acc.getx += o.getx;
    acc.hits += o.hits;
    acc.misses += o.misses;
    acc.sram_hits += o.sram_hits;
    acc.nvm_hits += o.nvm_hits;
    acc.sram_inserts += o.sram_inserts;
    acc.nvm_inserts += o.nvm_inserts;
    acc.migrations += o.migrations;
    acc.nvm_bytes_written += o.nvm_bytes_written;
    acc.writebacks += o.writebacks;
    acc.bypasses += o.bypasses;
    acc.write_stall_cycles += o.write_stall_cycles;
}

/// Time spent in `f`, added to `acc`.
pub fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed().as_secs_f64();
    out
}

/// [`HybridLlc`] behind a port that counts and times every request and
/// insert, and the data-model calls the inserts make.
#[derive(Debug)]
pub struct TracedLlc {
    inner: HybridLlc,
    requests: u64,
    request_t: Duration,
    inserts: u64,
    insert_t: Duration,
    data_calls: u64,
    data_t: Duration,
    data_bytes: u64,
}

impl TracedLlc {
    pub fn new(inner: HybridLlc) -> Self {
        TracedLlc {
            inner,
            requests: 0,
            request_t: Duration::ZERO,
            inserts: 0,
            insert_t: Duration::ZERO,
            data_calls: 0,
            data_t: Duration::ZERO,
            data_bytes: 0,
        }
    }

    pub fn inner(&self) -> &HybridLlc {
        &self.inner
    }

    pub fn inner_mut(&mut self) -> &mut HybridLlc {
        &mut self.inner
    }
}

/// A data model that times the calls an LLC insert makes into the real one.
struct TimedData<'a> {
    inner: &'a mut dyn DataModel,
    calls: u64,
    t: Duration,
    bytes: u64,
}

impl DataModel for TimedData<'_> {
    fn compressed_size(&mut self, block: u64) -> u8 {
        let t = Instant::now();
        let s = self.inner.compressed_size(block);
        self.t += t.elapsed();
        self.calls += 1;
        self.bytes += u64::from(s);
        s
    }
}

impl LlcPort for TracedLlc {
    fn request(&mut self, now: u64, block: u64, req: LlcReq) -> LlcResponse {
        let t = Instant::now();
        let r = self.inner.request(now, block, req);
        self.request_t += t.elapsed();
        self.requests += 1;
        r
    }

    fn insert(
        &mut self,
        now: u64,
        block: u64,
        dirty: bool,
        reuse: ReuseClass,
        data: &mut dyn DataModel,
    ) {
        let mut d = TimedData {
            inner: data,
            calls: 0,
            t: Duration::ZERO,
            bytes: 0,
        };
        let t = Instant::now();
        self.inner.insert(now, block, dirty, reuse, &mut d);
        self.insert_t += t.elapsed();
        self.inserts += 1;
        self.data_calls += d.calls;
        self.data_t += d.t;
        self.data_bytes += d.bytes;
    }

    fn stats(&self) -> &LlcStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }
}

/// Which layer an op's references and block sizes come from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Inputs {
    /// Synthetic generators (`trace`) sized by the BDI data model
    /// (`compress`).
    Synthetic,
    /// A loaded trace (`traceio`): recorded references and recorded sizes.
    Recorded,
}

/// Host time of one traced drive: reference pulls, `Hierarchy::access`,
/// and the whole loop.
#[derive(Clone, Copy, Debug, Default)]
pub struct DriveTimes {
    next: Duration,
    access: Duration,
    total: Duration,
    refs: u64,
}

/// `hllc_trace::drive_cycles` with each reference pull and each
/// `Hierarchy::access` timed: steps the core with the smallest clock until
/// every clock reaches `target_cycles` or a source runs dry. Returns the
/// references executed.
pub fn traced_drive<D: DataModel, S: RefSource>(
    h: &mut Hierarchy<TracedLlc, D>,
    streams: &mut [S],
    target_cycles: f64,
    times: &mut DriveTimes,
) -> u64 {
    assert!(!streams.is_empty(), "need at least one stream");
    let start = Instant::now();
    let mut executed = 0u64;
    loop {
        let core = (0..streams.len())
            .min_by(|&a, &b| h.core_clock(a).total_cmp(&h.core_clock(b)))
            .expect("at least one core");
        if h.core_clock(core) >= target_cycles {
            break;
        }
        let t0 = Instant::now();
        let next = streams[core].next_access(core as u8);
        let t1 = Instant::now();
        times.next += t1 - t0;
        let Some(a) = next else {
            break;
        };
        h.access(&a);
        times.access += t1.elapsed();
        executed += 1;
    }
    times.total += start.elapsed();
    times.refs += executed;
    executed
}

/// Folds one traced hierarchy's counters into `layers`: the drive times,
/// the LLC port's aggregates, and the measured-window statistics.
pub fn fold_traced<D: DataModel>(
    layers: &mut Layers,
    inputs: Inputs,
    times: &DriveTimes,
    h: &Hierarchy<TracedLlc, D>,
) {
    let llc = h.llc();
    let next = times.next.as_secs_f64();
    let data = llc.data_t.as_secs_f64();
    match inputs {
        Inputs::Synthetic => {
            layers.trace_refs += times.refs;
            layers.trace_next_s += next;
            layers.compress_calls += llc.data_calls;
            layers.compress_s += data;
            layers.compress_bytes += llc.data_bytes;
        }
        Inputs::Recorded => {
            layers.traceio_next_s += next;
            layers.traceio_sizes_s += data;
        }
    }
    let (request, insert) = (llc.request_t.as_secs_f64(), llc.insert_t.as_secs_f64());
    layers.sim_accesses += times.refs;
    layers.sim_self_s += times.access.as_secs_f64() - request - insert;
    layers.sim_driver_s += times
        .total
        .saturating_sub(times.next + times.access)
        .as_secs_f64();
    layers.core_requests += llc.requests;
    layers.core_request_s += request;
    layers.core_inserts += llc.inserts;
    layers.core_insert_s += insert - data;
    add_hierarchy(&mut layers.measured, h.stats());
    add_llc(&mut layers.llc, llc.stats());
}
