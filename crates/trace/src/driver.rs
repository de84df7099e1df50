//! Multi-core interleaving driver.
//!
//! Steps the core with the smallest local clock, pulling the next reference
//! from its reference source — approximating the concurrent execution of
//! the four programs of a mix on the shared LLC. The drivers are generic
//! over [`RefSource`], so the same interleaving logic runs synthetic
//! streams ([`AppStream`]) and recorded traces (`hllc-traceio`'s
//! `ReplayStream`) identically.

use hllc_sim::{Access, DataModel, Hierarchy, LlcPort};

use crate::stream::AppStream;

/// A per-core supplier of memory references.
///
/// Synthetic streams are infinite and always return `Some`; finite sources
/// (trace replay) return `None` when exhausted, which stops the driver.
pub trait RefSource {
    /// Produces the next reference of `core`'s stream, stamped with `core`,
    /// or `None` when the source has no more references.
    fn next_access(&mut self, core: u8) -> Option<Access>;
}

impl RefSource for AppStream {
    #[inline]
    fn next_access(&mut self, core: u8) -> Option<Access> {
        Some(AppStream::next_access(self, core))
    }
}

/// Runs until every core's clock has reached `target_cycles` or a source is
/// exhausted. Returns the number of references executed.
///
/// # Panics
///
/// Panics if `streams` is empty.
pub fn drive_cycles<L: LlcPort, D: DataModel, S: RefSource>(
    h: &mut Hierarchy<L, D>,
    streams: &mut [S],
    target_cycles: f64,
) -> u64 {
    assert!(!streams.is_empty(), "need at least one stream");
    let mut executed = 0u64;
    loop {
        let core = laggard(h, streams.len());
        if h.core_clock(core) >= target_cycles {
            break;
        }
        let Some(a) = streams[core].next_access(core as u8) else {
            break;
        };
        h.access(&a);
        executed += 1;
    }
    executed
}

/// Runs exactly `n` references (fewer only if a source is exhausted), still
/// interleaving by clock. Returns the final minimum core clock.
pub fn drive_accesses<L: LlcPort, D: DataModel, S: RefSource>(
    h: &mut Hierarchy<L, D>,
    streams: &mut [S],
    n: u64,
) -> f64 {
    assert!(!streams.is_empty(), "need at least one stream");
    for _ in 0..n {
        let core = laggard(h, streams.len());
        let Some(a) = streams[core].next_access(core as u8) else {
            break;
        };
        h.access(&a);
    }
    h.min_clock()
}

/// The core with the smallest local clock.
fn laggard<L: LlcPort, D: DataModel>(h: &Hierarchy<L, D>, cores: usize) -> usize {
    (0..cores)
        .min_by(|&a, &b| h.core_clock(a).total_cmp(&h.core_clock(b)))
        .expect("at least one core")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::mixes;
    use hllc_compress::CompressorKind;
    use hllc_sim::{NullLlc, SystemConfig};

    #[test]
    fn drive_cycles_advances_all_cores() {
        let _serial = crate::serial_helpers();
        let mix = &mixes()[0];
        let cfg = SystemConfig::default();
        let mut h = Hierarchy::new(
            &cfg,
            NullLlc::default(),
            mix.data_model_with(CompressorKind::Bdi, 1),
        );
        let mut streams = mix.instantiate(0.05, 1);
        let executed = drive_cycles(&mut h, &mut streams, 20_000.0);
        assert!(executed > 100);
        for core in 0..4 {
            assert!(h.core_clock(core) >= 20_000.0, "core {core} lagging");
        }
    }

    #[test]
    fn drive_accesses_balances_clocks() {
        let _serial = crate::serial_helpers();
        let mix = &mixes()[1];
        let cfg = SystemConfig::default();
        let mut h = Hierarchy::new(
            &cfg,
            NullLlc::default(),
            mix.data_model_with(CompressorKind::Bdi, 2),
        );
        let mut streams = mix.instantiate(0.05, 2);
        drive_accesses(&mut h, &mut streams, 10_000);
        let clocks: Vec<f64> = (0..4).map(|c| h.core_clock(c)).collect();
        let max = clocks.iter().cloned().fold(0.0, f64::max);
        let min = clocks.iter().cloned().fold(f64::INFINITY, f64::min);
        // Interleaving keeps cores loosely in step (within one max stall).
        assert!(max - min < 5_000.0, "clocks diverged: {clocks:?}");
        assert!(h.stats().accesses() == 10_000);
    }

    #[test]
    fn exhausted_source_stops_the_drivers() {
        /// Yields `self.0` references, then runs dry.
        struct Finite(u64);
        impl RefSource for Finite {
            fn next_access(&mut self, core: u8) -> Option<Access> {
                if self.0 == 0 {
                    return None;
                }
                self.0 -= 1;
                Some(Access::load(core, (self.0 << 6) | (u64::from(core) << 40)))
            }
        }
        let cfg = SystemConfig::default();
        let mut h = Hierarchy::new(&cfg, NullLlc::default(), hllc_sim::ConstSizeData::new(64));
        let mut streams = vec![Finite(50), Finite(50), Finite(50), Finite(50)];
        let executed = drive_cycles(&mut h, &mut streams, f64::INFINITY);
        assert!(executed <= 200);
        assert!(h.stats().accesses() > 0);

        let mut h2 = Hierarchy::new(&cfg, NullLlc::default(), hllc_sim::ConstSizeData::new(64));
        let mut streams2 = vec![Finite(10)];
        drive_accesses(&mut h2, &mut streams2, 1_000);
        assert_eq!(h2.stats().accesses(), 10, "stops at exhaustion, no panic");
    }
}
