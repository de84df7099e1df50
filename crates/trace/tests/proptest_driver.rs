//! Property-based tests for the multi-core interleaving driver.

use hllc_compress::CompressorKind;
use hllc_sim::{Hierarchy, NullLlc, SystemConfig};
use hllc_trace::{drive_accesses, mixes};
use proptest::prelude::*;

proptest! {
    /// Laggard-core selection keeps every core's clock within one access's
    /// latency of the slowest core: stepping always the minimum clock means
    /// the spread can never exceed the largest advance a single reference
    /// has caused so far.
    #[test]
    fn laggard_keeps_clocks_within_one_access(
        mix_idx in 0usize..10,
        seed in any::<u64>(),
        n in 200u64..1500,
    ) {
        let mix = &mixes()[mix_idx];
        let cfg = SystemConfig::default();
        let mut h = Hierarchy::new(&cfg, NullLlc::default(), mix.data_model_with(CompressorKind::Bdi, seed));
        let mut streams = mix.instantiate(0.05, seed);
        let cores = streams.len();
        let mut prev: Vec<f64> = (0..cores).map(|c| h.core_clock(c)).collect();
        let mut max_advance = 0.0f64;
        for step in 0..n {
            drive_accesses(&mut h, &mut streams, 1);
            let now: Vec<f64> = (0..cores).map(|c| h.core_clock(c)).collect();
            for c in 0..cores {
                max_advance = max_advance.max(now[c] - prev[c]);
            }
            let max = now.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let min = now.iter().cloned().fold(f64::INFINITY, f64::min);
            prop_assert!(
                max - min <= max_advance + 1e-9,
                "after access {step} the clock spread {} exceeds the largest \
                 single-access latency {max_advance} seen so far: {now:?}",
                max - min
            );
            prev = now;
        }
    }

    /// `drive_accesses(n)` executes exactly `n` references for infinite
    /// (synthetic) sources, regardless of mix, seed, or count.
    #[test]
    fn drive_accesses_executes_exactly_n(
        mix_idx in 0usize..10,
        seed in any::<u64>(),
        n in 1u64..5_000,
    ) {
        let mix = &mixes()[mix_idx];
        let cfg = SystemConfig::default();
        let mut h = Hierarchy::new(&cfg, NullLlc::default(), mix.data_model_with(CompressorKind::Bdi, seed));
        let mut streams = mix.instantiate(0.05, seed);
        drive_accesses(&mut h, &mut streams, n);
        prop_assert_eq!(h.stats().accesses(), n);
    }
}
