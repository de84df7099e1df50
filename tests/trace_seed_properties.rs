//! Property tests for the trace generator's seed contract, which the
//! parallel runner's determinism guarantee ultimately rests on: equal seeds
//! must replay identical streams, different seeds must diverge.

use hybrid_llc::compress::CompressorKind;
use hybrid_llc::sim::DataModel;
use hybrid_llc::trace::mixes;
use proptest::prelude::*;

/// The FPC sizes of 1024 consecutive blocks from `first`: under FPC a size
/// depends on a payload drawn from the model's seeded RNG (BDI sizes
/// follow from the block's class alone).
fn fpc_sizes(seed: u64, first: u64) -> [u8; 1024] {
    let mut data = mixes()[0].data_model_with(CompressorKind::Fpc, seed);
    std::array::from_fn(|i| data.compressed_size(first.wrapping_add(i as u64)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn equal_seeds_replay_identical_streams(seed in any::<u64>(), mix_idx in 0usize..10) {
        let mix = &mixes()[mix_idx];
        let mut a = mix.instantiate(0.05, seed);
        let mut b = mix.instantiate(0.05, seed);
        prop_assert_eq!(a.len(), b.len());
        for core in 0..a.len() {
            for _ in 0..64 {
                let x = a[core].next_access(core as u8);
                let y = b[core].next_access(core as u8);
                prop_assert_eq!(x, y);
            }
        }
    }

    #[test]
    fn different_seeds_diverge(seed in any::<u64>(), delta in 1u64..1_000_000) {
        let mix = &mixes()[0];
        let mut a = mix.instantiate(0.05, seed);
        let mut b = mix.instantiate(0.05, seed.wrapping_add(delta));
        let diverged = (0..256).any(|_| {
            a[0].next_access(0) != b[0].next_access(0)
        });
        prop_assert!(diverged, "seeds {seed} and +{delta} replayed the same stream");
    }

    #[test]
    fn equal_seeds_size_identical_data(seed in any::<u64>(), first in any::<u64>()) {
        let mut a = mixes()[0].data_model_with(CompressorKind::Fpc, seed);
        let sizes = fpc_sizes(seed, first);
        // Memoization must not change a size either.
        for (i, &size) in sizes.iter().enumerate() {
            prop_assert_eq!(a.compressed_size(first.wrapping_add(i as u64)), size);
            prop_assert_eq!(a.compressed_size(first.wrapping_add(i as u64)), size);
        }
        prop_assert_eq!(fpc_sizes(seed, first), sizes);
    }

    #[test]
    fn different_seeds_size_different_data(seed in any::<u64>(), delta in 1u64..1_000_000) {
        let diverged = fpc_sizes(seed, 0) != fpc_sizes(seed.wrapping_add(delta), 0);
        prop_assert!(diverged, "data models for {seed} and +{delta} agree on 1024 blocks");
    }
}
