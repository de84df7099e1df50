//! Property tests for the trace generator's seed contract, which the
//! parallel runner's determinism guarantee ultimately rests on: equal seeds
//! must replay identical streams, different seeds must diverge.

use hybrid_llc::compress::CompressorKind;
use hybrid_llc::trace::mixes;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

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

    fn different_seeds_diverge(seed in any::<u64>(), delta in 1u64..1_000_000) {
        let mix = &mixes()[0];
        let mut a = mix.instantiate(0.05, seed);
        let mut b = mix.instantiate(0.05, seed.wrapping_add(delta));
        let diverged = (0..256).any(|_| {
            a[0].next_access(0) != b[0].next_access(0)
        });
        prop_assert!(diverged, "seeds {seed} and +{delta} replayed the same stream");
    }

    fn equal_seeds_synthesize_identical_data(seed in any::<u64>(), block in any::<u64>()) {
        let mix = &mixes()[0];
        let mut a = mix.data_model_with(CompressorKind::Bdi, seed);
        let mut b = mix.data_model_with(CompressorKind::Bdi, seed);
        prop_assert_eq!(a.synthesize_block(block), b.synthesize_block(block));
        // Memoization must not change the synthesized content either.
        prop_assert_eq!(a.synthesize_block(block), b.synthesize_block(block));
    }

    fn different_seeds_synthesize_different_data(seed in any::<u64>(), delta in 1u64..1_000_000) {
        let mix = &mixes()[0];
        let mut a = mix.data_model_with(CompressorKind::Bdi, seed);
        let mut b = mix.data_model_with(CompressorKind::Bdi, seed.wrapping_add(delta));
        let diverged = (0..64u64).any(|block| a.synthesize_block(block) != b.synthesize_block(block));
        prop_assert!(diverged, "data models for {seed} and +{delta} agree on 64 blocks");
    }
}
