//! Property-based tests for the workload generator.

use hllc_compress::CompressorKind;
use hllc_sim::Op;
use hllc_trace::{mixes, Pattern, Profile};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_pattern() -> impl Strategy<Value = Pattern> {
    let leaf = prop_oneof![
        (1u64..8).prop_map(|stride| Pattern::Loop { stride }),
        (1u64..8).prop_map(|spread| Pattern::Stream { spread }),
        Just(Pattern::Random),
        (0.01f64..0.9, 0.1f64..0.95).prop_map(|(hot_fraction, hot_probability)| {
            Pattern::HotCold {
                hot_fraction,
                hot_probability,
            }
        }),
        (1u64..8, 0.01f64..0.5, 0.1f64..0.9).prop_map(|(stride, hot_fraction, hot_probability)| {
            Pattern::LoopHot {
                stride,
                hot_fraction,
                hot_probability,
            }
        }),
    ];
    // One level of phasing over the leaves.
    (leaf.clone(), leaf, 1u64..10_000).prop_map(|(a, b, period)| Pattern::Phased {
        a: Box::new(a),
        b: Box::new(b),
        period,
    })
}

proptest! {
    /// Every pattern only ever produces indices inside the footprint.
    #[test]
    fn indices_stay_in_footprint(
        pattern in arb_pattern(),
        footprint in 1u64..100_000,
        seed in any::<u64>(),
    ) {
        let mut state = pattern.start();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..500 {
            let i = pattern.next_index(&mut state, footprint, &mut rng);
            prop_assert!(i < footprint, "index {i} outside footprint {footprint}");
        }
    }

    /// Streams from the same spec and seed are identical; different seeds
    /// diverge (for non-degenerate patterns).
    #[test]
    fn stream_determinism(app_idx in 0usize..20, seed in any::<u64>()) {
        let app = &hllc_trace::spec_apps()[app_idx];
        let mut a = app.instantiate(0, 0.1, seed);
        let mut b = app.instantiate(0, 0.1, seed);
        for _ in 0..200 {
            prop_assert_eq!(a.next_access(0), b.next_access(0));
        }
    }

    /// Read-only prefix blocks never receive stores.
    #[test]
    fn read_only_prefix_is_never_written(app_idx in 0usize..20, seed in any::<u64>()) {
        let app = &hllc_trace::spec_apps()[app_idx];
        let mut s = app.instantiate(0, 0.1, seed);
        let ro_blocks = (app.read_only_prefix * s.footprint() as f64) as u64;
        for _ in 0..2_000 {
            let a = s.next_access(0);
            let index = (a.addr & ((1 << hllc_trace::APP_SLOT_SHIFT) - 1)) >> 6;
            if a.op == Op::Store {
                prop_assert!(index >= ro_blocks, "store to read-only block {index}");
            }
        }
    }

    /// Workload data sizes are always valid compressed sizes.
    #[test]
    fn data_sizes_valid(mix_idx in 0usize..10, block in any::<u64>()) {
        use hllc_sim::DataModel;
        let mix = &mixes()[mix_idx];
        let mut d = mix.data_model_with(CompressorKind::Bdi, 7);
        let size = d.compressed_size(block & 0x03FF_FFFF_FFFF);
        prop_assert!((1..=64).contains(&size));
    }

    /// Profile synthesis hits the class's BDI size regardless of RNG state.
    #[test]
    fn synthesis_matches_nominal_size(class_idx in 0usize..10, seed in any::<u64>()) {
        use hllc_compress::Compressor;
        use hllc_trace::SynthClass;
        let class = SynthClass::ALL[class_idx];
        let mut rng = StdRng::seed_from_u64(seed);
        let block = Profile::synthesize(class, &mut rng);
        prop_assert_eq!(Compressor::new().compressed_size(&block), class.nominal_size());
    }
}
