//! The endurance limits behind `HybridLlc::new`: the draws a sample
//! seeded with `ENDURANCE_SEED` makes, in frame order, whatever the policy.

use hllc_core::{HybridConfig, HybridLlc, Policy, ENDURANCE_SEED};
use hllc_nvm::{EnduranceModel, NvmArray, FRAME_BYTES};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn config(sets: usize, nvm_ways: usize, cv: f64) -> HybridConfig {
    HybridConfig::new(sets, 4, nvm_ways, Policy::cp_sd()).with_endurance(1e6, cv)
}

/// Every limit of the array, in frame order, as bits.
fn limits(a: &NvmArray) -> Vec<u64> {
    (0..a.sets())
        .flat_map(|s| (0..a.ways()).flat_map(move |w| *a.endurance(s, w)))
        .map(f64::to_bits)
        .collect()
}

/// `model`'s draws from `StdRng::seed_from_u64(ENDURANCE_SEED)`, one per
/// byte of `frames` frames.
fn draws(model: &EnduranceModel, frames: usize) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(ENDURANCE_SEED);
    (0..frames * FRAME_BYTES)
        .map(|_| (model.sample(&mut rng) as f64).to_bits())
        .collect()
}

fn llc_limits(cfg: &HybridConfig) -> Vec<u64> {
    let a = HybridLlc::new(cfg)
        .into_array()
        .expect("the config has NVM ways");
    limits(&a)
}

#[test]
fn an_llc_draws_the_seeded_sample_in_frame_order() {
    let base = config(16, 12, 0.2);
    for cfg in [
        config(8, 12, 0.2),
        config(16, 6, 0.2),
        config(16, 12, 0.25),
        base.clone().with_endurance(2e6, 0.2),
    ] {
        let expected = draws(&cfg.endurance, cfg.sets * cfg.nvm_ways);
        assert_eq!(llc_limits(&cfg), expected, "{cfg:?}");
    }
    // The policy picks the granularity, not the limits.
    let bh = HybridConfig {
        policy: Policy::Bh,
        ..base.clone()
    };
    let expected = draws(&base.endurance, base.sets * base.nvm_ways);
    assert_eq!(llc_limits(&base), expected);
    assert_eq!(llc_limits(&bh), expected);
}
