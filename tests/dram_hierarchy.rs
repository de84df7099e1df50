//! Integration of the banked open-page DRAM model with the hierarchy.

use hybrid_llc::compress::CompressorKind;
use hybrid_llc::config::ExperimentSpec;
use hybrid_llc::llc::{HybridLlc, Policy};
use hybrid_llc::sim::{Access, Hierarchy};
use hybrid_llc::trace::{drive_cycles, mixes};

fn scaled_spec() -> ExperimentSpec {
    ExperimentSpec::preset("scaled").expect("builtin preset")
}

#[test]
fn streaming_misses_enjoy_row_buffer_hits() {
    let mut spec = scaled_spec();
    spec.system.cores = 1;
    spec.system.llc_sets = 64;
    spec.system.dram = true;
    spec.validate().unwrap();
    let cfg = spec.system_config();
    let llc = HybridLlc::new(&spec.llc_config_for(Policy::Bh));
    let mut h = Hierarchy::new(&cfg, llc, hllc_sim_const());

    // A long sequential sweep: every LLC miss goes to consecutive blocks.
    for b in 0..40_000u64 {
        h.access(&Access::load(0, b * 64));
    }
    let (hits, misses, conflicts) = h.dram().unwrap().stats();
    assert!(
        hits > 10 * (misses + conflicts),
        "stream must be row-hit dominated: {hits} vs {misses}+{conflicts}"
    );
}

#[test]
fn dram_model_slows_random_traffic_more_than_streams() {
    let run = |mix_idx: usize| -> f64 {
        let mut spec = scaled_spec();
        spec.system.dram = true;
        spec.validate().unwrap();
        let cfg = spec.system_config();
        let mix = &mixes()[mix_idx];
        let llc = HybridLlc::new(&spec.llc_config_for(Policy::Bh));
        let mut h = Hierarchy::new(&cfg, llc, mix.data_model_with(CompressorKind::Bdi, 3));
        let mut streams = mix.instantiate(spec.footprint_scale(), 3);
        drive_cycles(&mut h, &mut streams, 600_000.0);
        let (hits, misses, conflicts) = h.dram().unwrap().stats();
        hits as f64 / (hits + misses + conflicts).max(1) as f64
    };
    // Every real mix lands somewhere between pure-stream and pure-random;
    // the model must at least report a sane row-hit ratio.
    let ratio = run(0);
    assert!((0.01..0.99).contains(&ratio), "row hit ratio {ratio}");
}

#[test]
fn hierarchy_without_dram_has_no_model() {
    let spec = scaled_spec();
    let cfg = spec.system_config();
    let llc = HybridLlc::new(&spec.llc_config_for(Policy::Bh));
    let h = Hierarchy::new(&cfg, llc, hllc_sim_const());
    assert!(h.dram().is_none());
}

fn hllc_sim_const() -> hybrid_llc::sim::ConstSizeData {
    hybrid_llc::sim::ConstSizeData::new(64)
}
