//! End-to-end integration: the full hierarchy over the hybrid LLC running
//! synthetic mixes, checking cross-policy invariants the paper's story
//! rests on.

use hybrid_llc::compress::CompressorKind;
use hybrid_llc::config::ExperimentSpec;
use hybrid_llc::llc::{HybridLlc, Policy};
use hybrid_llc::sim::{Hierarchy, LlcStats};
use hybrid_llc::trace::{drive_cycles, mixes, WorkloadData};
use hybrid_llc::LlcPort;

const SETS: usize = 128;

/// The scaled preset shrunk to [`SETS`] sets with a faster dueling epoch,
/// so every policy converges within the short windows below.
fn small_spec() -> ExperimentSpec {
    let mut spec = ExperimentSpec::preset("scaled").expect("builtin preset");
    spec.system.llc_sets = SETS;
    spec.hybrid.epoch_cycles = 50_000;
    spec.validate().expect("128-set scaled variant");
    spec
}

fn run_policy(policy: Policy, mix_idx: usize) -> (LlcStats, f64) {
    let spec = small_spec();
    let mix = &mixes()[mix_idx];
    let mut h: Hierarchy<HybridLlc, WorkloadData> = Hierarchy::new(
        &spec.system_config(),
        HybridLlc::new(&spec.llc_config_for(policy)),
        mix.data_model_with(CompressorKind::Bdi, 5),
    );
    let mut streams = mix.instantiate(spec.footprint_scale(), 5);
    drive_cycles(&mut h, &mut streams, 100_000.0);
    h.reset_stats();
    drive_cycles(&mut h, &mut streams, 500_000.0);
    (*h.llc().stats(), h.system_ipc())
}

#[test]
fn llc_stats_are_internally_consistent() {
    for policy in [
        Policy::Bh,
        Policy::BhCp,
        Policy::cp_sd(),
        Policy::LHybrid,
        Policy::tap(),
    ] {
        let (s, ipc) = run_policy(policy, 0);
        assert_eq!(s.hits + s.misses, s.requests(), "{policy:?}");
        assert_eq!(s.hits, s.sram_hits + s.nvm_hits, "{policy:?}");
        assert!(s.requests() > 1000, "{policy:?} seems idle");
        assert!(ipc > 0.0, "{policy:?}");
        assert!(s.migrations <= s.nvm_inserts, "{policy:?}");
    }
}

#[test]
fn compression_aware_policies_write_fewer_nvm_bytes_than_bh() {
    let (bh, _) = run_policy(Policy::Bh, 0);
    for policy in [Policy::BhCp, Policy::cp_sd(), Policy::cp_sd_th(8.0)] {
        let (s, _) = run_policy(policy, 0);
        assert!(
            s.nvm_bytes_written < bh.nvm_bytes_written,
            "{policy:?}: {} !< {}",
            s.nvm_bytes_written,
            bh.nvm_bytes_written
        );
    }
}

#[test]
fn conservative_policies_write_least() {
    let (cp_sd, _) = run_policy(Policy::cp_sd(), 0);
    for policy in [Policy::LHybrid, Policy::tap()] {
        let (s, _) = run_policy(policy, 0);
        assert!(
            s.nvm_bytes_written < cp_sd.nvm_bytes_written,
            "{policy:?} should be more conservative than CP_SD"
        );
    }
}

#[test]
fn cp_sd_keeps_more_hits_than_lhybrid() {
    // The paper's central performance claim, checked across two mixes.
    for mix_idx in [0, 2] {
        let (sd, _) = run_policy(Policy::cp_sd(), mix_idx);
        let (lh, _) = run_policy(Policy::LHybrid, mix_idx);
        assert!(
            sd.hit_rate() > lh.hit_rate(),
            "mix {mix_idx}: CP_SD {:.3} should beat LHybrid {:.3}",
            sd.hit_rate(),
            lh.hit_rate()
        );
    }
}

#[test]
fn th_rule_trades_hits_for_writes() {
    let (th0, _) = run_policy(Policy::cp_sd(), 0);
    let (th8, _) = run_policy(Policy::cp_sd_th(8.0), 0);
    assert!(
        th8.nvm_bytes_written < th0.nvm_bytes_written,
        "Th8 must reduce NVM writes ({} !< {})",
        th8.nvm_bytes_written,
        th0.nvm_bytes_written
    );
    // And the hit sacrifice must stay bounded (well under 10 %).
    assert!(th8.hit_rate() > 0.88 * th0.hit_rate());
}

#[test]
fn every_access_is_served_exactly_once() {
    let spec = small_spec();
    let mix = &mixes()[0];
    let mut h: Hierarchy<HybridLlc, WorkloadData> = Hierarchy::new(
        &spec.system_config(),
        HybridLlc::new(&spec.llc_config_for(Policy::cp_sd())),
        mix.data_model_with(CompressorKind::Bdi, 5),
    );
    let mut streams = mix.instantiate(spec.footprint_scale(), 5);
    drive_cycles(&mut h, &mut streams, 300_000.0);
    let s = h.stats();
    let served: u64 = s.services.iter().sum();
    assert_eq!(
        served,
        s.accesses(),
        "each access resolves at exactly one level"
    );
    // LLC requests seen by the LLC equal the LLC-or-beyond services plus
    // upgrades (S->M GetX from L1/L2 hits).
    let llc_requests = h.llc().stats().requests();
    let beyond_l2: u64 = s.services[2..].iter().sum();
    assert_eq!(llc_requests, beyond_l2 + s.upgrades);
}

#[test]
fn runs_are_deterministic() {
    let (a, ipc_a) = run_policy(Policy::cp_sd(), 1);
    let (b, ipc_b) = run_policy(Policy::cp_sd(), 1);
    assert_eq!(a, b);
    assert_eq!(ipc_a, ipc_b);
}

#[test]
fn aged_cache_serves_fewer_hits() {
    use rand::SeedableRng;
    let spec = small_spec();
    let mix = &mixes()[0];
    let llc_cfg = spec.llc_config_for(Policy::cp_sd());

    let mut hit_rates = Vec::new();
    for capacity in [1.0, 0.6] {
        let mut llc = HybridLlc::new(&llc_cfg);
        if capacity < 1.0 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(1);
            llc.array_mut().unwrap().degrade_to(capacity, &mut rng);
        }
        let mut h = Hierarchy::new(
            &spec.system_config(),
            llc,
            mix.data_model_with(CompressorKind::Bdi, 5),
        );
        let mut streams = mix.instantiate(spec.footprint_scale(), 5);
        drive_cycles(&mut h, &mut streams, 100_000.0);
        h.reset_stats();
        drive_cycles(&mut h, &mut streams, 500_000.0);
        hit_rates.push(h.llc().stats().hit_rate());
    }
    assert!(
        hit_rates[1] < hit_rates[0],
        "losing 40% of NVM capacity must cost hits: {hit_rates:?}"
    );
}
