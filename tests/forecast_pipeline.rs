//! Integration of the aging forecast across the whole stack: lifetime
//! orderings between policies, capacity monotonicity, and the scaled-
//! endurance equivalence the harnesses rely on.

use hybrid_llc::config::ExperimentSpec;
use hybrid_llc::forecast::{Forecast, ForecastConfig};
use hybrid_llc::llc::Policy;
use hybrid_llc::trace::mixes;

fn tiny(policy: Policy, endurance_mean: f64) -> ForecastConfig {
    let mut spec = ExperimentSpec::preset("scaled").expect("builtin preset");
    spec.system.llc_sets = 128;
    spec.hybrid.policy = policy.label();
    spec.hybrid.endurance_mean = endurance_mean;
    spec.hybrid.epoch_cycles = 50_000;
    spec.forecast.warmup_cycles = 5.0e4;
    spec.forecast.measure_cycles = 2.0e5;
    spec.forecast.capacity_step = 0.06;
    spec.forecast.max_step_seconds = 1.0e4;
    spec.forecast.stop_capacity = 0.5;
    spec.forecast.max_steps = 22;
    spec.validate().expect("128-set forecast variant");
    ForecastConfig::from_spec(&spec)
}

#[test]
fn lifetime_ordering_matches_the_paper() {
    let mix = &mixes()[0];
    let life = |p: Policy| {
        Forecast::new(tiny(p, 3e6))
            .run(mix, 7)
            .lifetime_seconds(0.75)
            .unwrap_or(f64::INFINITY)
    };
    let bh = life(Policy::Bh);
    let bh_cp = life(Policy::BhCp);
    let cp_sd = life(Policy::cp_sd());
    let lhybrid = life(Policy::LHybrid);
    assert!(bh.is_finite(), "BH must age to 75% capacity");
    assert!(bh < bh_cp, "compression extends lifetime ({bh} !< {bh_cp})");
    assert!(
        bh_cp < cp_sd,
        "NVM-aware insertion extends lifetime further"
    );
    assert!(cp_sd < lhybrid, "LHybrid is the most conservative");
}

#[test]
fn performance_ordering_matches_the_paper() {
    let mix = &mixes()[0];
    let ipc0 = |p: Policy| {
        Forecast::new(tiny(p, 3e6))
            .run(mix, 7)
            .initial_ipc()
            .unwrap()
    };
    let bh = ipc0(Policy::Bh);
    let cp_sd = ipc0(Policy::cp_sd());
    let lhybrid = ipc0(Policy::LHybrid);
    let tap = ipc0(Policy::tap());
    assert!(
        cp_sd > lhybrid,
        "CP_SD outperforms LHybrid ({cp_sd} !> {lhybrid})"
    );
    assert!(lhybrid > tap, "LHybrid outperforms TAP");
    assert!(cp_sd > 0.9 * bh, "CP_SD stays near BH performance");
}

#[test]
fn capacity_and_ipc_degrade_together() {
    let series = Forecast::new(tiny(Policy::Bh, 3e6)).run(&mixes()[1], 9);
    for w in series.points.windows(2) {
        assert!(
            w[1].capacity <= w[0].capacity + 1e-12,
            "capacity must not grow"
        );
    }
    let first = series.points.first().unwrap();
    let last = series.points.last().unwrap();
    assert!(last.capacity < first.capacity);
    assert!(
        last.ipc <= first.ipc * 1.02,
        "IPC should not improve as the cache dies"
    );
}

#[test]
fn lifetimes_scale_linearly_with_endurance() {
    // t_fail = endurance / write-rate: doubling μ must double measured
    // lifetime (the μ part of the scaled-to-paper time conversion).
    let mix = &mixes()[0];
    let l1 = Forecast::new(tiny(Policy::Bh, 2e6))
        .run(mix, 7)
        .lifetime_seconds(0.8)
        .unwrap();
    let l2 = Forecast::new(tiny(Policy::Bh, 4e6))
        .run(mix, 7)
        .lifetime_seconds(0.8)
        .unwrap();
    let ratio = l2 / l1;
    assert!(
        (ratio - 2.0).abs() < 0.35,
        "lifetime should scale ~linearly with endurance, got ratio {ratio}"
    );
}
