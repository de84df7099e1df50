//! Figure 10c — Endurance-variability sensitivity: cv = 0.25.
//!
//! A larger manufacturing coefficient of variation makes the weakest
//! bitcells fail much earlier. The paper shows frame-disabling policies
//! (BH: 2.7 → 1.6 months, LHybrid: 53 → 30 months) suffering drastically,
//! while byte-disabling policies barely move (CP_SD: 45 → 42 months).

use hllc_bench::exp::{headline_policies, run_forecast_experiment, ExpOpts};
use hllc_bench::report::banner;

fn main() {
    let opts = ExpOpts::from_env_or_exit();
    banner(
        "fig10c",
        "Endurance coefficient of variation raised to 0.25",
        "Paper Fig. 10c: frame-disabling lifetimes collapse, byte-disabling \
         lifetimes barely move; CP_SD family gains 1.4x-2x lifetime vs LHybrid.",
    );
    let curves: Vec<_> = headline_policies()
        .into_iter()
        .map(|(label, p)| {
            let mut spec = opts.spec_for(p);
            spec.hybrid.endurance_cv = 0.25;
            (label, spec)
        })
        .collect();
    run_forecast_experiment("fig10c", &curves, &opts, true);
}
