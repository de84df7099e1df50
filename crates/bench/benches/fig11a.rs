//! Figure 11a — L2 size sensitivity: 128 KB → 256 KB.
//!
//! A bigger private L2 filters LLC write traffic: the paper reports 8–19 %
//! lifetime gains for every policy except LHybrid, whose lifetime *drops*
//! 11 % because longer SRAM residence detects more loop-blocks.

use hllc_bench::exp::{headline_policies, run_forecast_experiment, ExpOpts};
use hllc_bench::report::banner;

fn main() {
    let opts = ExpOpts::from_env_or_exit();
    banner(
        "fig11a",
        "Private L2 doubled",
        "Paper Fig. 11a: lifetime +8..19% for BH/BH_CP/CP_SD family, -11% \
         for LHybrid (more loop-blocks detected -> more NVM writes).",
    );
    let curves: Vec<_> = headline_policies()
        .into_iter()
        .map(|(label, p)| {
            let mut spec = opts.spec_for(p);
            spec.system.l2_sets *= 2;
            (label, spec)
        })
        .collect();
    run_forecast_experiment("fig11a", &curves, &opts, true);
}
