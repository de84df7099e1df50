//! Figure 1 / Figure 10a — Performance vs. lifetime of the hybrid LLC.
//!
//! Reproduces the paper's headline experiment: normalized IPC over time (as
//! the NVM part wears out) for BH, BH_CP, LHybrid, TAP, CP_SD, CP_SD_Th4,
//! CP_SD_Th8, bracketed by the 16-way SRAM upper bound and the 4-way SRAM
//! lower bound, until the NVM part loses 50 % of its capacity.

use hllc_bench::exp::{headline_policies, run_forecast_experiment, ExpOpts};
use hllc_bench::report::banner;

fn main() {
    let opts = ExpOpts::from_env_or_exit();
    banner(
        "fig10a",
        "Performance vs lifetime (also covers Figure 1)",
        "Paper: BH dies at ~2.7 months; BH_CP 4.8x, CP_SD 16.8x, LHybrid 19.7x, \
         TAP 39x BH lifetime; CP_SD keeps ~96.7% of BH performance, LHybrid 88.8%, TAP ~85%.",
    );
    let curves: Vec<_> = headline_policies()
        .into_iter()
        .map(|(label, p)| (label, opts.spec_for(p)))
        .collect();
    run_forecast_experiment("fig10a", &curves, &opts, true);
}
