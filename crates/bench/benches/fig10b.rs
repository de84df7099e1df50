//! Figure 10b — SRAM/NVM proportion sensitivity: 3 SRAM + 13 NVM ways.
//!
//! The paper reports that shrinking the SRAM part to 3 ways costs LHybrid
//! 2.2 % performance but gains it 14 % lifetime (fewer loop-block
//! detections), while the CP_SD family loses ~2.1–2.6 % performance for a
//! 3.4–7.4 % lifetime gain.

use hllc_bench::exp::{headline_policies, run_forecast_experiment, ExpOpts};
use hllc_bench::report::banner;

fn main() {
    let opts = ExpOpts::from_env_or_exit();
    banner(
        "fig10b",
        "3-way SRAM / 13-way NVM sensitivity",
        "Paper Fig. 10b: slight performance drop and lifetime gain for all \
         NVM-aware policies compared to the 4/12 split.",
    );
    let curves: Vec<_> = headline_policies()
        .into_iter()
        .map(|(label, p)| {
            let mut spec = opts.spec_for(p);
            spec.system.sram_ways = 3;
            spec.system.nvm_ways = 13;
            (label, spec)
        })
        .collect();
    run_forecast_experiment("fig10b", &curves, &opts, true);
}
