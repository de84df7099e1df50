//! Figure 11c — Equalizing storage cost: the byte-level fault map costs
//! 12.3 % of the NVM data array, so CP_SD is re-evaluated with 11 and 10
//! NVM ways (+1.8 % / −5.2 % total storage vs LHybrid's 12-way
//! frame-disabling design).
//!
//! The paper's claim: even with 10 NVM ways, CP_SD_Th8 beats LHybrid's
//! initial IPC by 6.4 % and keeps a higher IPC over the cache's whole life.

use hllc_bench::exp::{run_forecast_experiment, ExpOpts};
use hllc_bench::report::banner;
use hllc_core::Policy;

fn main() {
    let opts = ExpOpts::from_env_or_exit();
    banner(
        "fig11c",
        "Equal-storage comparison: CP_SD family with 12/11/10 NVM ways vs LHybrid",
        "Paper Fig. 11c: all CP_SD configurations keep significantly higher \
         normalized IPC than LHybrid at matched (or lower) storage cost.",
    );
    let mut curves = vec![(
        "LHybrid (12w NVM)".to_string(),
        opts.spec_for(Policy::LHybrid),
    )];
    for (name, policy) in [
        ("CP_SD", Policy::cp_sd()),
        ("CP_SD_Th4", Policy::cp_sd_th(4.0)),
        ("CP_SD_Th8", Policy::cp_sd_th(8.0)),
    ] {
        for nvm_ways in [12usize, 11, 10] {
            let mut spec = opts.spec_for(policy);
            spec.system.nvm_ways = nvm_ways;
            curves.push((format!("{name} ({nvm_ways}w NVM)"), spec));
        }
    }
    run_forecast_experiment("fig11c", &curves, &opts, false);
}
