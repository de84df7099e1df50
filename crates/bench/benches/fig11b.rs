//! Figure 11b — NVM read-latency sensitivity: data array ×1.5 (8 → 12
//! cycles, load-use 32 → 36).
//!
//! Policies that insert aggressively into NVM feel the extra latency most;
//! the paper reports ≤0.7 % performance drops and slight lifetime gains —
//! no drastic change.

use hllc_bench::exp::{headline_policies, run_forecast_experiment, ExpOpts};
use hllc_bench::report::banner;

fn main() {
    let opts = ExpOpts::from_env_or_exit();
    banner(
        "fig11b",
        "NVM data-array latency x1.5",
        "Paper Fig. 11b: CP_SD/Th4/Th8/LHybrid lose 0.7/0.3/0.4/0.4% \
         performance; lifetimes tick up slightly. No drastic change.",
    );
    let curves: Vec<_> = headline_policies()
        .into_iter()
        .map(|(label, p)| {
            let mut spec = opts.spec_for(p);
            spec.system.nvm_latency_factor = 1.5;
            (label, spec)
        })
        .collect();
    run_forecast_experiment("fig11b", &curves, &opts, true);
}
