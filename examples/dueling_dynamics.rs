//! Dueling dynamics: watch Set Dueling track the workload, epoch by epoch —
//! which CP_th candidate collects the most sampler hits, and what the
//! rule-based Th/Tw winner chooses instead.
//!
//! ```sh
//! cargo run --release --example dueling_dynamics
//! ```

use hybrid_llc::config::ExperimentSpec;
use hybrid_llc::forecast::{simulate, PhaseSetup};
use hybrid_llc::llc::{Policy, CP_TH_CANDIDATES};
use hybrid_llc::trace::mixes;

fn main() {
    let spec = ExperimentSpec::preset("scaled").expect("builtin preset");
    let mix = &mixes()[5]; // lbm + xz + GemsFDTD + wrf: mixed compressibility
    println!(
        "workload {} = {}\n",
        mix.name,
        mix.apps
            .iter()
            .map(|a| a.name)
            .collect::<Vec<_>>()
            .join(" + ")
    );

    for (name, policy) in [
        ("CP_SD", Policy::cp_sd()),
        ("CP_SD_Th8", Policy::cp_sd_th(8.0)),
    ] {
        let setup = PhaseSetup {
            llc: spec.llc_config_for(policy),
            ..PhaseSetup::from_spec(&spec, 0.0, 2_000_000.0)
        };
        let (mut streams, data) = setup.inputs(mix, 42);
        let h = simulate(&setup, &mut streams, data, None).hierarchy;

        println!("— {name} —");
        println!(
            "{:>5}  {:<30} {:>12} {:>8}",
            "epoch", "sampler hits per CP_th", "max-hits", "winner"
        );
        let dueling = h.llc().dueling().expect("CP_SD has a controller");
        for (i, e) in dueling.history().iter().enumerate() {
            let hits: Vec<String> = e.hits.iter().map(|h| format!("{h:>4}")).collect();
            let best = e
                .max_hits_candidate()
                .map_or("-".to_string(), |k| CP_TH_CANDIDATES[k].to_string());
            println!(
                "{i:>5}  [{}] {best:>11} {:>8}",
                hits.join(","),
                CP_TH_CANDIDATES[e.winner]
            );
        }
        println!(
            "final follower CP_th: {} (candidates {:?})\n",
            dueling.current_cp_th(),
            CP_TH_CANDIDATES
        );
    }
    println!("CP_SD follows the max-hits candidate; the Th8 rule deviates toward");
    println!("smaller thresholds whenever that cuts NVM bytes by ≥5% while");
    println!("costing at most 8% of the sampler hits.");
}
