//! Extension — LLC energy comparison across insertion policies.
//!
//! The prior work the paper compares against (TAP) optimizes for LLC
//! energy: STT-MRAM writes are energy-hungry and SRAM leaks. This harness
//! computes a post-hoc energy breakdown per policy from the measured LLC
//! activity (TAP's paper reports a 25 % energy reduction vs LRU).

use hllc_bench::exp::ExpOpts;
use hllc_bench::report::{banner, save_json, Table};
use hllc_core::Policy;
use hllc_sim::EnergyBreakdown;

fn main() {
    let opts = ExpOpts::from_env_or_exit();
    banner(
        "energy",
        "LLC energy per policy (extension; coefficients in sim/src/energy.rs)",
        "Motivating context: TAP reports ~25% LLC energy reduction vs LRU.",
    );
    let freq = opts.spec.system_config().timing.freq_ghz;

    let mut table = Table::new([
        "policy",
        "SRAM dyn [mJ]",
        "NVM dyn [mJ]",
        "leakage [mJ]",
        "total [mJ]",
        "vs BH",
    ]);
    let mut json_rows = Vec::new();
    let mut bh_total = None;
    for policy in [
        Policy::Bh,
        Policy::BhCp,
        Policy::cp_sd(),
        Policy::cp_sd_th(8.0),
        Policy::LHybrid,
        Policy::tap(),
    ] {
        let mut total = EnergyBreakdown::default();
        for m in opts.measure(&opts.spec_for(policy), 1.0) {
            let b = EnergyBreakdown::of(&m.llc, m.measured_cycles, freq);
            total.sram_dynamic_mj += b.sram_dynamic_mj;
            total.nvm_dynamic_mj += b.nvm_dynamic_mj;
            total.leakage_mj += b.leakage_mj;
        }
        let t = total.total_mj();
        let bh = *bh_total.get_or_insert(t);
        table.row([
            policy.name(),
            format!("{:.3}", total.sram_dynamic_mj),
            format!("{:.3}", total.nvm_dynamic_mj),
            format!("{:.3}", total.leakage_mj),
            format!("{t:.3}"),
            format!("{:.2}x", t / bh),
        ]);
        json_rows.push(serde_json::json!({
            "policy": policy.name(),
            "sram_dynamic_mj": total.sram_dynamic_mj,
            "nvm_dynamic_mj": total.nvm_dynamic_mj,
            "leakage_mj": total.leakage_mj,
            "total_mj": t,
        }));
    }
    table.print();
    save_json(
        "energy",
        &serde_json::json!({ "experiment": "energy", "rows": json_rows }),
    );
}
