//! Extension — memory-model sensitivity: flat-latency memory vs the banked
//! open-page DRAM channel.
//!
//! The paper charges gem5's DDR4 model; this reproduction defaults to a
//! flat 180-cycle latency (calibrated) and offers a banked open-page model.
//! The policy orderings must survive the swap — row-buffer locality mostly
//! rewards the streaming applications equally under every policy.

use hllc_bench::exp::{total, ExpOpts};
use hllc_bench::report::{banner, save_json, Table};
use hllc_core::Policy;

fn main() {
    let opts = ExpOpts::from_env_or_exit();
    banner(
        "ablation_memory",
        "Flat memory latency vs banked open-page DRAM",
        "Extension experiment; DESIGN.md substitution #2 notes the paper \
         uses gem5's detailed DDR4 model.",
    );
    let mut table = Table::new(["memory model", "policy", "IPC", "hit rate"]);
    let mut json_rows = Vec::new();
    let mut orderings: Vec<(bool, f64, f64)> = Vec::new();
    for dram in [false, true] {
        let mut per_policy = Vec::new();
        for policy in [Policy::Bh, Policy::cp_sd(), Policy::LHybrid] {
            let mut spec = opts.spec_for(policy);
            spec.system.dram = dram;
            let metrics = opts.measure(&spec, 1.0);
            let ipc = total(&metrics, |m| m.ipc) / metrics.len() as f64;
            let hits = total(&metrics, |m| m.llc.hits as f64);
            let reqs = total(&metrics, |m| m.llc.requests() as f64);
            per_policy.push(ipc);
            table.row([
                if dram {
                    "open-page DRAM"
                } else {
                    "flat 180cyc"
                }
                .to_string(),
                policy.name(),
                format!("{ipc:.4}"),
                format!("{:.3}", hits / reqs),
            ]);
            json_rows.push(serde_json::json!({
                "dram": dram, "policy": policy.name(), "ipc": ipc,
            }));
        }
        orderings.push((
            dram,
            per_policy[1] / per_policy[0],
            per_policy[2] / per_policy[0],
        ));
    }
    table.print();
    println!("\nnormalized (CP_SD/BH, LHybrid/BH):");
    for (dram, sd, lh) in orderings {
        println!(
            "  {}: {sd:.3}, {lh:.3}",
            if dram {
                "open-page DRAM"
            } else {
                "flat latency  "
            }
        );
    }
    save_json(
        "ablation_memory",
        &serde_json::json!({ "experiment": "ablation_memory", "rows": json_rows }),
    );
}
