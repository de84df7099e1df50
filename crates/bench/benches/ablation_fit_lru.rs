//! Ablation — Fit-LRU vs plain LRU replacement in the NVM part.
//!
//! Fit-LRU (§III-B1, [18]) chooses the LRU victim *among the frames the
//! incoming compressed block fits in*. A fault-oblivious plain LRU wastes
//! partially-disabled frames: when the LRU frame cannot hold the block, the
//! insertion falls back to SRAM. The difference only appears once frames
//! start losing bytes — so the sweep runs at degraded capacities.

use hllc_bench::exp::{total, ExpOpts};
use hllc_bench::report::{banner, save_json, Table};
use hllc_core::Policy;

fn main() {
    let opts = ExpOpts::from_env_or_exit();
    banner(
        "ablation_fit_lru",
        "Fit-LRU vs plain LRU in the NVM part (CP_SD)",
        "DESIGN.md §6 ablation; the paper adopts Fit-LRU from [18].",
    );
    let mut table = Table::new([
        "capacity",
        "variant",
        "hit rate",
        "NVM inserts",
        "bypass+SRAM fallbacks",
    ]);
    let mut json_rows = Vec::new();
    for capacity in [1.0, 0.9, 0.8, 0.7, 0.6] {
        for fit in [true, false] {
            // Fit-LRU is a mechanism ablation outside the spec schema: a
            // `HybridConfig` edit on the spec-built setup.
            let spec = opts.spec_for(Policy::cp_sd());
            let metrics = opts.measure_with(&spec, capacity, |setup| {
                setup.llc.fit_lru = fit;
            });
            let hits = total(&metrics, |m| m.llc.hits as f64);
            let reqs = total(&metrics, |m| m.llc.requests() as f64);
            let nvm_inserts: u64 = metrics.iter().map(|m| m.llc.nvm_inserts).sum();
            let fallbacks: u64 = metrics
                .iter()
                .map(|m| m.llc.bypasses + m.llc.sram_inserts)
                .sum();
            let variant = if fit { "Fit-LRU" } else { "plain LRU" };
            table.row([
                format!("{:3.0}%", capacity * 100.0),
                variant.to_string(),
                format!("{:.3}", hits / reqs),
                format!("{nvm_inserts}"),
                format!("{fallbacks}"),
            ]);
            json_rows.push(serde_json::json!({
                "capacity": capacity, "fit_lru": fit,
                "hit_rate": hits / reqs, "nvm_inserts": nvm_inserts,
            }));
        }
    }
    table.print();
    println!("\nExpectation: at degraded capacity, Fit-LRU sustains more NVM");
    println!("insertions and a higher hit rate than fault-oblivious plain LRU.");
    save_json(
        "ablation_fit_lru",
        &serde_json::json!({ "experiment": "ablation_fit_lru", "rows": json_rows }),
    );
}
