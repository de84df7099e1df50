//! Figure 8b — Distribution of the per-epoch optimal CP_th per workload
//! mix, at 100 % NVM capacity.
//!
//! The paper: the optimal threshold is highly workload-dependent — up to
//! 96 % of mix 5's epochs prefer CP_th < 58 while other mixes sit at 58/64.

use hllc_bench::exp::{cp_th_wins, ExpOpts};
use hllc_bench::report::{banner, save_json, Table};
use hllc_core::Policy;
use hllc_trace::mixes;

fn main() {
    let mut opts = ExpOpts::from_env_or_exit();
    opts.mixes = 10; // this figure is inherently per-mix
    banner(
        "fig8b",
        "Optimal CP_th distribution per mix (100% capacity)",
        "Paper Fig. 8b: strong per-workload variation in the preferred CP_th.",
    );
    let mut table = Table::new(["mix", "CPth=30", "37", "44", "51", "58", "64", "epochs"]);
    let mut json_rows = Vec::new();
    let metrics = opts.measure(&opts.spec_for(Policy::cp_sd()), 1.0);
    for (mix, m) in mixes().iter().zip(&metrics) {
        let (pct, epochs) = cp_th_wins(std::slice::from_ref(m));
        let mut row = vec![mix.name.to_string()];
        row.extend(pct.iter().map(|p| format!("{p:4.1}")));
        row.push(format!("{epochs}"));
        table.row(row);
        json_rows.push(serde_json::json!({
            "mix": mix.name, "wins_pct": pct, "epochs": epochs,
        }));
    }
    table.print();
    save_json(
        "fig8b",
        &serde_json::json!({ "experiment": "fig8b", "rows": json_rows }),
    );
}
