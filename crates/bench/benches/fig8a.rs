//! Figure 8a — Distribution of the per-epoch optimal CP_th as the NVM part
//! loses capacity (100 % → 50 %).
//!
//! Runs CP_SD's sampler sets over pre-degraded NVM arrays and, for every
//! Set Dueling epoch, records which CP_th candidate collected the most
//! hits. The paper: at 100 % capacity ~30 % of epochs prefer CP_th < 58,
//! and smaller thresholds win more often as capacity shrinks (large frames
//! become scarce).

use hllc_bench::exp::{cp_th_wins, ExpOpts};
use hllc_bench::report::{banner, save_json, Table};
use hllc_core::Policy;

fn main() {
    let opts = ExpOpts::from_env_or_exit();
    banner(
        "fig8a",
        "Optimal CP_th distribution vs NVM capacity",
        "Paper Fig. 8a: the mass shifts from CP_th 58/64 toward smaller \
         values as effective capacity drops from 100% to 50%.",
    );
    let mut table = Table::new([
        "capacity", "CPth=30", "37", "44", "51", "58", "64", "epochs",
    ]);
    let mut json_rows = Vec::new();
    let spec = opts.spec_for(Policy::cp_sd());
    for capacity in [1.0, 0.9, 0.8, 0.7, 0.6, 0.5] {
        let (pct, epochs) = cp_th_wins(&opts.measure(&spec, capacity));
        let mut row = vec![format!("{:3.0}%", capacity * 100.0)];
        row.extend(pct.iter().map(|p| format!("{p:4.1}")));
        row.push(format!("{epochs}"));
        table.row(row);
        json_rows.push(serde_json::json!({
            "capacity": capacity, "wins_pct": pct, "epochs": epochs,
        }));
    }
    table.print();
    save_json(
        "fig8a",
        &serde_json::json!({ "experiment": "fig8a", "rows": json_rows }),
    );
}
