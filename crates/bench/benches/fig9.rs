//! Figure 9 — Trading hits for NVM writes with the rule-based mechanism:
//! CP_SD_Th for Th ∈ {0, 2, 4, 6, 8} % (Tw = 5 %) at 100/90/80 % NVM
//! capacity, both metrics normalized to BH at 100 % capacity.
//!
//! The paper: raising Th always lowers both hits and bytes written, but the
//! bytes drop far more — e.g. at 80 % capacity, Th 0 → 8 loses 1.0 % of
//! hits for a 40.7 % write reduction.

use hllc_bench::exp::{total, ExpOpts};
use hllc_bench::report::{banner, save_json, Table};
use hllc_core::Policy;

fn main() {
    let opts = ExpOpts::from_env_or_exit();
    banner(
        "fig9",
        "Hits vs NVM bytes for Th in {0,2,4,6,8}%, capacities {100,90,80}%",
        "Paper Fig. 9: hits barely move with Th while bytes written drop \
         steeply, more so at lower capacity.",
    );
    let measure = |policy, capacity| {
        let metrics = opts.measure(&opts.spec_for(policy), capacity);
        (
            total(&metrics, |m| m.llc.hits as f64),
            total(&metrics, |m| m.llc.nvm_bytes_written as f64),
        )
    };
    let (bh_hits, bh_bytes) = measure(Policy::Bh, 1.0);

    let mut table = Table::new(["capacity", "Th %", "norm hits", "norm NVM bytes"]);
    let mut json_rows = Vec::new();
    for capacity in [1.0, 0.9, 0.8] {
        for th in [0.0, 2.0, 4.0, 6.0, 8.0] {
            let (hits, bytes) = measure(Policy::cp_sd_th(th), capacity);
            table.row([
                format!("{:3.0}%", capacity * 100.0),
                format!("{th:1.0}"),
                format!("{:.3}", hits / bh_hits),
                format!("{:.3}", bytes / bh_bytes),
            ]);
            json_rows.push(serde_json::json!({
                "capacity": capacity, "th": th,
                "hits": hits / bh_hits, "bytes": bytes / bh_bytes,
            }));
        }
    }
    table.print();
    save_json(
        "fig9",
        &serde_json::json!({ "experiment": "fig9", "rows": json_rows }),
    );
}
