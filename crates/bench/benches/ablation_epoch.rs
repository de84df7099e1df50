//! Ablation — Set Dueling epoch length.
//!
//! The paper evaluated several epoch sizes and settled on 2 M cycles
//! (§IV-C). This sweep scans the epoch length (at the simulation scale in
//! force) and reports hits and NVM bytes, exposing the trade-off between
//! reactivity (short epochs) and sampler statistics (long epochs).

use hllc_bench::exp::{total, ExpOpts};
use hllc_bench::report::{banner, save_json, Table};
use hllc_core::Policy;

fn main() {
    let opts = ExpOpts::from_env_or_exit();
    banner(
        "ablation_epoch",
        "Set Dueling epoch-length sweep (CP_SD)",
        "Paper §IV-C: 2M cycles chosen at full scale; the scaled system \
         uses proportionally shorter epochs.",
    );
    let mut table = Table::new(["epoch [cycles]", "hit rate", "NVM bytes", "epochs seen"]);
    let mut json_rows = Vec::new();
    for epoch in [25_000u64, 50_000, 100_000, 200_000, 400_000, 800_000] {
        let mut spec = opts.spec_for(Policy::cp_sd());
        spec.hybrid.epoch_cycles = epoch;
        let metrics = opts.measure(&spec, 1.0);
        let hits = total(&metrics, |m| m.llc.hits as f64);
        let reqs = total(&metrics, |m| m.llc.requests() as f64);
        let bytes: u64 = metrics.iter().map(|m| m.llc.nvm_bytes_written).sum();
        let epochs: usize = metrics.iter().map(|m| m.epochs.len()).sum();
        table.row([
            format!("{epoch}"),
            format!("{:.3}", hits / reqs),
            format!("{bytes}"),
            format!("{epochs}"),
        ]);
        json_rows.push(serde_json::json!({
            "epoch_cycles": epoch, "hit_rate": hits / reqs, "nvm_bytes": bytes,
        }));
    }
    table.print();
    save_json(
        "ablation_epoch",
        &serde_json::json!({ "experiment": "ablation_epoch", "rows": json_rows }),
    );
}
