//! Ablation — compression mechanism: BDI (the paper's choice) vs FPC.
//!
//! §II-B argues the insertion policies are orthogonal to the compressor as
//! long as it offers fast decompression and wide coverage. Swapping the
//! size model from modified BDI to Frequent Pattern Compression should
//! preserve the policy's behaviour qualitatively.

use hllc_bench::exp::{total, ExpOpts};
use hllc_bench::report::{banner, save_json, Table};
use hllc_core::Policy;

fn main() {
    let opts = ExpOpts::from_env_or_exit();
    banner(
        "ablation_compressor",
        "BDI vs FPC under CP_SD (and BH baseline)",
        "Paper §II-B: policies are orthogonal to the compression mechanism.",
    );
    let mut table = Table::new(["policy", "compressor", "hit rate", "NVM bytes", "IPC"]);
    let mut json_rows = Vec::new();
    for policy in [Policy::Bh, Policy::cp_sd()] {
        for compressor in ["bdi", "fpc"] {
            let mut spec = opts.spec_for(policy);
            spec.hybrid.compressor = compressor.into();
            let metrics = opts.measure(&spec, 1.0);
            let hits = total(&metrics, |m| m.llc.hits as f64);
            let reqs = total(&metrics, |m| m.llc.requests() as f64);
            let bytes: u64 = metrics.iter().map(|m| m.llc.nvm_bytes_written).sum();
            let ipc = total(&metrics, |m| m.ipc) / metrics.len() as f64;
            let kind = spec.compressor();
            table.row([
                policy.name(),
                kind.name().to_string(),
                format!("{:.3}", hits / reqs),
                format!("{bytes}"),
                format!("{ipc:.4}"),
            ]);
            json_rows.push(serde_json::json!({
                "policy": policy.name(), "compressor": kind.name(),
                "hit_rate": hits / reqs, "nvm_bytes": bytes,
            }));
        }
    }
    table.print();
    println!("\n(BH stores blocks uncompressed; its rows isolate pure noise.)");
    save_json(
        "ablation_compressor",
        &serde_json::json!({ "experiment": "ablation_compressor", "rows": json_rows }),
    );
}
