//! Figure 7 — Bytes written to the NVM part (normalized to BH) vs. CP_th,
//! for CA, CA_RWR, and the CP_SD line.
//!
//! The paper: CA writes 5–80 % of BH's bytes depending on CP_th (40 % less
//! than BH at CP_th = 58); CA_RWR cuts up to 73 % more; CP_SD reaches
//! 16.6 % of BH — 22.9 % and 42 % below CA_RWR at CP_th 58 and 64.

use hllc_bench::exp::{total, ExpOpts};
use hllc_bench::report::{banner, save_json, Table};
use hllc_core::{Policy, CP_TH_CANDIDATES};

fn main() {
    let opts = ExpOpts::from_env_or_exit();
    banner(
        "fig7",
        "Normalized NVM bytes written vs CP_th (full NVM capacity)",
        "Paper Fig. 7: CA between 0.05 and 0.80 of BH; CA_RWR up to 73% \
         below CA; CP_SD at 0.166 of BH.",
    );
    let bytes = |policy| {
        let metrics = opts.measure(&opts.spec_for(policy), 1.0);
        total(&metrics, |m| m.llc.nvm_bytes_written as f64)
    };
    let bh_bytes = bytes(Policy::Bh);

    let mut table = Table::new(["CP_th", "CA", "CA_RWR"]);
    let mut json_rows = Vec::new();
    for cp_th in CP_TH_CANDIDATES {
        let ca = bytes(Policy::Ca { cp_th });
        let rwr = bytes(Policy::CaRwr { cp_th });
        table.row([
            format!("{cp_th}"),
            format!("{:.3}", ca / bh_bytes),
            format!("{:.3}", rwr / bh_bytes),
        ]);
        json_rows.push(serde_json::json!({
            "cp_th": cp_th, "ca": ca / bh_bytes, "ca_rwr": rwr / bh_bytes,
        }));
    }
    table.print();

    let sd = bytes(Policy::cp_sd());
    println!(
        "\nCP_SD (Set Dueling) line: {:.3} of BH bytes",
        sd / bh_bytes
    );
    println!("Paper: CP_SD reduces NVM bytes written by 83.4% vs BH.");
    save_json(
        "fig7",
        &serde_json::json!({
            "experiment": "fig7", "rows": json_rows, "cp_sd": sd / bh_bytes,
            "mixes": opts.mixes,
        }),
    );
}
