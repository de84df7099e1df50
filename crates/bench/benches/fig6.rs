//! Figure 6 — LLC hit rate (normalized to BH) vs. the compression
//! threshold CP_th, for CA, CA_RWR, and the CP_SD Set Dueling line.
//!
//! The paper: CA varies between 0.89 and 0.99 with the best value at
//! CP_th = 58; CA_RWR improves the small-CP_th end; CP_SD matches the best
//! static configuration.

use hllc_bench::exp::{total, ExpOpts};
use hllc_bench::report::{banner, save_json, Table};
use hllc_core::{Policy, CP_TH_CANDIDATES};

fn main() {
    let opts = ExpOpts::from_env_or_exit();
    banner(
        "fig6",
        "Normalized LLC hit rate vs CP_th (full NVM capacity)",
        "Paper Fig. 6: CA 0.89..0.99 peaking at CP_th=58; CA_RWR better at \
         low CP_th; CP_SD line matches the best CA_RWR.",
    );
    let hits = |policy| {
        let metrics = opts.measure(&opts.spec_for(policy), 1.0);
        total(&metrics, |m| m.llc.hits as f64)
    };
    let bh_hits = hits(Policy::Bh);

    let mut table = Table::new(["CP_th", "CA", "CA_RWR"]);
    let mut json_rows = Vec::new();
    for cp_th in CP_TH_CANDIDATES {
        let ca = hits(Policy::Ca { cp_th });
        let rwr = hits(Policy::CaRwr { cp_th });
        table.row([
            format!("{cp_th}"),
            format!("{:.3}", ca / bh_hits),
            format!("{:.3}", rwr / bh_hits),
        ]);
        json_rows.push(serde_json::json!({
            "cp_th": cp_th, "ca": ca / bh_hits, "ca_rwr": rwr / bh_hits,
        }));
    }
    table.print();

    let sd = hits(Policy::cp_sd());
    println!("\nCP_SD (Set Dueling) line: {:.3} of BH hits", sd / bh_hits);
    println!("Paper: CP_SD achieves a hit rate equivalent to the best-case CA_RWR.");
    save_json(
        "fig6",
        &serde_json::json!({
            "experiment": "fig6", "rows": json_rows, "cp_sd": sd / bh_hits,
            "mixes": opts.mixes,
        }),
    );
}
