//! Table IV — System specification in force for the experiments.

use hllc_bench::exp::ExpOpts;
use hllc_bench::report::{banner, save_json, Table};
use hllc_sim::{L2_HIT, LLC_SRAM_HIT, MEMORY, NVM_DECOMPRESS};

fn main() {
    let opts = ExpOpts::from_env_or_exit();
    let spec = &opts.spec;
    let cfg = spec.system_config();
    let llc = &spec.system;
    let llc_kb = llc.llc_sets * (llc.sram_ways + llc.nvm_ways) * 64 / 1024;
    banner(
        "table4",
        "System specification",
        "Paper Table IV (scaled-down proportions unless HLLC_FULL=1).",
    );
    let t = &cfg.timing;
    let mut table = Table::new(["parameter", "value"]);
    table.row([
        "cores",
        &format!("{} out-of-order @ {} GHz", cfg.cores, t.freq_ghz),
    ]);
    table.row([
        "L1D",
        &format!(
            "{} KB, {}-way, 64 B blocks",
            cfg.l1_sets * cfg.l1_ways * 64 / 1024,
            cfg.l1_ways
        ),
    ]);
    table.row([
        "L2 (private)",
        &format!(
            "{} KB, {}-way, load-use {} cyc",
            cfg.l2_sets * cfg.l2_ways * 64 / 1024,
            cfg.l2_ways,
            L2_HIT
        ),
    ]);
    table.row([
        "LLC (shared)",
        &format!(
            "{llc_kb} KB, {} sets x ({} SRAM + {} NVM) ways",
            llc.llc_sets, llc.sram_ways, llc.nvm_ways
        ),
    ]);
    table.row(["LLC SRAM load-use", &format!("{LLC_SRAM_HIT} cycles")]);
    table.row([
        "LLC NVM load-use",
        &format!(
            "{} cycles (+{NVM_DECOMPRESS} for decompression/rearrangement)",
            t.llc_nvm_hit(),
        ),
    ]);
    table.row(["memory load-use", &format!("{MEMORY} cycles")]);
    table.row([
        "endurance",
        &format!(
            "mean {:e} writes, cv {}",
            spec.hybrid.endurance_mean, spec.hybrid.endurance_cv
        ),
    ]);
    table.print();
    save_json(
        "table4",
        &serde_json::json!({
            "experiment": "table4",
            "cores": cfg.cores,
            "llc_sets": llc.llc_sets,
            "sram_ways": llc.sram_ways,
            "nvm_ways": llc.nvm_ways,
            "llc_kb": llc_kb,
        }),
    );
}
