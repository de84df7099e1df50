//! Extension — seed-variability study: the noise floor under every other
//! experiment. Runs the key policies across several RNG seeds (endurance
//! sampling, workload interleaving, data synthesis) and reports the 95 %
//! confidence intervals of the headline metrics.

use hllc_bench::exp::ExpOpts;
use hllc_bench::report::{banner, save_json, Table};
use hllc_bench::stats::summarize;
use hllc_core::Policy;

fn main() {
    let opts = ExpOpts::from_env_or_exit();
    banner(
        "variability",
        "Seed-to-seed variability of hit rate / NVM bytes / IPC",
        "Noise-floor check: paper deltas below ~2x this CI are not resolvable \
         at the scaled configuration.",
    );
    let seeds = [11u64, 22, 33, 44, 55];
    // One run of the first mix per seed.
    let one = ExpOpts { mixes: 1, ..opts };
    let mix = &one.mix_list()[0];

    let mut table = Table::new(["policy", "hit rate", "NVM MB written", "IPC", "hit-rate CV"]);
    let mut json_rows = Vec::new();
    for policy in [Policy::Bh, Policy::cp_sd(), Policy::LHybrid] {
        let mut hit = Vec::new();
        let mut bytes = Vec::new();
        let mut ipc = Vec::new();
        for &seed in &seeds {
            let mut spec = one.spec_for(policy);
            spec.workload.seed = seed;
            let m = &one.measure(&spec, 1.0)[0];
            hit.push(m.hit_rate);
            bytes.push(m.llc.nvm_bytes_written as f64 / 1e6);
            ipc.push(m.ipc);
        }
        let (h, b, i) = (summarize(&hit), summarize(&bytes), summarize(&ipc));
        table.row([
            policy.name(),
            h.display(4),
            b.display(3),
            i.display(4),
            format!("{:.4}", h.cv()),
        ]);
        json_rows.push(serde_json::json!({
            "policy": policy.name(),
            "hit_rate_mean": h.mean, "hit_rate_ci95": h.ci95(),
            "nvm_mb_mean": b.mean, "nvm_mb_ci95": b.ci95(),
            "ipc_mean": i.mean, "ipc_ci95": i.ci95(),
        }));
    }
    table.print();
    println!(
        "\n{} seeds on {}; all other harnesses report single-seed runs.",
        seeds.len(),
        mix.name
    );
    save_json(
        "variability",
        &serde_json::json!({ "experiment": "variability", "rows": json_rows }),
    );
}
