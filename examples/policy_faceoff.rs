//! Policy face-off: run every insertion policy of Table III on the same
//! workload and compare hit rate, write traffic, and IPC — the conflict the
//! whole paper is about, in one table.
//!
//! ```sh
//! cargo run --release --example policy_faceoff [mix-index 0..9]
//! ```

use hybrid_llc::config::ExperimentSpec;
use hybrid_llc::forecast::{run_phase, PhaseSetup};
use hybrid_llc::llc::Policy;
use hybrid_llc::trace::mixes;

fn run(policy_name: &str, policy: Option<Policy>, mix_idx: usize) -> (String, f64, f64, u64) {
    let mut spec = ExperimentSpec::preset("scaled").expect("builtin preset");
    let llc = match policy {
        Some(p) => spec.llc_config_for(p),
        None => {
            // SRAM-only upper bound: every way SRAM, under BH.
            spec.system.sram_ways += spec.system.nvm_ways;
            spec.system.nvm_ways = 0;
            spec.llc_config_for(Policy::Bh)
        }
    };
    let setup = PhaseSetup {
        llc,
        ..PhaseSetup::from_spec(&spec, 400_000.0, 2_000_000.0)
    };
    let (m, _) = run_phase(&setup, &mixes()[mix_idx], None, 42);
    (
        policy_name.to_string(),
        m.ipc,
        m.hit_rate,
        m.llc.nvm_bytes_written,
    )
}

fn main() {
    let mix_idx: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(0);
    assert!(mix_idx < 10, "mix index must be 0..9");
    println!("workload: {}\n", mixes()[mix_idx].name);

    let rows = vec![
        run("SRAM 16-way (bound)", None, mix_idx),
        run("BH", Some(Policy::Bh), mix_idx),
        run("BH_CP", Some(Policy::BhCp), mix_idx),
        run("CA(58)", Some(Policy::Ca { cp_th: 58 }), mix_idx),
        run("CA_RWR(58)", Some(Policy::CaRwr { cp_th: 58 }), mix_idx),
        run("CP_SD", Some(Policy::cp_sd()), mix_idx),
        run("CP_SD_Th8", Some(Policy::cp_sd_th(8.0)), mix_idx),
        run("LHybrid", Some(Policy::LHybrid), mix_idx),
        run("TAP", Some(Policy::tap()), mix_idx),
    ];

    let base_ipc = rows[0].1;
    println!(
        "{:<22} {:>8} {:>9} {:>10} {:>14}",
        "policy", "IPC", "norm IPC", "LLC hit%", "NVM bytes"
    );
    for (name, ipc, hit, bytes) in rows {
        println!(
            "{name:<22} {ipc:>8.3} {:>9.3} {:>9.1}% {bytes:>14}",
            ipc / base_ipc,
            hit * 100.0
        );
    }
    println!("\nLower NVM bytes means longer NVM lifetime; the paper's CP_SD");
    println!("family keeps near-BH IPC at a fraction of BH's write traffic.");
}
