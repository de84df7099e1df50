//! Quickstart: run the paper's CP_SD policy on a multi-programmed mix and
//! print the cache-level statistics.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use hybrid_llc::config::ExperimentSpec;
use hybrid_llc::llc::HybridLlc;
use hybrid_llc::sim::Hierarchy;
use hybrid_llc::trace::{drive_cycles, mixes};
use hybrid_llc::LlcPort;

fn main() {
    // The `scaled` preset: a 1/8-scale version of the paper's Table IV
    // system (512-set LLC, 4 SRAM + 12 NVM ways), running mix 1 of Table V
    // under CP_SD.
    let spec = ExperimentSpec::preset("scaled").expect("builtin preset");
    let system = spec.system_config();
    let llc_cfg = spec.llc_config();
    let mix = &mixes()[spec.mix_index()];
    println!(
        "system: {} cores, LLC {} KB ({} SRAM + {} NVM ways)",
        system.cores,
        llc_cfg.sets * (llc_cfg.sram_ways + llc_cfg.nvm_ways) * 64 / 1024,
        llc_cfg.sram_ways,
        llc_cfg.nvm_ways
    );
    println!(
        "workload: {} = {}",
        mix.name,
        mix.apps
            .iter()
            .map(|a| a.name)
            .collect::<Vec<_>>()
            .join(" + ")
    );

    let llc = HybridLlc::new(&llc_cfg);
    let mut hierarchy = Hierarchy::new(&system, llc, mix.data_model(42));
    let mut streams = mix.instantiate(spec.footprint_scale(), 42);

    // Warm up, then measure 2 M cycles.
    drive_cycles(&mut hierarchy, &mut streams, 400_000.0);
    hierarchy.reset_stats();
    let accesses = drive_cycles(&mut hierarchy, &mut streams, 2_400_000.0);

    let s = *hierarchy.llc().stats();
    println!("\nafter {accesses} memory references:");
    println!("  system IPC          {:.3}", hierarchy.system_ipc());
    println!(
        "  LLC requests        {} (hit rate {:.1}%)",
        s.requests(),
        100.0 * s.hit_rate()
    );
    println!("  hits SRAM / NVM     {} / {}", s.sram_hits, s.nvm_hits);
    println!(
        "  inserts SRAM / NVM  {} / {}",
        s.sram_inserts, s.nvm_inserts
    );
    println!("  SRAM->NVM migrations {}", s.migrations);
    println!("  NVM bytes written   {}", s.nvm_bytes_written);
    if let Some(d) = hierarchy.llc().dueling() {
        println!("  Set Dueling CP_th   {}", d.current_cp_th());
    }
    println!(
        "  NVM capacity        {:.1}%",
        100.0 * hierarchy.llc().capacity_fraction()
    );
}
