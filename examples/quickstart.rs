//! Quickstart: run the paper's CP_SD policy on a multi-programmed mix and
//! print the cache-level statistics.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use hybrid_llc::config::ExperimentSpec;
use hybrid_llc::forecast::{simulate, PhaseSetup};
use hybrid_llc::trace::mixes;
use hybrid_llc::LlcPort;

fn main() {
    // The `scaled` preset: a 1/8-scale version of the paper's Table IV
    // system (512-set LLC, 4 SRAM + 12 NVM ways), running mix 1 of Table V
    // under CP_SD, warmed up for 400 K cycles and then measured for 2 M.
    let spec = ExperimentSpec::preset("scaled").expect("builtin preset");
    let setup = PhaseSetup::from_spec(&spec, 400_000.0, 2_000_000.0);
    let (system, llc_cfg) = (&setup.system, &setup.llc);
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

    let (mut streams, data) = setup.inputs(mix, 42);
    let phase = simulate(&setup, &mut streams, data, None);
    let (hierarchy, accesses) = (&phase.hierarchy, phase.accesses);

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
