//! Wear and tear: inject progressive byte failures into the NVM part and
//! watch how frame-disabling (BH) and byte-disabling + compression (CP_SD)
//! caches cope — the capacity-resilience story of §III-B.
//!
//! ```sh
//! cargo run --release --example wear_and_tear
//! ```

use hybrid_llc::config::ExperimentSpec;
use hybrid_llc::llc::{HybridLlc, Policy};
use hybrid_llc::nvm::FRAME_BYTES;
use hybrid_llc::sim::Hierarchy;
use hybrid_llc::trace::{drive_cycles, mixes};
use hybrid_llc::LlcPort;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Disables `n` random bytes per NVM frame; the array applies each
/// policy's granularity (a frame-disabling cache loses the whole frame at
/// its first fault).
fn injure(llc: &mut HybridLlc, bytes_per_frame: usize, rng: &mut StdRng) {
    let Some(array) = llc.array_mut() else { return };
    for set in 0..array.sets() {
        for way in 0..array.ways() {
            for _ in 0..bytes_per_frame {
                array.disable_byte(set, way, rng.gen_range(0..FRAME_BYTES));
            }
        }
    }
}

fn measure(policy: Policy, bytes_per_frame: usize) -> (f64, f64) {
    let spec = ExperimentSpec::preset("scaled").expect("builtin preset");
    let system = spec.system_config();
    let mix = &mixes()[0];
    let cfg = spec.llc_config_for(policy);
    let mut llc = HybridLlc::new(&cfg);
    let mut rng = StdRng::seed_from_u64(9);
    injure(&mut llc, bytes_per_frame, &mut rng);
    let capacity = llc.capacity_fraction();
    let mut h = Hierarchy::new(&system, llc, mix.data_model(42));
    let mut streams = mix.instantiate(spec.footprint_scale(), 42);
    drive_cycles(&mut h, &mut streams, 400_000.0);
    h.reset_stats();
    drive_cycles(&mut h, &mut streams, 2_000_000.0);
    (capacity, h.llc().stats().hit_rate())
}

fn main() {
    println!("injecting n random byte faults into every NVM frame:\n");
    println!(
        "{:>8} | {:>14} {:>10} | {:>14} {:>10}",
        "faults", "BH capacity", "hit rate", "CP_SD capacity", "hit rate"
    );
    for n in [0usize, 1, 2, 4, 8, 16] {
        let (bh_cap, bh_hit) = measure(Policy::Bh, n);
        let (sd_cap, sd_hit) = measure(Policy::cp_sd(), n);
        println!(
            "{n:>8} | {:>13.1}% {:>9.1}% | {:>13.1}% {:>9.1}%",
            bh_cap * 100.0,
            bh_hit * 100.0,
            sd_cap * 100.0,
            sd_hit * 100.0
        );
    }
    println!("\nOne faulty byte kills a whole frame under frame-disabling (BH),");
    println!("but costs only 1/66 of the frame under byte-disabling: compressed");
    println!("blocks keep flowing into the surviving bytes (CP_SD).");
}
