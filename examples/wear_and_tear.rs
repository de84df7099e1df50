//! Wear and tear: inject progressive byte failures into the NVM part and
//! watch how frame-disabling (BH) and byte-disabling + compression (CP_SD)
//! caches cope — the capacity-resilience story of §III-B.
//!
//! ```sh
//! cargo run --release --example wear_and_tear
//! ```

use hybrid_llc::config::ExperimentSpec;
use hybrid_llc::forecast::{run_phase, PhaseSetup};
use hybrid_llc::llc::Policy;
use hybrid_llc::nvm::{NvmArray, FRAME_BYTES};
use hybrid_llc::trace::mixes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Disables `n` random bytes per NVM frame; the array applies each
/// policy's granularity (a frame-disabling cache loses the whole frame at
/// its first fault).
fn injure(array: &mut NvmArray, bytes_per_frame: usize, rng: &mut StdRng) {
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
    let setup = PhaseSetup {
        llc: spec.llc_config_for(policy),
        ..PhaseSetup::from_spec(&spec, 400_000.0, 1_600_000.0)
    };
    let mut array = setup.llc.sample_array().expect("the preset has NVM ways");
    injure(&mut array, bytes_per_frame, &mut StdRng::seed_from_u64(9));
    let capacity = array.capacity_fraction();
    let (m, _) = run_phase(&setup, &mixes()[0], Some(array), 42);
    (capacity, m.hit_rate)
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
