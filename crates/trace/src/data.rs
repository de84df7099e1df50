//! The workload-backed data model: per-block compressed sizes from each
//! block's sticky compressibility class.

use hllc_compress::CompressorKind;
use hllc_sim::{BlockSizes, DataModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::app::APP_SLOT_SHIFT;
use crate::profile::{splitmix, Profile, SynthClass};

/// Block-address bit where the app slot lives (byte bit 40 → block bit 34).
const SLOT_SHIFT_BLOCKS: u32 = APP_SLOT_SHIFT - 6;

/// Data model for a multi-programmed mix: each app slot has its own
/// compressibility profile, which assigns every block a sticky
/// [`SynthClass`].
///
/// Under BDI (the default) a block's size is its class's
/// [`nominal_size`](SynthClass::nominal_size): every payload synthesized for
/// a class compresses to exactly that size (DESIGN.md substitution #6), so
/// no payload is built and nothing is stored. Under FPC, whose sizes depend
/// on the payload values, a payload of the block's class is synthesized
/// from the model's seeded RNG, compressed, and the size memoized.
///
/// # Example
///
/// ```
/// use hllc_sim::DataModel;
/// use hllc_trace::{Profile, WorkloadData};
///
/// use hllc_compress::CompressorKind;
///
/// let mut d = WorkloadData::new(vec![Profile::incompressible()], CompressorKind::Bdi, 1);
/// assert_eq!(d.compressed_size(0x123), 64);
/// ```
#[derive(Clone, Debug)]
pub struct WorkloadData {
    profiles: Vec<Profile>,
    compressor: CompressorKind,
    /// Memoized per-block FPC sizes (empty, and unallocated, under BDI).
    sizes: BlockSizes,
    rng: StdRng,
}

impl WorkloadData {
    /// Creates the model for apps in slots `0..profiles.len()`, sizing
    /// blocks with `compressor`.
    ///
    /// # Panics
    ///
    /// Panics if `profiles` is empty.
    pub fn new(profiles: Vec<Profile>, compressor: CompressorKind, seed: u64) -> Self {
        assert!(!profiles.is_empty(), "at least one profile required");
        WorkloadData {
            profiles,
            compressor,
            sizes: BlockSizes::new(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The compression mechanism in use.
    pub fn compressor(&self) -> CompressorKind {
        self.compressor
    }

    /// The compressibility profile of `block`'s app slot.
    fn profile_of(&self, block: u64) -> &Profile {
        let slot = (block >> SLOT_SHIFT_BLOCKS) as usize;
        &self.profiles[slot.min(self.profiles.len() - 1)]
    }

    /// The sticky compressibility class of `block`.
    fn class_of(&self, block: u64) -> SynthClass {
        self.profile_of(block).sample_class(splitmix(block))
    }
}

impl DataModel for WorkloadData {
    fn compressed_size(&mut self, block: u64) -> u8 {
        if self.compressor == CompressorKind::Bdi {
            return self.profile_of(block).sample_size(splitmix(block));
        }
        if let Some(s) = self.sizes.get(block) {
            return s;
        }
        let payload = Profile::synthesize(self.class_of(block), &mut self.rng);
        let size = self.compressor.compressed_size(&payload);
        self.sizes.insert(block, size);
        size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn sizes_are_stable_under_bdi_and_memoized_under_fpc() {
        let p = Profile::from_fractions(0.5, 0.3, 0.2, 0.2);
        let mut bdi = WorkloadData::new(vec![p.clone()], CompressorKind::Bdi, 3);
        let s = bdi.compressed_size(77);
        assert_eq!(bdi.compressed_size(77), s);
        assert_eq!(s, bdi.class_of(77).nominal_size());
        assert_eq!(bdi.sizes.len(), 0, "BDI sizes are derived, not stored");

        let mut fpc = WorkloadData::new(vec![p], CompressorKind::Fpc, 3);
        let s = fpc.compressed_size(77);
        assert_eq!(fpc.compressed_size(77), s);
        assert_eq!(fpc.sizes.len(), 1);
    }

    /// The sizing recipe class-derived BDI sizes replace: synthesize a
    /// payload of the block's class from the seeded RNG on first touch,
    /// compress it with BDI and memoize the result.
    struct SynthesizedBdi {
        profiles: Vec<Profile>,
        sizes: BTreeMap<u64, u8>,
        rng: StdRng,
    }

    impl SynthesizedBdi {
        fn compressed_size(&mut self, block: u64) -> u8 {
            if let Some(&s) = self.sizes.get(&block) {
                return s;
            }
            let slot = (block >> SLOT_SHIFT_BLOCKS) as usize;
            let profile = &self.profiles[slot.min(self.profiles.len() - 1)];
            let class = profile.sample_class(splitmix(block));
            let payload = Profile::synthesize(class, &mut self.rng);
            let size = CompressorKind::Bdi.compressed_size(&payload);
            self.sizes.insert(block, size);
            size
        }
    }

    #[test]
    fn class_derived_sizes_match_synthesized_payloads_on_every_mix() {
        // 10 mixes × 12 000 sizings = 120 000 over 3 000 blocks per slot,
        // so about a third of them repeat a block sized earlier.
        for (m, mix) in crate::mixes().iter().enumerate() {
            let seed = 1000 + m as u64;
            let mut derived = mix.data_model_with(CompressorKind::Bdi, seed);
            let mut oracle = SynthesizedBdi {
                profiles: mix.apps.iter().map(|a| a.profile.clone()).collect(),
                sizes: BTreeMap::new(),
                rng: StdRng::seed_from_u64(seed),
            };
            let mut x = seed;
            for i in 0..12_000u64 {
                x = splitmix(x);
                let slot = i % mix.apps.len() as u64;
                let block = (slot << SLOT_SHIFT_BLOCKS) | (x % 3_000);
                assert_eq!(
                    derived.compressed_size(block),
                    oracle.compressed_size(block),
                    "{} block {block:#x}",
                    mix.name
                );
            }
            assert!(oracle.sizes.len() < 9_000, "too few repeats");
        }
    }

    #[test]
    fn per_slot_profiles() {
        let mut d = WorkloadData::new(
            vec![
                Profile::incompressible(),
                Profile::from_fractions(1.0, 0.0, 0.0, 1.0),
            ],
            CompressorKind::Bdi,
            3,
        );
        // Slot 0: always 64. Slot 1 (all-zero bias 1.0): always 1.
        assert_eq!(d.compressed_size(5), 64);
        let slot1_block = (1u64 << SLOT_SHIFT_BLOCKS) | 5;
        assert_eq!(d.compressed_size(slot1_block), 1);
    }

    #[test]
    fn class_population_matches_profile() {
        let p = Profile::from_fractions(0.49, 0.29, 0.22, 0.2);
        let mut d = WorkloadData::new(vec![p], CompressorKind::Bdi, 9);
        let n = 20_000u64;
        let mut hcr = 0u32;
        let mut lcr = 0u32;
        let mut inc = 0u32;
        for b in 0..n {
            match d.compressed_size(b) {
                s if s <= 37 => hcr += 1,
                64 => inc += 1,
                _ => lcr += 1,
            }
        }
        assert!((hcr as f64 / n as f64 - 0.49).abs() < 0.05, "hcr {hcr}");
        assert!((lcr as f64 / n as f64 - 0.29).abs() < 0.05, "lcr {lcr}");
        assert!((inc as f64 / n as f64 - 0.22).abs() < 0.05, "inc {inc}");
    }

    #[test]
    fn fpc_compressor_swaps_in() {
        let p = Profile::from_fractions(1.0, 0.0, 0.0, 1.0); // all-zero blocks
        let mut bdi = WorkloadData::new(vec![p.clone()], CompressorKind::Bdi, 3);
        let mut fpc = WorkloadData::new(vec![p], CompressorKind::Fpc, 3);
        assert_eq!(bdi.compressed_size(9), 1); // BDI zero encoding
        assert_eq!(fpc.compressed_size(9), 6); // FPC: 16 prefixes
    }
}
