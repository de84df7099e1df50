//! Application specifications and reference streams.

use hllc_sim::{Access, Op};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::pattern::{Pattern, PatternState};
use crate::profile::Profile;

/// Byte-address bit where the application slot is encoded. Each app of a
/// mix owns a disjoint 1 TiB address range, so multi-programmed workloads
/// never alias (the paper's workloads share nothing).
pub const APP_SLOT_SHIFT: u32 = 40;

/// A synthetic application model: the static description of a SPEC-like
/// program's memory behaviour.
#[derive(Clone, Debug, PartialEq)]
pub struct AppSpec {
    /// SPEC-style name, e.g. `"zeusmp06"`.
    pub name: &'static str,
    /// Data footprint in 64-byte blocks, sized against the paper's 4 MB
    /// LLC. Scaled by `instantiate`'s `scale` argument.
    pub footprint_blocks: u64,
    /// Access pattern archetype.
    pub pattern: Pattern,
    /// Fraction of references to *writable* blocks that are stores.
    pub write_fraction: f64,
    /// Fraction of the footprint that is ever written. Real programs write
    /// some arrays and only read others — this dichotomy is what loop-block
    /// and read/write-reuse detection exploits. References to read-only
    /// blocks are always loads.
    pub writable_fraction: f64,
    /// Fraction of the footprint, starting at block 0, that is *never*
    /// written regardless of `writable_fraction`. Hot regions live at the
    /// start of the footprint, so setting this to the hot fraction models
    /// read-only coefficient arrays / lookup tables — the archetypal
    /// loop-blocks.
    pub read_only_prefix: f64,
    /// Mean non-memory instructions between references (memory intensity).
    pub mean_inst_gap: f64,
    /// Block-content compressibility profile (Figure 2).
    pub profile: Profile,
}

impl AppSpec {
    /// Creates the reference generator for this app in address slot `slot`,
    /// with footprints multiplied by `scale` (use `sets/4096` when running
    /// a scaled-down LLC). [`Mix::instantiate`](crate::Mix::instantiate)
    /// wraps one per core in a batched [`AppStream`](crate::AppStream).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive.
    pub fn instantiate(&self, slot: usize, scale: f64, seed: u64) -> AppGen {
        assert!(scale > 0.0, "scale must be positive");
        let footprint = ((self.footprint_blocks as f64 * scale) as u64).max(64);
        AppGen {
            base: (slot as u64) << APP_SLOT_SHIFT,
            footprint,
            pattern: self.pattern.clone(),
            state: self.pattern.start(),
            write_fraction: self.write_fraction,
            writable_fraction: self.writable_fraction,
            read_only_blocks: (self.read_only_prefix * footprint as f64) as u64,
            mean_inst_gap: self.mean_inst_gap,
            rng: StdRng::seed_from_u64(seed ^ (slot as u64).wrapping_mul(0x9E37_79B9)),
        }
    }
}

/// An infinite sequence of memory references for one application
/// instance, generated one reference at a time. Its sequence depends only
/// on its own pattern state and RNG, never on the simulated hierarchy.
#[derive(Clone, Debug)]
pub struct AppGen {
    base: u64,
    footprint: u64,
    pattern: Pattern,
    state: PatternState,
    write_fraction: f64,
    writable_fraction: f64,
    read_only_blocks: u64,
    mean_inst_gap: f64,
    rng: StdRng,
}

impl AppGen {
    /// The instantiated footprint in blocks.
    pub fn footprint(&self) -> u64 {
        self.footprint
    }

    /// Produces the next reference, stamped with `core`.
    pub fn next_access(&mut self, core: u8) -> Access {
        let index = self
            .pattern
            .next_index(&mut self.state, self.footprint, &mut self.rng);
        let addr = self.base | (index << 6);
        // A block is writable iff it lies past the read-only prefix and its
        // sticky hash falls below the writable fraction.
        let writable = index >= self.read_only_blocks
            && ((crate::profile::splitmix(addr) >> 11) as f64 / (1u64 << 53) as f64)
                < self.writable_fraction;
        let op = if writable && self.rng.gen::<f64>() < self.write_fraction {
            Op::Store
        } else {
            Op::Load
        };
        // Exponentially distributed gap around the mean.
        let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        let gap = (-self.mean_inst_gap * u.ln()).min(10_000.0) as u32;
        Access {
            core,
            op,
            addr,
            inst_gap: gap,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> AppSpec {
        AppSpec {
            name: "test",
            footprint_blocks: 4096,
            pattern: Pattern::Random,
            write_fraction: 0.3,
            writable_fraction: 1.0,
            read_only_prefix: 0.0,
            mean_inst_gap: 10.0,
            profile: Profile::from_fractions(0.5, 0.3, 0.2, 0.2),
        }
    }

    #[test]
    fn addresses_stay_in_slot() {
        let mut s = spec().instantiate(3, 1.0, 1);
        for _ in 0..1000 {
            let a = s.next_access(3);
            assert_eq!(a.addr >> APP_SLOT_SHIFT, 3);
            assert!((a.addr & ((1 << APP_SLOT_SHIFT) - 1)) < 4096 * 64);
        }
    }

    #[test]
    fn write_fraction_approximated() {
        let mut s = spec().instantiate(0, 1.0, 2);
        let stores = (0..20_000)
            .filter(|_| s.next_access(0).op == Op::Store)
            .count();
        let frac = stores as f64 / 20_000.0;
        assert!((frac - 0.3).abs() < 0.02, "store fraction {frac}");
    }

    #[test]
    fn scaling_shrinks_footprint() {
        let s = spec().instantiate(0, 0.125, 3);
        assert_eq!(s.footprint(), 512);
        // Tiny scales are clamped to a sane minimum.
        assert_eq!(spec().instantiate(0, 1e-9, 3).footprint(), 64);
    }

    #[test]
    fn gap_mean_is_reasonable() {
        let mut s = spec().instantiate(0, 1.0, 4);
        let total: u64 = (0..20_000)
            .map(|_| u64::from(s.next_access(0).inst_gap))
            .sum();
        let mean = total as f64 / 20_000.0;
        assert!((mean - 10.0).abs() < 1.0, "gap mean {mean}");
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = spec().instantiate(0, 1.0, 9);
        let mut b = spec().instantiate(0, 1.0, 9);
        for _ in 0..100 {
            assert_eq!(a.next_access(0), b.next_access(0));
        }
    }
}
