//! Per-application data-compressibility profiles.

use hllc_compress::Block;
use rand::Rng;

/// The synthetic block classes a profile distributes its data over.
///
/// `Delta(d)` blocks are eight 64-bit lanes whose offsets from a common
/// base need exactly `d` bytes — they compress to the `B8Δd` encoding
/// (size `8 + 7·d` bytes).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SynthClass {
    /// All-zero blocks (1 B compressed).
    Zeros,
    /// A repeated 8-byte value (8 B compressed).
    Repeated,
    /// Base + deltas of exactly `d` bytes, `1 <= d <= 7`.
    Delta(u8),
    /// High-entropy blocks no encoding captures (64 B).
    Incompressible,
}

impl SynthClass {
    /// All classes, in weight-vector order.
    pub const ALL: [SynthClass; 10] = [
        SynthClass::Zeros,
        SynthClass::Repeated,
        SynthClass::Delta(1),
        SynthClass::Delta(2),
        SynthClass::Delta(3),
        SynthClass::Delta(4),
        SynthClass::Delta(5),
        SynthClass::Delta(6),
        SynthClass::Delta(7),
        SynthClass::Incompressible,
    ];

    /// The compressed size the BDI compressor reports for every payload
    /// [`Profile::synthesize`] builds for this class: the class's Table I
    /// encoding size. This is the data model's BDI size contract
    /// (DESIGN.md substitution #6); the only exceptions are draws of
    /// probability below 2^-48, such as a `Repeated` value of 0.
    pub const fn nominal_size(self) -> u8 {
        match self {
            SynthClass::Zeros => 1,
            SynthClass::Repeated => 8,
            SynthClass::Delta(d) => 8 + 7 * d,
            SynthClass::Incompressible => 64,
        }
    }
}

/// `SynthClass::ALL[i].nominal_size()` at index `i`: a table lookup has no
/// branch on the class, which a random class would mispredict.
const NOMINAL_SIZES: [u8; 10] = {
    let mut sizes = [0; 10];
    let mut i = 0;
    while i < sizes.len() {
        sizes[i] = SynthClass::ALL[i].nominal_size();
        i += 1;
    }
    sizes
};

/// A distribution over [`SynthClass`]es.
///
/// # Example
///
/// ```
/// use hllc_trace::Profile;
///
/// let p = Profile::incompressible();
/// assert_eq!(p.sample_class(123).nominal_size(), 64);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Profile {
    /// Cumulative weights over `SynthClass::ALL`.
    cumulative: [f64; 10],
}

impl Profile {
    /// Creates a profile from raw (non-negative, not all zero) weights over
    /// `[Zeros, Repeated, Δ1..Δ7, Incompressible]`.
    ///
    /// # Panics
    ///
    /// Panics if all weights are zero or any is negative.
    pub fn new(weights: [f64; 10]) -> Self {
        assert!(
            weights.iter().all(|&w| w >= 0.0),
            "weights must be non-negative"
        );
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "at least one weight must be positive");
        let mut cumulative = [0.0; 10];
        let mut acc = 0.0;
        for (c, w) in cumulative.iter_mut().zip(weights) {
            acc += w / total;
            *c = acc;
        }
        cumulative[9] = 1.0;
        Profile { cumulative }
    }

    /// A profile of purely incompressible blocks (xz17, milc).
    pub fn incompressible() -> Self {
        let mut w = [0.0; 10];
        w[9] = 1.0;
        Profile::new(w)
    }

    /// Convenience constructor from aggregate class fractions. The HCR mass
    /// is spread over zeros/repeated/Δ1–Δ4, the LCR mass over Δ5–Δ7, with a
    /// `zero_bias` (0–1) controlling how much of the HCR mass is all-zero
    /// blocks.
    pub fn from_fractions(hcr: f64, lcr: f64, incompressible: f64, zero_bias: f64) -> Self {
        assert!(
            (hcr + lcr + incompressible - 1.0).abs() < 1e-6,
            "fractions must sum to 1"
        );
        let z = hcr * zero_bias;
        let rest = hcr - z;
        Profile::new([
            z,
            rest * 0.15, // repeated
            rest * 0.30, // Δ1
            rest * 0.25, // Δ2
            rest * 0.20, // Δ3
            rest * 0.10, // Δ4
            lcr * 0.40,  // Δ5
            lcr * 0.35,  // Δ6
            lcr * 0.25,  // Δ7
            incompressible,
        ])
    }

    /// Deterministically picks the class of a block from its address hash —
    /// a block's compressibility class is *sticky* across rewrites
    /// (DESIGN.md substitution #6).
    pub fn sample_class(&self, block_seed: u64) -> SynthClass {
        SynthClass::ALL[self.class_index(block_seed)]
    }

    /// `sample_class(block_seed).nominal_size()`, without branching on the
    /// class.
    pub(crate) fn sample_size(&self, block_seed: u64) -> u8 {
        NOMINAL_SIZES[self.class_index(block_seed)]
    }

    /// The index in [`SynthClass::ALL`] of the class `sample_class` picks.
    fn class_index(&self, block_seed: u64) -> usize {
        let h = splitmix(block_seed);
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        // The class is the first entry of `cumulative` above `u`. The
        // entries are non-decreasing and the last is 1.0 > u, so that index
        // (at most 9) is the number of entries at or below `u`: counting
        // them avoids a data-dependent branch per block.
        self.cumulative.iter().filter(|&&c| c <= u).count()
    }

    /// Synthesizes a 64-byte payload of the given class.
    pub fn synthesize<R: Rng + ?Sized>(class: SynthClass, rng: &mut R) -> Block {
        match class {
            SynthClass::Zeros => Block::zeroed(),
            SynthClass::Repeated => Block::from_u64_lanes([rng.gen::<u64>(); 8]),
            SynthClass::Delta(d) => {
                // Deltas that need exactly d bytes: magnitude in
                // [2^(8d-9), 2^(8d-1)).
                let lo: i64 = 1i64 << (8 * i64::from(d) - 9).max(0);
                let hi: i64 = 1i64 << (8 * i64::from(d) - 1);
                let base = rng.gen::<i64>() >> 8; // headroom against overflow
                let mut lanes = [base as u64; 8];
                // One lane pinned to the extreme magnitude so smaller delta
                // widths cannot capture the block.
                let pinned = rng.gen_range(1..8);
                for (i, lane) in lanes.iter_mut().enumerate().skip(1) {
                    let magnitude = if i == pinned {
                        hi - 1
                    } else {
                        rng.gen_range(lo..hi)
                    };
                    let signed = if rng.gen() { magnitude } else { -magnitude };
                    *lane = base.wrapping_add(signed) as u64;
                }
                Block::from_u64_lanes(lanes)
            }
            SynthClass::Incompressible => {
                let mut bytes = [0u8; 64];
                rng.fill(&mut bytes[..]);
                Block::new(bytes)
            }
        }
    }
}

/// SplitMix64: a fast, well-distributed hash for sticky class assignment.
pub(crate) fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hllc_compress::Compressor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn synthesized_classes_compress_to_nominal_size() {
        // 10^5 draws per class, over four RNG seeds.
        let c = Compressor::new();
        for seed in [7, 11, 1 << 40, u64::MAX] {
            let mut rng = StdRng::seed_from_u64(seed);
            for class in SynthClass::ALL {
                for _ in 0..25_000 {
                    let block = Profile::synthesize(class, &mut rng);
                    assert_eq!(
                        c.compressed_size(&block),
                        class.nominal_size(),
                        "{class:?} (seed {seed}): {block:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn class_index_is_the_first_cumulative_entry_above_u() {
        // The scan `class_index`'s count replaces, kept as the reference.
        fn first_above(p: &Profile, block_seed: u64) -> SynthClass {
            let u = (splitmix(block_seed) >> 11) as f64 / (1u64 << 53) as f64;
            for (i, &c) in p.cumulative.iter().enumerate() {
                if u < c {
                    return SynthClass::ALL[i];
                }
            }
            SynthClass::Incompressible
        }
        let mut profiles: Vec<Profile> =
            crate::spec_apps().into_iter().map(|a| a.profile).collect();
        profiles.push(Profile::incompressible());
        profiles.push(Profile::new([
            0.0, 1.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 1e-300, 0.0,
        ]));
        for p in &profiles {
            for b in 0..20_000u64 {
                let seed = splitmix(b);
                assert_eq!(p.sample_class(seed), first_above(p, seed));
                assert_eq!(p.sample_size(seed), first_above(p, seed).nominal_size());
            }
        }
    }

    #[test]
    fn sticky_class_assignment() {
        let p = Profile::from_fractions(0.5, 0.3, 0.2, 0.2);
        for b in 0..100 {
            assert_eq!(p.sample_class(b), p.sample_class(b));
        }
    }

    #[test]
    fn fractions_are_respected() {
        let p = Profile::from_fractions(0.49, 0.29, 0.22, 0.2);
        let n = 100_000;
        let mut hcr = 0;
        let mut lcr = 0;
        let mut inc = 0;
        for b in 0..n {
            match p.sample_class(b).nominal_size() {
                s if s <= 37 => hcr += 1,
                64 => inc += 1,
                _ => lcr += 1,
            }
        }
        assert!((hcr as f64 / n as f64 - 0.49).abs() < 0.01);
        assert!((lcr as f64 / n as f64 - 0.29).abs() < 0.01);
        assert!((inc as f64 / n as f64 - 0.22).abs() < 0.01);
    }

    #[test]
    fn incompressible_profile() {
        let p = Profile::incompressible();
        assert!((0..1000).all(|b| p.sample_class(b) == SynthClass::Incompressible));
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn rejects_bad_fractions() {
        Profile::from_fractions(0.5, 0.5, 0.5, 0.2);
    }
}
