//! Property-based tests for the NVM substrate.

use hllc_nvm::{
    rearrange, DisableGranularity, EnduranceModel, FaultMap, Frame, NvmArray, FRAME_BYTES,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn arb_fault_map(max_faults: usize) -> impl Strategy<Value = FaultMap> {
    prop::collection::btree_set(0usize..FRAME_BYTES, 0..=max_faults).prop_map(FaultMap::from_faulty)
}

proptest! {
    /// Scatter/gather round-trips for any fault map, offset, and ECB that fits.
    #[test]
    fn scatter_gather_round_trip(
        fm in arb_fault_map(30),
        offset in 0usize..200,
        len_frac in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        let capacity = fm.live_bytes();
        let len = ((capacity as f64) * len_frac) as usize;
        prop_assume!(len > 0);
        let mut x = seed | 1;
        let ecb: Vec<u8> = (0..len).map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 48) as u8
        }).collect();
        let (recb, mask) = rearrange::scatter(&ecb, &fm, offset);
        prop_assert_eq!(mask.count_ones() as usize, len);
        prop_assert_eq!(mask & fm.raw(), 0, "mask touched a faulty byte");
        prop_assert_eq!(rearrange::gather(&recb, &fm, offset, len), ecb);
    }

    /// The write mask is exactly the first `len` live bytes in circular
    /// order from the offset.
    #[test]
    fn mask_matches_index_vector(fm in arb_fault_map(20), offset in 0usize..FRAME_BYTES) {
        let len = fm.live_bytes().min(10);
        prop_assume!(len > 0);
        let iv = rearrange::index_vector(&fm, offset, len);
        let (_, mask) = rearrange::scatter(&vec![0u8; len], &fm, offset);
        for (i, slot) in iv.iter().enumerate() {
            prop_assert_eq!(slot.is_some(), mask >> i & 1 == 1);
        }
    }

    /// Wear never resurrects a byte and capacity is monotonically
    /// non-increasing.
    #[test]
    fn wear_is_monotone(writes in prop::collection::vec(0.0f64..50.0, 1..20)) {
        let limits = [100.0; FRAME_BYTES];
        let mut f = Frame::new();
        let mut prev_live = f.live_bytes();
        for w in writes {
            let _ = f.apply_uniform_wear(&limits, w * FRAME_BYTES as f64);
            let live = f.live_bytes();
            prop_assert!(live <= prev_live);
            prev_live = live;
        }
    }

    /// Exact per-write accounting agrees with the endurance limit: a byte
    /// dies on exactly its k-th write when endurance is k.
    #[test]
    fn exact_wear_death_time(k in 1u64..50) {
        let limits = [k as f64; FRAME_BYTES];
        let mut f = Frame::new();
        for i in 1..=k {
            let failed = f.record_write(&limits, 0b100);
            if i < k {
                prop_assert_eq!(failed, 0, "byte died early at write {}", i);
            } else {
                prop_assert_eq!(failed, 1, "byte failed to die at write {}", k);
                prop_assert!(f.fault_map().is_faulty(2));
            }
        }
    }
}

/// The original `degrade_to`, kept as the reference: it collects each
/// picked frame's live bytes into a list and indexes it with the draw.
fn degrade_by_collecting(a: &mut NvmArray, target: f64, rng: &mut StdRng) {
    let ways = a.ways();
    let n = a.sets() * ways;
    match a.granularity() {
        DisableGranularity::Byte => {
            let total = n * FRAME_BYTES;
            let mut live: usize = (0..n)
                .map(|i| {
                    let (s, w) = (i / ways, i % ways);
                    if a.is_disabled(s, w) {
                        0
                    } else {
                        a.frame(s, w).live_bytes()
                    }
                })
                .sum();
            let target_live = (target * total as f64).floor() as usize;
            while live > target_live {
                let i = rng.gen_range(0..n);
                let (s, w) = (i / ways, i % ways);
                if a.is_disabled(s, w) || a.frame(s, w).is_dead() {
                    continue;
                }
                let live_in_frame: Vec<usize> = a.frame(s, w).fault_map().live_indices().collect();
                let b = live_in_frame[rng.gen_range(0..live_in_frame.len())];
                a.disable_byte(s, w, b);
                live -= 1;
            }
        }
        DisableGranularity::Frame => {
            let mut live = (0..n)
                .filter(|&i| !a.is_disabled(i / ways, i % ways))
                .count();
            let target_live = (target * n as f64).floor() as usize;
            while live > target_live {
                let i = rng.gen_range(0..n);
                if !a.is_disabled(i / ways, i % ways) {
                    a.disable_frame(i / ways, i % ways);
                    live -= 1;
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// In-place `degrade_to` consumes the same draws and disables the same
    /// bytes and frames as the collect-and-index original, on arrays that
    /// are already aged (faulty bytes, dead and disabled frames).
    #[test]
    fn degrade_in_place_matches_collecting(
        sets in 1usize..9,
        ways in 1usize..7,
        byte_granularity in any::<bool>(),
        target in 0.0f64..=1.0,
        wear in prop::collection::vec(0.0f64..1.3, 48),
        seed in any::<u64>(),
    ) {
        let granularity = if byte_granularity {
            DisableGranularity::Byte
        } else {
            DisableGranularity::Frame
        };
        let model = EnduranceModel::new(100.0, 0.3);
        let mut fast = NvmArray::new(sets, ways, &model, granularity, seed);
        for (f, &w) in wear.iter().take(sets * ways).enumerate() {
            let _ = fast.apply_uniform_wear(f / ways, f % ways, w * 100.0 * FRAME_BYTES as f64);
        }
        let mut reference = fast.clone();
        let mut fast_rng = StdRng::seed_from_u64(seed ^ 1);
        let mut reference_rng = fast_rng.clone();
        fast.degrade_to(target, &mut fast_rng);
        degrade_by_collecting(&mut reference, target, &mut reference_rng);

        for set in 0..sets {
            for way in 0..ways {
                prop_assert_eq!(fast.frame(set, way).fault_map(), reference.frame(set, way).fault_map());
                prop_assert_eq!(fast.is_disabled(set, way), reference.is_disabled(set, way));
            }
            prop_assert_eq!(fast.capacity_lane(set), reference.capacity_lane(set));
        }
        prop_assert_eq!(fast.capacity_fraction().to_bits(), reference.capacity_fraction().to_bits());
        prop_assert_eq!(fast_rng.gen::<u64>(), reference_rng.gen::<u64>());
    }
}

/// The capacity lane recomputed from the fault maps: 0 for a frame in
/// `retired` (disabled by `disable_frame`, or by `degrade_to` under frame
/// disabling), for a dead frame, and under frame disabling for a frame with
/// any fault; its live-byte count otherwise.
fn expected_lane(a: &NvmArray, retired: &[bool]) -> Vec<u8> {
    let ways = a.ways();
    (0..a.sets() * ways)
        .map(|i| {
            let live = a.frame(i / ways, i % ways).live_bytes();
            let usable = !retired[i]
                && match a.granularity() {
                    DisableGranularity::Byte => live > 0,
                    DisableGranularity::Frame => live == FRAME_BYTES,
                };
            if usable {
                live as u8
            } else {
                0
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every mutator keeps the capacity lane exact: after each step every
    /// entry (through `capacity_lane`, `effective_capacity` and
    /// `is_disabled`) and `capacity_fraction` (bit for bit) equal values
    /// recomputed from the fault maps, under both granularities.
    #[test]
    fn every_mutator_keeps_the_capacity_lane_exact(
        sets in 1usize..5,
        ways in 1usize..5,
        byte_granularity in any::<bool>(),
        seed in any::<u64>(),
        ops in prop::collection::vec(
            (0u8..5, any::<usize>(), any::<u64>(), any::<u64>(), 0.0f64..1.0),
            0..40,
        ),
    ) {
        let granularity = if byte_granularity {
            DisableGranularity::Byte
        } else {
            DisableGranularity::Frame
        };
        let model = EnduranceModel::new(6.0, 0.3);
        let mut a = NvmArray::new(sets, ways, &model, granularity, seed);
        let n = sets * ways;
        let mut retired = vec![false; n];
        for (kind, pick, lo, hi, amount) in ops {
            let (set, way) = (pick % n / ways, pick % n % ways);
            match kind {
                0 => a.disable_byte(set, way, (lo % FRAME_BYTES as u64) as usize),
                1 => {
                    let _ = a.record_write(set, way, u128::from(lo) | u128::from(hi) << 64);
                }
                2 => {
                    let _ = a.apply_uniform_wear(set, way, amount * 8.0 * FRAME_BYTES as f64);
                }
                3 => {
                    a.disable_frame(set, way);
                    retired[pick % n] = true;
                }
                _ => {
                    let target = a.capacity_fraction() * (0.8 + 0.2 * amount);
                    let mut degrade_rng = StdRng::seed_from_u64(lo);
                    if granularity == DisableGranularity::Frame {
                        // Replay the frame draws against the recomputed lane.
                        let mut draws = degrade_rng.clone();
                        let lane = expected_lane(&a, &retired);
                        let mut live = lane.iter().filter(|&&c| c != 0).count();
                        let target_live = (target * n as f64).floor() as usize;
                        while live > target_live {
                            let i = draws.gen_range(0..n);
                            if lane[i] != 0 && !retired[i] {
                                retired[i] = true;
                                live -= 1;
                            }
                        }
                    }
                    a.degrade_to(target, &mut degrade_rng);
                }
            }
            let lane = expected_lane(&a, &retired);
            for s in 0..sets {
                prop_assert_eq!(a.capacity_lane(s), &lane[s * ways..(s + 1) * ways]);
                for w in 0..ways {
                    let cap = lane[s * ways + w];
                    prop_assert_eq!(a.effective_capacity(s, w), usize::from(cap));
                    prop_assert_eq!(a.is_disabled(s, w), cap == 0);
                }
            }
            let fraction = match granularity {
                DisableGranularity::Byte => {
                    let live: usize = lane.iter().map(|&c| usize::from(c)).sum();
                    live as f64 / (n * FRAME_BYTES) as f64
                }
                DisableGranularity::Frame => {
                    lane.iter().filter(|&&c| c != 0).count() as f64 / n as f64
                }
            };
            prop_assert_eq!(a.capacity_fraction().to_bits(), fraction.to_bits());
        }
    }
}

/// An eagerly allocated frame, kept as the reference for the lazily
/// allocated wear lane: the same per-byte rules over plain arrays.
struct EagerFrame {
    endurance: [f64; FRAME_BYTES],
    wear: [f64; FRAME_BYTES],
    faulty: [bool; FRAME_BYTES],
}

impl EagerFrame {
    fn new(frame: &Frame, endurance: [f64; FRAME_BYTES]) -> Self {
        EagerFrame {
            endurance,
            wear: [0.0; FRAME_BYTES],
            faulty: std::array::from_fn(|i| frame.fault_map().is_faulty(i)),
        }
    }

    /// Adds `amount` to each byte in `bytes` (all live at the start of the
    /// operation, ascending) and returns the bytes that failed.
    fn wear_bytes(&mut self, bytes: Vec<usize>, amount: f64) -> Vec<usize> {
        let mut failed = Vec::new();
        for i in bytes {
            self.wear[i] += amount;
            if self.wear[i] >= self.endurance[i] {
                self.faulty[i] = true;
                failed.push(i);
            }
        }
        failed
    }

    fn live(&self) -> Vec<usize> {
        (0..FRAME_BYTES).filter(|&i| !self.faulty[i]).collect()
    }

    fn record_write(&mut self, mask: u128) -> Vec<usize> {
        let written = self
            .live()
            .into_iter()
            .filter(|&i| mask >> i & 1 == 1)
            .collect();
        self.wear_bytes(written, 1.0)
    }

    fn apply_uniform_wear(&mut self, total: f64) -> Vec<usize> {
        let live = self.live();
        if live.is_empty() || total <= 0.0 {
            return Vec::new();
        }
        let per_byte = total / live.len() as f64;
        self.wear_bytes(live, per_byte)
    }

    fn remaining_writes(&self, i: usize) -> f64 {
        if self.faulty[i] {
            0.0
        } else {
            (self.endurance[i] - self.wear[i]).max(0.0)
        }
    }
}

/// A frame's byte endurances drawn from `model`, byte 0 first.
fn sampled_limits(model: &EnduranceModel, seed: u64) -> [f64; FRAME_BYTES] {
    let mut rng = StdRng::seed_from_u64(seed);
    std::array::from_fn(|_| model.sample(&mut rng) as f64)
}

/// Every byte's remaining writes, as bits.
fn remaining_bits(frame: &Frame, limits: &[f64; FRAME_BYTES]) -> Vec<u64> {
    (0..FRAME_BYTES)
        .map(|i| frame.remaining_writes(limits, i).to_bits())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A frame whose wear lane is allocated on first write behaves exactly
    /// like an eagerly allocated one: same failure counts, fault maps and
    /// remaining writes (per byte and as `live_remaining`'s run, compared
    /// bit for bit) after every operation.
    #[test]
    fn lazy_wear_matches_an_eager_frame(
        seed in any::<u64>(),
        faults in prop::collection::btree_set(0usize..FRAME_BYTES, 0..4),
        ops in prop::collection::vec((0u8..3, any::<u64>(), any::<u64>(), -20.0f64..400.0), 0..40),
    ) {
        let limits = sampled_limits(&EnduranceModel::new(20.0, 0.3), seed);
        let mut frame = Frame::new();
        for &b in &faults {
            frame.disable_byte(b);
        }
        let mut eager = EagerFrame::new(&frame, limits);
        for (kind, lo, hi, amount) in ops {
            let (failed, expected) = match kind {
                0 => {
                    let mask = u128::from(lo) | u128::from(hi) << 64;
                    (frame.record_write(&limits, mask), eager.record_write(mask))
                }
                1 => {
                    let sparse = u128::from(lo & hi) | u128::from(lo & hi & 0b11) << 64;
                    (frame.record_write(&limits, sparse), eager.record_write(sparse))
                }
                _ => (frame.apply_uniform_wear(&limits, amount), eager.apply_uniform_wear(amount)),
            };
            prop_assert_eq!(failed, expected.len());
            for i in 0..FRAME_BYTES {
                prop_assert_eq!(frame.fault_map().is_faulty(i), eager.faulty[i]);
            }
            let eager_bits: Vec<u64> = (0..FRAME_BYTES)
                .map(|i| eager.remaining_writes(i).to_bits())
                .collect();
            prop_assert_eq!(remaining_bits(&frame, &limits), eager_bits);
            let mut remaining = [0.0; FRAME_BYTES];
            let live = frame.live_remaining(&limits, &mut remaining);
            let expected: Vec<u64> = (0..FRAME_BYTES)
                .filter(|&i| !eager.faulty[i])
                .map(|i| eager.remaining_writes(i).to_bits())
                .collect();
            prop_assert_eq!(remaining[..live].iter().map(|r| r.to_bits()).collect::<Vec<_>>(), expected);
        }
    }

    /// An unallocated wear lane equals an allocated all-zero one, and
    /// clones compare equal either way.
    #[test]
    fn pristine_frame_equals_its_zero_write(seed in any::<u64>(), fault in 0usize..FRAME_BYTES) {
        let limits = sampled_limits(&EnduranceModel::new(1e6, 0.2), seed);
        let mut pristine = Frame::new();
        pristine.disable_byte(fault);
        let mut zero_write = pristine.clone();
        prop_assert_eq!(zero_write.record_write(&limits, 0), 0);
        // No wear: each live byte has its whole limit left.
        let mut unworn = limits;
        unworn[fault] = 0.0;
        let unworn: Vec<u64> = unworn.iter().map(|r| r.to_bits()).collect();
        prop_assert_eq!(remaining_bits(&pristine, &limits), unworn.clone());
        prop_assert_eq!(remaining_bits(&zero_write, &limits), unworn);
        prop_assert_eq!(&pristine, &zero_write);
        prop_assert_eq!(&zero_write, &pristine);
        let mut worn = pristine.clone();
        let _ = worn.record_write(&limits, 1 << ((fault + 1) % FRAME_BYTES));
        prop_assert_ne!(&worn, &pristine);
        prop_assert_ne!(&pristine, &worn);
        prop_assert_eq!(&worn, &worn.clone());
    }
}
