//! The prediction phase: advancing wall-clock time against measured write
//! rates.
//!
//! Wear within a frame is spread uniformly over its live bytes — the
//! steady-state effect of the intra-frame wear-leveling rotation, whose
//! period (hours) is far shorter than a prediction step (weeks). Rates are
//! held constant within a step; steps are bounded so the rate error stays
//! small (DESIGN.md substitution #5).

use hllc_nvm::{DisableGranularity, NvmArray, FRAME_BYTES};

/// The survival table of one prediction step: for each live frame, its
/// write rate, its live-byte count and a run of remaining-write counts in
/// descending order — every live byte's under byte disabling, the weakest
/// byte's alone under frame disabling (a frame survives iff its weakest
/// byte does). A probe then counts each frame's survivors by binary
/// search, O(frames · log 66), instead of rescanning every live byte.
struct Survivors {
    total_units: usize,
    /// `(rate, live bytes, end of the frame's run in remaining)`.
    frames: Vec<(f64, usize, usize)>,
    remaining: Vec<f64>,
}

impl Survivors {
    fn new(array: &NvmArray, bytes_per_second: &[f64]) -> Self {
        let (sets, ways) = (array.sets(), array.ways());
        let granularity = array.granularity();
        let total_units = match granularity {
            DisableGranularity::Byte => sets * ways * FRAME_BYTES,
            DisableGranularity::Frame => sets * ways,
        };
        let mut frames = Vec::with_capacity(sets * ways);
        // At most one entry per unit, reserved up front: growing the table
        // by doubling costs peak memory on every forecast step.
        let mut remaining = Vec::with_capacity(total_units);
        for set in 0..sets {
            for way in 0..ways {
                let frame = array.frame(set, way);
                let live = frame.live_bytes();
                if array.is_disabled(set, way) || live == 0 {
                    continue;
                }
                let run_start = remaining.len();
                let bytes = frame.fault_map().live_indices();
                match granularity {
                    DisableGranularity::Byte => {
                        remaining.extend(bytes.map(|b| frame.remaining_writes(b)));
                    }
                    DisableGranularity::Frame => {
                        let weakest = bytes
                            .map(|b| frame.remaining_writes(b))
                            .fold(f64::INFINITY, f64::min);
                        remaining.push(weakest);
                    }
                }
                remaining[run_start..].sort_unstable_by(|a, b| b.total_cmp(a));
                frames.push((bytes_per_second[set * ways + way], live, remaining.len()));
            }
        }
        Survivors {
            total_units,
            frames,
            remaining,
        }
    }

    /// Capacity fraction after `dt_seconds`: a unit survives iff its
    /// remaining writes exceed its frame's per-byte share of the wear.
    fn capacity_after(&self, dt_seconds: f64) -> f64 {
        let mut live_units = 0usize;
        let mut run_start = 0;
        for &(rate, live, run_end) in &self.frames {
            let per_byte = rate * dt_seconds / live as f64;
            let run = &self.remaining[run_start..run_end];
            live_units += run.partition_point(|&r| r > per_byte);
            run_start = run_end;
        }
        live_units as f64 / self.total_units as f64
    }
}

/// Read-only estimate of the capacity fraction after `dt_seconds` of wear
/// at the given per-frame byte rates (`bytes_per_second[f]`, index
/// `set * ways + way`).
pub fn capacity_after(array: &NvmArray, bytes_per_second: &[f64], dt_seconds: f64) -> f64 {
    Survivors::new(array, bytes_per_second).capacity_after(dt_seconds)
}

/// Chooses a prediction step: the largest `dt <= max_step_seconds` whose
/// capacity drop does not exceed `max_capacity_drop` (bisection over one
/// survival table built for the step). Returns `max_step_seconds` if even
/// that loses less than the allowed drop.
///
/// Failures are discrete, so the chosen step may overshoot the drop target
/// by up to one disabling unit (one byte, or one frame under
/// frame-granularity disabling) — the bound is a sampling-granularity
/// control, not a hard invariant.
pub fn choose_step(
    array: &NvmArray,
    bytes_per_second: &[f64],
    max_capacity_drop: f64,
    max_step_seconds: f64,
) -> f64 {
    let survivors = Survivors::new(array, bytes_per_second);
    let floor = array.capacity_fraction() - max_capacity_drop;
    if survivors.capacity_after(max_step_seconds) >= floor {
        return max_step_seconds;
    }
    let (mut lo, mut hi) = (0.0f64, max_step_seconds);
    for _ in 0..40 {
        let mid = 0.5 * (lo + hi);
        if survivors.capacity_after(mid) >= floor {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    // Guarantee forward progress even when a single failure exceeds the
    // allowed drop (e.g. frame-granularity disabling of a hot frame).
    hi.max(max_step_seconds * 1e-6)
}

/// Applies `dt_seconds` of wear to the array. Returns the number of newly
/// failed bytes.
pub fn advance_wear(array: &mut NvmArray, bytes_per_second: &[f64], dt_seconds: f64) -> usize {
    let sets = array.sets();
    let ways = array.ways();
    let mut failures = 0;
    for set in 0..sets {
        for way in 0..ways {
            let f = set * ways + way;
            let wear = bytes_per_second[f] * dt_seconds;
            if wear > 0.0 {
                failures += array.apply_uniform_wear(set, way, wear).len();
            }
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use hllc_nvm::EnduranceModel;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The original full-scan estimate, kept as the oracle for the
    /// survival table: every probe rescans every live byte.
    fn capacity_by_scan(array: &NvmArray, bytes_per_second: &[f64], dt_seconds: f64) -> f64 {
        let (sets, ways) = (array.sets(), array.ways());
        let mut live_units = 0usize;
        let total_units = match array.granularity() {
            DisableGranularity::Byte => sets * ways * FRAME_BYTES,
            DisableGranularity::Frame => sets * ways,
        };
        for set in 0..sets {
            for way in 0..ways {
                let f = set * ways + way;
                if array.is_disabled(set, way) {
                    continue;
                }
                let frame = array.frame(set, way);
                let live = frame.live_bytes();
                if live == 0 {
                    continue;
                }
                let per_byte = bytes_per_second[f] * dt_seconds / live as f64;
                let mut bytes = frame.fault_map().live_indices();
                match array.granularity() {
                    DisableGranularity::Byte => {
                        live_units += bytes
                            .filter(|&b| frame.remaining_writes(b) > per_byte)
                            .count();
                    }
                    DisableGranularity::Frame => {
                        if bytes.all(|b| frame.remaining_writes(b) > per_byte) {
                            live_units += 1;
                        }
                    }
                }
            }
        }
        live_units as f64 / total_units as f64
    }

    /// The original bisection over full scans.
    fn choose_step_by_scan(array: &NvmArray, rates: &[f64], drop: f64, max_step: f64) -> f64 {
        let current = array.capacity_fraction();
        if capacity_by_scan(array, rates, max_step) >= current - drop {
            return max_step;
        }
        let (mut lo, mut hi) = (0.0f64, max_step);
        for _ in 0..40 {
            let mid = 0.5 * (lo + hi);
            if capacity_by_scan(array, rates, mid) >= current - drop {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        hi.max(max_step * 1e-6)
    }

    /// An array aged to hold faulty bytes, dead frames and
    /// administratively disabled frames, with per-frame rates that
    /// include zeros.
    fn aged(granularity: DisableGranularity, seed: u64) -> (NvmArray, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = NvmArray::new(16, 6, &EnduranceModel::new(1e4, 0.3), granularity, &mut rng);
        let n = 16 * 6;
        for f in 0..n {
            let wear = rng.gen_range(0.0..1.4) * 1e4 * FRAME_BYTES as f64;
            let _ = a.apply_uniform_wear(f / 6, f % 6, wear);
        }
        a.disable_frame(3, 2);
        a.degrade_to(a.capacity_fraction() * 0.9, &mut rng);
        let rates = (0..n)
            .map(|f| {
                if f % 5 == 0 {
                    0.0
                } else {
                    rng.gen_range(0.0..500.0)
                }
            })
            .collect();
        (a, rates)
    }

    #[test]
    fn survival_table_matches_the_full_scan_bit_for_bit() {
        for g in [DisableGranularity::Byte, DisableGranularity::Frame] {
            for seed in 0..8 {
                let (a, rates) = aged(g, seed);
                for (drop, max_step) in [(0.03, 1e9), (0.2, 1e9), (0.5, 1e3), (1e-4, 1e12)] {
                    let fast = choose_step(&a, &rates, drop, max_step);
                    let scan = choose_step_by_scan(&a, &rates, drop, max_step);
                    assert_eq!(fast.to_bits(), scan.to_bits(), "{g:?} seed {seed}");
                }
                for dt in [0.0, 1.0, 1e3, 1e5, 1e7, 1e12] {
                    let fast = capacity_after(&a, &rates, dt);
                    assert_eq!(fast.to_bits(), capacity_by_scan(&a, &rates, dt).to_bits());
                }
                let zero = vec![0.0; rates.len()];
                assert_eq!(
                    choose_step(&a, &zero, 0.03, 1e9).to_bits(),
                    choose_step_by_scan(&a, &zero, 0.03, 1e9).to_bits()
                );
            }
            // Exact ties: with uniform endurance 100 and 66 B/s over 66 live
            // bytes, every byte's share reaches its limit at dt = 100 and
            // must die there, as in the full scan.
            let mut rng = StdRng::seed_from_u64(1);
            let flat = NvmArray::new(4, 2, &EnduranceModel::new(100.0, 0.0), g, &mut rng);
            let rates = vec![66.0; 8];
            assert_eq!(capacity_by_scan(&flat, &rates, 100.0), 0.0);
            for dt in [99.0, 100.0, 101.0] {
                let fast = capacity_after(&flat, &rates, dt);
                assert_eq!(
                    fast.to_bits(),
                    capacity_by_scan(&flat, &rates, dt).to_bits()
                );
            }
        }
    }

    fn array(granularity: DisableGranularity, cv: f64) -> NvmArray {
        let mut rng = StdRng::seed_from_u64(7);
        NvmArray::new(8, 4, &EnduranceModel::new(1e6, cv), granularity, &mut rng)
    }

    #[test]
    fn zero_rate_never_ages() {
        let a = array(DisableGranularity::Byte, 0.2);
        let rates = vec![0.0; 32];
        assert_eq!(capacity_after(&a, &rates, 1e12), 1.0);
    }

    #[test]
    fn capacity_after_is_monotone_in_dt() {
        let a = array(DisableGranularity::Byte, 0.2);
        let rates = vec![100.0; 32];
        let mut prev = 1.0;
        for dt in [1e3, 1e4, 1e5, 1e6] {
            let c = capacity_after(&a, &rates, dt);
            assert!(c <= prev, "capacity grew with time");
            prev = c;
        }
        // Everything dies eventually: per-byte wear 100*1e6/66 >> 1e6*1.2.
        assert_eq!(capacity_after(&a, &rates, 1e7), 0.0);
    }

    #[test]
    fn advance_matches_prediction() {
        for g in [DisableGranularity::Byte, DisableGranularity::Frame] {
            let mut a = array(g, 0.25);
            let rates: Vec<f64> = (0..32).map(|i| 50.0 + 10.0 * i as f64).collect();
            let dt = 2.0e5;
            let predicted = capacity_after(&a, &rates, dt);
            advance_wear(&mut a, &rates, dt);
            let actual = a.capacity_fraction();
            assert!(
                (predicted - actual).abs() < 1e-9,
                "{g:?}: predicted {predicted} vs actual {actual}"
            );
        }
    }

    #[test]
    fn choose_step_bounds_capacity_drop() {
        let mut a = array(DisableGranularity::Byte, 0.2);
        let rates = vec![1000.0; 32];
        let dt = choose_step(&a, &rates, 0.05, 1e9);
        let before = a.capacity_fraction();
        advance_wear(&mut a, &rates, dt);
        let drop = before - a.capacity_fraction();
        // May overshoot by at most one byte of the 8×4×66-byte array.
        let one_byte = 1.0 / (8.0 * 4.0 * 66.0);
        assert!(drop <= 0.05 + one_byte + 1e-9, "dropped {drop}");
        assert!(dt > 0.0);
    }

    #[test]
    fn choose_step_returns_max_when_hardly_aging() {
        let a = array(DisableGranularity::Byte, 0.2);
        let rates = vec![1e-6; 32];
        assert_eq!(choose_step(&a, &rates, 0.05, 3600.0), 3600.0);
    }

    #[test]
    fn frame_granularity_dies_faster() {
        // Same wear: frame disabling loses capacity at the first byte death,
        // byte disabling only loses that byte.
        let mut fa = array(DisableGranularity::Frame, 0.25);
        let mut ba = array(DisableGranularity::Byte, 0.25);
        let rates = vec![500.0; 32];
        let dt = 1.3e5;
        advance_wear(&mut fa, &rates, dt);
        advance_wear(&mut ba, &rates, dt);
        assert!(fa.capacity_fraction() <= ba.capacity_fraction());
    }
}
