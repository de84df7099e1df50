//! The prediction phase: advancing wall-clock time against measured write
//! rates.
//!
//! Wear within a frame is spread uniformly over its live bytes — the
//! steady-state effect of the intra-frame wear-leveling rotation, whose
//! period (hours) is far shorter than a prediction step (weeks). Rates are
//! held constant within a step; steps are bounded so the rate error stays
//! small (DESIGN.md substitution #5).

use hllc_nvm::{DisableGranularity, NvmArray, FRAME_BYTES};

/// Calls `visit(frame index, live bytes, units)` for every usable frame, in
/// frame order. `units` holds the remaining writes of each unit — every
/// live byte's under byte disabling, the weakest byte's alone under frame
/// disabling (a frame survives iff its weakest byte does) — read straight
/// from the frame's lanes, unsorted.
fn for_each_live_frame(array: &NvmArray, mut visit: impl FnMut(usize, usize, &[f64])) {
    let (sets, ways) = (array.sets(), array.ways());
    let granularity = array.granularity();
    let mut remaining = [0.0; FRAME_BYTES];
    for set in 0..sets {
        for way in 0..ways {
            if array.is_disabled(set, way) {
                continue;
            }
            let live = array.live_remaining(set, way, &mut remaining);
            debug_assert!(live > 0, "a usable frame has a live byte");
            // live <= FRAME_BYTES, the buffer's length.
            let units = match granularity {
                DisableGranularity::Byte => &remaining[..live],
                DisableGranularity::Frame => {
                    remaining[0] = remaining[..live]
                        .iter()
                        .copied()
                        .fold(f64::INFINITY, f64::min);
                    &remaining[..1]
                }
            };
            visit(set * ways + way, live, units);
        }
    }
}

/// Units that survive a per-byte wear share of `per_byte`: those whose
/// remaining writes exceed it.
#[inline]
fn survivors(units: &[f64], per_byte: f64) -> usize {
    units.iter().map(|&r| usize::from(r > per_byte)).sum()
}

/// Read-only estimate of the capacity fraction after `dt_seconds` of wear
/// at the given per-frame byte rates (`bytes_per_second[f]`, index
/// `set * ways + way`).
pub fn capacity_after(array: &NvmArray, bytes_per_second: &[f64], dt_seconds: f64) -> f64 {
    let mut live_units = 0usize;
    for_each_live_frame(array, |f, live, units| {
        live_units += survivors(units, bytes_per_second[f] * dt_seconds / live as f64);
    });
    live_units as f64 / array.total_units() as f64
}

/// A live frame whose survivor count may still change inside the
/// bisection's bracket. Counts and lengths are at most [`FRAME_BYTES`], so
/// each fits a byte and an entry takes 24 bytes.
struct Open {
    rate: f64,
    /// Its units are `units[start..start + len]` of [`Bracket`].
    start: usize,
    len: u8,
    live: u8,
    /// Survivors at the bracket's ends and at the latest probe.
    at_lo: u8,
    at_hi: u8,
    at_mid: u8,
}

/// The survival table of one prediction step, split at a bisection
/// bracket `[lo, hi]` (starting at `[0, max_step]`) into settled and open
/// frames.
///
/// Within one bisection a frame's survivor count is monotone in `dt`,
/// whatever its rate. For a finite rate the share `rate · dt / live` is
/// monotone (IEEE multiplication and division round monotonically). A NaN
/// rate makes every count 0. An infinite rate makes the share NaN at
/// `dt = 0` and infinite elsewhere, so the count is 0 at 0 and on one side
/// of it and every live unit (all finite) on the other. A probe
/// `0.5 · (lo + hi)` rounds into the bracket, so a frame with the same
/// count at both ends has that count at every later probe: it is
/// *settled*, its count is added to one constant and no probe reads it
/// again. Totals, and hence every bisection decision, equal a full rescan
/// of every frame.
///
/// The one probe outside the bracket is ±∞, when `lo + hi` overflows. No
/// frame has more survivors there than at `hi`, so the settled total and
/// a rescan both fall below the floor that `hi` already failed, and the
/// decision is the same.
struct Bracket {
    settled: usize,
    open: Vec<Open>,
    units: Vec<f64>,
}

impl Bracket {
    fn new(array: &NvmArray, bytes_per_second: &[f64], max_step_seconds: f64) -> Self {
        let mut settled = 0;
        let (mut open, mut table) = (Vec::new(), Vec::new());
        for_each_live_frame(array, |f, live, units| {
            let rate = bytes_per_second[f];
            // Survivor counts are at most live <= FRAME_BYTES.
            let at = |dt: f64| survivors(units, rate * dt / live as f64) as u8;
            let (at_lo, at_hi) = (at(0.0), at(max_step_seconds));
            if at_lo == at_hi {
                settled += usize::from(at_hi);
                return;
            }
            if open.capacity() == 0 {
                // At most one entry per frame and one per unit, reserved
                // at once so the table never regrows, and only after the
                // first read of a limit, which on a forecast's first step
                // draws the array's limits: the table then sits above them
                // in the heap, where the next step reuses it (DESIGN §10.5).
                open.reserve_exact(array.sets() * array.ways());
                table.reserve_exact(array.total_units());
            }
            open.push(Open {
                rate,
                start: table.len(),
                len: units.len() as u8,
                live: live as u8,
                at_lo,
                at_hi,
                at_mid: at_hi,
            });
            table.extend_from_slice(units);
        });
        Bracket {
            settled,
            open,
            units: table,
        }
    }

    /// Live units at the bracket's upper end.
    fn at_hi(&self) -> usize {
        self.settled
            + self
                .open
                .iter()
                .map(|o| usize::from(o.at_hi))
                .sum::<usize>()
    }

    /// Live units after `dt_seconds`, which must lie inside the bracket.
    fn probe(&mut self, dt_seconds: f64) -> usize {
        let units = &self.units;
        let open: usize = self
            .open
            .iter_mut()
            .map(|o| {
                // The range was carved out of units when o was pushed.
                let run = &units[o.start..o.start + usize::from(o.len)];
                o.at_mid = survivors(run, o.rate * dt_seconds / f64::from(o.live)) as u8;
                usize::from(o.at_mid)
            })
            .sum();
        self.settled + open
    }

    /// Moves the bracket's lower (`raise_lo`) or upper end to the latest
    /// probe and settles the frames that now agree at both ends.
    fn narrow(&mut self, raise_lo: bool) {
        let settled = &mut self.settled;
        self.open.retain_mut(|o| {
            if raise_lo {
                o.at_lo = o.at_mid;
            } else {
                o.at_hi = o.at_mid;
            }
            let done = o.at_lo == o.at_hi;
            if done {
                *settled += usize::from(o.at_lo);
            }
            !done
        });
    }
}

/// Chooses a prediction step: the largest `dt <= max_step_seconds` whose
/// capacity drop does not exceed `max_capacity_drop` (bisection over one
/// survival table built for the step, probing only the frames not yet
/// settled). Returns `max_step_seconds` if even that loses less than the
/// allowed drop.
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
    let floor = array.capacity_fraction() - max_capacity_drop;
    let total_units = array.total_units() as f64;
    let holds = |live_units: usize| live_units as f64 / total_units >= floor;
    let mut bracket = Bracket::new(array, bytes_per_second, max_step_seconds);
    if holds(bracket.at_hi()) {
        return max_step_seconds;
    }
    let (mut lo, mut hi) = (0.0f64, max_step_seconds);
    for _ in 0..40 {
        let mid = 0.5 * (lo + hi);
        let raise_lo = holds(bracket.probe(mid));
        if raise_lo {
            lo = mid;
        } else {
            hi = mid;
        }
        bracket.narrow(raise_lo);
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
                failures += array.apply_uniform_wear(set, way, wear);
            }
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use hllc_config::ExperimentSpec;
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
                let endurance = array.endurance(set, way);
                let live = frame.live_bytes();
                if live == 0 {
                    continue;
                }
                let per_byte = bytes_per_second[f] * dt_seconds / live as f64;
                let mut bytes = frame.fault_map().live_indices();
                match array.granularity() {
                    DisableGranularity::Byte => {
                        live_units += bytes
                            .filter(|&b| frame.remaining_writes(endurance, b) > per_byte)
                            .count();
                    }
                    DisableGranularity::Frame => {
                        if bytes.all(|b| frame.remaining_writes(endurance, b) > per_byte) {
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
        let mut a = NvmArray::new(16, 6, &EnduranceModel::new(1e4, 0.3), granularity, seed);
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

    /// An array worn by selective writes: random byte masks through
    /// `NvmArray::record_write`, so the live bytes of a frame carry
    /// different wear, and some die of it. A third of the rates are zero.
    fn written(granularity: DisableGranularity, seed: u64) -> (NvmArray, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = NvmArray::new(16, 6, &EnduranceModel::new(300.0, 0.3), granularity, seed);
        let n = 16 * 6;
        for f in 0..n {
            for _ in 0..rng.gen_range(0..400) {
                let word = |rng: &mut StdRng| rng.gen::<u64>() & rng.gen::<u64>();
                let mask = u128::from(word(&mut rng)) | u128::from(word(&mut rng)) << 64;
                let _ = a.record_write(f / 6, f % 6, mask);
            }
        }
        let rates = (0..n)
            .map(|f| {
                if f % 3 == 0 {
                    0.0
                } else {
                    rng.gen_range(0.0..50.0)
                }
            })
            .collect();
        (a, rates)
    }

    /// Asserts that `choose_step` and `capacity_after` equal the full scan
    /// bit for bit, at drops and step caps from tight to far above the
    /// chosen step (the `scaled` forecast's 3 % against two days).
    fn assert_matches_scan(a: &NvmArray, rates: &[f64], what: &str) {
        let scaled = ExperimentSpec::preset("scaled")
            .expect("builtin preset")
            .forecast;
        for (drop, max_step) in [
            (0.03, 1e9),
            (0.2, 1e9),
            (0.5, 1e3),
            (1e-4, 1e12),
            (scaled.capacity_step, scaled.max_step_seconds),
        ] {
            let fast = choose_step(a, rates, drop, max_step);
            let scan = choose_step_by_scan(a, rates, drop, max_step);
            assert_eq!(
                fast.to_bits(),
                scan.to_bits(),
                "{what}: drop {drop}, max step {max_step}"
            );
        }
        for dt in [0.0, 1.0, 1e3, 1e5, 1e7, 1e12] {
            let fast = capacity_after(a, rates, dt);
            let scan = capacity_by_scan(a, rates, dt);
            assert_eq!(fast.to_bits(), scan.to_bits(), "{what}: dt {dt}");
        }
    }

    #[test]
    fn survival_table_matches_the_full_scan_bit_for_bit() {
        for g in [DisableGranularity::Byte, DisableGranularity::Frame] {
            for seed in 0..8 {
                for (kind, (a, rates)) in [("aged", aged(g, seed)), ("written", written(g, seed))] {
                    let what = format!("{kind} {g:?} seed {seed}");
                    assert_matches_scan(&a, &rates, &what);
                    assert_matches_scan(
                        &a,
                        &vec![0.0; rates.len()],
                        &format!("{what}, zero rates"),
                    );
                }
            }
            // The selective writes leave live bytes of one frame at
            // different wear: the table may not assume a shared value.
            let (a, _) = written(g, 0);
            let (frame, endurance) = (a.frame(0, 1), a.endurance(0, 1));
            let wear: Vec<f64> = frame
                .fault_map()
                .live_indices()
                .map(|b| endurance[b] - frame.remaining_writes(endurance, b))
                .collect();
            assert!(wear.iter().any(|&w| w != wear[0]), "{wear:?}");
            // Exact ties: with uniform endurance 100 and 66 B/s over 66 live
            // bytes, every byte's share reaches its limit at dt = 100 and
            // must die there, as in the full scan.
            let flat = NvmArray::new(4, 2, &EnduranceModel::new(100.0, 0.0), g, 1);
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

    /// NaN, infinite and negative rates, and infinite, huge and negative
    /// step caps: settling stays exact on all of them.
    #[test]
    fn survival_table_matches_the_full_scan_on_non_finite_inputs() {
        for g in [DisableGranularity::Byte, DisableGranularity::Frame] {
            let (a, mut rates) = aged(g, 3);
            rates[1] = f64::NAN;
            rates[2] = f64::INFINITY;
            rates[3] = -40.0;
            rates[4] = f64::NEG_INFINITY;
            for max_step in [f64::INFINITY, f64::MAX, f64::MAX / 2.0, -1e6, 1e9, f64::NAN] {
                let fast = choose_step(&a, &rates, 0.03, max_step);
                let scan = choose_step_by_scan(&a, &rates, 0.03, max_step);
                assert_eq!(fast.to_bits(), scan.to_bits(), "{g:?}, max step {max_step}");
            }
        }
    }

    /// A step cap above half the largest float lets `lo + hi` overflow, so
    /// a probe lands at +∞, outside the bracket, where settled zero-rate
    /// frames lose every unit (`0 · ∞` is NaN): the decision must still
    /// match the scan's.
    #[test]
    fn survival_table_matches_the_full_scan_when_a_probe_overflows() {
        for g in [DisableGranularity::Byte, DisableGranularity::Frame] {
            let (a, _) = aged(g, 3);
            let (set, way) = (0..16 * 6)
                .map(|f| (f / 6, f % 6))
                .find(|&(s, w)| !a.is_disabled(s, w) && a.frame(s, w).live_bytes() > 0)
                .expect("a live frame");
            let (frame, endurance) = (a.frame(set, way), a.endurance(set, way));
            let weakest = (0..FRAME_BYTES)
                .filter(|&b| !frame.fault_map().is_faulty(b))
                .map(|b| frame.remaining_writes(endurance, b))
                .fold(f64::INFINITY, f64::min);
            // The one written frame loses its weakest unit at 3/4 of the
            // largest float: the bisection raises lo past half of it.
            let mut rates = vec![0.0; 16 * 6];
            rates[set * 6 + way] = weakest * frame.live_bytes() as f64 / (0.75 * f64::MAX);
            let fast = choose_step(&a, &rates, 1e-9, f64::MAX);
            let scan = choose_step_by_scan(&a, &rates, 1e-9, f64::MAX);
            assert_eq!(scan, f64::INFINITY, "{g:?}: the scan probed +inf");
            assert_eq!(fast.to_bits(), scan.to_bits(), "{g:?}");
        }
    }

    fn array(granularity: DisableGranularity, cv: f64) -> NvmArray {
        NvmArray::new(8, 4, &EnduranceModel::new(1e6, cv), granularity, 7)
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
