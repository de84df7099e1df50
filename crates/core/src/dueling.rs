//! Set Dueling for the compression threshold `CP_th` (§IV-C, §IV-D).
//!
//! A handful of *sampler* groups each pin one candidate `CP_th` value on
//! `N/32` of the cache sets; the remaining *follower* sets adopt, each
//! epoch, the candidate that performed best in the previous epoch. The
//! rule-based variant (§IV-D) will deviate from the max-hits winner towards
//! a smaller `CP_th` when that cuts NVM bytes written by at least `Tw` %
//! while losing at most `Th` % of the hits.

/// The candidate `CP_th` values duelled at runtime (§IV-C: "from 30 to 64").
pub const CP_TH_CANDIDATES: [u8; 6] = [30, 37, 44, 51, 58, 64];

/// Default Set Dueling epoch: 2 M cycles (§IV-C).
pub const DEFAULT_EPOCH_CYCLES: u64 = 2_000_000;

/// Most-recent epochs retained in the sampler history ring. Older records
/// are overwritten, so a long run's dueling state stays bounded instead of
/// growing by one [`EpochRecord`] per epoch for the whole simulation.
pub const HISTORY_EPOCHS: usize = 256;

/// Per-epoch sampler outcome, kept for the Figure 8 analyses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EpochRecord {
    /// Hits per candidate during the epoch.
    pub hits: [u64; CP_TH_CANDIDATES.len()],
    /// NVM bytes written per candidate during the epoch.
    pub writes: [u64; CP_TH_CANDIDATES.len()],
    /// Candidate index chosen for the followers of the next epoch.
    pub winner: usize,
}

impl EpochRecord {
    /// Candidate index with the most hits this epoch (ties: smaller
    /// `CP_th`), or `None` if the epoch saw no sampler hits.
    #[expect(clippy::indexing_slicing, reason = "k, best < hits.len()")]
    pub fn max_hits_candidate(&self) -> Option<usize> {
        if self.hits.iter().all(|&h| h == 0) {
            return None;
        }
        let mut best = 0;
        for k in 1..self.hits.len() {
            if self.hits[k] > self.hits[best] {
                best = k;
            }
        }
        Some(best)
    }
}

/// The Set Dueling controller.
///
/// # Example
///
/// ```
/// use hllc_core::{SetDueling, CP_TH_CANDIDATES};
///
/// let mut sd = SetDueling::new(0.0, 5.0, 1000);
/// // Set 3 samples candidate 3 (CP_th = 51); set 40 is a follower.
/// assert_eq!(sd.candidate_of_set(3), Some(3));
/// assert_eq!(sd.candidate_of_set(40), None);
/// sd.record_hit(3);
/// sd.maybe_epoch(1000);
/// assert_eq!(sd.cp_th_for_set(40), CP_TH_CANDIDATES[3]);
/// ```
#[derive(Clone, Debug)]
pub struct SetDueling {
    th: f64,
    tw: f64,
    epoch_cycles: u64,
    epoch_end: u64,
    hits: [u64; CP_TH_CANDIDATES.len()],
    writes: [u64; CP_TH_CANDIDATES.len()],
    /// Exponentially smoothed counters used for winner selection. With
    /// `smoothing = 0` these equal the raw per-epoch counters (the paper's
    /// mechanism); scaled-down simulations set a non-zero smoothing factor
    /// to recover the statistical weight a full-size cache's sampler sets
    /// would accumulate per epoch.
    hits_acc: [f64; CP_TH_CANDIDATES.len()],
    writes_acc: [f64; CP_TH_CANDIDATES.len()],
    smoothing: f64,
    winner: usize,
    /// Ring of the last [`HISTORY_EPOCHS`] epoch records; once full,
    /// `history_head` is the oldest entry and new records overwrite it.
    history: Vec<EpochRecord>,
    history_head: usize,
    epochs_total: u64,
}

impl SetDueling {
    /// Creates a controller with the rule thresholds `th`/`tw` (percent)
    /// and the given epoch length in cycles.
    ///
    /// # Panics
    ///
    /// Panics if `epoch_cycles` is zero or the thresholds are negative.
    pub fn new(th: f64, tw: f64, epoch_cycles: u64) -> Self {
        assert!(epoch_cycles > 0, "epoch must be at least one cycle");
        assert!(th >= 0.0 && tw >= 0.0, "thresholds are percentages >= 0");
        SetDueling {
            th,
            tw,
            epoch_cycles,
            epoch_end: epoch_cycles,
            hits: [0; CP_TH_CANDIDATES.len()],
            writes: [0; CP_TH_CANDIDATES.len()],
            hits_acc: [0.0; CP_TH_CANDIDATES.len()],
            writes_acc: [0.0; CP_TH_CANDIDATES.len()],
            smoothing: 0.0,
            // Start from CP_th = 58, the statically best value (§IV-A).
            winner: 4,
            history: Vec::new(),
            history_head: 0,
            epochs_total: 0,
        }
    }

    /// Sets the inter-epoch smoothing factor (0 = the paper's raw
    /// per-epoch counters, values towards 1 integrate over more epochs).
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= smoothing < 1`.
    pub fn set_smoothing(&mut self, smoothing: f64) {
        assert!(
            (0.0..1.0).contains(&smoothing),
            "smoothing must be in [0, 1)"
        );
        self.smoothing = smoothing;
    }

    /// The sampler candidate this set pins, or `None` for follower sets.
    /// Candidate `k` owns the sets with `set % 32 == k` — `N/32` sets per
    /// candidate as in the paper.
    pub fn candidate_of_set(&self, set: usize) -> Option<usize> {
        let m = set % 32;
        (m < CP_TH_CANDIDATES.len()).then_some(m)
    }

    /// The `CP_th` a given set must use right now.
    #[expect(clippy::indexing_slicing, reason = "k, winner are candidate indices")]
    pub fn cp_th_for_set(&self, set: usize) -> u8 {
        match self.candidate_of_set(set) {
            Some(k) => CP_TH_CANDIDATES[k],
            None => CP_TH_CANDIDATES[self.winner],
        }
    }

    /// Current follower `CP_th`.
    #[expect(clippy::indexing_slicing, reason = "winner is a candidate index")]
    pub fn current_cp_th(&self) -> u8 {
        CP_TH_CANDIDATES[self.winner]
    }

    /// Records an LLC hit in a sampler set.
    #[expect(clippy::indexing_slicing, reason = "k is a candidate index")]
    pub fn record_hit(&mut self, set: usize) {
        if let Some(k) = self.candidate_of_set(set) {
            self.hits[k] += 1;
        }
    }

    /// Records NVM bytes written in a sampler set.
    #[expect(clippy::indexing_slicing, reason = "k is a candidate index")]
    pub fn record_write(&mut self, set: usize, bytes: u64) {
        if let Some(k) = self.candidate_of_set(set) {
            self.writes[k] += bytes;
        }
    }

    /// Rolls the epoch over if `now` has passed the epoch boundary,
    /// re-evaluating the winner. Returns true if an epoch ended.
    #[expect(clippy::indexing_slicing, reason = "k < CP_TH_CANDIDATES.len()")]
    pub fn maybe_epoch(&mut self, now: u64) -> bool {
        if now < self.epoch_end {
            return false;
        }
        for k in 0..CP_TH_CANDIDATES.len() {
            self.hits_acc[k] = self.hits_acc[k] * self.smoothing + self.hits[k] as f64;
            self.writes_acc[k] = self.writes_acc[k] * self.smoothing + self.writes[k] as f64;
        }
        self.winner = self.select_winner();
        let record = EpochRecord {
            hits: self.hits,
            writes: self.writes,
            winner: self.winner,
        };
        if self.history.len() < HISTORY_EPOCHS {
            self.history.push(record);
        } else {
            // history_head wraps modulo HISTORY_EPOCHS == history.len().
            self.history[self.history_head] = record;
            self.history_head = (self.history_head + 1) % HISTORY_EPOCHS;
        }
        self.epochs_total += 1;
        self.hits = [0; CP_TH_CANDIDATES.len()];
        self.writes = [0; CP_TH_CANDIDATES.len()];
        // Skip ahead over any fully idle epochs.
        while self.epoch_end <= now {
            self.epoch_end += self.epoch_cycles;
        }
        true
    }

    /// Applies the §IV-D rule (Equation 1) to the (smoothed) sampler
    /// counters: start from the max-hits candidate `i`; with `Th > 0`,
    /// choose the smallest-`CP_th` candidate `j` with
    /// `H(j) > H(i)·(1 − Th/100)` and `W(j) < W(i)·(1 − Tw/100)`.
    #[expect(clippy::indexing_slicing, reason = "i, j, k < CP_TH_CANDIDATES.len()")]
    fn select_winner(&self) -> usize {
        if self.hits_acc.iter().all(|&h| h == 0.0) {
            return self.winner; // idle epoch: keep the previous choice
        }
        let mut i = 0;
        for k in 1..CP_TH_CANDIDATES.len() {
            if self.hits_acc[k] > self.hits_acc[i] {
                i = k;
            }
        }
        if self.th == 0.0 {
            return i;
        }
        let h_floor = self.hits_acc[i] * (1.0 - self.th / 100.0);
        let w_ceiling = self.writes_acc[i] * (1.0 - self.tw / 100.0);
        for j in 0..CP_TH_CANDIDATES.len() {
            if self.hits_acc[j] > h_floor && self.writes_acc[j] < w_ceiling {
                return j;
            }
        }
        i
    }

    /// The retained per-epoch sampler history in chronological order —
    /// the last [`HISTORY_EPOCHS`] epochs at most (see
    /// [`epochs_total`](Self::epochs_total) for the lifetime count).
    #[expect(clippy::indexing_slicing, reason = "history_head <= history.len()")]
    pub fn history(&self) -> Vec<EpochRecord> {
        let mut out = Vec::with_capacity(self.history.len());
        out.extend_from_slice(&self.history[self.history_head..]);
        out.extend_from_slice(&self.history[..self.history_head]);
        out
    }

    /// Number of epoch records currently retained in the ring
    /// (`min(epochs_total, HISTORY_EPOCHS)`).
    pub fn epochs_retained(&self) -> usize {
        self.history.len()
    }

    /// Total epochs completed over the run, including those whose records
    /// have been overwritten in the ring.
    pub fn epochs_total(&self) -> u64 {
        self.epochs_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_assignment_is_one_in_thirtytwo() {
        let sd = SetDueling::new(0.0, 5.0, 100);
        let n = 4096;
        let samplers = (0..n).filter(|&s| sd.candidate_of_set(s).is_some()).count();
        assert_eq!(samplers, n / 32 * CP_TH_CANDIDATES.len());
        assert_eq!(sd.candidate_of_set(32 + 2), Some(2));
        assert_eq!(sd.candidate_of_set(31), None);
    }

    #[test]
    fn max_hits_winner() {
        let mut sd = SetDueling::new(0.0, 5.0, 100);
        // Candidate 1 (sets ≡ 1 mod 32) gets the most hits.
        for _ in 0..10 {
            sd.record_hit(1);
        }
        sd.record_hit(2);
        assert!(sd.maybe_epoch(100));
        assert_eq!(sd.current_cp_th(), CP_TH_CANDIDATES[1]);
        // Followers adopt it; samplers keep their own.
        assert_eq!(sd.cp_th_for_set(40), CP_TH_CANDIDATES[1]); // 40 ≡ 8 (mod 32): follower
        assert_eq!(sd.cp_th_for_set(64 + 5), CP_TH_CANDIDATES[5]);
    }

    #[test]
    fn rule_trades_hits_for_writes() {
        // Candidate 4 (58) wins hits; candidate 0 (30) loses 5 % of hits
        // but writes 50 % less. With Th=8, Tw=5 the rule must pick 0.
        let mut sd = SetDueling::new(8.0, 5.0, 100);
        for _ in 0..100 {
            sd.record_hit(4);
        }
        for _ in 0..96 {
            sd.record_hit(0);
        }
        sd.record_write(4, 1000);
        sd.record_write(0, 500);
        sd.maybe_epoch(100);
        assert_eq!(sd.current_cp_th(), 30);
    }

    #[test]
    fn rule_refuses_insufficient_write_savings() {
        // Same hits trade-off but writes only drop 2 % (< Tw = 5 %).
        let mut sd = SetDueling::new(8.0, 5.0, 100);
        for _ in 0..100 {
            sd.record_hit(4);
        }
        for _ in 0..96 {
            sd.record_hit(0);
        }
        sd.record_write(4, 1000);
        sd.record_write(0, 980);
        sd.maybe_epoch(100);
        assert_eq!(sd.current_cp_th(), 58);
    }

    #[test]
    fn rule_prefers_smallest_qualifying_cpth() {
        let mut sd = SetDueling::new(8.0, 5.0, 100);
        for k in [0usize, 2, 4] {
            for _ in 0..95 {
                sd.record_hit(k);
            }
        }
        for _ in 0..5 {
            sd.record_hit(4); // candidate 4: 100 hits, the max
        }
        sd.record_write(4, 1000);
        sd.record_write(2, 700);
        sd.record_write(0, 800); // both qualify; 0 is smaller
        sd.maybe_epoch(100);
        assert_eq!(sd.current_cp_th(), 30);
    }

    #[test]
    fn idle_epoch_keeps_winner() {
        let mut sd = SetDueling::new(0.0, 5.0, 100);
        for _ in 0..3 {
            sd.record_hit(2);
        }
        sd.maybe_epoch(100);
        assert_eq!(sd.current_cp_th(), CP_TH_CANDIDATES[2]);
        sd.maybe_epoch(200); // no hits at all
        assert_eq!(sd.current_cp_th(), CP_TH_CANDIDATES[2]);
        assert_eq!(sd.history().len(), 2);
    }

    #[test]
    fn epoch_boundaries_catch_up() {
        let mut sd = SetDueling::new(0.0, 5.0, 100);
        assert!(!sd.maybe_epoch(99));
        assert!(sd.maybe_epoch(350)); // skips two idle boundaries
        assert!(!sd.maybe_epoch(399));
        assert!(sd.maybe_epoch(400));
    }

    #[test]
    fn history_ring_retains_only_the_most_recent_window() {
        let mut sd = SetDueling::new(0.0, 5.0, 100);
        let total = HISTORY_EPOCHS as u64 + 10;
        for e in 0..total {
            // Vary the hit count so each epoch's record is distinguishable.
            for _ in 0..=(e % 7) {
                sd.record_hit(1);
            }
            assert!(sd.maybe_epoch((e + 1) * 100));
        }
        assert_eq!(sd.epochs_total(), total);
        assert_eq!(sd.epochs_retained(), HISTORY_EPOCHS);
        let history = sd.history();
        assert_eq!(history.len(), HISTORY_EPOCHS);
        // Chronological: the oldest retained record is epoch 10, the newest
        // is the final epoch.
        assert_eq!(history[0].hits[1], 10 % 7 + 1);
        assert_eq!(history[HISTORY_EPOCHS - 1].hits[1], (total - 1) % 7 + 1);
    }

    #[test]
    fn followers_unaffected_by_follower_traffic() {
        let mut sd = SetDueling::new(0.0, 5.0, 100);
        sd.record_hit(40); // follower set: not counted
        sd.record_write(40, 100);
        sd.maybe_epoch(100);
        let rec = sd.history()[0];
        assert!(rec.hits.iter().all(|&h| h == 0));
        assert!(rec.writes.iter().all(|&w| w == 0));
    }
}
