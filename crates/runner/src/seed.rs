//! Per-job seed derivation.

/// Derives the RNG seed of job `job_index` from `base_seed`.
///
/// The seed is the `job_index + 1`-th output of the SplitMix64 stream
/// started at `base_seed` — computed in O(1) because SplitMix64's state
/// advances by a fixed odd constant, so the stream can be indexed directly.
/// Two properties matter for the runner:
///
/// * the seed depends only on `(base_seed, job_index)`, never on which
///   worker thread runs the job or in what order, and
/// * neighbouring job indices get statistically independent seeds (the
///   whole point of SplitMix64's output mix).
pub fn job_seed(base_seed: u64, job_index: usize) -> u64 {
    let mut state = base_seed.wrapping_add((job_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    rand::splitmix64(&mut state)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_splitmix_stream() {
        let base = 42u64;
        let mut state = base;
        for i in 0..64 {
            assert_eq!(job_seed(base, i), rand::splitmix64(&mut state), "job {i}");
        }
    }

    #[test]
    fn distinct_across_jobs_and_bases() {
        let mut seen = std::collections::BTreeSet::new();
        for base in [0u64, 1, 42, u64::MAX] {
            for i in 0..256 {
                assert!(
                    seen.insert(job_seed(base, i)),
                    "collision at base={base} i={i}"
                );
            }
        }
    }
}
