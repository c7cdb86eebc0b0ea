//! Sample statistics: quartiles, the tail-percentile rule, and seeds.

/// The percentiles a tail may be reported at, highest first. p99 is the
/// ceiling so that a run's tail percentile does not flip between runs
/// whose sample counts straddle a threshold.
const TAIL_LADDER: [f64; 3] = [99.0, 90.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: f64 = 10.0;

/// The highest percentile of the ladder with at least [`TAIL_BEYOND`]
/// samples beyond it; the median when no tail percentile qualifies.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= TAIL_BEYOND)
        .unwrap_or(50.0)
}

/// The `p`-th percentile of sorted samples, interpolating linearly
/// between the two nearest ranks.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// A sample distribution reduced to what every metric reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
    /// The percentile [`tail_percentile`] chose for `n`, and its value.
    pub tail_pct: f64,
    pub tail: f64,
}

impl Summary {
    /// Summarizes `samples` (any order); `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail_pct = tail_percentile(sorted.len());
        Some(Summary {
            n: sorted.len(),
            p25: percentile(&sorted, 25.0),
            p50: percentile(&sorted, 50.0),
            p75: percentile(&sorted, 75.0),
            tail_pct,
            tail: percentile(&sorted, tail_pct),
        })
    }
}

/// Samples per block of [`blocked_tail`]; its tail percentile is p99.
pub const TAIL_BLOCK: usize = 1000;

/// A tail that one stall cannot move: the median, over consecutive blocks
/// of [`TAIL_BLOCK`] samples (in the order they were taken), of each
/// block's tail percentile. With fewer than two blocks it is the tail of
/// [`Summary::of`]. Returns the value and the percentile it stands for.
pub fn blocked_tail(samples: &[f64]) -> Option<(f64, f64)> {
    let blocks: Vec<f64> = samples
        .chunks_exact(TAIL_BLOCK)
        .map(|block| Summary::of(block).expect("full block").tail)
        .collect();
    if blocks.len() < 2 {
        return Summary::of(samples).map(|s| (s.tail, s.tail_pct));
    }
    Summary::of(&blocks).map(|s| (s.p50, tail_percentile(TAIL_BLOCK)))
}

/// SplitMix64: the seed mixer every derived seed goes through.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seed of session (or recorded run) `index` under a workload seed.
pub fn session_seed(workload_seed: u64, index: u64) -> u64 {
    splitmix64(splitmix64(workload_seed) ^ index)
}

/// When arrival `index` of an open loop at `rate` per second is due, as
/// an offset from the loop's start: evenly spaced, so it depends on the
/// rate alone.
pub fn arrival_offset(rate: f64, index: u64) -> std::time::Duration {
    std::time::Duration::from_secs_f64(index as f64 / rate)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(5), 50.0);
        assert_eq!(tail_percentile(99), 50.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(999), 90.0);
        assert_eq!(tail_percentile(1000), 99.0);
        // Capped at p99 however many samples there are.
        assert_eq!(tail_percentile(1_000_000), 99.0);
        for n in [100usize, 250, 1000, 4000] {
            let p = tail_percentile(n);
            assert!(n as f64 * (100.0 - p) / 100.0 >= TAIL_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&s, 50.0), 3.0);
        assert_eq!(percentile(&s, 25.0), 2.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 5.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.5);
    }

    #[test]
    fn summary_reports_count_quartiles_and_tail() {
        let samples: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let s = Summary::of(&samples).expect("non-empty");
        assert_eq!(s.n, 200);
        assert_eq!(s.p50, 100.5);
        assert_eq!(s.tail_pct, 90.0);
        assert!((s.tail - 180.1).abs() < 1e-9);
        assert!(s.p25 < s.p50 && s.p50 < s.p75);
        assert_eq!(Summary::of(&[]), None);
    }

    #[test]
    fn blocked_tail_ignores_a_stall_in_one_block() {
        let mut samples: Vec<f64> = (0..4000).map(|i| 1.0 + (i % 100) as f64 / 100.0).collect();
        // One stall: fifty slow samples inside the third block.
        for s in &mut samples[2500..2550] {
            *s = 50.0;
        }
        let (tail, pct) = blocked_tail(&samples).expect("samples");
        assert_eq!(pct, 99.0);
        assert!(tail < 2.0, "the stalled block is outvoted: {tail}");
        let whole = Summary::of(&samples).expect("samples");
        assert_eq!(whole.tail, 50.0, "the whole-run p99 is not");
        // Too few samples for two blocks: the rule's tail over all of them.
        assert_eq!(blocked_tail(&samples[..150]).map(|t| t.1), Some(90.0));
        assert_eq!(blocked_tail(&samples[..99]).map(|t| t.1), Some(50.0));
        assert_eq!(blocked_tail(&[]), None);
    }

    #[test]
    fn blocked_tail_sees_a_stall_spread_over_every_block() {
        // Every twentieth operation stalls: 5% of them, in every block.
        let samples: Vec<f64> = (0..5000)
            .map(|i| if i % 20 == 7 { 9.0 } else { 1.0 })
            .collect();
        let (tail, pct) = blocked_tail(&samples).expect("samples");
        assert_eq!((tail, pct), (9.0, 99.0));
    }

    #[test]
    fn session_seeds_are_deterministic_and_distinct() {
        let a: Vec<u64> = (0..64).map(|i| session_seed(7, i)).collect();
        let b: Vec<u64> = (0..64).map(|i| session_seed(7, i)).collect();
        assert_eq!(a, b, "same workload seed, same session seeds");
        let c: Vec<u64> = (0..64).map(|i| session_seed(8, i)).collect();
        assert_ne!(a, c, "another workload seed, other session seeds");
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), a.len(), "no two sessions share a seed");
    }

    #[test]
    fn arrivals_are_evenly_spaced_and_repeatable() {
        let rate = 200.0;
        let due: Vec<_> = (0..1000).map(|i| arrival_offset(rate, i)).collect();
        assert_eq!(due[0], std::time::Duration::ZERO);
        assert_eq!(due[200], std::time::Duration::from_secs(1));
        for w in due.windows(2) {
            let gap = (w[1] - w[0]).as_secs_f64();
            assert!((gap - 1.0 / rate).abs() < 1e-6, "gap {gap}");
        }
        let again: Vec<_> = (0..1000).map(|i| arrival_offset(rate, i)).collect();
        assert_eq!(due, again);
    }
}
