//! Order statistics for latency samples.

/// Samples a percentile must leave strictly above it before it is
/// reported (so a p99 rests on at least this many slower samples).
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index (1-based) of percentile `p` (0 < p ≤ 100) among
/// `n` samples: the smallest rank with at least `p`% of the samples at
/// or below it. Integer arithmetic, so 99% of 1000 is exactly rank 990.
pub fn rank(n: usize, p: u32) -> usize {
    assert!((1..=100).contains(&p), "percentile {p} out of range");
    (n * p as usize).div_ceil(100).max(1)
}

/// Samples ranked above percentile `p`.
pub fn beyond(n: usize, p: u32) -> usize {
    n - rank(n, p)
}

/// The smallest sample count at which percentile `p` leaves at least
/// `min_beyond` samples above it.
pub fn min_samples(p: u32, min_beyond: usize) -> usize {
    assert!(p < 100, "p100 never has samples beyond it");
    let mut n = min_beyond + 1;
    while beyond(n, p) < min_beyond {
        n += 1;
    }
    n
}

/// Percentile `p` of `samples` by nearest rank, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie above it (p50 of a non-empty set is
/// always reported once the set is large enough for that rule).
pub fn percentile(samples: &[f64], p: u32) -> Option<f64> {
    if samples.is_empty() || beyond(samples.len(), p) < MIN_BEYOND {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank(v.len(), p) - 1])
}

/// Median (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of nothing");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_exact_on_round_counts() {
        assert_eq!(rank(1000, 99), 990);
        assert_eq!(beyond(1000, 99), 10);
        assert_eq!(rank(1001, 99), 991);
        assert_eq!(rank(3, 50), 2);
        assert_eq!(rank(1, 50), 1);
    }

    #[test]
    fn min_samples_is_the_first_count_with_ten_beyond() {
        let n = min_samples(99, MIN_BEYOND);
        assert_eq!(n, 1000);
        assert!(beyond(n, 99) >= MIN_BEYOND);
        assert!(beyond(n - 1, 99) < MIN_BEYOND);
        // Every larger count keeps the guarantee.
        assert!((n..n + 500).all(|m| beyond(m, 99) >= MIN_BEYOND));
        assert_eq!(min_samples(50, MIN_BEYOND), 20);
    }

    #[test]
    fn percentile_refuses_too_few_samples_beyond() {
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99), None);
        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 99), Some(990.0));
        assert_eq!(percentile(&xs, 50), Some(500.0));
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
