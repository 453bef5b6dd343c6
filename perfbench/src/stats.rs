//! Small order statistics shared by the workloads and the report.

/// The `p`-th percentile (0–100) by nearest rank; 0 for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (50th percentile by nearest rank).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The quartile on the favourable side of repeated measurements of one
/// figure: the 25th percentile of costs and latencies, the 75th of rates.
/// On a host whose speed alternates every few seconds, the median of a
/// run's windows lands on the boundary between its two speeds and moves
/// with the share of the run each took; the favourable quartile lands
/// inside the faster stretch as long as it covers a quarter of the run.
pub fn favourable_quartile(values: &[f64], higher_is_better: bool) -> f64 {
    percentile(values, if higher_is_better { 75.0 } else { 25.0 })
}

/// The `p`-th percentile by nearest rank of `(value, count)` samples, each
/// standing for `count` equal values; 0 when there are none.
pub fn weighted_percentile(samples: &[(f64, u64)], p: f64) -> f64 {
    let total: u64 = samples.iter().map(|s| s.1).sum();
    if total == 0 {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let rank = (((p / 100.0) * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0;
    for (value, count) in sorted {
        seen += count;
        if seen >= rank {
            return value;
        }
    }
    unreachable!("the ranks add up to the total")
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// SplitMix64 finalizer: derives independent sub-seeds from one seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn weighted_percentiles_match_the_expanded_sample() {
        let samples = [(3.0, 2), (1.0, 5), (2.0, 3)];
        let expanded: Vec<f64> = samples
            .iter()
            .flat_map(|&(v, n)| std::iter::repeat_n(v, n as usize))
            .collect();
        for p in [1.0, 50.0, 70.0, 71.0, 99.0, 100.0] {
            assert_eq!(weighted_percentile(&samples, p), percentile(&expanded, p));
        }
        assert_eq!(weighted_percentile(&[], 50.0), 0.0);
    }
}
