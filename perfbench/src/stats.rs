//! Sample statistics: exact percentiles from raw samples, the
//! percentile-selection rule, and order-independent result checksums.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Candidate tail percentiles, highest first.
const TAIL_CANDIDATES: [f64; 6] = [0.999, 0.99, 0.95, 0.9, 0.75, 0.5];

/// The exact `q`-quantile of `samples` (nearest rank), `None` when empty.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    hj_metrics::exact_quantile(&mut sorted, q)
}

/// The highest candidate percentile, no higher than `want`, that leaves at
/// least [`MIN_TAIL_SAMPLES`] samples beyond it out of `n`; the median when
/// none does.
pub fn tail_percentile(want: f64, n: usize) -> f64 {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .filter(|&q| q <= want)
        .find(|&q| n.saturating_sub(rank(q, n)) >= MIN_TAIL_SAMPLES)
        .unwrap_or(0.5)
}

/// The 1-based nearest rank of the `q`-quantile among `n` samples, robust to
/// binary rounding of `q` (0.95 × 200 is rank 190, not 191).
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).max(1)
}

/// A percentile label such as `p99` or `p99.9`.
pub fn percentile_label(q: f64) -> String {
    let pct = q * 100.0;
    if (pct - pct.round()).abs() < 1e-9 {
        format!("p{}", pct.round())
    } else {
        format!("p{pct:.1}")
    }
}

/// Median of `samples`; 0 when empty (callers report only non-empty sets).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).unwrap_or(0.0)
}

fn mix64(mut x: u64) -> u64 {
    // splitmix64 finaliser: every input bit moves every output bit.
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Order-independent checksum of a pair set: equal for any permutation of
/// the same multiset, so the engine's morsel-ordered pairs can be compared
/// against the sorted reference without sorting on the measured path.
pub fn pair_checksum(pairs: &[(u32, u32)]) -> u64 {
    pairs.iter().fold(0u64, |acc, &(b, p)| {
        acc.wrapping_add(mix64((u64::from(b) << 32) | u64::from(p)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0.99, 1000), 0.99);
        assert_eq!(tail_percentile(0.99, 999), 0.95);
        assert_eq!(tail_percentile(0.95, 200), 0.95);
        assert_eq!(tail_percentile(0.95, 199), 0.9);
        assert_eq!(tail_percentile(0.999, 10_000), 0.999);
        assert_eq!(tail_percentile(0.99, 5), 0.5);
    }

    #[test]
    fn tail_rule_never_exceeds_the_wanted_percentile() {
        assert_eq!(tail_percentile(0.95, 1_000_000), 0.95);
    }

    #[test]
    fn quantiles_are_exact_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&samples, 0.5), Some(50.0));
        assert_eq!(quantile(&samples, 0.99), Some(99.0));
        assert_eq!(quantile(&samples, 1.0), Some(100.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn labels_name_the_percentile() {
        assert_eq!(percentile_label(0.99), "p99");
        assert_eq!(percentile_label(0.95), "p95");
        assert_eq!(percentile_label(0.999), "p99.9");
    }

    #[test]
    fn checksum_ignores_order_but_not_content() {
        let a = [(1, 2), (3, 4), (5, 6)];
        let b = [(5, 6), (1, 2), (3, 4)];
        assert_eq!(pair_checksum(&a), pair_checksum(&b));
        assert_ne!(pair_checksum(&a), pair_checksum(&[(1, 2), (3, 4)]));
        assert_ne!(pair_checksum(&a), pair_checksum(&[(2, 1), (3, 4), (5, 6)]));
    }
}
