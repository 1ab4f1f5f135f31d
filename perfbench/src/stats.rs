//! Order statistics used by every workload: nearest-rank percentiles, the
//! "ten samples beyond" rule for tail percentiles, and plain medians.

/// A tail percentile is only reported as resolved when at least this many
/// samples lie beyond it.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// 1-based nearest rank of percentile `q` (0–100] among `n` samples:
/// `ceil(q/100 · n)`, clamped to `1..=n`.
pub fn nearest_rank(n: usize, q: f64) -> usize {
    let rank = (q / 100.0 * n as f64).ceil() as usize;
    rank.clamp(1, n.max(1))
}

/// Nearest-rank percentile of `sorted` (ascending); `None` when empty.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[nearest_rank(sorted.len(), q) - 1])
}

/// How many of `n` samples lie strictly beyond the nearest rank of `q`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - nearest_rank(n, q)
}

/// Whether percentile `q` of `n` samples has at least
/// [`MIN_TAIL_SAMPLES`] samples beyond it.
pub fn tail_resolved(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= MIN_TAIL_SAMPLES
}

/// Sorts a copy of `values` ascending (NaN-free input assumed).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the middle pair for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        // Rank rounds up: p50 of four samples is the second, not a mean.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), Some(2.0));
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // 1000 samples: p99 is rank 990, with exactly 10 beyond it.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert!(tail_resolved(1000, 99.0));
        // One sample short and the tail is no longer resolved.
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert!(!tail_resolved(999, 99.0));
        // p50 is resolved from 20 samples on.
        assert!(tail_resolved(20, 50.0));
        assert!(!tail_resolved(19, 50.0));
        assert_eq!(samples_beyond(0, 99.0), 0);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
