//! Small statistics helpers.

use gadget_obs::{bucket_bounds, LogHistogram};

/// Percentile `p` of `hist`, in microseconds.
///
/// The replayer's log histogram keeps ~3%-wide buckets, and its own
/// `percentile` returns a bucket's floor, which would read the same on
/// most runs. This interpolates linearly inside the bucket that holds
/// the rank instead, so the value moves with the measured distribution.
pub fn percentile_us(hist: &LogHistogram, p: f64) -> f64 {
    let total = hist.count();
    if total == 0 {
        return 0.0;
    }
    let rank = (p / 100.0 * total as f64).max(1.0);
    let mut seen = 0.0;
    for (floor, count) in hist.buckets() {
        let count = count as f64;
        if seen + count >= rank {
            let (lo, hi) = bucket_bounds(floor);
            let hi = hi.min(hist.max() + 1).max(lo + 1);
            let within = (rank - seen) / count;
            return (lo as f64 + within * (hi - lo) as f64) / 1e3;
        }
        seen += count;
    }
    hist.max() as f64 / 1e3
}

/// Σ of every value recorded in `hist`, in seconds.
pub fn total_seconds(hist: &LogHistogram) -> f64 {
    hist.mean() * hist.count() as f64 / 1e9
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Mean of `values` (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolated_percentiles_track_the_distribution() {
        let mut hist = LogHistogram::new();
        for v in 1..=1000u64 {
            hist.record(v * 1000);
        }
        let p50 = percentile_us(&hist, 50.0);
        assert!((p50 - 500.0).abs() < 15.0, "p50 {p50}");
        let p99 = percentile_us(&hist, 99.0);
        assert!((p99 - 990.0).abs() < 30.0, "p99 {p99}");
        assert!(percentile_us(&hist, 100.0) <= 1000.001);
        assert_eq!(percentile_us(&LogHistogram::new(), 50.0), 0.0);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0]), 1.5);
    }
}
