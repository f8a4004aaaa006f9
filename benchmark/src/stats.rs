//! Order statistics.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile of ascending `sorted`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it: a tail percentile of
/// a small sample is not reported.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    // The epsilon keeps `0.9 * 100` from rounding up to rank 91.
    let rank = (q * sorted.len() as f64 - 1e-9).ceil() as usize;
    let beyond = sorted.len().checked_sub(rank.max(1))?;
    (beyond >= MIN_BEYOND).then(|| sorted[rank.max(1) - 1])
}

/// Smallest sample count for which the `q`-quantile is reported.
pub fn min_samples(q: f64) -> usize {
    (1..)
        .find(|&n| percentile(&vec![0.0; n], q).is_some())
        .expect("some sample count reports every quantile below 1")
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so reported spreads match what
/// that function gives on the same values. A single value is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.90), Some(90.0));
        assert_eq!(percentile(&sorted[..99], 0.90), None);
        assert_eq!(percentile(&sorted, 0.99), None);
        assert_eq!(percentile(&sorted[..20], 0.50), Some(10.0));
        assert_eq!(percentile(&sorted[..19], 0.50), None);
        assert_eq!(percentile(&[], 0.50), None);
        assert_eq!(min_samples(0.90), 100);
        assert_eq!(min_samples(0.99), 1000);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
        // == [3.5, 24.0, 160.0]
        let v: Vec<f64> = (0..10).map(|i| f64::from(1u32 << i)).collect();
        assert_eq!(quartiles(&v), (3.5, 160.0));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
