//! Summary statistics: medians, geometric means, and tail percentiles
//! that are only reported where the sample supports them.

/// Median of `values` (NaN-free); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Geometric mean of positive values; `None` when empty or any value is
/// not positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || !values.iter().all(|v| v.is_finite() && *v > 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The highest percentile up to `want` (e.g. 0.99) that leaves at least
/// [`MIN_BEYOND`] samples beyond it, by nearest rank: `(quantile,
/// value)`. With 1000 samples or more that is the 99th percentile; with
/// fewer the quantile drops to `(n - 10) / n`; with 10 or fewer samples
/// there is no such percentile.
pub fn tail(values: &[f64], want: f64) -> Option<(f64, f64)> {
    let n = values.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let wanted_rank = (want * n as f64).ceil() as usize;
    let rank = wanted_rank.clamp(1, n - MIN_BEYOND);
    Some((rank as f64 / n as f64, v[rank - 1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn geomean_of_ratios() {
        let g = geomean(&[2.0, 8.0]).expect("positive");
        assert!((g - 4.0).abs() < 1e-12);
        assert!((geomean(&[5.0]).expect("one") - 5.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples 1..=1000: p99 is the 990th, and 10 lie beyond
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v, 0.99), Some((0.99, 990.0)));
        // 500 samples: the 99th would leave 5 beyond, so drop to the 490th
        let v: Vec<f64> = (1..=500).map(f64::from).collect();
        assert_eq!(tail(&v, 0.99), Some((0.98, 490.0)));
        // with 10 samples nothing is supported
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&v, 0.99), None);
        // a median-level request is unaffected by the rule
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v, 0.5), Some((0.5, 50.0)));
    }
}
