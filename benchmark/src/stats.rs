//! Order statistics: the percentile picker for latency samples and the
//! quartile spread `compare` and the README's spread table use.

/// The tail percentiles the generator reports, lowest first, each with
/// the `d` of "one sample in `d` lies beyond it" (kept as an integer: in
/// floating point `100 * (1 - 0.9)` is a hair under 10).
const TAILS: [(f64, usize); 3] = [(0.90, 10), (0.99, 100), (0.999, 1_000)];

/// Value at quantile `q` of an ascending slice: the sample at index
/// `floor((n - 1) * q)`, so `q = 0.5` of an even-length slice is the lower
/// median and no value is ever interpolated into existence. 0 when empty.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() - 1) as f64 * q) as usize]
}

/// The highest of [`TAILS`] that still has at least ten samples beyond it
/// among `n`; `None` when even p90 has fewer (n < 100).
pub fn highest_supported_tail(n: usize) -> Option<f64> {
    TAILS
        .iter()
        .rfind(|(_, one_in)| n >= 10 * one_in)
        .map(|(q, _)| *q)
}

/// Value at tail `q`, or at the highest supported tail when `q` has fewer
/// than ten samples beyond it (falling back to the median below n = 100):
/// a percentile is never read off a handful of outliers.
pub fn tail(sorted: &[u64], q: f64) -> u64 {
    let supported = highest_supported_tail(sorted.len()).unwrap_or(0.5);
    percentile(sorted, q.min(supported))
}

/// Median of unsorted floats (mean of the middle two when even). NaN when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median of unsorted integer samples (lower median). 0 when empty.
pub fn median_u64(values: &mut [u64]) -> u64 {
    values.sort_unstable();
    percentile(values, 0.5)
}

/// First and third quartile by the method Python's
/// `statistics.quantiles(values, n=4)` defaults to (exclusive), so spreads
/// computed here match the ones the driver computes. `None` below two
/// values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| -> f64 {
        // Python: j = i * (n + 1) // 4 clamped to [1, n - 1];
        // delta = i * (n + 1) - j * 4; interpolate between v[j-1] and v[j].
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median: the run-to-run spread.
/// 0 when fewer than two values (nothing to compare) or a zero median.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    match quartiles(values) {
        Some((q1, q3)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picks_real_samples() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50, "lower median of an even count");
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[7], 0.999), 7);
        assert_eq!(percentile(&[], 0.5), 0);
        let mut odd = vec![9, 1, 5];
        assert_eq!(median_u64(&mut odd), 5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_tail(99), None);
        assert_eq!(highest_supported_tail(100), Some(0.90));
        assert_eq!(highest_supported_tail(999), Some(0.90));
        assert_eq!(highest_supported_tail(1_000), Some(0.99));
        assert_eq!(highest_supported_tail(10_000), Some(0.999));
        // 1000 samples: p999 would rest on one sample, so it reads as p99.
        let v: Vec<u64> = (0..1_000).collect();
        assert_eq!(tail(&v, 0.999), percentile(&v, 0.99));
        assert_eq!(tail(&v, 0.90), percentile(&v, 0.90));
        // Too few for any tail: fall back to the median.
        let few: Vec<u64> = (0..50).collect();
        assert_eq!(tail(&few, 0.99), percentile(&few, 0.5));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        let (q1, q3) = quartiles(&[40.0, 10.0, 20.0]).unwrap();
        assert!((q1 - 10.0).abs() < 1e-12 && (q3 - 40.0).abs() < 1e-12);
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&v) - 1.0).abs() < 1e-12, "(8.25 - 2.75) / 5.5");
        assert_eq!(spread(&[3.0]), 0.0);
    }

    #[test]
    fn median_of_floats() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
