//! Order statistics used by every workload and by `compare`.

/// The `q`-quantile (`0.0..=1.0`) of `values` by linear interpolation
/// between closest ranks. Panics on an empty slice: every caller has
/// at least one sample by construction.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// First and third quartile by the exclusive method — the definition
/// of Python's `statistics.quantiles(values, n=4)`, which the driver
/// uses for the run-to-run spread. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let at = |k: usize| {
        // position k(n+1)/4 in 1-based ranks, clamped to the sample;
        // outside the clamp the neighbours are extrapolated, as Python does
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Inter-quartile distance as a share of the median (0 for one value
/// or a zero median).
pub fn relative_iqr(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_interpolates_and_clamps() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.99), 100.0);
        assert_eq!(percentile(&v, 1.0), 101.0);
        assert_eq!(percentile(&v, 2.0), 101.0);
        assert_eq!(percentile(&[10.0, 20.0], 0.25), 12.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn relative_iqr_is_a_share_of_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_iqr(&v) - 1.0).abs() < 1e-12);
        assert_eq!(relative_iqr(&[5.0]), 0.0);
        assert_eq!(relative_iqr(&[5.0, 5.0, 5.0]), 0.0);
    }
}
