//! Order statistics over small sample sets.

/// Median of `values` (mean of the two middle ones for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method, the one Python's
/// `statistics.quantiles(values, n=4)` uses, so the numbers the benchmark
/// prints can be compared with the ones its driver computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let at = |q: usize| {
        let pos = q * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let frac = (pos as f64 / 4.0 - j as f64).clamp(0.0, 1.0);
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median.
pub fn iqr_frac(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// The `p`-quantile (nearest rank) of `samples`, reordering them in place.
pub fn percentile_ns(samples: &mut [u32], p: f64) -> u32 {
    if samples.is_empty() {
        return 0;
    }
    let idx = (((samples.len() - 1) as f64) * p).round() as usize;
    *samples.select_nth_unstable(idx).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
        let v = [1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0, 37.0, 46.0];
        assert_eq!(quartiles(&v), (3.5, 31.0));
        // statistics.quantiles([5, 1, 3], n=4)
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), (1.0, 5.0));
        assert_eq!(median(&v), 13.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(percentile_ns(&mut v, 0.50), 51);
        assert_eq!(percentile_ns(&mut v, 0.99), 99);
        assert_eq!(percentile_ns(&mut [], 0.5), 0);
    }
}
