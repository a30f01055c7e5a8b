//! Exact type-7 quantiles, re-exported by [`crate::stats`] for the boxplot
//! summaries and by the benchmark harness as `exa_util::stats::quantile_sorted`.

/// Linear-interpolation quantile (type-7, same convention as R's default).
///
/// `q` must be in `[0, 1]`. Input need not be sorted.
pub fn quantile(data: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0,1]");
    assert!(!data.is_empty(), "quantile of empty slice");
    let mut sorted = data.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    quantile_sorted(&sorted, q)
}

/// Quantile of an already-sorted slice (ascending).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let h = q * (n as f64 - 1.0);
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(n - 1);
    let frac = h - lo as f64;
    sorted[lo] + frac * (sorted[hi] - sorted[lo])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_matches_r_type7() {
        let d = [1.0, 2.0, 3.0, 4.0];
        assert!((quantile(&d, 0.0) - 1.0).abs() < 1e-15);
        assert!((quantile(&d, 1.0) - 4.0).abs() < 1e-15);
        assert!((quantile(&d, 0.5) - 2.5).abs() < 1e-15);
        assert!((quantile(&d, 0.25) - 1.75).abs() < 1e-15);
    }

    #[test]
    fn quantile_unsorted_input() {
        let d = [4.0, 1.0, 3.0, 2.0];
        assert!((quantile(&d, 0.5) - 2.5).abs() < 1e-15);
    }

    #[test]
    fn single_element() {
        assert_eq!(quantile_sorted(&[7.0], 0.99), 7.0);
    }
}
