//! Descriptive statistics used by the accuracy experiments.
//!
//! The paper reports parameter-estimation quality (Fig. 6) and prediction MSE
//! (Fig. 7) as boxplots over Monte-Carlo replicates; [`BoxplotSummary`] is the
//! textual equivalent printed by the harnesses.

/// Arithmetic mean. Returns `NaN` on empty input.
pub fn mean(data: &[f64]) -> f64 {
    if data.is_empty() {
        return f64::NAN;
    }
    data.iter().sum::<f64>() / data.len() as f64
}

/// Unbiased sample variance (n−1 denominator). Returns `NaN` for n < 2.
pub fn sample_variance(data: &[f64]) -> f64 {
    let n = data.len();
    if n < 2 {
        return f64::NAN;
    }
    let m = mean(data);
    data.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (n - 1) as f64
}

/// Sample standard deviation.
pub fn sample_std(data: &[f64]) -> f64 {
    sample_variance(data).sqrt()
}

/// Mean squared error between two equal-length slices (paper Eq. 7).
pub fn mse(truth: &[f64], prediction: &[f64]) -> f64 {
    assert_eq!(truth.len(), prediction.len(), "MSE length mismatch");
    assert!(!truth.is_empty(), "MSE of empty slices");
    truth
        .iter()
        .zip(prediction)
        .map(|(t, p)| (t - p) * (t - p))
        .sum::<f64>()
        / truth.len() as f64
}

pub use crate::quantile::{quantile, quantile_sorted};

/// Five-number boxplot summary plus mean, as printed by the Fig. 6/7
/// harnesses. Whiskers follow the Tukey convention (1.5 IQR, clamped to the
/// most extreme data point inside the fence).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BoxplotSummary {
    pub min: f64,
    pub whisker_lo: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub whisker_hi: f64,
    pub max: f64,
    pub mean: f64,
    pub n: usize,
    pub n_outliers: usize,
}

/// Computes the [`BoxplotSummary`] of `data`.
pub fn five_number_summary(data: &[f64]) -> BoxplotSummary {
    assert!(!data.is_empty(), "summary of empty slice");
    let mut sorted = data.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let q1 = quantile_sorted(&sorted, 0.25);
    let median = quantile_sorted(&sorted, 0.5);
    let q3 = quantile_sorted(&sorted, 0.75);
    let iqr = q3 - q1;
    let fence_lo = q1 - 1.5 * iqr;
    let fence_hi = q3 + 1.5 * iqr;
    let whisker_lo = sorted
        .iter()
        .copied()
        .find(|&x| x >= fence_lo)
        .unwrap_or(sorted[0]);
    let whisker_hi = sorted
        .iter()
        .rev()
        .copied()
        .find(|&x| x <= fence_hi)
        .unwrap_or(sorted[sorted.len() - 1]);
    let n_outliers = sorted
        .iter()
        .filter(|&&x| x < whisker_lo || x > whisker_hi)
        .count();
    BoxplotSummary {
        min: sorted[0],
        whisker_lo,
        q1,
        median,
        q3,
        whisker_hi,
        max: sorted[sorted.len() - 1],
        mean: mean(data),
        n: data.len(),
        n_outliers,
    }
}

impl BoxplotSummary {
    /// Compact single-line rendering: `med 0.500 [q1 0.48, q3 0.52] ...`.
    pub fn compact(&self) -> String {
        format!(
            "med {:>9.4}  [q1 {:>9.4}, q3 {:>9.4}]  whisk [{:>9.4}, {:>9.4}]  mean {:>9.4}  (n={}, outliers={})",
            self.median,
            self.q1,
            self.q3,
            self.whisker_lo,
            self.whisker_hi,
            self.mean,
            self.n,
            self.n_outliers
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_known_values() {
        let d = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&d) - 5.0).abs() < 1e-15);
        // Sample variance with n-1 = 7: sum of squares = 32 -> 32/7.
        assert!((sample_variance(&d) - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_mean_is_nan() {
        assert!(mean(&[]).is_nan());
        assert!(sample_variance(&[1.0]).is_nan());
    }

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
    fn mse_zero_for_identical() {
        let a = [1.0, 2.0, 3.0];
        assert_eq!(mse(&a, &a), 0.0);
        assert!((mse(&[0.0, 0.0], &[1.0, 3.0]) - 5.0).abs() < 1e-15);
    }

    #[test]
    fn boxplot_summary_on_uniform_grid() {
        let d: Vec<f64> = (0..101).map(|i| i as f64).collect();
        let s = five_number_summary(&d);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 100.0);
        assert!((s.median - 50.0).abs() < 1e-12);
        assert!((s.q1 - 25.0).abs() < 1e-12);
        assert!((s.q3 - 75.0).abs() < 1e-12);
        assert_eq!(s.n_outliers, 0);
        assert_eq!(s.n, 101);
    }

    #[test]
    fn boxplot_detects_outliers() {
        let mut d: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
        d.push(50.0); // gross outlier
        let s = five_number_summary(&d);
        assert_eq!(s.n_outliers, 1);
        assert!(s.whisker_hi < 50.0);
        assert_eq!(s.max, 50.0);
    }

    #[test]
    fn single_element_summary() {
        let s = five_number_summary(&[3.5]);
        assert_eq!(s.min, 3.5);
        assert_eq!(s.median, 3.5);
        assert_eq!(s.max, 3.5);
    }
}
