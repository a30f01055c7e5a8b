//! Sample summaries: every timing is reported as a median with its sample
//! count and the highest percentile that still has ten samples beyond it.

use exa_util::stats::quantile_sorted;

/// Timing samples of one metric (any unit).
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max)
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.values.clone();
        v.sort_by(|a, b| a.total_cmp(b));
        v
    }

    /// The median; panics on an empty set (a harness bug, not an input).
    pub fn median(&self) -> f64 {
        assert!(!self.values.is_empty(), "median of no samples");
        quantile_sorted(&self.sorted(), 0.5)
    }

    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.values.is_empty(), "quantile of no samples");
        quantile_sorted(&self.sorted(), q)
    }

    /// The highest of p90/p95/p99/p99.9 with at least ten samples beyond
    /// it, as `(label, value)`; `None` below 100 samples.
    pub fn tail(&self) -> Option<(&'static str, f64)> {
        let n = self.values.len();
        [("p99.9", 999), ("p99", 990), ("p95", 950), ("p90", 900)]
            .into_iter()
            .find(|&(_, permille)| n * (1000 - permille) >= 10 * 1000)
            .map(|(label, permille)| (label, self.quantile(permille as f64 / 1000.0)))
    }

    /// `"n=…"` plus the tail percentile, for the human-readable table.
    pub fn describe(&self) -> String {
        match self.tail() {
            Some((label, v)) => format!("n={} {label}={v:.1}", self.len()),
            None => format!("n={}", self.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let mut s = Samples::default();
        for i in 0..99 {
            s.push(i as f64);
        }
        assert!(s.tail().is_none());
        s.push(99.0);
        assert_eq!(s.tail().unwrap().0, "p90");
        for i in 100..1000 {
            s.push(i as f64);
        }
        assert_eq!(s.tail().unwrap().0, "p99");
        assert_eq!(s.median(), 499.5);
    }
}
