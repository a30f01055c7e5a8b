//! The Matérn covariance family (paper Eq. 5).
//!
//! `C(r; θ) = θ₁ · 2^{1−θ₃}/Γ(θ₃) · (r/θ₂)^{θ₃} · K_{θ₃}(r/θ₂)`
//!
//! with variance `θ₁ > 0`, spatial range `θ₂ > 0` and smoothness `θ₃ > 0`.
//! Special cases used throughout the paper: `θ₃ = 1/2` (exponential, rough
//! field), `θ₃ = 1` (Whittle, smooth field); `θ₃ → ∞` is the Gaussian kernel.

use crate::bessel::bessel_k_scaled;
use crate::gamma::ln_gamma;

/// Parameter vector `θ = (θ₁, θ₂, θ₃)` of the Matérn family.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MaternParams {
    /// Variance θ₁ (> 0).
    pub variance: f64,
    /// Spatial range θ₂ (> 0); the paper uses 0.03 / 0.1 / 0.3 on the unit
    /// square for weak / medium / strong correlation.
    pub range: f64,
    /// Smoothness θ₃ (> 0); 0.5 = rough, 1 = smooth; rarely above 2 in
    /// geophysical applications.
    pub smoothness: f64,
}

impl MaternParams {
    pub fn new(variance: f64, range: f64, smoothness: f64) -> Self {
        let p = MaternParams {
            variance,
            range,
            smoothness,
        };
        p.validate().expect("invalid Matérn parameters");
        p
    }

    /// Checks positivity of all three parameters.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.variance > 0.0 && self.variance.is_finite()) {
            return Err(format!("variance must be positive, got {}", self.variance));
        }
        if !(self.range > 0.0 && self.range.is_finite()) {
            return Err(format!("range must be positive, got {}", self.range));
        }
        if !(self.smoothness > 0.0 && self.smoothness.is_finite()) {
            return Err(format!(
                "smoothness must be positive, got {}",
                self.smoothness
            ));
        }
        Ok(())
    }

    /// As a `[θ₁, θ₂, θ₃]` array (the optimizer's parameter vector layout).
    pub fn to_array(&self) -> [f64; 3] {
        [self.variance, self.range, self.smoothness]
    }

    /// From a `[θ₁, θ₂, θ₃]` array.
    pub fn from_array(theta: [f64; 3]) -> Self {
        MaternParams {
            variance: theta[0],
            range: theta[1],
            smoothness: theta[2],
        }
    }

    /// Covariance at distance `r ≥ 0`.
    ///
    /// Evaluated in log space through the *scaled* Bessel function so large
    /// `r/θ₂` underflows gracefully to 0 instead of producing `0 · ∞`.
    pub fn covariance(&self, r: f64) -> f64 {
        debug_assert!(r >= 0.0 || r.is_nan(), "distance must be non-negative"); // NaN propagates
        if r == 0.0 {
            return self.variance;
        }
        let nu = self.smoothness;
        let x = r / self.range;
        // Fast paths for the half-integer smoothness values that dominate the
        // paper's experiments (θ₃ = 0.5 everywhere in the synthetic study).
        if nu == 0.5 {
            return self.variance * (-x).exp();
        }
        if nu == 1.5 {
            return self.variance * (1.0 + x) * (-x).exp();
        }
        if nu == 2.5 {
            return self.variance * (1.0 + x + x * x / 3.0) * (-x).exp();
        }
        // General order: ln C = ln θ₁ + (1−ν)ln2 − lnΓ(ν) + ν ln x − x
        //                + ln(eˣ K_ν(x)).
        let ks = bessel_k_scaled(nu, x);
        if ks <= 0.0 {
            return 0.0;
        }
        let ln_c = self.variance.ln() + (1.0 - nu) * std::f64::consts::LN_2 - ln_gamma(nu)
            + nu * x.ln()
            - x
            + ks.ln();
        if ln_c < -745.0 {
            0.0
        } else {
            ln_c.exp()
        }
    }

    /// Correlation at distance `r` (covariance normalized by θ₁).
    pub fn correlation(&self, r: f64) -> f64 {
        self.covariance(r) / self.variance
    }

    /// Effective range: the distance at which correlation drops to 0.05.
    /// Solved by bisection; useful for reporting and for tile-rank models.
    pub fn effective_range(&self) -> f64 {
        let target = 0.05;
        let mut lo = 0.0f64;
        let mut hi = self.range;
        while self.correlation(hi) > target {
            hi *= 2.0;
            if hi > 1e12 {
                return f64::INFINITY;
            }
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.correlation(mid) > target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bessel::bessel_k;
    use crate::gamma::gamma;

    #[test]
    fn zero_distance_gives_variance() {
        let p = MaternParams::new(2.5, 0.1, 0.5);
        assert_eq!(p.covariance(0.0), 2.5);
        assert_eq!(p.correlation(0.0), 1.0);
    }

    #[test]
    fn exponential_special_case() {
        let p = MaternParams::new(1.0, 0.3, 0.5);
        for &r in &[0.01, 0.1, 0.5, 2.0] {
            let want = (-r / 0.3f64).exp();
            assert!(((p.covariance(r) - want) / want).abs() < 1e-14);
        }
    }

    #[test]
    fn whittle_special_case_matches_direct_formula() {
        // θ₃ = 1: C = θ₁ (r/θ₂) K₁(r/θ₂).
        let p = MaternParams::new(1.0, 0.2, 1.0);
        for &r in &[0.05, 0.2, 0.7] {
            let x = r / 0.2;
            let want = x * bessel_k(1.0, x);
            let got = p.covariance(r);
            assert!(
                ((got - want) / want).abs() < 1e-12,
                "r={r}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn general_path_agrees_with_half_integer_shortcuts() {
        // Evaluate ν=0.5 and ν=1.5 through the generic Bessel path by nudging
        // the order, and compare with the closed forms.
        for &(nu, range) in &[(0.5f64, 0.1f64), (1.5, 0.3)] {
            let exact = MaternParams::new(1.0, range, nu);
            let generic = MaternParams::new(1.0, range, nu + 1e-9);
            for &r in &[0.02, 0.1, 0.4, 1.0] {
                let a = exact.covariance(r);
                let b = generic.covariance(r);
                assert!(
                    ((a - b) / a).abs() < 1e-6,
                    "nu={nu} r={r}: exact={a} generic={b}"
                );
            }
        }
    }

    #[test]
    fn matern_formula_explicit() {
        // Direct check of Eq. 5 for a generic order.
        let (t1, t2, t3) = (1.7, 0.25, 0.8);
        let p = MaternParams::new(t1, t2, t3);
        let r = 0.33;
        let x = r / t2;
        let want = t1 * (2.0f64).powf(1.0 - t3) / gamma(t3) * x.powf(t3) * bessel_k(t3, x);
        let got = p.covariance(r);
        assert!(((got - want) / want).abs() < 1e-12, "{got} vs {want}");
    }

    #[test]
    fn monotone_decreasing_and_positive() {
        for &nu in &[0.5, 0.8, 1.0, 1.4, 2.5] {
            let p = MaternParams::new(1.0, 0.1, nu);
            let mut prev = p.covariance(0.0);
            for i in 1..60 {
                let r = i as f64 * 0.02;
                let c = p.covariance(r);
                assert!(c >= 0.0);
                assert!(c <= prev + 1e-15, "nu={nu} r={r}");
                prev = c;
            }
        }
    }

    #[test]
    fn larger_smoothness_means_flatter_origin() {
        // Near r=0, correlation decays more slowly for smoother fields.
        let rough = MaternParams::new(1.0, 0.1, 0.5);
        let smooth = MaternParams::new(1.0, 0.1, 2.0);
        let r = 0.01;
        assert!(smooth.correlation(r) > rough.correlation(r));
    }

    #[test]
    fn no_underflow_panic_at_huge_distance() {
        let p = MaternParams::new(1.0, 0.03, 0.73);
        let c = p.covariance(1e6);
        assert_eq!(c, 0.0);
    }

    #[test]
    fn effective_range_scales_with_theta2() {
        let a = MaternParams::new(1.0, 0.1, 0.5).effective_range();
        let b = MaternParams::new(1.0, 0.2, 0.5).effective_range();
        assert!((b / a - 2.0).abs() < 1e-6);
        // Exponential: correlation = 0.05 at x = ln(20) ≈ 3: r = 0.1·3.
        assert!((a - 0.1 * (20.0f64).ln()).abs() < 1e-6);
    }

    #[test]
    fn to_from_array_roundtrip() {
        let p = MaternParams::new(1.2, 0.07, 0.9);
        assert_eq!(MaternParams::from_array(p.to_array()), p);
    }

    #[test]
    #[should_panic(expected = "invalid Matérn parameters")]
    fn rejects_nonpositive_range() {
        MaternParams::new(1.0, 0.0, 0.5);
    }
}
