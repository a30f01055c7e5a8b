//! Modified Bessel function of the second kind `K_ν(x)` for real order.
//!
//! This is the special-function core of the Matérn family (paper Eq. 5),
//! substituting for GSL's `gsl_sf_bessel_Knu`. Two regimes:
//!
//! * `x < 2`: Temme's series (Temme, *J. Comput. Phys.* 19, 1975) for
//!   `K_μ`/`K_{μ+1}` with `|μ| ≤ 1/2`, followed by upward recurrence
//!   `K_{ν+1} = K_{ν−1} + (2ν/x)·K_ν`.
//! * `x ≥ 2`: Steed's continued-fraction CF2 evaluation of `K_μ`, `K_{μ+1}`,
//!   then the same recurrence.
//!
//! The *scaled* variant `e^x·K_ν(x)` is exposed so the Matérn covariance can
//! be evaluated in log space without underflow at large distances.

use crate::gamma::temme_gammas;

const EPS: f64 = 1e-16;
const MAX_ITER: usize = 10_000;

/// `K_ν(x)` for real `ν` (the function is even in its order:
/// `K_{−ν} = K_ν`), `x > 0`. Returns `0.0` when the true value underflows
/// `f64` (large `x`), and `+∞` as `x → 0⁺` overflows.
pub fn bessel_k(nu: f64, x: f64) -> f64 {
    let scaled = bessel_k_scaled(nu.abs(), x);
    // K = e^{-x} · (e^x K): do the rescale in log space to honour underflow.
    if scaled == 0.0 || !scaled.is_finite() {
        return scaled;
    }
    let ln = scaled.ln() - x;
    if ln < -745.0 {
        0.0
    } else {
        ln.exp()
    }
}

/// Scaled modified Bessel function `e^x · K_ν(x)` for `ν ≥ 0`, `x > 0`.
///
/// Returns NaN for a NaN `x` and when the series or continued fraction
/// fails to converge (a caller sees a rejected point, never a truncated
/// sum), and the limit 0 at `x = +∞` — neither reaches the iterations.
pub fn bessel_k_scaled(nu: f64, x: f64) -> f64 {
    assert!(nu >= 0.0, "order must be non-negative (got {nu})");
    if x.is_nan() {
        return f64::NAN;
    }
    assert!(x > 0.0, "argument must be positive (got {x})");
    if x == f64::INFINITY {
        return 0.0;
    }
    // Split ν = μ + n with |μ| ≤ 1/2.
    let n = (nu + 0.5).floor() as usize;
    let mu = nu - n as f64;
    // The seam sits on a power of two so that every panel of the Matérn table
    // (crate::table) samples one regime only.
    let (mut k_mu, mut k_mu1) = if x < 2.0 {
        let (a, b) = temme_small_x(mu, x);
        // Temme yields unscaled values; scale by e^x (safe: x < 2).
        let ex = x.exp();
        (a * ex, b * ex)
    } else {
        steed_cf2_scaled(mu, x)
    };
    // Upward recurrence in the order: K_{ν+1}(x) = 2ν/x · K_ν(x) + K_{ν−1}(x).
    // (The recurrence is identical for the scaled values.)
    let xi2 = 2.0 / x;
    for i in 0..n {
        let next = (mu + i as f64 + 1.0) * xi2 * k_mu1 + k_mu;
        k_mu = k_mu1;
        k_mu1 = next;
        if k_mu == f64::INFINITY {
            return f64::INFINITY;
        }
    }
    k_mu
}

/// Temme series: returns (K_μ(x), K_{μ+1}(x)) unscaled, for `x < 2`,
/// `|μ| ≤ 1/2`; NaN if the series has not converged in `MAX_ITER` terms.
fn temme_small_x(mu: f64, x: f64) -> (f64, f64) {
    let x2 = 0.5 * x;
    let mu2 = mu * mu;
    let pimu = std::f64::consts::PI * mu;
    let fact = if pimu.abs() < EPS {
        1.0
    } else {
        pimu / pimu.sin()
    };
    let d = -x2.ln();
    let e = mu * d;
    let fact2 = if e.abs() < EPS { 1.0 } else { e.sinh() / e };
    let (gam1, gam2, gampl, gammi) = temme_gammas(mu);
    // f₀, p₀, q₀ of Temme's recursion.
    let mut ff = fact * (gam1 * e.cosh() + gam2 * fact2 * d);
    let mut sum = ff;
    let e_exp = e.exp();
    let mut p = 0.5 * e_exp / gampl; // = ½ (x/2)^{-μ} Γ(1+μ)
    let mut q = 0.5 / (e_exp * gammi); // = ½ (x/2)^{+μ} Γ(1−μ)
    let mut c = 1.0;
    let d2 = x2 * x2;
    let mut sum1 = p;
    let mut converged = false;
    for i in 1..=MAX_ITER {
        let fi = i as f64;
        ff = (fi * ff + p + q) / (fi * fi - mu2);
        c *= d2 / fi;
        p /= fi - mu;
        q /= fi + mu;
        let del = c * ff;
        sum += del;
        let del1 = c * (p - fi * ff);
        sum1 += del1;
        if del.abs() < sum.abs() * EPS {
            converged = true;
            break;
        }
    }
    if !converged {
        return (f64::NAN, f64::NAN);
    }
    (sum, sum1 * 2.0 / x)
}

/// Steed's CF2: returns scaled (e^x K_μ(x), e^x K_{μ+1}(x)) for `x ≥ 2`,
/// `|μ| ≤ 1/2`; NaN if the fraction has not converged in `MAX_ITER` terms.
fn steed_cf2_scaled(mu: f64, x: f64) -> (f64, f64) {
    let mu2 = mu * mu;
    let mut b = 2.0 * (1.0 + x);
    let mut d = 1.0 / b;
    let mut h = d;
    let mut delh = d;
    let mut q1 = 0.0f64;
    let mut q2 = 1.0f64;
    let a1 = 0.25 - mu2;
    let mut q = a1;
    let mut c = a1;
    let mut a = -a1;
    let mut s = 1.0 + q * delh;
    let mut converged = false;
    for i in 2..=MAX_ITER {
        let fi = i as f64;
        a -= 2.0 * (fi - 1.0);
        c = -a * c / fi;
        let qnew = (q1 - b * q2) / a;
        q1 = q2;
        q2 = qnew;
        q += c * qnew;
        b += 2.0;
        d = 1.0 / (b + a * d);
        delh *= b * d - 1.0;
        h += delh;
        let dels = q * delh;
        s += dels;
        if (dels / s).abs() < EPS {
            converged = true;
            break;
        }
    }
    if !converged {
        return (f64::NAN, f64::NAN);
    }
    let h = a1 * h;
    // Scaled: e^x K_μ = sqrt(π/(2x)) / s.
    let k_mu = (std::f64::consts::PI / (2.0 * x)).sqrt() / s;
    let k_mu1 = k_mu * (mu + x + 0.5 - h) / x;
    (k_mu, k_mu1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference values from standard tables (Abramowitz & Stegun / SciPy).
    #[test]
    fn known_integer_orders() {
        let cases = [
            (0.0, 1.0, 0.421_024_438_240_708_34),
            (1.0, 1.0, 0.601_907_230_197_234_6),
            (0.0, 2.0, 0.113_893_872_749_533_44),
            (1.0, 2.0, 0.139_865_881_816_522_43),
            (0.0, 0.1, 2.427_069_024_702_017),
            (1.0, 0.1, 9.853_844_780_870_606),
            (0.0, 5.0, 3.691_098_334_042_594e-3),
            (1.0, 5.0, 4.044_613_445_452_164e-3),
            (2.0, 1.0, 1.624_838_898_635_177_4),
        ];
        for &(nu, x, want) in &cases {
            let got = bessel_k(nu, x);
            assert!(
                ((got - want) / want).abs() < 1e-12,
                "K_{nu}({x}) = {got}, want {want}"
            );
        }
    }

    #[test]
    fn half_integer_closed_forms() {
        // K_{1/2}(x) = sqrt(π/(2x)) e^{-x}; K_{3/2} adds (1 + 1/x);
        // K_{5/2} adds (1 + 3/x + 3/x²).
        for &x in &[0.05, 0.3, 1.0, 2.0, 2.5, 7.0, 30.0] {
            let base = (std::f64::consts::PI / (2.0 * x)).sqrt() * (-x).exp();
            let k12 = bessel_k(0.5, x);
            let k32 = bessel_k(1.5, x);
            let k52 = bessel_k(2.5, x);
            assert!(((k12 - base) / base).abs() < 1e-12, "K_1/2({x})");
            let want32 = base * (1.0 + 1.0 / x);
            assert!(((k32 - want32) / want32).abs() < 1e-12, "K_3/2({x})");
            let want52 = base * (1.0 + 3.0 / x + 3.0 / (x * x));
            assert!(((k52 - want52) / want52).abs() < 1e-12, "K_5/2({x})");
        }
    }

    #[test]
    fn recurrence_property_generic_orders() {
        // K_{ν+1}(x) = K_{ν−1}(x) + (2ν/x) K_ν(x).
        for &nu in &[0.3, 0.73, 1.21, 1.9, 3.4] {
            for &x in &[0.2, 1.0, 1.9, 2.1, 4.0, 11.0] {
                let a = bessel_k(nu, x);
                let b = if nu >= 1.0 {
                    bessel_k(nu - 1.0, x)
                } else {
                    // K_{−μ}(x) = K_{μ}(x).
                    bessel_k(1.0 - nu, x)
                };
                let c = bessel_k(nu + 1.0, x);
                let rhs = b + (2.0 * nu / x) * a;
                assert!(
                    ((c - rhs) / c).abs() < 1e-10,
                    "recurrence at nu={nu}, x={x}: {c} vs {rhs}"
                );
            }
        }
    }

    #[test]
    fn continuity_across_branch_boundary() {
        // The Temme (x≤2) and CF2 (x>2) branches must agree at the seam.
        for &nu in &[0.0, 0.4, 0.5, 1.0, 1.37, 2.8] {
            let below = bessel_k(nu, 2.0 - 1e-9);
            let above = bessel_k(nu, 2.0 + 1e-9);
            assert!(
                ((below - above) / below).abs() < 1e-7,
                "nu={nu}: {below} vs {above}"
            );
        }
    }

    #[test]
    fn scaled_variant_consistent_with_unscaled() {
        for &nu in &[0.5, 1.0, 2.3] {
            for &x in &[0.5, 2.0, 10.0, 50.0] {
                let k = bessel_k(nu, x);
                let ks = bessel_k_scaled(nu, x);
                assert!(((ks * (-x).exp() - k) / k).abs() < 1e-12, "nu={nu} x={x}");
            }
        }
    }

    #[test]
    fn no_underflow_in_scaled_form_at_large_x() {
        // Unscaled underflows past x ≈ 745; scaled stays finite and follows
        // the asymptotic sqrt(π/(2x)).
        let x = 2000.0;
        let ks = bessel_k_scaled(1.0, x);
        let asym = (std::f64::consts::PI / (2.0 * x)).sqrt();
        assert!(ks.is_finite() && ks > 0.0);
        assert!(((ks - asym) / asym).abs() < 1e-3);
        assert_eq!(bessel_k(1.0, x), 0.0); // honest underflow
    }

    #[test]
    fn monotone_decreasing_in_x() {
        for &nu in &[0.5, 1.0, 1.5, 2.7] {
            let mut prev = f64::INFINITY;
            for i in 1..100 {
                let x = i as f64 * 0.25;
                let k = bessel_k(nu, x);
                assert!(k < prev, "K_{nu} not decreasing at x={x}");
                prev = k;
            }
        }
    }

    #[test]
    fn increasing_in_order_for_fixed_x() {
        // For fixed x, K_ν(x) increases with ν ≥ 0.
        let x = 1.7;
        let mut prev = 0.0;
        for i in 0..20 {
            let nu = i as f64 * 0.35;
            let k = bessel_k(nu, x);
            assert!(k >= prev, "not increasing at nu={nu}");
            prev = k;
        }
    }

    #[test]
    fn small_x_divergence() {
        // K_0(x) ~ -ln(x/2) - γ as x→0.
        let x = 1e-8;
        let want = -(x / 2.0f64).ln() - crate::gamma::EULER_GAMMA;
        let got = bessel_k(0.0, x);
        assert!(((got - want) / want).abs() < 1e-8);
    }

    #[test]
    #[should_panic(expected = "argument must be positive")]
    fn rejects_zero_argument() {
        bessel_k(1.0, 0.0);
    }
}
