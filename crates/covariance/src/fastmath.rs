//! Branchless transcendental kernels for blocked covariance fills.
//!
//! The serving-oriented prediction path (`FittedModel::predict_batch`) fills
//! cross-covariance blocks row by row; at `n = 1024` observed sites a single
//! point prediction is ~1k kernel evaluations, and the libm `exp` call inside
//! [`MaternParams::covariance`] blocks auto-vectorization of that loop. This
//! module provides [`exp_neg`], a branchless exponential for non-positive
//! arguments that LLVM vectorizes on the baseline `x86-64` target (no
//! `roundpd` / `blendv` needed): round-to-nearest via the 2⁵²+2⁵¹ magic
//! constant, a degree-10 polynomial on `|r| ≤ ln2/2`, and the power-of-two
//! scaling assembled directly in the exponent bits.
//!
//! Accuracy: relative error ≤ ~3·10⁻¹³ against libm over the full domain —
//! far below the covariance tolerances anywhere in the pipeline (the TLR
//! backend itself truncates at 10⁻⁵…10⁻¹²). Inputs below −708 flush to the
//! smallest normal scale (≈ 3·10⁻³⁰⁸), which is zero for covariance purposes.
//!
//! [`MaternParams::covariance`]: crate::MaternParams::covariance

const LN2: f64 = std::f64::consts::LN_2;
/// 2⁵² + 2⁵¹: adding then subtracting rounds a |value| < 2⁵¹ to the nearest
/// integer, and leaves that integer (two's complement) in the low mantissa
/// bits of the intermediate sum.
const MAGIC: f64 = 6755399441055744.0;

/// `e^x` for `x ≤ 0`, branchless and auto-vectorizable.
///
/// See the module docs for the construction and accuracy. Callers must not
/// pass positive `x` above ~700 (the exponent assembly would wrap); the
/// covariance fills only ever evaluate `e^{-t}` with `t ≥ 0`.
#[inline(always)]
pub fn exp_neg(x: f64) -> f64 {
    // Clamp far-underflow: exp(-708) ≈ 3e-308 is zero for covariance work,
    // and the clamp keeps the exponent-bit assembly in the normal range.
    let x = x.max(-708.0);
    let kd = x * (1.0 / LN2) + MAGIC;
    let k = kd - MAGIC; // round-to-nearest(x / ln 2), branchless
    let r = x - k * LN2;
    // Degree-10 Taylor on |r| ≤ ln2/2 (Horner); max relative error ~1e-16
    // for the polynomial itself.
    let p = 1.0
        + r * (1.0
            + r * (0.5
                + r * (1.0 / 6.0
                    + r * (1.0 / 24.0
                        + r * (1.0 / 120.0
                            + r * (1.0 / 720.0
                                + r * (1.0 / 5040.0
                                    + r * (1.0 / 40320.0
                                        + r * (1.0 / 362880.0 + r * (1.0 / 3628800.0))))))))));
    // 2^k: `k` sits in the low mantissa bits of `kd`; add the bias there and
    // shift it into the exponent field.
    let two_k = f64::from_bits(kd.to_bits().wrapping_add(1023) << 52);
    p * two_k
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Miri interprets; it samples the sweeps instead of walking them.
    const STRIDE: usize = if cfg!(miri) { 101 } else { 1 };

    #[test]
    fn matches_libm_over_the_covariance_domain() {
        // Sweep the arguments covariance fills produce: -r/β and -(r/β)²
        // over many decades.
        let mut max_rel = 0.0f64;
        for i in (0..200_000).step_by(STRIDE) {
            let x = -(i as f64) * 0.003; // 0 .. -600
            let got = exp_neg(x);
            let want = x.exp();
            if want > 0.0 {
                max_rel = max_rel.max(((got - want) / want).abs());
            }
        }
        assert!(max_rel < 5e-13, "max relative error {max_rel:e}");
    }

    #[test]
    fn dense_sweep_near_zero() {
        let mut max_rel = 0.0f64;
        for i in (0..100_000).step_by(STRIDE) {
            let x = -(i as f64) * 1e-7; // 0 .. -0.01: the strongly-correlated regime
            let got = exp_neg(x);
            let want = x.exp();
            max_rel = max_rel.max(((got - want) / want).abs());
        }
        assert!(max_rel < 5e-13, "max relative error {max_rel:e}");
    }

    #[test]
    fn exact_at_zero_and_monotone_flush_to_zero() {
        assert_eq!(exp_neg(0.0), 1.0);
        // Far underflow flushes to a value indistinguishable from zero at
        // covariance scales.
        assert!(exp_neg(-1000.0) < 1e-300);
        assert!(exp_neg(-f64::INFINITY) < 1e-300);
        // Monotone across the clamp boundary.
        assert!(exp_neg(-700.0) >= exp_neg(-708.0));
    }
}
