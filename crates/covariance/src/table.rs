//! The Matérn radial function as a table lookup (general smoothness).
//!
//! With `x = r/θ₂` the Matérn covariance factors as `θ₁ · h_ν(x) · e⁻ˣ`,
//!
//! `h_ν(x) = eˣ · 2^{1−ν}/Γ(ν) · x^ν · K_ν(x)`,   `h_ν(0) = 1`,
//!
//! a smooth positive function whose only singularity is the `x^{2ν}` branch
//! point at the origin. ν is one number per likelihood evaluation while `x`
//! takes millions of values, so [`MaternTable`] fits `h_ν` once and every
//! entry of `Σ(θ)` becomes a polynomial evaluation and one `exp` instead of
//! a Temme series or a continued fraction.
//!
//! **Geometry.** Each octave `[2ᵏ, 2ᵏ⁺¹)` is cut into [`PANELS_PER_OCTAVE`]
//! equal panels, each carrying a degree-[`DEGREE`] Chebyshev interpolant.
//! Relative to its own width every panel sits equally far from the
//! singularity, so the fit's accuracy does not depend on the scale: at two
//! panels per octave and degree 14 the interpolant agrees with direct
//! evaluation to a few 10⁻¹⁵ relative on every panel for ν ∈ [0.1, 5] (the
//! scatter of the Bessel evaluations themselves; the tests hold 2·10⁻¹⁴
//! here and 10⁻¹³ through the kernel) — the `x^{2ν}` corner needs no series
//! of its own. The panel index is the exponent and the top mantissa bit of `x`; the
//! position inside the panel is the remaining mantissa, so a lookup costs no
//! division, logarithm or search.
//!
//! **Edges.** Above the top panel `e⁻ˣ` has underflowed and [`eval`] returns
//! exactly 0. Below the lowest panel (`x < 2⁻³⁰`: sites closer than a
//! billionth of the range) it evaluates `h_ν` directly — the function the
//! panels are sampled from, so there is still one definition. NaN in, NaN
//! out.
//!
//! **Cost.** Panels are built on first touch (15 Bessel evaluations, a few
//! microseconds), so the hundreds of tiny kernels a test suite builds pay
//! only for the octaves their distances reach, and a full table (80 panels,
//! ~0.4 ms) is 0.05 % of one n = 2304 likelihood evaluation. A panel's
//! coefficients depend only on `(ν, panel)`, never on which thread or which
//! kernel built it first: replicas agree bit for bit.
//!
//! [`eval`]: MaternTable::eval

use crate::bessel::bessel_k_scaled;
use crate::gamma::gamma;
use std::sync::OnceLock;

/// log₂ of the panels per octave: the panel index takes this many mantissa
/// bits below the exponent.
const OCTAVE_BITS: u32 = 1;
const PANELS_PER_OCTAVE: usize = 1 << OCTAVE_BITS;
/// Chebyshev degree per panel.
const DEGREE: usize = 14;
/// Lowest and one-past-highest tabulated binary exponent: panels cover
/// `[2⁻³⁰, 2¹⁰)`. `e⁻ˣ` is exactly 0 from x ≈ 746 on.
const MIN_EXP: i32 = -30;
const MAX_EXP: i32 = 10;
const N_PANELS: usize = (MAX_EXP - MIN_EXP) as usize * PANELS_PER_OCTAVE;

/// Bits of an `f64` below the panel index (exponent + `OCTAVE_BITS`).
const INDEX_SHIFT: u32 = 52 - OCTAVE_BITS;
/// `x.to_bits() >> INDEX_SHIFT` of the lowest tabulated `x`.
const INDEX_BASE: u64 = ((1023 + MIN_EXP) as u64) << OCTAVE_BITS;
const MANTISSA_MASK: u64 = (1 << 52) - 1;
const ONE_BITS: u64 = 1023 << 52;
/// `2^MAX_EXP`: the end of the top panel.
const X_END: f64 = f64::from_bits(((1023 + MAX_EXP) as u64) << 52);

type Panel = [f64; DEGREE + 1];

/// Piecewise-Chebyshev table of `h_ν` for one smoothness ν.
#[derive(Debug)]
pub(crate) struct MaternTable {
    nu: f64,
    /// `2^{1−ν}/Γ(ν)`.
    norm: f64,
    panels: Box<[OnceLock<Panel>]>,
}

impl MaternTable {
    /// An empty table for smoothness `nu > 0`; panels fill in as [`eval`]
    /// touches them.
    ///
    /// [`eval`]: MaternTable::eval
    pub(crate) fn new(nu: f64) -> Self {
        MaternTable {
            nu,
            norm: (1.0 - nu).exp2() / gamma(nu),
            panels: (0..N_PANELS).map(|_| OnceLock::new()).collect(),
        }
    }

    /// `h_ν(x) · e⁻ˣ`: the Matérn correlation at scaled distance `x ≥ 0`.
    #[inline]
    pub(crate) fn eval(&self, x: f64) -> f64 {
        let index = (x.to_bits() >> INDEX_SHIFT).wrapping_sub(INDEX_BASE);
        // Negative, NaN, zero and sub-table arguments all wrap or land past
        // the end, so the common case is this one comparison.
        if index >= N_PANELS as u64 {
            return self.eval_outside(x);
        }
        let index = index as usize;
        let coeffs = self.panels[index].get_or_init(|| self.build_panel(index));
        // Mantissa in [1, 2) → t in [−1, 1) across the panel; every step is
        // exact.
        let m = f64::from_bits((x.to_bits() & MANTISSA_MASK) | ONE_BITS);
        let sub = (index % PANELS_PER_OCTAVE) as f64;
        let t = (m - 1.0) * (2 * PANELS_PER_OCTAVE) as f64 - (2.0 * sub + 1.0);
        correlation(clenshaw(coeffs, t), x)
    }

    /// Arguments no panel covers.
    #[cold]
    fn eval_outside(&self, x: f64) -> f64 {
        if x == 0.0 {
            1.0
        } else if x >= X_END {
            0.0 // e⁻ˣ = 0 in f64 (also x = +∞)
        } else if x > 0.0 {
            correlation(self.h_direct(x), x)
        } else {
            f64::NAN // NaN, or a negative "distance"
        }
    }

    /// `h_ν(x)` straight from the Bessel function: what the panels sample,
    /// and the evaluation below the lowest panel.
    fn h_direct(&self, x: f64) -> f64 {
        let ks = bessel_k_scaled(self.nu, x);
        if ks == f64::INFINITY {
            // K_ν(x) ~ ½Γ(ν)(2/x)^ν overflowed, so x^{2·min(ν,1)} — the size
            // of 1 − h_ν(x) — is far below one ulp.
            return 1.0;
        }
        self.norm * x.powf(self.nu) * ks
    }

    /// Chebyshev coefficients of `h_ν` on panel `index`, from its values at
    /// the `DEGREE + 1` Chebyshev nodes.
    fn build_panel(&self, index: usize) -> Panel {
        const N: usize = DEGREE + 1;
        let (lo, width) = panel_span(index);
        let half_width = 0.5 * width;
        let angle = |j: usize| std::f64::consts::PI * (j as f64 + 0.5) / N as f64;
        let mut samples = [0.0; N];
        for (j, s) in samples.iter_mut().enumerate() {
            *s = self.h_direct(lo + half_width * (1.0 + angle(j).cos()));
        }
        let mut coeffs = [0.0; N];
        for (k, c) in coeffs.iter_mut().enumerate() {
            let sum: f64 = (0..N)
                .map(|j| samples[j] * (k as f64 * angle(j)).cos())
                .sum();
            *c = sum * if k == 0 { 1.0 } else { 2.0 } / N as f64;
        }
        coeffs
    }
}

/// Panel `index` covers `[lo, lo + width)`; returns `(lo, width)`.
fn panel_span(index: usize) -> (f64, f64) {
    let octave = (2.0f64).powi(MIN_EXP + (index / PANELS_PER_OCTAVE) as i32);
    let width = octave / PANELS_PER_OCTAVE as f64;
    (octave + width * (index % PANELS_PER_OCTAVE) as f64, width)
}

/// `h·e⁻ˣ`, held to the bound every correlation obeys: next to the origin
/// `h_ν → 1` and the last-ulp scatter of its samples would otherwise put
/// near-duplicate sites a few 1e-16 above the sill. NaN stays NaN.
#[inline(always)]
fn correlation(h: f64, x: f64) -> f64 {
    let c = h * (-x).exp();
    if c > 1.0 {
        1.0
    } else {
        c
    }
}

/// `Σ cₖ·Tₖ(t)` by Clenshaw's recurrence.
#[inline(always)]
fn clenshaw(coeffs: &Panel, t: f64) -> f64 {
    let t2 = 2.0 * t;
    let (mut b1, mut b2) = (0.0, 0.0);
    for &c in coeffs[1..].iter().rev() {
        (b1, b2) = (t2 * b1 + (c - b2), b1); // (c − b2) is off the dependency chain
    }
    t * b1 + (coeffs[0] - b2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(table: &MaternTable, x: f64) -> f64 {
        correlation(table.h_direct(x), x)
    }

    #[test]
    fn panel_geometry_is_what_the_bit_arithmetic_assumes() {
        // First and last tabulated arguments index the first and last panel;
        // their neighbours fall outside.
        let lo = (2.0f64).powi(MIN_EXP);
        let hi = X_END;
        assert_eq!(hi, (2.0f64).powi(MAX_EXP));
        let index = |x: f64| (x.to_bits() >> INDEX_SHIFT).wrapping_sub(INDEX_BASE);
        assert_eq!(index(lo), 0);
        assert_eq!(index(hi.next_down()), N_PANELS as u64 - 1);
        for outside in [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            lo.next_down(),
            hi,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
            -1.0,
            f64::NEG_INFINITY,
        ] {
            assert!(index(outside) >= N_PANELS as u64, "{outside}");
        }
    }

    #[test]
    fn edges_are_exact() {
        let t = MaternTable::new(0.8);
        assert_eq!(t.eval(0.0), 1.0);
        assert_eq!(t.eval(X_END), 0.0);
        assert_eq!(t.eval(f64::INFINITY), 0.0);
        assert!(t.eval(f64::NAN).is_nan());
        assert!(t.eval(-1.0).is_nan());
        // Nothing above was a table lookup.
        assert!(t.panels.iter().all(|p| p.get().is_none()));
    }

    #[test]
    fn panels_are_built_on_first_touch_only() {
        let t = MaternTable::new(1.3);
        t.eval(0.7);
        t.eval(0.6); // same panel: [0.5, 0.75)
        assert_eq!(t.panels.iter().filter(|p| p.get().is_some()).count(), 1);
        t.eval(0.8);
        assert_eq!(t.panels.iter().filter(|p| p.get().is_some()).count(), 2);
    }

    #[test]
    fn interpolant_matches_direct_evaluation_across_every_panel() {
        // A dense deterministic sweep (the proptest in tests/ draws ν and x
        // at random through the public kernel): 7 points per panel including
        // both ends.
        let orders: &[f64] = if cfg!(miri) {
            &[0.8] // interpreted: one order exercises every panel's arithmetic
        } else {
            &[0.1, 0.5 + 1e-7, 0.8, 1.0, 2.3, 3.0, 5.0]
        };
        for &nu in orders {
            let table = MaternTable::new(nu);
            let mut worst = 0.0f64;
            for index in 0..N_PANELS {
                let (lo, width) = panel_span(index);
                for step in 0..7 {
                    // The last step stops one ulp short: inside this panel.
                    let x = (lo + width * step as f64 / 6.0).min((lo + width).next_down());
                    let want = reference(&table, x);
                    if want > 1e-300 {
                        worst = worst.max(((table.eval(x) - want) / want).abs());
                    }
                }
            }
            // The Bessel evaluations themselves scatter by a few 1e-15.
            assert!(worst <= 2e-14, "nu={nu}: worst relative error {worst:e}");
        }
    }
}
