//! Property-based tests for the special functions and the Matérn family:
//! textbook identities for `K_ν`, special-case reductions, and positive
//! definiteness of generated covariance matrices.

use exa_covariance::{
    bessel_k, bessel_k_scaled, euclidean, gamma, great_circle_km, CovarianceKernel, DistanceMetric,
    GaussianKernel, GaussianParams, Location, MaternKernel, MaternParams, ParamCovariance,
    PoweredExponentialKernel, PoweredExponentialParams,
};
use exa_util::Rng;
use proptest::prelude::*;
use std::sync::Arc;

/// `side²` unit-square grid points, each jittered inside its cell.
fn jittered_grid(side: usize, rng: &mut Rng) -> Vec<Location> {
    let mut locs = Vec::with_capacity(side * side);
    for i in 0..side {
        for j in 0..side {
            locs.push(Location::new(
                (i as f64 + 0.9 * rng.next_f64()) / side as f64,
                (j as f64 + 0.9 * rng.next_f64()) / side as f64,
            ));
        }
    }
    locs
}

/// A two-site kernel at unit range, so `cross(origin, (x, 0))` evaluates the
/// tabulated radial function at scaled distance exactly `x`.
fn unit_range_kernel(variance: f64, nu: f64) -> MaternKernel {
    MaternKernel::new(
        Arc::new(vec![Location::new(0.0, 0.0)]),
        MaternParams::new(variance, 1.0, nu),
        DistanceMetric::Euclidean,
        0.0,
    )
}

fn tabulated(kernel: &MaternKernel, x: f64) -> f64 {
    kernel.cross(&Location::new(0.0, 0.0), &Location::new(x, 0.0))
}

/// Paper Eq. 5 as written, `θ₁·2^{1−ν}/Γ(ν)·x^ν·K_ν(x)`, from the Bessel
/// port the table is sampled from.
fn bessel_reference(variance: f64, nu: f64, x: f64) -> f64 {
    variance * (1.0 - nu).exp2() / gamma(nu) * x.powf(nu) * bessel_k_scaled(nu, x) * (-x).exp()
}

/// `|tabulated − reference| ≤ 1e-13·reference` wherever the reference is a
/// normal number well clear of underflow.
fn assert_matches_reference(kernel: &MaternKernel, nu: f64, x: f64) {
    let variance = kernel.params().variance;
    let got = tabulated(kernel, x);
    let want = bessel_reference(variance, nu, x);
    assert!(
        got.is_finite() && (0.0..=variance).contains(&got),
        "ν={nu} x={x:e}: {got}"
    );
    if want > 1e-300 {
        assert!(
            (got - want).abs() <= 1e-13 * want,
            "ν={nu} x={x:e}: table {got:e} vs Bessel {want:e}"
        );
    }
}

#[test]
fn table_matches_bessel_at_every_panel_seam_and_both_edges() {
    // Seams sit at 2ᵏ and 1.5·2ᵏ; the sweep runs past both ends of the
    // table (2⁻³⁰ and 2¹⁰), so the direct evaluation below the lowest panel
    // and the exact zero above the top one are crossed one ulp at a time.
    for nu in [0.1, 0.3, 1.0, 2.9, 5.0] {
        let kernel = unit_range_kernel(1.7, nu);
        for k in -34..=12 {
            for seam in [(2.0f64).powi(k), 1.5 * (2.0f64).powi(k)] {
                for x in [seam.next_down(), seam, seam.next_up()] {
                    assert_matches_reference(&kernel, nu, x);
                }
            }
        }
        assert!(tabulated(&kernel, 1024.0f64.next_down()) >= 0.0);
        assert_eq!(tabulated(&kernel, 1024.0), 0.0);
        assert_eq!(tabulated(&kernel, 1e300), 0.0);
        assert_eq!(tabulated(&kernel, 0.0), 1.7);
    }
}

#[test]
fn near_duplicate_sites_stay_at_the_sill() {
    // r = 1e-14 is far below the lowest panel. 1 − ρ_ν(x) ~ x^{2·min(ν,1)},
    // which at ν = 0.3 is still 4e-9: close to the sill, never above it.
    for nu in [0.3, 1.0, 2.9] {
        let kernel = unit_range_kernel(2.5, nu);
        let c = tabulated(&kernel, 1e-14);
        assert!(c.is_finite() && c <= 2.5, "ν={nu}: {c}");
        assert!(2.5 - c <= 1e-8 * 2.5, "ν={nu}: {c}");
        assert_matches_reference(&kernel, nu, 1e-14);
    }
}

#[test]
fn independently_built_kernels_agree_bit_for_bit() {
    // Replica determinism: panels are built lazily, in whatever order the
    // queries arrive, and must not remember that order.
    let xs: Vec<f64> = (0..400).map(|i| 1e-9 * 1.07f64.powi(i)).collect();
    let a = unit_range_kernel(1.3, 0.83);
    let b = unit_range_kernel(1.3, 0.83);
    let forward: Vec<u64> = xs.iter().map(|&x| tabulated(&a, x).to_bits()).collect();
    let mut backward: Vec<u64> = xs
        .iter()
        .rev()
        .map(|&x| tabulated(&b, x).to_bits())
        .collect();
    backward.reverse();
    assert_eq!(forward, backward);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tabulated_matern_matches_the_bessel_reference(
        variance in 0.1f64..10.0,
        nu in 0.1f64..5.0,
        ln_x in -27.6f64..6.68, // x log-uniform in [1e-12, 800]
    ) {
        assert_matches_reference(&unit_range_kernel(variance, nu), nu, ln_x.exp());
    }

    #[test]
    fn tabulated_matern_holds_next_to_the_sensitive_orders(
        which in 0usize..4,
        offset in -1e-9f64..1e-9,
        ln_x in -27.6f64..6.68,
    ) {
        // Integer orders are where Temme's series switches to its μ → 0
        // limits; ½ and 3⁄2 are the closed forms' neighbours.
        let nu = [1.0, 2.0, 0.5, 1.5][which] + offset;
        assert_matches_reference(&unit_range_kernel(1.0, nu), nu, ln_x.exp());
    }

    #[test]
    fn general_smoothness_fills_agree_with_scalar_evaluation(
        n in 4usize..40,
        range in 0.02f64..0.4,
        nu in 0.1f64..5.0,
        nugget in 0.0f64..0.1,
        seed in 0u64..10_000,
    ) {
        // Tile assembly, TLR compression and the dense reference all assume
        // a generated tile equals its entries exactly; prediction rows
        // likewise against `cross`.
        let mut rng = Rng::seed_from_u64(seed);
        let locs: Vec<Location> = (0..n)
            .map(|_| Location::new(rng.next_f64(), rng.next_f64()))
            .collect();
        let kernel = MaternKernel::new(
            Arc::new(locs.clone()),
            MaternParams::new(1.3, range, nu),
            DistanceMetric::Euclidean,
            nugget,
        );
        let mut tile = vec![f64::NAN; n * n];
        kernel.fill_tile(0, n, 0, n, &mut tile, n);
        for j in 0..n {
            for i in 0..n {
                prop_assert_eq!(tile[i + j * n].to_bits(), kernel.entry(i, j).to_bits());
            }
        }
        let xs: Vec<f64> = locs.iter().map(|l| l.x).collect();
        let ys: Vec<f64> = locs.iter().map(|l| l.y).collect();
        let target = Location::new(rng.next_f64(), rng.next_f64());
        let mut row = vec![f64::NAN; n];
        kernel.fill_cross_row(&target, &xs, &ys, &mut row);
        for (got, loc) in row.iter().zip(&locs) {
            let want = ParamCovariance::cross(&kernel, &target, loc);
            prop_assert!((got - want).abs() <= 1e-12 * want.abs().max(1e-300));
        }
    }

    #[test]
    fn bessel_recurrence_holds(
        nu in 0.1f64..2.5,
        x in 0.05f64..20.0,
    ) {
        // K_{ν+1}(x) = K_{ν−1}(x) + (2ν/x)·K_ν(x).
        let km = bessel_k(nu - 1.0, x);
        let k0 = bessel_k(nu, x);
        let kp = bessel_k(nu + 1.0, x);
        let rhs = km + (2.0 * nu / x) * k0;
        prop_assert!(
            (kp - rhs).abs() <= 1e-8 * kp.abs().max(1e-300),
            "ν={nu} x={x}: {kp} vs {rhs}"
        );
    }

    #[test]
    fn bessel_symmetric_in_order(nu in 0.05f64..3.0, x in 0.05f64..20.0) {
        // K_{−ν}(x) = K_ν(x).
        let plus = bessel_k(nu, x);
        let minus = bessel_k(-nu, x);
        prop_assert!((plus - minus).abs() <= 1e-10 * plus.abs().max(1e-300));
    }

    #[test]
    fn matern_half_is_exponential(
        variance in 0.1f64..10.0,
        range in 0.01f64..2.0,
        r in 0.0f64..3.0,
    ) {
        let p = MaternParams::new(variance, range, 0.5);
        let want = variance * (-r / range).exp();
        let got = p.covariance(r);
        prop_assert!((got - want).abs() <= 1e-9 * want.abs().max(1e-300),
            "{got} vs {want}");
    }

    #[test]
    fn matern_three_halves_closed_form(
        variance in 0.1f64..10.0,
        range in 0.01f64..2.0,
        r in 1e-6f64..3.0,
    ) {
        // ν = 3/2: C(r) = σ²(1 + r/ρ)·exp(−r/ρ).
        let p = MaternParams::new(variance, range, 1.5);
        let s = r / range;
        let want = variance * (1.0 + s) * (-s).exp();
        let got = p.covariance(r);
        prop_assert!((got - want).abs() <= 1e-7 * want.abs().max(1e-300),
            "{got} vs {want}");
    }

    #[test]
    fn covariance_decreases_with_distance(
        variance in 0.1f64..10.0,
        range in 0.02f64..1.0,
        smoothness in 0.2f64..2.5,
        r1 in 0.01f64..1.0,
        dr in 0.01f64..1.0,
    ) {
        let p = MaternParams::new(variance, range, smoothness);
        prop_assert!(p.covariance(r1) > p.covariance(r1 + dr));
        prop_assert!(p.covariance(0.0) == variance);
    }

    #[test]
    fn covariance_matrix_is_positive_definite(
        n in 4usize..24,
        range in 0.02f64..0.4,
        smoothness in 0.3f64..1.8,
        seed in 0u64..10_000,
    ) {
        let mut rng = Rng::seed_from_u64(seed);
        let locs: Vec<Location> = (0..n)
            .map(|_| Location::new(rng.next_f64(), rng.next_f64()))
            .collect();
        let kernel = MaternKernel::new(
            Arc::new(locs),
            MaternParams::new(1.0, range, smoothness),
            DistanceMetric::Euclidean,
            1e-10,
        );
        let mut a = vec![0.0; n * n];
        kernel.fill_tile(0, n, 0, n, &mut a, n);
        prop_assert!(exa_linalg_potrf_ok(n, &mut a), "Σ(θ) must be SPD");
    }

    #[test]
    fn powered_exponential_matrix_is_positive_definite(
        side in 3usize..6,
        range in 0.02f64..0.4,
        power in 0.2f64..2.0,
        seed in 0u64..10_000,
    ) {
        // Jittered grid (the paper's synthetic geometry): the family must
        // stay SPD across the whole admissible power window.
        let n = side * side;
        let mut rng = Rng::seed_from_u64(seed);
        let locs = jittered_grid(side, &mut rng);
        let kernel = PoweredExponentialKernel::new(
            Arc::new(locs),
            PoweredExponentialParams::new(1.0, range, power),
            DistanceMetric::Euclidean,
            1e-8,
        );
        let mut a = vec![0.0; n * n];
        kernel.fill_tile(0, n, 0, n, &mut a, n);
        prop_assert!(exa_linalg_potrf_ok(n, &mut a), "powered-exponential Σ(θ) must be SPD");
    }

    #[test]
    fn gaussian_matrix_is_positive_definite(
        side in 3usize..6,
        range in 0.02f64..0.3,
        variance in 0.1f64..10.0,
        seed in 0u64..10_000,
    ) {
        // The Gaussian family is the worst-conditioned of the three; a small
        // nugget (as the session default applies) must keep Cholesky alive on
        // jittered grids.
        let n = side * side;
        let mut rng = Rng::seed_from_u64(seed);
        let locs = jittered_grid(side, &mut rng);
        let kernel = GaussianKernel::new(
            Arc::new(locs),
            GaussianParams::new(variance, range),
            DistanceMetric::Euclidean,
            1e-8 * variance,
        );
        let mut a = vec![0.0; n * n];
        kernel.fill_tile(0, n, 0, n, &mut a, n);
        prop_assert!(exa_linalg_potrf_ok(n, &mut a), "gaussian Σ(θ) must be SPD");
    }

    #[test]
    fn great_circle_bounds_and_symmetry(
        lon1 in -180.0f64..180.0,
        lat1 in -89.0f64..89.0,
        lon2 in -180.0f64..180.0,
        lat2 in -89.0f64..89.0,
    ) {
        let a = Location::new(lon1, lat1);
        let b = Location::new(lon2, lat2);
        let d = great_circle_km(&a, &b);
        prop_assert!(d >= 0.0);
        // Half the Earth's circumference is the maximum separation.
        prop_assert!(d <= std::f64::consts::PI * 6371.0 + 1e-6);
        prop_assert!((d - great_circle_km(&b, &a)).abs() < 1e-9);
        prop_assert!(great_circle_km(&a, &a) < 1e-9);
    }

    #[test]
    fn euclidean_triangle_inequality(
        ax in -1.0f64..1.0, ay in -1.0f64..1.0,
        bx in -1.0f64..1.0, by in -1.0f64..1.0,
        cx in -1.0f64..1.0, cy in -1.0f64..1.0,
    ) {
        let (a, b, c) = (
            Location::new(ax, ay),
            Location::new(bx, by),
            Location::new(cx, cy),
        );
        prop_assert!(euclidean(&a, &c) <= euclidean(&a, &b) + euclidean(&b, &c) + 1e-12);
    }
}

fn exa_linalg_potrf_ok(n: usize, a: &mut [f64]) -> bool {
    exa_linalg::dpotrf(n, a, n).is_ok()
}
