//! Covariance kernels: from locations to covariance matrix entries/tiles.
//!
//! The ExaGeoStat "matrix generation" codelet corresponds to
//! [`CovarianceKernel::fill_tile`]: given row/column location slices it fills
//! one dense tile of `Σ(θ)`, optionally adding a nugget on the true diagonal.
//! Both the dense and the TLR assembly paths consume this trait (the ACA
//! compressor samples individual entries through [`CovarianceKernel::entry`]).

use crate::distance::{DistanceMetric, Location};
use crate::fastmath::exp_neg;
use crate::matern::MaternParams;
use crate::table::MaternTable;
use std::sync::Arc;

/// A positive-definite covariance model over a fixed set of locations.
pub trait CovarianceKernel: Sync {
    /// Number of locations (order of the full covariance matrix).
    fn len(&self) -> usize;

    /// True when the location set is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Covariance entry `Σ(i, j)` including any nugget on the diagonal.
    fn entry(&self, i: usize, j: usize) -> f64;

    /// Fills the dense `rows.len() × cols.len()` tile
    /// `Σ[row_off.., col_off..]` into `out` (column-major, leading dimension
    /// `ld`). `rows`/`cols` are the *global* index ranges of the tile.
    fn fill_tile(
        &self,
        row_off: usize,
        nrows: usize,
        col_off: usize,
        ncols: usize,
        out: &mut [f64],
        ld: usize,
    ) {
        fill_tile_generic(self, row_off, nrows, col_off, ncols, out, ld);
    }
}

/// The entry-by-entry tile fill every kernel can fall back on.
pub(crate) fn fill_tile_generic<K: CovarianceKernel + ?Sized>(
    kernel: &K,
    row_off: usize,
    nrows: usize,
    col_off: usize,
    ncols: usize,
    out: &mut [f64],
    ld: usize,
) {
    debug_assert!(ld >= nrows);
    for j in 0..ncols {
        let col = &mut out[j * ld..j * ld + nrows];
        for (i, v) in col.iter_mut().enumerate() {
            *v = kernel.entry(row_off + i, col_off + j);
        }
    }
}

/// Pass 1 of the two-pass fills: `out[k] = metric.distance(aₖ, bₖ) · scale`.
///
/// The radial function runs as a second pass over `out`, so this loop is
/// sub/mul/sqrt only for the Euclidean metric (the compiler hoists the
/// metric match and vectorizes it on baseline x86-64) and the second pass is
/// metric-agnostic.
fn scaled_distances(
    metric: DistanceMetric,
    scale: f64,
    pairs: impl Iterator<Item = (Location, Location)>,
    out: &mut [f64],
) {
    for (dst, (a, b)) in out.iter_mut().zip(pairs) {
        *dst = metric.distance(&a, &b) * scale;
    }
}

/// A covariance *family*: the bridge between an optimizer's flat parameter
/// vector `θ` and a concrete [`CovarianceKernel`] instance over a location
/// set.
///
/// The MLE driver searches over `θ ∈ ℝ^p` while the linear-algebra layers
/// only ever see a [`CovarianceKernel`]; this trait supplies the two
/// directions of that correspondence (`params_vec` / `with_params_vec`) plus
/// the re-instantiation hooks the kriging pipeline needs (`with_locations`
/// for Σ₂₂ over the observed subset, `cross` for Σ₁₂ entries between
/// arbitrary location pairs).
///
/// # Contract
///
/// * Every parameter is **strictly positive**. The optimizer runs in
///   log-parameter space, so positivity must be structural: `with_params_vec`
///   is only ever called with `θᵢ > 0`, and [`ParamCovariance::default_bounds`]
///   must return positive, finite `lo < hi` per coordinate.
/// * `params_vec().len() == Self::param_names().len()` and
///   `with_params_vec(&k.params_vec())` reproduces `k` exactly.
/// * `with_params_vec` and `with_locations` preserve every other piece of
///   state (metric, nugget, and the location set / parameter vector
///   respectively). Location sets are shared via `Arc`, so both are cheap.
/// * `entry(i, i) == sill() + nugget()` for all `i`: the family is
///   stationary with marginal variance `sill()`, and the nugget lives only
///   on the true diagonal. `cross` never includes the nugget.
/// * For any finite location set and any valid `θ` the implied matrix
///   `Σ(θ)` is symmetric positive semi-definite (positive definite once a
///   positive nugget is added) — the property the Cholesky-based pipeline
///   relies on.
pub trait ParamCovariance: CovarianceKernel + Clone + Send + Sync + 'static {
    /// Family name as printed in reports (e.g. `"matern"`).
    const FAMILY: &'static str;

    /// Names of the free parameters, in vector order.
    fn param_names() -> &'static [&'static str];

    /// Number of free parameters `p`.
    fn n_params() -> usize {
        Self::param_names().len()
    }

    /// Builds a kernel over `locations` at parameter vector `theta`.
    ///
    /// Errors (rather than panicking) on a malformed `theta` — wrong length
    /// or out-of-domain values — so session builders can surface the
    /// problem.
    fn from_parts(
        locations: Arc<Vec<Location>>,
        theta: &[f64],
        metric: DistanceMetric,
        nugget: f64,
    ) -> Result<Self, String>;

    /// The current parameter vector `θ`.
    fn params_vec(&self) -> Vec<f64>;

    /// Same family, locations, metric and nugget at a new `θ` (called once
    /// per optimizer iteration; must be cheap — the location set is shared).
    ///
    /// # Panics
    /// May panic on out-of-domain `θ`; the optimizer only proposes points
    /// inside the (positive) box bounds.
    fn with_params_vec(&self, theta: &[f64]) -> Self;

    /// Same family, `θ`, metric and nugget over a different location set
    /// (used to restrict a model to the observed subset for Σ₂₂).
    fn with_locations(&self, locations: Arc<Vec<Location>>) -> Self;

    /// Generous default box bounds `(lo, hi)` in natural parameters.
    fn default_bounds() -> (Vec<f64>, Vec<f64>);

    /// Covariance between two arbitrary locations (no nugget) — the Σ₁₂
    /// cross-covariance entry of the kriging predictor.
    fn cross(&self, a: &Location, b: &Location) -> f64;

    /// Fills one cross-covariance row: `out[j] = cross(target, (xs[j],
    /// ys[j]))` against coordinate-split (structure-of-arrays) observed
    /// locations.
    ///
    /// This is the hot kernel of the batched prediction path
    /// (`FittedModel::predict_batch` coalesces queries into blocked fills of
    /// exactly this shape). The default walks [`ParamCovariance::cross`]
    /// entry by entry. Overrides fill in two passes — scaled distances, then
    /// the radial function in place:
    ///
    /// * Matérn at ν ∈ {½, 3⁄2, 5⁄2}, under either metric: `poly(x)·e⁻ˣ` as
    ///   a branchless loop the compiler vectorizes over
    ///   [`exp_neg`]; differs from `cross` by that
    ///   exponential's ≤ ~3·10⁻¹³ relative error.
    /// * Matérn at every other ν, under either metric: the kernel's
    ///   tabulated radial function, the same evaluator `cross` and `entry`
    ///   use, so the row equals `cross` bit for bit.
    /// * Powered-exponential at powers 1 and 2 and Gaussian, Euclidean
    ///   metric only: `exp_neg` loops as above; other powers and the
    ///   great-circle metric take the default.
    fn fill_cross_row(&self, target: &Location, xs: &[f64], ys: &[f64], out: &mut [f64]) {
        fill_cross_row_generic(self, target, xs, ys, out);
    }

    /// The marginal (sill) variance: the diagonal of Σ without the nugget.
    fn sill(&self) -> f64;

    /// The distance metric.
    fn metric(&self) -> DistanceMetric;

    /// The diagonal regularization τ² ≥ 0.
    fn nugget(&self) -> f64;

    /// The shared location set.
    fn locations_arc(&self) -> &Arc<Vec<Location>>;
}

/// The entry-by-entry cross-covariance row fill every family can fall back
/// on (also the reference the vectorized overrides are tested against).
pub(crate) fn fill_cross_row_generic<K: ParamCovariance>(
    kernel: &K,
    target: &Location,
    xs: &[f64],
    ys: &[f64],
    out: &mut [f64],
) {
    assert_eq!(xs.len(), out.len(), "coordinate/output length mismatch");
    assert_eq!(ys.len(), out.len(), "coordinate/output length mismatch");
    for ((dst, &x), &y) in out.iter_mut().zip(xs).zip(ys) {
        *dst = kernel.cross(target, &Location::new(x, y));
    }
}

/// Shared `from_parts` validation: parameter arity and nugget domain, so
/// every family rejects malformed inputs identically.
pub(crate) fn check_family_inputs(
    family: &str,
    expected: usize,
    theta: &[f64],
    nugget: f64,
) -> Result<(), String> {
    if theta.len() != expected {
        return Err(format!(
            "{family} expects {expected} parameters, got {}",
            theta.len()
        ));
    }
    if !(nugget >= 0.0 && nugget.is_finite()) {
        return Err(format!("nugget must be non-negative, got {nugget}"));
    }
    Ok(())
}

/// Matérn covariance over an explicit location list.
///
/// Every entry is `θ₁ · ρ_ν(d/θ₂)` with one radial function `ρ_ν` per
/// kernel: the elementary closed forms at ν ∈ {½, 3⁄2, 5⁄2}, and at every
/// other smoothness a lookup in a piecewise-Chebyshev table of `ρ_ν` built
/// for that ν (≤ 1e-13 relative against the Bessel form; see the proptests) —
/// `K_ν` is evaluated only to build the table's panels, never per entry.
/// [`MaternParams::covariance`] is the scalar reference both are tested
/// against.
#[derive(Clone, Debug)]
pub struct MaternKernel {
    locations: std::sync::Arc<Vec<Location>>,
    params: MaternParams,
    metric: DistanceMetric,
    /// Small diagonal regularization τ² ≥ 0 added at `i == j` (numerical
    /// stabilization; 0 reproduces the paper's exact model).
    nugget: f64,
    /// `ρ_ν` for a general ν; `None` at the three closed-form orders.
    /// Built per kernel (per θ) and shared by `with_locations`.
    table: Option<Arc<MaternTable>>,
}

/// The radial-function table for smoothness `nu`: none at ν ∈ {½, 3⁄2, 5⁄2},
/// whose radial function is `poly(x)·e⁻ˣ`.
fn table_for(nu: f64) -> Option<Arc<MaternTable>> {
    let closed_form = nu == 0.5 || nu == 1.5 || nu == 2.5;
    (!closed_form).then(|| Arc::new(MaternTable::new(nu)))
}

impl MaternKernel {
    pub fn new(
        locations: std::sync::Arc<Vec<Location>>,
        params: MaternParams,
        metric: DistanceMetric,
        nugget: f64,
    ) -> Self {
        assert!(
            nugget >= 0.0 && nugget.is_finite(),
            "nugget must be non-negative and finite"
        );
        params.validate().expect("invalid Matérn parameters");
        MaternKernel {
            locations,
            params,
            metric,
            nugget,
            table: table_for(params.smoothness),
        }
    }

    pub fn params(&self) -> MaternParams {
        self.params
    }

    pub fn metric(&self) -> DistanceMetric {
        self.metric
    }

    pub fn locations(&self) -> &[Location] {
        &self.locations
    }

    /// Same kernel with a different parameter vector (used per optimizer
    /// iteration; the location set is shared).
    pub fn with_params(&self, params: MaternParams) -> Self {
        MaternKernel {
            params,
            table: table_for(params.smoothness),
            ..self.clone()
        }
    }

    /// Cross-covariance entry between an arbitrary pair of locations (used by
    /// the prediction path to form Σ₁₂ between unobserved and observed sets).
    pub fn cross(&self, a: &Location, b: &Location) -> f64 {
        self.covariance(self.metric.distance(a, b))
    }

    /// `1/θ₂`, clamped so a subnormal range scales a zero distance to 0, not
    /// to `0·∞`.
    fn inv_range(&self) -> f64 {
        self.params.range.recip().min(f64::MAX)
    }

    /// Covariance at distance `r`: the scalar form of the two-pass fills.
    fn covariance(&self, r: f64) -> f64 {
        match &self.table {
            // The closed forms keep the reference's own arithmetic (libm
            // `exp`, `r/θ₂`): `crates/tlr/tests/golden_bits.rs` pins the
            // factors generated from it.
            None => self.params.covariance(r),
            Some(table) => self.params.variance * table.eval(r * self.inv_range()),
        }
    }

    /// Pass 2 of the two-pass fills: scaled distances `x = d/θ₂` to
    /// covariances, in place, the radial function selected once per slice.
    fn radial_in_place(&self, out: &mut [f64]) {
        let sigma = self.params.variance;
        let nu = self.params.smoothness;
        if let Some(table) = &self.table {
            for v in out.iter_mut() {
                *v = sigma * table.eval(*v);
            }
        } else if nu == 0.5 {
            for v in out.iter_mut() {
                *v = sigma * exp_neg(-*v);
            }
        } else if nu == 1.5 {
            for v in out.iter_mut() {
                let x = *v;
                *v = sigma * (1.0 + x) * exp_neg(-x);
            }
        } else {
            for v in out.iter_mut() {
                let x = *v;
                *v = sigma * (1.0 + x + x * x * (1.0 / 3.0)) * exp_neg(-x);
            }
        }
    }
}

impl CovarianceKernel for MaternKernel {
    fn len(&self) -> usize {
        self.locations.len()
    }

    fn entry(&self, i: usize, j: usize) -> f64 {
        if i == j {
            return self.params.variance + self.nugget;
        }
        self.covariance(self.metric.distance(&self.locations[i], &self.locations[j]))
    }

    fn fill_tile(
        &self,
        row_off: usize,
        nrows: usize,
        col_off: usize,
        ncols: usize,
        out: &mut [f64],
        ld: usize,
    ) {
        if self.table.is_none() {
            // Closed forms: entry by entry, bit for bit what the golden
            // factors were generated from.
            return fill_tile_generic(self, row_off, nrows, col_off, ncols, out, ld);
        }
        debug_assert!(ld >= nrows);
        let rows = &self.locations[row_off..row_off + nrows];
        let inv_range = self.inv_range();
        for j in 0..ncols {
            let site = self.locations[col_off + j];
            let col = &mut out[j * ld..j * ld + nrows];
            scaled_distances(self.metric, inv_range, rows.iter().map(|&r| (r, site)), col);
            self.radial_in_place(col);
            // The true diagonal carries the nugget.
            if (row_off..row_off + nrows).contains(&(col_off + j)) {
                col[col_off + j - row_off] = self.params.variance + self.nugget;
            }
        }
    }
}

impl ParamCovariance for MaternKernel {
    const FAMILY: &'static str = "matern";

    fn param_names() -> &'static [&'static str] {
        &["variance", "range", "smoothness"]
    }

    fn from_parts(
        locations: Arc<Vec<Location>>,
        theta: &[f64],
        metric: DistanceMetric,
        nugget: f64,
    ) -> Result<Self, String> {
        check_family_inputs(Self::FAMILY, 3, theta, nugget)?;
        let params = MaternParams {
            variance: theta[0],
            range: theta[1],
            smoothness: theta[2],
        };
        params.validate()?;
        Ok(Self::new(locations, params, metric, nugget))
    }

    fn params_vec(&self) -> Vec<f64> {
        self.params.to_array().to_vec()
    }

    fn with_params_vec(&self, theta: &[f64]) -> Self {
        assert_eq!(theta.len(), 3, "matern expects 3 parameters");
        self.with_params(MaternParams::new(theta[0], theta[1], theta[2]))
    }

    fn with_locations(&self, locations: Arc<Vec<Location>>) -> Self {
        MaternKernel {
            locations,
            ..self.clone()
        }
    }

    fn default_bounds() -> (Vec<f64>, Vec<f64>) {
        // The MLE driver's historical defaults: variance and range over four
        // decades, smoothness in [0.1, 3] (θ₃ "rarely above 1–2", §IV).
        (vec![0.01, 0.001, 0.1], vec![100.0, 100.0, 3.0])
    }

    fn cross(&self, a: &Location, b: &Location) -> f64 {
        MaternKernel::cross(self, a, b)
    }

    fn fill_cross_row(&self, target: &Location, xs: &[f64], ys: &[f64], out: &mut [f64]) {
        assert_eq!(xs.len(), out.len(), "coordinate/output length mismatch");
        assert_eq!(ys.len(), out.len(), "coordinate/output length mismatch");
        // Two passes so neither loop carries a dependency that would block
        // SIMD: distances, then C = σ·ρ_ν(x) — `poly(x)·exp_neg(−x)` at the
        // half-integer orders, the table at every other one.
        let sites = xs
            .iter()
            .zip(ys)
            .map(|(&x, &y)| (*target, Location::new(x, y)));
        scaled_distances(self.metric, self.inv_range(), sites, out);
        self.radial_in_place(out);
    }

    fn sill(&self) -> f64 {
        self.params.variance
    }

    fn metric(&self) -> DistanceMetric {
        self.metric
    }

    fn nugget(&self) -> f64 {
        self.nugget
    }

    fn locations_arc(&self) -> &Arc<Vec<Location>> {
        &self.locations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn grid_kernel(n_side: usize) -> MaternKernel {
        let mut locs = Vec::new();
        for i in 0..n_side {
            for j in 0..n_side {
                locs.push(Location::new(
                    i as f64 / n_side as f64,
                    j as f64 / n_side as f64,
                ));
            }
        }
        MaternKernel::new(
            Arc::new(locs),
            MaternParams::new(1.0, 0.1, 0.5),
            DistanceMetric::Euclidean,
            0.0,
        )
    }

    #[test]
    fn diagonal_is_variance_plus_nugget() {
        let k = grid_kernel(3);
        assert_eq!(k.entry(4, 4), 1.0);
        let locs = Arc::new(vec![Location::new(0.0, 0.0), Location::new(1.0, 1.0)]);
        let kn = MaternKernel::new(
            locs,
            MaternParams::new(2.0, 0.1, 0.5),
            DistanceMetric::Euclidean,
            0.25,
        );
        assert_eq!(kn.entry(0, 0), 2.25);
        assert!(kn.entry(0, 1) < 2.0);
    }

    #[test]
    fn symmetry() {
        let k = grid_kernel(4);
        for i in 0..16 {
            for j in 0..16 {
                assert_eq!(k.entry(i, j), k.entry(j, i));
            }
        }
    }

    #[test]
    fn fill_tile_matches_entries_with_ld() {
        let k = grid_kernel(4);
        let (nr, nc, ld) = (5usize, 3usize, 7usize);
        let mut buf = vec![f64::NAN; ld * nc];
        k.fill_tile(2, nr, 9, nc, &mut buf, ld);
        for j in 0..nc {
            for i in 0..nr {
                assert_eq!(buf[i + j * ld], k.entry(2 + i, 9 + j));
            }
        }
    }

    #[test]
    fn diagonal_tile_contains_global_diagonal() {
        let k = grid_kernel(4);
        let nb = 4;
        let mut buf = vec![0.0; nb * nb];
        k.fill_tile(4, nb, 4, nb, &mut buf, nb);
        for i in 0..nb {
            assert_eq!(buf[i + i * nb], 1.0);
        }
    }

    #[test]
    fn with_params_shares_locations() {
        let k = grid_kernel(3);
        let k2 = k.with_params(MaternParams::new(2.0, 0.2, 1.5));
        assert_eq!(k2.len(), k.len());
        assert_eq!(k2.entry(0, 0), 2.0);
        assert_eq!(k.entry(0, 0), 1.0); // original untouched
    }

    /// 37 scattered sites, their coordinate columns, and a target.
    fn scattered() -> (Vec<Location>, Vec<f64>, Vec<f64>, Location) {
        let locs: Vec<Location> = (0..37)
            .map(|i| Location::new((i as f64 * 0.27) % 1.0, (i as f64 * 0.61) % 1.0))
            .collect();
        let xs = locs.iter().map(|l| l.x).collect();
        let ys = locs.iter().map(|l| l.y).collect();
        (locs, xs, ys, Location::new(0.41, 0.73))
    }

    #[test]
    fn fill_cross_row_matches_cross_for_every_smoothness() {
        // The vectorized half-integer rows differ from entry-wise `cross`
        // by the fast exponential (≤ ~3e-13 relative) under either metric;
        // the table rows are the same evaluator and agree exactly.
        let (locs, xs, ys, target) = scattered();
        for (metric, range) in [
            (DistanceMetric::Euclidean, 0.1),
            (DistanceMetric::GreatCircleKm, 40.0), // degrees → km
        ] {
            for nu in [0.5, 1.5, 2.5, 0.8, 1.0] {
                let k = MaternKernel::new(
                    Arc::new(locs.clone()),
                    MaternParams::new(1.3, range, nu),
                    metric,
                    0.0,
                );
                let mut row = vec![f64::NAN; locs.len()];
                k.fill_cross_row(&target, &xs, &ys, &mut row);
                for (got, loc) in row.iter().zip(&locs) {
                    let want = k.cross(&target, loc);
                    assert!(
                        (got - want).abs() <= 1e-12 * want.abs().max(1e-300),
                        "nu={nu} {metric:?}: {got} vs {want}"
                    );
                    if k.table.is_some() {
                        assert_eq!(*got, want, "nu={nu} {metric:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn great_circle_rows_take_the_vectorized_closed_form() {
        // The radial pass does not care which metric produced the distance:
        // a ν = ½ great-circle row is σ·exp_neg(−d/θ₂) bit for bit, not the
        // libm exponential of the entry-wise path.
        let (locs, xs, ys, target) = scattered();
        let (sigma, range) = (1.3, 40.0);
        let k = MaternKernel::new(
            Arc::new(locs.clone()),
            MaternParams::new(sigma, range, 0.5),
            DistanceMetric::GreatCircleKm,
            0.0,
        );
        let mut row = vec![f64::NAN; locs.len()];
        k.fill_cross_row(&target, &xs, &ys, &mut row);
        for (got, loc) in row.iter().zip(&locs) {
            let d = crate::distance::great_circle_km(&target, loc);
            assert_eq!(*got, sigma * exp_neg(-(d * (1.0 / range))));
        }
    }

    #[test]
    fn general_smoothness_tiles_equal_entries_bit_for_bit() {
        // Dense assembly, TLR compression and the block reference compare
        // tiles with entries exactly; diagonal and off-diagonal tiles, a
        // leading dimension, a nugget, both metrics.
        let (locs, ..) = scattered();
        for (metric, range) in [
            (DistanceMetric::Euclidean, 0.1),
            (DistanceMetric::GreatCircleKm, 40.0),
        ] {
            for nu in [0.3, 1.0, 2.9] {
                let k = MaternKernel::new(
                    Arc::new(locs.clone()),
                    MaternParams::new(0.9, range, nu),
                    metric,
                    0.01,
                );
                for (row_off, col_off) in [(0, 0), (3, 5), (20, 2), (5, 3)] {
                    let (nr, nc, ld) = (11usize, 9usize, 13usize);
                    let mut buf = vec![f64::NAN; ld * nc];
                    k.fill_tile(row_off, nr, col_off, nc, &mut buf, ld);
                    for j in 0..nc {
                        for i in 0..nr {
                            assert_eq!(
                                buf[i + j * ld],
                                k.entry(row_off + i, col_off + j),
                                "nu={nu} {metric:?} ({row_off}+{i}, {col_off}+{j})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn the_observed_subset_shares_the_table_and_closed_forms_build_none() {
        let k = grid_kernel(3).with_params(MaternParams::new(1.0, 0.1, 0.8));
        let table = k.table.as_ref().expect("general ν is tabulated");
        let subset = k.with_locations(Arc::new(vec![Location::new(0.5, 0.5)]));
        assert!(Arc::ptr_eq(table, subset.table.as_ref().unwrap()));
        for nu in [0.5, 1.5, 2.5] {
            assert!(k
                .with_params(MaternParams::new(1.0, 0.1, nu))
                .table
                .is_none());
        }
    }

    #[test]
    fn degenerate_distances_and_ranges_return_at_once() {
        // A subnormal range scales every positive distance to x = ∞ (exact
        // 0, no continued fraction) and a zero distance to 0 (the sill); a
        // NaN coordinate propagates as NaN. None of them iterates.
        let locs = vec![
            Location::new(0.1, 0.2),
            Location::new(0.7, 0.3),
            Location::new(f64::NAN, 0.5),
        ];
        let k = MaternKernel::new(
            Arc::new(locs.clone()),
            MaternParams::new(1.5, 1e-320, 0.8),
            DistanceMetric::Euclidean,
            0.0,
        );
        let start = std::time::Instant::now();
        assert_eq!(k.entry(0, 1), 0.0);
        assert_eq!(k.cross(&locs[0], &locs[0]), 1.5);
        assert!(k.entry(0, 2).is_nan());
        let mut tile = [0.0; 9];
        k.fill_tile(0, 3, 0, 3, &mut tile, 3);
        assert_eq!(tile[..2], [1.5, 0.0]);
        assert!(tile[2].is_nan());
        // The scalar reference agrees, as quickly.
        assert_eq!(k.params().covariance(0.6), 0.0);
        assert!(k.params().covariance(f64::NAN).is_nan());
        assert!(crate::bessel::bessel_k_scaled(0.8, f64::NAN).is_nan());
        assert_eq!(crate::bessel::bessel_k_scaled(0.8, f64::INFINITY), 0.0);
        assert!(start.elapsed() < std::time::Duration::from_secs(1));
    }

    #[test]
    fn fill_cross_row_hits_the_sill_at_zero_distance() {
        let locs = vec![Location::new(0.3, 0.3), Location::new(0.9, 0.1)];
        let k = MaternKernel::new(
            Arc::new(locs.clone()),
            MaternParams::new(2.0, 0.1, 0.5),
            DistanceMetric::Euclidean,
            0.5, // nugget must NOT appear in cross rows
        );
        let mut row = [0.0; 2];
        k.fill_cross_row(
            &locs[0],
            &[locs[0].x, locs[1].x],
            &[locs[0].y, locs[1].y],
            &mut row,
        );
        assert_eq!(row[0], 2.0, "coincident site gets the sill, no nugget");
        assert!(row[1] < 2.0);
    }

    #[test]
    fn decay_with_distance() {
        let k = grid_kernel(5);
        // Entry to the nearest neighbour exceeds entry to a far point.
        let near = k.entry(0, 1);
        let far = k.entry(0, 24);
        assert!(near > far);
        assert!(far > 0.0);
    }
}
