//! Periodic B-spline spaces: basis evaluation, Greville points, spline
//! evaluation.

use crate::basis::{eval_nonzero_basis, eval_nonzero_basis_deriv};
use crate::error::{Error, Result};
use crate::knots::Breaks;

/// Largest supported spline degree (the paper uses 3, 4 and 5).
pub const MAX_DEGREE: usize = 5;

/// Where the interpolation (collocation) points sit.
///
/// [`PointPlacement::Greville`] is the default and keeps the collocation
/// matrix well conditioned on *any* mesh. [`PointPlacement::KnotLike`]
/// places points on break points (odd degree) or cell midpoints (even
/// degree) — identical to Greville on uniform meshes, but degrading with
/// mesh grading, which reproduces the conditioning penalty the paper's
/// non-uniform rows show (see EXPERIMENTS.md on Table IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PointPlacement {
    /// Greville abscissae `(τ_{k+1} + … + τ_{k+d})/d` (default).
    #[default]
    Greville,
    /// Break points (odd degree) / cell midpoints (even degree).
    KnotLike,
}

/// A periodic spline space of a given degree over a set of break points.
///
/// The space has exactly `n = breaks.num_cells()` degrees of freedom;
/// periodic basis function `k` is the wrap-around identification
/// `B_k = Σ_p B^ext_{k + p·n}` of the extended-knot B-splines.
#[derive(Debug, Clone)]
pub struct PeriodicSplineSpace {
    degree: usize,
    breaks: Breaks,
    /// Extended knot vector `τ_0 … τ_{n+2d}` with `d` periodically wrapped
    /// intervals on each side: `τ_j = t_{j−d}` extended by ±L.
    ext_knots: Vec<f64>,
    n: usize,
    placement: PointPlacement,
    /// Domain start `t_0` and period `L`, cached off the breaks for the
    /// per-point wrap.
    x0: f64,
    period: f64,
    /// `L / n`, the cell width that locates a point on a uniform mesh.
    h: f64,
}

impl PeriodicSplineSpace {
    /// Build a periodic space. `degree` must be in `1..=5` and the mesh
    /// must have more than `2·degree` cells (so that periodic images of a
    /// basis function never overlap themselves).
    pub fn new(breaks: Breaks, degree: usize) -> Result<Self> {
        Self::with_placement(breaks, degree, PointPlacement::Greville)
    }

    /// Build a periodic space with an explicit interpolation-point
    /// placement.
    pub fn with_placement(
        breaks: Breaks,
        degree: usize,
        placement: PointPlacement,
    ) -> Result<Self> {
        if degree == 0 || degree > MAX_DEGREE {
            return Err(Error::UnsupportedDegree { degree });
        }
        let n = breaks.num_cells();
        if n <= 2 * degree {
            return Err(Error::TooFewCells { cells: n, degree });
        }
        let l = breaks.period();
        let t = breaks.points();
        let mut ext_knots = Vec::with_capacity(n + 2 * degree + 1);
        for j in 0..(n + 2 * degree + 1) {
            let idx = j as isize - degree as isize;
            let tau = if idx < 0 {
                t[(idx + n as isize) as usize] - l
            } else if idx > n as isize {
                t[(idx - n as isize) as usize] + l
            } else {
                t[idx as usize]
            };
            ext_knots.push(tau);
        }
        Ok(Self {
            degree,
            x0: breaks.x_min(),
            period: l,
            h: l / n as f64,
            breaks,
            ext_knots,
            n,
            placement,
        })
    }

    /// The active interpolation-point placement.
    pub fn placement(&self) -> PointPlacement {
        self.placement
    }

    /// Spline degree.
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// The underlying break points.
    pub fn breaks(&self) -> &Breaks {
        &self.breaks
    }

    /// Number of periodic basis functions / degrees of freedom.
    pub fn num_basis(&self) -> usize {
        self.n
    }

    /// The extended knot vector (mainly for tests and diagnostics).
    pub fn ext_knots(&self) -> &[f64] {
        &self.ext_knots
    }

    /// Map `x` into the fundamental period `[x_min, x_max)`.
    ///
    /// The result always lies in `[x_min, x_min + L)`: rounding can push
    /// `x − L·floor((x − x_min)/L)` onto the right edge (mapped to
    /// `x_min`) or one ulp left of `x_min` (clamped to `x_min`), both of
    /// which are the same periodic point up to an ulp. Non-finite `x`
    /// maps to NaN.
    #[inline]
    pub fn wrap(&self, x: f64) -> f64 {
        self.wrap_lanes(&[x])[0]
    }

    /// [`Self::wrap`] of `W` points. Staged over whole rows so the
    /// divides run lane-wide around the per-lane `floor` (a libm call on
    /// the baseline x86-64 target); each lane's operations are the
    /// scalar ones.
    #[inline(always)]
    fn wrap_lanes<const W: usize>(&self, x: &[f64; W]) -> [f64; W] {
        let (x0, l) = (self.x0, self.period);
        let mut w: [f64; W] = std::array::from_fn(|k| (x[k] - x0) / l);
        for v in &mut w {
            *v = v.floor();
        }
        for (v, &xk) in w.iter_mut().zip(x) {
            *v = xk - l * *v;
            if *v >= x0 + l || *v < x0 {
                *v = x0;
            }
        }
        w
    }

    /// Wrap `x` once and find the cell of the wrapped point: returns
    /// `(wrap(x), cell)`. The basis is evaluated at exactly the point
    /// the cell was located from; wrapping twice is not idempotent at the
    /// seam and would put the point a period away from its cell.
    #[inline]
    fn locate(&self, x: f64) -> (f64, usize) {
        let (w, c) = self.locate_lanes(&[x]);
        (w[0], c[0])
    }

    /// Wrap `W` points once each and find their cells: the wrapped points
    /// ([`Self::wrap`]) and the cells located from those same values,
    /// bit-identical lane for lane to one point at a time.
    #[inline(always)]
    pub fn locate_lanes<const W: usize>(&self, x: &[f64; W]) -> ([f64; W], [usize; W]) {
        let w = self.wrap_lanes(x);
        let last = self.n - 1;
        let cell = if self.breaks.is_uniform() {
            std::array::from_fn(|k| (((w[k] - self.x0) / self.h) as usize).min(last))
        } else {
            let t = self.breaks.points();
            std::array::from_fn(|k| {
                let c = t.partition_point(|&tk| tk <= w[k]);
                c.saturating_sub(1).min(last)
            })
        };
        (w, cell)
    }

    /// Index of the cell containing `wrap(x)`.
    #[inline]
    pub fn cell_of(&self, x: f64) -> usize {
        self.locate(x).1
    }

    /// Evaluate the `degree + 1` non-vanishing basis functions at `x`.
    ///
    /// Returns the containing cell `c`; `out[m]` holds the value of the
    /// periodic basis function with index [`Self::coef_index`]`(c, m)`.
    #[inline]
    pub fn eval_basis(&self, x: f64, out: &mut [f64; MAX_DEGREE + 1]) -> usize {
        let (w, cell) = self.locate(x);
        let span = cell + self.degree;
        eval_nonzero_basis(&self.ext_knots, self.degree, span, w, out.as_mut_slice());
        cell
    }

    /// Evaluate the derivatives of the non-vanishing basis functions at
    /// `x`; indexing as in [`Self::eval_basis`].
    #[inline]
    pub fn eval_basis_deriv(&self, x: f64, out: &mut [f64; MAX_DEGREE + 1]) -> usize {
        let (w, cell) = self.locate(x);
        let span = cell + self.degree;
        eval_nonzero_basis_deriv(&self.ext_knots, self.degree, span, w, out.as_mut_slice());
        cell
    }

    /// Periodic coefficient index of local basis `m` in cell `cell`
    /// (`cell < n`, `m <= degree`): one conditional subtract, no `%`.
    #[inline]
    pub fn coef_index(&self, cell: usize, m: usize) -> usize {
        debug_assert!(cell < self.n && m <= self.degree);
        let k = cell + m;
        if k >= self.n {
            k - self.n
        } else {
            k
        }
    }

    /// Greville abscissa of periodic basis `k`, wrapped into the domain:
    /// `g_k = (τ_{k+1} + … + τ_{k+d}) / d`.
    ///
    /// For uniform meshes this lands on break points (odd degree) or cell
    /// midpoints (even degree) — the alignment that keeps the
    /// interpolation matrix banded apart from thin periodic corners.
    pub fn greville(&self, k: usize) -> f64 {
        debug_assert!(k < self.n);
        let d = self.degree;
        let s: f64 = self.ext_knots[k + 1..=k + d].iter().sum();
        self.wrap(s / d as f64)
    }

    /// Interpolation point of basis `k` under the active placement.
    ///
    /// `KnotLike` aligns with Greville on uniform meshes: for odd degree
    /// the break point `t_{k−(d−1)/2}`, for even degree the midpoint of
    /// cell `k − d/2` (both wrapped).
    pub fn interpolation_point(&self, k: usize) -> f64 {
        match self.placement {
            PointPlacement::Greville => self.greville(k),
            PointPlacement::KnotLike => {
                let t = self.breaks.points();
                let n = self.n as isize;
                let d = self.degree as isize;
                if self.degree % 2 == 1 {
                    let idx = (k as isize - (d - 1) / 2).rem_euclid(n) as usize;
                    self.wrap(t[idx])
                } else {
                    let cell = (k as isize - d / 2).rem_euclid(n) as usize;
                    self.wrap(0.5 * (t[cell] + t[cell + 1]))
                }
            }
        }
    }

    /// The `n` interpolation points, in basis order.
    pub fn interpolation_points(&self) -> Vec<f64> {
        (0..self.n).map(|k| self.interpolation_point(k)).collect()
    }

    /// Evaluate the periodic spline with coefficients `coefs` at `x`.
    ///
    /// # Panics
    /// Panics if `coefs.len() != num_basis()`.
    #[inline]
    pub fn eval(&self, coefs: &[f64], x: f64) -> f64 {
        assert_eq!(coefs.len(), self.n, "eval: coefficient count");
        let mut vals = [0.0; MAX_DEGREE + 1];
        let cell = self.eval_basis(x, &mut vals);
        let mut s = 0.0;
        for m in 0..=self.degree {
            s += vals[m] * coefs[self.coef_index(cell, m)];
        }
        s
    }

    /// Evaluate the spline derivative at `x`.
    ///
    /// # Panics
    /// Panics if `coefs.len() != num_basis()`.
    pub fn eval_deriv(&self, coefs: &[f64], x: f64) -> f64 {
        assert_eq!(coefs.len(), self.n, "eval_deriv: coefficient count");
        let mut vals = [0.0; MAX_DEGREE + 1];
        let cell = self.eval_basis_deriv(x, &mut vals);
        let mut s = 0.0;
        for m in 0..=self.degree {
            s += vals[m] * coefs[self.coef_index(cell, m)];
        }
        s
    }

    /// Integral of the periodic spline over one period:
    /// `∫ s = Σ_k c_k · w_k` with `w_k = (τ_{k+d+1} − τ_k)/(d+1)` (the
    /// classic B-spline integral; the wrapped pieces of each periodic
    /// basis tile exactly one support's worth of measure). Used for
    /// conservation diagnostics.
    ///
    /// # Panics
    /// Panics if `coefs.len() != num_basis()`.
    pub fn integrate(&self, coefs: &[f64]) -> f64 {
        assert_eq!(coefs.len(), self.n, "integrate: coefficient count");
        let d = self.degree;
        let mut total = 0.0;
        for k in 0..self.n {
            let w = (self.ext_knots[k + d + 1] - self.ext_knots[k]) / (d as f64 + 1.0);
            total += w * coefs[k];
        }
        total
    }

    /// Solve the interpolation problem with a dense reference solver.
    ///
    /// `values[k]` is the target at interpolation point `k`. This is the
    /// slow, obviously-correct path used by tests and examples; the
    /// production path is the Schur-complement builder in
    /// `pp-splinesolver`.
    pub fn interpolate_naive(&self, values: &[f64]) -> Result<Vec<f64>> {
        if values.len() != self.n {
            return Err(Error::LengthMismatch {
                op: "interpolate_naive",
                expected: self.n,
                actual: values.len(),
            });
        }
        let a = crate::matrix::assemble_interpolation_matrix(self);
        pp_linalg::naive::solve_dense(&a, values).map_err(|_| Error::SingularMatrix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_portable::TestRng;

    fn uniform_space(n: usize, degree: usize) -> PeriodicSplineSpace {
        PeriodicSplineSpace::new(Breaks::uniform(n, 0.0, 1.0).unwrap(), degree).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(matches!(
            PeriodicSplineSpace::new(Breaks::uniform(8, 0.0, 1.0).unwrap(), 0),
            Err(Error::UnsupportedDegree { .. })
        ));
        assert!(matches!(
            PeriodicSplineSpace::new(Breaks::uniform(8, 0.0, 1.0).unwrap(), 6),
            Err(Error::UnsupportedDegree { .. })
        ));
        assert!(matches!(
            PeriodicSplineSpace::new(Breaks::uniform(6, 0.0, 1.0).unwrap(), 3),
            Err(Error::TooFewCells { .. })
        ));
    }

    #[test]
    fn ext_knots_are_periodic_extension() {
        let s = uniform_space(8, 3);
        let k = s.ext_knots();
        assert_eq!(k.len(), 8 + 7);
        // τ_d == t_0, τ_{d+n} == t_n.
        assert_eq!(k[3], 0.0);
        assert!((k[3 + 8] - 1.0).abs() < 1e-15);
        // Wrapped left knots are negative mirror of right end.
        assert!((k[2] - (-0.125)).abs() < 1e-15);
        // Monotone.
        for w in k.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn wrap_and_cell() {
        let s = uniform_space(10, 3);
        assert!((s.wrap(1.23) - 0.23).abs() < 1e-14);
        assert!((s.wrap(-0.1) - 0.9).abs() < 1e-14);
        assert_eq!(s.cell_of(0.0), 0);
        assert_eq!(s.cell_of(0.05), 0);
        assert_eq!(s.cell_of(0.95), 9);
        assert_eq!(s.cell_of(1.0), 0); // wraps
        assert_eq!(s.cell_of(0.999999999), 9);
    }

    /// The largest float below `x` (`f64::next_down`, which is newer
    /// than the workspace's minimum Rust).
    fn next_down(x: f64) -> f64 {
        if x > 0.0 {
            f64::from_bits(x.to_bits() - 1)
        } else if x < 0.0 {
            f64::from_bits(x.to_bits() + 1)
        } else {
            -f64::from_bits(1)
        }
    }

    #[test]
    fn seam_points_left_of_the_right_edge_stay_continuous() {
        // One ulp below x0 + L, `(x − x0)/L` rounds to 1.0 and the raw
        // wrap lands one ulp left of x0; the cell must come from that
        // same clamped point, not from a second wrap a period away.
        let v = f64::from_bits(0x4013_ffff_ffff_ffff);
        assert_eq!(v, 4.999999999999999);
        for (n, x0, x1, degree) in [(1024, -5.0, 5.0, 3), (64, -1.0, 2.0, 5), (40, -5.0, 5.0, 5)] {
            let s = PeriodicSplineSpace::new(Breaks::uniform(n, x0, x1).unwrap(), degree).unwrap();
            let l = s.breaks().period();
            let c: Vec<f64> = (0..n)
                .map(|k| 1.4 + 0.3 * (std::f64::consts::TAU * k as f64 / n as f64).sin())
                .collect();
            let at_seam = s.eval(&c, x0);
            // The right edge itself and its images one to three periods
            // away on either side, each approached from one ulp below.
            for k in -3..=4 {
                let edge = x0 + k as f64 * l;
                for x in [next_down(edge), edge] {
                    let w = s.wrap(x);
                    assert!((x0..x0 + l).contains(&w), "wrap({x:e}) = {w:e}");
                    let y = s.eval(&c, x);
                    assert!(
                        (y - at_seam).abs() < 1e-9,
                        "deg {degree} [{x0}, {x1}): eval({x:e}) = {y:e}, eval(x0) = {at_seam:e}"
                    );
                }
            }
        }
        let s = PeriodicSplineSpace::new(Breaks::uniform(1024, -5.0, 5.0).unwrap(), 3).unwrap();
        let c = vec![1.46; 1024];
        assert!((s.eval(&c, v) - 1.46).abs() < 1e-12);
    }

    #[test]
    fn non_finite_points_evaluate_to_nan() {
        for (x0, x1) in [(0.0, 1.0), (-5.0, 5.0)] {
            for breaks in [
                Breaks::uniform(20, x0, x1).unwrap(),
                Breaks::graded(20, x0, x1, 0.5).unwrap(),
            ] {
                for degree in 1..=5 {
                    let s = PeriodicSplineSpace::new(breaks.clone(), degree).unwrap();
                    let c = vec![1.0; 20];
                    for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                        assert!(s.eval(&c, x).is_nan(), "deg {degree}: eval({x}) is finite");
                    }
                }
            }
        }
    }

    #[test]
    fn cell_of_nonuniform_matches_scan() {
        let s = PeriodicSplineSpace::new(Breaks::graded(20, 0.0, 2.0, 0.7).unwrap(), 3).unwrap();
        for i in 0..200 {
            let x = 2.0 * (i as f64 + 0.5) / 200.0;
            let c = s.cell_of(x);
            let t = s.breaks().points();
            assert!(t[c] <= x && x <= t[c + 1], "x={x} c={c}");
        }
    }

    #[test]
    fn periodic_partition_of_unity() {
        for degree in 1..=5 {
            for breaks in [
                Breaks::uniform(12, 0.0, 1.0).unwrap(),
                Breaks::graded(12, 0.0, 1.0, 0.6).unwrap(),
            ] {
                let s = PeriodicSplineSpace::new(breaks, degree).unwrap();
                let ones = vec![1.0; s.num_basis()];
                for i in 0..97 {
                    let x = i as f64 / 97.0;
                    assert!((s.eval(&ones, x) - 1.0).abs() < 1e-12, "deg {degree} x {x}");
                }
            }
        }
    }

    #[test]
    fn greville_points_uniform_degree3_are_break_points() {
        let s = uniform_space(8, 3);
        // g_k = t_{k-1} wrapped.
        let pts = s.interpolation_points();
        assert!((pts[0] - 0.875).abs() < 1e-14); // t_{-1} wraps to t_7
        assert!((pts[1] - 0.0).abs() < 1e-14);
        assert!((pts[4] - 0.375).abs() < 1e-14);
    }

    #[test]
    fn greville_points_uniform_degree4_are_midpoints() {
        let s = uniform_space(10, 4);
        let pts = s.interpolation_points();
        let h = 0.1;
        for &p in &pts {
            // Distance to nearest break point should be h/2.
            let r = (p / h).fract();
            assert!((r - 0.5).abs() < 1e-10, "{p}");
        }
    }

    #[test]
    fn spline_evaluation_is_periodic() {
        let s = uniform_space(16, 3);
        let coefs: Vec<f64> = (0..16).map(|i| ((i * 7) % 5) as f64).collect();
        for i in 0..20 {
            let x = i as f64 / 20.0;
            assert!((s.eval(&coefs, x) - s.eval(&coefs, x + 3.0)).abs() < 1e-12);
            assert!((s.eval(&coefs, x) - s.eval(&coefs, x - 2.0)).abs() < 1e-12);
        }
    }

    #[test]
    fn interpolation_reproduces_values_at_points() {
        for degree in [3, 4, 5] {
            for breaks in [
                Breaks::uniform(20, 0.0, 1.0).unwrap(),
                Breaks::graded(20, 0.0, 1.0, 0.5).unwrap(),
            ] {
                let s = PeriodicSplineSpace::new(breaks, degree).unwrap();
                let pts = s.interpolation_points();
                let values: Vec<f64> = pts
                    .iter()
                    .map(|&x| (std::f64::consts::TAU * x).sin() + 0.3)
                    .collect();
                let coefs = s.interpolate_naive(&values).unwrap();
                for (k, &x) in pts.iter().enumerate() {
                    assert!(
                        (s.eval(&coefs, x) - values[k]).abs() < 1e-11,
                        "deg {degree} point {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn interpolation_converges_spectrally_with_degree() {
        // Interpolating a smooth periodic function: error should fall
        // rapidly as h^(degree+1).
        let f = |x: f64| (std::f64::consts::TAU * x).sin();
        let mut errors = Vec::new();
        for degree in [3, 5] {
            let s = uniform_space(32, degree);
            let values: Vec<f64> = s.interpolation_points().iter().map(|&x| f(x)).collect();
            let coefs = s.interpolate_naive(&values).unwrap();
            let err = (0..301)
                .map(|i| {
                    let x = i as f64 / 301.0;
                    (s.eval(&coefs, x) - f(x)).abs()
                })
                .fold(0.0, f64::max);
            errors.push(err);
        }
        // Cubic error ~ h^4·(2π)^4 ≈ 2e-5 on 32 cells; quintic ~ h^6·(2π)^6.
        assert!(errors[0] < 1e-4, "{errors:?}");
        assert!(errors[1] < errors[0] / 10.0, "{errors:?}");
    }

    #[test]
    fn derivative_matches_finite_difference() {
        let s = uniform_space(24, 4);
        let coefs: Vec<f64> = (0..24)
            .map(|i| (std::f64::consts::TAU * i as f64 / 24.0).cos())
            .collect();
        let eps = 1e-6;
        for i in 0..50 {
            let x = (i as f64 + 0.3) / 50.0;
            let d = s.eval_deriv(&coefs, x);
            let fd = (s.eval(&coefs, x + eps) - s.eval(&coefs, x - eps)) / (2.0 * eps);
            assert!((d - fd).abs() < 1e-6, "x={x}: {d} vs {fd}");
        }
    }

    #[test]
    fn knotlike_placement_equals_greville_on_uniform_meshes() {
        for degree in [3usize, 4, 5] {
            let g = uniform_space(16, degree);
            let k = PeriodicSplineSpace::with_placement(
                Breaks::uniform(16, 0.0, 1.0).unwrap(),
                degree,
                PointPlacement::KnotLike,
            )
            .unwrap();
            let pg = g.interpolation_points();
            let pk = k.interpolation_points();
            for (a, b) in pg.iter().zip(&pk) {
                assert!((a - b).abs() < 1e-13, "deg {degree}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn knotlike_placement_solvable_on_graded_meshes() {
        for degree in [3usize, 4, 5] {
            let s = PeriodicSplineSpace::with_placement(
                Breaks::graded(20, 0.0, 1.0, 0.8).unwrap(),
                degree,
                PointPlacement::KnotLike,
            )
            .unwrap();
            assert_eq!(s.placement(), PointPlacement::KnotLike);
            let pts = s.interpolation_points();
            let values: Vec<f64> = pts
                .iter()
                .map(|&x| (std::f64::consts::TAU * x).sin())
                .collect();
            let coefs = s.interpolate_naive(&values).unwrap();
            for (k, &x) in pts.iter().enumerate() {
                assert!(
                    (s.eval(&coefs, x) - values[k]).abs() < 1e-10,
                    "deg {degree}"
                );
            }
        }
    }

    #[test]
    fn integrate_constant_gives_period() {
        for degree in 1..=5 {
            for breaks in [
                Breaks::uniform(16, 0.0, 2.0).unwrap(),
                Breaks::graded(16, 0.0, 2.0, 0.5).unwrap(),
            ] {
                let s = PeriodicSplineSpace::new(breaks, degree).unwrap();
                let ones = vec![1.0; s.num_basis()];
                assert!(
                    (s.integrate(&ones) - 2.0).abs() < 1e-12,
                    "deg {degree}: {}",
                    s.integrate(&ones)
                );
            }
        }
    }

    #[test]
    fn integrate_matches_quadrature() {
        let s = uniform_space(32, 3);
        let pts = s.interpolation_points();
        let values: Vec<f64> = pts
            .iter()
            .map(|&x| (std::f64::consts::TAU * x).sin() + 1.5)
            .collect();
        let coefs = s.interpolate_naive(&values).unwrap();
        // Fine midpoint quadrature of the spline itself.
        let m = 20_000;
        let quad: f64 = (0..m)
            .map(|i| s.eval(&coefs, (i as f64 + 0.5) / m as f64))
            .sum::<f64>()
            / m as f64;
        assert!((s.integrate(&coefs) - quad).abs() < 1e-9);
    }

    /// Degree-d splines reproduce constants exactly everywhere, for
    /// every degree and mesh grading.
    #[test]
    fn prop_constant_reproduction() {
        let mut g = TestRng::seed_from_u64(0x5EED_E399);
        for _ in 0..64 {
            let degree = g.gen_range(1usize..=5);
            let n = g.gen_range(12usize..40);
            let strength = g.gen_range(0.0f64..0.9);
            let x = g.gen_range(-5.0f64..5.0);
            let breaks = Breaks::graded(n, 0.0, 1.0, strength).unwrap();
            let s = PeriodicSplineSpace::new(breaks, degree).unwrap();
            let c = vec![2.5; s.num_basis()];
            assert!((s.eval(&c, x) - 2.5).abs() < 1e-11);
        }
    }

    /// Spline evaluation is linear in the coefficients.
    #[test]
    fn prop_linearity() {
        let mut g = TestRng::seed_from_u64(0x5EED_7EEF);
        for _ in 0..64 {
            let n = g.gen_range(12usize..30);
            let x = g.gen_range(0.0f64..1.0);
            let seed = g.gen_range(0u64..100);
            let mut rng = TestRng::seed_from_u64(seed);
            let s = uniform_space(n, 3);
            let a: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let sum: Vec<f64> = a.iter().zip(&b).map(|(u, v)| u + 2.0 * v).collect();
            let lhs = s.eval(&sum, x);
            let rhs = s.eval(&a, x) + 2.0 * s.eval(&b, x);
            assert!((lhs - rhs).abs() < 1e-12);
        }
    }
}
