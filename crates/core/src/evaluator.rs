//! Batched spline evaluation.
//!
//! After the builder produces a `(n, batch)` coefficient block, the
//! semi-Lagrangian step evaluates every lane's spline at that lane's
//! characteristic feet (Algorithm 2, line 8). The evaluation is
//! embarrassingly parallel over lanes, like the build.
//!
//! Both entry points run one lane-wide kernel: lanes go in groups of
//! [`LANE_WIDTH`] (one interleaved panel, or eight host columns), and
//! each row of a group wraps and locates its eight feet once, runs
//! Cox–de Boor over `[f64; 8]` rows, gathers the coefficients by a
//! conditional-subtract periodic index and hands back eight results.
//! Every lane performs exactly the floating-point operations of the
//! scalar [`PeriodicSplineSpace::eval`], in the same order, so the
//! output is bit-identical to it lane for lane. A group narrower than
//! eight (the partial last panel) pads its dead lanes with the last live
//! lane's column and never stores their results.

use crate::error::{Error, Result};
use pp_bsplines::basis::eval_nonzero_basis_lanes;
use pp_bsplines::{PeriodicSplineSpace, MAX_DEGREE};
use pp_portable::{for_each_lane_block_mut, ExecSpace, Matrix, ResidentBatch, LANE_WIDTH};

/// Evaluate the lane group `col0 .. col0 + lanes` of `positions` row by
/// row. `coef(k, l)` reads periodic coefficient `k` of group lane `l`
/// (`l < LANE_WIDTH`, dead lanes included); `store(i, row)` receives the
/// eight results of row `i`, of which the first `lanes` are live.
fn eval_group(
    space: &PeriodicSplineSpace,
    positions: &Matrix,
    col0: usize,
    lanes: usize,
    coef: impl Fn(usize, usize) -> f64,
    store: impl FnMut(usize, &[f64; LANE_WIDTH]),
) {
    let (p, c, s) = (positions, coef, store);
    match space.degree() {
        1 => eval_rows::<1>(space, p, col0, lanes, c, s),
        2 => eval_rows::<2>(space, p, col0, lanes, c, s),
        3 => eval_rows::<3>(space, p, col0, lanes, c, s),
        4 => eval_rows::<4>(space, p, col0, lanes, c, s),
        5 => eval_rows::<5>(space, p, col0, lanes, c, s),
        d => unreachable!("PeriodicSplineSpace rejects degree {d}"),
    }
}

/// [`eval_group`] for degree `D`: per row, wrap and locate the eight feet
/// once, run the lane-wide Cox–de Boor recurrence at the wrapped points
/// and sum the basis values against the coefficients.
#[inline(always)]
fn eval_rows<const D: usize>(
    space: &PeriodicSplineSpace,
    positions: &Matrix,
    col0: usize,
    lanes: usize,
    coef: impl Fn(usize, usize) -> f64,
    mut store: impl FnMut(usize, &[f64; LANE_WIDTH]),
) {
    let knots = space.ext_knots();
    let (prs, pcs) = positions.strides();
    let p = positions.as_slice();
    // Dead lanes replay the last live lane's feet.
    let pcol: [usize; LANE_WIDTH] = std::array::from_fn(|l| (col0 + l.min(lanes - 1)) * pcs);
    for i in 0..positions.nrows() {
        let x = std::array::from_fn(|l| p[i * prs + pcol[l]]);
        let (w, cell) = space.locate_lanes(&x);
        let mut vals = [[0.0; LANE_WIDTH]; MAX_DEGREE + 1];
        eval_nonzero_basis_lanes::<D, LANE_WIDTH>(knots, &cell.map(|c| c + D), &w, &mut vals);
        let mut s = [0.0; LANE_WIDTH];
        for m in 0..=D {
            for l in 0..LANE_WIDTH {
                s[l] += vals[m][l] * coef(space.coef_index(cell[l], m), l);
            }
        }
        store(i, &s);
    }
}

/// Evaluates batched splines over a shared [`PeriodicSplineSpace`].
#[derive(Debug, Clone)]
pub struct SplineEvaluator {
    space: PeriodicSplineSpace,
}

impl SplineEvaluator {
    /// New evaluator for a space.
    pub fn new(space: PeriodicSplineSpace) -> Self {
        Self { space }
    }

    /// The underlying space.
    pub fn space(&self) -> &PeriodicSplineSpace {
        &self.space
    }

    /// Evaluate lane `j`'s spline (column `j` of `coefs`) at each position
    /// in column `j` of `positions`, writing into column `j` of `out`.
    /// Columns go through the lane-wide kernel in groups of
    /// [`LANE_WIDTH`]; each output is bit-identical to
    /// [`PeriodicSplineSpace::eval`] of its lane.
    ///
    /// Shapes: `coefs (n, batch)`, `positions (m, batch)`,
    /// `out (m, batch)`.
    pub fn eval_batched<E: ExecSpace>(
        &self,
        exec: &E,
        coefs: &Matrix,
        positions: &Matrix,
        out: &mut Matrix,
    ) -> Result<()> {
        let n = self.space.num_basis();
        if coefs.nrows() != n {
            return Err(Error::ShapeMismatch {
                expected_rows: n,
                actual_rows: coefs.nrows(),
            });
        }
        if positions.shape() != out.shape() || positions.ncols() != coefs.ncols() {
            return Err(Error::ShapeMismatch {
                expected_rows: positions.nrows(),
                actual_rows: out.nrows(),
            });
        }
        let space = &self.space;
        let (crs, ccs) = coefs.strides();
        let c = coefs.as_slice();
        for_each_lane_block_mut(exec, out, LANE_WIDTH, |col0, mut block| {
            let lanes = block.ncols();
            let ccol: [usize; LANE_WIDTH] =
                std::array::from_fn(|l| (col0 + l.min(lanes - 1)) * ccs);
            let coef = |k: usize, l: usize| c[k * crs + ccol[l]];
            eval_group(space, positions, col0, lanes, coef, |i, s| {
                for (l, &v) in s.iter().enumerate().take(lanes) {
                    block.set(i, l, v);
                }
            });
        });
        Ok(())
    }

    /// Resident variant of [`SplineEvaluator::eval_batched`]: coefficients
    /// are read straight out of the packed panels and results are written
    /// straight into the output batch's panels — no pack/unpack transpose
    /// on either side. Each panel runs the lane-wide kernel one row at a
    /// time, eight lanes per step, with one store per row; results are
    /// bit-identical to the host path lane for lane. Allocates nothing.
    ///
    /// Shapes: `coefs (n, batch)`, `positions (m, batch)`,
    /// `out (m, batch)`. Bumps `out`'s generation.
    pub fn eval_resident<E: ExecSpace>(
        &self,
        exec: &E,
        coefs: &ResidentBatch,
        positions: &Matrix,
        out: &mut ResidentBatch,
    ) -> Result<()> {
        let n = self.space.num_basis();
        if coefs.nrows() != n {
            return Err(Error::ShapeMismatch {
                expected_rows: n,
                actual_rows: coefs.nrows(),
            });
        }
        if positions.nrows() != out.nrows()
            || positions.ncols() != out.ncols()
            || positions.ncols() != coefs.ncols()
        {
            return Err(Error::ShapeMismatch {
                expected_rows: positions.nrows(),
                actual_rows: out.nrows(),
            });
        }
        let space = &self.space;
        let cpanels = coefs.panels();
        out.for_each_chunk_mut(exec, |c, lanes, chunk| {
            let cc = cpanels.chunk(c);
            let coef = |k: usize, l: usize| cc[k * LANE_WIDTH + l];
            eval_group(space, positions, c * LANE_WIDTH, lanes, coef, |i, s| {
                chunk[i * LANE_WIDTH..][..lanes].copy_from_slice(&s[..lanes]);
            });
        });
        Ok(())
    }

    /// Evaluate one lane at arbitrary points (convenience for examples).
    pub fn eval_lane(&self, coefs: &Matrix, lane: usize, xs: &[f64]) -> Vec<f64> {
        let c = coefs.col(lane).to_vec();
        xs.iter().map(|&x| self.space.eval(&c, x)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{BuilderVersion, SplineBuilder};
    use pp_bsplines::Breaks;
    use pp_portable::{Layout, Parallel, Serial};

    fn setup(n: usize, degree: usize) -> (PeriodicSplineSpace, SplineBuilder) {
        let sp = PeriodicSplineSpace::new(Breaks::uniform(n, 0.0, 1.0).unwrap(), degree).unwrap();
        let b = SplineBuilder::new(sp.clone(), BuilderVersion::FusedSpmv).unwrap();
        (sp, b)
    }

    #[test]
    fn batched_eval_matches_scalar_eval() {
        let (sp, builder) = setup(32, 3);
        let pts = sp.interpolation_points();
        let batch = 11;
        let mut coefs = Matrix::from_fn(32, batch, Layout::Left, |i, j| {
            ((j + 1) as f64 * std::f64::consts::TAU * pts[i]).cos()
        });
        builder.solve_in_place(&Parallel, &mut coefs).unwrap();

        let positions = Matrix::from_fn(50, batch, Layout::Left, |i, j| {
            (i as f64 + 0.5 * j as f64) / 50.0
        });
        let mut out = Matrix::zeros(50, batch, Layout::Left);
        let ev = SplineEvaluator::new(sp.clone());
        ev.eval_batched(&Parallel, &coefs, &positions, &mut out)
            .unwrap();

        for j in 0..batch {
            let c = coefs.col(j).to_vec();
            for i in 0..50 {
                let expected = sp.eval(&c, positions.get(i, j));
                assert!((out.get(i, j) - expected).abs() < 1e-14, "({i},{j})");
            }
        }
    }

    #[test]
    fn serial_parallel_agree() {
        let (sp, _) = setup(24, 5);
        let coefs = Matrix::from_fn(24, 8, Layout::Left, |i, j| ((i * 3 + j) % 7) as f64);
        let positions = Matrix::from_fn(30, 8, Layout::Left, |i, j| {
            (i as f64 * 0.7 + j as f64 * 1.3) % 1.0
        });
        let ev = SplineEvaluator::new(sp);
        let mut o1 = Matrix::zeros(30, 8, Layout::Left);
        let mut o2 = Matrix::zeros(30, 8, Layout::Left);
        ev.eval_batched(&Serial, &coefs, &positions, &mut o1)
            .unwrap();
        ev.eval_batched(&Parallel, &coefs, &positions, &mut o2)
            .unwrap();
        assert_eq!(o1.max_abs_diff(&o2), 0.0);
    }

    #[test]
    fn resident_eval_bit_identical_to_batched() {
        let (sp, builder) = setup(32, 3);
        let pts = sp.interpolation_points();
        for batch in [3usize, 8, 11, 16] {
            let mut coefs = Matrix::from_fn(32, batch, Layout::Left, |i, j| {
                ((j + 1) as f64 * std::f64::consts::TAU * pts[i]).cos()
            });
            builder.solve_in_place(&Parallel, &mut coefs).unwrap();
            let positions = Matrix::from_fn(40, batch, Layout::Left, |i, j| {
                (i as f64 + 0.3 * j as f64) / 40.0
            });
            let ev = SplineEvaluator::new(sp.clone());

            let mut host = Matrix::zeros(40, batch, Layout::Left);
            ev.eval_batched(&Parallel, &coefs, &positions, &mut host)
                .unwrap();

            let rcoefs = ResidentBatch::pack(&coefs);
            let mut rout = ResidentBatch::zeros(40, batch);
            let g0 = rout.generation();
            ev.eval_resident(&Parallel, &rcoefs, &positions, &mut rout)
                .unwrap();
            assert!(rout.generation() > g0);
            for i in 0..40 {
                for j in 0..batch {
                    assert_eq!(
                        host.get(i, j).to_bits(),
                        rout.get(i, j).to_bits(),
                        "batch {batch} ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn resident_eval_shape_checks() {
        let (sp, _) = setup(16, 3);
        let ev = SplineEvaluator::new(sp);
        let positions = Matrix::zeros(10, 4, Layout::Left);
        let mut out = ResidentBatch::zeros(10, 4);
        let coefs = ResidentBatch::zeros(15, 4); // wrong rows
        assert!(ev
            .eval_resident(&Serial, &coefs, &positions, &mut out)
            .is_err());
        let coefs = ResidentBatch::zeros(16, 3); // batch mismatch
        assert!(ev
            .eval_resident(&Serial, &coefs, &positions, &mut out)
            .is_err());
    }

    #[test]
    fn positions_outside_domain_wrap() {
        let (sp, builder) = setup(20, 3);
        let pts = sp.interpolation_points();
        let mut coefs = Matrix::from_fn(20, 1, Layout::Left, |i, _| {
            (std::f64::consts::TAU * pts[i]).sin()
        });
        builder.solve_in_place(&Serial, &mut coefs).unwrap();
        let ev = SplineEvaluator::new(sp);
        let inside = Matrix::from_fn(5, 1, Layout::Left, |i, _| 0.1 + 0.15 * i as f64);
        let outside = Matrix::from_fn(5, 1, Layout::Left, |i, _| 0.1 + 0.15 * i as f64 - 3.0);
        let mut a = Matrix::zeros(5, 1, Layout::Left);
        let mut b = Matrix::zeros(5, 1, Layout::Left);
        ev.eval_batched(&Serial, &coefs, &inside, &mut a).unwrap();
        ev.eval_batched(&Serial, &coefs, &outside, &mut b).unwrap();
        assert!(a.max_abs_diff(&b) < 1e-12);
    }

    #[test]
    fn shape_checks() {
        let (sp, _) = setup(16, 3);
        let ev = SplineEvaluator::new(sp);
        let coefs = Matrix::zeros(15, 4, Layout::Left); // wrong rows
        let positions = Matrix::zeros(10, 4, Layout::Left);
        let mut out = Matrix::zeros(10, 4, Layout::Left);
        assert!(ev
            .eval_batched(&Serial, &coefs, &positions, &mut out)
            .is_err());
        let coefs = Matrix::zeros(16, 3, Layout::Left); // batch mismatch
        assert!(ev
            .eval_batched(&Serial, &coefs, &positions, &mut out)
            .is_err());
    }
}
