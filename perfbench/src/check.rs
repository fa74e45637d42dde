//! Correctness checkers, one per workload. Each runs outside the timed
//! region and turns a result into pass/fail for the `failed` tally; the
//! tests below hand each one a corrupted result (negative control).

use pp_portable::Matrix;
use pp_splinesolver::{LaneReport, QuarantineReason};

/// Relative residual bound for the uniform cubic resident build. The
/// worst residual observed over eight chained solves is ~5e-16 (the
/// matrix is diagonally dominant, condition number about 3).
pub const BUILD_RESIDUAL_TOL: f64 = 1e-13;
/// Relative residual bound for the graded quintic verified build: the
/// solver's own acceptance threshold. The worst lane observed over all
/// 8192 lanes is ~1.1e-11 (random right-hand sides on a graded mesh).
pub const VERIFIED_RESIDUAL_TOL: f64 = 1e-10;
/// Relative mass drift allowed over a whole Vlasov run. Periodic spline
/// semi-Lagrangian advection on a uniform grid conserves mass up to
/// round-off (worst drift seen: ~3e-12 over 200 steps).
pub const VLASOV_MASS_TOL: f64 = 1e-10;
/// Rotation: the largest point error after a full turn, relative to the
/// field's peak (worst over seeds 1–300: ~4.6e-3).
pub const ROTATION_ERROR_TOL: f64 = 5e-2;
/// Rotation: relative mass drift after a full turn (worst over seeds
/// 1–300: ~1.4e-5).
pub const ROTATION_MASS_TOL: f64 = 2e-4;

/// An assembled collocation matrix by rows, structural zeros dropped —
/// the reference the build checks multiply against. It is taken from
/// the assembled dense matrix, independent of the factored blocks.
pub struct SparseRows {
    rows: Vec<Vec<(usize, f64)>>,
}

impl SparseRows {
    pub fn from_dense(a: &Matrix) -> Self {
        let rows = (0..a.nrows())
            .map(|i| {
                (0..a.ncols())
                    .filter_map(|j| {
                        let v = a.get(i, j);
                        (v != 0.0).then_some((j, v))
                    })
                    .collect()
            })
            .collect();
        SparseRows { rows }
    }

    /// `‖A x − b‖₂ / ‖b‖₂` (NaN if anything is non-finite).
    pub fn rel_residual(&self, b: &[f64], x: &[f64]) -> f64 {
        let mut num = 0.0;
        let mut den = 0.0;
        for (row, &bi) in self.rows.iter().zip(b) {
            let ax: f64 = row.iter().map(|&(j, v)| v * x[j]).sum();
            num += (ax - bi) * (ax - bi);
            den += bi * bi;
        }
        if !(num.is_finite() && den.is_finite()) {
            return f64::NAN;
        }
        (num / den).sqrt()
    }
}

/// A residual passes only when it is a number at or below `tol`, so a
/// NaN residual fails.
pub fn residual_ok(residual: f64, tol: f64) -> bool {
    residual <= tol
}

/// Counts taken from a verified solve's [`LaneReport`].
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct ReportCounts {
    pub all_verified: bool,
    pub quarantined: usize,
    pub abft_trips: usize,
    pub refine_steps: usize,
}

impl ReportCounts {
    pub fn of(report: &LaneReport) -> Self {
        let sdc_quarantined = report
            .quarantined_lanes()
            .into_iter()
            .filter(|&l| {
                matches!(
                    report.verdict(l),
                    pp_splinesolver::LaneVerdict::Quarantined {
                        reason: QuarantineReason::SdcDetected { .. }
                    }
                )
            })
            .count();
        ReportCounts {
            all_verified: report.all_verified(),
            quarantined: report.quarantined_lanes().len(),
            abft_trips: report.sdc_corrected_lanes().len() + sdc_quarantined,
            refine_steps: report.total_refine_steps(),
        }
    }

    /// The verified workload's contract on clean input: every lane
    /// verified first time, nothing quarantined, no checksum trips.
    pub fn clean(&self) -> bool {
        self.all_verified && self.quarantined == 0 && self.abft_trips == 0
    }
}

/// Vlasov step: the field energy is a finite number and the mass (read
/// after the host sync) stayed within [`VLASOV_MASS_TOL`] of the initial
/// mass.
pub fn vlasov_ok(field_energy: f64, mass: f64, mass0: f64) -> bool {
    field_energy.is_finite() && ((mass - mass0) / mass0).abs() <= VLASOV_MASS_TOL
}

/// Rotation, after one full turn: the field is back at its start within
/// [`ROTATION_ERROR_TOL`] of the peak, and the mass within
/// [`ROTATION_MASS_TOL`].
pub fn turn_ok(field: &[f64], f0: &[f64]) -> bool {
    let peak = f0.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
    let err = field
        .iter()
        .zip(f0)
        .fold(0.0_f64, |m, (a, b)| m.max((a - b).abs()));
    let (mass, mass0): (f64, f64) = (field.iter().sum(), f0.iter().sum());
    // `f64::max` skips NaN, so finiteness is checked on its own.
    field.iter().all(|v| v.is_finite())
        && err / peak <= ROTATION_ERROR_TOL
        && ((mass - mass0) / mass0).abs() <= ROTATION_MASS_TOL
}

/// Bitwise equality (distinguishes `-0.0` from `0.0` and NaN payloads).
pub fn bitwise_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_bsplines::{assemble_interpolation_matrix, Breaks, PeriodicSplineSpace};
    use pp_portable::{Layout, Serial};
    use pp_splinesolver::{BuilderVersion, SplineBuilder, VerifyConfig};

    fn solved(n: usize, lanes: usize) -> (SparseRows, Matrix, Matrix) {
        let space = PeriodicSplineSpace::new(Breaks::uniform(n, 0.0, 1.0).unwrap(), 3).unwrap();
        let rows = SparseRows::from_dense(&assemble_interpolation_matrix(&space));
        let b = Matrix::from_fn(n, lanes, Layout::Left, |i, j| {
            crate::util::input_value(5, i, j)
        });
        let mut x = b.clone();
        let builder = SplineBuilder::new(space, BuilderVersion::Interleaved).unwrap();
        builder.solve_in_place(&Serial, &mut x).unwrap();
        (rows, b, x)
    }

    fn lane(m: &Matrix, j: usize) -> Vec<f64> {
        m.col(j).to_vec()
    }

    #[test]
    fn residual_check_passes_a_correct_solve() {
        let (rows, b, x) = solved(32, 9);
        for j in 0..9 {
            let r = rows.rel_residual(&lane(&b, j), &lane(&x, j));
            assert!(residual_ok(r, BUILD_RESIDUAL_TOL), "lane {j}: {r:e}");
        }
    }

    #[test]
    fn residual_check_fails_a_flipped_lane() {
        let (rows, b, x) = solved(32, 9);
        // Lane 3's solution reported for lane 2.
        let r = rows.rel_residual(&lane(&b, 2), &lane(&x, 3));
        assert!(!residual_ok(r, BUILD_RESIDUAL_TOL));
        // One flipped mantissa bit in one coefficient.
        let mut xl = lane(&x, 4);
        xl[7] = f64::from_bits(xl[7].to_bits() ^ (1 << 40));
        let r = rows.rel_residual(&lane(&b, 4), &xl);
        assert!(!residual_ok(r, BUILD_RESIDUAL_TOL), "{r:e}");
    }

    #[test]
    fn residual_check_fails_a_nan() {
        let (rows, b, x) = solved(32, 2);
        let mut xl = lane(&x, 1);
        xl[0] = f64::NAN;
        assert!(!residual_ok(
            rows.rel_residual(&lane(&b, 1), &xl),
            BUILD_RESIDUAL_TOL
        ));
    }

    fn verified_report(config: VerifyConfig, poison: Option<usize>) -> ReportCounts {
        let space =
            PeriodicSplineSpace::new(Breaks::graded(24, 0.0, 1.0, 0.5).unwrap(), 5).unwrap();
        let vb = SplineBuilder::new(space, BuilderVersion::Interleaved)
            .unwrap()
            .verified(config);
        let mut b = Matrix::from_fn(24, 16, Layout::Left, |i, j| {
            crate::util::input_value(9, i, j)
        });
        if let Some(l) = poison {
            b.set(3, l, f64::NAN);
        }
        ReportCounts::of(&vb.solve_in_place(&Serial, &mut b).unwrap())
    }

    fn clean_config() -> VerifyConfig {
        VerifyConfig {
            abft: true,
            sample_stride: 1,
            ..VerifyConfig::default()
        }
    }

    #[test]
    fn verified_check_passes_clean_input() {
        assert!(verified_report(clean_config(), None).clean());
    }

    #[test]
    fn verified_check_counts_a_nan_lane() {
        let c = verified_report(clean_config(), Some(5));
        assert_eq!(c.quarantined, 1);
        assert!(!c.clean());
    }

    #[test]
    fn verified_check_counts_an_abft_trip() {
        let config = VerifyConfig {
            sdc_probe_lanes: vec![6],
            ..clean_config()
        };
        let c = verified_report(config, None);
        assert_eq!(c.abft_trips, 1);
        assert!(!c.clean());
    }

    #[test]
    fn vlasov_check_catches_nan_energy_and_mass_drift() {
        assert!(vlasov_ok(0.25, 1.0, 1.0));
        assert!(!vlasov_ok(f64::NAN, 1.0, 1.0));
        assert!(!vlasov_ok(0.25, 1.0 + 1e-6, 1.0));
        assert!(!vlasov_ok(0.25, f64::NAN, 1.0));
    }

    #[test]
    fn rotation_check_catches_error_nan_and_mass_drift() {
        let f0: Vec<f64> = (0..64)
            .map(|i| (-((i as f64 - 32.0) / 6.0).powi(2)).exp())
            .collect();
        assert!(turn_ok(&f0, &f0));
        let mut moved = f0.clone();
        moved.rotate_left(3);
        assert!(!turn_ok(&moved, &f0));
        let mut nan = f0.clone();
        nan[10] = f64::NAN;
        assert!(!turn_ok(&nan, &f0));
        let drift: Vec<f64> = f0.iter().map(|v| v * 1.001).collect();
        assert!(!turn_ok(&drift, &f0));
    }

    #[test]
    fn bitwise_equal_sees_every_bit() {
        assert!(bitwise_equal(&[1.0, -0.0], &[1.0, -0.0]));
        assert!(!bitwise_equal(&[0.0], &[-0.0]));
        assert!(!bitwise_equal(
            &[1.0],
            &[f64::from_bits(1.0f64.to_bits() ^ 1)]
        ));
    }
}
