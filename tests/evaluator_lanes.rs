//! Lane conformance of the batched spline evaluators.
//!
//! `SplineEvaluator::eval_resident` (panels in, panels out),
//! `SplineEvaluator::eval_batched` (host matrices) and the scalar
//! `PeriodicSplineSpace::eval` of each lane must agree **bit for bit**.
//! The matrix covers degree 1–5; uniform, graded and knot-like-placed
//! spaces on `[0, 1)` and `[-5, 5)`; batch widths below, at and across
//! the eight-lane panel width (1, 7, 8, 9, 1025); `Serial` and
//! `Parallel`; and feet that sit in the interior, exactly on knots, left
//! of the domain, several periods out and on the periodic seam.

use batched_splines::prelude::*;
use pp_bsplines::PointPlacement;
use pp_portable::TestRng;

const BATCHES: [usize; 5] = [1, 7, 8, 9, 1025];

/// The spaces under test: every degree, three mesh kinds, two domains.
fn spaces() -> Vec<(String, PeriodicSplineSpace)> {
    let mut out = Vec::new();
    for degree in 1..=5 {
        for (x0, x1) in [(0.0, 1.0), (-5.0, 5.0)] {
            let n = 23;
            let kinds = [
                (
                    "uniform",
                    Breaks::uniform(n, x0, x1).unwrap(),
                    PointPlacement::Greville,
                ),
                (
                    "graded",
                    Breaks::graded(n, x0, x1, 0.5).unwrap(),
                    PointPlacement::Greville,
                ),
                (
                    "knotlike",
                    Breaks::graded(n, x0, x1, 0.3).unwrap(),
                    PointPlacement::KnotLike,
                ),
            ];
            for (kind, breaks, placement) in kinds {
                let space = PeriodicSplineSpace::with_placement(breaks, degree, placement).unwrap();
                out.push((format!("deg {degree} {kind} [{x0}, {x1})"), space));
            }
        }
    }
    out
}

/// Feet for `batch` lanes: interior draws, break points, points left of
/// the domain and images up to three periods away, mixed per lane.
fn feet(space: &PeriodicSplineSpace, batch: usize, m: usize, rng: &mut TestRng) -> Matrix {
    let b = space.breaks();
    let (x0, l) = (b.x_min(), b.period());
    let t = b.points().to_vec();
    Matrix::from_fn(m, batch, Layout::Left, |i, j| {
        let base = match (i + j) % 4 {
            0 => x0 + l * rng.gen_range(0.0..1.0),
            1 => t[rng.gen_range(0..t.len())],
            2 => x0 - l * rng.gen_range(0.0..1.0),
            _ => x0 + l * rng.gen_range(-0.25..1.25),
        };
        let periods = rng.gen_range(0..7_usize) as f64 - 3.0;
        base + periods * l
    })
}

/// Evaluate through all three paths and compare every output's bits.
fn check(name: &str, space: &PeriodicSplineSpace, coefs: &Matrix, pos: &Matrix) {
    let (m, batch) = pos.shape();
    let ev = SplineEvaluator::new(space.clone());
    let rcoefs = ResidentBatch::pack(coefs);
    let lanes: Vec<Vec<f64>> = (0..batch).map(|j| coefs.col(j).to_vec()).collect();
    let mut reference = Matrix::zeros(m, batch, Layout::Left);
    for (j, lane) in lanes.iter().enumerate() {
        for i in 0..m {
            reference.set(i, j, space.eval(lane, pos.get(i, j)));
        }
    }
    for parallel in [false, true] {
        let mut host = Matrix::zeros(m, batch, Layout::Left);
        let mut res = ResidentBatch::zeros(m, batch);
        if parallel {
            ev.eval_batched(&Parallel, coefs, pos, &mut host).unwrap();
            ev.eval_resident(&Parallel, &rcoefs, pos, &mut res).unwrap();
        } else {
            ev.eval_batched(&Serial, coefs, pos, &mut host).unwrap();
            ev.eval_resident(&Serial, &rcoefs, pos, &mut res).unwrap();
        }
        for j in 0..batch {
            for i in 0..m {
                let want = reference.get(i, j).to_bits();
                let x = pos.get(i, j);
                assert_eq!(
                    host.get(i, j).to_bits(),
                    want,
                    "{name}: eval_batched lane {j} row {i} x {x:e} (parallel {parallel})"
                );
                assert_eq!(
                    res.get(i, j).to_bits(),
                    want,
                    "{name}: eval_resident lane {j} row {i} x {x:e} (parallel {parallel})"
                );
            }
        }
    }
}

#[test]
fn resident_batched_and_scalar_agree_bitwise_across_the_matrix() {
    let mut rng = TestRng::seed_from_u64(0x1A_4E5);
    for (name, space) in spaces() {
        let n = space.num_basis();
        for batch in BATCHES {
            // Fewer feet per lane on the wide batch keep the debug run short.
            let m = if batch > 64 { 6 } else { 29 };
            let coefs = Matrix::from_fn(n, batch, Layout::Left, |_, _| rng.gen_range(-1.0..1.0));
            let pos = feet(&space, batch, m, &mut rng);
            check(&format!("{name} batch {batch}"), &space, &coefs, &pos);
        }
    }
}

#[test]
fn row_major_host_matrices_agree_bitwise() {
    // eval_batched takes either layout; the lane contract must not care.
    let mut rng = TestRng::seed_from_u64(0x1A_4E6);
    for (name, space) in spaces().into_iter().step_by(5) {
        let n = space.num_basis();
        for batch in [9usize, 17] {
            let coefs = Matrix::from_fn(n, batch, Layout::Right, |_, _| rng.gen_range(-1.0..1.0));
            let pos = feet(&space, batch, 11, &mut rng).to_layout(Layout::Right);
            check(
                &format!("{name} row-major batch {batch}"),
                &space,
                &coefs,
                &pos,
            );
        }
    }
}

/// The largest float below `x` (`f64::next_down` is newer than the
/// workspace's minimum Rust).
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
fn seam_feet_agree_bitwise_and_non_finite_feet_give_nan() {
    let mut rng = TestRng::seed_from_u64(0x1A_4E7);
    for (name, space) in spaces() {
        let b = space.breaks();
        let (x0, l) = (b.x_min(), b.period());
        // Each right edge of the period and its images up to three
        // periods away, exactly and one ulp below.
        let mut seam = Vec::new();
        for k in -3..=4 {
            let edge = x0 + k as f64 * l;
            seam.extend([edge, next_down(edge)]);
        }
        let n = space.num_basis();
        for batch in [1usize, 9] {
            let coefs = Matrix::from_fn(n, batch, Layout::Left, |_, _| rng.gen_range(-1.0..1.0));
            let pos = Matrix::from_fn(seam.len(), batch, Layout::Left, |i, j| {
                seam[(i + j) % seam.len()]
            });
            check(&format!("{name} seam batch {batch}"), &space, &coefs, &pos);
        }

        let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let batch = 11;
        let coefs = Matrix::from_fn(n, batch, Layout::Left, |_, _| rng.gen_range(-1.0..1.0));
        // Non-finite feet mixed with finite ones in the same panel rows.
        let pos = Matrix::from_fn(6, batch, Layout::Left, |i, j| {
            if (i + j) % 2 == 0 {
                bad[(i + j) / 2 % 3]
            } else {
                x0 + 0.3 * l
            }
        });
        let ev = SplineEvaluator::new(space.clone());
        let mut host = Matrix::zeros(6, batch, Layout::Left);
        let mut res = ResidentBatch::zeros(6, batch);
        ev.eval_batched(&Parallel, &coefs, &pos, &mut host).unwrap();
        ev.eval_resident(&Parallel, &ResidentBatch::pack(&coefs), &pos, &mut res)
            .unwrap();
        for j in 0..batch {
            let lane = coefs.col(j).to_vec();
            for i in 0..6 {
                let x = pos.get(i, j);
                let (h, r, s) = (host.get(i, j), res.get(i, j), space.eval(&lane, x));
                if x.is_finite() {
                    assert_eq!(h.to_bits(), s.to_bits(), "{name}: lane {j} row {i}");
                    assert_eq!(r.to_bits(), s.to_bits(), "{name}: lane {j} row {i}");
                } else {
                    assert!(
                        h.is_nan() && r.is_nan() && s.is_nan(),
                        "{name}: x {x} gave {h} {r} {s}"
                    );
                }
            }
        }
    }
}
