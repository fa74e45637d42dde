//! Lane-interleaved SIMD solve kernels: forward/backward sweeps over
//! `[f64; LANE_WIDTH]` vectors of lanes.
//!
//! The per-lane recurrences of `pttrs`/`pbtrs`/`gbtrs`/`getrs` are
//! strictly sequential *along the matrix dimension* but embarrassingly
//! parallel *across lanes* — the paper's whole programming model
//! (Listing 1) is built on that. On an [`InterleavedMatrix`] chunk each
//! row of eight lanes is one contiguous 64-byte panel, so every
//! recurrence step below is a hand-unrolled `for l in 0..LANE_WIDTH`
//! loop over one `[f64; 8]` row, which LLVM vectorises across the row.
//! The workspace builds for baseline x86-64 with no target flags, so
//! the vector unit it may use is SSE2 and one row is four two-lane SSE2
//! operations; `objdump -d` of a release binary shows no `ymm` or `zmm`
//! instructions. A wider target would widen the same loop without a
//! source change.
//!
//! Each lane of the wide kernels performs the **exact same arithmetic,
//! in the same order, as the scalar lane kernels** (divisions stay
//! divisions, no reassociation), so results are bit-identical per lane;
//! the only scalar short-cuts dropped are the `if x != 0.0 { ... }`
//! skip-branches, which elide exact no-op updates and cannot change
//! values. Remainder chunks (fewer live lanes than [`LANE_WIDTH`]) fall
//! back to the scalar lane kernels on strided views of the same chunk.

use crate::banded::BandedLu;
use crate::lu::LuFactors;
use crate::pb::CholeskyBanded;
use crate::pt::PtFactors;
use pp_portable::instrument::{PhaseId, Span};
use pp_portable::{ExecSpace, InterleavedMatrix, StridedMut, LANE_WIDTH};

/// Reinterpret a chunk panel as `nrows` rows of [`LANE_WIDTH`] lanes.
///
/// # Panics
/// Panics if the panel length is not `nrows * LANE_WIDTH`.
#[inline]
fn rows_mut(chunk: &mut [f64], nrows: usize) -> &mut [[f64; LANE_WIDTH]] {
    assert_eq!(
        chunk.len(),
        nrows * LANE_WIDTH,
        "interleaved: panel length must be nrows * LANE_WIDTH"
    );
    // SAFETY: `[f64; LANE_WIDTH]` has the same layout as LANE_WIDTH
    // consecutive f64 (no padding), and the length was checked above, so
    // the cast reinterprets exactly the same memory with the same
    // mutable provenance.
    unsafe { std::slice::from_raw_parts_mut(chunk.as_mut_ptr().cast(), nrows) }
}

/// Wide `row[i] += a * row[k]` on an interleaved panel — the chunk
/// analogue of [`pp_portable::BlockMut::row_axpy`], used for the sparse
/// COO corner corrections of the fused Algorithm 1.
#[inline]
pub fn row_axpy_chunk(chunk: &mut [f64], nrows: usize, i: usize, k: usize, a: f64) {
    debug_assert!(i < nrows && k < nrows && i != k);
    let r = rows_mut(chunk, nrows);
    let src = r[k];
    let dst = &mut r[i];
    for l in 0..LANE_WIDTH {
        dst[l] += a * src[l];
    }
}

/// Interleaved `pttrs` on one chunk: solve the factored SPD tridiagonal
/// system on rows `row0..row0 + factors.n()` for the first `lanes`
/// lanes. Full chunks (`lanes == LANE_WIDTH`) take the wide path; the
/// remainder chunk falls back to the scalar lane kernel per live lane.
pub fn pttrs_chunk(
    factors: &PtFactors,
    chunk: &mut [f64],
    nrows: usize,
    row0: usize,
    lanes: usize,
) {
    let n = factors.n();
    debug_assert!(row0 + n <= nrows);
    if n == 0 || lanes == 0 {
        return;
    }
    if lanes < LANE_WIDTH {
        for l in 0..lanes {
            let mut lane = StridedMut::new(&mut chunk[row0 * LANE_WIDTH + l..], n, LANE_WIDTH);
            factors.solve_lane(&mut lane);
        }
        return;
    }
    let _span = Span::enter(PhaseId::SolvePttrs);
    let d = factors.d();
    let e = factors.e();
    let r = rows_mut(chunk, nrows);
    // Solve L x = b (unit lower bidiagonal with multipliers e).
    for i in 1..n {
        let ei = e[i - 1];
        let prev = r[row0 + i - 1];
        let cur = &mut r[row0 + i];
        for l in 0..LANE_WIDTH {
            cur[l] -= ei * prev[l];
        }
    }
    // Solve D L**T x = b.
    let dn = d[n - 1];
    let last = &mut r[row0 + n - 1];
    for l in 0..LANE_WIDTH {
        last[l] /= dn;
    }
    for i in (0..n - 1).rev() {
        let di = d[i];
        let ei = e[i];
        let next = r[row0 + i + 1];
        let cur = &mut r[row0 + i];
        for l in 0..LANE_WIDTH {
            cur[l] = cur[l] / di - next[l] * ei;
        }
    }
}

/// Interleaved `pbtrs` on one chunk (SPD banded Cholesky solve), same
/// row-window and remainder-lane contract as [`pttrs_chunk`].
pub fn pbtrs_chunk(
    factors: &CholeskyBanded,
    chunk: &mut [f64],
    nrows: usize,
    row0: usize,
    lanes: usize,
) {
    let n = factors.n();
    debug_assert!(row0 + n <= nrows);
    if n == 0 || lanes == 0 {
        return;
    }
    if lanes < LANE_WIDTH {
        for l in 0..lanes {
            let mut lane = StridedMut::new(&mut chunk[row0 * LANE_WIDTH + l..], n, LANE_WIDTH);
            factors.solve_lane(&mut lane);
        }
        return;
    }
    let _span = Span::enter(PhaseId::SolvePbtrs);
    let kd = factors.kd();
    let r = rows_mut(chunk, nrows);
    // Forward: L y = b.
    for j in 0..n {
        let ljj = factors.l(j, j);
        {
            let row = &mut r[row0 + j];
            for l in 0..LANE_WIDTH {
                row[l] /= ljj;
            }
        }
        let yj = r[row0 + j];
        let hi = (j + kd).min(n - 1);
        for i in j + 1..=hi {
            let lij = factors.l(i, j);
            let row = &mut r[row0 + i];
            for l in 0..LANE_WIDTH {
                row[l] -= lij * yj[l];
            }
        }
    }
    // Backward: Lᵀ x = y.
    for j in (0..n).rev() {
        let hi = (j + kd).min(n - 1);
        for i in j + 1..=hi {
            let lij = factors.l(i, j);
            let xi = r[row0 + i];
            let row = &mut r[row0 + j];
            for l in 0..LANE_WIDTH {
                row[l] -= lij * xi[l];
            }
        }
        let ljj = factors.l(j, j);
        let row = &mut r[row0 + j];
        for l in 0..LANE_WIDTH {
            row[l] /= ljj;
        }
    }
}

/// Interleaved `gbtrs` on one chunk (general banded LU solve with
/// partial pivoting — the pivot sequence is a property of the factors,
/// so row swaps vectorise across lanes), same contract as
/// [`pttrs_chunk`].
pub fn gbtrs_chunk(factors: &BandedLu, chunk: &mut [f64], nrows: usize, row0: usize, lanes: usize) {
    let n = factors.n();
    debug_assert!(row0 + n <= nrows);
    if n == 0 || lanes == 0 {
        return;
    }
    if lanes < LANE_WIDTH {
        for l in 0..lanes {
            let mut lane = StridedMut::new(&mut chunk[row0 * LANE_WIDTH + l..], n, LANE_WIDTH);
            factors.solve_lane(&mut lane);
        }
        return;
    }
    let _span = Span::enter(PhaseId::SolveGbtrs);
    let kl = factors.kl_internal();
    let kv = factors.upper_bandwidth();
    let ipiv = factors.pivots();
    let r = rows_mut(chunk, nrows);
    // Forward: apply P and the unit-lower factor.
    for j in 0..n.saturating_sub(1) {
        let p = ipiv[j];
        if p != j {
            r.swap(row0 + j, row0 + p);
        }
        let km = kl.min(n - 1 - j);
        let bj = r[row0 + j];
        for i in 1..=km {
            let fij = factors.factor(j + i, j);
            let row = &mut r[row0 + j + i];
            for l in 0..LANE_WIDTH {
                row[l] -= fij * bj[l];
            }
        }
    }
    // Backward: U x = b (bandwidth kl + ku after pivoting fill-in).
    for j in (0..n).rev() {
        let fjj = factors.factor(j, j);
        {
            let row = &mut r[row0 + j];
            for l in 0..LANE_WIDTH {
                row[l] /= fjj;
            }
        }
        let xj = r[row0 + j];
        let lm = kv.min(j);
        for i in 1..=lm {
            let fij = factors.factor(j - i, j);
            let row = &mut r[row0 + j - i];
            for l in 0..LANE_WIDTH {
                row[l] -= fij * xj[l];
            }
        }
    }
}

/// Interleaved dense `getrs` on one chunk (for the tiny Schur border),
/// same contract as [`pttrs_chunk`].
pub fn getrs_chunk(
    factors: &LuFactors,
    chunk: &mut [f64],
    nrows: usize,
    row0: usize,
    lanes: usize,
) {
    let n = factors.n();
    debug_assert!(row0 + n <= nrows);
    if n == 0 || lanes == 0 {
        return;
    }
    if lanes < LANE_WIDTH {
        for l in 0..lanes {
            let mut lane = StridedMut::new(&mut chunk[row0 * LANE_WIDTH + l..], n, LANE_WIDTH);
            factors.solve_lane(&mut lane);
        }
        return;
    }
    let _span = Span::enter(PhaseId::SchurGetrs);
    let lu = factors.lu();
    let ipiv = factors.ipiv();
    let r = rows_mut(chunk, nrows);
    // b <- P b.
    for i in 0..n {
        let p = ipiv[i];
        if p != i {
            r.swap(row0 + i, row0 + p);
        }
    }
    // Forward with unit lower triangle.
    for i in 1..n {
        let mut s = r[row0 + i];
        for k in 0..i {
            let a = lu.get(i, k);
            let bk = r[row0 + k];
            for l in 0..LANE_WIDTH {
                s[l] -= a * bk[l];
            }
        }
        r[row0 + i] = s;
    }
    // Backward with upper triangle.
    for i in (0..n).rev() {
        let mut s = r[row0 + i];
        for k in i + 1..n {
            let a = lu.get(i, k);
            let bk = r[row0 + k];
            for l in 0..LANE_WIDTH {
                s[l] -= a * bk[l];
            }
        }
        let aii = lu.get(i, i);
        for l in 0..LANE_WIDTH {
            s[l] /= aii;
        }
        r[row0 + i] = s;
    }
}

/// Batched interleaved `pttrs`: solve every lane of `b` in place,
/// chunk-parallel through `exec`.
///
/// # Panics
/// Panics if `b.nrows() != factors.n()`.
pub fn pttrs_interleaved<E: ExecSpace>(exec: &E, factors: &PtFactors, b: &mut InterleavedMatrix) {
    assert_eq!(
        b.nrows(),
        factors.n(),
        "pttrs_interleaved: rhs rows != order"
    );
    let n = factors.n();
    b.for_each_chunk_mut(exec, |_, lanes, panel| {
        pttrs_chunk(factors, panel, n, 0, lanes);
    });
}

/// Batched interleaved `pbtrs`, chunk-parallel through `exec`.
///
/// # Panics
/// Panics if `b.nrows() != factors.n()`.
pub fn pbtrs_interleaved<E: ExecSpace>(
    exec: &E,
    factors: &CholeskyBanded,
    b: &mut InterleavedMatrix,
) {
    assert_eq!(
        b.nrows(),
        factors.n(),
        "pbtrs_interleaved: rhs rows != order"
    );
    let n = factors.n();
    b.for_each_chunk_mut(exec, |_, lanes, panel| {
        pbtrs_chunk(factors, panel, n, 0, lanes);
    });
}

/// Batched interleaved `gbtrs`, chunk-parallel through `exec`.
///
/// # Panics
/// Panics if `b.nrows() != factors.n()`.
pub fn gbtrs_interleaved<E: ExecSpace>(exec: &E, factors: &BandedLu, b: &mut InterleavedMatrix) {
    assert_eq!(
        b.nrows(),
        factors.n(),
        "gbtrs_interleaved: rhs rows != order"
    );
    let n = factors.n();
    b.for_each_chunk_mut(exec, |_, lanes, panel| {
        gbtrs_chunk(factors, panel, n, 0, lanes);
    });
}

/// Batched interleaved dense `getrs`, chunk-parallel through `exec`.
///
/// # Panics
/// Panics if `b.nrows() != factors.n()`.
pub fn getrs_interleaved<E: ExecSpace>(exec: &E, factors: &LuFactors, b: &mut InterleavedMatrix) {
    assert_eq!(
        b.nrows(),
        factors.n(),
        "getrs_interleaved: rhs rows != order"
    );
    let n = factors.n();
    b.for_each_chunk_mut(exec, |_, lanes, panel| {
        getrs_chunk(factors, panel, n, 0, lanes);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::banded::{gbtrf, BandedMatrix};
    use crate::batched;
    use crate::lu::getrf;
    use crate::pb::{pbtrf, SymBandedMatrix};
    use crate::pt::pttrf;
    use pp_portable::{Layout, Matrix, Parallel, Serial, TestRng};

    fn random_rhs(n: usize, batch: usize, seed: u64) -> Matrix {
        let mut rng = TestRng::seed_from_u64(seed);
        Matrix::from_fn(n, batch, Layout::Left, |_, _| rng.gen_range(-3.0..3.0))
    }

    /// Wide solve must be bit-identical to the scalar per-lane solve (the
    /// arithmetic per lane is literally the same expressions).
    fn assert_bit_identical(scalar: &Matrix, wide: &InterleavedMatrix) {
        for i in 0..scalar.nrows() {
            for j in 0..scalar.ncols() {
                let s = scalar.get(i, j);
                let w = wide.get(i, j);
                assert!(
                    s.to_bits() == w.to_bits(),
                    "({i},{j}): scalar {s:e} != wide {w:e}"
                );
            }
        }
    }

    #[test]
    fn pttrs_interleaved_bit_identical_to_scalar() {
        for n in [1usize, 2, 17, 64] {
            let f = pttrf(&vec![4.0; n], &vec![-1.0; n.saturating_sub(1)]).unwrap();
            for batch in [1usize, 7, 8, 9, 16, 50] {
                let b0 = random_rhs(n, batch, 42 + n as u64);
                let mut scalar = b0.clone();
                batched::pttrs(&Serial, &f, &mut scalar);
                let mut wide = InterleavedMatrix::pack(&b0);
                pttrs_interleaved(&Parallel, &f, &mut wide);
                assert_bit_identical(&scalar, &wide);
            }
        }
    }

    #[test]
    fn pbtrs_interleaved_matches_scalar() {
        for (n, kd) in [(1usize, 0usize), (9, 2), (33, 3)] {
            let f = pbtrf(
                &SymBandedMatrix::from_fn(n, kd, |i, j| if i == j { 6.0 } else { -1.0 }).unwrap(),
            )
            .unwrap();
            for batch in [3usize, 8, 21] {
                let b0 = random_rhs(n, batch, 7 + n as u64);
                let mut scalar = b0.clone();
                batched::pbtrs(&Serial, &f, &mut scalar);
                let mut wide = InterleavedMatrix::pack(&b0);
                pbtrs_interleaved(&Parallel, &f, &mut wide);
                assert_bit_identical(&scalar, &wide);
            }
        }
    }

    #[test]
    fn gbtrs_interleaved_matches_scalar_with_pivoting() {
        // Small diagonal entries force genuine row interchanges.
        let n = 31;
        let a = BandedMatrix::from_fn(n, 2, 2, |i, j| {
            if i == j {
                if i % 5 == 0 {
                    1e-8
                } else {
                    4.0
                }
            } else {
                1.0 + (i + j) as f64 * 0.01
            }
        })
        .unwrap();
        let f = gbtrf(&a).unwrap();
        for batch in [5usize, 8, 19] {
            let b0 = random_rhs(n, batch, 13);
            let mut scalar = b0.clone();
            batched::gbtrs(&Serial, &f, &mut scalar);
            let mut wide = InterleavedMatrix::pack(&b0);
            gbtrs_interleaved(&Parallel, &f, &mut wide);
            assert_bit_identical(&scalar, &wide);
        }
    }

    #[test]
    fn getrs_interleaved_matches_scalar() {
        let n = 12;
        let mut rng = TestRng::seed_from_u64(5);
        let a = Matrix::from_fn(n, n, Layout::Right, |i, j| {
            if i == j {
                8.0
            } else {
                rng.gen_range(-1.0..1.0)
            }
        });
        let f = getrf(&a).unwrap();
        for batch in [1usize, 8, 11, 24] {
            let b0 = random_rhs(n, batch, 23);
            let mut scalar = b0.clone();
            batched::getrs(&Serial, &f, &mut scalar);
            let mut wide = InterleavedMatrix::pack(&b0);
            getrs_interleaved(&Parallel, &f, &mut wide);
            assert_bit_identical(&scalar, &wide);
        }
    }

    #[test]
    fn degenerate_sizes_solve_without_panicking() {
        // n == 1: no off-diagonal exists; the kernels must not touch e[0].
        let f1 = pttrf(&[4.0], &[]).unwrap();
        let b0 = random_rhs(1, 11, 3);
        let mut wide = InterleavedMatrix::pack(&b0);
        pttrs_interleaved(&Serial, &f1, &mut wide);
        for j in 0..11 {
            assert_eq!(wide.get(0, j), b0.get(0, j) / 4.0);
        }
        // n == 0: empty factors, empty rhs.
        let f0 = pttrf(&[], &[]).unwrap();
        let mut empty = InterleavedMatrix::pack(&Matrix::zeros(0, 5, Layout::Left));
        pttrs_interleaved(&Serial, &f0, &mut empty);
    }

    #[test]
    fn row_axpy_chunk_updates_one_row() {
        let mut chunk = vec![0.0; 3 * LANE_WIDTH];
        for l in 0..LANE_WIDTH {
            chunk[l] = (l + 1) as f64; // row 0
        }
        row_axpy_chunk(&mut chunk, 3, 2, 0, -2.0);
        for l in 0..LANE_WIDTH {
            assert_eq!(chunk[2 * LANE_WIDTH + l], -2.0 * (l + 1) as f64);
            assert_eq!(chunk[LANE_WIDTH + l], 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "rhs rows != order")]
    fn shape_mismatch_rejected() {
        let f = pttrf(&[4.0, 4.0], &[1.0]).unwrap();
        let mut b = InterleavedMatrix::zeros(3, 4);
        pttrs_interleaved(&Serial, &f, &mut b);
    }
}
