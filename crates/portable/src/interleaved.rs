//! Interleaved-SoA batch storage: lanes in chunks of [`LANE_WIDTH`].
//!
//! The tiled path (PR on `pp-linalg::tiled`) fixed the *loop order* of the
//! batched sweeps but left the *storage* alone: on the paper's
//! lane-contiguous `LayoutLeft` right-hand side, a row panel of `tile`
//! lanes still gathers elements `n` doubles apart. The interleaved layout
//! of Gloster et al. (*Efficient Interleaved Batch Matrix Solvers*,
//! PAPERS.md) removes that last stride: lanes are grouped into chunks of
//! `W = LANE_WIDTH` and stored row-major *within* the chunk, so element
//! `(i, lane)` of chunk `c` lives at
//!
//! ```text
//! offset(i, lane) = c·(nrows·W) + i·W + (lane mod W)
//! ```
//!
//! Every recurrence step of a forward/backward sweep then touches one
//! contiguous `[f64; W]` row and consecutive steps walk memory linearly.
//! The workspace builds for baseline x86-64 (no `target-cpu` or
//! `target-feature` flags), so the compiler has SSE2 only and a row is
//! four two-lane SSE2 operations, not one AVX-512 register. Packing and
//! unpacking are explicit transpose passes recorded under
//! [`PhaseId::Transpose`] so the phase profile attributes their cost;
//! [`InterleavedMatrix::pack_with`] and
//! [`InterleavedMatrix::unpack_into_with`] run them chunk-parallel.
//!
//! The final chunk of a batch whose width is not a multiple of `W` is
//! allocated at full width (the padding lanes are zero and never read
//! back); solvers are told the *live* lane count and fall back to scalar
//! per-lane sweeps for such remainder chunks.

use crate::error::{Error, Result};
use crate::exec::{ExecSpace, Serial};
use crate::instrument::{PhaseId, Span};
use crate::matrix::Matrix;
use crate::ptr::SharedMutPtr;

/// Lanes per interleaved chunk: 8 × f64 = one 64-byte cache line (four
/// SSE2 registers on the baseline x86-64 target the workspace builds for).
pub const LANE_WIDTH: usize = 8;

/// A batch block stored lane-interleaved in chunks of [`LANE_WIDTH`].
///
/// Logically an `nrows × ncols` matrix whose columns are batch lanes,
/// physically a sequence of `ceil(ncols / W)` row-major `[nrows][W]`
/// panels. See the module docs for the offset map.
#[derive(Debug, Clone, PartialEq)]
pub struct InterleavedMatrix {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl InterleavedMatrix {
    /// An all-zero interleaved block of `nrows × ncols` (the final chunk
    /// is padded to the full [`LANE_WIDTH`]).
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        let chunks = ncols.div_ceil(LANE_WIDTH);
        Self {
            nrows,
            ncols,
            data: vec![0.0; chunks * nrows * LANE_WIDTH],
        }
    }

    /// Pack a [`Matrix`] (either layout) into interleaved storage — the
    /// explicit transpose-in pass, recorded under [`PhaseId::Transpose`].
    pub fn pack(src: &Matrix) -> Self {
        Self::pack_with(&Serial, src)
    }

    /// [`InterleavedMatrix::pack`] with the chunks gathered through
    /// `exec`: each chunk fills its own panel, so the pass runs
    /// chunk-parallel on [`crate::Parallel`] and is a plain loop on
    /// [`Serial`].
    pub fn pack_with<E: ExecSpace>(exec: &E, src: &Matrix) -> Self {
        let mut out = Self::zeros(src.nrows(), src.ncols());
        out.copy_from_matrix_with(exec, src, false)
            .expect("shapes match by construction");
        out
    }

    /// Pack the *logical transpose* of a [`Matrix`]: element `(i, j)` of
    /// the interleaved block is `src(j, i)`. This fuses the explicit
    /// reorientation transpose and the interleave pack into one pass —
    /// the resident ingress of a pipeline whose host mirror is stored in
    /// the flipped orientation (e.g. the advection distribution slab).
    pub fn pack_transposed(src: &Matrix) -> Self {
        let mut out = Self::zeros(src.ncols(), src.nrows());
        out.copy_from_matrix(src, true)
            .expect("shapes match by construction");
        out
    }

    /// Refill this block from a [`Matrix`] without reallocating. With
    /// `transposed`, reads `src(j, i)` into logical `(i, j)` (the
    /// [`InterleavedMatrix::pack_transposed`] orientation). Recorded
    /// under [`PhaseId::Transpose`].
    pub fn copy_from_matrix(&mut self, src: &Matrix, transposed: bool) -> Result<()> {
        self.copy_from_matrix_with(&Serial, src, transposed)
    }

    /// The one pack implementation: each chunk gathers its own panel
    /// through `exec`.
    fn copy_from_matrix_with<E: ExecSpace>(
        &mut self,
        exec: &E,
        src: &Matrix,
        transposed: bool,
    ) -> Result<()> {
        let logical = if transposed {
            (src.ncols(), src.nrows())
        } else {
            src.shape()
        };
        if logical != (self.nrows, self.ncols) {
            return Err(Error::ShapeMismatch {
                op: "InterleavedMatrix::copy_from_matrix",
                left: (self.nrows, self.ncols),
                right: logical,
            });
        }
        let _span = Span::enter(PhaseId::Transpose);
        self.for_each_chunk_mut(exec, |c, lanes, panel| {
            gather_panel(src, transposed, c, lanes, panel);
        });
        Ok(())
    }

    /// Gather chunk `c` of `src` (logical `(i, j)` = `src(i, j)`) into a
    /// `[nrows][LANE_WIDTH]` panel buffer — the per-chunk body of
    /// [`InterleavedMatrix::pack`], for consumers that want one chunk of
    /// a host matrix in panel form without packing the whole batch.
    /// Padding lanes of a partial chunk are left as they are.
    pub fn gather_chunk(src: &Matrix, c: usize, panel: &mut [f64]) {
        let lanes = LANE_WIDTH.min(src.ncols() - c * LANE_WIDTH);
        gather_panel(src, false, c, lanes, panel);
    }

    /// Unpack into a [`Matrix`] of the same shape (either layout) — the
    /// explicit transpose-out pass, recorded under [`PhaseId::Transpose`].
    pub fn unpack_into(&self, dst: &mut Matrix) -> Result<()> {
        self.unpack_into_with(&Serial, dst)
    }

    /// [`InterleavedMatrix::unpack_into`] with the chunks scattered
    /// through `exec`: each chunk writes its own batch columns, so the
    /// pass runs chunk-parallel on [`crate::Parallel`].
    pub fn unpack_into_with<E: ExecSpace>(&self, exec: &E, dst: &mut Matrix) -> Result<()> {
        if dst.shape() != (self.nrows, self.ncols) {
            return Err(Error::ShapeMismatch {
                op: "InterleavedMatrix::unpack_into",
                left: (self.nrows, self.ncols),
                right: dst.shape(),
            });
        }
        self.scatter(exec, dst, false);
        Ok(())
    }

    /// Unpack the *logical transpose* into a `(ncols, nrows)` [`Matrix`]:
    /// `dst(j, i) = self(i, j)`. The egress twin of
    /// [`InterleavedMatrix::pack_transposed`], fusing unpack and
    /// reorientation into one pass under [`PhaseId::Transpose`].
    pub fn unpack_transposed_into(&self, dst: &mut Matrix) -> Result<()> {
        if dst.shape() != (self.ncols, self.nrows) {
            return Err(Error::ShapeMismatch {
                op: "InterleavedMatrix::unpack_transposed_into",
                left: (self.ncols, self.nrows),
                right: dst.shape(),
            });
        }
        self.scatter(&Serial, dst, true);
        Ok(())
    }

    /// The one unpack implementation: chunk `c` writes logical columns
    /// `c·W .. c·W + lanes` of `dst` (its transpose when `transposed`).
    fn scatter<E: ExecSpace>(&self, exec: &E, dst: &mut Matrix, transposed: bool) {
        let _span = Span::enter(PhaseId::Transpose);
        let (rs, cs) = dst.strides();
        let (lrs, lcs) = if transposed { (cs, rs) } else { (rs, cs) };
        let nrows = self.nrows;
        let ptr = SharedMutPtr(dst.as_mut_ptr());
        exec.for_each(self.num_chunks(), |c| {
            let lanes = self.chunk_lanes(c);
            let panel = self.chunk(c);
            // SAFETY: the shape check of the caller makes every offset
            // `i·lrs + j·lcs` (i < nrows, j < ncols) an in-bounds element
            // of `dst`, and the map is injective for both layouts. Chunk
            // c only writes columns j ∈ [c·W, c·W + lanes), each c is
            // visited exactly once, so concurrent chunks write disjoint
            // elements.
            let put = |i: usize, l: usize| unsafe {
                *ptr.add(i * lrs + (c * LANE_WIDTH + l) * lcs) = panel[i * LANE_WIDTH + l];
            };
            if lrs == 1 {
                // Lane-contiguous destination: write each column once.
                (0..lanes).for_each(|l| (0..nrows).for_each(|i| put(i, l)));
            } else {
                (0..nrows).for_each(|i| (0..lanes).for_each(|l| put(i, l)));
            }
        });
    }

    /// Logical transpose into another interleaved block (`dst(j, i) =
    /// self(i, j)`, `dst` shaped `(ncols, nrows)`): the one reorientation
    /// pass a resident pipeline still needs when the batch dimension
    /// itself flips (e.g. x- vs. v-advection of a phase-space slab).
    /// One pass, panel to panel, never touching a host [`Matrix`];
    /// recorded under [`PhaseId::Transpose`]. Serial; see
    /// [`InterleavedMatrix::transpose_into_with`].
    pub fn transpose_into(&self, dst: &mut InterleavedMatrix) -> Result<()> {
        self.transpose_into_with(&Serial, dst)
    }

    /// [`InterleavedMatrix::transpose_into`] with the destination panels
    /// filled through `exec`: destination chunk `d` holds source rows
    /// `d·W ..`, so it is assembled from one `W × W` tile transpose per
    /// source chunk and each panel is one chunk task. Live lanes only;
    /// padding lanes of `dst` are left as they are.
    pub fn transpose_into_with<E: ExecSpace>(
        &self,
        exec: &E,
        dst: &mut InterleavedMatrix,
    ) -> Result<()> {
        if dst.shape() != (self.ncols, self.nrows) {
            return Err(Error::ShapeMismatch {
                op: "InterleavedMatrix::transpose_into",
                left: (self.ncols, self.nrows),
                right: dst.shape(),
            });
        }
        let _span = Span::enter(PhaseId::Transpose);
        const TILE: usize = LANE_WIDTH * LANE_WIDTH;
        dst.for_each_chunk_mut(exec, |d, dst_lanes, panel| {
            for c in 0..self.num_chunks() {
                let src_lanes = self.chunk_lanes(c);
                // Source rows d·W .. d·W + dst_lanes of chunk c, and the
                // destination rows c·W .. c·W + src_lanes they land in.
                let tile = &self.chunk(c)[d * TILE..][..dst_lanes * LANE_WIDTH];
                let out = &mut panel[c * TILE..][..src_lanes * LANE_WIDTH];
                for (la, row) in out.chunks_exact_mut(LANE_WIDTH).enumerate() {
                    for (lb, v) in row[..dst_lanes].iter_mut().enumerate() {
                        *v = tile[lb * LANE_WIDTH + la];
                    }
                }
            }
        });
        Ok(())
    }

    /// Logical shape `(nrows, ncols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }

    /// Logical rows (the per-lane system size).
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Logical columns (live batch lanes, excluding chunk padding).
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of `[nrows][LANE_WIDTH]` chunks (the last may be partial).
    #[inline]
    pub fn num_chunks(&self) -> usize {
        self.ncols.div_ceil(LANE_WIDTH)
    }

    /// Live lanes in chunk `c` (equals [`LANE_WIDTH`] except possibly for
    /// the final chunk).
    #[inline]
    pub fn chunk_lanes(&self, c: usize) -> usize {
        debug_assert!(c < self.num_chunks());
        LANE_WIDTH.min(self.ncols - c * LANE_WIDTH)
    }

    /// Linear offset of logical element `(i, j)` in the interleaved
    /// storage — the contract the layout property tests check.
    #[inline]
    pub fn offset(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.nrows && j < self.ncols);
        let chunk = j / LANE_WIDTH;
        chunk * self.nrows * LANE_WIDTH + i * LANE_WIDTH + (j % LANE_WIDTH)
    }

    /// Read logical element `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(
            i < self.nrows && j < self.ncols,
            "InterleavedMatrix::get out of bounds"
        );
        self.data[self.offset(i, j)]
    }

    /// Write logical element `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        assert!(
            i < self.nrows && j < self.ncols,
            "InterleavedMatrix::set out of bounds"
        );
        let off = self.offset(i, j);
        self.data[off] = v;
    }

    /// The raw `[nrows][LANE_WIDTH]` panel of chunk `c` (padding lanes
    /// included).
    #[inline]
    pub fn chunk(&self, c: usize) -> &[f64] {
        let sz = self.nrows * LANE_WIDTH;
        &self.data[c * sz..(c + 1) * sz]
    }

    /// Mutable raw panel of chunk `c`.
    #[inline]
    pub fn chunk_mut(&mut self, c: usize) -> &mut [f64] {
        let sz = self.nrows * LANE_WIDTH;
        &mut self.data[c * sz..(c + 1) * sz]
    }

    /// Visit every chunk with `f(chunk_index, live_lanes, panel)`, possibly
    /// concurrently — the interleaved analogue of
    /// [`crate::block::for_each_lane_block_mut`]: chunks are disjoint
    /// contiguous panels, so they dispatch straight onto the worker pool's
    /// chunked `for_each`.
    pub fn for_each_chunk_mut<E, F>(&mut self, exec: &E, f: F)
    where
        E: ExecSpace,
        F: Fn(usize, usize, &mut [f64]) + Sync + Send,
    {
        let chunks = self.num_chunks();
        let sz = self.nrows * LANE_WIDTH;
        let ncols = self.ncols;
        let ptr = SharedMutPtr(self.data.as_mut_ptr());
        exec.for_each(chunks, |c| {
            let lanes = LANE_WIDTH.min(ncols - c * LANE_WIDTH);
            // SAFETY: chunk c owns the contiguous element range
            // [c*sz, (c+1)*sz), each c is visited exactly once, and the
            // ranges are pairwise disjoint, so no two concurrent slices
            // overlap and every slice stays inside the allocation.
            let panel = unsafe { std::slice::from_raw_parts_mut(ptr.add(c * sz), sz) };
            f(c, lanes, panel);
        });
    }
}

/// Fill chunk `c`'s panel from `src` (its transpose when `transposed`),
/// live lanes only.
fn gather_panel(src: &Matrix, transposed: bool, c: usize, lanes: usize, panel: &mut [f64]) {
    let (rs, cs) = src.strides();
    // Source strides and row count for logical (row, col) indexing.
    let (lrs, lcs, nrows) = if transposed {
        (cs, rs, src.ncols())
    } else {
        (rs, cs, src.nrows())
    };
    let s = src.as_slice();
    if lrs == 1 {
        // Lane-contiguous source: stream each lane's column once.
        for l in 0..lanes {
            let col = &s[(c * LANE_WIDTH + l) * lcs..][..nrows];
            for (i, &v) in col.iter().enumerate() {
                panel[i * LANE_WIDTH + l] = v;
            }
        }
        return;
    }
    for i in 0..nrows {
        let row = i * LANE_WIDTH;
        for l in 0..lanes {
            panel[row + l] = s[i * lrs + (c * LANE_WIDTH + l) * lcs];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{Parallel, Serial};
    use crate::layout::Layout;
    use crate::testrng::TestRng;

    #[test]
    fn pack_unpack_round_trips_both_layouts() {
        let mut rng = TestRng::seed_from_u64(11);
        for layout in [Layout::Left, Layout::Right] {
            for (n, batch) in [(1usize, 1usize), (5, 3), (4, 8), (7, 17), (3, 0)] {
                let src = Matrix::from_fn(n, batch, layout, |_, _| rng.gen_range(-5.0..5.0));
                let packed = InterleavedMatrix::pack(&src);
                let mut back = Matrix::zeros(n, batch, layout.flipped());
                packed.unpack_into(&mut back).unwrap();
                assert_eq!(back.max_abs_diff(&src), 0.0, "{layout:?} {n}x{batch}");
            }
        }
    }

    #[test]
    fn offsets_cover_each_element_exactly_once_non_square() {
        // The checked-contract property test the issue asks the
        // interleaved variant to inherit: every (i, j) maps to a unique
        // in-bounds offset, with padding slots never aliased.
        for (n, batch) in [(5usize, 3usize), (3, 11), (1, 9), (4, 16), (2, 1)] {
            let m = InterleavedMatrix::zeros(n, batch);
            let mut seen = vec![false; m.data.len()];
            for i in 0..n {
                for j in 0..batch {
                    let off = m.offset(i, j);
                    assert!(off < m.data.len(), "{n}x{batch}: offset out of bounds");
                    assert!(!seen[off], "{n}x{batch}: ({i},{j}) aliases offset {off}");
                    seen[off] = true;
                }
            }
            let live = seen.iter().filter(|s| **s).count();
            assert_eq!(live, n * batch);
        }
    }

    #[test]
    fn get_set_matches_pack() {
        let src = Matrix::from_fn(4, 13, Layout::Left, |i, j| (100 * i + j) as f64);
        let mut m = InterleavedMatrix::zeros(4, 13);
        for i in 0..4 {
            for j in 0..13 {
                m.set(i, j, src.get(i, j));
            }
        }
        assert_eq!(m, InterleavedMatrix::pack(&src));
        assert_eq!(m.get(3, 12), 312.0);
    }

    #[test]
    fn chunk_geometry() {
        let m = InterleavedMatrix::zeros(6, 19);
        assert_eq!(m.num_chunks(), 3);
        assert_eq!(m.chunk_lanes(0), 8);
        assert_eq!(m.chunk_lanes(1), 8);
        assert_eq!(m.chunk_lanes(2), 3);
        assert_eq!(m.chunk(1).len(), 6 * LANE_WIDTH);
        // Rows inside a chunk are contiguous LANE_WIDTH panels.
        assert_eq!(m.offset(2, 8), 6 * LANE_WIDTH + 2 * LANE_WIDTH);
        assert_eq!(m.offset(2, 9) - m.offset(2, 8), 1);
    }

    #[test]
    fn for_each_chunk_visits_disjoint_panels() {
        let mut m = InterleavedMatrix::zeros(3, 20);
        m.for_each_chunk_mut(&Parallel, |c, lanes, panel| {
            for (k, v) in panel.iter_mut().enumerate() {
                *v = (c * 1000 + k) as f64;
            }
            assert_eq!(lanes, if c == 2 { 4 } else { 8 });
        });
        for c in 0..3 {
            for k in 0..3 * LANE_WIDTH {
                assert_eq!(m.chunk(c)[k], (c * 1000 + k) as f64);
            }
        }
    }

    #[test]
    fn parallel_pack_and_unpack_match_serial_bitwise() {
        let mut rng = TestRng::seed_from_u64(13);
        for layout in [Layout::Left, Layout::Right] {
            for (n, batch) in [(3usize, 0usize), (1, 1), (4, 7), (5, 8), (3, 9), (2, 27)] {
                let src = Matrix::from_fn(n, batch, layout, |_, _| rng.gen_range(-5.0..5.0));
                let serial = InterleavedMatrix::pack(&src);
                let parallel = InterleavedMatrix::pack_with(&Parallel, &src);
                assert_eq!(serial, parallel, "{layout:?} {n}x{batch}");
                let mut back = Matrix::zeros(n, batch, layout);
                parallel.unpack_into_with(&Parallel, &mut back).unwrap();
                assert_eq!(back.as_slice(), src.as_slice(), "{layout:?} {n}x{batch}");
            }
        }
    }

    #[test]
    fn gather_chunk_matches_the_packed_panel() {
        let src = Matrix::from_fn(3, 11, Layout::Left, |i, j| (10 * i + j) as f64);
        let packed = InterleavedMatrix::pack(&src);
        for c in 0..packed.num_chunks() {
            let mut panel = vec![0.0; 3 * LANE_WIDTH];
            InterleavedMatrix::gather_chunk(&src, c, &mut panel);
            assert_eq!(panel, packed.chunk(c), "chunk {c}");
        }
    }

    #[test]
    fn transposed_pack_and_unpack_round_trip() {
        let src = Matrix::from_fn(5, 3, Layout::Right, |i, j| (7 * i + j) as f64);
        let packed = InterleavedMatrix::pack_transposed(&src);
        assert_eq!(packed.shape(), (3, 5));
        assert_eq!(packed.get(2, 4), src.get(4, 2));
        let mut back = Matrix::zeros(5, 3, Layout::Left);
        packed.unpack_transposed_into(&mut back).unwrap();
        assert_eq!(back.max_abs_diff(&src), 0.0);
    }

    /// The tile-by-tile flip, written out element by element.
    fn transpose_reference(src: &InterleavedMatrix) -> InterleavedMatrix {
        let mut t = InterleavedMatrix::zeros(src.ncols(), src.nrows());
        for i in 0..src.nrows() {
            for j in 0..src.ncols() {
                t.set(j, i, src.get(i, j));
            }
        }
        t
    }

    #[test]
    fn parallel_transpose_matches_serial_bitwise() {
        // The paper-size flip is far too slow under Miri; the small
        // shapes still cover partial panels on both sides.
        let shapes: &[(usize, usize)] = if cfg!(miri) {
            &[(1, 1), (13, 21), (64, 9)]
        } else {
            &[(1, 1), (13, 21), (64, 9), (1024, 1024)]
        };
        let mut rng = TestRng::seed_from_u64(17);
        for &(n, batch) in shapes {
            let src = Matrix::from_fn(n, batch, Layout::Left, |_, _| rng.gen_range(-5.0..5.0));
            let packed = InterleavedMatrix::pack(&src);
            let mut serial = InterleavedMatrix::zeros(batch, n);
            let mut parallel = InterleavedMatrix::zeros(batch, n);
            packed.transpose_into(&mut serial).unwrap();
            packed
                .transpose_into_with(&Parallel, &mut parallel)
                .unwrap();
            assert_eq!(serial.data, parallel.data, "{n}x{batch}");
            assert_eq!(serial, transpose_reference(&packed), "{n}x{batch}");
        }
        let mut wrong = InterleavedMatrix::zeros(3, 4);
        assert!(InterleavedMatrix::zeros(3, 4)
            .transpose_into_with(&Parallel, &mut wrong)
            .is_err());
    }

    #[test]
    fn unpack_shape_mismatch_is_typed() {
        let m = InterleavedMatrix::zeros(3, 4);
        let mut wrong = Matrix::zeros(4, 3, Layout::Left);
        assert!(m.unpack_into(&mut wrong).is_err());
    }

    #[test]
    fn empty_batch_is_fine() {
        let mut m = InterleavedMatrix::zeros(5, 0);
        assert_eq!(m.num_chunks(), 0);
        m.for_each_chunk_mut(&Serial, |_, _, _| panic!("no chunks to visit"));
        let mut dst = Matrix::zeros(5, 0, Layout::Left);
        m.unpack_into(&mut dst).unwrap();
    }
}
