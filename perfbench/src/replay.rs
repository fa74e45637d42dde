//! Traced replay of the interleaved Schur pipeline (Algorithm 1).
//!
//! The benchmark runs the pipeline itself, panel by panel, through the
//! public `pp-linalg` / `pp-sparse` / `pp-splinesolver` calls the builder
//! uses, with a clock read between stages. The arithmetic is the same
//! calls in the same order as `SplineBuilder::solve_resident`, so the
//! result must be bitwise equal to it; the workloads assert that.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use pp_linalg::interleaved::{gbtrs_chunk, getrs_chunk, pbtrs_chunk, pttrs_chunk, row_axpy_chunk};
use pp_portable::{ExecSpace, InterleavedMatrix, ResidentBatch, StridedMut, LANE_WIDTH};
use pp_splinesolver::builder::solve_one_lane;
use pp_splinesolver::{QFactors, SchurBlocks};

/// Thread-time per stage, summed over panels and ops, in nanoseconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct StageNs {
    /// Q-block `*_chunk` sweep.
    pub sweep: u64,
    /// λ and β `row_axpy_chunk` corner updates.
    pub corner: u64,
    /// `getrs_chunk` on the border rows.
    pub getrs: u64,
    /// Whole remainder panels (scalar `solve_one_lane` per live lane).
    pub remainder: u64,
    /// Lanes that took the scalar remainder path.
    pub remainder_lanes: u64,
}

impl StageNs {
    /// All attributed thread-time.
    pub fn total(&self) -> u64 {
        self.sweep + self.corner + self.getrs + self.remainder
    }
}

/// One slot of stage times per panel. Each panel is visited by exactly
/// one thread and writes only its own slot, so the threads never
/// contend on a shared counter.
struct Slots(Vec<[AtomicU64; 4]>);

impl Slots {
    fn new(panels: usize) -> Self {
        Slots((0..panels).map(|_| Default::default()).collect())
    }

    fn record(&self, panel: usize, ns: [u64; 4]) {
        for (slot, v) in self.0[panel].iter().zip(ns) {
            slot.store(v, Ordering::Relaxed);
        }
    }

    fn add_to(&self, acc: &mut StageNs, remainder_lanes: u64) {
        for s in &self.0 {
            acc.sweep += s[0].load(Ordering::Relaxed);
            acc.corner += s[1].load(Ordering::Relaxed);
            acc.getrs += s[2].load(Ordering::Relaxed);
            acc.remainder += s[3].load(Ordering::Relaxed);
        }
        acc.remainder_lanes += remainder_lanes;
    }
}

fn ns(from: Instant, to: Instant) -> u64 {
    to.duration_since(from).as_nanos() as u64
}

/// Algorithm 1 on one panel, returning `[sweep, corner, getrs,
/// remainder]` nanoseconds.
fn replay_panel(blocks: &SchurBlocks, lanes: usize, panel: &mut [f64]) -> [u64; 4] {
    let n = blocks.n();
    let q = blocks.q_size();
    let start = Instant::now();
    if lanes < LANE_WIDTH {
        for l in 0..lanes {
            let (head, tail) = panel.split_at_mut(q * LANE_WIDTH);
            let (h0, t0) = (l.min(head.len()), l.min(tail.len()));
            let mut b0 = StridedMut::new(&mut head[h0..], q, LANE_WIDTH);
            let mut b1 = StridedMut::new(&mut tail[t0..], n - q, LANE_WIDTH);
            solve_one_lane(blocks, true, &mut b0, &mut b1);
        }
        return [0, 0, 0, ns(start, Instant::now())];
    }
    // Step 1: Q x0' = b0 on rows 0..q.
    match blocks.q_factors() {
        QFactors::PdsTridiagonal(f) => pttrs_chunk(f, panel, n, 0, lanes),
        QFactors::PdsBanded(f) => pbtrs_chunk(f, panel, n, 0, lanes),
        QFactors::GeneralBanded(f) => gbtrs_chunk(f, panel, n, 0, lanes),
    }
    let t1 = Instant::now();
    // Step 2a: b1 ← b1 − λ x0'.
    for (r, c, v) in blocks.lambda_coo().iter() {
        row_axpy_chunk(panel, n, q + r, c, -v);
    }
    let t2 = Instant::now();
    // Step 2b: δ′ x1 = b1.
    getrs_chunk(blocks.delta_factors(), panel, n, q, lanes);
    let t3 = Instant::now();
    // Step 3: x0 ← x0' − β x1.
    for (r, c, v) in blocks.beta_coo().iter() {
        row_axpy_chunk(panel, n, r, q + c, -v);
    }
    let t4 = Instant::now();
    [ns(start, t1), ns(t1, t2) + ns(t3, t4), ns(t2, t3), 0]
}

/// Lanes of the last, partial panel (they take the scalar path).
fn remainder_lanes(ncols: usize) -> u64 {
    (ncols % LANE_WIDTH) as u64
}

/// Replay one solve on a resident batch, inside
/// `ResidentBatch::for_each_chunk_mut`, adding stage times to `acc`.
pub fn replay_resident<E: ExecSpace>(
    exec: &E,
    blocks: &SchurBlocks,
    rb: &mut ResidentBatch,
    acc: &mut StageNs,
) {
    assert_eq!(rb.nrows(), blocks.n(), "replay: batch rows");
    let slots = Slots::new(rb.panels().num_chunks());
    rb.for_each_chunk_mut(exec, |c, lanes, panel| {
        slots.record(c, replay_panel(blocks, lanes, panel))
    });
    slots.add_to(acc, remainder_lanes(rb.ncols()));
}

/// Replay one solve on packed panels (the per-call pack path).
pub fn replay_interleaved<E: ExecSpace>(
    exec: &E,
    blocks: &SchurBlocks,
    ib: &mut InterleavedMatrix,
    acc: &mut StageNs,
) {
    assert_eq!(ib.nrows(), blocks.n(), "replay: batch rows");
    let slots = Slots::new(ib.num_chunks());
    ib.for_each_chunk_mut(exec, |c, lanes, panel| {
        slots.record(c, replay_panel(blocks, lanes, panel))
    });
    slots.add_to(acc, remainder_lanes(ib.ncols()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::bitwise_equal;
    use pp_bsplines::{Breaks, PeriodicSplineSpace};
    use pp_portable::{Layout, Matrix, Parallel};
    use pp_splinesolver::{BuilderVersion, SplineBuilder};

    /// The replay is bitwise equal to the library call for every Table I
    /// class, including a remainder panel (batch not a multiple of 8).
    #[test]
    fn replay_is_bitwise_equal_to_solve_resident() {
        for (degree, uniform) in [(3, true), (4, true), (5, false)] {
            let breaks = if uniform {
                Breaks::uniform(40, 0.0, 1.0).unwrap()
            } else {
                Breaks::graded(40, 0.0, 1.0, 0.5).unwrap()
            };
            let space = PeriodicSplineSpace::new(breaks, degree).unwrap();
            let builder = SplineBuilder::new(space, BuilderVersion::Interleaved).unwrap();
            let b = Matrix::from_fn(40, 21, Layout::Left, |i, j| {
                crate::util::input_value(3, i, j)
            });
            let mut want = ResidentBatch::pack(&b);
            builder.solve_resident(&Parallel, &mut want).unwrap();
            let mut got = ResidentBatch::pack(&b);
            let mut acc = StageNs::default();
            replay_resident(&Parallel, builder.blocks(), &mut got, &mut acc);
            for c in 0..want.panels().num_chunks() {
                assert!(
                    bitwise_equal(want.panels().chunk(c), got.panels().chunk(c)),
                    "degree {degree} panel {c}"
                );
            }
            assert_eq!(acc.remainder_lanes, 5);
            assert!(acc.sweep > 0 && acc.remainder > 0);
        }
    }
}
