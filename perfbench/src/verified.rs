//! `verified-host-graded`: `VerifiedBuilder::solve_in_place` on a host
//! matrix — pack/unpack on every call, residual sampling plus ABFT, and
//! the pivoted general-banded kernel of a graded mesh.

use std::time::Instant;

use pp_bsplines::{assemble_interpolation_matrix, Breaks, PeriodicSplineSpace};
use pp_portable::{ExecSpace, InterleavedMatrix, Layout, Matrix, Parallel, Serial, LANE_WIDTH};
use pp_splinesolver::{BuilderVersion, SchurBlocks, SplineBuilder, VerifiedBuilder, VerifyConfig};

use crate::check::{bitwise_equal, residual_ok, ReportCounts, SparseRows, VERIFIED_RESIDUAL_TOL};
use crate::err;
use crate::replay::{replay_interleaved, StageNs};
use crate::report::{dispatch_floor_us, repeat_setup, Ctx, EndToEnd, Layers, Measured};
use crate::util::{input_value, timed, Rng, Round, Samples};

const N: usize = 256;
const LANES: usize = 8192;
const DEGREE: usize = 5;
const GRADING: f64 = 0.5;
const SAMPLED_LANES: usize = 8;

/// The host input, its verified-path copy (the solver clones the
/// right-hand sides) and the packed panels.
pub const WS_BYTES: u64 = (3 * N * LANES * 8) as u64;
/// The packed panels one solve sweeps.
pub const SWEEP_BYTES: u64 = (N * LANES * 8) as u64;

fn space() -> Result<PeriodicSplineSpace, String> {
    PeriodicSplineSpace::new(Breaks::graded(N, 0.0, 1.0, GRADING).map_err(err)?, DEGREE)
        .map_err(err)
}

fn config() -> VerifyConfig {
    VerifyConfig {
        abft: true,
        sample_stride: 1,
        ..VerifyConfig::default()
    }
}

/// Report counts summed over a phase.
#[derive(Default)]
struct Counts {
    abft_trips: usize,
    refine_steps: usize,
    quarantined: usize,
}

/// The workload between ops: the solved matrix, its seeded input, the
/// reference rows and the sampled-lane generator.
struct Bench {
    m: Matrix,
    pristine: Matrix,
    rows: SparseRows,
    rng: Rng,
    counts: Counts,
}

impl Bench {
    /// One op: restore the seeded input (untimed), solve it in place,
    /// then check the sampled lanes' residuals against the assembled
    /// matrix and, when the op returns a report, its verdicts.
    fn round(
        &mut self,
        samples: &mut Samples,
        solve: impl FnOnce(&mut Matrix) -> Result<Option<ReportCounts>, String>,
    ) -> Round {
        self.m.deep_copy_from(&self.pristine).expect("same shape");
        let res = samples.time(|| solve(&mut self.m));
        let report_ok = match &res {
            Ok(Some(c)) => {
                self.counts.abft_trips += c.abft_trips;
                self.counts.refine_steps += c.refine_steps;
                self.counts.quarantined += c.quarantined;
                c.clean()
            }
            Ok(None) => true,
            Err(_) => false,
        };
        let lanes_ok = (0..SAMPLED_LANES).all(|_| {
            let l = self.rng.below(LANES);
            let r = self
                .rows
                .rel_residual(&self.pristine.col(l).to_vec(), &self.m.col(l).to_vec());
            residual_ok(r, VERIFIED_RESIDUAL_TOL)
        });
        Round {
            ops: 1,
            failed: usize::from(!(report_ok && lanes_ok)),
        }
    }
}

fn verified<E: ExecSpace>(
    vb: &VerifiedBuilder,
    exec: &E,
    m: &mut Matrix,
) -> Result<Option<ReportCounts>, String> {
    vb.solve_in_place(exec, m)
        .map(|r| Some(ReportCounts::of(&r)))
        .map_err(err)
}

pub fn run(ctx: &Ctx) -> Result<Measured, String> {
    let pristine = Matrix::from_fn(N, LANES, Layout::Left, |i, j| input_value(ctx.seed, i, j));
    let ((vb, m), setup_secs) = repeat_setup(ctx, || {
        let t0 = Instant::now();
        let vb = SplineBuilder::new(space()?, BuilderVersion::Interleaved)
            .map_err(err)?
            .verified(config());
        let mut m = pristine.clone();
        vb.solve_in_place(&Parallel, &mut m).map_err(err)?;
        Ok(((vb, m), t0.elapsed().as_secs_f64()))
    })?;
    let mut bench = Bench {
        m,
        rows: SparseRows::from_dense(&assemble_interpolation_matrix(vb.builder().space())),
        pristine,
        rng: Rng::new(ctx.seed),
        counts: Counts::default(),
    };

    if !ctx.trace {
        let (parallel, serial) = ctx.paired(|par, s| {
            if par {
                bench.round(s, |m| verified(&vb, &Parallel, m))
            } else {
                bench.round(s, |m| verified(&vb, &Serial, m))
            }
        });
        return Ok(Measured::EndToEnd(EndToEnd {
            setup_secs,
            parallel,
            serial,
            points_per_op: (N * LANES) as f64,
        }));
    }

    let mut layers = Layers::default();
    let (_, space_s) = timed(|| space().map(|s| s.interpolation_points()));
    let (_, factor_s) = timed(|| SchurBlocks::new(vb.builder().space()));
    layers.space_ms = space_s * 1e3;
    layers.factor_ms = factor_s * 1e3;

    // Bitwise check: the replay against the plain and the verified call.
    let builder = vb.builder();
    let pristine = &bench.pristine;
    let mut want = pristine.clone();
    builder.solve_in_place(&Parallel, &mut want).map_err(err)?;
    let mut want_verified = pristine.clone();
    vb.solve_in_place(&Parallel, &mut want_verified)
        .map_err(err)?;
    let mut got = pristine.clone();
    let mut ib = InterleavedMatrix::pack(&got);
    replay_interleaved(
        &Parallel,
        builder.blocks(),
        &mut ib,
        &mut StageNs::default(),
    );
    ib.unpack_into(&mut got).map_err(err)?;
    layers.replay_bitwise = bitwise_equal(want.as_slice(), got.as_slice())
        && bitwise_equal(want_verified.as_slice(), got.as_slice());

    let plain = |m: &mut Matrix| {
        builder
            .solve_in_place(&Parallel, m)
            .map(|_| None)
            .map_err(err)
    };
    // The verified call against the plain builder call: the verify cost.
    let (untraced, plain_v) = ctx.alternate(0.3, |first, s| {
        if first {
            bench.round(s, |m| verified(&vb, &Parallel, m))
        } else {
            bench.round(s, plain)
        }
    });
    (layers.dispatches_per_op, layers.pool_busy_frac) = untraced.pool_per_op();
    let ops = untraced.secs.len() as f64;
    layers.abft_trips = bench.counts.abft_trips as f64 / ops;
    layers.refine_steps = bench.counts.refine_steps as f64 / ops;
    layers.quarantined_lanes = bench.counts.quarantined as f64 / ops;

    // The replay stands for the builder call inside the verified solve,
    // so it is compared with the plain builder call.
    let mut stages = StageNs::default();
    let (mut pack_s, mut call_s, mut unpack_s) = (0.0, 0.0, 0.0);
    let (plain_t, traced) = ctx.alternate(0.3, |first, s| {
        if first {
            return bench.round(s, plain);
        }
        bench.round(s, |m| {
            let (mut ib, p) = timed(|| InterleavedMatrix::pack(m));
            let (_, c) =
                timed(|| replay_interleaved(&Parallel, builder.blocks(), &mut ib, &mut stages));
            let (res, u) = timed(|| ib.unpack_into(m));
            pack_s += p;
            call_s += c;
            unpack_s += u;
            res.map(|_| None).map_err(err)
        })
    });
    let traced_ops = traced.secs.len() as f64;
    layers.stages = stages;
    layers.traced_ops = traced.secs.len();
    layers.q_sweep_bytes = (builder.blocks().q_size() * LANES * 8 * 4) as f64;
    layers.pack_ms = pack_s / traced_ops * 1e3;
    layers.unpack_ms = unpack_s / traced_ops * 1e3;
    layers.solve_call_ms = call_s / traced_ops * 1e3;
    layers.layout_bytes = (2 * 2 * N * LANES * 8) as f64;
    layers.dispatch_floor_us = dispatch_floor_us(LANES.div_ceil(LANE_WIDTH));
    layers.solve_ms = untraced.p50_ms();
    layers.verify_ms = untraced.p50_ms() - plain_v.p50_ms();
    layers.untraced_op_ms = plain_t.p50_ms();
    layers.traced_op_ms = traced.p50_ms();
    layers.traced_mean_ms = traced.timed_secs() / traced_ops * 1e3;
    layers.attributed_ms = layers.solve_stages_ms(ctx.threads) + layers.pack_ms + layers.unpack_ms;
    let mut tally = untraced;
    for other in [&plain_v, &plain_t, &traced] {
        tally.absorb(other);
    }
    Ok(Measured::Layers(layers, tally))
}
