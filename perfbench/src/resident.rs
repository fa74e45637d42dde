//! `resident-build-large`: `SplineBuilder::solve_resident` on one
//! DRAM-sized resident batch — the paper's one-matrix, huge-batch regime.

use std::time::Instant;

use pp_bsplines::{assemble_interpolation_matrix, Breaks, PeriodicSplineSpace};
use pp_portable::{ExecSpace, Layout, Matrix, Parallel, ResidentBatch, Serial, LANE_WIDTH};
use pp_splinesolver::{BuilderVersion, SchurBlocks, SplineBuilder};

use crate::check::{bitwise_equal, residual_ok, SparseRows, BUILD_RESIDUAL_TOL};
use crate::err;
use crate::replay::{replay_resident, StageNs};
use crate::report::{dispatch_floor_us, repeat_setup, Ctx, EndToEnd, Layers, Measured};
use crate::util::{input_value, timed, Rng, Round, Samples};

const N: usize = 1024;
const LANES: usize = 65_536;
const DEGREE: usize = 3;
/// Ops chained on one fill. Each solve multiplies the Nyquist component
/// by at most 3 (the smallest eigenvalue of the cubic collocation matrix
/// is 1/3), so eight chained solves stay far from overflow while the
/// 512 MiB refill (slower than a solve) is paid once per eight ops,
/// outside the timed region.
const REFILL_EVERY: usize = 8;
/// Lanes whose residual is checked after every op (plus the last lane).
const SAMPLED_LANES: usize = 4;

/// Bytes of the resident panels.
pub const WS_BYTES: u64 = (N * LANES * 8) as u64;
/// The batch one solve sweeps: the whole working set.
pub const SWEEP_BYTES: u64 = WS_BYTES;

struct State {
    builder: SplineBuilder,
    rb: ResidentBatch,
}

fn space() -> Result<PeriodicSplineSpace, String> {
    PeriodicSplineSpace::new(Breaks::uniform(N, 0.0, 1.0).map_err(err)?, DEGREE).map_err(err)
}

/// Regenerate the seeded right-hand sides straight into the panels.
fn refill(seed: u64, rb: &mut ResidentBatch) {
    rb.for_each_chunk_mut(&Parallel, |c, lanes, panel| {
        for i in 0..N {
            for l in 0..lanes {
                panel[i * LANE_WIDTH + l] = input_value(seed, i, c * LANE_WIDTH + l);
            }
        }
    });
}

/// The seeded right-hand sides as a lane-contiguous host matrix.
fn host_input(seed: u64) -> Matrix {
    let mut data = vec![0.0; N * LANES];
    std::thread::scope(|s| {
        for (part, block) in data.chunks_mut(N * LANES / 4).enumerate() {
            s.spawn(move || {
                for (k, v) in block.iter_mut().enumerate() {
                    let idx = part * (N * LANES / 4) + k;
                    *v = input_value(seed, idx % N, idx / N);
                }
            });
        }
    });
    Matrix::from_vec(N, LANES, Layout::Left, data).expect("shape matches data")
}

/// The workload between ops: the batch, the reference rows for the
/// residual check, and the generator of sampled lanes.
struct Bench {
    seed: u64,
    st: State,
    rows: SparseRows,
    rng: Rng,
}

impl Bench {
    /// One round: refill, then [`REFILL_EVERY`] chained solves, each
    /// op's sampled lanes checked against the assembled matrix. `solve`
    /// is the library call or the traced replay.
    fn round(
        &mut self,
        samples: &mut Samples,
        mut solve: impl FnMut(&SplineBuilder, &mut ResidentBatch) -> Result<(), String>,
    ) -> Round {
        let st = &mut self.st;
        refill(self.seed, &mut st.rb);
        let mut failed = 0;
        for _ in 0..REFILL_EVERY {
            let mut lanes: Vec<usize> = (0..SAMPLED_LANES).map(|_| self.rng.below(LANES)).collect();
            lanes.push(LANES - 1);
            let rhs: Vec<Vec<f64>> = lanes.iter().map(|&l| st.rb.lane_to_vec(l)).collect();
            let res = samples.time(|| solve(&st.builder, &mut st.rb));
            let ok = res.is_ok()
                && lanes.iter().zip(&rhs).all(|(&l, b)| {
                    let r = self.rows.rel_residual(b, &st.rb.lane_to_vec(l));
                    residual_ok(r, BUILD_RESIDUAL_TOL)
                });
            failed += usize::from(!ok);
        }
        Round {
            ops: REFILL_EVERY,
            failed,
        }
    }
}

fn library<E: ExecSpace>(
    b: &SplineBuilder,
    rb: &mut ResidentBatch,
    exec: &E,
) -> Result<(), String> {
    b.solve_resident(exec, rb).map_err(err)
}

pub fn run(ctx: &Ctx) -> Result<Measured, String> {
    let input = host_input(ctx.seed);
    let (st, setup_secs) = repeat_setup(ctx, || {
        let t0 = Instant::now();
        let builder = SplineBuilder::new(space()?, BuilderVersion::Interleaved).map_err(err)?;
        let mut rb = ResidentBatch::pack(&input);
        builder.solve_resident(&Parallel, &mut rb).map_err(err)?;
        Ok((State { builder, rb }, t0.elapsed().as_secs_f64()))
    })?;
    drop(input);
    let mut bench = Bench {
        seed: ctx.seed,
        rows: SparseRows::from_dense(&assemble_interpolation_matrix(st.builder.space())),
        st,
        rng: Rng::new(ctx.seed),
    };

    if !ctx.trace {
        let (parallel, serial) = ctx.paired(|par, s| {
            if par {
                bench.round(s, |b, rb| library(b, rb, &Parallel))
            } else {
                bench.round(s, |b, rb| library(b, rb, &Serial))
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
    let (_, factor_s) = timed(|| SchurBlocks::new(bench.st.builder.space()));
    layers.space_ms = space_s * 1e3;
    layers.factor_ms = factor_s * 1e3;

    // Bitwise check: the replay against the library call on the same input.
    let st = &mut bench.st;
    refill(ctx.seed, &mut st.rb);
    let mut reference = st.rb.clone();
    st.builder
        .solve_resident(&Parallel, &mut reference)
        .map_err(err)?;
    replay_resident(
        &Parallel,
        st.builder.blocks(),
        &mut st.rb,
        &mut StageNs::default(),
    );
    layers.replay_bitwise = (0..reference.panels().num_chunks())
        .all(|c| bitwise_equal(reference.panels().chunk(c), st.rb.panels().chunk(c)));
    drop(reference);

    let mut stages = StageNs::default();
    let (untraced, traced) = ctx.alternate(0.6, |first, s| {
        if first {
            bench.round(s, |b, rb| library(b, rb, &Parallel))
        } else {
            bench.round(s, |b, rb| {
                replay_resident(&Parallel, b.blocks(), rb, &mut stages);
                Ok(())
            })
        }
    });
    (layers.dispatches_per_op, layers.pool_busy_frac) = untraced.pool_per_op();
    let st = &bench.st;
    layers.stages = stages;
    layers.traced_ops = traced.secs.len();
    layers.q_sweep_bytes = (st.builder.blocks().q_size() * LANES * 8 * 4) as f64;
    layers.dispatch_floor_us = dispatch_floor_us(st.rb.panels().num_chunks());
    layers.solve_ms = untraced.p50_ms();
    layers.untraced_op_ms = untraced.p50_ms();
    layers.traced_op_ms = traced.p50_ms();
    layers.traced_mean_ms = traced.timed_secs() / traced.secs.len() as f64 * 1e3;
    layers.solve_call_ms = layers.traced_mean_ms;
    layers.attributed_ms = layers.solve_stages_ms(ctx.threads);
    let mut tally = untraced;
    tally.absorb(&traced);
    Ok(Measured::Layers(layers, tally))
}
