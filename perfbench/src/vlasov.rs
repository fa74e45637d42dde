//! `vlasov-step-1024`: one `VlasovPoisson1D1V::step_resident` of a
//! two-stream instability at the paper's size, nx = nv = 1024.

use std::f64::consts::{PI, TAU};
use std::time::Instant;

use pp_advection::vlasov::two_stream;
use pp_advection::VlasovPoisson1D1V;
use pp_bsplines::{Breaks, PeriodicSplineSpace};
use pp_portable::{ExecSpace, Layout, Matrix, Parallel, ResidentBatch, Serial, LANE_WIDTH};
use pp_splinesolver::{BuilderVersion, SchurBlocks, SplineBuilder, SplineEvaluator};

use crate::check::{bitwise_equal, vlasov_ok};
use crate::err;
use crate::replay::{replay_resident, StageNs};
use crate::report::{dispatch_floor_us, repeat_setup, Ctx, EndToEnd, Layers, Measured};
use crate::util::{timed, Rng, Round, Samples};

const NX: usize = 1024;
const NV: usize = 1024;
const DEGREE: usize = 3;
/// Wavenumber of the seeded mode; the x domain holds exactly one period.
const K: f64 = 0.5;
const V_MAX: f64 = 5.0;
const DT: f64 = 0.05;

/// The two slabs, the two coefficient scratch batches and the two feet
/// matrices one step touches.
pub const WS_BYTES: u64 = (6 * NX * NV * 8) as u64;
/// The coefficient batch one solve sweeps.
pub const SWEEP_BYTES: u64 = (NX * NV * 8) as u64;

/// Seeded physical parameters: beam speed, seed amplitude, phase.
fn initial(seed: u64) -> impl Fn(f64, f64) -> f64 {
    let mut rng = Rng::new(seed);
    let v0 = rng.uniform(1.2, 1.6);
    let amplitude = rng.uniform(0.005, 0.02);
    let shift = rng.uniform(0.0, TAU) / K;
    let f = two_stream(v0, amplitude, K);
    move |x, v| f(x + shift, v)
}

fn new_solver(seed: u64) -> Result<VlasovPoisson1D1V, String> {
    VlasovPoisson1D1V::new_with_version(
        NX,
        NV,
        2.0 * PI / K,
        V_MAX,
        DEGREE,
        DT,
        BuilderVersion::Interleaved,
        initial(seed),
    )
    .map_err(err)
}

/// One step per op; after it, the host mirror is synced (untimed) and
/// the energy and mass are checked.
fn round<E: ExecSpace>(
    vp: &mut VlasovPoisson1D1V,
    mass0: f64,
    exec: &E,
    samples: &mut Samples,
) -> Round {
    let res = samples.time(|| vp.step_resident(exec));
    vp.sync_host();
    let ok = res.is_ok() && vlasov_ok(vp.field_energy(), vp.mass(), mass0);
    Round {
        ops: 1,
        failed: usize::from(!ok),
    }
}

/// The step rebuilt from the library's public pieces: per-direction
/// builders and evaluators, resident slabs, panel flips and the Poisson
/// solve, each timed.
struct Replica {
    bx: SplineBuilder,
    bv: SplineBuilder,
    ex: SplineEvaluator,
    ev: SplineEvaluator,
    v_grid: Vec<f64>,
    feet_x: Matrix,
    feet_v: Matrix,
    f_xv: ResidentBatch,
    f_vx: ResidentBatch,
    eta_x: ResidentBatch,
    eta_v: ResidentBatch,
}

#[derive(Default)]
struct StepTimes {
    stages: StageNs,
    solve: f64,
    eval: f64,
    flip: f64,
    poisson: f64,
}

impl Replica {
    fn new(vp: &mut VlasovPoisson1D1V) -> Result<Self, String> {
        let sx =
            PeriodicSplineSpace::new(Breaks::uniform(NX, 0.0, 2.0 * PI / K).map_err(err)?, DEGREE)
                .map_err(err)?;
        let sv = PeriodicSplineSpace::new(Breaks::uniform(NV, -V_MAX, V_MAX).map_err(err)?, DEGREE)
            .map_err(err)?;
        let (x_grid, v_grid) = (sx.interpolation_points(), sv.interpolation_points());
        // x-advection feet over half a step: x_i − v_j Δt/2.
        let feet_x = Matrix::from_fn(NX, NV, Layout::Left, |i, j| {
            x_grid[i] - v_grid[j] * (DT / 2.0)
        });
        vp.sync_host();
        Ok(Replica {
            bx: SplineBuilder::new(sx.clone(), BuilderVersion::Interleaved).map_err(err)?,
            bv: SplineBuilder::new(sv.clone(), BuilderVersion::Interleaved).map_err(err)?,
            ex: SplineEvaluator::new(sx),
            ev: SplineEvaluator::new(sv),
            v_grid,
            feet_x,
            feet_v: Matrix::zeros(NV, NX, Layout::Left),
            f_xv: ResidentBatch::pack_transposed(vp.distribution()),
            f_vx: ResidentBatch::zeros(NV, NX),
            eta_x: ResidentBatch::zeros(NX, NV),
            eta_v: ResidentBatch::zeros(NV, NX),
        })
    }

    fn mass(&self) -> f64 {
        let p = self.f_xv.panels();
        let sum: f64 = (0..p.num_chunks())
            .map(|c| p.chunk(c).iter().sum::<f64>())
            .sum();
        sum * (2.0 * PI / K / NX as f64) * (2.0 * V_MAX / NV as f64)
    }

    /// One advection: copy the slab into the coefficient batch, solve by
    /// replay, evaluate back into the slab.
    fn advect(
        t: &mut StepTimes,
        b: &SplineBuilder,
        e: &SplineEvaluator,
        feet: &Matrix,
        f: &mut ResidentBatch,
        eta: &mut ResidentBatch,
    ) -> Result<(), String> {
        eta.copy_from(f).map_err(err)?;
        let (_, s) = timed(|| replay_resident(&Parallel, b.blocks(), eta, &mut t.stages));
        t.solve += s;
        let (res, s) = timed(|| e.eval_resident(&Parallel, eta, feet, f));
        t.eval += s;
        res.map_err(err)
    }

    /// One Strang step. The field comes from `vp.solve_poisson()` on the
    /// solver's host state, which costs what the step's own field solve
    /// costs; the replica's values stay bounded either way.
    fn step(&mut self, vp: &mut VlasovPoisson1D1V, t: &mut StepTimes) -> Result<(), String> {
        let r = self;
        Self::advect(t, &r.bx, &r.ex, &r.feet_x, &mut r.f_xv, &mut r.eta_x)?;
        let (_, s) = timed(|| vp.solve_poisson());
        t.poisson += s;
        for (j, e) in vp.e_field().iter().enumerate() {
            let shift = -e * DT;
            for i in 0..NV {
                r.feet_v.set(i, j, r.v_grid[i] - shift);
            }
        }
        let (res, s) = timed(|| r.f_xv.transpose_into(&mut r.f_vx));
        t.flip += s;
        res.map_err(err)?;
        Self::advect(t, &r.bv, &r.ev, &r.feet_v, &mut r.f_vx, &mut r.eta_v)?;
        let (res, s) = timed(|| r.f_vx.transpose_into(&mut r.f_xv));
        t.flip += s;
        res.map_err(err)?;
        Self::advect(t, &r.bx, &r.ex, &r.feet_x, &mut r.f_xv, &mut r.eta_x)
    }
}

pub fn run(ctx: &Ctx) -> Result<Measured, String> {
    let ((mut vp, mass0), setup_secs) = repeat_setup(ctx, || {
        let (vp, build) = timed(|| new_solver(ctx.seed));
        let mut vp = vp?;
        let mass0 = vp.mass();
        let (first, s) = timed(|| vp.step_resident(&Parallel));
        first.map_err(err)?;
        Ok(((vp, mass0), build + s))
    })?;

    if !ctx.trace {
        let (parallel, serial) = ctx.paired(|par, s| {
            if par {
                round(&mut vp, mass0, &Parallel, s)
            } else {
                round(&mut vp, mass0, &Serial, s)
            }
        });
        return Ok(Measured::EndToEnd(EndToEnd {
            setup_secs,
            parallel,
            serial,
            points_per_op: (NX * NV) as f64,
        }));
    }

    let mut layers = Layers::default();
    let t0 = Instant::now();
    for (n, lo, hi) in [(NX, 0.0, 2.0 * PI / K), (NV, -V_MAX, V_MAX)] {
        let s = PeriodicSplineSpace::new(Breaks::uniform(n, lo, hi).map_err(err)?, DEGREE)
            .map_err(err)?;
        std::hint::black_box(s.interpolation_points());
    }
    layers.space_ms = t0.elapsed().as_secs_f64() * 1e3;

    let mut r = Replica::new(&mut vp)?;
    let (_, factor_s) = timed(|| {
        (
            SchurBlocks::new(r.bx.space()),
            SchurBlocks::new(r.bv.space()),
        )
    });
    layers.factor_ms = factor_s * 1e3;

    // Bitwise check: the replay against the library call on the same slab.
    r.eta_x.copy_from(&r.f_xv).map_err(err)?;
    let mut reference = r.eta_x.clone();
    r.bx.solve_resident(&Parallel, &mut reference)
        .map_err(err)?;
    replay_resident(
        &Parallel,
        r.bx.blocks(),
        &mut r.eta_x,
        &mut StageNs::default(),
    );
    layers.replay_bitwise = (0..reference.panels().num_chunks())
        .all(|c| bitwise_equal(reference.panels().chunk(c), r.eta_x.panels().chunk(c)));

    let replica_mass0 = r.mass();
    let mut t = StepTimes::default();
    let (untraced, traced) = ctx.alternate(0.6, |first, samples| {
        if first {
            return round(&mut vp, mass0, &Parallel, samples);
        }
        let res = samples.time(|| r.step(&mut vp, &mut t));
        let ok = res.is_ok() && vlasov_ok(vp.field_energy(), r.mass(), replica_mass0);
        Round {
            ops: 1,
            failed: usize::from(!ok),
        }
    });
    (layers.dispatches_per_op, layers.pool_busy_frac) = untraced.pool_per_op();
    let ops = traced.secs.len() as f64;
    let per_op_ms = |s: f64| s / ops * 1e3;
    layers.stages = t.stages;
    layers.traced_ops = traced.secs.len();
    let q = r.bx.blocks().q_size();
    layers.q_sweep_bytes = (3 * q * NV * 8 * 4) as f64;
    layers.flip_ms = per_op_ms(t.flip);
    layers.layout_bytes = (2 * 2 * NX * NV * 8) as f64;
    layers.dispatch_floor_us = dispatch_floor_us(NV.div_ceil(LANE_WIDTH));
    layers.solve_ms = per_op_ms(t.solve);
    layers.solve_call_ms = layers.solve_ms;
    layers.eval_ms = per_op_ms(t.eval);
    layers.eval_points = (3 * NX * NV) as f64;
    layers.poisson_ms = per_op_ms(t.poisson);
    layers.traced_op_ms = traced.p50_ms();
    layers.traced_mean_ms = traced.timed_secs() / ops * 1e3;
    layers.untraced_op_ms = untraced.p50_ms();
    layers.step_glue_ms = layers.traced_mean_ms
        - (layers.solve_ms + layers.eval_ms + layers.flip_ms + layers.poisson_ms);
    layers.attributed_ms =
        layers.solve_stages_ms(ctx.threads) + layers.eval_ms + layers.flip_ms + layers.poisson_ms;
    let mut tally = untraced;
    tally.absorb(&traced);
    Ok(Measured::Layers(layers, tally))
}
