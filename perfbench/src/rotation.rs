//! `rotation-small`: one `Rotation2D::step` of a 64 × 64 plane — the
//! paper's `FusedSpmv` host-path kernel on small 64-lane batches plus
//! 2D tensor evaluation, where pool dispatch takes its largest share.

use std::f64::consts::TAU;
use std::time::Instant;

use pp_advection::Rotation2D;
use pp_bsplines::{Breaks, PeriodicSplineSpace};
use pp_portable::{ExecSpace, Matrix, Parallel, Serial};
use pp_splinesolver::SchurBlocks;

use crate::check::{bitwise_equal, turn_ok};
use crate::err;
use crate::report::{dispatch_floor_us, repeat_setup, Ctx, EndToEnd, Layers, Measured};
use crate::util::{timed, Rng, Round, Samples};

const N: usize = 64;
const DEGREE: usize = 3;
const STEPS_PER_TURN: usize = 64;
/// Rotation centre of `Rotation2D` (the middle of the unit square).
const CENTRE: (f64, f64) = (0.5, 0.5);

/// The field, its coefficient copy and the transposed scratch.
pub const WS_BYTES: u64 = (3 * N * N * 8) as u64;
/// The coefficient matrix one tensor solve sweeps.
pub const SWEEP_BYTES: u64 = (N * N * 8) as u64;

/// Two seeded Gaussian blobs within 0.15 of the centre, so that a turn
/// keeps their tails inside the inscribed circle, clear of the periodic
/// boundary (at 0.25 some seeds lose 1e-3 of their mass per turn).
fn initial(seed: u64) -> impl Fn(f64, f64) -> f64 {
    let mut rng = Rng::new(seed);
    let blobs: Vec<(f64, f64, f64, f64)> = (0..2)
        .map(|_| {
            let (r, a) = (rng.uniform(0.05, 0.15), rng.uniform(0.0, TAU));
            let width = rng.uniform(0.006, 0.012);
            let amp = rng.uniform(0.5, 1.5);
            (CENTRE.0 + r * a.cos(), CENTRE.1 + r * a.sin(), width, amp)
        })
        .collect();
    move |x, y| {
        blobs
            .iter()
            .map(|&(cx, cy, w, a)| a * (-((x - cx).powi(2) + (y - cy).powi(2)) / w).exp())
            .sum()
    }
}

/// One round is a full turn: the field restarts from `f0` (untimed), is
/// stepped `STEPS_PER_TURN` times, and must be back at `f0` within the
/// checker's tolerances; a failed turn fails all of its ops.
fn turn(
    field: &mut Matrix,
    f0: &Matrix,
    samples: &mut Samples,
    mut step: impl FnMut(&mut Matrix) -> Result<(), String>,
) -> Round {
    field.deep_copy_from(f0).expect("same shape");
    let mut ok = true;
    for _ in 0..STEPS_PER_TURN {
        ok &= samples.time(|| step(field)).is_ok();
    }
    ok &= turn_ok(field.as_slice(), f0.as_slice());
    Round {
        ops: STEPS_PER_TURN,
        failed: if ok { 0 } else { STEPS_PER_TURN },
    }
}

fn library<E: ExecSpace>(rot: &mut Rotation2D, exec: &E, f: &mut Matrix) -> Result<(), String> {
    rot.step(exec, f).map_err(err)
}

/// `Rotation2D::step` rebuilt from its public pieces, with the tensor
/// interpolation and the foot evaluation timed apart.
struct Replica {
    coefs: Matrix,
    px: Vec<f64>,
    py: Vec<f64>,
    solve: f64,
    eval: f64,
}

impl Replica {
    fn step(&mut self, rot: &Rotation2D, field: &mut Matrix) -> Result<(), String> {
        let splines = rot.splines();
        self.coefs.deep_copy_from(field).map_err(err)?;
        let (res, s) = timed(|| splines.interpolate_in_place(&Parallel, &mut self.coefs));
        self.solve += s;
        res.map_err(err)?;
        let (cx, cy) = CENTRE;
        let (sn, cs) = (TAU / STEPS_PER_TURN as f64).sin_cos();
        let (coefs, px, py) = (&self.coefs, &self.px, &self.py);
        let t0 = Instant::now();
        Parallel.for_each_lane_mut(field, |j, mut lane| {
            let y = py[j] - cy;
            for i in 0..px.len() {
                let x = px[i] - cx;
                lane[i] = splines.eval(coefs, cx + cs * x + sn * y, cy - sn * x + cs * y);
            }
        });
        self.eval += t0.elapsed().as_secs_f64();
        Ok(())
    }
}

pub fn run(ctx: &Ctx) -> Result<Measured, String> {
    let ((mut rot, f0), setup_secs) = repeat_setup(ctx, || {
        let t0 = Instant::now();
        let mut rot = Rotation2D::new(N, DEGREE, TAU / STEPS_PER_TURN as f64).map_err(err)?;
        let f0 = rot.init_field(initial(ctx.seed));
        let mut f = f0.clone();
        rot.step(&Parallel, &mut f).map_err(err)?;
        Ok(((rot, f0), t0.elapsed().as_secs_f64()))
    })?;
    let mut field = f0.clone();

    if !ctx.trace {
        let (parallel, serial) = ctx.paired(|par, s| {
            if par {
                turn(&mut field, &f0, s, |f| library(&mut rot, &Parallel, f))
            } else {
                turn(&mut field, &f0, s, |f| library(&mut rot, &Serial, f))
            }
        });
        return Ok(Measured::EndToEnd(EndToEnd {
            setup_secs,
            parallel,
            serial,
            points_per_op: (N * N) as f64,
        }));
    }

    let mut layers = Layers::default();
    let (spaces, space_s) = timed(|| -> Result<Vec<PeriodicSplineSpace>, String> {
        (0..2)
            .map(|_| {
                let s =
                    PeriodicSplineSpace::new(Breaks::uniform(N, 0.0, 1.0).map_err(err)?, DEGREE)
                        .map_err(err)?;
                std::hint::black_box(s.interpolation_points());
                Ok(s)
            })
            .collect()
    });
    let spaces = spaces?;
    let (_, factor_s) = timed(|| spaces.iter().map(SchurBlocks::new).collect::<Vec<_>>());
    layers.space_ms = space_s * 1e3;
    layers.factor_ms = factor_s * 1e3;

    let (px, py) = rot.splines().interpolation_points();
    let mut r = Replica {
        coefs: Matrix::zeros(N, N, f0.layout()),
        px,
        py,
        solve: 0.0,
        eval: 0.0,
    };
    // Bitwise check: the replica step against the library step.
    let (mut want, mut got) = (f0.clone(), f0.clone());
    rot.step(&Parallel, &mut want).map_err(err)?;
    r.step(&rot, &mut got)?;
    layers.replay_bitwise = bitwise_equal(want.as_slice(), got.as_slice());
    (r.solve, r.eval) = (0.0, 0.0);

    let (untraced, traced) = ctx.alternate(0.6, |first, s| {
        if first {
            turn(&mut field, &f0, s, |f| library(&mut rot, &Parallel, f))
        } else {
            turn(&mut field, &f0, s, |f| r.step(&rot, f))
        }
    });
    (layers.dispatches_per_op, layers.pool_busy_frac) = untraced.pool_per_op();
    let ops = traced.secs.len() as f64;
    layers.solve_ms = r.solve / ops * 1e3;
    layers.solve_call_ms = layers.solve_ms;
    layers.eval_ms = r.eval / ops * 1e3;
    layers.eval_points = (N * N) as f64;
    layers.dispatch_floor_us = dispatch_floor_us(N);
    layers.traced_op_ms = traced.p50_ms();
    layers.traced_mean_ms = traced.timed_secs() / ops * 1e3;
    layers.untraced_op_ms = untraced.p50_ms();
    layers.attributed_ms = layers.solve_ms + layers.eval_ms;
    let mut tally = untraced;
    tally.absorb(&traced);
    Ok(Measured::Layers(layers, tally))
}
