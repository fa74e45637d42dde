//! Turning measured samples into the named metrics of `BENCHMARK.json`.

use std::time::Duration;

use pp_portable::{ExecSpace, Parallel};

use crate::replay::StageNs;
use crate::util::{median, peak_rss_bytes, run_paired, Metrics, Round, Samples};

/// How a run is driven, from the command line.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Threads of the parallel runs (the pool size).
    pub threads: usize,
}

impl Ctx {
    /// A share of the run's measuring time.
    pub fn budget(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }

    /// The untraced run: parallel and serial rounds interleaved over the
    /// whole measuring time; `round(true, ..)` runs a parallel round.
    pub fn paired(&self, round: impl FnMut(bool, &mut Samples) -> Round) -> (Samples, Samples) {
        run_paired(
            MIN_OPS,
            MIN_SERIAL_OPS,
            self.budget(1.0),
            SERIAL_SHARE,
            round,
        )
    }

    /// A traced run's comparison of an untraced and a traced op (or two
    /// variants of one op): both kinds of rounds alternated over `share`
    /// of the measuring time, half of the timed work each, so that the
    /// ratio of the two sees one machine. `round(true, ..)` runs the
    /// first kind.
    pub fn alternate(
        &self,
        share: f64,
        round: impl FnMut(bool, &mut Samples) -> Round,
    ) -> (Samples, Samples) {
        run_paired(MIN_TRACE_OPS, MIN_TRACE_OPS, self.budget(share), 0.5, round)
    }
}

/// Timed ops needed per parallel phase, so that ten samples lie beyond
/// the 90th percentile.
pub const MIN_OPS: usize = 100;
/// Timed ops needed for the single-thread baseline median.
pub const MIN_SERIAL_OPS: usize = 30;
/// Ops needed per phase of a traced run.
pub const MIN_TRACE_OPS: usize = 15;
/// Share of the timed work spent on the single-thread baseline.
pub const SERIAL_SHARE: f64 = 0.35;

/// Repeat a set-up until at least three runs and 1 s of set-up time
/// (at most 101 runs), returning every run's seconds and the last state.
/// A traced run reports no set-up time and sets up once.
pub fn repeat_setup<T>(
    ctx: &Ctx,
    mut setup: impl FnMut() -> Result<(T, f64), String>,
) -> Result<(T, Vec<f64>), String> {
    let reps = if ctx.trace { 1 } else { 3 };
    let mut secs = Vec::new();
    let mut state = None;
    while secs.len() < reps || (!ctx.trace && secs.iter().sum::<f64>() < 1.0 && secs.len() < 101) {
        // The previous state is dropped before the next set-up allocates.
        drop(state.take());
        let (s, t) = setup()?;
        state = Some(s);
        secs.push(t);
    }
    Ok((state.expect("at least one set-up ran"), secs))
}

/// The measurements behind the end-to-end metrics of one workload.
pub struct EndToEnd {
    pub setup_secs: Vec<f64>,
    pub parallel: Samples,
    pub serial: Samples,
    /// Lattice points produced by one op.
    pub points_per_op: f64,
}

impl EndToEnd {
    pub fn metrics(&self, threads: usize) -> Metrics {
        let p = &self.parallel;
        let attempted = p.attempted + self.serial.attempted;
        let failed = p.failed + self.serial.failed;
        let mut m = Metrics::default();
        m.put("setup_s", median(&self.setup_secs), "s");
        m.put("op_ms_p50", p.p50_ms(), "ms");
        m.put("op_ms_p90", p.p90_ms(), "ms");
        // Points per op over the median op time: a mean over the timed
        // wall would let a few descheduled ops move it.
        m.put("glups", self.points_per_op / p.p50_ms() / 1e6, "GLUPS");
        m.put("serial_op_ms_p50", self.serial.p50_ms(), "ms");
        m.put(
            "parallel_eff",
            self.serial.p50_ms() / (threads as f64 * p.p50_ms()),
            "frac",
        );
        m.put(
            "peak_rss_mb",
            peak_rss_bytes().map_or(f64::NAN, |b| b as f64 / (1 << 20) as f64),
            "MiB",
        );
        m.put(
            "ok_frac",
            (attempted - failed) as f64 / attempted as f64,
            "frac",
        );
        m
    }
}

/// Median wall time of an empty `Parallel.for_each` over `count`
/// indices: the pool's dispatch floor for an op of that width, in µs.
pub fn dispatch_floor_us(count: usize) -> f64 {
    let mut secs = Vec::with_capacity(2000);
    for rep in 0..2100 {
        let t0 = std::time::Instant::now();
        Parallel.for_each(count, |i| {
            std::hint::black_box(i);
        });
        if rep >= 100 {
            secs.push(t0.elapsed().as_secs_f64());
        }
    }
    median(&secs) * 1e6
}

/// What one workload run measured: the untraced run's end-to-end
/// samples, or the traced run's layers with the tally of its checked ops.
pub enum Measured {
    EndToEnd(EndToEnd),
    Layers(Layers, Samples),
}

/// Host roofline denominators.
#[derive(Clone, Copy)]
pub struct HostCeilings {
    pub llc_bytes: u64,
    pub stream_ws_gbs: f64,
    pub stream_dram_gbs: f64,
    pub fdiv_gops: f64,
}

impl HostCeilings {
    /// Probe the host: bandwidth at the footprint of the batch one solve
    /// sweeps and at four times the last-level cache (at least 256 MiB),
    /// and division throughput, all on `threads` threads.
    pub fn probe(sweep_bytes: u64, llc_bytes: u64, threads: usize) -> Self {
        let dram = (4 * llc_bytes).max(256 << 20);
        println!(
            "# host probe: stream footprints {sweep_bytes} B (the swept batch) and {dram} B (4x LLC of {llc_bytes} B), {threads} threads"
        );
        HostCeilings {
            llc_bytes,
            stream_ws_gbs: crate::host::stream_copy_gbs(sweep_bytes as usize, threads),
            stream_dram_gbs: crate::host::stream_copy_gbs(dram as usize, threads),
            fdiv_gops: crate::host::fdiv_gops(threads),
        }
    }

    /// The better of two probes, ceiling by ceiling: a probe that caught
    /// the shared host in a slow spell must not inflate the fractions.
    pub fn max(self, other: HostCeilings) -> Self {
        HostCeilings {
            llc_bytes: self.llc_bytes,
            stream_ws_gbs: self.stream_ws_gbs.max(other.stream_ws_gbs),
            stream_dram_gbs: self.stream_dram_gbs.max(other.stream_dram_gbs),
            fdiv_gops: self.fdiv_gops.max(other.fdiv_gops),
        }
    }
}

/// Layer measurements of one traced run, per op unless noted; a layer
/// the workload does not reach stays zero.
#[derive(Default)]
pub struct Layers {
    /// Stage thread-time summed over the traced ops.
    pub stages: StageNs,
    /// Traced ops the stage totals cover.
    pub traced_ops: usize,
    pub q_sweep_bytes: f64,
    pub pack_ms: f64,
    pub unpack_ms: f64,
    pub flip_ms: f64,
    /// Bytes moved by pack, unpack and flips, per op (computed).
    pub layout_bytes: f64,
    pub dispatches_per_op: f64,
    pub dispatch_floor_us: f64,
    pub pool_busy_frac: f64,
    /// The library solve call(s) of one op.
    pub solve_ms: f64,
    /// Wall time of the replayed solve call(s) of one traced op, which
    /// the sweep, corner and getrs stages are part of.
    pub solve_call_ms: f64,
    pub verify_ms: f64,
    pub abft_trips: f64,
    pub refine_steps: f64,
    pub quarantined_lanes: f64,
    pub eval_ms: f64,
    pub eval_points: f64,
    pub factor_ms: f64,
    pub space_ms: f64,
    pub poisson_ms: f64,
    pub step_glue_ms: f64,
    /// Attributed wall time of one traced op (stages that do not overlap).
    pub attributed_ms: f64,
    /// Median and mean wall time of the traced op.
    pub traced_op_ms: f64,
    pub traced_mean_ms: f64,
    /// The untraced op the traced one replays, for the overhead ratio.
    pub untraced_op_ms: f64,
    pub replay_bitwise: bool,
}

impl Layers {
    /// A stage's thread-time per op divided by the thread count: its
    /// share of the op's wall time, in ms.
    pub fn stage_ms(&self, ns: u64, threads: usize) -> f64 {
        ns as f64 / self.traced_ops.max(1) as f64 / threads as f64 / 1e6
    }

    /// The sweep, corner, getrs and remainder stages per op, in ms.
    pub fn solve_stages_ms(&self, threads: usize) -> f64 {
        self.stage_ms(self.stages.total(), threads)
    }

    pub fn metrics(&self, host: &HostCeilings, ws_bytes: u64, threads: usize) -> Metrics {
        // A layer the workload does not reach reports 0, not NaN.
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let sweep_ms = self.stage_ms(self.stages.sweep, threads);
        let sweep_gbs = ratio(self.q_sweep_bytes, sweep_ms * 1e-3) / 1e9;
        let layout_ms = self.pack_ms + self.unpack_ms + self.flip_ms;
        let mut m = Metrics::default();
        m.put("linalg.q_sweep_ms", sweep_ms, "ms");
        m.put(
            "linalg.schur_getrs_ms",
            self.stage_ms(self.stages.getrs, threads),
            "ms",
        );
        m.put(
            "sparse.corner_spmv_ms",
            self.stage_ms(self.stages.corner, threads),
            "ms",
        );
        m.put("linalg.q_sweep_bytes", self.q_sweep_bytes, "B");
        m.put("linalg.q_sweep_gbs", sweep_gbs, "GB/s");
        m.put(
            "linalg.q_sweep_roofline_frac",
            ratio(sweep_gbs, host.stream_ws_gbs),
            "frac",
        );
        m.put(
            "linalg.remainder_lanes",
            self.stages.remainder_lanes as f64 / self.traced_ops.max(1) as f64,
            "count",
        );
        m.put("portable.pack_ms", self.pack_ms, "ms");
        m.put("portable.unpack_ms", self.unpack_ms, "ms");
        m.put("portable.flip_ms", self.flip_ms, "ms");
        m.put(
            "portable.layout_gbs",
            ratio(self.layout_bytes, layout_ms * 1e-3) / 1e9,
            "GB/s",
        );
        m.put(
            "portable.dispatches_per_op",
            self.dispatches_per_op,
            "count",
        );
        m.put("portable.dispatch_floor_us", self.dispatch_floor_us, "us");
        m.put("portable.pool_busy_frac", self.pool_busy_frac, "frac");
        m.put("core.solve_ms", self.solve_ms, "ms");
        m.put(
            "core.glue_ms",
            self.solve_call_ms - self.solve_stages_ms(threads),
            "ms",
        );
        m.put("core.verify_ms", self.verify_ms, "ms");
        m.put(
            "core.verify_share",
            ratio(self.verify_ms, self.solve_ms),
            "frac",
        );
        m.put("core.abft_trips", self.abft_trips, "count");
        m.put("core.refine_steps", self.refine_steps, "count");
        m.put("core.quarantined_lanes", self.quarantined_lanes, "count");
        m.put("core.eval_ms", self.eval_ms, "ms");
        m.put(
            "core.eval_gpts",
            ratio(self.eval_points, self.eval_ms * 1e-3) / 1e9,
            "Gpts/s",
        );
        m.put("core.factor_ms", self.factor_ms, "ms");
        m.put("bsplines.space_ms", self.space_ms, "ms");
        m.put("advection.poisson_ms", self.poisson_ms, "ms");
        m.put("advection.step_glue_ms", self.step_glue_ms, "ms");
        m.put("host.stream_ws_gbs", host.stream_ws_gbs, "GB/s");
        m.put("host.stream_dram_gbs", host.stream_dram_gbs, "GB/s");
        m.put("host.fdiv_gops", host.fdiv_gops, "Gdiv/s");
        m.put(
            "host.llc_mb",
            host.llc_bytes as f64 / (1 << 20) as f64,
            "MiB",
        );
        m.put(
            "host.ws_llc_ratio",
            ratio(ws_bytes as f64, host.llc_bytes as f64),
            "ratio",
        );
        m.put(
            "trace.cover",
            ratio(self.attributed_ms, self.traced_mean_ms),
            "frac",
        );
        m.put(
            "trace.overhead_frac",
            ratio(self.traced_op_ms, self.untraced_op_ms) - 1.0,
            "frac",
        );
        m.put(
            "trace.replay_bitwise",
            if self.replay_bitwise { 1.0 } else { 0.0 },
            "bool",
        );
        m
    }
}
