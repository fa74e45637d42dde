//! A 1D1V Vlasov–Poisson mini-solver — the physics GYSELA's advection
//! kernels exist to serve, reduced to the smallest self-consistent system.
//!
//! Strang splitting of the Vlasov equation (1):
//! half-step `x`-advection (velocity `v`), Poisson solve for `E`, full
//! `v`-advection (acceleration `−E`), half-step `x`-advection. Both
//! advections are the batched semi-Lagrangian kernel of
//! [`Advection1D`] — so the spline
//! builder runs in *both* batch orientations every step, exactly the
//! workload shape the paper describes for the full 5D code.
//!
//! The `v` domain is truncated at `±v_max` and treated periodically; with
//! `f ≈ 0` near the cut this is the standard benign approximation for
//! two-stream-instability demos.

use std::path::PathBuf;

use crate::error::{Error, Result};
use crate::semilagrangian::{Advection1D, AdvectionDiagnostics, SplineBackend};
use pp_bsplines::{Breaks, PeriodicSplineSpace};
use pp_portable::{transpose_into_with, ExecSpace, Layout, Matrix, ResidentBatch, LANE_WIDTH};
use pp_splinesolver::{BuilderVersion, CheckpointStore, Snapshot, VerifyConfig};

/// The distribution function held resident in interleaved panels, in
/// both batch orientations the Strang step needs. The slabs stay packed
/// across steps; only checkpoint/diagnostic boundaries unpack.
struct ResidentSlabs {
    /// `(Nx, Nv)` — rows x, lanes v: the x-advection orientation.
    f_xv: ResidentBatch,
    /// `(Nv, Nx)` — rows v, lanes x: the v-advection orientation.
    f_vx: ResidentBatch,
}

/// Self-consistent 1D1V Vlasov–Poisson solver on a doubly periodic
/// `(x, v)` grid.
pub struct VlasovPoisson1D1V {
    adv_x: Advection1D,
    adv_v: Advection1D,
    /// Distribution `f(v_j, x_i)`, shape `(Nv, Nx)`, row-major.
    f: Matrix,
    /// Transposed scratch `(Nx, Nv)`.
    f_t: Matrix,
    x_grid: Vec<f64>,
    v_grid: Vec<f64>,
    dx: f64,
    dv: f64,
    dt: f64,
    /// Latest electric field `E(x_i)`.
    e_field: Vec<f64>,
    /// Completed Strang steps since construction or restore.
    step_index: u64,
    /// Run seed recorded in checkpoints (RNG / chaos-harness seed), so a
    /// resumed run replays the same injected-fault schedule.
    seed: u64,
    /// Periodic checkpointing: `(store, every-n-steps)`.
    checkpoint: Option<(CheckpointStore, u64)>,
    /// Interleaved-resident distribution slabs; allocated on the first
    /// [`VlasovPoisson1D1V::step_resident`] call and dropped on restore.
    resident: Option<ResidentSlabs>,
}

impl VlasovPoisson1D1V {
    /// Build the solver: `nx × nv` grid over `[0, lx) × [−v_max, v_max)`,
    /// spline degree `degree`, time step `dt`.
    pub fn new(
        nx: usize,
        nv: usize,
        lx: f64,
        v_max: f64,
        degree: usize,
        dt: f64,
        f0: impl Fn(f64, f64) -> f64,
    ) -> Result<Self> {
        Self::build(
            nx,
            nv,
            lx,
            v_max,
            degree,
            dt,
            BuilderVersion::FusedSpmv,
            None,
            f0,
        )
    }

    /// Like [`VlasovPoisson1D1V::new`], but selecting the direct
    /// builder's kernel version (e.g. [`BuilderVersion::Interleaved`] for
    /// the lane-interleaved kernel, which the resident stepping path is
    /// bit-identical to).
    #[allow(clippy::too_many_arguments)]
    pub fn new_with_version(
        nx: usize,
        nv: usize,
        lx: f64,
        v_max: f64,
        degree: usize,
        dt: f64,
        version: BuilderVersion,
        f0: impl Fn(f64, f64) -> f64,
    ) -> Result<Self> {
        Self::build(nx, nv, lx, v_max, degree, dt, version, None, f0)
    }

    /// Like [`VlasovPoisson1D1V::new`], but both advections run the
    /// verified direct backend: per-lane residual checks, quarantine of
    /// poisoned lanes, and the factorization fallback ladder. Diagnostics
    /// of the latest step are available via
    /// [`VlasovPoisson1D1V::advection_diagnostics`].
    #[allow(clippy::too_many_arguments)]
    pub fn new_verified(
        nx: usize,
        nv: usize,
        lx: f64,
        v_max: f64,
        degree: usize,
        dt: f64,
        config: VerifyConfig,
        f0: impl Fn(f64, f64) -> f64,
    ) -> Result<Self> {
        Self::build(
            nx,
            nv,
            lx,
            v_max,
            degree,
            dt,
            BuilderVersion::FusedSpmv,
            Some(config),
            f0,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn build(
        nx: usize,
        nv: usize,
        lx: f64,
        v_max: f64,
        degree: usize,
        dt: f64,
        version: BuilderVersion,
        verify: Option<VerifyConfig>,
        f0: impl Fn(f64, f64) -> f64,
    ) -> Result<Self> {
        let space_x =
            PeriodicSplineSpace::new(Breaks::uniform(nx, 0.0, lx).map_err(spline_err)?, degree)
                .map_err(spline_err)?;
        let space_v = PeriodicSplineSpace::new(
            Breaks::uniform(nv, -v_max, v_max).map_err(spline_err)?,
            degree,
        )
        .map_err(spline_err)?;

        let x_grid = space_x.interpolation_points();
        let v_grid = space_v.interpolation_points();

        let backend = |space: PeriodicSplineSpace| -> Result<SplineBackend> {
            match &verify {
                Some(config) => SplineBackend::direct_verified(space, version, config.clone()),
                None => SplineBackend::direct(space, version),
            }
        };
        let adv_x = Advection1D::new(
            backend(space_x)?,
            v_grid.clone(),
            dt / 2.0, // Strang half step
        )?;
        let adv_v = Advection1D::new(
            backend(space_v)?,
            vec![0.0; nx], // displacements supplied per step
            dt,
        )?;

        let f = Matrix::from_fn(nv, nx, Layout::Right, |j, i| f0(x_grid[i], v_grid[j]));
        Ok(Self {
            f_t: Matrix::zeros(nx, nv, Layout::Right),
            adv_x,
            adv_v,
            f,
            dx: lx / nx as f64,
            dv: 2.0 * v_max / nv as f64,
            x_grid,
            v_grid,
            dt,
            e_field: vec![0.0; nx],
            step_index: 0,
            seed: 0,
            checkpoint: None,
            resident: None,
        })
    }

    /// Current distribution `f(v_j, x_i)`.
    pub fn distribution(&self) -> &Matrix {
        &self.f
    }

    /// x grid.
    pub fn x_grid(&self) -> &[f64] {
        &self.x_grid
    }

    /// v grid.
    pub fn v_grid(&self) -> &[f64] {
        &self.v_grid
    }

    /// Latest electric field.
    pub fn e_field(&self) -> &[f64] {
        &self.e_field
    }

    /// Verification diagnostics of the latest `(x, v)` advection steps.
    /// Both are `None` unless the solver was built with
    /// [`VlasovPoisson1D1V::new_verified`] and a step has run.
    pub fn advection_diagnostics(
        &self,
    ) -> (Option<&AdvectionDiagnostics>, Option<&AdvectionDiagnostics>) {
        (self.adv_x.last_diagnostics(), self.adv_v.last_diagnostics())
    }

    /// Charge density `ρ(x_i) = ∫ f dv` (uniform quadrature).
    ///
    /// Streams `f` one `v` row at a time into one accumulator per `x`;
    /// each accumulator starts at `-0.0` and adds in ascending `v`, the
    /// start value and fold order of `Iterator::sum`, so `ρ` is
    /// bit-identical to summing each column on its own.
    pub fn density(&self) -> Vec<f64> {
        let (nv, nx) = self.f.shape();
        let mut rho = vec![-0.0; nx];
        for j in 0..nv {
            for (acc, v) in rho.iter_mut().zip(self.f.row(j).iter()) {
                *acc += v;
            }
        }
        rho.iter_mut().for_each(|r| *r *= self.dv);
        rho
    }

    /// [`VlasovPoisson1D1V::density`] read panel-natively off the
    /// resident `(Nx, Nv)` slab, streamed panel by panel: one accumulator
    /// per row `x`, each panel's rows added in lane order. Every row thus
    /// sums its lanes in ascending `v` from `-0.0`, the same order as the
    /// host accumulation, so the densities (and hence the field) are
    /// bit-identical.
    fn density_resident(&self, slab: &ResidentBatch) -> Vec<f64> {
        let p = slab.panels();
        let mut rho = vec![-0.0; p.nrows()];
        for c in 0..p.num_chunks() {
            let lanes = p.chunk_lanes(c);
            for (acc, row) in rho.iter_mut().zip(p.chunk(c).chunks_exact(LANE_WIDTH)) {
                for &v in &row[..lanes] {
                    *acc += v;
                }
            }
        }
        rho.iter_mut().for_each(|r| *r *= self.dv);
        rho
    }

    /// Solve the 1D periodic Poisson problem `∂E/∂x = ⟨ρ⟩ − ρ` (electron
    /// density `ρ` against a neutralising ion background) for the
    /// zero-mean electric field, by cumulative integration.
    pub fn solve_poisson(&mut self) {
        let rho = self.density();
        self.poisson_from_density(&rho);
    }

    /// The field integration shared by the host and resident paths.
    fn poisson_from_density(&mut self, rho: &[f64]) {
        let nx = rho.len();
        let mean: f64 = rho.iter().sum::<f64>() / nx as f64;
        // Cumulative trapezoid of (⟨ρ⟩ − ρ).
        let mut e = vec![0.0; nx];
        for i in 1..nx {
            e[i] = e[i - 1] + 0.5 * ((mean - rho[i - 1]) + (mean - rho[i])) * self.dx;
        }
        // Fix the gauge: zero-mean field.
        let e_mean: f64 = e.iter().sum::<f64>() / nx as f64;
        for v in &mut e {
            *v -= e_mean;
        }
        self.e_field = e;
    }

    /// Electric-field energy `½ ∫ E² dx`.
    pub fn field_energy(&self) -> f64 {
        0.5 * self.e_field.iter().map(|e| e * e).sum::<f64>() * self.dx
    }

    /// Total mass `∫∫ f dx dv`.
    pub fn mass(&self) -> f64 {
        self.f.as_slice().iter().sum::<f64>() * self.dx * self.dv
    }

    /// Completed Strang steps since construction, or since the restored
    /// checkpoint after [`VlasovPoisson1D1V::resume_from`].
    pub fn step_index(&self) -> u64 {
        self.step_index
    }

    /// Record `seed` (the run's RNG / chaos-harness seed) in every
    /// checkpoint, so a resumed run can replay the same schedule.
    pub fn set_seed(&mut self, seed: u64) {
        self.seed = seed;
    }

    /// The recorded run seed (restored along with the state).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Checkpoint into `store` every `n` completed steps (`n` is clamped
    /// to at least 1). Combine with [`CheckpointStore::from_env`] to honor
    /// `PP_CHECKPOINT_DIR`/`PP_CHECKPOINT_KEEP`. Each write is atomic and
    /// `fsync`ed; see [`CheckpointStore::write`].
    pub fn checkpoint_every(&mut self, n: u64, store: CheckpointStore) {
        self.checkpoint = Some((store, n.max(1)));
    }

    /// Serialise the full simulation state (distribution, field, step
    /// index, time step, run seed) into a [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        let mut s = Snapshot::new();
        s.push_matrix("f", &self.f);
        s.push_f64s("e_field", &self.e_field);
        s.push_u64("step", self.step_index);
        s.push_f64("dt", self.dt);
        s.push_u64("seed", self.seed);
        s
    }

    /// Load state from a snapshot written by a solver with the same grid
    /// and time step. The restored distribution is bit-exact, so stepping
    /// on from here reproduces the uninterrupted run bit for bit.
    pub fn restore(&mut self, snapshot: &Snapshot) -> Result<()> {
        let f = snapshot.get_matrix("f").map_err(Error::from)?;
        if f.shape() != self.f.shape() {
            return Err(Error::Checkpoint {
                detail: format!(
                    "snapshot grid {:?} does not match solver grid {:?}",
                    f.shape(),
                    self.f.shape()
                ),
            });
        }
        let dt = snapshot.get_f64("dt").map_err(Error::from)?;
        if dt.to_bits() != self.dt.to_bits() {
            return Err(Error::Checkpoint {
                detail: format!("snapshot dt {dt:e} does not match solver dt {:e}", self.dt),
            });
        }
        let e_field = snapshot.get_f64s("e_field").map_err(Error::from)?;
        if e_field.len() != self.e_field.len() {
            return Err(Error::Checkpoint {
                detail: format!(
                    "snapshot field has {} points, solver has {}",
                    e_field.len(),
                    self.e_field.len()
                ),
            });
        }
        self.step_index = snapshot.get_u64("step").map_err(Error::from)?;
        self.seed = snapshot.get_u64("seed").map_err(Error::from)?;
        self.f = f;
        self.e_field = e_field;
        // The host matrix is authoritative again; stale resident slabs
        // must not survive a restore.
        self.resident = None;
        Ok(())
    }

    /// Resume from the newest valid checkpoint generation under `dir`.
    /// Corrupt generations are skipped in favour of older intact ones
    /// (see [`CheckpointStore::restore_latest`]). Returns the restored
    /// step index, or `None` when no restorable checkpoint exists — the
    /// run then simply starts fresh.
    pub fn resume_from(&mut self, dir: impl Into<PathBuf>) -> Result<Option<u64>> {
        match CheckpointStore::new(dir).restore_latest() {
            Some((_, snapshot)) => {
                self.restore(&snapshot)?;
                Ok(Some(self.step_index))
            }
            None => Ok(None),
        }
    }

    /// One Strang-split time step.
    pub fn step<E: ExecSpace>(&mut self, exec: &E) -> Result<()> {
        // Half x-advection.
        self.adv_x.step(exec, &mut self.f)?;
        // Field solve from the updated density.
        self.solve_poisson();
        // Full v-advection: per-x-lane displacement a·Δt = −E(x)·Δt.
        let disp: Vec<f64> = self.e_field.iter().map(|&e| -e * self.dt).collect();
        transpose_into_with(exec, &self.f, &mut self.f_t).map_err(|e| Error::ShapeMismatch {
            detail: e.to_string(),
        })?;
        self.adv_v
            .step_with_displacements(exec, &mut self.f_t, &disp)?;
        let mut back = std::mem::replace(
            &mut self.f,
            Matrix::zeros(self.v_grid.len(), self.x_grid.len(), Layout::Right),
        );
        transpose_into_with(exec, &self.f_t, &mut back).map_err(|e| Error::ShapeMismatch {
            detail: e.to_string(),
        })?;
        self.f = back;
        // Half x-advection.
        self.adv_x.step(exec, &mut self.f)?;
        self.step_index += 1;
        if let Some((store, every)) = &self.checkpoint {
            if self.step_index % *every == 0 {
                store.write(self.step_index, &self.snapshot())?;
            }
        }
        Ok(())
    }

    /// One Strang-split time step with the distribution **resident in
    /// interleaved panels**: both advections solve and interpolate
    /// panel-native, the density reads the slab directly, and the only
    /// layout motion per step is the pair of panel-to-panel orientation
    /// flips between the `x` and `v` advections (which the host path pays
    /// as full transposes too). The slab is unpacked to the host matrix
    /// only at checkpoint boundaries and on
    /// [`VlasovPoisson1D1V::sync_host`].
    ///
    /// Bit-identical to [`VlasovPoisson1D1V::step`] when the backends run
    /// the interleaved kernel. After resident steps,
    /// [`VlasovPoisson1D1V::distribution`] / [`VlasovPoisson1D1V::mass`]
    /// read a stale host matrix until [`VlasovPoisson1D1V::sync_host`]
    /// runs; field quantities (`e_field`, `field_energy`) are always
    /// current.
    pub fn step_resident<E: ExecSpace>(&mut self, exec: &E) -> Result<()> {
        if self.resident.is_none() {
            self.resident = Some(ResidentSlabs {
                // f is (Nv, Nx); the x-advection slab is its transpose.
                f_xv: ResidentBatch::pack_transposed(&self.f),
                f_vx: ResidentBatch::zeros(self.v_grid.len(), self.x_grid.len()),
            });
        }
        let mut rs = self.resident.take().expect("just ensured");
        let stepped = self.step_resident_inner(exec, &mut rs);
        self.resident = Some(rs);
        stepped?;
        self.step_index += 1;
        let due = self
            .checkpoint
            .as_ref()
            .is_some_and(|(_, every)| self.step_index % *every == 0);
        if due {
            // Checkpoint boundary: the one place the slab leaves panel
            // form, so snapshots stay byte-compatible with host-path runs.
            self.sync_host();
            let snapshot = self.snapshot();
            if let Some((store, _)) = &self.checkpoint {
                store.write(self.step_index, &snapshot)?;
            }
        }
        Ok(())
    }

    fn step_resident_inner<E: ExecSpace>(
        &mut self,
        exec: &E,
        rs: &mut ResidentSlabs,
    ) -> Result<()> {
        // Half x-advection, panel-native.
        self.adv_x.step_resident(exec, &mut rs.f_xv)?;
        // Field solve straight off the slab.
        let rho = self.density_resident(&rs.f_xv);
        self.poisson_from_density(&rho);
        // Full v-advection in the flipped orientation.
        let disp: Vec<f64> = self.e_field.iter().map(|&e| -e * self.dt).collect();
        rs.f_xv
            .transpose_into_with(exec, &mut rs.f_vx)
            .map_err(flip_err)?;
        self.adv_v
            .step_resident_with_displacements(exec, &mut rs.f_vx, &disp)?;
        rs.f_vx
            .transpose_into_with(exec, &mut rs.f_xv)
            .map_err(flip_err)?;
        // Half x-advection.
        self.adv_x.step_resident(exec, &mut rs.f_xv)?;
        Ok(())
    }

    /// Unpack the resident slab back into the host distribution matrix
    /// (generation-keyed: free when the slab has not moved since the last
    /// sync). No-op when no resident step has run.
    pub fn sync_host(&mut self) {
        if let Some(rs) = &mut self.resident {
            // The (Nv, Nx) row-major mirror matches `f`'s shape exactly.
            let mirror = rs.f_xv.host_transposed();
            self.f.deep_copy_from(mirror).expect("grid fixed at build");
        }
    }
}

fn flip_err(e: pp_portable::Error) -> Error {
    Error::ShapeMismatch {
        detail: e.to_string(),
    }
}

fn spline_err(e: pp_bsplines::Error) -> Error {
    Error::Spline(pp_splinesolver::Error::Space(e))
}

/// Classic two-stream instability initial condition: two counter-streaming
/// Maxwellian beams with a small sinusoidal seed.
pub fn two_stream(v0: f64, amplitude: f64, k: f64) -> impl Fn(f64, f64) -> f64 {
    move |x: f64, v: f64| {
        let beams = 0.5 * ((-(v - v0) * (v - v0) / 0.5).exp() + (-(v + v0) * (v + v0) / 0.5).exp())
            / (0.5 * std::f64::consts::PI).sqrt();
        beams * (1.0 + amplitude * (k * x).cos())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_portable::Parallel;

    fn small_solver() -> VlasovPoisson1D1V {
        // k·v0 = 0.7 ω_p: near the cold-beam maximum growth rate.
        VlasovPoisson1D1V::new(
            32,
            64,
            2.0 * std::f64::consts::PI / 0.5, // k = 0.5 fits one mode
            5.0,
            3,
            0.05,
            two_stream(1.4, 0.01, 0.5),
        )
        .unwrap()
    }

    #[test]
    fn poisson_solver_zero_for_uniform_density() {
        let mut s =
            VlasovPoisson1D1V::new(16, 16, 1.0, 4.0, 3, 0.1, |_, v| (-v * v).exp()).unwrap();
        s.solve_poisson();
        for &e in s.e_field() {
            assert!(e.abs() < 1e-12, "uniform density must give E = 0");
        }
    }

    #[test]
    fn poisson_derivative_matches_density_fluctuation() {
        let mut s = VlasovPoisson1D1V::new(64, 16, 1.0, 4.0, 3, 0.1, |x, v| {
            (-v * v).exp() * (1.0 + 0.2 * (std::f64::consts::TAU * x).sin())
        })
        .unwrap();
        s.solve_poisson();
        let rho = s.density();
        let mean: f64 = rho.iter().sum::<f64>() / rho.len() as f64;
        let e = s.e_field().to_vec();
        let dx = 1.0 / 64.0;
        // Central-difference dE/dx ≈ ⟨ρ⟩ − ρ away from the seam.
        for i in 1..63 {
            let de = (e[i + 1] - e[i - 1]) / (2.0 * dx);
            assert!(
                (de - (mean - rho[i])).abs() < 0.05 * (mean - rho[i]).abs().max(0.1),
                "i = {i}: dE/dx {de} vs {}",
                mean - rho[i]
            );
        }
    }

    /// The column-at-a-time formula the streamed reductions replace.
    fn density_by_columns(
        get: impl Fn(usize, usize) -> f64,
        nx: usize,
        nv: usize,
        dv: f64,
    ) -> Vec<f64> {
        (0..nx)
            .map(|i| (0..nv).map(|j| get(i, j)).sum::<f64>() * dv)
            .collect()
    }

    #[test]
    fn streamed_densities_are_bitwise_the_column_sums() {
        for nv in [13usize, 1024] {
            let nx = 20;
            let mut s = VlasovPoisson1D1V::new(nx, nv, 1.0, 4.0, 3, 0.1, |x, v| {
                (-v * v).exp() * (1.0 + 0.3 * (std::f64::consts::TAU * x).sin()) + 1e-3 * x * v
            })
            .unwrap();
            // A row of negative zeros pins the accumulator's start value.
            for j in 0..nv {
                s.f.set(j, 3, -0.0);
            }
            let (f, dv) = (s.distribution().clone(), s.dv);
            let want = density_by_columns(|i, j| f.get(j, i), nx, nv, dv);
            let slab = ResidentBatch::pack_transposed(&f);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&s.density()), bits(&want), "host nv {nv}");
            assert_eq!(
                bits(&s.density_resident(&slab)),
                bits(&want),
                "resident nv {nv}"
            );
            assert!(want[3].is_sign_negative() && want[3] == 0.0);
        }
    }

    #[test]
    fn mass_conserved_over_steps() {
        let mut s = small_solver();
        let m0 = s.mass();
        for _ in 0..5 {
            s.step(&Parallel).unwrap();
        }
        let m1 = s.mass();
        // Strang splitting + spline remap: mass is conserved to scheme
        // accuracy, not machine precision.
        assert!(((m1 - m0) / m0).abs() < 1e-4, "{m0} -> {m1}");
    }

    #[test]
    fn two_stream_instability_grows() {
        let mut s = small_solver();
        s.solve_poisson();
        let e0 = s.field_energy();
        // The ballistic part of the seed phase-mixes away first; the
        // unstable eigenmode then grows exponentially. Track the maximum.
        // Growth emerges around t ≈ 15 ω_p⁻¹ (measured: E reaches ~0.4 by
        // t = 20, ~350× the seed).
        let mut e_max: f64 = 0.0;
        for _ in 0..400 {
            s.step(&Parallel).unwrap();
            e_max = e_max.max(s.field_energy());
        }
        assert!(
            e_max > 10.0 * e0,
            "two-stream field energy should grow: {e0:.3e} -> max {e_max:.3e}"
        );
    }

    #[test]
    fn verified_solver_matches_plain_and_reports_clean() {
        let init = two_stream(1.4, 0.01, 0.5);
        let mut plain = VlasovPoisson1D1V::new(32, 32, 4.0, 5.0, 3, 0.05, &init).unwrap();
        let mut verified = VlasovPoisson1D1V::new_verified(
            32,
            32,
            4.0,
            5.0,
            3,
            0.05,
            VerifyConfig::default(),
            &init,
        )
        .unwrap();
        assert_eq!(verified.advection_diagnostics(), (None, None));
        for _ in 0..3 {
            plain.step(&Parallel).unwrap();
            verified.step(&Parallel).unwrap();
        }
        // Healthy batches are bit-identical, so the whole simulation is.
        assert_eq!(
            plain.distribution().max_abs_diff(verified.distribution()),
            0.0
        );
        let (dx, dv) = verified.advection_diagnostics();
        assert!(dx.unwrap().all_clean());
        assert!(dv.unwrap().all_clean());
    }

    #[test]
    fn resident_steps_match_interleaved_host_steps_bitwise() {
        // Resident stepping runs the interleaved kernel, so the host
        // reference must too for a bitwise comparison.
        let init = two_stream(1.4, 0.01, 0.5);
        let lx = 2.0 * std::f64::consts::PI / 0.5;
        let mut host = VlasovPoisson1D1V::new_with_version(
            32,
            24,
            lx,
            5.0,
            3,
            0.05,
            BuilderVersion::Interleaved,
            &init,
        )
        .unwrap();
        let mut res = VlasovPoisson1D1V::new_with_version(
            32,
            24,
            lx,
            5.0,
            3,
            0.05,
            BuilderVersion::Interleaved,
            &init,
        )
        .unwrap();
        for _ in 0..4 {
            host.step(&Parallel).unwrap();
            res.step_resident(&Parallel).unwrap();
        }
        // Field quantities are always current on the resident path.
        for (a, b) in host.e_field().iter().zip(res.e_field()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        res.sync_host();
        assert_eq!(host.distribution().max_abs_diff(res.distribution()), 0.0);
        assert_eq!(host.step_index(), res.step_index());
    }

    #[test]
    fn resident_steps_track_default_backend_host_steps() {
        // The default host backend is FusedSpmv, which agrees with the
        // interleaved resident kernel to ~2 ulp per solve; over a few
        // Strang steps the paths stay far inside 1e-11.
        let init = two_stream(1.4, 0.01, 0.5);
        let mut host = VlasovPoisson1D1V::new(32, 32, 4.0, 5.0, 3, 0.05, &init).unwrap();
        let mut res = VlasovPoisson1D1V::new(32, 32, 4.0, 5.0, 3, 0.05, &init).unwrap();
        for _ in 0..3 {
            host.step(&Parallel).unwrap();
            res.step_resident(&Parallel).unwrap();
        }
        res.sync_host();
        let diff = host.distribution().max_abs_diff(res.distribution());
        assert!(diff < 1e-11, "{diff}");
    }

    #[test]
    fn sync_host_refreshes_distribution_and_restore_drops_slab() {
        let mut s = small_solver();
        let before = s.distribution().clone();
        s.step_resident(&Parallel).unwrap();
        // The host matrix is stale until an explicit sync.
        assert_eq!(before.max_abs_diff(s.distribution()), 0.0);
        s.sync_host();
        assert!(before.max_abs_diff(s.distribution()) > 0.0);
        let snap = s.snapshot();

        // A restore makes the host matrix authoritative again: resident
        // stepping afterwards must start from the restored state, not
        // from a stale slab left behind by earlier resident steps.
        let mut t = small_solver();
        t.step_resident(&Parallel).unwrap();
        t.step_resident(&Parallel).unwrap();
        t.restore(&snap).unwrap();
        t.step_resident(&Parallel).unwrap();
        t.sync_host();

        let mut u = small_solver();
        u.restore(&snap).unwrap();
        u.step_resident(&Parallel).unwrap();
        u.sync_host();
        assert_eq!(t.distribution().max_abs_diff(u.distribution()), 0.0);
        assert_eq!(t.step_index(), u.step_index());
    }

    #[test]
    fn distribution_stays_finite_and_mostly_positive() {
        let mut s = small_solver();
        for _ in 0..10 {
            s.step(&Parallel).unwrap();
        }
        let f = s.distribution();
        assert!(f.as_slice().iter().all(|v| v.is_finite()));
        // Semi-Lagrangian splines can undershoot slightly; bound it.
        let min = f.as_slice().iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(min > -0.05, "excessive undershoot: {min}");
    }
}
