//! Conformance matrix for the three verified entry points.
//!
//! `VerifiedBuilder::solve_in_place`, `solve_in_place_budgeted` under an
//! ample budget, and `pack → solve_resident → unpack` are one pipeline
//! behind three doors. For every case of the matrix below they must agree:
//!
//! | pair | contract |
//! |---|---|
//! | in-place vs budgeted (ample) | bitwise `x`, equal report, no degradation — every version |
//! | in-place vs resident | bitwise `x`, equal report — `Interleaved` |
//! | in-place vs resident | same verdict kinds, `x` within 1e-11 — other versions (resident always runs the interleaved kernel) |
//!
//! "Equal report" compares every verdict with its floats by bit pattern,
//! so residuals and checksum discrepancies must match exactly, NaN
//! included. The case axes: every `BuilderVersion` × {`Serial`,
//! `Parallel`} × degree {3, 5} × {uniform, graded} breaks × host layout
//! × batch {1, 7, 8, 9, 1025} × four fault scenarios (clean; NaN input,
//! probe lane and a transient SDC strike; the same with a persistent
//! strike; NaN and probe lanes with ABFT off and a sampling stride).

use std::time::Duration;

use batched_splines::prelude::*;
use pp_portable::TestRng;

const N: usize = 24;
const BATCHES: [usize; 5] = [1, 7, 8, 9, 1025];

/// One fault scenario: which lanes are poisoned, probed or struck.
#[derive(Clone, Copy, Debug)]
enum Scenario {
    Clean,
    FaultsTransient,
    FaultsPersistent,
    StrideNoAbft,
}

const SCENARIOS: [Scenario; 4] = [
    Scenario::Clean,
    Scenario::FaultsTransient,
    Scenario::FaultsPersistent,
    Scenario::StrideNoAbft,
];

/// Lane positions of the injected faults for a batch: the NaN lane in
/// the middle, the probed lane last (the scalar remainder chunk when
/// the batch is not a multiple of the lane width), the SDC lane first.
/// A one-lane batch stacks all three on lane 0.
fn fault_lanes(batch: usize) -> (usize, usize, usize) {
    (batch / 2, batch - 1, 0)
}

fn config(scenario: Scenario, batch: usize) -> VerifyConfig {
    let (_, probe, sdc) = fault_lanes(batch);
    match scenario {
        Scenario::Clean => VerifyConfig {
            abft: true,
            ..VerifyConfig::default()
        },
        Scenario::FaultsTransient | Scenario::FaultsPersistent => VerifyConfig {
            abft: true,
            probe_lanes: vec![probe],
            sdc_probe_lanes: vec![sdc],
            sdc_probe_persistent: matches!(scenario, Scenario::FaultsPersistent),
            ..VerifyConfig::default()
        },
        Scenario::StrideNoAbft => VerifyConfig {
            abft: false,
            sample_stride: 3,
            probe_lanes: vec![probe],
            ..VerifyConfig::default()
        },
    }
}

fn rhs(batch: usize, layout: Layout, scenario: Scenario, seed: u64) -> Matrix {
    let mut rng = TestRng::seed_from_u64(seed);
    let mut m = Matrix::from_fn(N, batch, layout, |_, _| rng.gen_range(-2.0..2.0));
    if !matches!(scenario, Scenario::Clean) {
        let (nan, _, _) = fault_lanes(batch);
        m.set(5, nan, f64::NAN);
    }
    m
}

fn space(degree: usize, uniform: bool) -> PeriodicSplineSpace {
    let breaks = if uniform {
        Breaks::uniform(N, 0.0, 1.0).expect("breaks")
    } else {
        Breaks::graded(N, 0.0, 1.0, 0.6).expect("breaks")
    };
    PeriodicSplineSpace::new(breaks, degree).expect("space")
}

/// A verdict with every float rendered by bit pattern, so equality is
/// exact and NaN-safe.
fn key(v: &LaneVerdict) -> String {
    let b = |x: f64| format!("{:016x}", x.to_bits());
    match v {
        LaneVerdict::Verified { residual } => format!("verified {}", b(*residual)),
        LaneVerdict::Unsampled => "unsampled".into(),
        LaneVerdict::Refined { steps, residual } => format!("refined {steps} {}", b(*residual)),
        LaneVerdict::Recovered { rung, residual } => format!("recovered {rung} {}", b(*residual)),
        LaneVerdict::SdcCorrected {
            discrepancy,
            residual,
        } => format!("sdc-corrected {} {}", b(*discrepancy), b(*residual)),
        LaneVerdict::Quarantined { reason } => match reason {
            QuarantineReason::NonFiniteInput { index } => format!("q-input {index}"),
            QuarantineReason::NonFiniteSolution => "q-solution".into(),
            QuarantineReason::ResidualAboveTol { residual } => {
                format!("q-residual {}", b(*residual))
            }
            QuarantineReason::SdcDetected { discrepancy } => format!("q-sdc {}", b(*discrepancy)),
        },
    }
}

/// The verdict's kind only (variant, rung, quarantine reason kind).
fn kind(v: &LaneVerdict) -> String {
    match v {
        LaneVerdict::Recovered { rung, .. } => format!("recovered {rung}"),
        LaneVerdict::Quarantined { reason } => match reason {
            QuarantineReason::NonFiniteInput { index } => format!("q-input {index}"),
            QuarantineReason::NonFiniteSolution => "q-solution".into(),
            QuarantineReason::ResidualAboveTol { .. } => "q-residual".into(),
            QuarantineReason::SdcDetected { .. } => "q-sdc".into(),
        },
        other => key(other)
            .split(' ')
            .next()
            .expect("non-empty key")
            .to_string(),
    }
}

fn keys(r: &LaneReport, f: fn(&LaneVerdict) -> String) -> Vec<String> {
    r.verdicts().iter().map(f).collect()
}

fn assert_bitwise(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}");
    for j in 0..a.ncols() {
        for i in 0..a.nrows() {
            assert_eq!(
                a.get(i, j).to_bits(),
                b.get(i, j).to_bits(),
                "{what}: ({i},{j}) {} vs {}",
                a.get(i, j),
                b.get(i, j)
            );
        }
    }
}

fn assert_close(a: &Matrix, b: &Matrix, what: &str) {
    for j in 0..a.ncols() {
        for i in 0..a.nrows() {
            let (x, y) = (a.get(i, j), b.get(i, j));
            assert!(
                x.to_bits() == y.to_bits() || (x - y).abs() <= 1e-11,
                "{what}: ({i},{j}) {x} vs {y}"
            );
        }
    }
}

/// Run all three entry points on one case and check the contract table.
fn check_case<E: ExecSpace>(
    exec: &E,
    version: BuilderVersion,
    degree: usize,
    uniform: bool,
    layout: Layout,
    batch: usize,
    scenario: Scenario,
) {
    let what = format!(
        "{version:?} {} deg {degree} uniform {uniform} {layout:?} batch {batch} {scenario:?}",
        exec.name()
    );
    let vb = SplineBuilder::new(space(degree, uniform), version)
        .expect("builder")
        .verified(config(scenario, batch));
    let input = rhs(batch, layout, scenario, 0x5eed ^ batch as u64);

    let mut x_host = input.clone();
    let host = vb.solve_in_place(exec, &mut x_host).expect("in place");

    let mut x_budget = input.clone();
    let budgeted = vb
        .solve_in_place_budgeted(
            exec,
            &mut x_budget,
            &Budget::with_deadline(Duration::from_secs(600)),
        )
        .expect("budgeted");
    assert!(budgeted.degradations.is_empty(), "{what}: {budgeted}");
    assert_eq!(
        keys(&budgeted.lanes, key),
        keys(&host, key),
        "{what}: budgeted report"
    );
    assert_bitwise(&x_budget, &x_host, &format!("{what}: budgeted x"));

    let mut rb = ResidentBatch::pack(&input);
    let resident = vb.solve_resident(exec, &mut rb).expect("resident");
    let mut x_res = Matrix::zeros(N, batch, layout);
    rb.unpack_into(&mut x_res).expect("unpack");
    if version == BuilderVersion::Interleaved {
        assert_eq!(
            keys(&resident, key),
            keys(&host, key),
            "{what}: resident report"
        );
        assert_bitwise(&x_res, &x_host, &format!("{what}: resident x"));
    } else {
        assert_eq!(
            keys(&resident, kind),
            keys(&host, kind),
            "{what}: resident verdict kinds"
        );
        assert_close(&x_res, &x_host, &format!("{what}: resident x"));
    }

    // Sanity on the scenario itself, so the matrix cannot pass vacuously.
    if !matches!(scenario, Scenario::Clean) {
        let (nan, _, _) = fault_lanes(batch);
        assert!(
            matches!(
                host.verdict(nan),
                LaneVerdict::Quarantined {
                    reason: QuarantineReason::NonFiniteInput { index: 5 }
                }
            ) || (nan % 3 != 0 && matches!(scenario, Scenario::StrideNoAbft)),
            "{what}: NaN lane {nan}: {}",
            host.verdict(nan)
        );
    } else {
        assert!(host.all_verified(), "{what}: {host}");
    }
}

#[test]
fn entry_points_agree_on_the_whole_matrix() {
    for version in BuilderVersion::ALL {
        for degree in [3usize, 5] {
            for uniform in [true, false] {
                for (k, batch) in BATCHES.into_iter().enumerate() {
                    // Alternate the host layout across batch widths so both
                    // layouts meet every version, degree and mesh.
                    let layout = if k % 2 == 0 {
                        Layout::Left
                    } else {
                        Layout::Right
                    };
                    for scenario in SCENARIOS {
                        check_case(&Serial, version, degree, uniform, layout, batch, scenario);
                        check_case(&Parallel, version, degree, uniform, layout, batch, scenario);
                    }
                }
            }
        }
    }
}

/// Serial and parallel execution of the same entry point are bitwise
/// equal, report included.
#[test]
fn serial_and_parallel_agree_bitwise() {
    for version in [BuilderVersion::FusedSpmv, BuilderVersion::Interleaved] {
        let vb = SplineBuilder::new(space(5, false), version)
            .expect("builder")
            .verified(config(Scenario::FaultsTransient, 1025));
        let input = rhs(1025, Layout::Left, Scenario::FaultsTransient, 9);
        let mut xs = input.clone();
        let mut xp = input.clone();
        let rs = vb.solve_in_place(&Serial, &mut xs).expect("serial");
        let rp = vb.solve_in_place(&Parallel, &mut xp).expect("parallel");
        assert_eq!(keys(&rs, key), keys(&rp, key), "{version:?}");
        assert_bitwise(&xs, &xp, &format!("{version:?}"));
    }
}
