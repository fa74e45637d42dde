//! The batched spline solver's benchmark: four workloads, end-to-end
//! metrics from an untraced run, per-layer metrics from a traced replay.
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input is generated from `--seed`. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and the
//! metrics of the run (end-to-end with `--trace 0`, per-layer with
//! `--trace 1`). See `README.md` for the workloads and metrics.

mod check;
mod host;
mod replay;
mod report;
mod resident;
mod rotation;
mod util;
mod verified;
mod vlasov;

use std::process::{Command, ExitCode};

use report::{Ctx, EndToEnd, HostCeilings, Layers, Measured};
use util::{json_num, json_str, Metrics, Samples};

/// Threads of the parallel runs: two, or fewer on a smaller host.
const THREADS: usize = 2;

/// Workloads in run order: name, working-set bytes of one op, bytes of
/// the batch one solve sweeps (the host probe's stream footprint), entry
/// point.
type Entry = fn(&Ctx) -> Result<Measured, String>;
const WORKLOADS: [(&str, u64, u64, Entry); 4] = [
    (
        "resident-build-large",
        resident::WS_BYTES,
        resident::SWEEP_BYTES,
        resident::run,
    ),
    (
        "vlasov-step-1024",
        vlasov::WS_BYTES,
        vlasov::SWEEP_BYTES,
        vlasov::run,
    ),
    (
        "verified-host-graded",
        verified::WS_BYTES,
        verified::SWEEP_BYTES,
        verified::run,
    ),
    (
        "rotation-small",
        rotation::WS_BYTES,
        rotation::SWEEP_BYTES,
        rotation::run,
    ),
];

/// Error text of any library error.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// What one workload run reports.
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    correct: bool,
}

impl Outcome {
    fn end_to_end(e: EndToEnd, threads: usize) -> Self {
        let attempted = e.parallel.attempted + e.serial.attempted;
        let failed = e.parallel.failed + e.serial.failed;
        Outcome {
            metrics: e.metrics(threads),
            attempted,
            failed,
            correct: failed == 0,
        }
    }

    /// A traced run is correct only if every op passed its check and the
    /// replay matched the library bit for bit.
    fn layers(l: Layers, tally: Samples, host: &HostCeilings, ws: u64, threads: usize) -> Self {
        Outcome {
            metrics: l.metrics(host, ws, threads),
            attempted: tally.attempted,
            failed: tally.failed,
            correct: tally.failed == 0 && l.replay_bitwise,
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(25.0),
        trace: trace.unwrap_or(false),
    })
}

/// First line of a command's output, or `unavailable`.
fn command_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unavailable".to_string())
}

/// Git revision of the working directory, only if it is itself a
/// checkout (a copied tree without `.git` must not pick up an enclosing
/// repository's revision).
fn git_revision() -> String {
    if std::path::Path::new(".git").exists() {
        command_line("git", &["--git-dir=.git", "rev-parse", "HEAD"])
    } else {
        "unavailable (not a git checkout)".to_string()
    }
}

/// Run every workload in a child process of its own, so each reports its
/// own peak RSS, and print a summary.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut all_ok = true;
    let mut summary = Vec::new();
    for (name, ..) in WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        match out {
            Ok(o) if o.status.success() => {
                let text = String::from_utf8_lossy(&o.stdout);
                print!("{text}");
                let last = text.lines().last().unwrap_or_default().to_string();
                all_ok &= last.starts_with("{\"correct\": true");
                summary.push(format!("{}: {}", json_str(name), last));
            }
            Ok(o) => {
                eprint!("{}", String::from_utf8_lossy(&o.stderr));
                all_ok = false;
            }
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                all_ok = false;
            }
        }
    }
    println!("{{{}}}", summary.join(", "));
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = THREADS.min(nproc);
    // The pool sizes itself from this on first use, which is below.
    std::env::set_var("PP_NUM_THREADS", threads.to_string());
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(&(name, ws_bytes, sweep_bytes, entry)) =
        WORKLOADS.iter().find(|w| w.0 == args.workload)
    else {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.0).collect();
        eprintln!(
            "perfbench: unknown workload {:?}; one of {names:?} or all",
            args.workload
        );
        return ExitCode::from(2);
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        threads,
    };
    let llc = host::llc_bytes().unwrap_or(0);
    // Traced runs probe the host before and after the workload (its
    // memory is freed by then) and keep the better reading.
    let before = ctx
        .trace
        .then(|| HostCeilings::probe(sweep_bytes, llc, threads));
    let measured = match entry(&ctx) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = match measured {
        Measured::EndToEnd(e) => Outcome::end_to_end(e, threads),
        Measured::Layers(layers, tally) => {
            let after = HostCeilings::probe(sweep_bytes, llc, threads);
            let host = before.map_or(after, |b| b.max(after));
            Outcome::layers(layers, tally, &host, ws_bytes, threads)
        }
    };

    let pool = pp_portable::pool_stats();
    let threads_used = pool.workers + 1;
    let within_nproc = threads_used <= nproc && pp_portable::num_threads() == threads;
    let ws_ratio = if llc > 0 {
        ws_bytes as f64 / llc as f64
    } else {
        f64::NAN
    };
    let meta = [
        ("workload", json_str(name)),
        ("seed", args.seed.to_string()),
        ("seconds", json_num(args.seconds)),
        ("trace", args.trace.to_string()),
        ("nproc", nproc.to_string()),
        ("PP_NUM_THREADS", json_str(&threads.to_string())),
        ("pool_workers", pool.workers.to_string()),
        ("threads_used", threads_used.to_string()),
        ("llc_bytes", llc.to_string()),
        ("ws_bytes", ws_bytes.to_string()),
        ("sweep_bytes", sweep_bytes.to_string()),
        ("ws_over_llc", json_num(ws_ratio)),
        (
            "ws_bytes_all",
            format!(
                "{{{}}}",
                WORKLOADS
                    .iter()
                    .map(|w| format!("{}: {}", json_str(w.0), w.1))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
        ("rustc", json_str(&command_line("rustc", &["-V"]))),
        ("git", json_str(&git_revision())),
    ];
    println!(
        "# meta {{{}}}",
        meta.iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k)))
            .collect::<Vec<_>>()
            .join(", ")
    );
    for m in &outcome.metrics.0 {
        println!("# {:<30} {:>16} {}", m.name, json_num(m.value), m.unit);
    }
    if !within_nproc {
        eprintln!("perfbench: the pool used {threads_used} threads on a {nproc}-thread host");
    }
    if outcome.failed > 0 {
        eprintln!(
            "perfbench: {} of {} ops failed their check",
            outcome.failed, outcome.attempted
        );
    }
    let metrics: Vec<String> = outcome
        .metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct && within_nproc,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
