//! Seeded input generation, order statistics, the op loop and the
//! metric list every workload reports into.

use std::time::{Duration, Instant};

use pp_portable::pool_stats;

/// SplitMix64 finaliser: a stateless, well-mixed hash of one word.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A value in `[-1, 1)` for element `(i, j)` of the input drawn from
/// `seed`. Counter-based, so any element can be regenerated in place
/// (the resident batch is refilled panel by panel without a host copy).
pub fn input_value(seed: u64, i: usize, j: usize) -> f64 {
    let key = splitmix64(seed) ^ ((j as u64) << 32 | i as u64);
    let h = splitmix64(key);
    (h >> 11) as f64 * (2.0 / (1u64 << 53) as f64) - 1.0
}

/// A small sequential generator for per-run choices (sampled lanes,
/// physical parameters).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(splitmix64(seed ^ 0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        splitmix64(self.0)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Median (midpoint of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile, `q` in `(0, 1]`.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Per-op wall times of one measured phase plus its failure tally.
#[derive(Default)]
pub struct Samples {
    /// Seconds per op, in execution order.
    pub secs: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Pool dispatches issued inside the timed ops.
    pub dispatches: u64,
    /// Pool worker busy seconds accrued inside the timed ops.
    pub pool_busy: f64,
}

impl Samples {
    /// Time one op and record it. The pool counters are read just
    /// outside the timed span, so untimed refills and checks between ops
    /// never count as the op's dispatches or busy time.
    pub fn time<T>(&mut self, op: impl FnOnce() -> T) -> T {
        let before = pool_stats();
        let t0 = Instant::now();
        let out = op();
        let secs = t0.elapsed().as_secs_f64();
        let after = pool_stats();
        self.secs.push(secs);
        self.dispatches += after.dispatches - before.dispatches;
        self.pool_busy += (after.total_busy() - before.total_busy()).as_secs_f64();
        out
    }

    /// Pool dispatches per op, and the workers' busy share of the timed
    /// op wall time.
    pub fn pool_per_op(&self) -> (f64, f64) {
        let workers = pool_stats().workers.max(1) as f64;
        (
            self.dispatches as f64 / self.secs.len() as f64,
            self.pool_busy / (workers * self.timed_secs()),
        )
    }

    pub fn p50_ms(&self) -> f64 {
        median(&self.secs) * 1e3
    }

    pub fn p90_ms(&self) -> f64 {
        percentile(&self.secs, 0.9) * 1e3
    }

    /// Sum of the timed op walls (the untimed preparation and checks
    /// between ops are excluded).
    pub fn timed_secs(&self) -> f64 {
        self.secs.iter().sum()
    }

    pub fn absorb(&mut self, other: &Samples) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Outcome of one round of ops: how many ran and how many failed their
/// check (or returned `Err`).
pub struct Round {
    pub ops: usize,
    pub failed: usize,
}

/// Alternate rounds of two kinds so that both see the same machine
/// conditions (on a shared host, slow spells last seconds and would
/// otherwise land on one kind only). Until `budget` has elapsed the next
/// round goes to whichever kind is behind its share of the timed work
/// (`second_share` for the second kind); after it, rounds go to a kind
/// still short of its minimum op count. `round(true, ..)` runs a round of
/// the first kind. Returns `(first, second)`.
pub fn run_paired(
    min_first: usize,
    min_second: usize,
    budget: Duration,
    second_share: f64,
    mut round: impl FnMut(bool, &mut Samples) -> Round,
) -> (Samples, Samples) {
    let (mut a, mut b) = (Samples::default(), Samples::default());
    let start = Instant::now();
    loop {
        let over = start.elapsed() >= budget;
        let (a_short, b_short) = (a.secs.len() < min_first, b.secs.len() < min_second);
        let first = match (over, a_short, b_short) {
            (true, false, false) => break,
            (true, true, false) => true,
            (true, false, true) => false,
            _ => b.timed_secs() * (1.0 - second_share) >= a.timed_secs() * second_share,
        };
        let side = if first { &mut a } else { &mut b };
        let r = round(first, side);
        side.attempted += r.ops as u64;
        side.failed += r.failed as u64;
    }
    (a, b)
}

/// Time one closure call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics in report order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push(Metric { name, value, unit });
    }
}

/// A finite JSON number (non-finite values are reported as `null`, which
/// the result consumer rejects — a NaN metric is a broken run).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Minimal JSON string escaping for the metadata line.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Peak resident set size of this process (`VmHWM`), in bytes.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&xs), 5.5);
        assert_eq!(percentile(&xs, 0.9), 9.0);
        assert_eq!(percentile(&xs, 1.0), 10.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn inputs_are_seeded_and_bounded() {
        assert_eq!(input_value(7, 3, 9), input_value(7, 3, 9));
        assert_ne!(input_value(7, 3, 9), input_value(8, 3, 9));
        for k in 0..1000 {
            let v = input_value(1, k % 37, k);
            assert!((-1.0..1.0).contains(&v));
        }
    }

    #[test]
    fn paired_rounds_meet_both_minimum_counts() {
        let (p, s) = run_paired(6, 3, Duration::ZERO, 0.35, |_, s| {
            s.time(|| ());
            Round { ops: 1, failed: 0 }
        });
        assert!(p.secs.len() >= 6 && s.secs.len() >= 3);
        assert_eq!(
            (p.attempted, s.attempted),
            (p.secs.len() as u64, s.secs.len() as u64)
        );
    }
}
