//! In-run host ceiling probe (std only): last-level cache size from
//! sysfs, stream-copy bandwidth at a given footprint, and 8-wide `f64`
//! division throughput. These are the roofline denominators the
//! per-layer fractions are taken against, measured on the host that ran
//! the workload instead of a nominal device.

use std::hint::black_box;
use std::time::Instant;

/// The last-level data cache of CPU 0, in bytes, as sysfs reports it.
pub fn llc_bytes() -> Option<u64> {
    let mut best: Option<(u32, u64)> = None;
    for idx in 0..16 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        if kind.trim() == "Instruction" {
            continue;
        }
        let (Ok(level), Some(bytes)) = (level.trim().parse::<u32>(), parse_size(size.trim()))
        else {
            continue;
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, bytes));
        }
    }
    best.map(|(_, b)| b)
}

/// Parse a sysfs cache size such as `107520K` or `2M`.
fn parse_size(s: &str) -> Option<u64> {
    let (digits, mult) = match s.chars().last()? {
        'K' => (&s[..s.len() - 1], 1 << 10),
        'M' => (&s[..s.len() - 1], 1 << 20),
        'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok().map(|v| v * mult)
}

/// Stream-copy bandwidth in GB/s (10⁹ B/s) over a footprint of
/// `footprint` bytes (source and destination arrays of half that each),
/// on `threads` threads, each copying its own contiguous share. Bytes
/// counted per copy: one read and one write of the array. Small
/// footprints repeat the copy so each timed pass moves at least 256 MiB.
/// Returns the best of five passes (the ceiling).
pub fn stream_copy_gbs(footprint: usize, threads: usize) -> f64 {
    let len = (footprint / 16).max(threads * 512);
    let src: Vec<f64> = (0..len).map(|i| i as f64).collect();
    let mut dst = vec![0.0_f64; len];
    let bytes = 16 * len;
    let reps = (256usize << 20).div_ceil(bytes).max(1);
    let share = len.div_ceil(threads);
    let mut best = 0.0_f64;
    for _ in 0..5 {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for (d, src) in dst.chunks_mut(share).zip(src.chunks(share)) {
                s.spawn(move || {
                    for _ in 0..reps {
                        d.copy_from_slice(black_box(src));
                        black_box(&mut *d);
                    }
                });
            }
        });
        let secs = t0.elapsed().as_secs_f64();
        best = best.max((reps * bytes) as f64 / secs / 1e9);
    }
    best
}

/// Throughput of independent 8-wide `f64` divisions on `threads`
/// threads, in 10⁹ divisions per second (best of three passes).
pub fn fdiv_gops(threads: usize) -> f64 {
    const CHAINS: usize = 8;
    const ITERS: usize = 4_000_000;
    let mut best = 0.0_f64;
    for _ in 0..3 {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    let d = black_box(1.000_000_001_f64);
                    let mut x = [[1.0_f64; 8]; CHAINS];
                    for _ in 0..ITERS {
                        for v in x.iter_mut() {
                            for l in v.iter_mut() {
                                *l /= d;
                            }
                        }
                    }
                    black_box(x);
                });
            }
        });
        let secs = t0.elapsed().as_secs_f64();
        best = best.max((threads * ITERS * CHAINS * 8) as f64 / secs / 1e9);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sysfs_sizes_parse() {
        assert_eq!(parse_size("107520K"), Some(107520 << 10));
        assert_eq!(parse_size("2M"), Some(2 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("x"), None);
    }
}
