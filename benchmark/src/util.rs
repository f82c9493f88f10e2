//! Small helpers shared by the workloads: order statistics, the run
//! budget, the process high-water RSS, and the seeded generator that turns
//! `--seed` into inputs.

use std::time::{Duration, Instant};

/// Median of `xs` (mean of the middle pair for an even count); 0 if empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of `xs`; 0 if empty. Infinite
/// entries (failed operations) sort last, so a failure counts as missing
/// any latency limit.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The measurement budget of one run: timed work accumulates until it
/// reaches `--seconds`, with a floor on the number of samples so a slow
/// host still yields a median.
pub struct Budget {
    limit: Duration,
    spent: Duration,
    samples: usize,
    min_samples: usize,
}

impl Budget {
    /// A budget of `seconds` of timed work and at least `min_samples`.
    pub fn new(seconds: u64, min_samples: usize) -> Self {
        Budget {
            limit: Duration::from_secs(seconds),
            spent: Duration::ZERO,
            samples: 0,
            min_samples,
        }
    }

    /// Whether another sample should be taken.
    pub fn more(&self) -> bool {
        self.samples < self.min_samples || self.spent < self.limit
    }

    /// Books one sample of `timed` host time.
    pub fn charge(&mut self, timed: Duration) {
        self.spent += timed;
        self.samples += 1;
    }
}

/// Times `f`, returning its value and the elapsed wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Resets the process's resident-set high-water mark (`VmHWM`) to its
/// current resident set, so the next [`peak_rss_mb`] covers only what
/// follows. Where procfs refuses the write, the reading covers the whole
/// process so far.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Process high-water resident set (`VmHWM`) in MiB, or 0 when
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64: the deterministic generator behind every seeded input the
/// benchmark builds (request sequences, workload and plan seeds).
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n` > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The failure type of the benchmark: a message naming what went wrong.
pub type BenchResult<T> = Result<T, String>;

/// Converts any displayable error into the benchmark's error string,
/// prefixed with what was being done.
pub fn ctx<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 95.0), 95.0);
        assert_eq!(percentile(&[1.0, f64::INFINITY], 95.0), f64::INFINITY);
    }
}
