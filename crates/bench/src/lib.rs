//! A minimal, self-contained benchmark harness.
//!
//! The build environment has no registry access, so `criterion` cannot be
//! resolved; this module implements the small slice of its API that the
//! bench targets in `benches/` use — `Criterion::benchmark_group`,
//! per-group `sample_size`/`warm_up_time`/`measurement_time`,
//! `bench_function`, and the `criterion_group!`/`criterion_main!` macros —
//! so each target needs nothing but an import swap if `criterion` ever
//! becomes available again.
//!
//! Methodology: each benchmark warms up for `warm_up_time`, then runs
//! `sample_size` samples for a combined `measurement_time`, and reports the
//! per-sample mean, minimum and throughput. Results go to stdout as
//! aligned text; no files are written.

#![allow(clippy::print_stdout, clippy::print_stderr, reason = "prints reports")]

use std::hint::black_box as bb;
use std::time::{Duration, Instant};

/// Entry point handed to every bench function (mirror of `criterion::Criterion`).
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Creates a harness with default settings.
    #[must_use]
    pub fn new() -> Self {
        Criterion {}
    }

    /// Starts a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup {
        println!("\n== {name} ==");
        BenchmarkGroup {
            sample_size: 20,
            warm_up: Duration::from_millis(300),
            measurement: Duration::from_secs(2),
        }
    }
}

/// A group of benchmarks sharing sampling settings.
pub struct BenchmarkGroup {
    sample_size: usize,
    warm_up: Duration,
    measurement: Duration,
}

impl BenchmarkGroup {
    /// Number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Untimed warm-up duration before sampling.
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.warm_up = d;
        self
    }

    /// Total time budget across all samples.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement = d;
        self
    }

    /// Runs one benchmark: `f` receives a [`Bencher`] and calls
    /// [`Bencher::iter`] with the code under test.
    pub fn bench_function<S: AsRef<str>>(&mut self, id: S, mut f: impl FnMut(&mut Bencher)) -> &mut Self {
        let mut b = Bencher {
            mode: Mode::Calibrate { elapsed: Duration::ZERO, iters: 0 },
        };
        // Warm-up + calibration: run until the warm-up budget is spent,
        // counting iterations to size the timed samples.
        let start = Instant::now();
        while start.elapsed() < self.warm_up {
            f(&mut b);
        }
        let per_iter = match b.mode {
            Mode::Calibrate { elapsed, iters } if iters > 0 => elapsed / iters,
            _ => Duration::from_nanos(1),
        };
        let per_sample = self.measurement / self.sample_size as u32;
        let iters_per_sample =
            (per_sample.as_nanos() / per_iter.as_nanos().max(1)).clamp(1, u128::from(u32::MAX)) as u64;

        let mut samples: Vec<Duration> = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let mut sb = Bencher {
                mode: Mode::Measure { target_iters: iters_per_sample, elapsed: Duration::ZERO },
            };
            f(&mut sb);
            if let Mode::Measure { elapsed, .. } = sb.mode {
                samples.push(elapsed / iters_per_sample.max(1) as u32);
            }
        }
        samples.sort_unstable();
        let mean: Duration = samples.iter().sum::<Duration>() / samples.len().max(1) as u32;
        let min = samples.first().copied().unwrap_or_default();
        let hz = if mean.as_nanos() == 0 { f64::INFINITY } else { 1e9 / mean.as_nanos() as f64 };
        println!(
            "{:<44} mean {:>12} min {:>12} {:>14.0} iters/s",
            id.as_ref(),
            format_ns(mean),
            format_ns(min),
            hz,
        );
        self
    }

    /// Ends the group (parity with criterion; nothing to flush).
    pub fn finish(&mut self) {}
}

enum Mode {
    Calibrate { elapsed: Duration, iters: u32 },
    Measure { target_iters: u64, elapsed: Duration },
}

/// Passed to each benchmark closure; `iter` times the routine.
pub struct Bencher {
    mode: Mode,
}

impl Bencher {
    /// Times `routine`, keeping its result alive via a black box.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        match &mut self.mode {
            Mode::Calibrate { elapsed, iters } => {
                let t = Instant::now();
                bb(routine());
                *elapsed += t.elapsed();
                *iters += 1;
            }
            Mode::Measure { target_iters, elapsed } => {
                let n = *target_iters;
                let t = Instant::now();
                for _ in 0..n {
                    bb(routine());
                }
                *elapsed = t.elapsed();
            }
        }
    }
}

fn format_ns(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 10_000 {
        format!("{ns} ns")
    } else if ns < 10_000_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.1} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// Mirror of `criterion_group!`: names a function that receives `&mut Criterion`.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::new();
            $( $target(&mut c); )+
        }
    };
}

/// Mirror of `criterion_main!`: produces `main` running the named groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:ident),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_and_reports() {
        let mut c = Criterion::new();
        let mut g = c.benchmark_group("smoke");
        g.sample_size(3)
            .warm_up_time(Duration::from_millis(5))
            .measurement_time(Duration::from_millis(15));
        let mut runs = 0u64;
        g.bench_function("noop", |b| b.iter(|| runs += 1));
        g.finish();
        assert!(runs > 3, "routine must run during warm-up and samples");
    }

    #[test]
    fn format_ns_scales() {
        assert_eq!(format_ns(Duration::from_nanos(500)), "500 ns");
        assert!(format_ns(Duration::from_micros(500)).ends_with("µs"));
        assert!(format_ns(Duration::from_millis(500)).ends_with("ms"));
        assert!(format_ns(Duration::from_secs(500)).ends_with('s'));
    }
}
