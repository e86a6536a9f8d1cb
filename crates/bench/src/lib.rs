//! A minimal, self-contained benchmark harness.
//!
//! The workspace takes no external crates (DESIGN.md §5), so the bench
//! targets in `benches/` time their kernels with this module: [`group`]
//! prints a group header and fixes its sampling settings, and
//! [`Group::bench`] times one routine.
//!
//! Methodology: each benchmark warms up for the group's `warm_up`, then
//! runs `samples` samples within a combined `measurement`, and reports
//! the per-sample mean, minimum and throughput. Results go to stdout as
//! aligned text; no files are written.

#![allow(clippy::print_stdout, clippy::print_stderr, reason = "prints reports")]

use std::hint::black_box as bb;
use std::time::{Duration, Instant};

/// Starts the benchmark group `name`: prints its header and returns it
/// with its sampling settings — `samples` timed samples (at least one)
/// after an untimed `warm_up`, within a `measurement` budget in all.
#[must_use]
pub fn group(name: &str, samples: usize, warm_up: Duration, measurement: Duration) -> Group {
    println!("\n== {name} ==");
    Group {
        samples: samples.max(1),
        warm_up,
        measurement,
    }
}

/// A group of benchmarks sharing sampling settings.
pub struct Group {
    samples: usize,
    warm_up: Duration,
    measurement: Duration,
}

impl Group {
    /// Runs one benchmark: `f` receives a [`Bencher`] and calls
    /// [`Bencher::iter`] with the code under test.
    pub fn bench(&self, id: impl AsRef<str>, mut f: impl FnMut(&mut Bencher)) {
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
        let per_sample = self.measurement / self.samples as u32;
        let iters_per_sample =
            (per_sample.as_nanos() / per_iter.as_nanos().max(1)).clamp(1, u128::from(u32::MAX)) as u64;

        let mut samples: Vec<Duration> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
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
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_and_reports() {
        let g = group(
            "smoke",
            3,
            Duration::from_millis(5),
            Duration::from_millis(15),
        );
        let mut runs = 0u64;
        g.bench("noop", |b| b.iter(|| runs += 1));
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
