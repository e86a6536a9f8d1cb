//! Experiment harness: one module per table/figure of the paper.
//!
//! Every artifact of the Thoth evaluation (Section V) has a regenerating
//! experiment here (see DESIGN.md's experiment index):
//!
//! | Paper artifact | Module | What it reports |
//! |---|---|---|
//! | Figure 3 | [`fig3`] | PUB-eviction outcome breakdown vs FIFO size |
//! | Figure 8 | [`headline`] | speedup, WTSC/WTBC, 128/256 B blocks |
//! | Figure 9 | [`headline`] | NVM writes normalized + category breakdown |
//! | §V-F | [`headline`] | Thoth overhead vs ideal co-located-ECC Anubis |
//! | Figure 10 | [`txsweep`] | speedup vs transaction size |
//! | Table II | [`txsweep`] | % of writes that are ciphertext |
//! | Table III | [`txsweep`] | % of partial updates merged in the PCB |
//! | Figure 11 | [`cachesweep`] via [`sensitivity`] | speedup vs metadata cache size |
//! | Figure 12 | [`wpqsweep`] via [`sensitivity`] | speedup vs WPQ size |
//! | §IV-D | [`recovery`] | crash-recovery correctness + time model |
//! | §IV-D | [`crashtest`] | crash-injection sweep + recovery audit |
//! | (extensions) | [`ablation`] | PUB/PCB knobs, PCB arrangement, eADR |
//! | (extensions) | [`lifetime`] | write totals + wear concentration per mode |
//! | (extensions) | [`telemetry`] | instrumented runs: timelines, traces, neutrality |
//! | (extensions) | [`service`] | open-loop saturation: tail latency vs offered load |
//! | (extensions) | [`fuzz`] | persist-trace fuzzer: three-observer cross-check |
//!
//! Each experiment prints a text table (and returns structured rows) so
//! the binary's output can be diffed against `EXPERIMENTS.md`.

#![warn(missing_docs)]
#![allow(clippy::print_stdout, clippy::print_stderr, reason = "prints tables")]
#![allow(clippy::disallowed_types, reason = "harness code, off the replay path")]

pub mod ablation;
pub mod cachesweep;
pub mod crashtest;
pub mod fig3;
pub mod fuzz;
pub mod headline;
pub mod lifetime;
pub mod perf;
pub mod psan;
pub mod recovery;
pub mod runner;
pub mod sensitivity;
pub mod service;
pub mod tablefmt;
pub mod telemetry;
pub mod txsweep;
pub mod wpqsweep;

/// What a gated experiment (perf, crashtest, psan, fuzz, telemetry,
/// service) returns: its tables plus an overall verdict, on which the
/// binary exits non-zero when `false`.
#[derive(Debug)]
pub struct Outcome {
    /// Rendered result tables.
    pub tables: Vec<tablefmt::Table>,
    /// The experiment's gate passed.
    pub ok: bool,
}

/// Geometric mean of a slice (1.0 for empty input).
#[must_use]
pub fn gmean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Arithmetic mean of a slice (0.0 for empty input).
#[must_use]
pub fn amean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gmean_basics() {
        assert_eq!(gmean(&[]), 1.0);
        assert!((gmean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((gmean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn amean_basics() {
        assert_eq!(amean(&[]), 0.0);
        assert!((amean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
    }
}
