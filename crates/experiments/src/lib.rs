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
    use crate::service::{run_modes, PointResult};
    use thoth_workloads::generate_service;
    use thoth_workloads::service::ServiceSpec;

    /// A service spec that keeps debug test time low: 2 cores, 6 tenants,
    /// 150 measured requests per core, at the default (loaded) gap.
    fn service_spec() -> ServiceSpec {
        let mut spec = ServiceSpec::default_spec();
        spec.cores = 2;
        spec.tenants = 6;
        spec.requests_per_core = 150;
        spec.warmup_requests_per_core = 30;
        spec.keys_per_tenant = 512;
        spec.prepopulate_per_tenant = 128;
        spec
    }

    /// The service experiment's rows, one per mechanism, at mean
    /// inter-arrival gap `gap` on [`service_spec`].
    fn service_rows(gap: f64) -> Vec<PointResult> {
        let mut spec = service_spec();
        spec.mean_interarrival_cycles = gap;
        run_modes(&spec, &generate_service(&spec))
    }

    #[test]
    fn deterministic_across_runs() {
        let gap = service_spec().mean_interarrival_cycles;
        assert_eq!(
            service_rows(gap),
            service_rows(gap),
            "a rerun must reproduce every row"
        );
    }

    #[test]
    fn quantiles_are_monotone_and_populated() {
        for gap in [20_000.0, service_spec().mean_interarrival_cycles] {
            let points = service_rows(gap);
            assert_eq!(points.len(), 3);
            for p in &points {
                let (mode, p50, p99, p999) = (p.mode, p.p50, p.p99, p.p999);
                assert!(p.measured > 0, "{mode}: no measured requests");
                assert!(p50 <= p99, "{mode}: p50 {p50} > p99 {p99}");
                assert!(p99 <= p999, "{mode}: p99 {p99} > p999 {p999}");
                assert!(p999.is_finite());
                assert!(p999 <= p.max as f64 + 1.0);
            }
        }
    }

    #[test]
    fn mode_rows_share_the_request_stream() {
        let points = service_rows(service_spec().mean_interarrival_cycles);
        let stream = (points[0].completed, points[0].measured);
        for p in &points {
            assert_eq!(
                (p.completed, p.measured),
                stream,
                "{}: another stream",
                p.mode
            );
        }
    }

    #[test]
    fn open_loop_queueing_shows_a_knee() {
        // The defining open-loop property: past saturation, latency is
        // dominated by queueing delay and explodes, while a light load
        // stays near raw service latency, although each request does
        // identical work.
        let (light, heavy) = (service_rows(60_000.0), service_rows(500.0));
        for (l, h) in light.iter().zip(&heavy) {
            assert!(
                h.p99 > 5.0 * l.p99,
                "{}: overload p99 {} should dwarf light-load p99 {}",
                l.mode,
                h.p99,
                l.p99
            );
            // Under light load the p50 request is served without
            // queueing: its latency is below the heavy-load p50, which
            // measures raw service + queueing.
            assert!(l.p50 < h.p50, "{}: p50 {} vs {}", l.mode, l.p50, h.p50);
        }
    }

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
