//! `perf` — the perf-trajectory harness: wall-clock and throughput of the
//! quick headline configuration, per mode, plus the matrix digest that
//! proves the run simulated *exactly* the same behaviour as before any
//! hot-path optimization (see `tests/determinism.rs`).
//!
//! Output goes to stdout as a table and to `results/BENCH_perf.json` as a
//! small hand-rolled JSON document, so successive commits can be compared
//! with `git diff` on the results file or any JSON tool.
//!
//! Two extensions support the raw-speed roadmap:
//!
//! * `--trajectory S1,S2,...` re-measures the matrix at additional scales
//!   (the paper-scale ≥ 0.5 point is the target) and records every point
//!   in a `"trajectory"` array, each with its own pinned digest.
//! * `--expect-digest HEX` turns the harness into a CI gate: it runs the
//!   matrix, compares the digest against the pin, writes **nothing**, and
//!   reports failure on mismatch — so an optimization that changes
//!   simulated behaviour cannot land silently.

use crate::headline::{matrix_digest, matrix_jobs};
use crate::runner::{run_jobs_sequential, ExpSettings, TraceCache};
use crate::tablefmt::Table;
use crate::Outcome;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One mode's aggregate performance over the headline matrix.
#[derive(Debug, Clone)]
pub struct ModePerf {
    /// Mode label (`baseline`, `thoth-wtsc`, ...).
    pub mode: String,
    /// Wall-clock spent simulating this mode's jobs (trace generation
    /// excluded — traces are built once, before timing starts).
    pub wall_seconds: f64,
    /// NVM persists performed across the mode's jobs (all write
    /// categories — the unit of simulated work the paper cares about).
    pub persist_ops: u64,
    /// Simulated cycles across the mode's jobs.
    pub sim_cycles: u64,
    /// Committed transactions across the mode's jobs.
    pub transactions: u64,
}

impl ModePerf {
    /// Simulated persists retired per wall-clock second.
    #[must_use]
    pub fn persists_per_sec(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            return 0.0;
        }
        self.persist_ops as f64 / self.wall_seconds
    }
}

/// The whole harness result.
#[derive(Debug, Clone)]
pub struct PerfSummary {
    /// Settings the matrix ran under.
    pub settings: ExpSettings,
    /// Per-mode aggregates, in headline mode order.
    pub modes: Vec<ModePerf>,
    /// Wall-clock for the full matrix (sum of mode timings).
    pub total_wall_seconds: f64,
    /// [`matrix_digest`] of all reports — must stay pinned to the golden
    /// value while optimizing (the determinism tests enforce it at quick
    /// scale).
    pub matrix_digest: u64,
}

/// Runs the headline matrix sequentially, timing each mode's jobs
/// separately. Sequential on purpose: per-mode wall-clock is the figure
/// of merit here, and parallel scheduling would blur it.
#[must_use]
pub fn measure(settings: ExpSettings) -> PerfSummary {
    let mut cache = TraceCache::new(settings);
    // Generate (and cache) all traces before any timing starts.
    let jobs = matrix_jobs(&mut cache);

    // Group jobs by mode label, preserving headline order of first
    // appearance.
    let mut order: Vec<String> = Vec::new();
    let mut by_mode: BTreeMap<String, Vec<_>> = BTreeMap::new();
    for job in jobs {
        let mode = job.key.2.clone();
        if !by_mode.contains_key(&mode) {
            order.push(mode.clone());
        }
        by_mode.entry(mode).or_default().push(job);
    }

    let mut modes = Vec::new();
    let mut all_runs = BTreeMap::new();
    for mode in order {
        let jobs = by_mode.remove(&mode).expect("grouped above");
        let started = Instant::now();
        let results = run_jobs_sequential(jobs);
        let wall_seconds = started.elapsed().as_secs_f64();
        let mut perf = ModePerf {
            mode,
            wall_seconds,
            persist_ops: 0,
            sim_cycles: 0,
            transactions: 0,
        };
        for (key, report) in results {
            perf.persist_ops += report.writes_total();
            perf.sim_cycles += report.total_cycles;
            perf.transactions += report.transactions;
            all_runs.insert(key, report);
        }
        modes.push(perf);
    }

    let total_wall_seconds = modes.iter().map(|m| m.wall_seconds).sum();
    PerfSummary {
        settings,
        modes,
        total_wall_seconds,
        matrix_digest: matrix_digest(&all_runs),
    }
}

/// Renders the stdout table.
#[must_use]
pub fn table(summary: &PerfSummary) -> Table {
    let mut t = Table::new(
        &format!(
            "Perf trajectory: headline matrix at scale {} (digest {:#018x})",
            summary.settings.scale, summary.matrix_digest
        ),
        &["mode", "wall [s]", "persists", "persists/s", "sim cycles"],
    );
    for m in &summary.modes {
        t.row(vec![
            m.mode.clone(),
            format!("{:.3}", m.wall_seconds),
            m.persist_ops.to_string(),
            format!("{:.0}", m.persists_per_sec()),
            m.sim_cycles.to_string(),
        ]);
    }
    t.row(vec![
        "total".to_owned(),
        format!("{:.3}", summary.total_wall_seconds),
        summary.modes.iter().map(|m| m.persist_ops).sum::<u64>().to_string(),
        String::new(),
        String::new(),
    ]);
    t
}

/// Serializes the measured points as JSON (hand-rolled — the workspace
/// has no serializer dependency by design; see DESIGN.md §5). The first
/// point is the primary run and keeps the historical top-level layout;
/// every point (primary included) also appears in the `"trajectory"`
/// array so multi-scale runs diff cleanly.
///
/// # Panics
///
/// Panics when `points` is empty — the harness always measures at least
/// the primary scale.
#[must_use]
pub fn to_json(points: &[PerfSummary]) -> String {
    let primary = points.first().expect("at least the primary point");
    let mut s = String::from("{\n");
    let _ = writeln!(
        s,
        "  \"settings\": {{ \"scale\": {}, \"seed\": {} }},",
        primary.settings.scale, primary.settings.seed
    );
    let _ = writeln!(
        s,
        "  \"matrix_digest\": \"{:#018x}\",",
        primary.matrix_digest
    );
    let _ = writeln!(
        s,
        "  \"total_wall_seconds\": {:.6},",
        primary.total_wall_seconds
    );
    s.push_str("  \"modes\": [\n");
    for (i, m) in primary.modes.iter().enumerate() {
        let _ = write!(
            s,
            "    {{ \"mode\": \"{}\", \"wall_seconds\": {:.6}, \"persist_ops\": {}, \
             \"persists_per_sec\": {:.1}, \"sim_cycles\": {}, \"transactions\": {} }}",
            m.mode,
            m.wall_seconds,
            m.persist_ops,
            m.persists_per_sec(),
            m.sim_cycles,
            m.transactions
        );
        s.push_str(if i + 1 < primary.modes.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n  \"trajectory\": [\n");
    for (i, p) in points.iter().enumerate() {
        let persists: u64 = p.modes.iter().map(|m| m.persist_ops).sum();
        let _ = write!(
            s,
            "    {{ \"scale\": {}, \"matrix_digest\": \"{:#018x}\", \
             \"total_wall_seconds\": {:.6}, \"persist_ops\": {} }}",
            p.settings.scale, p.matrix_digest, p.total_wall_seconds, persists
        );
        s.push_str(if i + 1 < points.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

/// Runs the harness, prints the per-scale tables, and either writes
/// `results/BENCH_perf.json` (normal mode) or checks the matrix digest
/// against a pin without touching the results file (gate mode).
///
/// `trajectory` lists additional scales to measure beyond
/// `settings.scale`; the primary scale is always the first recorded
/// point, and the result has one table per measured scale.
/// `expect_digest` switches to gate mode: only the primary scale runs,
/// nothing is written, and `ok` is the comparison verdict (otherwise
/// always `true`).
#[must_use]
pub fn run(settings: ExpSettings, trajectory: &[f64], expect_digest: Option<u64>) -> Outcome {
    let summary = measure(settings);
    let mut tables = vec![table(&summary)];

    if let Some(expected) = expect_digest {
        let ok = summary.matrix_digest == expected;
        if ok {
            eprintln!(
                "[thoth-experiments] perf digest {expected:#018x} matches the pin \
                 (gate mode: nothing written)"
            );
        } else {
            eprintln!(
                "[thoth-experiments] perf digest MISMATCH: measured {:#018x}, pinned {:#018x}",
                summary.matrix_digest, expected
            );
        }
        return Outcome { tables, ok };
    }

    let mut points = vec![summary];
    for &scale in trajectory {
        if (scale - settings.scale).abs() < f64::EPSILON {
            continue;
        }
        let mut s = settings;
        s.scale = scale;
        let point = measure(s);
        tables.push(table(&point));
        points.push(point);
    }

    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/BENCH_perf.json", to_json(&points))
        .expect("write results/BENCH_perf.json");
    eprintln!("[thoth-experiments] wrote results/BENCH_perf.json");
    Outcome { tables, ok: true }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary_at(scale: f64, digest: u64) -> PerfSummary {
        let mut settings = ExpSettings::quick();
        settings.scale = scale;
        PerfSummary {
            settings,
            modes: vec![ModePerf {
                mode: "baseline".into(),
                wall_seconds: 0.5,
                persist_ops: 100,
                sim_cycles: 4000,
                transactions: 10,
            }],
            total_wall_seconds: 0.5,
            matrix_digest: digest,
        }
    }

    #[test]
    fn json_is_well_formed_enough() {
        let j = to_json(&[summary_at(0.02, 0xdead_beef)]);
        assert!(j.contains("\"matrix_digest\": \"0x00000000deadbeef\""));
        assert!(j.contains("\"persists_per_sec\": 200.0"));
        assert!(j.contains("\"trajectory\""));
        thoth_telemetry::json::validate(&j).expect("valid JSON");
    }

    #[test]
    fn trajectory_records_every_point_with_its_own_digest() {
        let j = to_json(&[summary_at(0.02, 0xaaaa), summary_at(0.5, 0xbbbb)]);
        // Top-level layout reflects the primary point only.
        assert!(j.contains("\"matrix_digest\": \"0x000000000000aaaa\","));
        // The trajectory carries both, each with scale + digest + persists.
        assert!(j.contains("\"scale\": 0.02, \"matrix_digest\": \"0x000000000000aaaa\""));
        assert!(j.contains("\"scale\": 0.5, \"matrix_digest\": \"0x000000000000bbbb\""));
        assert!(j.contains("\"persist_ops\": 100"));
        thoth_telemetry::json::validate(&j).expect("valid JSON");
    }

    #[test]
    fn persists_per_sec_handles_zero_time() {
        let m = ModePerf {
            mode: "x".into(),
            wall_seconds: 0.0,
            persist_ops: 5,
            sim_cycles: 0,
            transactions: 0,
        };
        assert_eq!(m.persists_per_sec(), 0.0);
    }
}
