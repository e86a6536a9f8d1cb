//! Figures 8 & 9 and the Section V-F comparison — the paper's headline
//! results at 128 B transactions.
//!
//! One set of simulation runs covers all three artifacts:
//!
//! * **Figure 8** — speedup of Thoth (WTSC and WTBC) over the baseline for
//!   128 B and 256 B cache blocks,
//! * **Figure 9** — NVM writes normalized to the baseline, plus the write
//!   category breakdown quoted in Section V-B,
//! * **§V-F** — Thoth's overhead relative to the hypothetical ideal where
//!   ECC bits still exist (Anubis with co-located metadata).

use crate::runner::{run_jobs, ExpSettings, Job, TraceCache};
use crate::tablefmt::Table;
use crate::{amean, gmean};

use thoth_sim::{Mode, SimConfig};
use thoth_workloads::WorkloadKind;

pub use thoth_sim::matrix_digest;

/// All reports of the headline experiment, keyed by
/// `(workload, block_bytes, mode label)`.
pub type HeadlineRuns = thoth_sim::MatrixRuns;

/// Builds the headline job matrix: 5 workloads × {128, 256} B × 4 modes.
/// Public so the determinism test can replay the exact same jobs through
/// the sequential runner.
#[must_use]
pub fn matrix_jobs(cache: &mut TraceCache) -> Vec<Job<(String, usize, String)>> {
    let mut jobs = Vec::new();
    for kind in WorkloadKind::ALL {
        let trace = cache.get(kind, 128);
        for block in [128usize, 256] {
            for mode in [
                Mode::baseline(),
                Mode::thoth_wtsc(),
                Mode::thoth_wtbc(),
                Mode::AnubisEcc,
            ] {
                jobs.push(Job {
                    key: (kind.name().to_owned(), block, mode.label().to_owned()),
                    config: SimConfig::paper_default(mode, block),
                    trace: trace.clone(),
                });
            }
        }
    }
    jobs
}

/// Runs the headline matrix, parallelized across available cores.
#[must_use]
pub fn run_matrix(cache: &mut TraceCache) -> HeadlineRuns {
    run_jobs(matrix_jobs(cache)).into_iter().collect()
}

/// Figure 8: speedups over the per-block-size baseline.
#[must_use]
pub fn figure8(runs: &HeadlineRuns) -> Table {
    let mut table = Table::new(
        "Figure 8: Speedup of Thoth over baseline (tx = 128 B)",
        &["workload", "128B-WTSC", "128B-WTBC", "256B-WTSC", "256B-WTBC"],
    );
    let mut cols: [Vec<f64>; 4] = Default::default();
    for kind in WorkloadKind::ALL {
        let w = kind.name();
        let mut vals = Vec::new();
        for (i, (block, policy)) in [(128, "thoth-wtsc"), (128, "thoth-wtbc"), (256, "thoth-wtsc"), (256, "thoth-wtbc")]
            .into_iter()
            .enumerate()
        {
            let base = &runs[&(w.to_owned(), block, "baseline".to_owned())];
            let thoth = &runs[&(w.to_owned(), block, policy.to_owned())];
            let s = thoth.speedup_over(base);
            cols[i].push(s);
            vals.push(s);
        }
        table.row_f(w, &vals);
    }
    table.row_f(
        "gmean",
        &[
            gmean(&cols[0]),
            gmean(&cols[1]),
            gmean(&cols[2]),
            gmean(&cols[3]),
        ],
    );
    table
}

/// Figure 9: NVM writes normalized to the baseline.
#[must_use]
pub fn figure9(runs: &HeadlineRuns) -> Table {
    let mut table = Table::new(
        "Figure 9: NVM writes, normalized to baseline (tx = 128 B)",
        &["workload", "128B-WTSC", "128B-WTBC", "256B-WTSC", "256B-WTBC"],
    );
    let mut cols: [Vec<f64>; 4] = Default::default();
    for kind in WorkloadKind::ALL {
        let w = kind.name();
        let mut vals = Vec::new();
        for (i, (block, policy)) in [(128, "thoth-wtsc"), (128, "thoth-wtbc"), (256, "thoth-wtsc"), (256, "thoth-wtbc")]
            .into_iter()
            .enumerate()
        {
            let base = &runs[&(w.to_owned(), block, "baseline".to_owned())];
            let thoth = &runs[&(w.to_owned(), block, policy.to_owned())];
            let r = thoth.write_ratio_vs(base);
            cols[i].push(r);
            vals.push(r);
        }
        table.row_f(w, &vals);
    }
    table.row_f(
        "mean",
        &[
            amean(&cols[0]),
            amean(&cols[1]),
            amean(&cols[2]),
            amean(&cols[3]),
        ],
    );
    table
}

/// Section V-B's write-category breakdown (percent of total writes).
#[must_use]
pub fn category_breakdown(runs: &HeadlineRuns, block: usize) -> Table {
    let mut table = Table::new(
        &format!("Section V-B: write category breakdown, {block} B blocks (% of total writes)"),
        &["workload", "mode", "data", "counter", "mac", "pub", "tree", "shadow"],
    );
    for kind in WorkloadKind::ALL {
        for mode in ["baseline", "thoth-wtsc"] {
            let r = &runs[&(kind.name().to_owned(), block, mode.to_owned())];
            let total = r.writes_total().max(1) as f64;
            let pct = |tag: &str| {
                format!(
                    "{:.1}",
                    100.0 * r.writes.get(tag).copied().unwrap_or(0) as f64 / total
                )
            };
            table.row(vec![
                kind.name().to_owned(),
                mode.to_owned(),
                pct("data"),
                pct("counter"),
                pct("mac"),
                pct("pub"),
                pct("tree"),
                pct("shadow"),
            ]);
        }
    }
    table
}

/// Section V-F: Thoth's slowdown relative to ideal co-located-ECC Anubis.
#[must_use]
pub fn anubis_compare(runs: &HeadlineRuns) -> Table {
    let mut table = Table::new(
        "Section V-F: Thoth overhead vs ideal co-located-ECC Anubis (128 B blocks)",
        &["workload", "thoth/anubis cycles", "overhead %"],
    );
    let mut overheads = Vec::new();
    for kind in WorkloadKind::ALL {
        let w = kind.name();
        let thoth = &runs[&(w.to_owned(), 128, "thoth-wtsc".to_owned())];
        let ideal = &runs[&(w.to_owned(), 128, "anubis-ecc".to_owned())];
        let ratio = thoth.total_cycles as f64 / ideal.total_cycles.max(1) as f64;
        overheads.push(ratio - 1.0);
        table.row(vec![
            w.to_owned(),
            format!("{ratio:.3}"),
            format!("{:.1}", 100.0 * (ratio - 1.0)),
        ]);
    }
    table.row(vec![
        "mean".to_owned(),
        String::new(),
        format!("{:.1}", 100.0 * amean(&overheads)),
    ]);
    table
}

/// Runs everything and renders all four tables.
#[must_use]
pub fn run(settings: ExpSettings) -> Vec<Table> {
    let mut cache = TraceCache::new(settings);
    let runs = run_matrix(&mut cache);
    vec![
        figure8(&runs),
        figure9(&runs),
        category_breakdown(&runs, 128),
        category_breakdown(&runs, 256),
        anubis_compare(&runs),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_headline_produces_all_tables() {
        let tables = run(ExpSettings::quick());
        assert_eq!(tables.len(), 5);
        // Figure 8 has one row per workload plus the gmean.
        assert_eq!(tables[0].len(), WorkloadKind::ALL.len() + 1);
        let fig9 = tables[1].render();
        assert!(fig9.contains("swap"));
    }
}
