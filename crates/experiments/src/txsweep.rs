//! Figure 10 + Tables II & III: sensitivity to transaction size.
//!
//! The paper sweeps transaction sizes of 128/512/1024/2048 B for both
//! 128 B and 256 B cache blocks, reporting:
//!
//! * Figure 10 — Thoth's speedup (the baseline improves with larger
//!   transactions because its WPQ coalesces more metadata, so the gap
//!   narrows),
//! * Table II — percentage of NVM writes that are ciphertext,
//! * Table III — percentage of partial updates merged in the PCB (falls
//!   with transaction size: consecutive updates to the same counter/MAC
//!   are further apart than the PCB window).

use crate::runner::{run_jobs, ExpSettings, Job, TraceCache};
use crate::tablefmt::Table;
use crate::{amean, gmean};

use thoth_sim::{Mode, SimConfig, SimReport};
use thoth_workloads::WorkloadKind;

use std::collections::BTreeMap;

/// The paper's transaction sizes.
pub const TX_SIZES: [usize; 4] = [128, 512, 1024, 2048];

/// Runs keyed by `(workload, block, tx_size, mode label)`.
pub type TxSweepRuns = BTreeMap<(String, usize, usize, String), SimReport>;

/// Runs the sweep matrix: 5 workloads × 2 blocks × 4 tx sizes × 2 modes,
/// parallelized across available cores.
#[must_use]
pub fn run_matrix(cache: &mut TraceCache, tx_sizes: &[usize]) -> TxSweepRuns {
    let mut jobs = Vec::new();
    for kind in WorkloadKind::ALL {
        for &tx in tx_sizes {
            let trace = cache.get(kind, tx);
            for block in [128usize, 256] {
                for mode in [Mode::baseline(), Mode::thoth_wtsc()] {
                    jobs.push(Job {
                        key: (kind.name().to_owned(), block, tx, mode.label().to_owned()),
                        config: SimConfig::paper_default(mode, block),
                        trace: trace.clone(),
                    });
                }
            }
        }
    }
    run_jobs(jobs).into_iter().collect()
}

/// Figure 10: speedup per workload and transaction size.
#[must_use]
pub fn figure10(runs: &TxSweepRuns, block: usize, tx_sizes: &[usize]) -> Table {
    let header: Vec<String> = std::iter::once("workload".to_owned())
        .chain(tx_sizes.iter().map(|t| format!("tx={t}B")))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new(
        &format!("Figure 10: Thoth speedup vs transaction size ({block} B blocks)"),
        &header_refs,
    );
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); tx_sizes.len()];
    for kind in WorkloadKind::ALL {
        let w = kind.name();
        let mut vals = Vec::new();
        for (i, &tx) in tx_sizes.iter().enumerate() {
            let base = &runs[&(w.to_owned(), block, tx, "baseline".to_owned())];
            let thoth = &runs[&(w.to_owned(), block, tx, "thoth-wtsc".to_owned())];
            let s = thoth.speedup_over(base);
            cols[i].push(s);
            vals.push(s);
        }
        table.row_f(w, &vals);
    }
    let gmeans: Vec<f64> = cols.iter().map(|c| gmean(c)).collect();
    table.row_f("gmean", &gmeans);
    table
}

/// Table II: average percentage of writes that are ciphertext.
#[must_use]
pub fn table2(runs: &TxSweepRuns, tx_sizes: &[usize]) -> Table {
    let header: Vec<String> = std::iter::once("config".to_owned())
        .chain(tx_sizes.iter().map(|t| format!("tx={t}B")))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new(
        "Table II: average % of NVM writes that are ciphertext",
        &header_refs,
    );
    for (mode, label) in [("baseline", "Baseline"), ("thoth-wtsc", "Thoth")] {
        for block in [128usize, 256] {
            let mut vals = Vec::new();
            for &tx in tx_sizes {
                // Runs with no measured NVM writes (tiny working sets that
                // never overflow the WPQ) carry no ciphertext fraction.
                let fractions: Vec<f64> = WorkloadKind::ALL
                    .iter()
                    .filter_map(|k| {
                        let r = &runs[&(k.name().to_owned(), block, tx, mode.to_owned())];
                        (r.writes_total() > 0).then(|| r.ciphertext_write_fraction() * 100.0)
                    })
                    .collect();
                vals.push(amean(&fractions));
            }
            let mut cells = vec![format!("{label} (block={block}B)")];
            cells.extend(vals.iter().map(|v| format!("{v:.2}%")));
            table.row(cells);
        }
    }
    table
}

/// Table III: average percentage of partial updates merged in the PCB.
#[must_use]
pub fn table3(runs: &TxSweepRuns, tx_sizes: &[usize]) -> Table {
    let header: Vec<String> = std::iter::once("config".to_owned())
        .chain(tx_sizes.iter().map(|t| format!("tx={t}B")))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new(
        "Table III: average % of partial updates merged in the PCB",
        &header_refs,
    );
    for block in [128usize, 256] {
        let mut vals = Vec::new();
        for &tx in tx_sizes {
            let fractions: Vec<f64> = WorkloadKind::ALL
                .iter()
                .map(|k| {
                    runs[&(k.name().to_owned(), block, tx, "thoth-wtsc".to_owned())]
                        .pcb_merge_fraction()
                        * 100.0
                })
                .collect();
            vals.push(amean(&fractions));
        }
        let mut cells = vec![format!("Cache block = {block}B")];
        cells.extend(vals.iter().map(|v| format!("{v:.2}%")));
        table.row(cells);
    }
    table
}

/// Runs the full sweep and renders Figure 10 (both blocks), Table II and
/// Table III.
#[must_use]
pub fn run(settings: ExpSettings, tx_sizes: &[usize]) -> Vec<Table> {
    let mut cache = TraceCache::new(settings);
    let runs = run_matrix(&mut cache, tx_sizes);
    vec![
        figure10(&runs, 128, tx_sizes),
        figure10(&runs, 256, tx_sizes),
        table2(&runs, tx_sizes),
        table3(&runs, tx_sizes),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_produces_tables() {
        let tables = run(ExpSettings::quick(), &[128, 512]);
        assert_eq!(tables.len(), 4);
        assert!(tables[0].render().contains("tx=512B"));
        assert_eq!(tables[2].len(), 4, "Table II: 2 modes x 2 blocks");
        assert_eq!(tables[3].len(), 2, "Table III: 2 blocks");
    }
}
