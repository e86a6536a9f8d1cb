//! Figure 12: sensitivity to WPQ size.
//!
//! The paper shrinks the WPQ from 64 to 32 and 16 entries (always
//! reserving 1/8 of the entries for the PCB in Thoth mode) and finds
//! Thoth's advantage *grows* as the WPQ shrinks: the baseline leans on
//! WPQ coalescing to absorb its strict metadata persists, so a smaller
//! queue hurts it much more than Thoth.

use crate::gmean;
use crate::runner::{ExpSettings, TraceCache};
use crate::tablefmt::Table;

use thoth_sim::{run_trace, Mode, SimConfig};
use thoth_workloads::WorkloadKind;

/// The paper's WPQ sizes.
pub const WPQ_SIZES: [usize; 3] = [64, 32, 16];

/// Runs the sweep and renders one table per block size.
#[must_use]
pub fn run(settings: ExpSettings) -> Vec<Table> {
    let mut cache = TraceCache::new(settings);
    let mut tables = Vec::new();
    for block in [128usize, 256] {
        let header: Vec<String> = std::iter::once("workload".to_owned())
            .chain(WPQ_SIZES.iter().map(|w| format!("wpq={w}")))
            .collect();
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        let mut table = Table::new(
            &format!("Figure 12: Thoth speedup vs WPQ size ({block} B blocks)"),
            &header_refs,
        );
        let mut cols: Vec<Vec<f64>> = vec![Vec::new(); WPQ_SIZES.len()];
        for kind in WorkloadKind::ALL {
            let trace = cache.get(kind, 128);
            let mut vals = Vec::new();
            for (i, &wpq) in WPQ_SIZES.iter().enumerate() {
                let mut base_cfg = SimConfig::paper_default(Mode::baseline(), block);
                base_cfg.wpq_entries = wpq;
                base_cfg.pcb_entries = (wpq / 8).max(1);
                let mut thoth_cfg = SimConfig::paper_default(Mode::thoth_wtsc(), block);
                thoth_cfg.wpq_entries = wpq;
                thoth_cfg.pcb_entries = (wpq / 8).max(1);
                let base = run_trace(&base_cfg, &trace);
                let thoth = run_trace(&thoth_cfg, &trace);
                let s = thoth.speedup_over(&base);
                cols[i].push(s);
                vals.push(s);
            }
            table.row_f(kind.name(), &vals);
        }
        let gmeans: Vec<f64> = cols.iter().map(|c| gmean(c)).collect();
        table.row_f("gmean", &gmeans);
        tables.push(table);
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_paper() {
        assert_eq!(WPQ_SIZES, [64, 32, 16]);
    }
}
