//! Figure 11: sensitivity to secure metadata cache size.
//!
//! The paper grows the counter/MAC caches from 64 kB/128 kB through
//! 512 kB/1 MB to 1 MB/2 MB and finds Thoth's speedup *increases* with
//! cache size: Thoth persists metadata through natural eviction, so fewer
//! evictions mean fewer write-backs, while the baseline still persists
//! strictly on every write.

use crate::gmean;
use crate::runner::{ExpSettings, TraceCache};
use crate::tablefmt::Table;

use thoth_sim::{run_trace, Mode, SimConfig};
use thoth_workloads::WorkloadKind;

/// The paper's (counter cache, MAC cache) size points, in bytes.
pub const CACHE_POINTS: [(usize, usize); 3] = [
    (64 << 10, 128 << 10),
    (512 << 10, 1 << 20),
    (1 << 20, 2 << 20),
];

/// Runs the sweep and renders one table per block size.
#[must_use]
pub fn run(settings: ExpSettings) -> Vec<Table> {
    let mut cache = TraceCache::new(settings);
    let mut tables = Vec::new();
    for block in [128usize, 256] {
        let header: Vec<String> = std::iter::once("workload".to_owned())
            .chain(
                CACHE_POINTS
                    .iter()
                    .map(|(c, m)| format!("{}k/{}k", c >> 10, m >> 10)),
            )
            .collect();
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        let mut table = Table::new(
            &format!("Figure 11: Thoth speedup vs counter/MAC cache size ({block} B blocks)"),
            &header_refs,
        );
        let mut cols: Vec<Vec<f64>> = vec![Vec::new(); CACHE_POINTS.len()];
        for kind in WorkloadKind::ALL {
            let trace = cache.get(kind, 128);
            let mut vals = Vec::new();
            for (i, &(ctr_bytes, mac_bytes)) in CACHE_POINTS.iter().enumerate() {
                let mut base_cfg = SimConfig::paper_default(Mode::baseline(), block);
                base_cfg.ctr_cache_bytes = ctr_bytes;
                base_cfg.mac_cache_bytes = mac_bytes;
                let mut thoth_cfg = SimConfig::paper_default(Mode::thoth_wtsc(), block);
                thoth_cfg.ctr_cache_bytes = ctr_bytes;
                thoth_cfg.mac_cache_bytes = mac_bytes;
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
    fn cache_points_match_paper() {
        assert_eq!(CACHE_POINTS[0], (64 << 10, 128 << 10));
        assert_eq!(CACHE_POINTS[2], (1 << 20, 2 << 20));
    }
}
