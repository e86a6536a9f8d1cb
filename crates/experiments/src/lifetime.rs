//! NVM-lifetime analysis: the paper's endurance claim is the 32–40%
//! write-traffic reduction ("Thoth improves the NVM lifetime by reducing
//! the number of writes to 32% the Anubis baseline" — abstract). With
//! wear-leveling assumed, lifetime scales inversely with total writes;
//! this experiment additionally reports wear *concentration* (hottest
//! block, mean writes per touched block) per mode.

use crate::runner::{ExpSettings, TraceCache};
use crate::tablefmt::Table;

use thoth_sim::{run_trace, Mode, SimConfig};
use thoth_workloads::WorkloadKind;

/// Runs the lifetime comparison and renders the table.
#[must_use]
pub fn run(settings: ExpSettings) -> Vec<Table> {
    let mut cache = TraceCache::new(settings);
    let mut table = Table::new(
        "NVM lifetime: write totals and wear concentration (128 B blocks)",
        &[
            "workload",
            "base writes",
            "thoth writes",
            "lifetime gain",
            "base hottest",
            "thoth hottest",
            "thoth mean/blk",
        ],
    );
    for kind in WorkloadKind::ALL {
        let trace = cache.get(kind, 128);
        let base = run_trace(&SimConfig::paper_default(Mode::baseline(), 128), &trace);
        let thoth = run_trace(&SimConfig::paper_default(Mode::thoth_wtsc(), 128), &trace);
        let gain = if thoth.writes_total() == 0 {
            f64::INFINITY
        } else {
            base.writes_total() as f64 / thoth.writes_total() as f64
        };
        table.row(vec![
            kind.name().to_owned(),
            base.writes_total().to_string(),
            thoth.writes_total().to_string(),
            format!("{gain:.2}x"),
            base.wear_hottest_writes.to_string(),
            thoth.wear_hottest_writes.to_string(),
            format!("{:.2}", thoth.wear_mean_writes),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifetime_table_has_all_workloads() {
        let tables = run(ExpSettings::quick());
        assert_eq!(tables[0].len(), WorkloadKind::ALL.len());
        let text = tables[0].render();
        assert!(text.contains("lifetime gain"));
    }
}
