//! Section IV-D: crash-recovery correctness and the recovery-time model.
//!
//! Runs each workload in full-functional mode, crashes the machine at the
//! end of the measured phase, recovers, and reports:
//!
//! * whether the rebuilt integrity-tree root matched the persistent root,
//! * how many data blocks authenticated after recovery (all must),
//! * how the PUB merge classified entries (merged vs stale),
//! * the modeled recovery time, including the paper's ≈7 s figure for a
//!   full 64 MB PUB.

use crate::runner::ExpSettings;
use crate::tablefmt::Table;

use thoth_core::recovery::pub_recovery_secs;
use thoth_sim::{FunctionalMode, Mode, SecureNvm, SimConfig};
use thoth_workloads::{spec, WorkloadKind};

/// Runs crash + recovery for every workload and renders the table, plus
/// the recovery-time model table.
#[must_use]
pub fn run(settings: ExpSettings) -> Vec<Table> {
    let mut table = Table::new(
        "Section IV-D: crash recovery (full functional mode, Thoth-WTSC)",
        &[
            "workload",
            "pub-blocks",
            "entries",
            "merged",
            "stale",
            "root-ok",
            "blocks-ok",
            "blocks-bad",
            "modeled-s",
        ],
    );
    for kind in WorkloadKind::ALL {
        // Recovery scans the whole PUB, so keep it small and unprefilled;
        // full functional mode is slow, so use a reduced trace.
        let wl = settings.workload(kind, 128);
        let trace = spec::generate(spec_scaled(wl, 0.2));
        let mut cfg = SimConfig::paper_default(Mode::thoth_wtsc(), 128);
        cfg.functional = FunctionalMode::Full;
        cfg.pub_size_bytes = 256 << 10;
        cfg.pub_prefill = false;
        let mut machine = SecureNvm::new(cfg);
        machine.run(&trace);
        machine.crash();
        let rec = machine.recover();
        table.row(vec![
            kind.name().to_owned(),
            rec.pub_blocks_scanned.to_string(),
            rec.entries_examined.to_string(),
            rec.entries_merged.to_string(),
            rec.entries_stale.to_string(),
            rec.root_verified.to_string(),
            rec.blocks_verified.to_string(),
            rec.blocks_failed.to_string(),
            format!("{:.4}", rec.modeled_seconds),
        ]);
    }

    let mut model = Table::new(
        "Recovery-time model (Section IV-D footnote 5)",
        &["PUB size", "block", "entries", "modeled seconds"],
    );
    for (size, label) in [(8u64 << 20, "8 MB"), (64 << 20, "64 MB")] {
        for (block, epb) in [(128u64, 9u64), (256, 19)] {
            let blocks = size / block;
            model.row(vec![
                label.to_owned(),
                format!("{block} B"),
                (blocks * epb).to_string(),
                format!("{:.2}", pub_recovery_secs(blocks, epb)),
            ]);
        }
    }
    vec![table, model]
}

fn spec_scaled(
    mut cfg: thoth_workloads::WorkloadConfig,
    f: f64,
) -> thoth_workloads::WorkloadConfig {
    cfg.warmup_txs_per_core = ((cfg.warmup_txs_per_core as f64 * f) as usize).max(1);
    cfg.txs_per_core = ((cfg.txs_per_core as f64 * f) as usize).max(1);
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_recovery_is_clean_for_all_workloads() {
        let tables = run(ExpSettings::quick());
        let text = tables[0].render();
        assert!(!text.contains("false"), "every root must verify:\n{text}");
        // The model table includes the paper's 64 MB point.
        let model = tables[1].render();
        assert!(model.contains("64 MB"));
    }
}
