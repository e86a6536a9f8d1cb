//! Ablation studies of Thoth's design choices (beyond the paper's own
//! figures): PUB capacity and eviction threshold, PCB size, the
//! PCB-before-WPQ vs PCB-after-WPQ arrangement (Section IV-C), and the
//! eADR future-work machine (Section II-B).
//!
//! Each sweep varies exactly one knob of the Table I configuration and
//! reports speedup over the unmodified baseline plus the knob's most
//! informative internal statistic.

use crate::runner::{ExpSettings, TraceCache};
use crate::tablefmt::Table;

use thoth_core::EvictOutcome;
use thoth_sim::{run_trace, Mode, PcbArrangement, SimConfig};
use thoth_workloads::WorkloadKind;

/// Workload the single-knob sweeps run on (btree: mid-pack behaviour).
const SWEEP_WORKLOAD: WorkloadKind = WorkloadKind::Btree;

/// PUB capacity sweep: smaller buffers evict sooner and persist more.
#[must_use]
pub fn pub_size_sweep(cache: &mut TraceCache) -> Table {
    let mut table = Table::new(
        "Ablation: PUB capacity (btree, 128 B blocks, WTSC)",
        &["pub size", "speedup", "writes vs baseline", "written-back share"],
    );
    let trace = cache.get(SWEEP_WORKLOAD, 128);
    let base = run_trace(&SimConfig::paper_default(Mode::baseline(), 128), &trace);
    for (bytes, label) in [
        (256u64 << 10, "256 KB"),
        (1 << 20, "1 MB"),
        (8 << 20, "8 MB"),
        (32 << 20, "32 MB"),
    ] {
        let mut cfg = SimConfig::paper_default(Mode::thoth_wtsc(), 128);
        cfg.pub_size_bytes = bytes;
        let r = run_trace(&cfg, &trace);
        let evictions: u64 = r.pub_evictions.values().sum();
        let wb = r.pub_outcome(EvictOutcome::WrittenBack);
        table.row(vec![
            label.to_owned(),
            format!("{:.3}", r.speedup_over(&base)),
            format!("{:.3}", r.write_ratio_vs(&base)),
            if evictions == 0 {
                "n/a".to_owned()
            } else {
                format!("{:.4}", wb as f64 / evictions as f64)
            },
        ]);
    }
    table
}

/// PUB eviction-threshold sweep (the paper uses 80%).
#[must_use]
pub fn pub_threshold_sweep(cache: &mut TraceCache) -> Table {
    let mut table = Table::new(
        "Ablation: PUB eviction threshold (btree, 128 B blocks, WTSC)",
        &["threshold", "speedup", "writes vs baseline"],
    );
    let trace = cache.get(SWEEP_WORKLOAD, 128);
    let base = run_trace(&SimConfig::paper_default(Mode::baseline(), 128), &trace);
    for pct in [50u8, 80, 95] {
        let mut cfg = SimConfig::paper_default(Mode::thoth_wtsc(), 128);
        cfg.pub_threshold_pct = pct;
        let r = run_trace(&cfg, &trace);
        table.row(vec![
            format!("{pct}%"),
            format!("{:.3}", r.speedup_over(&base)),
            format!("{:.3}", r.write_ratio_vs(&base)),
        ]);
    }
    table
}

/// PCB-size sweep: the merge window grows with reserved entries, but
/// every reserved entry shrinks the WPQ.
#[must_use]
pub fn pcb_size_sweep(cache: &mut TraceCache) -> Table {
    let mut table = Table::new(
        "Ablation: PCB reserved entries (btree, 128 B blocks, WTSC)",
        &["pcb entries", "wpq entries", "speedup", "pcb merge rate"],
    );
    let trace = cache.get(SWEEP_WORKLOAD, 128);
    let base = run_trace(&SimConfig::paper_default(Mode::baseline(), 128), &trace);
    for pcb in [1usize, 4, 8, 16] {
        let mut cfg = SimConfig::paper_default(Mode::thoth_wtsc(), 128);
        cfg.pcb_entries = pcb;
        let r = run_trace(&cfg, &trace);
        table.row(vec![
            pcb.to_string(),
            (64 - pcb).to_string(),
            format!("{:.3}", r.speedup_over(&base)),
            format!("{:.1}%", r.pcb_merge_fraction() * 100.0),
        ]);
    }
    table
}

/// PCB arrangement: the paper's augmented before-WPQ vs after-WPQ.
#[must_use]
pub fn arrangement_compare(cache: &mut TraceCache) -> Table {
    let mut table = Table::new(
        "Ablation: PCB arrangement (Section IV-C; 128 B blocks, WTSC)",
        &["workload", "before-WPQ speedup", "after-WPQ speedup", "wpq-bypass merges"],
    );
    for kind in WorkloadKind::ALL {
        let trace = cache.get(kind, 128);
        let base = run_trace(&SimConfig::paper_default(Mode::baseline(), 128), &trace);
        let before = run_trace(&SimConfig::paper_default(Mode::thoth_wtsc(), 128), &trace);
        let mut after_cfg = SimConfig::paper_default(Mode::thoth_wtsc(), 128);
        after_cfg.pcb_arrangement = PcbArrangement::AfterWpq;
        let after = run_trace(&after_cfg, &trace);
        table.row(vec![
            kind.name().to_owned(),
            format!("{:.3}", before.speedup_over(&base)),
            format!("{:.3}", after.speedup_over(&base)),
            after.pcb_wpq_bypass.to_string(),
        ]);
    }
    table
}

/// The eADR machine (future work in the paper): whole-hierarchy
/// persistence makes every persist free, bounding what any ADR-domain
/// scheme (including Thoth) can achieve.
#[must_use]
pub fn eadr_compare(cache: &mut TraceCache) -> Table {
    let mut table = Table::new(
        "Ablation: eADR future-work machine (128 B blocks)",
        &["workload", "thoth speedup", "eadr speedup", "eadr writes vs baseline"],
    );
    for kind in WorkloadKind::ALL {
        let trace = cache.get(kind, 128);
        let base = run_trace(&SimConfig::paper_default(Mode::baseline(), 128), &trace);
        let thoth = run_trace(&SimConfig::paper_default(Mode::thoth_wtsc(), 128), &trace);
        let eadr = run_trace(&SimConfig::paper_default(Mode::eadr(), 128), &trace);
        table.row(vec![
            kind.name().to_owned(),
            format!("{:.3}", thoth.speedup_over(&base)),
            format!("{:.3}", eadr.speedup_over(&base)),
            format!("{:.3}", eadr.write_ratio_vs(&base)),
        ]);
    }
    table
}

/// Metadata-persistence mechanism comparison: every mechanism the
/// machine implements — eager Thoth/WTSC, Anubis-style ECC shadowing,
/// Phoenix (strict counters, MACs rebuilt at recovery), and the Freij
/// strict/lazy streamlined-tree variants — over the paper's workloads,
/// against the same no-security baseline. eADR bounds the table from
/// above (every persist free).
#[must_use]
pub fn mechanism_compare(cache: &mut TraceCache) -> Table {
    let mut table = Table::new(
        "Ablation: metadata-persistence mechanisms (128 B blocks)",
        &["workload", "mode", "speedup vs baseline", "writes vs baseline"],
    );
    let modes = [
        Mode::thoth_wtsc(),
        Mode::AnubisEcc,
        Mode::eadr(),
        Mode::phoenix(),
        Mode::freij_strict(),
        Mode::freij_lazy(),
    ];
    for kind in WorkloadKind::ALL {
        let trace = cache.get(kind, 128);
        let base = run_trace(&SimConfig::paper_default(Mode::baseline(), 128), &trace);
        for mode in modes {
            let r = run_trace(&SimConfig::paper_default(mode, 128), &trace);
            table.row(vec![
                kind.name().to_owned(),
                mode.label().to_owned(),
                format!("{:.3}", r.speedup_over(&base)),
                format!("{:.3}", r.write_ratio_vs(&base)),
            ]);
        }
    }
    table
}

/// Operation-mix sweep: how delete-heavy transaction mixes (an extension
/// beyond the paper's insert/update workloads) move Thoth's advantage.
#[must_use]
pub fn ops_mix_sweep(settings: ExpSettings) -> Table {
    let mut table = Table::new(
        "Ablation: delete-heavy operation mixes (hashmap, 128 B blocks, WTSC)",
        &["deletes", "speedup", "writes vs baseline"],
    );
    for per_mille in [0u16, 200, 400] {
        let mut wl = settings.workload(WorkloadKind::Hashmap, 128);
        wl.delete_per_mille = per_mille;
        let trace = thoth_workloads::spec::generate(wl);
        let base = run_trace(&SimConfig::paper_default(Mode::baseline(), 128), &trace);
        let thoth = run_trace(&SimConfig::paper_default(Mode::thoth_wtsc(), 128), &trace);
        table.row(vec![
            format!("{:.0}%", f64::from(per_mille) / 10.0),
            format!("{:.3}", thoth.speedup_over(&base)),
            format!("{:.3}", thoth.write_ratio_vs(&base)),
        ]);
    }
    table
}

/// Extension workloads (beyond the paper's five) through the main modes.
#[must_use]
pub fn extension_workloads(cache: &mut TraceCache) -> Table {
    let mut table = Table::new(
        "Extension workloads (128 B blocks)",
        &["workload", "mode", "speedup vs baseline", "writes vs baseline"],
    );
    for kind in [WorkloadKind::Queue] {
        let trace = cache.get(kind, 128);
        let base = run_trace(&SimConfig::paper_default(Mode::baseline(), 128), &trace);
        for mode in [Mode::thoth_wtsc(), Mode::eadr()] {
            let r = run_trace(&SimConfig::paper_default(mode, 128), &trace);
            table.row(vec![
                kind.name().to_owned(),
                mode.label().to_owned(),
                format!("{:.3}", r.speedup_over(&base)),
                format!("{:.3}", r.write_ratio_vs(&base)),
            ]);
        }
    }
    table
}

/// Runs every ablation and renders the tables.
#[must_use]
pub fn run(settings: ExpSettings) -> Vec<Table> {
    let mut cache = TraceCache::new(settings);
    vec![
        pub_size_sweep(&mut cache),
        pub_threshold_sweep(&mut cache),
        pcb_size_sweep(&mut cache),
        arrangement_compare(&mut cache),
        eadr_compare(&mut cache),
        mechanism_compare(&mut cache),
        ops_mix_sweep(settings),
        extension_workloads(&mut cache),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_ablation_produces_all_tables() {
        let tables = run(ExpSettings::quick());
        assert_eq!(tables.len(), 8);
        assert_eq!(tables[0].len(), 4, "four PUB sizes");
        assert_eq!(tables[3].len(), WorkloadKind::ALL.len());
        let eadr = tables[4].render();
        assert!(eadr.contains("btree"));
        let mech = tables[5].render();
        assert!(mech.contains("phoenix"));
        assert!(mech.contains("freij-strict"));
        assert!(mech.contains("freij-lazy"));
        assert_eq!(tables[5].len(), WorkloadKind::ALL.len() * 6);
    }
}
