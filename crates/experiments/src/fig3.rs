//! Figure 3: breakdown of PUB-eviction outcomes for hypothetical FIFO
//! buffers of 500 000, 5 000 and 50 entries (Section III).
//!
//! The paper's motivation experiment: replay each workload's stream of
//! partial security-metadata updates (one counter update and one MAC
//! update per persistent block store) against the secure metadata caches
//! and an N-entry FIFO, classifying every FIFO eviction as written-back /
//! already-evicted / clean-copy / stale-copy. The claim to reproduce: with
//! a large enough buffer, the written-back fraction collapses (99.5% of
//! evictions need no write at the 500 k size).

use crate::runner::ExpSettings;
use crate::tablefmt::Table;

use thoth_cache::CacheConfig;
use thoth_core::analysis::{MetaUpdate, PubAnalysis};
use thoth_core::{EvictOutcome, EvictionPolicy};
use thoth_sim::MemoryLayout;
use thoth_workloads::{spec, MultiCoreTrace, TraceOp, WorkloadKind};

use std::collections::HashMap;

/// The paper's three buffer sizes (entries).
pub const PAPER_FIFO_SIZES: [usize; 3] = [500_000, 5_000, 50];

/// One row of the Figure 3 reproduction.
#[derive(Debug, Clone)]
pub struct Fig3Row {
    /// Workload name.
    pub workload: String,
    /// FIFO capacity in entries.
    pub fifo_entries: usize,
    /// Fraction of evictions per outcome, in [`EvictOutcome::ALL`] order.
    pub fractions: [f64; 4],
    /// Total classified evictions.
    pub evictions: u64,
}

/// Splits a multi-core trace into per-transaction chunks and interleaves
/// the cores round-robin, approximating concurrent execution order.
fn interleave_by_tx(trace: &MultiCoreTrace) -> Vec<TraceOp> {
    let mut per_core: Vec<Vec<&[TraceOp]>> = trace
        .cores
        .iter()
        .map(|ops| ops.split_inclusive(|op| matches!(op, TraceOp::Commit)).collect())
        .collect();
    let mut out = Vec::new();
    let mut more = true;
    let mut round = 0;
    while more {
        more = false;
        for chunks in &mut per_core {
            if round < chunks.len() {
                out.extend_from_slice(chunks[round]);
                more = true;
            }
        }
        round += 1;
    }
    out
}

/// Extracts the counter and MAC partial-update streams from a trace.
///
/// Every persistent block store produces one counter update and one MAC
/// update; values are globally unique tokens (every real partial update
/// produces a fresh counter/MAC value).
#[must_use]
pub fn metadata_streams(
    trace: &MultiCoreTrace,
    block_bytes: usize,
) -> (Vec<MetaUpdate>, Vec<MetaUpdate>) {
    let layout = MemoryLayout::new(block_bytes);
    let mut ctr = Vec::new();
    let mut mac = Vec::new();
    let mut token = 0u64;
    let bs = block_bytes as u64;
    for op in interleave_by_tx(trace) {
        let TraceOp::Store { addr, len } = op else {
            continue;
        };
        let first = addr / bs;
        let last = (addr + u64::from(len).max(1) - 1) / bs;
        for index in first..=last {
            token += 1;
            let (cb, _, _) = layout.ctr_location(index);
            ctr.push(MetaUpdate {
                meta_block: cb,
                subblock: layout.ctr_subblock(index),
                value: token,
            });
            let (mb, mslot) = layout.mac_location(index);
            mac.push(MetaUpdate {
                meta_block: mb,
                subblock: mslot,
                value: token,
            });
        }
    }
    (ctr, mac)
}

/// Runs the Figure 3 analysis for one workload and a set of FIFO sizes.
#[must_use]
pub fn analyze_workload(
    kind: WorkloadKind,
    settings: ExpSettings,
    fifo_sizes: &[usize],
) -> Vec<Fig3Row> {
    let block = 128;
    let max_fifo = fifo_sizes.iter().copied().max().unwrap_or(50);

    // Probe how many metadata updates one transaction generates, then
    // size the trace so even the largest FIFO sees plenty of evictions.
    let mut probe_cfg = settings.workload(kind, 128);
    probe_cfg.warmup_txs_per_core = 0;
    probe_cfg.txs_per_core = 200;
    let probe = spec::generate(probe_cfg);
    let (pc, _) = metadata_streams(&probe, block);
    let updates_per_tx = (pc.len() as f64 / probe.total_txs().max(1) as f64).max(1.0);

    let mut cfg = settings.workload(kind, 128);
    cfg.warmup_txs_per_core = 0;
    // Counter + MAC streams each need ~2.2x the FIFO in updates.
    let want_txs = (2.2 * max_fifo as f64 / updates_per_tx / cfg.cores as f64) as usize;
    cfg.txs_per_core = want_txs.max(cfg.txs_per_core);
    let trace = spec::generate(cfg);
    let (ctr_stream, mac_stream) = metadata_streams(&trace, block);

    let mut rows = Vec::new();
    for &fifo in fifo_sizes {
        let mut ctr_an = PubAnalysis::new(
            CacheConfig::new(64 << 10, 4, block),
            fifo,
            EvictionPolicy::Wtbc,
        );
        let mut mac_an = PubAnalysis::new(
            CacheConfig::new(128 << 10, 8, block),
            fifo,
            EvictionPolicy::Wtbc,
        );
        for u in &ctr_stream {
            ctr_an.record(*u);
        }
        for u in &mac_stream {
            mac_an.record(*u);
        }
        let (cb, mb) = (ctr_an.breakdown(), mac_an.breakdown());
        let mut counts: HashMap<EvictOutcome, u64> = HashMap::new();
        for o in EvictOutcome::ALL {
            counts.insert(o, cb.count(o) + mb.count(o));
        }
        let total: u64 = counts.values().sum();
        let fractions = EvictOutcome::ALL.map(|o| {
            if total == 0 {
                0.0
            } else {
                counts[&o] as f64 / total as f64
            }
        });
        rows.push(Fig3Row {
            workload: kind.name().to_owned(),
            fifo_entries: fifo,
            fractions,
            evictions: total,
        });
    }
    rows
}

/// Runs the full Figure 3 experiment and renders the table.
#[must_use]
pub fn run(settings: ExpSettings, fifo_sizes: &[usize]) -> (Table, Vec<Fig3Row>) {
    let mut table = Table::new(
        "Figure 3: PUB eviction outcome breakdown vs FIFO size",
        &[
            "workload",
            "fifo",
            "written-back",
            "already-evicted",
            "clean-copy",
            "stale-copy",
            "evictions",
        ],
    );
    let mut all = Vec::new();
    for kind in WorkloadKind::ALL {
        let rows = analyze_workload(kind, settings, fifo_sizes);
        for r in &rows {
            table.row(vec![
                r.workload.clone(),
                r.fifo_entries.to_string(),
                format!("{:.4}", r.fractions[0]),
                format!("{:.4}", r.fractions[1]),
                format!("{:.4}", r.fractions[2]),
                format!("{:.4}", r.fractions[3]),
                r.evictions.to_string(),
            ]);
        }
        all.extend(rows);
    }
    (table, all)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_pair_counter_and_mac() {
        let cfg = ExpSettings::quick().workload(WorkloadKind::Swap, 128);
        let trace = spec::generate(cfg);
        let (ctr, mac) = metadata_streams(&trace, 128);
        assert_eq!(ctr.len(), mac.len());
        assert!(!ctr.is_empty());
        // Counter updates land in the counter region, MACs in the MAC region.
        let ctr_region = MemoryLayout::CTR_BASE..MemoryLayout::MAC_BASE;
        let mac_region = MemoryLayout::MAC_BASE..MemoryLayout::TREE_BASE;
        assert!(ctr.iter().all(|u| ctr_region.contains(&u.meta_block)));
        assert!(mac.iter().all(|u| mac_region.contains(&u.meta_block)));
    }

    #[test]
    fn interleave_preserves_op_counts() {
        let cfg = ExpSettings::quick().workload(WorkloadKind::Ctree, 128);
        let trace = spec::generate(cfg);
        let total: usize = trace.cores.iter().map(|ops| ops.len()).sum();
        assert_eq!(interleave_by_tx(&trace).len(), total);
    }

    #[test]
    fn larger_fifo_reduces_written_back_fraction() {
        let rows = analyze_workload(WorkloadKind::Ctree, ExpSettings::quick(), &[2000, 20]);
        assert_eq!(rows.len(), 2);
        let wb_large = rows[0].fractions[0];
        let wb_small = rows[1].fractions[0];
        assert!(
            wb_large <= wb_small + 1e-9,
            "large FIFO must not need more write-backs: {wb_large} vs {wb_small}"
        );
        assert!(rows.iter().all(|r| r.evictions > 0));
    }

    #[test]
    fn fractions_sum_to_one() {
        let rows = analyze_workload(WorkloadKind::Swap, ExpSettings::quick(), &[100]);
        let s: f64 = rows[0].fractions.iter().sum();
        assert!((s - 1.0).abs() < 1e-9);
    }
}
