//! Run reports: the numbers every figure and table are built from.

use crate::diagnostics::Fnv1a;

use std::collections::BTreeMap;
use thoth_core::EvictOutcome;
use thoth_nvm::WriteCategory;

/// Results of one simulated run (measured phase only).
#[derive(Debug, Clone, Default)]
pub struct SimReport {
    /// Mode label (`baseline`, `thoth-wtsc`, ...).
    pub mode: String,
    /// Cycles elapsed over the measured phase.
    pub total_cycles: u64,
    /// Committed transactions in the measured phase.
    pub transactions: u64,
    /// NVM writes by category tag.
    pub writes: BTreeMap<String, u64>,
    /// NVM reads issued by the controller (timed).
    pub nvm_reads: u64,
    /// WPQ: inserts, coalesced, full-queue stalls, stall cycles.
    pub wpq_inserts: u64,
    /// WPQ inserts that coalesced into a pending entry.
    pub wpq_coalesced: u64,
    /// Inserts that found the WPQ full.
    pub wpq_full_stalls: u64,
    /// Total cycles lost to a full WPQ.
    pub wpq_stall_cycles: u64,
    /// Partial updates offered to the PCB (Thoth only).
    pub pcb_inserts: u64,
    /// Partial updates merged in the PCB (Table III's numerator).
    pub pcb_merged: u64,
    /// Packed blocks the PCB emitted to the PUB.
    pub pcb_emitted: u64,
    /// PUB eviction outcomes, by ground-truth classification.
    pub pub_evictions: BTreeMap<String, u64>,
    /// Metadata block persists actually performed by the eviction policy.
    pub pub_policy_persists: u64,
    /// Partial updates absorbed directly by pending WPQ entries
    /// (PCB-after-WPQ arrangement only).
    pub pcb_wpq_bypass: u64,
    /// Counter cache hit rate over the measured phase.
    pub ctr_cache_hit_rate: f64,
    /// MAC cache hit rate over the measured phase.
    pub mac_cache_hit_rate: f64,
    /// LLC hit rate over the measured phase.
    pub llc_hit_rate: f64,
    /// Distinct NVM blocks written during the measured phase.
    pub wear_blocks_touched: u64,
    /// Writes to the most-written NVM block (wear hot spot).
    pub wear_hottest_writes: u64,
    /// Mean writes per touched block.
    pub wear_mean_writes: f64,
}

impl SimReport {
    /// Total NVM writes across categories.
    #[must_use]
    pub fn writes_total(&self) -> u64 {
        self.writes.values().sum()
    }

    /// Writes in one category.
    #[must_use]
    pub fn writes_in(&self, category: WriteCategory) -> u64 {
        self.writes.get(category.tag()).copied().unwrap_or(0)
    }

    /// Fraction of NVM writes that are ciphertext (Table II).
    #[must_use]
    pub fn ciphertext_write_fraction(&self) -> f64 {
        let total = self.writes_total();
        if total == 0 {
            return 0.0;
        }
        self.writes_in(WriteCategory::Data) as f64 / total as f64
    }

    /// Fraction of PCB inserts that merged (Table III).
    #[must_use]
    pub fn pcb_merge_fraction(&self) -> f64 {
        if self.pcb_inserts == 0 {
            return 0.0;
        }
        self.pcb_merged as f64 / self.pcb_inserts as f64
    }

    /// PUB eviction count for one outcome.
    #[must_use]
    pub fn pub_outcome(&self, outcome: EvictOutcome) -> u64 {
        self.pub_evictions
            .get(outcome.label())
            .copied()
            .unwrap_or(0)
    }

    /// Speedup of this run relative to `baseline` (cycles ratio).
    #[must_use]
    pub fn speedup_over(&self, baseline: &SimReport) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        baseline.total_cycles as f64 / self.total_cycles as f64
    }

    /// This run's NVM writes as a fraction of `baseline`'s. Two runs with
    /// no writes at all compare as 1.0 (identical traffic).
    #[must_use]
    pub fn write_ratio_vs(&self, baseline: &SimReport) -> f64 {
        let b = baseline.writes_total();
        if b == 0 {
            return if self.writes_total() == 0 { 1.0 } else { f64::INFINITY };
        }
        self.writes_total() as f64 / b as f64
    }

    /// Order-stable 64-bit digest over **every** field (FNV-1a over a
    /// canonical encoding; floats via `to_bits`, maps in `BTreeMap` key
    /// order). Two reports digest equal iff they are bit-identical, so the
    /// determinism tests and the perf harness can pin golden snapshots and
    /// compare whole report matrices cheaply.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::default();
        h.str(&self.mode);
        for v in [
            self.total_cycles,
            self.transactions,
            self.nvm_reads,
            self.wpq_inserts,
            self.wpq_coalesced,
            self.wpq_full_stalls,
            self.wpq_stall_cycles,
            self.pcb_inserts,
            self.pcb_merged,
            self.pcb_emitted,
            self.pub_policy_persists,
            self.pcb_wpq_bypass,
            self.wear_blocks_touched,
            self.wear_hottest_writes,
        ] {
            h.u64(v);
        }
        for (k, &v) in &self.writes {
            h.str(k);
            h.u64(v);
        }
        h.u64(self.writes.len() as u64);
        for (k, &v) in &self.pub_evictions {
            h.str(k);
            h.u64(v);
        }
        h.u64(self.pub_evictions.len() as u64);
        for f in [
            self.ctr_cache_hit_rate,
            self.mac_cache_hit_rate,
            self.llc_hit_rate,
            self.wear_mean_writes,
        ] {
            h.u64(f.to_bits());
        }
        h.finish()
    }
}

/// The reports of a run matrix, keyed by `(workload, block_bytes, mode
/// label)`.
pub type MatrixRuns = BTreeMap<(String, usize, String), SimReport>;

/// Order-stable digest of a whole run matrix: folds every run's
/// [`SimReport::digest`] under its key, in `BTreeMap` order. Equal iff
/// every report in both matrices is bit-identical — the contract the
/// hot-path optimizations are held to (the quick headline matrix's
/// digest is pinned by the `mode_parity` tests and the perf gate).
#[must_use]
pub fn matrix_digest(runs: &MatrixRuns) -> u64 {
    let mut h = Fnv1a::default();
    for ((workload, block, mode), report) in runs {
        h.bytes(workload.as_bytes());
        h.u64(*block as u64);
        h.bytes(mode.as_bytes());
        h.u64(report.digest());
    }
    h.finish()
}

/// Results of a crash-recovery pass.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// PUB blocks scanned.
    pub pub_blocks_scanned: u64,
    /// Partial-update entries examined.
    pub entries_examined: u64,
    /// Entries whose values were merged into metadata blocks.
    pub entries_merged: u64,
    /// Entries skipped as stale (did not match the persisted ciphertext).
    pub entries_stale: u64,
    /// MAC blocks rewritten during recovery.
    pub mac_blocks_recovered: u64,
    /// Did the rebuilt integrity-tree root match the processor's root?
    pub root_verified: bool,
    /// Data blocks whose MACs verified after recovery.
    pub blocks_verified: u64,
    /// Data blocks whose MACs failed after recovery (0 unless tampered).
    pub blocks_failed: u64,
    /// Modeled recovery time in seconds (Section IV-D cost model).
    pub modeled_seconds: f64,
    /// Recovery time actually accumulated on the device timing model
    /// (serial scan, as footnote 5 assumes), in seconds.
    pub measured_seconds: f64,
}

impl RecoveryReport {
    /// `true` when recovery fully succeeded: root verified and no MAC
    /// failures.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.root_verified && self.blocks_failed == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(data: u64, mac: u64, cycles: u64) -> SimReport {
        let mut r = SimReport {
            total_cycles: cycles,
            ..SimReport::default()
        };
        r.writes.insert("data".into(), data);
        r.writes.insert("mac".into(), mac);
        r
    }

    #[test]
    fn write_totals_and_fractions() {
        let r = report(60, 40, 1000);
        assert_eq!(r.writes_total(), 100);
        assert_eq!(r.writes_in(WriteCategory::Data), 60);
        assert_eq!(r.writes_in(WriteCategory::CounterBlock), 0);
        assert!((r.ciphertext_write_fraction() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn speedup_and_write_ratio() {
        let base = report(100, 100, 2000);
        let fast = report(100, 20, 1000);
        assert!((fast.speedup_over(&base) - 2.0).abs() < 1e-12);
        assert!((fast.write_ratio_vs(&base) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn empty_report_is_safe() {
        let r = SimReport::default();
        assert_eq!(r.writes_total(), 0);
        assert_eq!(r.ciphertext_write_fraction(), 0.0);
        assert_eq!(r.pcb_merge_fraction(), 0.0);
        assert_eq!(r.pub_outcome(EvictOutcome::StaleCopy), 0);
    }

    #[test]
    fn digest_separates_field_changes() {
        let base = report(60, 40, 1000);
        assert_eq!(base.digest(), base.clone().digest());
        let mut cycles = base.clone();
        cycles.total_cycles += 1;
        assert_ne!(base.digest(), cycles.digest());
        let mut rate = base.clone();
        rate.llc_hit_rate = 0.5;
        assert_ne!(base.digest(), rate.digest());
        let mut writes = base.clone();
        writes.writes.insert("tree".into(), 1);
        assert_ne!(base.digest(), writes.digest());
        let mut label = base.clone();
        label.mode = "other".into();
        assert_ne!(base.digest(), label.digest());
    }

    #[test]
    fn recovery_clean_flag() {
        let mut r = RecoveryReport {
            root_verified: true,
            ..RecoveryReport::default()
        };
        assert!(r.is_clean());
        r.blocks_failed = 1;
        assert!(!r.is_clean());
        r.blocks_failed = 0;
        r.root_verified = false;
        assert!(!r.is_clean());
    }
}
