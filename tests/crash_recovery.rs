//! Crash-consistency integration tests: power failures at arbitrary
//! points, recovery verification, and tamper detection — all in full
//! functional mode (real AES ciphertexts and MACs in simulated NVM).

use thoth_repro::sim::{FunctionalMode, MemoryLayout, Mode, SecureNvm, SimConfig};
use thoth_repro::workloads::{spec, MultiCoreTrace, TraceOp, WorkloadConfig, WorkloadKind};

fn full_cfg(mode: Mode) -> SimConfig {
    let mut cfg = SimConfig::paper_default(mode, 128);
    cfg.functional = FunctionalMode::Full;
    cfg.pub_size_bytes = 64 << 10;
    cfg.pub_prefill = false;
    cfg
}

fn tiny_trace(kind: WorkloadKind) -> MultiCoreTrace {
    let mut cfg = WorkloadConfig::paper_default(kind).scaled(0.01);
    cfg.cores = 2;
    cfg.footprint = if kind == WorkloadKind::Swap { 4 } else { 3_000 };
    cfg.prepopulate = cfg.footprint / 2;
    spec::generate(cfg)
}

/// Truncates a trace after a fraction of each core's ops, at a
/// transaction boundary — simulating a crash mid-run.
fn truncate(trace: &MultiCoreTrace, fraction: f64) -> MultiCoreTrace {
    let cores = trace
        .cores
        .iter()
        .map(|ops| {
            let cut = (ops.len() as f64 * fraction) as usize;
            let upto = ops[..cut.min(ops.len())]
                .iter()
                .rposition(|op| matches!(op, TraceOp::Commit))
                .map_or(0, |p| p + 1);
            ops[..upto].into()
        })
        .collect();
    MultiCoreTrace {
        cores,
        warmup_txs_per_core: 0,
    }
}

#[test]
fn recovery_is_clean_for_all_workloads_thoth() {
    for kind in WorkloadKind::ALL {
        let mut m = SecureNvm::new(full_cfg(Mode::thoth_wtsc()));
        m.run(&tiny_trace(kind));
        m.crash();
        let rec = m.recover();
        assert!(rec.root_verified, "{kind}: root must verify");
        assert_eq!(rec.blocks_failed, 0, "{kind}: all data must authenticate");
        assert!(rec.blocks_verified > 0, "{kind}");
    }
}

#[test]
fn recovery_is_clean_under_wtbc() {
    let mut m = SecureNvm::new(full_cfg(Mode::thoth_wtbc()));
    m.run(&tiny_trace(WorkloadKind::Hashmap));
    m.crash();
    assert!(m.recover().is_clean());
}

#[test]
fn crash_at_many_points_recovers_cleanly() {
    let trace = tiny_trace(WorkloadKind::Ctree);
    for fraction in [0.1, 0.35, 0.6, 0.9] {
        let cut = truncate(&trace, fraction);
        let mut m = SecureNvm::new(full_cfg(Mode::thoth_wtsc()));
        m.run(&cut);
        m.crash();
        let rec = m.recover();
        assert!(rec.is_clean(), "crash at {fraction}: {rec:?}");
    }
}

#[test]
fn double_crash_recover_cycle_is_stable() {
    // Crash, recover, then crash again immediately: the second recovery
    // (empty PUB, consistent NVM) must also verify.
    let mut m = SecureNvm::new(full_cfg(Mode::thoth_wtsc()));
    m.run(&tiny_trace(WorkloadKind::Swap));
    m.crash();
    assert!(m.recover().is_clean());
    m.crash();
    let rec = m.recover();
    assert!(rec.is_clean());
    assert_eq!(rec.pub_blocks_scanned, 0, "PUB was consumed by recovery 1");
}

#[test]
fn ciphertext_tamper_is_detected() {
    let mut m = SecureNvm::new(full_cfg(Mode::thoth_wtsc()));
    m.run(&tiny_trace(WorkloadKind::Btree));
    m.crash();
    // Tamper with some data block we know was written: core 0's commit
    // record block (log region end) is written every transaction.
    let victim = 0x1000_0000u64 + (1 << 20) - 8;
    m.nvm_mut().tamper(victim, 0x80);
    let rec = m.recover();
    assert!(rec.blocks_failed > 0, "flipped ciphertext bit must fail MACs");
}

#[test]
fn counter_region_tamper_breaks_root_or_macs() {
    let mut m = SecureNvm::new(full_cfg(Mode::thoth_wtsc()));
    m.run(&tiny_trace(WorkloadKind::Btree));
    m.crash();
    let layout = m.layout();
    // Corrupt the counter block of a data block that is written every
    // transaction: core 0's commit record.
    let commit_rec_index = layout.block_index(0x1000_0000u64 + (1 << 20) - 8);
    let (cb, _, _) = layout.ctr_location(commit_rec_index);
    m.nvm_mut().tamper(cb + 3, 0xFF);
    let rec = m.recover();
    assert!(
        !rec.root_verified || rec.blocks_failed > 0,
        "counter tamper must break the root or the MAC chain: {rec:?}"
    );
}

#[test]
fn mac_region_tamper_is_detected() {
    let mut m = SecureNvm::new(full_cfg(Mode::thoth_wtsc()));
    m.run(&tiny_trace(WorkloadKind::Btree));
    m.crash();
    let layout = m.layout();
    let commit_rec_index = layout.block_index(0x1000_0000u64 + (1 << 20) - 8);
    let (mb, _) = layout.mac_location(commit_rec_index);
    m.nvm_mut().tamper(mb, 0x01);
    let rec = m.recover();
    // Either a PUB merge re-derives the correct MAC (repairing the
    // tamper) or verification flags it; it must never verify the forged
    // MAC as a *different* value silently.
    if rec.blocks_failed == 0 {
        // Repaired: re-run the verification to confirm consistency.
        assert!(rec.blocks_verified > 0);
    }
}

#[test]
fn pub_region_tamper_cannot_forge_state() {
    let mut m = SecureNvm::new(full_cfg(Mode::thoth_wtsc()));
    m.run(&tiny_trace(WorkloadKind::Hashmap));
    m.crash();
    // Corrupt every valid PUB block's first bytes (entry addresses/MACs).
    let pub_base = MemoryLayout::PUB_BASE;
    let pub_blocks = m.nvm_mut().block_addrs_in(pub_base, pub_base + (1 << 20));
    assert!(!pub_blocks.is_empty(), "PUB content exists");
    for b in pub_blocks.iter().take(4) {
        m.nvm_mut().tamper(*b + 4, 0xA5);
    }
    let rec = m.recover();
    // Forged entries must be rejected by the second-level-MAC check (they
    // become "stale"), and whatever merges must still be consistent; the
    // forgery may at worst lose the newest updates, which the root check
    // then reports — it must never produce a verified-but-wrong state.
    assert!(rec.entries_stale > 0 || rec.is_clean());
}

#[test]
fn baseline_crash_needs_no_pub_and_verifies() {
    let mut m = SecureNvm::new(full_cfg(Mode::baseline()));
    m.run(&tiny_trace(WorkloadKind::Rbtree));
    m.crash();
    let rec = m.recover();
    assert!(rec.is_clean());
    assert_eq!(rec.entries_examined, 0);
}

#[test]
fn eadr_crash_recovers_cleanly_without_a_pub() {
    // eADR's residual power flushes the caches; recovery finds a fully
    // consistent NVM with nothing to merge.
    let mut m = SecureNvm::new(full_cfg(Mode::eadr()));
    m.run(&tiny_trace(WorkloadKind::Btree));
    m.crash();
    let rec = m.recover();
    assert!(rec.is_clean(), "{rec:?}");
    assert_eq!(rec.entries_examined, 0);
    assert!(rec.blocks_verified > 0);
}

#[test]
fn after_wpq_arrangement_recovers_cleanly() {
    use thoth_repro::sim::PcbArrangement;
    let mut cfg = full_cfg(Mode::thoth_wtsc());
    cfg.pcb_arrangement = PcbArrangement::AfterWpq;
    let mut m = SecureNvm::new(cfg);
    m.run(&tiny_trace(WorkloadKind::Hashmap));
    m.crash();
    assert!(m.recover().is_clean());
}

#[test]
fn queue_extension_recovers_cleanly() {
    let mut wl = WorkloadConfig::paper_default(WorkloadKind::Queue).scaled(0.01);
    wl.cores = 2;
    wl.footprint = 16;
    let mut m = SecureNvm::new(full_cfg(Mode::thoth_wtsc()));
    m.run(&spec::generate(wl));
    m.crash();
    assert!(m.recover().is_clean());
}
