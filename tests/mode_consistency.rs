//! Consistency tests across simulation fidelity modes and geometries:
//! `FunctionalMode::Fast` must be a pure optimization (identical policy
//! decisions, write counts and timing to `Full`), and recovery must work
//! at every block size and across PUB wraparound.

use thoth_repro::sim::{run_trace, FunctionalMode, Mode, SecureNvm, SimConfig};
use thoth_repro::workloads::{spec, MultiCoreTrace, WorkloadConfig, WorkloadKind};

fn tiny_trace(kind: WorkloadKind) -> MultiCoreTrace {
    let mut cfg = WorkloadConfig::paper_default(kind).scaled(0.01);
    cfg.cores = 2;
    cfg.footprint = if kind == WorkloadKind::Swap { 4 } else { 3_000 };
    cfg.prepopulate = cfg.footprint / 2;
    spec::generate(cfg)
}

/// `Fast` skips the AES/byte work but must not change a single simulated
/// event: same cycles, same writes per category, same PUB behaviour.
#[test]
fn fast_mode_is_observationally_identical_to_full() {
    for kind in [WorkloadKind::Btree, WorkloadKind::Hashmap, WorkloadKind::Swap] {
        let trace = tiny_trace(kind);
        for mode in [
            Mode::baseline(),
            Mode::thoth_wtsc(),
            Mode::phoenix(),
            Mode::freij_strict(),
            Mode::freij_lazy(),
        ] {
            let mut full_cfg = SimConfig::paper_default(mode, 128);
            full_cfg.functional = FunctionalMode::Full;
            full_cfg.pub_size_bytes = 128 << 10;
            let mut fast_cfg = full_cfg.clone();
            fast_cfg.functional = FunctionalMode::Fast;

            let full = run_trace(&full_cfg, &trace);
            let fast = run_trace(&fast_cfg, &trace);
            assert_eq!(full.total_cycles, fast.total_cycles, "{kind}/{}", mode.label());
            assert_eq!(full.writes, fast.writes, "{kind}/{}", mode.label());
            assert_eq!(full.pub_evictions, fast.pub_evictions, "{kind}");
            assert_eq!(full.pcb_merged, fast.pcb_merged, "{kind}");
            assert_eq!(
                full.pub_policy_persists, fast.pub_policy_persists,
                "{kind}: policy decisions must not depend on fidelity mode"
            );
        }
    }
}

/// Crash recovery must verify at 256 B blocks (19-entry PUB packing,
/// 32 B first-level MACs, 176-block counter groups) just as at 128 B.
#[test]
fn recovery_is_clean_at_256_byte_blocks() {
    for kind in [WorkloadKind::Btree, WorkloadKind::Swap] {
        let mut cfg = SimConfig::paper_default(Mode::thoth_wtsc(), 256);
        cfg.functional = FunctionalMode::Full;
        cfg.pub_size_bytes = 64 << 10;
        cfg.pub_prefill = false;
        let mut m = SecureNvm::new(cfg);
        m.run(&tiny_trace(kind));
        m.crash();
        let rec = m.recover();
        assert!(rec.is_clean(), "{kind} @256B: {rec:?}");
        assert!(rec.blocks_verified > 0, "{kind}");
    }
}

/// Each extension mechanism's recovery (Phoenix rebuilds the first-level
/// MAC region; the Freij modes rely on the tree rebuild from the
/// persisted counters that every mechanism shares) must also verify off
/// the 128 B paper geometry.
#[test]
fn extension_mechanisms_recover_cleanly_at_256_byte_blocks() {
    for mode in [Mode::phoenix(), Mode::freij_strict(), Mode::freij_lazy()] {
        let mut cfg = SimConfig::paper_default(mode, 256);
        cfg.functional = FunctionalMode::Full;
        cfg.pub_size_bytes = 64 << 10;
        cfg.pub_prefill = false;
        let mut m = SecureNvm::new(cfg);
        m.run(&tiny_trace(WorkloadKind::Btree));
        m.crash();
        let rec = m.recover();
        assert!(rec.is_clean(), "{} @256B: {rec:?}", mode.label());
        assert!(rec.blocks_verified > 0, "{}", mode.label());
    }
}

/// Recovery with a PUB small enough that the circular FIFO wrapped many
/// times before the crash: scan order and merging must still be correct.
#[test]
fn recovery_survives_pub_wraparound() {
    let mut cfg = SimConfig::paper_default(Mode::thoth_wtsc(), 128);
    cfg.functional = FunctionalMode::Full;
    // 64 blocks: at the 80% threshold the buffer evicts constantly and
    // the start/end registers wrap dozens of times.
    cfg.pub_size_bytes = 64 * 128;
    cfg.pub_prefill = false;
    let mut m = SecureNvm::new(cfg);
    m.run(&tiny_trace(WorkloadKind::Hashmap));
    m.crash();
    let rec = m.recover();
    assert!(rec.is_clean(), "{rec:?}");
    // The tiny buffer forces real evictions during the run.
    assert!(rec.pub_blocks_scanned <= 64);
}

/// Recovery must also verify under the 64 B classic-DDR geometry.
#[test]
fn recovery_is_clean_at_64_byte_blocks() {
    let mut cfg = SimConfig::paper_default(Mode::thoth_wtsc(), 64);
    cfg.functional = FunctionalMode::Full;
    cfg.pub_size_bytes = 64 << 10;
    cfg.pub_prefill = false;
    let mut m = SecureNvm::new(cfg);
    m.run(&tiny_trace(WorkloadKind::Ctree));
    m.crash();
    let rec = m.recover();
    assert!(rec.is_clean(), "{rec:?}");
}

/// The measured recovery time must be reported and scale with the number
/// of scanned entries.
#[test]
fn measured_recovery_time_tracks_pub_size() {
    // A longer trace, so the small PUB wraps while the large one holds
    // every emitted block.
    let mut wl = WorkloadConfig::paper_default(WorkloadKind::Btree).scaled(0.05);
    wl.cores = 2;
    wl.footprint = 3_000;
    wl.prepopulate = 1_500;
    let trace = spec::generate(wl);
    let run_with_pub = |pub_bytes: u64| {
        let mut cfg = SimConfig::paper_default(Mode::thoth_wtsc(), 128);
        cfg.functional = FunctionalMode::Full;
        cfg.pub_size_bytes = pub_bytes;
        cfg.pub_prefill = false;
        let mut m = SecureNvm::new(cfg);
        m.run(&trace);
        m.crash();
        m.recover()
    };
    let small = run_with_pub(64 * 128);
    let large = run_with_pub(512 << 10);
    assert!(large.pub_blocks_scanned > small.pub_blocks_scanned);
    assert!(large.measured_seconds > small.measured_seconds);
    assert!(small.measured_seconds >= 0.0);
}
