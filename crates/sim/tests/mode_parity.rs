//! Mode-parity regression: a change meant only for speed or structure
//! must leave every mode's simulated behaviour bit-identical. These
//! tests replay the quick headline matrix (5 workloads × {128, 256} B at
//! scale 0.02, seed 0xC0FFEE) and fold the per-run digests with
//! `matrix_digest`, as `thoth-experiments` does.
//!
//! All eight modes are pinned: the four paper modes to the digest the
//! perf gate in `ci.sh` checks, the four extension mechanisms (eADR,
//! Phoenix, Freij strict/lazy) to a digest of their own. A change that
//! is *meant* to alter a schedule re-pins the affected digest here and
//! says so, with the reason, in CHANGES.md.

use thoth_sim::{matrix_digest, run_trace, MatrixRuns, Mode, SimConfig};
use thoth_workloads::{spec, MultiCoreTrace, WorkloadConfig, WorkloadKind};

/// The pinned digest of the quick headline matrix (see `ci.sh`'s perf
/// gate and `CHANGES.md`): any drift here means an existing mode's
/// behavior changed.
const GOLDEN_QUICK_DIGEST: u64 = 0xaa9d_df0c_ed97_6c32;

/// The pinned digest of the same quick matrix over the four extension
/// modes (eadr, phoenix, freij-strict, freij-lazy).
const EXTENSION_QUICK_DIGEST: u64 = 0x56ed_eaff_6050_61b1;

/// The trace `ExpSettings::quick()` + `ExpSettings::workload` build in
/// `thoth-experiments`: `WorkloadConfig::at_scale` at scale 0.02 (seed
/// 0xC0FFEE, tx 128 B, the quick-mode footprint shrink).
fn quick_trace(kind: WorkloadKind) -> MultiCoreTrace {
    spec::generate(WorkloadConfig::at_scale(kind, 0.02))
}

fn run_matrix(modes: &[Mode]) -> MatrixRuns {
    let mut runs = MatrixRuns::new();
    for kind in WorkloadKind::ALL {
        let trace = quick_trace(kind);
        for block in [128usize, 256] {
            for &mode in modes {
                let report = run_trace(&SimConfig::paper_default(mode, block), &trace);
                runs.insert(
                    (kind.name().to_owned(), block, mode.label().to_owned()),
                    report,
                );
            }
        }
    }
    runs
}

#[test]
fn existing_modes_reproduce_the_golden_quick_matrix_digest() {
    let runs = run_matrix(&[
        Mode::baseline(),
        Mode::thoth_wtsc(),
        Mode::thoth_wtbc(),
        Mode::AnubisEcc,
    ]);
    assert_eq!(runs.len(), WorkloadKind::ALL.len() * 2 * 4);
    assert_eq!(
        matrix_digest(&runs),
        GOLDEN_QUICK_DIGEST,
        "the mechanism seam changed an existing mode's observable behavior"
    );
}

#[test]
fn extension_modes_reproduce_their_pinned_quick_matrix_digest() {
    let runs = run_matrix(&[
        Mode::eadr(),
        Mode::phoenix(),
        Mode::freij_strict(),
        Mode::freij_lazy(),
    ]);
    assert_eq!(runs.len(), WorkloadKind::ALL.len() * 2 * 4);
    let digest = matrix_digest(&runs);
    assert_eq!(
        digest, EXTENSION_QUICK_DIGEST,
        "an extension mode's observable behavior changed (got {digest:#018x})"
    );
}

#[test]
fn extension_modes_are_deterministic() {
    let modes = [Mode::phoenix(), Mode::freij_strict(), Mode::freij_lazy()];
    let trace = quick_trace(WorkloadKind::Hashmap);
    for mode in modes {
        let cfg = SimConfig::paper_default(mode, 128);
        let a = run_trace(&cfg, &trace);
        let b = run_trace(&cfg, &trace);
        assert_eq!(a.digest(), b.digest(), "{} must replay identically", mode.label());
        assert!(a.writes_total() > 0);
    }
}
