//! The crash-sweep engine.
//!
//! For one workload, [`sweep_workload`] enumerates every crash point the
//! trace exposes (via `SecureNvm::enumerate_crash_sites`), samples a
//! reproducible subset per site kind, and runs
//! crash → recover → [`audit_recovery`] for each sampled point. Any
//! failure is minimized to the earliest failing ordinal on a
//! `{0, 1, 2, 4, 8, …}` probe grid, so the repro recipe is always the
//! cheapest one available.
//!
//! Everything is seeded: the trace, the sample choice, and the fault
//! model all derive from [`SweepConfig::seed`], so a `(workload, seed,
//! crash-point label)` triple replays bit-identically.

use crate::audit::{audit_recovery, AuditReport};
use crate::shadow::ShadowHeap;

use thoth_nvm::fault::TORN_WRITE_UNIT;
use thoth_nvm::{FaultConfig, WriteCategory};
use thoth_sim::{
    byte_digest, CrashPlan, CrashSiteCounts, CrashSiteKind, FunctionalMode, Mode, SecureNvm,
    SimConfig,
};
use thoth_sim_engine::DetRng;
use thoth_workloads::{spec, MultiCoreTrace, WorkloadConfig, WorkloadKind};

/// Configuration of one crash sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Seed for trace generation, crash-point sampling, and fault choices.
    pub seed: u64,
    /// Workload scale factor (kept small: every sampled point replays the
    /// whole trace up to the crash).
    pub scale: f64,
    /// Crash points sampled per workload, spread round-robin across the
    /// site kinds the workload exposes.
    pub samples_per_workload: usize,
    /// Fault model applied at each injected crash. Default = disabled:
    /// the sweep must then recover every point cleanly.
    pub faults: FaultConfig,
    /// Metadata-persistence mechanism the swept machine runs. Default:
    /// Thoth/WTSC, the historical sweep target; recovery audits must
    /// also pass under every other mechanism's recovery procedure.
    pub mode: Mode,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            seed: 0xC0FFEE,
            scale: 0.02,
            samples_per_workload: 8,
            faults: FaultConfig::default(),
            mode: Mode::thoth_wtsc(),
        }
    }
}

impl SweepConfig {
    /// The CI smoke configuration: a handful of points per workload.
    #[must_use]
    pub fn quick() -> Self {
        SweepConfig {
            samples_per_workload: 3,
            ..SweepConfig::default()
        }
    }

    /// This configuration retargeted at `mode`.
    #[must_use]
    pub fn with_mode(self, mode: Mode) -> Self {
        SweepConfig { mode, ..self }
    }

    /// The simulator configuration crash sweeps run under: full functional
    /// mode (real ciphertext/MAC/tree state), no PUB prefill, and a small
    /// PUB with a low eviction threshold so tiny traces still exercise the
    /// mid-eviction (`meta-persist`) crash window.
    #[must_use]
    pub fn sim_config(&self) -> SimConfig {
        let mut cfg = SimConfig::paper_default(self.mode, 128);
        cfg.functional = FunctionalMode::Full;
        cfg.pub_prefill = false;
        cfg.pub_size_bytes = 8 << 10;
        cfg.pub_threshold_pct = 20;
        cfg
    }

    /// Generates the trace for `kind` ([`WorkloadConfig::at_scale`]: the
    /// experiment runner's configuration, 128 B transactions and the
    /// quick-mode footprint shrink included, so sweeps stay fast).
    #[must_use]
    pub fn trace(&self, kind: WorkloadKind) -> MultiCoreTrace {
        let mut cfg = WorkloadConfig::at_scale(kind, self.scale);
        cfg.seed = self.seed;
        spec::generate(cfg)
    }
}

/// One crash point: injected, recovered, audited.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// Workload the trace came from.
    pub workload: WorkloadKind,
    /// The injected crash point.
    pub plan: CrashPlan,
    /// Did the trace actually reach the point? (Sampled points always do;
    /// explicit `--point` reproductions may overshoot the trace.)
    pub fired: bool,
    /// Was a fault model active at the crash?
    pub faults_active: bool,
    /// The audit verdict ([`AuditReport::passed`]).
    pub passed: bool,
    /// The full audit.
    pub audit: AuditReport,
}

/// The outcome of sweeping one workload.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Workload swept.
    pub workload: WorkloadKind,
    /// Crash points the trace exposes, per site kind.
    pub counts: CrashSiteCounts,
    /// Sampled cases, in sample order.
    pub cases: Vec<CaseResult>,
    /// Earliest failing crash point found by minimization, if any case
    /// failed.
    pub minimized: Option<CrashPlan>,
}

impl SweepResult {
    /// `true` when every sampled case passed its audit.
    #[must_use]
    pub fn all_passed(&self) -> bool {
        self.cases.iter().all(|c| c.passed)
    }

    /// Number of failing cases.
    #[must_use]
    pub fn failures(&self) -> usize {
        self.cases.iter().filter(|c| !c.passed).count()
    }
}

/// Runs a single crash → recover → audit cycle for one planned point.
#[must_use]
pub fn run_case(
    sim: &SimConfig,
    trace: &MultiCoreTrace,
    workload: WorkloadKind,
    plan: CrashPlan,
    faults: &FaultConfig,
) -> CaseResult {
    let mut m = SecureNvm::new(sim.clone());
    let fired = m.run_to_crash(trace, plan);
    let shadow = ShadowHeap::replay(&m.take_op_log());
    m.crash_with(faults);
    let recovery = m.recover();
    let audit = audit_recovery(&m, &shadow, &recovery, plan);
    let faults_active = faults.is_active();
    CaseResult {
        workload,
        plan,
        fired,
        faults_active,
        passed: audit.passed(faults_active),
        audit,
    }
}

/// Samples up to `samples` distinct crash points, round-robin across site
/// kinds so every exposed kind is represented.
fn sample_points(counts: &CrashSiteCounts, samples: usize, rng: &mut DetRng) -> Vec<CrashPlan> {
    let mut chosen: [std::collections::BTreeSet<u64>; 4] = Default::default();
    let mut out = Vec::new();
    while out.len() < samples {
        let mut progressed = false;
        for site in CrashSiteKind::ALL {
            if out.len() >= samples {
                break;
            }
            let n = counts.of(site);
            let set = &mut chosen[site.index()];
            if set.len() as u64 >= n {
                continue;
            }
            // Rejection-sample an unused ordinal: a free one exists.
            loop {
                let nth = rng.gen_range(n);
                if set.insert(nth) {
                    out.push(CrashPlan { site, nth });
                    break;
                }
            }
            progressed = true;
        }
        if !progressed {
            break;
        }
    }
    out
}

/// The minimization probe grid: `{0, 1, 2, 4, 8, …}` strictly below
/// `nth`, ascending. Public so other harnesses (the persist-trace
/// fuzzer's disagreement minimizer) shrink with the same earliest-first
/// discipline: the grid is ascending, so the first ordinal that still
/// fails is the minimal repro the grid can produce.
#[must_use]
pub fn probe_grid(nth: u64) -> Vec<u64> {
    let mut grid = Vec::new();
    let mut v = 0u64;
    while v < nth {
        grid.push(v);
        v = if v == 0 { 1 } else { v.saturating_mul(2) };
    }
    grid
}

/// Shrinks a failing case to the earliest failing ordinal on the probe
/// grid (the grid is ascending, so the first failure is the minimum).
fn minimize(
    sim: &SimConfig,
    trace: &MultiCoreTrace,
    failing: &CaseResult,
    faults: &FaultConfig,
) -> CrashPlan {
    for nth in probe_grid(failing.plan.nth) {
        let plan = CrashPlan {
            site: failing.plan.site,
            nth,
        };
        if !run_case(sim, trace, failing.workload, plan, faults).passed {
            return plan;
        }
    }
    failing.plan
}

/// Sweeps one workload: enumerate, sample, inject, recover, audit, and
/// minimize the first failure (if any).
#[must_use]
pub fn sweep_workload(kind: WorkloadKind, cfg: &SweepConfig) -> SweepResult {
    let trace = cfg.trace(kind);
    let sim = cfg.sim_config();
    let counts = SecureNvm::new(sim.clone()).enumerate_crash_sites(&trace);
    let mut rng = DetRng::seed_from(cfg.seed ^ byte_digest(kind.name().as_bytes()));
    let plans = sample_points(&counts, cfg.samples_per_workload, &mut rng);
    let cases: Vec<CaseResult> = plans
        .iter()
        .map(|&plan| run_case(&sim, &trace, kind, plan, &cfg.faults))
        .collect();
    let minimized = cases
        .iter()
        .find(|c| !c.passed)
        .map(|c| minimize(&sim, &trace, c, &cfg.faults));
    SweepResult {
        workload: kind,
        counts,
        cases,
        minimized,
    }
}

/// Proves the oracle can actually see corruption: after a clean
/// crash + recovery, a deliberately torn counter-block write — with **no**
/// recovery replay afterwards — must fail per-block authentication and
/// show up in the leaf diagnostics. A blind oracle would pass sweeps
/// vacuously; this rules that out.
///
/// Returns a description of the first check that did not behave.
pub fn oracle_selftest(cfg: &SweepConfig) -> Result<(), String> {
    let kind = WorkloadKind::Swap;
    let trace = cfg.trace(kind);
    let sim = cfg.sim_config();
    let counts = SecureNvm::new(sim.clone()).enumerate_crash_sites(&trace);
    let persists = counts.of(CrashSiteKind::Persist);
    if persists == 0 {
        return Err("selftest trace exposes no persist crash points".into());
    }
    let plan = CrashPlan {
        site: CrashSiteKind::Persist,
        nth: persists / 2,
    };

    let mut m = SecureNvm::new(sim);
    if !m.run_to_crash(&trace, plan) {
        return Err(format!("crash point {} did not fire", plan.label()));
    }
    let shadow = ShadowHeap::replay(&m.take_op_log());
    m.crash();
    let recovery = m.recover();
    let audit = audit_recovery(&m, &shadow, &recovery, plan);
    if !audit.is_clean() {
        return Err(format!(
            "fault-free baseline not clean at {}:\n{}",
            plan.label(),
            audit.diagnostics
        ));
    }

    // Tear one written block's counter in place through the fault-model
    // write path: bump the block's persisted minor counter and persist
    // only the prefix units that carry the change, leaving the recovered
    // state otherwise untouched. Prefer a victim whose minor lives inside
    // the first 64 B unit (a genuinely partial write).
    let written = m.written_blocks();
    if written.is_empty() {
        return Err("no blocks written before the crash".into());
    }
    let layout = m.layout();
    let mut injection: Option<(u64, Vec<u8>, usize)> = None;
    for &(block, _) in &written {
        let (cb, group, slot) = layout.ctr_location(block);
        let image = m.nvm().read_block(cb);
        let geometry = layout.ctr_geometry;
        let minor = geometry.minor(&image, group, slot);
        let mut modified = image.clone();
        geometry.normalize(&mut modified);
        geometry.set_minor(&mut modified, group, slot, (minor + 1) & 0x7F);
        let max_diff = image
            .iter()
            .zip(&modified)
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(i, _)| i)
            .max()
            .expect("bumped minor must change the image");
        let prefix = (max_diff / TORN_WRITE_UNIT + 1) * TORN_WRITE_UNIT;
        let better = injection.as_ref().is_none_or(|(_, _, p)| prefix < *p);
        if better {
            injection = Some((cb, modified, prefix));
        }
        if prefix == TORN_WRITE_UNIT {
            break; // best case: the tear fits in the first unit
        }
    }
    let (cb, modified, prefix) = injection.expect("written is non-empty");
    m.nvm_mut()
        .write_block_torn(cb, &modified, prefix, WriteCategory::CounterBlock);

    let auth_failures = m
        .written_blocks()
        .iter()
        .filter(|&&(b, _)| m.authenticate_persisted(b).is_err())
        .count();
    if auth_failures == 0 {
        return Err("torn counter-block write went undetected by authentication".into());
    }
    if m.leaf_mismatches().is_empty() {
        return Err("torn counter-block write invisible to leaf diagnostics".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_grid_is_ascending_powers() {
        assert_eq!(probe_grid(0), Vec::<u64>::new());
        assert_eq!(probe_grid(1), vec![0]);
        assert_eq!(probe_grid(9), vec![0, 1, 2, 4, 8]);
        assert_eq!(probe_grid(8), vec![0, 1, 2, 4]);
    }

    #[test]
    fn sampling_is_reproducible_and_distinct() {
        let counts = CrashSiteCounts([100, 50, 20, 10]);
        let a = sample_points(&counts, 12, &mut DetRng::seed_from(7));
        let b = sample_points(&counts, 12, &mut DetRng::seed_from(7));
        assert_eq!(a.len(), 12);
        assert_eq!(a, b);
        let mut labels: Vec<String> = a.iter().map(CrashPlan::label).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 12, "sampled points must be distinct");
    }

    #[test]
    fn sampling_caps_at_available_points() {
        let counts = CrashSiteCounts([2, 1, 0, 0]);
        let a = sample_points(&counts, 16, &mut DetRng::seed_from(1));
        assert_eq!(a.len(), 3, "only three points exist");
        assert!(a.iter().all(|p| p.site != CrashSiteKind::PubAppend));
    }

    #[test]
    fn clean_sweep_passes_and_reproduces() {
        let cfg = SweepConfig::quick();
        let a = sweep_workload(WorkloadKind::Swap, &cfg);
        assert!(a.all_passed(), "fault-free sweep must recover cleanly");
        assert_eq!(a.minimized, None);
        assert!(!a.cases.is_empty());
        assert!(a.cases.iter().all(|c| c.fired));
        let b = sweep_workload(WorkloadKind::Swap, &cfg);
        assert_eq!(a.cases.len(), b.cases.len());
        for (x, y) in a.cases.iter().zip(&b.cases) {
            assert_eq!(x.plan, y.plan);
            assert_eq!(x.passed, y.passed);
        }
    }

    #[test]
    fn faulted_sweep_detects_but_never_silently_corrupts() {
        let mut cfg = SweepConfig::quick();
        cfg.faults = FaultConfig {
            torn_crash_writes: true,
            drop_uncommitted_wpq: true,
            crash_bit_flips: 4,
            seed: 0xD15EA5E,
        };
        let r = sweep_workload(WorkloadKind::Swap, &cfg);
        assert!(
            r.cases.iter().all(|c| !c.audit.silent_corruption()),
            "faults may corrupt but never silently"
        );
        assert!(
            r.cases.iter().any(|c| c.audit.corruption_detected()),
            "an all-faults crash should trip at least one detector"
        );
    }

    #[test]
    fn oracle_selftest_catches_torn_counter_writes() {
        oracle_selftest(&SweepConfig::quick()).expect("oracle selftest");
    }

    #[test]
    fn clean_sweeps_pass_under_every_extension_mechanism() {
        // Phoenix reconstructs the MAC region at recovery; the Freij
        // variants persist strictly and recover trivially. All three
        // must audit clean at every sampled crash point, like the
        // default Thoth sweep.
        for mode in [Mode::phoenix(), Mode::freij_strict(), Mode::freij_lazy()] {
            let cfg = SweepConfig::quick().with_mode(mode);
            let r = sweep_workload(WorkloadKind::Swap, &cfg);
            assert!(
                r.all_passed(),
                "{} sweep failed: {:?}",
                mode.label(),
                r.minimized
            );
            assert!(!r.cases.is_empty());
            assert!(r.cases.iter().all(|c| c.fired));
        }
    }

    #[test]
    fn phoenix_oracle_selftest_catches_torn_counter_node() {
        // The decisive Phoenix case: its recovery rebuilds first-level
        // MACs from the persisted counters, so a torn counter-node
        // write after recovery must still fail authentication against
        // the reconstructed MAC region (and show in leaf diagnostics) —
        // the reconstruction must not launder tampered counters.
        oracle_selftest(&SweepConfig::quick().with_mode(Mode::phoenix()))
            .expect("phoenix oracle selftest");
    }

    #[test]
    fn freij_oracle_selftest_catches_torn_counter_node() {
        for mode in [Mode::freij_strict(), Mode::freij_lazy()] {
            oracle_selftest(&SweepConfig::quick().with_mode(mode))
                .unwrap_or_else(|e| panic!("{} oracle selftest: {e}", mode.label()));
        }
    }
}
