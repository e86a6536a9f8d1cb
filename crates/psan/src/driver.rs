//! Workload driver: generates (or takes) traces, runs them through the
//! instrumented simulator, and feeds the event stream to the checker.

use std::sync::Arc;

use crate::checker::{check_events, PsanReport};
use crate::finding::{Finding, FindingClass};
use thoth_sim::{
    FunctionalMode, Mode, PersistEvent, PersistEventKind, SecureNvm, SimConfig, SimReport, NO_CTX,
};
use thoth_workloads::{
    corpus, AnnotatedTrace, BugSite, MultiCoreTrace, OpClass, RaceAlignment, SeededBug,
    SeededVariant, WorkloadConfig, WorkloadKind,
};

/// Block size every sanitizer run uses (the paper's emerging-NVM block).
pub const BLOCK_BYTES: usize = 128;

/// Default trace scale for sanitizer runs: small enough to be quick,
/// large enough to exercise PUB appends and evictions.
pub const DEFAULT_SCALE: f64 = 0.02;

/// The modes with a persist path, in [`Mode::ALL`] order: every mode but
/// eADR, whose in-domain caches make every store durable at issue, so the
/// persist-event lifecycle the checker replays never forms. A clean trace
/// must check clean under each of them.
pub fn persisting_modes() -> impl Iterator<Item = Mode> {
    Mode::ALL.into_iter().filter(|&m| m != Mode::Eadr)
}

/// One analyzed execution: the simulator's report plus the checker's.
#[derive(Debug)]
pub struct PsanRun {
    /// Timing/traffic report of the instrumented run.
    pub sim: SimReport,
    /// The sanitizer verdict.
    pub report: PsanReport,
}

/// The simulator configuration sanitizer runs use under `mode`: fast
/// functional mode (the checker needs event structure, not real bytes),
/// a small PUB so eviction traffic appears, and no PUB prefill (prefill
/// bypasses the instrumented append path).
#[must_use]
pub fn sim_config_for(mode: Mode) -> SimConfig {
    let mut cfg = SimConfig::paper_default(mode, BLOCK_BYTES);
    cfg.functional = FunctionalMode::Fast;
    cfg.pub_prefill = false;
    cfg.pub_size_bytes = 64 << 10;
    cfg
}

/// Workload configuration for sanitizer runs at `scale`.
#[must_use]
pub fn workload_config(kind: WorkloadKind, scale: f64) -> WorkloadConfig {
    WorkloadConfig::paper_default(kind).scaled(scale)
}

/// Runs `trace` through the instrumented simulator under `mode` and
/// checks the event stream against the trace's per-op `classes`. The raw
/// event stream comes back too, so callers can establish schedule-level
/// ground truth (see [`race_manifested`]).
#[must_use]
pub fn analyze(
    trace: &MultiCoreTrace,
    classes: &[Arc<[OpClass]>],
    mode: Mode,
) -> (PsanRun, Vec<PersistEvent>) {
    let (sim, events) = SecureNvm::new(sim_config_for(mode)).run_psan(trace);
    let report = check_events(&events, classes, BLOCK_BYTES as u64);
    (PsanRun { sim, report }, events)
}

/// Schedule-level ground truth for a planted cross-core race: true when
/// two different cores persisted (or covered) the block of `site_addr`
/// with no WPQ drain of that block between them — the co-residency the
/// race checkers key on.
///
/// A planted race is a property of the *observed schedule*, exactly as
/// for a dynamic data-race detector: mechanisms with heavy strict
/// metadata traffic (Freij strict subtree persistence) keep the WPQ at
/// its drain threshold, and a drain of the victim block between the
/// racing persists publishes their order — the race never happened in
/// that execution, and the checker owes no finding. Corpus drivers use
/// this to tell a closed race window (variant ineligible under the
/// mechanism) from a genuine detector miss.
#[must_use]
pub fn race_manifested(events: &[PersistEvent], site_addr: u64) -> bool {
    let bb = BLOCK_BYTES as u64;
    let block = site_addr - site_addr % bb;
    let mut pending: Option<u32> = None;
    for e in events {
        let touched = match &e.kind {
            PersistEventKind::Accepted { block: b, .. }
            | PersistEventKind::MetaCover { block: b, .. } => *b == block,
            PersistEventKind::Drained { block: b, .. } if *b == block => {
                pending = None;
                false
            }
            _ => false,
        };
        if touched && e.core != NO_CTX {
            match pending {
                Some(c) if c != e.core => return true,
                Some(_) => {}
                None => pending = Some(e.core),
            }
        }
    }
    false
}

/// Builds the execution-order alignment table the cross-core corpus
/// bugs need, from a pilot instrumented run of the clean trace under
/// `mode`: for each `(core, op)`, the sequence number of its first
/// persist event (`u64::MAX` for ops that emitted none). Event sequence
/// numbers are mechanism-dependent (each mode emits a different metadata
/// persist schedule), so cross-core plantings need a pilot run under the
/// same mode the variant will be analyzed under.
#[must_use]
pub fn alignment_for_under(trace: &MultiCoreTrace, mode: Mode) -> RaceAlignment {
    let mut machine = SecureNvm::new(sim_config_for(mode));
    let (_, events) = machine.run_psan(trace);
    let mut first_seq: Vec<Vec<u64>> = trace
        .cores
        .iter()
        .map(|ops| vec![u64::MAX; ops.len()])
        .collect();
    for e in &events {
        if e.core == NO_CTX {
            continue;
        }
        let (c, o) = (e.core as usize, e.op as usize);
        if c < first_seq.len() && o < first_seq[c].len() && first_seq[c][o] == u64::MAX {
            first_seq[c][o] = e.seq;
        }
    }
    RaceAlignment { first_seq }
}

/// Seeds `bug` into `annotated`, running an alignment pilot under `mode`
/// first when the bug plants a racing op on a second core. Prefer this
/// over [`thoth_workloads::corpus::seed_bug`] whenever the variant will
/// be replayed through the simulator (by [`analyze`] under the same
/// `mode`).
#[must_use]
pub fn seed_variant_under(
    annotated: &AnnotatedTrace,
    bug: SeededBug,
    seed: u64,
    mode: Mode,
) -> Option<SeededVariant> {
    let align = bug
        .is_cross_core()
        .then(|| alignment_for_under(&annotated.trace, mode));
    corpus::seed_bug_with(annotated, bug, seed, BLOCK_BYTES as u64, align.as_ref())
}

/// The finding class each seeded bug primarily produces: the first of
/// its [`acceptable_classes`].
#[must_use]
pub fn expected_class(bug: SeededBug) -> FindingClass {
    acceptable_classes(bug)[0]
}

/// Every finding class that proves `bug` was caught, the primary one
/// first. Most bugs have exactly one; a relaxed steal is
/// schedule-dependent — when a peer store makes contact inside the
/// victim's pre-commit window the verdict is fence elision, and when no
/// peer connects the same defect (a store whose durability edge was
/// removed) surfaces as a plain durability bug at commit. Both attribute
/// to the planted store.
#[must_use]
pub fn acceptable_classes(bug: SeededBug) -> &'static [FindingClass] {
    match bug {
        SeededBug::RelaxedSteal => &[FindingClass::FenceElision, FindingClass::Durability],
        SeededBug::DroppedFlush => &[FindingClass::Durability],
        SeededBug::SwappedLogData => &[FindingClass::Ordering],
        SeededBug::DoubleFlush => &[FindingClass::RedundantFlush],
        SeededBug::UnfencedCounter | SeededBug::SwappedDrainOrder => {
            &[FindingClass::CrossCoreRace]
        }
        SeededBug::CoverOverlap => &[FindingClass::StaleCoverOverlap],
    }
}

/// True when `f` attributes to exactly the planted site: same core, same
/// op index, and the same address at block granularity (flush findings
/// name the block-aligned address of a possibly unaligned store).
#[must_use]
pub fn finding_matches_site(f: &Finding, site: &BugSite) -> bool {
    let bb = BLOCK_BYTES as u64;
    f.core as usize == site.core
        && f.op as usize == site.op
        && (f.addr == site.addr || f.addr == site.addr - site.addr % bb)
}

/// The finding that proves `v` was caught: an acceptable class
/// ([`acceptable_classes`]) at exactly the planted site.
#[must_use]
pub fn detection<'a>(run: &'a PsanRun, v: &SeededVariant) -> Option<&'a Finding> {
    let want = acceptable_classes(v.bug);
    run.report
        .findings
        .iter()
        .find(|f| want.contains(&f.class) && finding_matches_site(f, &v.site))
}
