//! `fuzz` — the persist-trace fuzzer with three-observer cross-check.
//!
//! Hundreds of seeded, well-formed traces (clean by construction — see
//! `thoth_workloads::fuzz`) run through the real machine with crash
//! injection, and three independent observers judge each run:
//!
//! 1. **psan** — the persist-ordering sanitizer analyzes the pre-crash
//!    event stream (a clean trace must yield zero error findings, even
//!    truncated at an arbitrary crash point);
//! 2. **crashtest** — the recovery audit: crash, recover, and check the
//!    recovered state against the golden shadow heap;
//! 3. **shadow golden** — the op-log shadow heap is re-derived purely
//!    from the persist-*event* stream (acceptance + commit events) and
//!    must agree block-for-block and version-for-version with the
//!    machine's own durably-ACKed op log.
//!
//! The observers share no bookkeeping: a disagreement means one of them
//! (or the machine) is wrong. Any disagreement is shrunk to the earliest
//! failing crash ordinal on `thoth_crashtest::probe_grid` and printed as
//! a `--trace SEED:ANCHOR` recipe that replays the exact case.
//!
//! Because an all-green fuzz run would also be the signature of a blind
//! harness, every run ends with an **injected-disagreement selftest**: a
//! deliberately tampered event stream (one dropped data-acceptance
//! event) must be flagged as a disagreement and minimized; the run fails
//! if the tampering goes unnoticed.
//!
//! The fuzzer's address-overlap bias comes from real service mixes: the
//! mutate fraction of generated YCSB-A/B/F request streams sets the
//! hot-slot probability of the corresponding fuzz cases.

use crate::crashtest::sweep_modes;
use crate::runner::ExpSettings;
use crate::tablefmt::Table;
use crate::Outcome;

use thoth_crashtest::{audit_recovery, probe_grid, ShadowHeap, SweepConfig};
use thoth_psan::{check_events, BLOCK_BYTES};
use thoth_sim::{
    CrashPlan, CrashSiteKind, LoggedOp, MemoryLayout, Mode, PersistEvent, PersistEventKind,
    SecureNvm, SimConfig, WriteCategory, NO_CTX,
};
use thoth_sim_engine::DetRng;
use thoth_workloads::fuzz::{generate_fuzz, FuzzSpec};
use thoth_workloads::{generate_service, AnnotatedTrace, MixKind, MixStats, ServiceSpec};

use std::fmt::Write as _;

/// Seed salt for anchor (crash-ordinal) selection.
const ANCHOR_SALT: u64 = 0xA2C4_0FF5;

/// Seed stride for the per-mechanism batches (distinct from the main
/// sweep's stride so the batches explore different traces).
const MODE_SEED_STRIDE: u64 = 0xD6E8_FEB8_6659_FD93;

/// Cases per extension mechanism (the main sweep stays the bulk).
fn mode_case_count(quick: bool) -> usize {
    if quick {
        25
    } else {
        50
    }
}

/// The YCSB mixes whose measured stats bias the fuzz corpus.
const MIXES: [MixKind; 3] = [MixKind::A, MixKind::B, MixKind::F];

/// One case's observer verdicts.
#[derive(Debug, Clone, Copy)]
struct CaseVerdict {
    /// The planned crash point fired before the trace ended.
    fired: bool,
    /// Error findings from the sanitizer on the pre-crash stream.
    psan_errors: usize,
    /// The crash-recovery audit came back clean.
    audit_clean: bool,
    /// Event-derived shadow heap matches the op-log shadow heap.
    shadow_agrees: bool,
    /// Pre-crash persist events (diagnostic only).
    events: usize,
}

impl CaseVerdict {
    /// All three observers call the run clean.
    fn agree(&self) -> bool {
        self.psan_errors == 0 && self.audit_clean && self.shadow_agrees
    }
}

/// Per-mix aggregate of the sweep.
#[derive(Debug, Clone, Copy)]
struct MixRow {
    mix: MixKind,
    mutate_per_mille: u32,
    hot_bias_pct: u8,
    cases: usize,
    fired: usize,
    agreements: usize,
}

/// Per-mechanism aggregate of the extension batches.
#[derive(Debug, Clone, Copy)]
struct ModeRow {
    mode: Mode,
    cases: usize,
    fired: usize,
    agreements: usize,
}

/// Measures the request mix of a small service trace for `mix` — the
/// "real mix stats" that bias the fuzzer's address overlap.
fn measured_mix(mix: MixKind, seed: u64) -> MixStats {
    let mut spec = ServiceSpec::default_spec().scaled(0.05);
    spec.mix = mix;
    spec.seed = seed;
    spec.prepopulate_per_tenant = 64;
    generate_service(&spec).mix_stats()
}

/// The fuzz spec of one case: the mix (and with it the overlap bias) is
/// implied by the seed, so a `SEED:ANCHOR` recipe reconstructs the case
/// without any sweep-loop context.
fn case_spec(seed: u64, stats: &[MixStats; 3]) -> (MixKind, FuzzSpec) {
    let i = (seed % MIXES.len() as u64) as usize;
    (MIXES[i], FuzzSpec::biased(seed, &stats[i]))
}

/// Derives a shadow-heap op log purely from the persist-event stream:
/// program-attributed data acceptances become stores, commit barriers
/// become commits. Independent of the machine's own op log.
fn events_to_log(events: &[PersistEvent], layout: &MemoryLayout) -> Vec<LoggedOp> {
    let mut log = Vec::new();
    for e in events {
        if e.core == NO_CTX {
            continue;
        }
        match &e.kind {
            PersistEventKind::Accepted {
                block,
                category: WriteCategory::Data,
                ..
            } => log.push(LoggedOp::Store {
                core: e.core as usize,
                block: layout.block_index(*block),
            }),
            PersistEventKind::Commit => log.push(LoggedOp::Commit {
                core: e.core as usize,
            }),
            _ => {}
        }
    }
    log
}

/// Block-for-block, version-for-version equality of two shadow heaps
/// (both the durable and the committed view).
fn shadows_agree(a: &ShadowHeap, b: &ShadowHeap) -> bool {
    let av: Vec<(u64, u64)> = a.blocks().collect();
    let bv: Vec<(u64, u64)> = b.blocks().collect();
    av == bv
        && av
            .iter()
            .all(|&(blk, _)| a.committed_version(blk) == b.committed_version(blk))
}

/// Runs one case through the machine and all three observers.
/// `tamper` drops the last program data-acceptance event before the
/// observers see the stream — the injected-disagreement selftest.
fn run_observers(
    sim: &SimConfig,
    a: &AnnotatedTrace,
    plan: CrashPlan,
    tamper: bool,
) -> CaseVerdict {
    let mut m = SecureNvm::new(sim.clone());
    let (fired, mut events) = m.run_psan_to_crash(&a.trace, plan);
    if tamper {
        let last = events.iter().rposition(|e| {
            e.core != NO_CTX
                && matches!(
                    e.kind,
                    PersistEventKind::Accepted {
                        category: WriteCategory::Data,
                        ..
                    }
                )
        });
        if let Some(i) = last {
            events.remove(i);
        }
    }
    let layout = m.layout();
    let log = m.take_op_log();
    let golden = ShadowHeap::replay(&log);
    m.crash();
    let recovery = m.recover();
    let audit = audit_recovery(&m, &golden, &recovery, plan);
    let report = check_events(&events, &a.classes, BLOCK_BYTES as u64);
    let derived = ShadowHeap::replay(&events_to_log(&events, &layout));
    CaseVerdict {
        fired,
        psan_errors: report
            .findings
            .iter()
            .filter(|f| !f.class.is_smell())
            .count(),
        audit_clean: audit.is_clean(),
        shadow_agrees: shadows_agree(&golden, &derived),
        events: events.len(),
    }
}

/// The crash anchor of a case: a seed-derived ordinal among the trace's
/// persist crash points.
fn case_anchor(seed: u64, persists: u64) -> u64 {
    DetRng::seed_from(seed ^ ANCHOR_SALT).gen_range(persists.max(1))
}

/// Shrinks a disagreeing case to the earliest disagreeing ordinal on the
/// probe grid (ascending, so the first hit is minimal).
fn minimize_anchor(sim: &SimConfig, a: &AnnotatedTrace, anchor: u64, tamper: bool) -> u64 {
    for nth in probe_grid(anchor) {
        let plan = CrashPlan {
            site: CrashSiteKind::Persist,
            nth,
        };
        if !run_observers(sim, a, plan, tamper).agree() {
            return nth;
        }
    }
    anchor
}

/// Runs one full case from its recipe; returns the verdict and anchor.
fn run_case(sim: &SimConfig, stats: &[MixStats; 3], seed: u64, anchor: Option<u64>) -> (MixKind, u64, CaseVerdict, AnnotatedTrace) {
    let (mix, spec) = case_spec(seed, stats);
    let a = generate_fuzz(&spec);
    let persists = SecureNvm::new(sim.clone())
        .enumerate_crash_sites(&a.trace)
        .of(CrashSiteKind::Persist);
    let nth = anchor.unwrap_or_else(|| case_anchor(seed, persists));
    let plan = CrashPlan {
        site: CrashSiteKind::Persist,
        nth,
    };
    let v = run_observers(sim, &a, plan, false);
    (mix, nth, v, a)
}

/// Number of fuzz cases per run.
fn case_count(quick: bool) -> usize {
    if quick {
        200
    } else {
        400
    }
}

/// Runs the fuzz sweep (or, with `trace`, replays one case parsed by
/// [`parse_recipe`]), writes `results/fuzz.json`, and reports the
/// verdict: `ok` when every case fired its crash and all three observers
/// agreed, and the injected-disagreement selftest was caught and
/// minimized.
#[must_use]
pub fn run(settings: ExpSettings, quick: bool, trace: Option<(u64, u64, Mode)>) -> Outcome {
    let sweep_sim = SweepConfig::default();
    let sim = sweep_sim.sim_config();
    let stats: [MixStats; 3] = [
        measured_mix(MixKind::A, settings.seed),
        measured_mix(MixKind::B, settings.seed),
        measured_mix(MixKind::F, settings.seed),
    ];

    if let Some(recipe) = trace {
        return replay_trace(&stats, recipe);
    }

    let n = case_count(quick);
    let mut rows: Vec<MixRow> = MIXES
        .iter()
        .enumerate()
        .map(|(i, &mix)| MixRow {
            mix,
            mutate_per_mille: stats[i].mutate_per_mille(),
            hot_bias_pct: FuzzSpec::biased(i as u64, &stats[i]).hot_bias_pct,
            cases: 0,
            fired: 0,
            agreements: 0,
        })
        .collect();
    let mut disagreements: Vec<String> = Vec::new();

    eprintln!("[thoth-experiments] fuzz sweeping {n} seeded traces...");
    for i in 0..n {
        let seed = settings.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let (mix, anchor, v, a) = run_case(&sim, &stats, seed, None);
        let row = rows
            .iter_mut()
            .find(|r| r.mix == mix)
            .expect("every mix has a row");
        row.cases += 1;
        row.fired += usize::from(v.fired);
        if v.agree() {
            row.agreements += 1;
        } else {
            let min = minimize_anchor(&sim, &a, anchor, false);
            let recipe = format!("{seed}:{min}");
            eprintln!(
                "[thoth-experiments] fuzz DISAGREEMENT at seed {seed} anchor {anchor} \
                 (psan_errors {}, audit_clean {}, shadow {}), minimized to \
                 `thoth-experiments fuzz --trace {recipe}`",
                v.psan_errors, v.audit_clean, v.shadow_agrees
            );
            disagreements.push(recipe);
        }
    }

    // Per-mechanism batches: the same triad under every other
    // crash-recoverable mechanism. Each changes the persist schedule and
    // the recovery procedure, so a disagreement here means one broke an
    // observer's model of the machine.
    let mut mode_rows: Vec<ModeRow> = Vec::new();
    for mode in sweep_modes().into_iter().filter(|&m| m != sweep_sim.mode) {
        let mn = mode_case_count(quick);
        eprintln!(
            "[thoth-experiments] fuzz sweeping {mn} traces under {}...",
            mode.label()
        );
        let sim_m = sweep_sim.clone().with_mode(mode).sim_config();
        let mut row = ModeRow {
            mode,
            cases: 0,
            fired: 0,
            agreements: 0,
        };
        for i in 0..mn {
            let seed = settings.seed ^ (i as u64).wrapping_mul(MODE_SEED_STRIDE);
            let (_, anchor, v, a) = run_case(&sim_m, &stats, seed, None);
            row.cases += 1;
            row.fired += usize::from(v.fired);
            if v.agree() {
                row.agreements += 1;
            } else {
                let min = minimize_anchor(&sim_m, &a, anchor, false);
                let recipe = format!("{seed}:{min}:{}", mode.label());
                eprintln!(
                    "[thoth-experiments] fuzz DISAGREEMENT under {} at seed {seed} \
                     anchor {anchor} (psan_errors {}, audit_clean {}, shadow {}), minimized \
                     to `thoth-experiments fuzz --trace {recipe}`",
                    mode.label(),
                    v.psan_errors,
                    v.audit_clean,
                    v.shadow_agrees
                );
                disagreements.push(recipe);
            }
        }
        mode_rows.push(row);
    }

    // Injected-disagreement selftest: tamper with the event stream of a
    // known-clean case; the triad must notice and the minimizer must
    // shrink it (the tamper survives any crash ordinal, so the grid's
    // first probe — ordinal 0 — is the expected minimum).
    let self_seed = settings.seed;
    let (_, self_anchor, clean, a) = run_case(&sim, &stats, self_seed, None);
    let tampered = run_observers(
        &sim,
        &a,
        CrashPlan {
            site: CrashSiteKind::Persist,
            nth: self_anchor,
        },
        true,
    );
    let self_caught = clean.agree() && !tampered.agree();
    let self_min = if self_caught {
        minimize_anchor(&sim, &a, self_anchor, true)
    } else {
        self_anchor
    };
    let self_repro = format!("{self_seed}:{self_min}");
    if self_caught {
        eprintln!(
            "[thoth-experiments] fuzz selftest: injected disagreement caught and \
             minimized to anchor {self_min} (repro {self_repro})"
        );
    } else {
        eprintln!("[thoth-experiments] fuzz selftest FAILED: tampered stream went unnoticed");
    }

    let all_fired = rows.iter().all(|r| r.fired == r.cases)
        && mode_rows.iter().all(|r| r.fired == r.cases);
    let all_agree = disagreements.is_empty();
    let ok = all_fired && all_agree && self_caught && self_min <= self_anchor;

    let mut t = Table::new(
        &format!(
            "Persist-trace fuzz sweep: {n} traces, three observers (seed {:#x})",
            settings.seed
        ),
        &[
            "mix",
            "mutate/1000",
            "hot-bias %",
            "cases",
            "fired",
            "agreements",
            "verdict",
        ],
    );
    for r in &rows {
        t.row(vec![
            r.mix.name().to_owned(),
            r.mutate_per_mille.to_string(),
            r.hot_bias_pct.to_string(),
            r.cases.to_string(),
            r.fired.to_string(),
            r.agreements.to_string(),
            if r.agreements == r.cases && r.fired == r.cases {
                "agree"
            } else {
                "DISAGREE"
            }
            .to_owned(),
        ]);
    }
    let mut t_modes = Table::new(
        &format!(
            "Mechanism cross-check: {} traces per extension mode",
            mode_case_count(quick)
        ),
        &["mode", "cases", "fired", "agreements", "verdict"],
    );
    for r in &mode_rows {
        t_modes.row(vec![
            r.mode.label().to_owned(),
            r.cases.to_string(),
            r.fired.to_string(),
            r.agreements.to_string(),
            if r.agreements == r.cases && r.fired == r.cases {
                "agree"
            } else {
                "DISAGREE"
            }
            .to_owned(),
        ]);
    }
    let mut t_self = Table::new(
        "Injected-disagreement selftest (dropped data-acceptance event)",
        &["case", "anchor", "caught", "minimized anchor", "repro"],
    );
    t_self.row(vec![
        format!("seed {self_seed}"),
        self_anchor.to_string(),
        if self_caught { "yes" } else { "NO" }.to_owned(),
        self_min.to_string(),
        self_repro.clone(),
    ]);

    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write(
        "results/fuzz.json",
        to_json(
            settings,
            quick,
            &rows,
            &mode_rows,
            &disagreements,
            self_caught,
            self_anchor,
            self_min,
            &self_repro,
            ok,
        ),
    )
    .expect("write results/fuzz.json");
    eprintln!("[thoth-experiments] wrote results/fuzz.json");

    Outcome {
        tables: vec![t, t_modes, t_self],
        ok,
    }
}

/// Parses a `SEED:ANCHOR[:MODE]` repro recipe (the one a minimized
/// disagreement prints; MODE defaults to thoth-wtsc). `None` when a part
/// is missing or malformed.
#[must_use]
pub fn parse_recipe(recipe: &str) -> Option<(u64, u64, Mode)> {
    let mut parts = recipe.splitn(3, ':');
    let seed = parts.next()?.trim().parse().ok()?;
    let anchor = parts.next()?.trim().parse().ok()?;
    let mode = match parts.next() {
        Some(label) => *Mode::ALL.iter().find(|m| m.label() == label.trim())?,
        None => Mode::thoth_wtsc(),
    };
    Some((seed, anchor, mode))
}

/// Replays one recipe's case verbosely.
fn replay_trace(stats: &[MixStats; 3], (seed, anchor, mode): (u64, u64, Mode)) -> Outcome {
    let sim = SweepConfig::default().with_mode(mode).sim_config();
    let (mix, nth, v, _) = run_case(&sim, stats, seed, Some(anchor));
    let mut t = Table::new(
        &format!(
            "Fuzz case replay: seed {seed}, crash anchor persist:{nth}, mode {}",
            mode.label()
        ),
        &["mix", "fired", "events", "psan errors", "audit", "shadow", "verdict"],
    );
    t.row(vec![
        mix.name().to_owned(),
        v.fired.to_string(),
        v.events.to_string(),
        v.psan_errors.to_string(),
        if v.audit_clean { "clean" } else { "DIRTY" }.to_owned(),
        if v.shadow_agrees { "match" } else { "MISMATCH" }.to_owned(),
        if v.agree() { "agree" } else { "DISAGREE" }.to_owned(),
    ]);
    Outcome {
        tables: vec![t],
        ok: v.agree(),
    }
}

/// Serializes the run as JSON (hand-rolled — no serializer dependency by
/// design; see DESIGN.md §5).
#[allow(clippy::too_many_arguments)]
fn to_json(
    settings: ExpSettings,
    quick: bool,
    rows: &[MixRow],
    mode_rows: &[ModeRow],
    disagreements: &[String],
    self_caught: bool,
    self_anchor: u64,
    self_min: u64,
    self_repro: &str,
    ok: bool,
) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(
        s,
        "  \"config\": {{ \"seed\": {}, \"quick\": {}, \"cases\": {} }},",
        settings.seed,
        quick,
        rows.iter().map(|r| r.cases).sum::<usize>()
    );
    s.push_str("  \"mixes\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            s,
            "    {{ \"mix\": \"{}\", \"mutate_per_mille\": {}, \"hot_bias_pct\": {}, \
             \"cases\": {}, \"fired\": {}, \"agreements\": {} }}",
            r.mix.name(),
            r.mutate_per_mille,
            r.hot_bias_pct,
            r.cases,
            r.fired,
            r.agreements
        );
        s.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n  \"mode_sweeps\": [\n");
    for (i, r) in mode_rows.iter().enumerate() {
        let _ = write!(
            s,
            "    {{ \"mode\": \"{}\", \"cases\": {}, \"fired\": {}, \"agreements\": {} }}",
            r.mode.label(),
            r.cases,
            r.fired,
            r.agreements
        );
        s.push_str(if i + 1 < mode_rows.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n  \"disagreements\": [");
    for (i, d) in disagreements.iter().enumerate() {
        let _ = write!(s, "\"{d}\"");
        if i + 1 < disagreements.len() {
            s.push_str(", ");
        }
    }
    s.push_str("],\n");
    let _ = writeln!(
        s,
        "  \"selftest\": {{ \"injected\": true, \"caught\": {self_caught}, \
         \"anchor\": {self_anchor}, \"minimized_anchor\": {self_min}, \
         \"repro\": \"{self_repro}\" }},"
    );
    let _ = writeln!(s, "  \"ok\": {ok}\n}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_log_folds_acceptances_and_commits() {
        let layout = SecureNvm::new(SweepConfig::default().sim_config()).layout();
        let ev = |core: u32, kind: PersistEventKind| PersistEvent {
            seq: 0,
            core,
            op: 0,
            kind,
        };
        let accept = |core: u32, block: u64, category: WriteCategory| {
            ev(
                core,
                PersistEventKind::Accepted {
                    block,
                    category,
                    coalesced: false,
                },
            )
        };
        let b0 = layout.block_index(0);
        let events = vec![
            accept(0, 0, WriteCategory::Data),
            accept(0, 0, WriteCategory::CounterBlock), // metadata: ignored
            accept(NO_CTX, 128, WriteCategory::Data),  // background: ignored
            ev(0, PersistEventKind::Commit),
            ev(1, PersistEventKind::Fence), // no log entry
        ];
        let log = events_to_log(&events, &layout);
        assert_eq!(
            log,
            vec![
                LoggedOp::Store { core: 0, block: b0 },
                LoggedOp::Commit { core: 0 }
            ]
        );
    }

    #[test]
    fn shadow_agreement_is_exact() {
        let s = |core: usize, block: u64| LoggedOp::Store { core, block };
        let c = |core: usize| LoggedOp::Commit { core };
        let a = ShadowHeap::replay(&[s(0, 1), s(0, 1), c(0)]);
        let b = ShadowHeap::replay(&[s(0, 1), s(0, 1), c(0)]);
        assert!(shadows_agree(&a, &b));
        // A dropped store (lower version) must break agreement.
        let short = ShadowHeap::replay(&[s(0, 1), c(0)]);
        assert!(!shadows_agree(&a, &short));
        // Same durable view but a dropped commit must break agreement.
        let uncommitted = ShadowHeap::replay(&[s(0, 1), s(0, 1)]);
        assert!(!shadows_agree(&a, &uncommitted));
    }

    #[test]
    fn mix_and_spec_derive_from_the_seed_alone() {
        let stats = [
            MixStats {
                reads: 500,
                updates: 500,
                rmws: 0,
            },
            MixStats {
                reads: 950,
                updates: 50,
                rmws: 0,
            },
            MixStats {
                reads: 500,
                updates: 0,
                rmws: 500,
            },
        ];
        let (m1, s1) = case_spec(7, &stats);
        let (m2, s2) = case_spec(7, &stats);
        assert_eq!(m1, m2);
        assert_eq!(s1, s2);
        // Seeds cover all three mixes.
        let mixes: Vec<MixKind> = (0..3).map(|s| case_spec(s, &stats).0).collect();
        assert!(MIXES.iter().all(|m| mixes.contains(m)));
    }

    #[test]
    fn triad_agrees_on_a_clean_case_and_flags_tampering() {
        let sweep = SweepConfig::default();
        let sim = sweep.sim_config();
        let a = generate_fuzz(&FuzzSpec::quick(99));
        let persists = SecureNvm::new(sim.clone())
            .enumerate_crash_sites(&a.trace)
            .of(CrashSiteKind::Persist);
        assert!(persists > 0);
        let plan = CrashPlan {
            site: CrashSiteKind::Persist,
            nth: persists / 2,
        };
        let clean = run_observers(&sim, &a, plan, false);
        assert!(clean.fired);
        assert!(clean.agree(), "{clean:?}");
        let tampered = run_observers(&sim, &a, plan, true);
        assert!(!tampered.agree(), "tampering must be caught: {tampered:?}");
        // The tamper survives every ordinal, so the minimizer lands on
        // the grid's first probe.
        assert_eq!(minimize_anchor(&sim, &a, plan.nth, true), 0);
    }

    #[test]
    fn json_is_balanced_and_carries_the_verdict() {
        let rows = vec![MixRow {
            mix: MixKind::B,
            mutate_per_mille: 50,
            hot_bias_pct: 10,
            cases: 3,
            fired: 3,
            agreements: 3,
        }];
        let mode_rows = vec![ModeRow {
            mode: Mode::phoenix(),
            cases: 2,
            fired: 2,
            agreements: 2,
        }];
        let j = to_json(
            ExpSettings::quick(),
            true,
            &rows,
            &mode_rows,
            &["1:0".to_owned()],
            true,
            9,
            0,
            "42:0",
            false,
        );
        thoth_telemetry::json::validate(&j).expect("valid JSON");
        assert!(j.contains("\"mix\": \"ycsb-b\""));
        assert!(j.contains("\"mode\": \"phoenix\""));
        assert!(j.contains("\"disagreements\": [\"1:0\"]"));
        assert!(j.contains("\"minimized_anchor\": 0"));
        assert!(j.contains("\"ok\": false"));
    }
}
