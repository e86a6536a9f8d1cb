//! End-to-end sanitizer validation: the six unmodified workloads check
//! clean under every persisting mode, and every seeded-bug variant is
//! caught with exact attribution.

use thoth_psan::{
    analyze, detection, expected_class, persisting_modes, seed_variant_under, workload_config,
    DEFAULT_SCALE,
};
use thoth_sim::Mode;
use thoth_workloads::{spec, AnnotatedTrace, SeededBug, WorkloadKind};

fn annotated(kind: WorkloadKind) -> AnnotatedTrace {
    spec::generate_annotated(workload_config(kind, DEFAULT_SCALE))
}

#[test]
fn clean_sweep_is_silent_under_every_mechanism() {
    // Mechanism neutrality: a clean program must check clean no matter
    // which persistence mechanism runs underneath — a mode-dependent
    // finding would mean the checker models the mechanism, not the
    // program. Six workloads (the paper's five plus the multi-tenant
    // service), each generated once, under all seven persisting modes
    // (eADR has no persist path). No findings at all: no errors, and the
    // dedup'd runtime leaves no covered-log-append or redundant-flush
    // smells either.
    for kind in WorkloadKind::ALL.into_iter().chain([WorkloadKind::Service]) {
        let a = annotated(kind);
        for mode in persisting_modes() {
            let label = format!("{kind} under {}", mode.label());
            let report = analyze(&a.trace, &a.classes, mode).0.report;
            assert!(report.findings.is_empty(), "{label}: {:?}", report.findings);
            // Sanity: the stream actually exercised the machinery.
            let stats = &report.stats;
            assert!(stats.events > 0, "{label}");
            assert!(stats.stores > 0, "{label}");
            assert!(stats.commits > 0, "{label}");
            assert!(stats.data_accepts > 0, "{label}");
            assert!(stats.meta_covers > 0, "{label}");
            // Swap's footprint is tiny by design: its partial updates keep
            // merging in the PCB and may never seal a PUB block.
            if matches!(mode, Mode::Thoth(_)) && kind != WorkloadKind::Swap {
                assert!(stats.pub_appends > 0, "{label}");
            }
        }
    }
}

#[test]
fn every_seeded_bug_is_caught_at_its_planted_site() {
    let mut detected = 0usize;
    for kind in WorkloadKind::ALL {
        let a = annotated(kind);
        for bug in SeededBug::ALL {
            for seed in [1u64, 2] {
                let Some(v) = seed_variant_under(&a, bug, seed, Mode::thoth_wtsc()) else {
                    // Swap is log-free: no swapped-log-data site exists.
                    assert_eq!(
                        (kind, bug),
                        (WorkloadKind::Swap, SeededBug::SwappedLogData),
                        "only swap/swapped-log-data may lack a site"
                    );
                    continue;
                };
                let (run, _) = analyze(&v.trace, &v.classes, Mode::thoth_wtsc());
                let hit = detection(&run, &v);
                assert!(
                    hit.is_some(),
                    "{kind}/{bug} seed {seed}: expected a {} finding at core {} op {} \
                     addr {:#x}; got {:?}",
                    expected_class(bug),
                    v.site.core,
                    v.site.op,
                    v.site.addr,
                    run.report.findings
                );
                detected += 1;
            }
        }
    }
    // 5 workloads × 7 bugs × 2 seeds, minus the 2 impossible swap combos.
    assert_eq!(detected, 68);
}

#[test]
fn seeded_variants_do_not_drown_the_signal() {
    // A single planted single-core bug should produce a small,
    // attributable finding set — not an avalanche of spurious reports.
    // Cross-core races legitimately fan out (TSan-style, every racing
    // endpoint pair reports), so those only need a bounded total.
    let a = annotated(WorkloadKind::Btree);
    for bug in SeededBug::ALL {
        let v = seed_variant_under(&a, bug, 5, Mode::thoth_wtsc()).expect("site");
        let (run, _) = analyze(&v.trace, &v.classes, Mode::thoth_wtsc());
        let errors = run
            .report
            .findings
            .iter()
            .filter(|f| !f.class.is_smell())
            .count();
        match bug {
            SeededBug::DoubleFlush => {
                assert_eq!(errors, 0, "a double flush is a smell, not an error");
            }
            _ if bug.is_cross_core() => assert!(
                (1..=128).contains(&errors),
                "{bug}: {errors} error findings"
            ),
            _ => assert!(
                (1..=4).contains(&errors),
                "{bug}: {errors} error findings"
            ),
        }
    }
}
