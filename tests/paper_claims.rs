//! Scaled-down checks of the paper's central claims (full-size numbers
//! live in EXPERIMENTS.md; these tests pin the *shapes* so regressions
//! that would invalidate the reproduction fail CI).

use thoth_repro::experiments::runner::{ExpSettings, TraceCache};
use thoth_repro::experiments::{fig3, gmean};
use thoth_repro::sim::{Mode, SimConfig};
use thoth_repro::workloads::WorkloadKind;

#[test]
fn claim_large_pub_eliminates_most_writebacks() {
    // Section III / Figure 3: with a large FIFO, the vast majority of
    // evicted partial updates need no metadata persist.
    let rows = fig3::analyze_workload(WorkloadKind::Ctree, ExpSettings::quick(), &[5_000, 50]);
    let large = &rows[0];
    let small = &rows[1];
    let skip_large = 1.0 - large.fractions[0];
    let skip_small = 1.0 - small.fractions[0];
    assert!(
        skip_large > 0.9,
        "a large buffer must skip >90% of evictions, got {skip_large:.3}"
    );
    assert!(skip_large >= skip_small, "skip rate must grow with size");
}

#[test]
fn claim_thoth_beats_baseline_on_average() {
    // Figures 8 & 9: Thoth is faster and writes less, with swap as the
    // known no-gain outlier.
    let settings = ExpSettings::quick();
    let mut cache = TraceCache::new(settings);
    let mut speedups = Vec::new();
    let mut ratios = Vec::new();
    for kind in WorkloadKind::ALL {
        let trace = cache.get(kind, 128);
        let base =
            thoth_repro::sim::run_trace(&SimConfig::paper_default(Mode::baseline(), 128), &trace);
        let thoth =
            thoth_repro::sim::run_trace(&SimConfig::paper_default(Mode::thoth_wtsc(), 128), &trace);
        speedups.push(thoth.speedup_over(&base));
        ratios.push(thoth.write_ratio_vs(&base));
    }
    let g = gmean(&speedups);
    assert!(g >= 1.0, "Thoth must not slow the average down: {g:.3}");
    let mean_ratio = ratios.iter().sum::<f64>() / ratios.len() as f64;
    assert!(
        mean_ratio < 0.95,
        "Thoth must reduce average write traffic: {mean_ratio:.3}"
    );
}

#[test]
fn claim_smaller_wpq_amplifies_thoth() {
    // Figure 12: the baseline leans on WPQ coalescing, so a smaller WPQ
    // must not *shrink* Thoth's advantage.
    let settings = ExpSettings::quick();
    let mut cache = TraceCache::new(settings);
    let trace = cache.get(WorkloadKind::Btree, 128);
    let speedup_at = |wpq: usize| {
        let mut b = SimConfig::paper_default(Mode::baseline(), 128);
        b.resize_wpq(wpq);
        let mut t = SimConfig::paper_default(Mode::thoth_wtsc(), 128);
        t.resize_wpq(wpq);
        let base = thoth_repro::sim::run_trace(&b, &trace);
        let thoth = thoth_repro::sim::run_trace(&t, &trace);
        thoth.speedup_over(&base)
    };
    let s64 = speedup_at(64);
    let s16 = speedup_at(16);
    assert!(
        s16 >= s64 * 0.95,
        "16-entry WPQ should favour Thoth at least as much: {s16:.3} vs {s64:.3}"
    );
}

#[test]
fn claim_pcb_merge_rate_falls_with_tx_size() {
    // Table III: larger transactions spread consecutive updates to the
    // same counter/MAC beyond the PCB window.
    let settings = ExpSettings::quick();
    let mut cache = TraceCache::new(settings);
    let rate_at = |tx: usize, cache: &mut TraceCache| {
        let trace = cache.get(WorkloadKind::Btree, tx);
        let r =
            thoth_repro::sim::run_trace(&SimConfig::paper_default(Mode::thoth_wtsc(), 128), &trace);
        r.pcb_merge_fraction()
    };
    let small = rate_at(128, &mut cache);
    let large = rate_at(2048, &mut cache);
    assert!(
        large <= small,
        "merge rate must fall with tx size: {small:.3} -> {large:.3}"
    );
}

#[test]
fn claim_recovery_cost_model_matches_footnote() {
    // Section IV-D: ≈7 s to recover a full 64 MB PUB.
    let secs = thoth_repro::core::recovery::pub_recovery_secs((64 << 20) / 128, 9);
    assert!((5.0..10.0).contains(&secs), "{secs:.2} s");
}

#[test]
fn claim_pub_geometry_matches_paper() {
    // Section IV-A: 9 partial updates per 128 B block, 19 per 256 B.
    assert_eq!(
        thoth_repro::core::PubBlockCodec::new(128).entries_per_block(),
        9
    );
    assert_eq!(
        thoth_repro::core::PubBlockCodec::new(256).entries_per_block(),
        19
    );
}
