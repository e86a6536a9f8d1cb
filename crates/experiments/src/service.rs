//! `service` — the open-loop service saturation sweep.
//!
//! Sweeps offered load (mean Poisson inter-arrival gap per core) across
//! the headline mechanisms {baseline, thoth-wtsc, thoth-wtbc}, serving a
//! multi-tenant YCSB-A key-value request stream, and reports the
//! p50/p99/p999 persist-ACK latency *measured from arrival* at each
//! point — the saturation ("hockey-stick") curve per mechanism.
//!
//! A second section holds load fixed at a mid-sweep point and varies the
//! request mix across YCSB-A/B/F (update-heavy, read-heavy, RMW-heavy),
//! reporting the same quantiles per mechanism plus each mix's measured
//! mutate fraction — the stats that also bias the persist-trace fuzzer
//! ([`crate::fuzz`]).
//!
//! Results go to stdout as a table, to `results/service.json` (full
//! detail per point) and `results/BENCH_service.json` (the compact
//! quantile-vs-offered-load trajectory). The run is fully deterministic
//! for a fixed seed. The verdict (`ok`) requires, at every point, a
//! populated latency histogram (finite p999) and monotone quantiles, and
//! per mechanism a visible knee: the heaviest load's p99 must clearly
//! exceed the lightest load's.

use crate::runner::ExpSettings;
use crate::tablefmt::Table;
use crate::Outcome;

use thoth_core::EvictionPolicy;
use thoth_sim::{Mode, SecureNvm, SimConfig};
use thoth_workloads::service::{MixKind, ServiceSpec, ServiceTrace};
use thoth_workloads::generate_service;

use std::fmt::Write as _;

/// The mechanisms every load point compares (the paper's headline trio).
const MODES: [Mode; 3] = [
    Mode::Baseline,
    Mode::Thoth(EvictionPolicy::Wtsc),
    Mode::Thoth(EvictionPolicy::Wtbc),
];

/// One (offered load, mechanism) cell of the sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PointResult {
    /// Mechanism label (`"baseline"`, `"thoth-wtsc"`, `"thoth-wtbc"`).
    pub(crate) mode: &'static str,
    /// Mean inter-arrival gap per core, in cycles (the load knob).
    pub(crate) mean_interarrival_cycles: f64,
    /// Offered load in requests per million cycles across all cores.
    pub(crate) offered_per_mcycle: f64,
    /// Requests completed (warm-up included).
    pub(crate) completed: u64,
    /// Measured requests (the latency histogram population).
    pub(crate) measured: u64,
    /// Median persist-ACK latency from arrival, in cycles.
    pub(crate) p50: f64,
    /// 99th-percentile latency.
    pub(crate) p99: f64,
    /// 99.9th-percentile latency.
    pub(crate) p999: f64,
    /// Mean latency.
    pub(crate) mean: f64,
    /// Largest observed latency.
    pub(crate) max: u64,
    /// 99th-percentile latency of read-only requests.
    pub(crate) p99_read: f64,
    /// 99th-percentile latency of mutating requests.
    pub(crate) p99_mutate: f64,
    /// Achieved throughput: measured requests per million cycles.
    pub(crate) achieved_per_mcycle: f64,
    /// Simulated cycles of the run (the machine's measured phase).
    pub(crate) sim_cycles: u64,
}

/// Replays `trace`, generated from `spec`, under every mechanism in
/// [`MODES`] and returns one point per mechanism. Arrivals and keys do
/// not depend on the mechanism, so every mode serves the same request
/// stream. The machine is the paper's Table I default at 128 B blocks;
/// the trace carries no closed-loop warm-up transactions, so PUB pre-fill
/// is inert and warm-up happens at the request level instead.
pub(crate) fn run_modes(spec: &ServiceSpec, trace: &ServiceTrace) -> Vec<PointResult> {
    MODES
        .iter()
        .map(|&mode| {
            let (sim, svc) = SecureNvm::new(SimConfig::paper_default(mode, 128)).run_service(trace);
            let achieved = if sim.total_cycles == 0 {
                0.0
            } else {
                svc.measured as f64 * 1.0e6 / sim.total_cycles as f64
            };
            PointResult {
                mode: mode.label(),
                mean_interarrival_cycles: spec.mean_interarrival_cycles,
                offered_per_mcycle: spec.offered_per_mcycle(),
                completed: svc.completed,
                measured: svc.measured,
                p50: svc.latency.quantile(0.50),
                p99: svc.latency.quantile(0.99),
                p999: svc.latency.quantile(0.999),
                mean: svc.latency.mean(),
                max: svc.latency.max(),
                p99_read: svc.latency_read.quantile(0.99),
                p99_mutate: svc.latency_mutate.quantile(0.99),
                achieved_per_mcycle: achieved,
                sim_cycles: sim.total_cycles,
            }
        })
        .collect()
}

/// Offered-load points (mean inter-arrival cycles per core), lightest
/// first. The heaviest point sits far past saturation on every
/// mechanism, so the knee is unmistakable in the trajectory.
pub const FULL_LOADS: [f64; 5] = [24_000.0, 12_000.0, 6_000.0, 3_000.0, 1_200.0];

/// The CI gate's trimmed sweep (still ≥ 3 points spanning the knee).
pub const QUICK_LOADS: [f64; 3] = [24_000.0, 6_000.0, 1_200.0];

/// The fixed load of the mix-comparison section (a mid-sweep point in
/// both load lists: loaded but not saturated, so mix differences show).
pub const MIX_COMPARE_LOAD: f64 = 6_000.0;

/// The YCSB mixes the comparison section serves.
pub const MIXES: [MixKind; 3] = [MixKind::A, MixKind::B, MixKind::F];

/// The base request-stream spec at the given settings: 4 cores serving
/// 16 tenants under YCSB-A with 0.99 Zipfian skew, request counts scaled
/// by `settings.scale` (1.0 = 2000 measured + 400 warm-up per core).
#[must_use]
pub fn base_spec(settings: ExpSettings) -> ServiceSpec {
    let mut spec = ServiceSpec::default_spec();
    spec.seed = settings.seed;
    spec.scaled(settings.scale)
}

/// Runs the sweep, writes both results files, and reports the verdict:
/// `ok` when every point has finite, monotone quantiles and each
/// mechanism shows a saturation knee.
#[must_use]
pub fn run(settings: ExpSettings, quick: bool) -> Outcome {
    let loads: &[f64] = if quick { &QUICK_LOADS } else { &FULL_LOADS };
    let spec = base_spec(settings);

    let mut rows: Vec<Vec<PointResult>> = Vec::with_capacity(loads.len());
    for &gap in loads {
        eprintln!(
            "[thoth-experiments] service sweeping mean inter-arrival {gap} cycles \
             ({:.1} req/Mcycle offered)...",
            spec.cores as f64 * 1.0e6 / gap
        );
        let mut point_spec = spec;
        point_spec.mean_interarrival_cycles = gap;
        rows.push(run_modes(&point_spec, &generate_service(&point_spec)));
    }

    // Mix comparison: hold load at the mid-sweep point and vary the
    // request mix across YCSB-A/B/F.
    let mut mix_rows: Vec<(MixKind, u32, Vec<PointResult>)> = Vec::with_capacity(MIXES.len());
    for mix in MIXES {
        eprintln!(
            "[thoth-experiments] service comparing mix {} at {MIX_COMPARE_LOAD} cycles...",
            mix.name()
        );
        let mut mix_spec = spec;
        mix_spec.mix = mix;
        mix_spec.mean_interarrival_cycles = MIX_COMPARE_LOAD;
        let trace = generate_service(&mix_spec);
        let mutate = trace.mix_stats().mutate_per_mille();
        mix_rows.push((mix, mutate, run_modes(&mix_spec, &trace)));
    }

    let ok = verdict(&rows) && mix_verdict(&mix_rows);

    let mut t = Table::new(
        &format!(
            "Service saturation sweep: {} cores, {} tenants, {} ({} req/core, seed {:#x})",
            spec.cores,
            spec.tenants,
            spec.mix.name(),
            spec.requests_per_core,
            spec.seed
        ),
        &[
            "offered req/Mcycle",
            "mode",
            "p50 [cyc]",
            "p99 [cyc]",
            "p999 [cyc]",
            "mean [cyc]",
            "achieved req/Mcycle",
        ],
    );
    for row in &rows {
        for p in row {
            t.row(vec![
                format!("{:.1}", p.offered_per_mcycle),
                p.mode.to_owned(),
                format!("{:.0}", p.p50),
                format!("{:.0}", p.p99),
                format!("{:.0}", p.p999),
                format!("{:.0}", p.mean),
                format!("{:.1}", p.achieved_per_mcycle),
            ]);
        }
    }

    let mut t_mix = Table::new(
        &format!(
            "YCSB mix comparison at {MIX_COMPARE_LOAD} cycles mean inter-arrival \
             ({:.1} req/Mcycle offered)",
            spec.cores as f64 * 1.0e6 / MIX_COMPARE_LOAD
        ),
        &[
            "mix",
            "mutate/1000",
            "mode",
            "p50 [cyc]",
            "p99 [cyc]",
            "p999 [cyc]",
            "achieved req/Mcycle",
        ],
    );
    for (mix, mutate, row) in &mix_rows {
        for p in row {
            t_mix.row(vec![
                mix.name().to_owned(),
                mutate.to_string(),
                p.mode.to_owned(),
                format!("{:.0}", p.p50),
                format!("{:.0}", p.p99),
                format!("{:.0}", p.p999),
                format!("{:.1}", p.achieved_per_mcycle),
            ]);
        }
    }

    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write(
        "results/service.json",
        to_json(settings, quick, &spec, &rows, &mix_rows, ok),
    )
    .expect("write results/service.json");
    std::fs::write("results/BENCH_service.json", to_bench_json(&spec, &rows))
        .expect("write results/BENCH_service.json");
    eprintln!("[thoth-experiments] wrote results/service.json and results/BENCH_service.json");

    Outcome {
        tables: vec![t, t_mix],
        ok,
    }
}

/// The mix-comparison gate: every mix point populated with monotone
/// quantiles, and the measured mutate fractions actually differ across
/// mixes (read-heavy B mutates strictly less than update-heavy A).
fn mix_verdict(mix_rows: &[(MixKind, u32, Vec<PointResult>)]) -> bool {
    let populated = mix_rows.iter().flat_map(|(_, _, row)| row).all(|p| {
        p.measured > 0
            && p.p999.is_finite()
            && p.p50 <= p.p99
            && p.p99 <= p.p999
    });
    if !populated {
        eprintln!("[thoth-experiments] service: unpopulated mix-comparison quantiles");
        return false;
    }
    let mutate_of = |mix: MixKind| {
        mix_rows
            .iter()
            .find(|(m, _, _)| *m == mix)
            .map(|&(_, mutate, _)| mutate)
    };
    match (mutate_of(MixKind::A), mutate_of(MixKind::B)) {
        (Some(a), Some(b)) if b < a => true,
        other => {
            eprintln!(
                "[thoth-experiments] service: mix stats not differentiated \
                 (mutate/1000 A vs B: {other:?})"
            );
            false
        }
    }
}

/// The gate: every point populated with monotone quantiles, and per
/// mechanism a saturation knee (heaviest-load p99 ≥ 2× lightest-load
/// p99 — far below the real ratio once queueing takes over, but robust
/// to small-sample noise at quick scale).
fn verdict(rows: &[Vec<PointResult>]) -> bool {
    let populated = rows.iter().flatten().all(|p| {
        p.measured > 0
            && p.p50.is_finite()
            && p.p999.is_finite()
            && p.p50 <= p.p99
            && p.p99 <= p.p999
    });
    if !populated {
        eprintln!("[thoth-experiments] service: unpopulated or non-monotone quantiles");
        return false;
    }
    let (Some(lightest), Some(heaviest)) = (rows.first(), rows.last()) else {
        return false;
    };
    for (l, h) in lightest.iter().zip(heaviest) {
        if h.p99 < 2.0 * l.p99 {
            eprintln!(
                "[thoth-experiments] service: no saturation knee for {} \
                 (p99 {} -> {} across the load sweep)",
                l.mode, l.p99, h.p99
            );
            return false;
        }
    }
    true
}

/// One point as a JSON object (shared by both results files).
fn point_json(p: &PointResult) -> String {
    format!(
        "{{ \"mode\": \"{}\", \"p50\": {:.1}, \"p99\": {:.1}, \"p999\": {:.1}, \
         \"mean\": {:.1}, \"max\": {}, \"p99_read\": {:.1}, \"p99_mutate\": {:.1}, \
         \"measured\": {}, \"completed\": {}, \"achieved_per_mcycle\": {:.3}, \
         \"sim_cycles\": {} }}",
        p.mode,
        p.p50,
        p.p99,
        p.p999,
        p.mean,
        p.max,
        p.p99_read,
        p.p99_mutate,
        p.measured,
        p.completed,
        p.achieved_per_mcycle,
        p.sim_cycles
    )
}

/// Serializes the full sweep as JSON (hand-rolled — no serializer
/// dependency by design; see DESIGN.md §5).
fn to_json(
    settings: ExpSettings,
    quick: bool,
    spec: &ServiceSpec,
    rows: &[Vec<PointResult>],
    mix_rows: &[(MixKind, u32, Vec<PointResult>)],
    ok: bool,
) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(
        s,
        "  \"config\": {{ \"scale\": {}, \"seed\": {}, \"quick\": {}, \"cores\": {}, \
         \"tenants\": {}, \"mix\": \"{}\", \"zipf_theta\": {}, \"keys_per_tenant\": {}, \
         \"requests_per_core\": {}, \"warmup_requests_per_core\": {} }},",
        settings.scale,
        settings.seed,
        quick,
        spec.cores,
        spec.tenants,
        spec.mix.name(),
        spec.zipf_theta,
        spec.keys_per_tenant,
        spec.requests_per_core,
        spec.warmup_requests_per_core
    );
    s.push_str("  \"sweep\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let first = row.first().expect("each load point has mode rows");
        let _ = writeln!(
            s,
            "    {{ \"mean_interarrival_cycles\": {}, \"offered_per_mcycle\": {:.3},",
            first.mean_interarrival_cycles, first.offered_per_mcycle
        );
        s.push_str("      \"points\": [\n");
        for (j, p) in row.iter().enumerate() {
            let _ = write!(s, "        {}", point_json(p));
            s.push_str(if j + 1 < row.len() { ",\n" } else { "\n" });
        }
        s.push_str("      ] }");
        s.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n  \"mixes\": [\n");
    for (i, (mix, mutate, row)) in mix_rows.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{ \"mix\": \"{}\", \"mutate_per_mille\": {mutate}, \
             \"mean_interarrival_cycles\": {MIX_COMPARE_LOAD},",
            mix.name()
        );
        s.push_str("      \"points\": [\n");
        for (j, p) in row.iter().enumerate() {
            let _ = write!(s, "        {}", point_json(p));
            s.push_str(if j + 1 < row.len() { ",\n" } else { "\n" });
        }
        s.push_str("      ] }");
        s.push_str(if i + 1 < mix_rows.len() { ",\n" } else { "\n" });
    }
    let _ = writeln!(s, "  ],\n  \"ok\": {ok}\n}}");
    s
}

/// The compact benchmark trajectory: quantiles vs offered load, one line
/// of points per mechanism — the saturation curve a dashboard plots.
fn to_bench_json(spec: &ServiceSpec, rows: &[Vec<PointResult>]) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(
        s,
        "  \"scenario\": {{ \"cores\": {}, \"tenants\": {}, \"mix\": \"{}\", \
         \"seed\": {} }},",
        spec.cores,
        spec.tenants,
        spec.mix.name(),
        spec.seed
    );
    s.push_str("  \"trajectory\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let first = row.first().expect("each load point has mode rows");
        let _ = write!(
            s,
            "    {{ \"offered_per_mcycle\": {:.3}, \"points\": [ ",
            first.offered_per_mcycle
        );
        for (j, p) in row.iter().enumerate() {
            let _ = write!(
                s,
                "{{ \"mode\": \"{}\", \"p50\": {:.1}, \"p99\": {:.1}, \"p999\": {:.1} }}",
                p.mode, p.p50, p.p99, p.p999
            );
            if j + 1 < row.len() {
                s.push_str(", ");
            }
        }
        s.push_str(" ] }");
        s.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(mode: &'static str, p50: f64, p99: f64, p999: f64) -> PointResult {
        PointResult {
            mode,
            mean_interarrival_cycles: 1000.0,
            offered_per_mcycle: 4000.0,
            completed: 100,
            measured: 80,
            p50,
            p99,
            p999,
            mean: p50,
            max: p999 as u64,
            p99_read: p99,
            p99_mutate: p99,
            achieved_per_mcycle: 100.0,
            sim_cycles: 1_000_000,
        }
    }

    #[test]
    fn verdict_accepts_a_knee_and_rejects_flat() {
        let light = vec![point("baseline", 100.0, 200.0, 300.0)];
        let heavy = vec![point("baseline", 500.0, 5000.0, 9000.0)];
        assert!(verdict(&[light.clone(), heavy]));
        let flat = vec![point("baseline", 100.0, 210.0, 320.0)];
        assert!(!verdict(&[light, flat]));
    }

    #[test]
    fn verdict_rejects_unpopulated_and_nonmonotone() {
        let mut empty = point("baseline", 0.0, 0.0, 0.0);
        empty.measured = 0;
        assert!(!verdict(&[vec![empty]]));
        let dip = point("baseline", 300.0, 200.0, 400.0); // p50 > p99
        assert!(!verdict(&[vec![dip]]));
    }

    #[test]
    fn json_documents_are_balanced() {
        let rows = vec![
            vec![point("baseline", 100.0, 200.0, 300.0)],
            vec![point("baseline", 400.0, 900.0, 1500.0)],
        ];
        let spec = ServiceSpec::default_spec();
        let mixes = vec![(MixKind::B, 50, vec![point("baseline", 90.0, 180.0, 270.0)])];
        let j = to_json(ExpSettings::quick(), true, &spec, &rows, &mixes, true);
        thoth_telemetry::json::validate(&j).expect("valid JSON");
        assert!(j.contains("\"ok\": true"));
        assert!(j.contains("\"mix\": \"ycsb-a\""));
        assert!(j.contains("\"mix\": \"ycsb-b\""));
        assert!(j.contains("\"mutate_per_mille\": 50"));
        let b = to_bench_json(&spec, &rows);
        thoth_telemetry::json::validate(&b).expect("valid JSON");
        assert!(b.contains("\"trajectory\""));
        assert!(b.contains("\"p999\": 300.0"));
    }

    #[test]
    fn mix_verdict_requires_differentiated_mixes() {
        let row = vec![point("baseline", 100.0, 200.0, 300.0)];
        let good = vec![
            (MixKind::A, 504, row.clone()),
            (MixKind::B, 50, row.clone()),
            (MixKind::F, 501, row.clone()),
        ];
        assert!(mix_verdict(&good));
        // B mutating as much as A means the mix knob is not wired.
        let flat = vec![(MixKind::A, 500, row.clone()), (MixKind::B, 500, row)];
        assert!(!mix_verdict(&flat));
    }

    #[test]
    fn mix_compare_load_is_a_sweep_point() {
        assert!(QUICK_LOADS.contains(&MIX_COMPARE_LOAD));
        assert!(FULL_LOADS.contains(&MIX_COMPARE_LOAD));
        assert_eq!(MIXES.len(), 3);
    }

    #[test]
    fn quick_loads_span_the_knee() {
        assert!(QUICK_LOADS.len() >= 3);
        assert!(FULL_LOADS.len() >= QUICK_LOADS.len());
        // Lightest first, strictly decreasing gaps (increasing load).
        assert!(QUICK_LOADS.windows(2).all(|w| w[0] > w[1]));
        assert!(FULL_LOADS.windows(2).all(|w| w[0] > w[1]));
    }
}
