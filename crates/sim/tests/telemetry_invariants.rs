//! Property checks over telemetry gathered from real instrumented runs:
//!
//! * queue probes never observe an occupancy above the queue's capacity,
//!   and every queue holds one sample per retired op,
//! * per-op histograms stay in lock-step with their counters (histogram
//!   count == counter value, so means are never computed over a
//!   different population),
//! * the timeline's cycle column is strictly monotone and every sampled
//!   occupancy respects the same capacity bounds the probes enforce,
//! * the exported trace is well-nested with per-lane monotone timestamps,
//! * the counter and histogram CSVs hold exactly their rows, in order,
//!   and the timeline header is `cycle` plus the timeline columns.

use thoth_sim::telemetry::TIMELINE_COLUMNS;
use thoth_sim::{Mode, SecureNvm, SimConfig, TelemetryConfig, TelemetryReport};
use thoth_workloads::{spec, WorkloadConfig, WorkloadKind};

/// The `-counters.csv` rows, in order: one per op kind, then the event
/// and substrate counters.
const COUNTER_ROWS: [&str; 13] = [
    "ops_read",
    "ops_store",
    "ops_store_relaxed",
    "ops_flush",
    "ops_fence",
    "ops_commit",
    "pub_appends",
    "pub_evicts",
    "wpq_accepts",
    "wpq_drains",
    "aes_hw_blocks",
    "hash_batch_runs",
    "sip_simd_rows",
];

/// The `-hists.csv` rows, in order: the latency of each op kind of
/// `COUNTER_ROWS`.
const HIST_ROWS: [&str; 6] = [
    "read_cycles",
    "store_cycles",
    "store_relaxed_cycles",
    "flush_cycles",
    "fence_cycles",
    "commit_cycles",
];

/// The first field of every row of `csv` below its header.
fn row_names(csv: &str) -> Vec<&str> {
    csv.lines()
        .skip(1)
        .map(|line| line.split(',').next().expect("split yields a field"))
        .collect()
}

/// Column index in the timeline schema.
fn col(name: &str) -> usize {
    TIMELINE_COLUMNS
        .iter()
        .position(|c| *c == name)
        .expect("known column")
}

fn instrumented_run(kind: WorkloadKind, mode: Mode) -> TelemetryReport {
    let mut cfg = WorkloadConfig::paper_default(kind).scaled(0.005);
    cfg.footprint = 2_000;
    cfg.prepopulate = cfg.footprint / 2;
    let trace = spec::generate(cfg);
    let mut machine = SecureNvm::new(SimConfig::paper_default(mode, 128));
    let (_, telem) = machine.run_telemetry(&trace, &TelemetryConfig::full());
    telem
}

#[test]
fn instrumented_run_invariants_hold() {
    for mode in [Mode::baseline(), Mode::thoth_wtsc()] {
        let telem = instrumented_run(WorkloadKind::Btree, mode);
        let label = mode.label();

        // Probes: occupancy never exceeded capacity, and every queue the
        // machine promises to instrument reported in, in row order.
        let names: Vec<&str> = telem.probes.iter().map(|p| p.name).collect();
        let queues: &[&str] = match mode {
            Mode::Thoth(_) => &["wpq", "nvm_banks", "pcb", "pub"],
            _ => &["wpq", "nvm_banks"],
        };
        assert_eq!(names, queues, "{label}: probed queues");
        let counter = |name| telem.registry.counter_value(name).expect("registered");
        let retired: u64 = COUNTER_ROWS[..HIST_ROWS.len()]
            .iter()
            .map(|&c| counter(c))
            .sum();
        for p in &telem.probes {
            assert_eq!(
                p.samples, retired,
                "{label}: {} samples != retired ops",
                p.name
            );
            assert!(
                p.peak <= p.capacity,
                "{label}: {} peak {} exceeds capacity {}",
                p.name,
                p.peak,
                p.capacity
            );
            assert!(p.samples > 0, "{label}: {} never sampled", p.name);
            assert!(p.mean <= p.peak as f64, "{label}: {} mean above peak", p.name);
        }

        // Counter/histogram lock-step for every op class.
        for (counter, hist) in COUNTER_ROWS.into_iter().zip(HIST_ROWS) {
            let c = telem.registry.counter_value(counter).expect("registered");
            let h = telem.registry.hist_named(hist).expect("registered");
            assert_eq!(c, h.count(), "{label}: {counter} != {hist} count");
        }

        // Timeline: strictly monotone cycles; sampled occupancies within
        // the capacities the probes reported.
        let wpq_cap = telem
            .probes
            .iter()
            .find(|p| p.name == "wpq")
            .expect("wpq probe")
            .capacity as f64;
        let mut prev = None;
        for (cycle, values) in telem.timeline.rows() {
            if let Some(p) = prev {
                assert!(*cycle > p, "{label}: timeline cycle not monotone");
            }
            prev = Some(*cycle);
            assert!(values[col("wpq_occ")] <= wpq_cap, "{label}: wpq_occ over cap");
            let fill = values[col("pub_fill")];
            assert!((0.0..=1.0).contains(&fill), "{label}: pub_fill out of range");
            let skip = values[col("evict_skip_rate")];
            assert!((0.0..=1.0).contains(&skip), "{label}: skip rate out of range");
        }
        assert!(!telem.timeline.is_empty(), "{label}: timeline never sampled");

        // CSV row order: a reordered row rewrites `results/telemetry/`.
        let counters_csv = telem.registry.counters_csv();
        assert_eq!(
            row_names(&counters_csv),
            COUNTER_ROWS,
            "{label}: counter rows"
        );
        let hists_csv = telem.registry.hists_csv();
        assert_eq!(row_names(&hists_csv), HIST_ROWS, "{label}: histogram rows");
        let header = format!("cycle,{}", TIMELINE_COLUMNS.join(","));
        let timeline_csv = telem.timeline.to_csv();
        assert_eq!(
            timeline_csv.lines().next(),
            Some(header.as_str()),
            "{label}: timeline header"
        );

        // Trace: structurally valid and well-nested.
        assert!(telem.trace_well_nested, "{label}: trace not well-nested");
        let json = telem.trace_json.as_deref().expect("tracing was on");
        thoth_telemetry::json::validate(json).expect("valid trace_event JSON");
    }
}
