//! `telemetry` — instrumented headline runs with neutrality proof.
//!
//! For every paper workload × {baseline, thoth-wtsc}, this experiment
//! runs the simulation twice: once plain, once with the full telemetry
//! config (counters + timeline + tracer). It then:
//!
//! * asserts **neutrality** — both runs'
//!   [`SimReport::digest`](thoth_sim::SimReport::digest)s are
//!   bit-identical, so observation never perturbed the machine,
//! * writes the instrumented run's artifacts under `results/telemetry/`
//!   (`<workload>-<mode>-{timeline,counters,hists,queues}.csv` and
//!   `<workload>-<mode>-trace.json`),
//! * **validates** the artifacts structurally: the timeline CSV carries
//!   the machine's column schema, the queue CSV its fixed header, and the
//!   Chrome `trace_event` JSON parses under the crate's own RFC 8259
//!   validator (so `chrome://tracing` / Perfetto will accept it).
//!
//! The binary exits non-zero if any point fails neutrality or validation.

use crate::runner::{ExpSettings, TraceCache};
use crate::tablefmt::Table;
use crate::Outcome;

use thoth_sim::{Mode, SecureNvm, SimConfig, TelemetryConfig};
use thoth_telemetry::json;
use thoth_workloads::WorkloadKind;

/// One instrumented point's verdicts.
struct PointRow {
    workload: &'static str,
    mode: &'static str,
    neutral: bool,
    timeline_rows: usize,
    spans: usize,
    dropped: u64,
    files: Vec<String>,
    schema_ok: bool,
    json_ok: bool,
}

/// Expected header of the timeline CSV (schema lock for downstream
/// plotting scripts).
fn timeline_header() -> String {
    let mut h = String::from("cycle");
    for c in thoth_sim::telemetry::TIMELINE_COLUMNS {
        h.push(',');
        h.push_str(c);
    }
    h
}

/// Runs the instrumented matrix, writes `results/telemetry/`, and
/// reports the verdict: `ok` when every point was neutral and produced
/// valid artifacts.
#[must_use]
pub fn run(settings: ExpSettings) -> Outcome {
    let out_dir = "results/telemetry";
    std::fs::create_dir_all(out_dir).expect("create results/telemetry");
    let mut cache = TraceCache::new(settings);
    let mut rows = Vec::new();

    for kind in WorkloadKind::ALL {
        let trace = cache.get(kind, 128);
        for mode in [Mode::baseline(), Mode::thoth_wtsc()] {
            let label = mode.label();
            eprintln!("[thoth-experiments] telemetry {}/{label}...", kind.name());
            let config = SimConfig::paper_default(mode, 128);

            let plain = thoth_sim::run_trace(&config, &trace);
            let mut machine = SecureNvm::new(config);
            let (instrumented, report) =
                machine.run_telemetry(&trace, &TelemetryConfig::full());
            let neutral = plain.digest() == instrumented.digest();

            let prefix = format!("{}-{label}", kind.name());
            let files = report
                .write_dir(std::path::Path::new(out_dir), &prefix)
                .expect("write telemetry artifacts");

            let timeline_csv = report.timeline.to_csv();
            let schema_ok = timeline_csv
                .lines()
                .next()
                .is_some_and(|h| h == timeline_header())
                && report
                    .probes_csv()
                    .lines()
                    .next()
                    .is_some_and(|h| h == "queue,capacity,peak,samples,mean")
                && report
                    .registry
                    .counters_csv()
                    .lines()
                    .next()
                    .is_some_and(|h| h == "counter,value");
            let json_ok = report.trace_well_nested
                && report
                    .trace_json
                    .as_deref()
                    .is_some_and(|j| json::validate(j).is_ok());

            rows.push(PointRow {
                workload: kind.name(),
                mode: label,
                neutral,
                timeline_rows: report.timeline.len(),
                spans: report
                    .trace_json
                    .as_deref()
                    .map_or(0, |j| j.matches("\"ph\"").count()),
                dropped: report.trace_dropped,
                files,
                schema_ok,
                json_ok,
            });
        }
    }

    let ok = rows
        .iter()
        .all(|r| r.neutral && r.schema_ok && r.json_ok && r.timeline_rows > 0);

    let mut table = Table::new(
        &format!("Telemetry matrix (scale {}, full config)", settings.scale),
        &[
            "workload", "mode", "neutral", "timeline", "events", "dropped", "files", "verdict",
        ],
    );
    for r in &rows {
        table.row(vec![
            r.workload.to_owned(),
            r.mode.to_owned(),
            if r.neutral { "yes" } else { "NO" }.to_owned(),
            r.timeline_rows.to_string(),
            r.spans.to_string(),
            r.dropped.to_string(),
            r.files.len().to_string(),
            if r.neutral && r.schema_ok && r.json_ok && r.timeline_rows > 0 {
                "ok"
            } else {
                "FAILED"
            }
            .to_owned(),
        ]);
    }

    for r in &rows {
        if !(r.neutral && r.schema_ok && r.json_ok) {
            eprintln!(
                "[thoth-experiments] telemetry FAIL {}/{}: neutral={} schema={} json={}",
                r.workload, r.mode, r.neutral, r.schema_ok, r.json_ok
            );
        }
    }
    eprintln!("[thoth-experiments] telemetry artifacts in {out_dir}/");

    Outcome {
        tables: vec![table],
        ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_header_is_locked() {
        let h = timeline_header();
        assert!(h.starts_with("cycle,wpq_occ,"));
        assert!(h.ends_with(",bytes_shadow"));
    }
}
