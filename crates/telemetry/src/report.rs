//! The immutable report of one instrumented run.
//!
//! The machine's telemetry observer records into plain values (latency
//! histograms, event counters, the timeline, the optional tracer and one
//! occupancy histogram per queue) and builds a [`TelemetryReport`] from
//! them once, at the end of the run. Its CSV/JSON renderers are what the
//! experiments runner writes to `results/telemetry/`.

use crate::registry::{Hist, Registry};
use crate::timeline::Timeline;

/// End-of-run occupancy summary of one bounded queue.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeSummary {
    /// Queue name.
    pub name: &'static str,
    /// Queue capacity.
    pub capacity: u64,
    /// Highest recorded occupancy.
    pub peak: u64,
    /// Number of occupancy samples.
    pub samples: u64,
    /// Mean recorded occupancy.
    pub mean: f64,
}

impl ProbeSummary {
    /// The summary of queue `name` of `capacity` slots whose occupancy
    /// samples are `occupancy`.
    #[must_use]
    pub fn of(name: &'static str, capacity: u64, occupancy: &Hist) -> Self {
        ProbeSummary {
            name,
            capacity,
            peak: occupancy.max(),
            samples: occupancy.count(),
            mean: occupancy.mean(),
        }
    }
}

/// Everything one instrumented run recorded.
#[derive(Debug)]
pub struct TelemetryReport {
    /// Final counter and histogram values.
    pub registry: Registry,
    /// The epoch-sampled timeline.
    pub timeline: Timeline,
    /// Per-queue occupancy summaries.
    pub probes: Vec<ProbeSummary>,
    /// Chrome `trace_event` JSON, when tracing was on.
    pub trace_json: Option<String>,
    /// Events the tracer discarded after hitting its cap.
    pub trace_dropped: u64,
    /// Verdict of [`crate::SpanTracer::well_nested`] at the end of the
    /// run (`true` when tracing was off) — spans on every lane were
    /// properly nested with per-lane monotone timestamps.
    pub trace_well_nested: bool,
}

impl TelemetryReport {
    /// Probe summaries as CSV (`queue,capacity,peak,samples,mean`).
    #[must_use]
    pub fn probes_csv(&self) -> String {
        let mut s = String::from("queue,capacity,peak,samples,mean\n");
        for p in &self.probes {
            s.push_str(&format!(
                "{},{},{},{},{:.3}\n",
                p.name, p.capacity, p.peak, p.samples, p.mean
            ));
        }
        s
    }

    /// Writes the report's artifacts into `dir` as
    /// `<prefix>-timeline.csv`, `<prefix>-counters.csv`,
    /// `<prefix>-hists.csv`, `<prefix>-queues.csv`, and (when tracing)
    /// `<prefix>-trace.json`. Returns the file names written.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_dir(
        &self,
        dir: &std::path::Path,
        prefix: &str,
    ) -> std::io::Result<Vec<String>> {
        std::fs::create_dir_all(dir)?;
        let mut written = Vec::new();
        let mut emit = |name: String, body: &str| -> std::io::Result<()> {
            std::fs::write(dir.join(&name), body)?;
            written.push(name);
            Ok(())
        };
        emit(format!("{prefix}-timeline.csv"), &self.timeline.to_csv())?;
        emit(format!("{prefix}-counters.csv"), &self.registry.counters_csv())?;
        emit(format!("{prefix}-hists.csv"), &self.registry.hists_csv())?;
        emit(format!("{prefix}-queues.csv"), &self.probes_csv())?;
        if let Some(trace) = &self.trace_json {
            emit(format!("{prefix}-trace.json"), trace)?;
        }
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_summary_row() {
        let mut occupancy = Hist::new();
        occupancy.observe(5);
        occupancy.observe(9);
        let report = TelemetryReport {
            registry: Registry::new(Vec::new(), Vec::new()),
            timeline: Timeline::new(&["occ"]),
            probes: vec![ProbeSummary::of("wpq", 64, &occupancy)],
            trace_json: None,
            trace_dropped: 0,
            trace_well_nested: true,
        };
        assert_eq!(report.probes[0].peak, 9);
        assert_eq!(
            report.probes_csv(),
            "queue,capacity,peak,samples,mean\nwpq,64,9,2,7.000\n"
        );
    }
}
