//! `thoth-telemetry` — the opt-in observability layer.
//!
//! The paper's headline claims are statements about *internal* dynamics:
//! WPQ occupancy under ADR pressure (Fig. 12), PUB fill and eviction
//! filtering under WTSC/WTBC (Fig. 3), and metadata write amplification
//! (Fig. 9). The simulator's end-of-run aggregates show *that* a
//! configuration wins; this crate makes visible *why*, in the style of
//! gem5's stats framework:
//!
//! * [`Hist`] — a log2-bucketed histogram (latencies, queue occupancy),
//! * [`Timeline`] — epoch-sampled series (occupancies, fill fractions,
//!   per-mechanism persist bytes) emitted as CSV,
//! * [`SpanTracer`] — a span/instant/async event tracer exporting Chrome
//!   `trace_event` JSON loadable in `chrome://tracing` / Perfetto,
//! * [`TelemetryReport`] — what one run recorded: a [`Registry`] of named
//!   counters and histograms, the timeline, one [`ProbeSummary`] per
//!   queue and the trace, with the CSV/JSON renderers.
//!
//! The machine records with these types from one place, the telemetry
//! observer on its instrumentation tap (`thoth-sim`), which holds them as
//! plain values, samples the WPQ, the NVM banks, the PCB and the PUB
//! after every retired op, and builds the report's named rows once at the
//! end; no substrate crate depends on this crate. Plain runs install no
//! observer at all, and the simulator's differential test
//! (`telemetry_neutrality`) proves that instrumented and plain runs
//! produce bit-identical reports. The crate records the simulated machine
//! only: the experiment harness's progress lines and job scheduling stay
//! in the harness, so a run's artifacts depend on its trace and
//! configuration alone.

#![warn(missing_docs)]

pub mod json;
pub mod registry;
pub mod report;
pub mod timeline;
pub mod tracer;

pub use registry::{Hist, Registry};
pub use report::{ProbeSummary, TelemetryReport};
pub use timeline::Timeline;
pub use tracer::{Span, SpanKind, SpanTracer};

/// Timeline sampling period in core cycles.
pub const EPOCH_CYCLES: u64 = 10_000;

/// Hard cap on recorded trace events; once reached, further events are
/// counted as dropped instead of stored (bounded memory).
pub const TRACE_CAP: usize = 200_000;

/// What an instrumented run records beyond its counters, histograms,
/// timeline and queue occupancy, which it always records. The default is
/// [`TelemetryConfig::counters_only`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TelemetryConfig {
    /// Record the span tracer (per-core op spans, WPQ residency arrows,
    /// PUB append/evict instants).
    pub trace: bool,
}

impl TelemetryConfig {
    /// Everything on.
    #[must_use]
    pub fn full() -> Self {
        TelemetryConfig { trace: true }
    }

    /// Counters, timelines and queue occupancy on, tracer off (cheapest
    /// useful setting).
    #[must_use]
    pub fn counters_only() -> Self {
        TelemetryConfig { trace: false }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_off() {
        let c = TelemetryConfig::default();
        assert!(!c.trace, "the tracer is off unless asked for");
        assert_eq!(c, TelemetryConfig::counters_only());
    }

    #[test]
    fn presets_enable() {
        assert!(TelemetryConfig::full().trace);
        assert!(!TelemetryConfig::counters_only().trace);
    }
}
