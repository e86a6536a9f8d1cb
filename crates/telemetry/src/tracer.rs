//! Span tracer with Chrome `trace_event` JSON export.
//!
//! Lanes map to `tid`s in the exported trace — one per core, plus lanes
//! for the memory controller and the PUB engine — so a persist op's
//! journey WPQ → PCB → PUB → NVM reads left-to-right in
//! `chrome://tracing` or Perfetto (load the JSON via "Open trace file").
//!
//! Event vocabulary (subset of the trace_event spec):
//! * complete spans (`ph: "X"`) for per-op work on a core lane,
//! * instants (`ph: "i"`) for point events like PUB appends/evictions,
//! * async begin/end pairs (`ph: "b"` / `ph: "e"`) for WPQ residency,
//!   which overlaps arbitrarily and therefore cannot nest.
//!
//! Timestamps are core cycles reported as microseconds — Perfetto only
//! needs a consistent unit, and cycles keep the trace deterministic.

use crate::json;

/// What a recorded [`Span`] represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A closed interval of work on a lane (`ph: "X"`).
    Complete,
    /// A point event (`ph: "i"`).
    Instant,
    /// Start of an async interval keyed by `id` (`ph: "b"`).
    AsyncBegin,
    /// End of an async interval keyed by `id` (`ph: "e"`).
    AsyncEnd,
}

/// One recorded trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Lane (exported as `tid`).
    pub lane: u32,
    /// Event name.
    pub name: &'static str,
    /// Event kind.
    pub kind: SpanKind,
    /// Start timestamp in cycles.
    pub ts: u64,
    /// Duration in cycles (complete spans only; 0 otherwise).
    pub dur: u64,
    /// Correlation id (async events only; 0 otherwise).
    pub id: u64,
}

/// Records spans across named lanes and exports Chrome trace JSON.
#[derive(Debug, Clone)]
pub struct SpanTracer {
    lanes: Vec<String>,
    events: Vec<Span>,
    cap: usize,
    dropped: u64,
}

impl SpanTracer {
    /// A tracer that stores at most `cap` events (the rest are counted
    /// as dropped — memory stays bounded on long runs).
    #[must_use]
    pub fn new(cap: usize) -> Self {
        SpanTracer {
            lanes: Vec::new(),
            events: Vec::new(),
            cap,
            dropped: 0,
        }
    }

    /// Finds or creates the lane `name`, returning its id.
    pub fn lane(&mut self, name: &str) -> u32 {
        if let Some(i) = self.lanes.iter().position(|l| l == name) {
            return i as u32;
        }
        self.lanes.push(name.to_string());
        (self.lanes.len() - 1) as u32
    }

    /// Lane names in id order.
    #[must_use]
    pub fn lanes(&self) -> &[String] {
        &self.lanes
    }

    fn record(&mut self, span: Span) {
        if self.events.len() < self.cap {
            self.events.push(span);
        } else {
            self.dropped += 1;
        }
    }

    /// Records a closed span directly.
    pub fn complete(&mut self, lane: u32, name: &'static str, ts: u64, dur: u64) {
        self.record(Span {
            lane,
            name,
            kind: SpanKind::Complete,
            ts,
            dur,
            id: 0,
        });
    }

    /// Records a point event.
    pub fn instant(&mut self, lane: u32, name: &'static str, ts: u64) {
        self.record(Span {
            lane,
            name,
            kind: SpanKind::Instant,
            ts,
            dur: 0,
            id: 0,
        });
    }

    /// Starts an async interval correlated by `id` (e.g. WPQ residency
    /// of one block, keyed by address).
    pub fn async_begin(&mut self, lane: u32, name: &'static str, id: u64, ts: u64) {
        self.record(Span {
            lane,
            name,
            kind: SpanKind::AsyncBegin,
            ts,
            dur: 0,
            id,
        });
    }

    /// Ends the async interval correlated by `id`.
    pub fn async_end(&mut self, lane: u32, name: &'static str, id: u64, ts: u64) {
        self.record(Span {
            lane,
            name,
            kind: SpanKind::AsyncEnd,
            ts,
            dur: 0,
            id,
        });
    }

    /// All recorded events, in record order.
    #[must_use]
    pub fn events(&self) -> &[Span] {
        &self.events
    }

    /// Number of events discarded after the cap was hit.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Checks the structural invariant the property tests rely on, per
    /// lane: complete spans are recorded in non-decreasing start order,
    /// and the span set is properly nested: any two spans on one lane are
    /// either disjoint or one contains the other.
    #[must_use]
    pub fn well_nested(&self) -> bool {
        let lanes = self.lanes.len().max(1);
        let mut per_lane: Vec<Vec<(u64, u64)>> = vec![Vec::new(); lanes];
        for s in &self.events {
            if s.kind != SpanKind::Complete {
                continue;
            }
            let lane = s.lane as usize;
            if lane >= lanes || per_lane[lane].last().is_some_and(|&(ts, _)| s.ts < ts) {
                return false;
            }
            per_lane[lane].push((s.ts, s.ts.saturating_add(s.dur)));
        }
        for spans in &mut per_lane {
            // Sort by start, widest first on ties, then sweep a stack of
            // enclosing end times.
            spans.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
            let mut stack: Vec<u64> = Vec::new();
            for &(ts, end) in spans.iter() {
                while stack.last().is_some_and(|&top| top <= ts) {
                    stack.pop();
                }
                if let Some(&top) = stack.last() {
                    if end > top {
                        return false;
                    }
                }
                stack.push(end);
            }
        }
        true
    }

    /// Exports the Chrome `trace_event` JSON object (the
    /// `{"traceEvents": [...]}` form, loadable in Perfetto). Each lane
    /// gets a `thread_name` metadata record; timestamps are cycles
    /// exported as microseconds.
    #[must_use]
    pub fn to_trace_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        let push = |out: &mut String, first: &mut bool, item: String| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push_str(&item);
        };
        for (tid, name) in self.lanes.iter().enumerate() {
            push(
                &mut out,
                &mut first,
                format!(
                    "{{\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"name\":\"thread_name\",\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    json::escape(name)
                ),
            );
        }
        for s in &self.events {
            let name = json::escape(s.name);
            let item = match s.kind {
                SpanKind::Complete => format!(
                    "{{\"ph\":\"X\",\"pid\":0,\"tid\":{},\"name\":\"{name}\",\
                     \"ts\":{},\"dur\":{}}}",
                    s.lane, s.ts, s.dur
                ),
                SpanKind::Instant => format!(
                    "{{\"ph\":\"i\",\"pid\":0,\"tid\":{},\"name\":\"{name}\",\
                     \"ts\":{},\"s\":\"t\"}}",
                    s.lane, s.ts
                ),
                SpanKind::AsyncBegin => format!(
                    "{{\"ph\":\"b\",\"cat\":\"thoth\",\"pid\":0,\"tid\":{},\
                     \"name\":\"{name}\",\"id\":\"0x{:x}\",\"ts\":{}}}",
                    s.lane, s.id, s.ts
                ),
                SpanKind::AsyncEnd => format!(
                    "{{\"ph\":\"e\",\"cat\":\"thoth\",\"pid\":0,\"tid\":{},\
                     \"name\":\"{name}\",\"id\":\"0x{:x}\",\"ts\":{}}}",
                    s.lane, s.id, s.ts
                ),
            };
            push(&mut out, &mut first, item);
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thoth_testkit::check;

    #[test]
    fn lanes_find_or_create() {
        let mut t = SpanTracer::new(16);
        let a = t.lane("core0");
        let b = t.lane("memctrl");
        assert_eq!(t.lane("core0"), a);
        assert_ne!(a, b);
        assert_eq!(t.lanes(), &["core0".to_string(), "memctrl".to_string()]);
    }

    #[test]
    fn cap_drops_rather_than_grows() {
        let mut t = SpanTracer::new(2);
        let lane = t.lane("core0");
        for i in 0..5 {
            t.instant(lane, "tick", i);
        }
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.dropped(), 3);
    }

    #[test]
    fn well_nested_accepts_sequential_and_nested() {
        let mut t = SpanTracer::new(64);
        let lane = t.lane("core0");
        t.complete(lane, "a", 0, 100);
        t.complete(lane, "a.inner", 10, 20);
        t.complete(lane, "b", 200, 50);
        let other = t.lane("core1");
        t.complete(other, "c", 5, 1000);
        assert!(t.well_nested());
    }

    #[test]
    fn well_nested_rejects_overlap_and_time_travel() {
        let mut t = SpanTracer::new(64);
        let lane = t.lane("core0");
        t.complete(lane, "a", 0, 100);
        t.complete(lane, "b", 50, 100);
        assert!(!t.well_nested());

        let mut t2 = SpanTracer::new(64);
        let lane = t2.lane("core0");
        t2.complete(lane, "a", 100, 10);
        t2.complete(lane, "b", 50, 10);
        assert!(!t2.well_nested());
    }

    #[test]
    fn trace_json_is_valid_and_has_lane_metadata() {
        let mut t = SpanTracer::new(64);
        let core = t.lane("core0");
        let mc = t.lane("memctrl");
        t.complete(core, "store", 0, 12);
        t.instant(mc, "pub_append", 4);
        t.async_begin(mc, "wpq", 0xdead_beef, 2);
        t.async_end(mc, "wpq", 0xdead_beef, 9);
        let json_text = t.to_trace_json();
        crate::json::validate(&json_text).expect("exported trace must be valid JSON");
        assert!(json_text.contains("\"thread_name\""));
        assert!(json_text.contains("\"core0\""));
        assert!(json_text.contains("\"ph\":\"X\""));
        assert!(json_text.contains("\"id\":\"0xdeadbeef\""));
    }

    #[test]
    fn stack_discipline_is_always_well_nested() {
        // Property: spans opened and closed in stack order with advancing
        // time, recorded as complete spans in start order, are
        // well-nested and export as syntactically valid JSON.
        check(50, |g| {
            let mut t = SpanTracer::new(4096);
            let lanes = [t.lane("core0"), t.lane("core1")];
            let mut now = 0u64;
            let mut open: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
            let mut spans = Vec::new();
            for _ in 0..g.range_usize(1, 100) {
                now += g.range(1, 50);
                let li = g.range_usize(0, 2);
                if !open[li].is_empty() && g.bool() {
                    let start = open[li].pop().expect("non-empty");
                    spans.push((start, li, now));
                } else if open[li].len() < 8 {
                    open[li].push(now);
                }
            }
            for (li, stack) in open.iter_mut().enumerate() {
                while let Some(start) = stack.pop() {
                    now += 1;
                    spans.push((start, li, now));
                }
            }
            spans.sort_unstable();
            for (start, li, end) in spans {
                t.complete(lanes[li], "op", start, end - start);
            }
            assert!(t.well_nested());
            crate::json::validate(&t.to_trace_json()).expect("valid JSON");
        });
    }
}
