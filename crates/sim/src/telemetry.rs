//! The machine-side telemetry observer: the state one instrumented run
//! records into, and the epoch-sampled timeline schema.
//!
//! `MachineTelemetry` holds plain values: one latency histogram per op
//! kind (whose count is that kind's `ops_*` counter), four event
//! counters, the timeline, the optional tracer, and one occupancy
//! histogram per persist-path queue. Per-op recording is array indexing;
//! the report's named rows are built once, at the end of the run. It is
//! one of the observers in the machine's instrumentation tap, and the
//! only place telemetry observes the machine: the substrates (WPQ, NVM
//! banks, PCB/PUB) carry no probes. Plain runs carry no tap and pay one
//! `None` check per instrumentation site (the differential test
//! `telemetry_neutrality` pins byte-identical reports).

use crate::machine::SecureNvm;

use thoth_memctrl::WpqEvent;
use thoth_nvm::{WriteCategory, NUM_BANKS};
use thoth_sim_engine::Cycle;
use thoth_telemetry::{
    Hist, ProbeSummary, Registry, SpanTracer, TelemetryConfig, TelemetryReport, Timeline,
    EPOCH_CYCLES, TRACE_CAP,
};
use thoth_workloads::TraceOp;

/// Column schema of the epoch-sampled timeline (`cycle` is implicit).
pub const TIMELINE_COLUMNS: &[&str] = &[
    "wpq_occ",
    "pcb_updates",
    "pub_fill",
    "nvm_qdepth",
    "evict_skip_rate",
    "bytes_data",
    "bytes_counter",
    "bytes_mac",
    "bytes_pub",
    "bytes_tree",
    "bytes_shadow",
];

/// Per op kind, in the order `record_op` numbers them: its counter row,
/// its latency histogram row and its trace span name.
const OP_ROWS: [(&str, &str, &str); 6] = [
    ("ops_read", "read_cycles", "read"),
    ("ops_store", "store_cycles", "store"),
    ("ops_store_relaxed", "store_relaxed_cycles", "store_relaxed"),
    ("ops_flush", "flush_cycles", "flush"),
    ("ops_fence", "fence_cycles", "fence"),
    ("ops_commit", "commit_cycles", "commit"),
];

/// The probed queues of `m` as `(name, capacity)`: the WPQ, the NVM
/// banks and, in Thoth modes, the PCB and the PUB — in that order, the
/// order of the `-queues.csv` rows.
fn queues(m: &SecureNvm) -> Vec<(&'static str, u64)> {
    let mut queues = vec![
        ("wpq", m.wpq.capacity() as u64),
        ("nvm_banks", NUM_BANKS as u64),
    ];
    if let Some(engine) = m.thoth.as_ref() {
        queues.extend([
            ("pcb", engine.pcb_capacity_updates() as u64),
            ("pub", engine.pub_buffer().capacity_blocks()),
        ]);
    }
    queues
}

/// Trace lanes are created cores first, then `memctrl`, then
/// `pub-engine`: the memory-controller lane is the second to last.
fn mc_lane(t: &SpanTracer) -> u32 {
    t.lanes().len() as u32 - 2
}

/// The PUB-engine lane, the last one.
fn pub_lane(t: &SpanTracer) -> u32 {
    t.lanes().len() as u32 - 1
}

/// One run's telemetry state, owned by the machine's tap while
/// instrumented.
#[derive(Clone)]
pub(crate) struct MachineTelemetry {
    /// Latency of each op kind, in [`OP_ROWS`] order; a histogram's
    /// count is its kind's `ops_*` counter.
    op_cycles: [Hist; 6],
    pub_appends: u64,
    pub_evicts: u64,
    wpq_accepts: u64,
    wpq_drains: u64,
    timeline: Timeline,
    /// The cycle from which the next timeline row is due.
    next_sample: u64,
    /// Present only when [`TelemetryConfig::trace`] is set; lane `i` is
    /// core `i`.
    tracer: Option<SpanTracer>,
    /// Occupancy of each queue [`queues`] lists, in its order.
    occupancy: Vec<Hist>,
    /// End cycle of the most recently recorded op — the timestamp WPQ
    /// events (which carry none of their own) are stamped with.
    last_now: u64,
}

impl MachineTelemetry {
    /// Builds the session for `cores` replay lanes over machine `m`,
    /// whose queues it samples.
    #[must_use]
    pub fn new(config: TelemetryConfig, cores: usize, m: &SecureNvm) -> Self {
        let tracer = config.trace.then(|| {
            let mut t = SpanTracer::new(TRACE_CAP);
            for i in 0..cores {
                t.lane(&format!("core{i}"));
            }
            t.lane("memctrl");
            t.lane("pub-engine");
            t
        });
        MachineTelemetry {
            op_cycles: std::array::from_fn(|_| Hist::new()),
            pub_appends: 0,
            pub_evicts: 0,
            wpq_accepts: 0,
            wpq_drains: 0,
            timeline: Timeline::new(TIMELINE_COLUMNS),
            next_sample: 0,
            tracer,
            occupancy: vec![Hist::new(); queues(m).len()],
            last_now: 0,
        }
    }

    /// Records one replayed op: its latency (which also counts it) plus
    /// (when tracing) a complete span on the issuing core's lane.
    pub fn record_op(&mut self, core: usize, op: TraceOp, start: u64, end: u64) {
        let kind = match op {
            TraceOp::Read { .. } => 0,
            TraceOp::Store { .. } => 1,
            TraceOp::StoreRelaxed { .. } => 2,
            TraceOp::Flush { .. } => 3,
            TraceOp::Fence => 4,
            TraceOp::Commit => 5,
        };
        let latency = end.saturating_sub(start);
        self.last_now = self.last_now.max(end);
        self.op_cycles[kind].observe(latency);
        if let Some(t) = self.tracer.as_mut() {
            t.complete(core as u32, OP_ROWS[kind].2, start, latency);
        }
    }

    /// Records the occupancy of every probed queue after an op retired
    /// at `now`: WPQ entries, busy NVM banks, buffered PCB updates and
    /// valid PUB blocks.
    pub fn record_queues(&mut self, now: Cycle, m: &SecureNvm) {
        let mut occupancy = [m.wpq.occupancy() as u64, m.nvm.queue_depth(now), 0, 0];
        if let Some(engine) = m.thoth.as_ref() {
            occupancy[2] = engine.pcb_buffered_updates() as u64;
            occupancy[3] = engine.pub_buffer().len_blocks();
        }
        for (hist, occ) in self.occupancy.iter_mut().zip(occupancy) {
            hist.observe(occ);
        }
    }

    /// Pushes one timeline row if the sampling epoch elapsed at `now`.
    pub fn sample(&mut self, now: Cycle, m: &SecureNvm) {
        if now.0 < self.next_sample {
            return;
        }
        let (wpq, nvm) = (&m.wpq, &m.nvm);
        let (pcb_updates, pub_fill, skip_rate) = match m.thoth.as_ref() {
            Some(engine) => {
                let outcomes: u64 = engine.outcomes().values().sum();
                let persists = engine.policy_persists();
                let skip = if outcomes == 0 {
                    0.0
                } else {
                    1.0 - persists as f64 / outcomes as f64
                };
                (
                    engine.pcb_buffered_updates() as f64,
                    engine.pub_buffer().occupancy(),
                    skip,
                )
            }
            None => (0.0, 0.0, 0.0),
        };
        let bytes = |cat: WriteCategory| (nvm.writes_in(cat) * m.config.block_bytes as u64) as f64;
        let row = [
            wpq.occupancy() as f64,
            pcb_updates,
            pub_fill,
            nvm.queue_depth(now) as f64,
            skip_rate,
            bytes(WriteCategory::Data),
            bytes(WriteCategory::CounterBlock),
            bytes(WriteCategory::MacBlock),
            bytes(WriteCategory::PubBlock),
            bytes(WriteCategory::TreeNode),
            bytes(WriteCategory::Shadow),
        ];
        self.timeline.push(now.0, &row);
        while self.next_sample <= now.0 {
            self.next_sample += EPOCH_CYCLES;
        }
    }

    /// Records a PUB append (packed block entering the circular buffer).
    pub fn record_pub_append(&mut self, now: u64) {
        self.pub_appends += 1;
        if let Some(t) = self.tracer.as_mut() {
            t.instant(pub_lane(t), "pub_append", now);
        }
    }

    /// Records a PUB eviction read (oldest block leaving the buffer).
    pub fn record_pub_evict(&mut self, now: u64) {
        self.pub_evicts += 1;
        if let Some(t) = self.tracer.as_mut() {
            t.instant(pub_lane(t), "pub_evict", now);
        }
    }

    /// Records a WPQ acceptance or drain. A non-coalesced acceptance
    /// opens an async residency interval on the memory-controller lane
    /// keyed by address; the entry's drain closes it.
    pub fn record_wpq(&mut self, e: WpqEvent) {
        let now = self.last_now;
        match e {
            WpqEvent::Accepted { addr, coalesced, .. } => {
                self.wpq_accepts += 1;
                if !coalesced {
                    if let Some(t) = self.tracer.as_mut() {
                        t.async_begin(mc_lane(t), "wpq", addr, now);
                    }
                }
            }
            WpqEvent::Drained { addr, .. } => {
                self.wpq_drains += 1;
                if let Some(t) = self.tracer.as_mut() {
                    t.async_end(mc_lane(t), "wpq", addr, now);
                }
            }
        }
    }

    /// Ends the session and builds the report's named rows: the counters
    /// in `counters.csv` order, the latency histograms, and one queue
    /// summary per probed queue. The substrate throughput counters — AES
    /// blocks encrypted by the hardware backend, batched hash-kernel
    /// invocations (merkle + MAC), and SipHash rows that went through the
    /// multi-lane SIMD kernel — are read once from the engines rather
    /// than recorded per event, so the hot paths stay telemetry-free.
    pub fn harvest(self, m: &SecureNvm) -> TelemetryReport {
        let mut counters: Vec<(&'static str, u64)> = OP_ROWS
            .iter()
            .zip(&self.op_cycles)
            .map(|(&(name, ..), h)| (name, h.count()))
            .collect();
        counters.extend([
            ("pub_appends", self.pub_appends),
            ("pub_evicts", self.pub_evicts),
            ("wpq_accepts", self.wpq_accepts),
            ("wpq_drains", self.wpq_drains),
            ("aes_hw_blocks", m.ctr_mode.hw_blocks()),
            ("hash_batch_runs", m.tree.batch_runs() + m.mac.batch_runs()),
            ("sip_simd_rows", m.tree.simd_rows() + m.mac.simd_rows()),
        ]);
        let hists = OP_ROWS
            .iter()
            .zip(self.op_cycles)
            .map(|(&(_, name, _), h)| (name, h))
            .collect();
        let probes = queues(m)
            .into_iter()
            .zip(&self.occupancy)
            .map(|((name, capacity), h)| ProbeSummary::of(name, capacity, h))
            .collect();
        let (trace_json, trace_dropped, trace_well_nested) = match &self.tracer {
            Some(t) => (Some(t.to_trace_json()), t.dropped(), t.well_nested()),
            None => (None, 0, true),
        };
        TelemetryReport {
            registry: Registry::new(counters, hists),
            timeline: self.timeline,
            probes,
            trace_json,
            trace_dropped,
            trace_well_nested,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Mode, SimConfig};

    fn machine(mode: Mode) -> SecureNvm {
        SecureNvm::new(SimConfig::paper_default(mode, 128))
    }

    #[test]
    fn op_stats_stay_in_lock_step() {
        let m = machine(Mode::baseline());
        let mut tm = MachineTelemetry::new(TelemetryConfig::full(), 2, &m);
        tm.record_op(0, TraceOp::Read { addr: 0, len: 64 }, 100, 160);
        tm.record_op(1, TraceOp::Commit, 200, 200);
        tm.record_op(0, TraceOp::Read { addr: 64, len: 64 }, 160, 400);
        let tracer = tm.tracer.as_ref().expect("full config traces");
        assert_eq!(tracer.lanes(), ["core0", "core1", "memctrl", "pub-engine"]);
        assert!(tracer.well_nested());
        let r = tm.harvest(&m).registry;
        assert_eq!(r.counter_value("ops_read"), Some(2));
        assert_eq!(r.hist_named("read_cycles").expect("registered").count(), 2);
        assert_eq!(r.hist_named("read_cycles").expect("registered").sum(), 300);
        assert_eq!(r.counter_value("ops_commit"), Some(1));
    }

    #[test]
    fn counters_only_skips_lanes() {
        let m = machine(Mode::baseline());
        let mut tm = MachineTelemetry::new(TelemetryConfig::counters_only(), 1, &m);
        tm.record_op(0, TraceOp::Fence, 0, 10);
        tm.record_pub_append(5);
        let category = thoth_nvm::WriteCategory::Data;
        tm.record_wpq(WpqEvent::Accepted { addr: 0x80, category, coalesced: false });
        tm.record_wpq(WpqEvent::Drained { addr: 0x80, origins: 0 });
        assert!(tm.tracer.is_none());
        let report = tm.harvest(&m);
        assert!(report.trace_json.is_none());
        let r = &report.registry;
        assert_eq!(r.counter_value("pub_appends"), Some(1));
        assert_eq!(r.counter_value("wpq_accepts"), Some(1));
        assert_eq!(r.counter_value("wpq_drains"), Some(1));
    }

    #[test]
    fn epoch_advancing() {
        // A row is due at the first op, then at the first op at or past
        // each later multiple of the epoch.
        let m = machine(Mode::baseline());
        let mut tm = MachineTelemetry::new(TelemetryConfig::counters_only(), 1, &m);
        let e = EPOCH_CYCLES;
        for now in [0, e - 1, e, 3 * e + 57, 4 * e - 1, 4 * e] {
            tm.sample(Cycle(now), &m);
        }
        let cycles: Vec<u64> = tm.timeline.rows().iter().map(|(c, _)| *c).collect();
        assert_eq!(cycles, [0, e, 3 * e + 57, 4 * e]);
    }
}
