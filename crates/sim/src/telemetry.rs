//! The machine-side telemetry session: pre-registered stat handles,
//! trace lanes, queue probes, and the epoch-sampled timeline schema.
//!
//! `MachineTelemetry` wraps a [`TelemetrySink`] with everything the
//! replay loop needs resolved up front — counter/histogram IDs, one
//! tracer lane per core plus the memory-controller and PUB-engine lanes,
//! and one occupancy probe per persist-path queue — so per-op recording
//! is array indexing, never name lookup. It is one of the observers in
//! the machine's instrumentation tap, and the only place telemetry
//! observes the machine: the substrates (WPQ, NVM banks, PCB/PUB) carry
//! no probes. Plain runs carry no tap and pay one `None` check per
//! instrumentation site (the differential test `telemetry_neutrality`
//! pins byte-identical reports).

use crate::machine::SecureNvm;

use thoth_memctrl::WpqEvent;
use thoth_nvm::{WriteCategory, NUM_BANKS};
use thoth_sim_engine::Cycle;
use thoth_telemetry::{
    CounterId, HistId, QueueProbe, TelemetryConfig, TelemetryReport, TelemetrySink,
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

/// Per-op stat handles: a counter and a latency histogram kept in
/// lock-step through [`thoth_telemetry::Registry::event`].
#[derive(Clone, Copy)]
struct OpStat {
    counter: CounterId,
    latency: HistId,
}

/// One run's telemetry state, owned by the machine's tap while
/// instrumented.
pub(crate) struct MachineTelemetry {
    /// The underlying sink (registry + timeline + tracer).
    pub sink: TelemetrySink,
    reads: OpStat,
    stores: OpStat,
    stores_relaxed: OpStat,
    flushes: OpStat,
    fences: OpStat,
    commits: OpStat,
    pub_appends: CounterId,
    pub_evicts: CounterId,
    wpq_accepts: CounterId,
    wpq_drains: CounterId,
    aes_hw_blocks: CounterId,
    hash_batch_runs: CounterId,
    sip_simd_rows: CounterId,
    core_lanes: Vec<u32>,
    mc_lane: u32,
    pub_lane: u32,
    /// Occupancy probes over the WPQ, the NVM banks and, in Thoth modes,
    /// the PCB and the PUB — in that order, the order of the
    /// `-queues.csv` rows.
    queues: Vec<QueueProbe>,
    /// End cycle of the most recently recorded op — the timestamp WPQ
    /// events (which carry none of their own) are stamped with.
    last_now: u64,
}

impl MachineTelemetry {
    /// Builds the session for `cores` replay lanes over machine `m`,
    /// whose queue capacities bound the probes.
    #[must_use]
    pub fn new(config: TelemetryConfig, cores: usize, m: &SecureNvm) -> Self {
        let mut sink = TelemetrySink::new(config, TIMELINE_COLUMNS);
        let op = |sink: &mut TelemetrySink, name: &'static str, lat: &'static str| OpStat {
            counter: sink.registry.counter(name),
            latency: sink.registry.hist(lat),
        };
        let reads = op(&mut sink, "ops_read", "read_cycles");
        let stores = op(&mut sink, "ops_store", "store_cycles");
        let stores_relaxed = op(&mut sink, "ops_store_relaxed", "store_relaxed_cycles");
        let flushes = op(&mut sink, "ops_flush", "flush_cycles");
        let fences = op(&mut sink, "ops_fence", "fence_cycles");
        let commits = op(&mut sink, "ops_commit", "commit_cycles");
        let pub_appends = sink.registry.counter("pub_appends");
        let pub_evicts = sink.registry.counter("pub_evicts");
        let wpq_accepts = sink.registry.counter("wpq_accepts");
        let wpq_drains = sink.registry.counter("wpq_drains");
        let aes_hw_blocks = sink.registry.counter("aes_hw_blocks");
        let hash_batch_runs = sink.registry.counter("hash_batch_runs");
        let sip_simd_rows = sink.registry.counter("sip_simd_rows");
        let (core_lanes, mc_lane, pub_lane) = match sink.tracer.as_mut() {
            Some(t) => {
                let lanes: Vec<u32> = (0..cores)
                    .map(|i| t.lane(&format!("core{i}")))
                    .collect();
                (lanes, t.lane("memctrl"), t.lane("pub-engine"))
            }
            None => (vec![0; cores], 0, 0),
        };
        let mut queues = vec![
            QueueProbe::new("wpq", m.wpq.config().capacity as u64),
            QueueProbe::new("nvm_banks", NUM_BANKS as u64),
        ];
        if let Some(engine) = m.thoth.as_ref() {
            queues.extend([
                QueueProbe::new("pcb", engine.pcb_capacity_updates() as u64),
                QueueProbe::new("pub", engine.pub_buffer().capacity_blocks()),
            ]);
        }
        MachineTelemetry {
            sink,
            reads,
            stores,
            stores_relaxed,
            flushes,
            fences,
            commits,
            pub_appends,
            pub_evicts,
            wpq_accepts,
            wpq_drains,
            aes_hw_blocks,
            hash_batch_runs,
            sip_simd_rows,
            core_lanes,
            mc_lane,
            pub_lane,
            queues,
            last_now: 0,
        }
    }

    /// Records one replayed op: its counter/latency pair plus (when
    /// tracing) a complete span on the issuing core's lane.
    pub fn record_op(&mut self, core: usize, op: TraceOp, start: u64, end: u64) {
        let (stat, name) = match op {
            TraceOp::Read { .. } => (self.reads, "read"),
            TraceOp::Store { .. } => (self.stores, "store"),
            TraceOp::StoreRelaxed { .. } => (self.stores_relaxed, "store_relaxed"),
            TraceOp::Flush { .. } => (self.flushes, "flush"),
            TraceOp::Fence => (self.fences, "fence"),
            TraceOp::Commit => (self.commits, "commit"),
        };
        let latency = end.saturating_sub(start);
        self.last_now = self.last_now.max(end);
        self.sink.registry.event(stat.counter, stat.latency, latency);
        if let Some(t) = self.sink.tracer.as_mut() {
            t.complete(self.core_lanes[core], name, start, latency);
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
        for (probe, occ) in self.queues.iter_mut().zip(occupancy) {
            probe.record(occ);
        }
    }

    /// Pushes one timeline row if the sampling epoch elapsed at `now`.
    pub fn sample(&mut self, now: Cycle, m: &SecureNvm) {
        if !self.sink.sample_due(now.0) {
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
        self.sink.timeline.push(now.0, &row);
        self.sink.advance_epoch(now.0);
    }

    /// Records a PUB append (packed block entering the circular buffer).
    pub fn record_pub_append(&mut self, now: u64) {
        self.sink.registry.add(self.pub_appends, 1);
        if let Some(t) = self.sink.tracer.as_mut() {
            t.instant(self.pub_lane, "pub_append", now);
        }
    }

    /// Records a PUB eviction read (oldest block leaving the buffer).
    pub fn record_pub_evict(&mut self, now: u64) {
        self.sink.registry.add(self.pub_evicts, 1);
        if let Some(t) = self.sink.tracer.as_mut() {
            t.instant(self.pub_lane, "pub_evict", now);
        }
    }

    /// Records a WPQ acceptance or drain. A non-coalesced acceptance
    /// opens an async residency interval on the memory-controller lane
    /// keyed by address; the entry's drain closes it.
    pub fn record_wpq(&mut self, e: WpqEvent) {
        let now = self.last_now;
        match e {
            WpqEvent::Accepted { addr, coalesced, .. } => {
                self.sink.registry.add(self.wpq_accepts, 1);
                if !coalesced {
                    if let Some(t) = self.sink.tracer.as_mut() {
                        t.async_begin(self.mc_lane, "wpq", addr, now);
                    }
                }
            }
            WpqEvent::Drained { addr, .. } => {
                self.sink.registry.add(self.wpq_drains, 1);
                if let Some(t) = self.sink.tracer.as_mut() {
                    t.async_end(self.mc_lane, "wpq", addr, now);
                }
            }
        }
    }

    /// Ends the session: absorbs the queue probes and harvests the
    /// substrate throughput counters — AES blocks encrypted by the
    /// hardware backend, batched hash-kernel invocations (merkle + MAC),
    /// and SipHash rows that went through the multi-lane SIMD kernel.
    /// These are read once from the engines rather than recorded per
    /// event — the hot paths stay telemetry-free.
    pub fn harvest(mut self, m: &SecureNvm) -> TelemetryReport {
        for probe in &self.queues {
            self.sink.absorb_probe(probe);
        }
        let registry = &mut self.sink.registry;
        registry.add(self.aes_hw_blocks, m.ctr_mode.hw_blocks());
        registry.add(self.hash_batch_runs, m.tree.batch_runs() + m.mac.batch_runs());
        registry.add(self.sip_simd_rows, m.tree.simd_rows() + m.mac.simd_rows());
        self.sink.finish()
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
        let r = &tm.sink.registry;
        assert_eq!(r.counter_value("ops_read"), Some(2));
        assert_eq!(r.hist_named("read_cycles").expect("registered").count(), 2);
        assert_eq!(r.hist_named("read_cycles").expect("registered").sum(), 300);
        assert_eq!(r.counter_value("ops_commit"), Some(1));
        let tracer = tm.sink.tracer.as_ref().expect("full config traces");
        assert_eq!(tracer.lanes().len(), 4, "2 cores + memctrl + pub-engine");
        assert!(tracer.well_nested());
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
        assert!(tm.sink.tracer.is_none());
        let r = &tm.sink.registry;
        assert_eq!(r.counter_value("pub_appends"), Some(1));
        assert_eq!(r.counter_value("wpq_accepts"), Some(1));
        assert_eq!(r.counter_value("wpq_drains"), Some(1));
    }

}
