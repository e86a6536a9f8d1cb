//! Open-loop service replay: arrival gating and persist-ACK latency.
//!
//! The closed-loop replay loop issues each core's next op the moment the
//! previous one retires. A service front-end is driven by an *arrival
//! schedule* instead: a request may not start before its arrival cycle,
//! and its latency is measured **from arrival** — so when the machine
//! falls behind the offered load, queueing delay accumulates into the
//! tail exactly as it would at a real front-end.
//!
//! `ServiceSession` is installed by [`crate::SecureNvm::run_service`] in
//! the machine's instrumentation tap, which consults it at two points:
//!
//! * before an op issues, `ServiceSession::gate` checks whether the
//!   core's next request has arrived yet; if not, the core sleeps until
//!   the arrival cycle (the op is re-scheduled, not executed), and
//! * after an op retires, `ServiceSession::end_op` counts it against
//!   the open request's op extent; retiring the last op completes the
//!   request and records `completion − arrival` into log2-bucket
//!   [`Hist`]s (overall and per op kind).
//!
//! A mutating request's last op is its `Commit`, which waits on every
//! outstanding persist ACK — so the recorded latency is precisely the
//! *persist-ACK* latency of the request. Read-only requests complete at
//! their last read return.

use thoth_telemetry::Hist;
use thoth_workloads::service::{ReqKind, ServiceTrace};
use thoth_workloads::RequestMeta;

use thoth_sim_engine::Cycle;

/// Per-core cursor over the request schedule.
#[derive(Debug, Clone)]
struct CoreCursor {
    /// The core's schedule (partitions its op stream).
    schedule: Vec<RequestMeta>,
    /// Index of the next request to open (or the open one).
    next: usize,
    /// Ops left in the open request; 0 means no request is open.
    ops_left: u32,
    /// Arrival cycle of the open request.
    arrival: u64,
    /// Whether the open request counts toward the latency histograms.
    measured: bool,
    /// Kind of the open request.
    kind: ReqKind,
}

/// Latency results of one open-loop service run.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Persist-ACK latency (cycles, measured from arrival) of every
    /// measured request.
    pub latency: Hist,
    /// Latency of measured read-only requests.
    pub latency_read: Hist,
    /// Latency of measured mutating requests (updates + RMWs).
    pub latency_mutate: Hist,
    /// Requests completed, warm-up included.
    pub completed: u64,
    /// Measured requests completed (== `latency.count()`).
    pub measured: u64,
}

/// The replay-time state of one service run (installed on the machine by
/// [`crate::SecureNvm::run_service`]).
#[derive(Debug, Clone)]
pub(crate) struct ServiceSession {
    cursors: Vec<CoreCursor>,
    latency: Hist,
    latency_read: Hist,
    latency_mutate: Hist,
    completed: u64,
}

impl ServiceSession {
    /// Builds a session over the trace's request schedules.
    ///
    /// # Panics
    ///
    /// Panics if a core's request op extents do not partition its op
    /// stream exactly (a malformed trace).
    #[must_use]
    pub fn new(st: &ServiceTrace) -> Self {
        assert_eq!(st.requests.len(), st.trace.cores.len());
        for (metas, ops) in st.requests.iter().zip(&st.trace.cores) {
            let total: u64 = metas.iter().map(|m| u64::from(m.ops)).sum();
            assert_eq!(
                total,
                ops.len() as u64,
                "request extents must partition the op stream"
            );
        }
        ServiceSession {
            cursors: st
                .requests
                .iter()
                .map(|metas| CoreCursor {
                    schedule: metas.clone(),
                    next: 0,
                    ops_left: 0,
                    arrival: 0,
                    measured: false,
                    kind: ReqKind::Read,
                })
                .collect(),
            latency: Hist::new(),
            latency_read: Hist::new(),
            latency_mutate: Hist::new(),
            completed: 0,
        }
    }

    /// Called before core `ci` issues its next op at `now`. Returns
    /// `Some(arrival)` when the op belongs to a request that has not
    /// arrived yet — the caller must sleep the core until then instead of
    /// issuing. Returns `None` when the op may issue (opening the next
    /// request if none is open).
    pub fn gate(&mut self, ci: usize, now: Cycle) -> Option<Cycle> {
        let cur = &mut self.cursors[ci];
        if cur.ops_left > 0 {
            return None; // mid-request: never stall
        }
        let meta = cur.schedule.get(cur.next)?;
        if meta.arrival > now.0 {
            return Some(Cycle(meta.arrival));
        }
        cur.ops_left = meta.ops;
        cur.arrival = meta.arrival;
        cur.measured = meta.measured;
        cur.kind = meta.kind;
        cur.next += 1;
        None
    }

    /// Called after core `ci` retires one op at `now`; completes the open
    /// request when its extent is exhausted.
    pub fn end_op(&mut self, ci: usize, now: Cycle) {
        let cur = &mut self.cursors[ci];
        if cur.ops_left == 0 {
            return; // op outside any request (not reachable from run_service)
        }
        cur.ops_left -= 1;
        if cur.ops_left > 0 {
            return;
        }
        self.completed += 1;
        if cur.measured {
            let lat = now.0.saturating_sub(cur.arrival);
            self.latency.observe(lat);
            match cur.kind {
                ReqKind::Read => self.latency_read.observe(lat),
                ReqKind::Update | ReqKind::Rmw => self.latency_mutate.observe(lat),
            }
        }
    }

    /// Consumes the session into its report.
    #[must_use]
    pub fn into_report(self) -> ServiceReport {
        let measured = self.latency.count();
        ServiceReport {
            latency: self.latency,
            latency_read: self.latency_read,
            latency_mutate: self.latency_mutate,
            completed: self.completed,
            measured,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thoth_workloads::service::{generate_service, ServiceSpec};
    use thoth_workloads::MultiCoreTrace;

    fn session_for(nops: &[u32], arrivals: &[u64]) -> ServiceSession {
        // Hand-build a one-core trace skeleton with the given extents.
        let total: u32 = nops.iter().sum();
        let ops = vec![
            thoth_workloads::TraceOp::Read { addr: 0, len: 8 };
            total as usize
        ];
        let st = ServiceTrace {
            trace: MultiCoreTrace {
                cores: vec![ops.into()],
                warmup_txs_per_core: 0,
            },
            requests: vec![nops
                .iter()
                .zip(arrivals)
                .map(|(&ops, &arrival)| RequestMeta {
                    arrival,
                    ops,
                    tenant: 0,
                    kind: ReqKind::Read,
                    measured: true,
                })
                .collect()],
        };
        ServiceSession::new(&st)
    }

    #[test]
    fn gate_stalls_until_arrival_then_opens() {
        let mut s = session_for(&[2], &[100]);
        assert_eq!(s.gate(0, Cycle(10)), Some(Cycle(100)));
        assert_eq!(s.gate(0, Cycle(100)), None); // opens the request
        assert_eq!(s.gate(0, Cycle(100)), None); // mid-request: no stall
    }

    #[test]
    fn end_op_records_latency_from_arrival() {
        let mut s = session_for(&[2, 1], &[100, 100]);
        assert!(s.gate(0, Cycle(150)).is_none());
        s.end_op(0, Cycle(160));
        s.end_op(0, Cycle(400)); // completes request 1: latency 300
        assert!(s.gate(0, Cycle(400)).is_none());
        s.end_op(0, Cycle(450)); // completes request 2: latency 350
        let r = s.into_report();
        assert_eq!(r.measured, 2);
        assert_eq!(r.completed, 2);
        assert_eq!(r.latency.min(), 300);
        assert_eq!(r.latency.max(), 350);
    }

    #[test]
    fn exhausted_schedule_gates_none() {
        let mut s = session_for(&[1], &[0]);
        assert!(s.gate(0, Cycle(0)).is_none());
        s.end_op(0, Cycle(5));
        assert!(s.gate(0, Cycle(6)).is_none(), "no further requests");
    }

    #[test]
    #[should_panic(expected = "partition the op stream")]
    fn malformed_extents_panic() {
        let total_mismatch = ServiceTrace {
            trace: MultiCoreTrace {
                cores: vec![[thoth_workloads::TraceOp::Read { addr: 0, len: 8 }].into()],
                warmup_txs_per_core: 0,
            },
            requests: vec![vec![RequestMeta {
                arrival: 0,
                ops: 3,
                tenant: 0,
                kind: ReqKind::Read,
                measured: true,
            }]],
        };
        let _ = ServiceSession::new(&total_mismatch);
    }

    #[test]
    fn session_over_generated_trace_is_well_formed() {
        let mut spec = ServiceSpec::default_spec();
        spec.cores = 2;
        spec.tenants = 4;
        spec.requests_per_core = 40;
        spec.warmup_requests_per_core = 5;
        spec.keys_per_tenant = 128;
        spec.prepopulate_per_tenant = 32;
        let st = generate_service(&spec);
        let s = ServiceSession::new(&st); // asserts the partition invariant
        assert_eq!(s.cursors.len(), 2);
    }
}
