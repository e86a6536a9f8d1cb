//! The machine's one instrumentation tap.
//!
//! Thoth's guarantees are made at ADR acceptance points — WPQ persist
//! ACKs, PUB appends, metadata persists — and five observers watch them:
//! the sanitizer's persist-event stream, the crash anchors, the recovery
//! oracle's op log, telemetry, and the open-loop service gate. A run
//! installs whichever it needs in one [`Tap`], the machine reports every
//! observable step as one [`Event`], and [`Tap::emit`] is the one place
//! that decides which observer sees which event. Plain runs carry no tap,
//! so each instrumentation site costs them one `None` check.

use crate::crash::{CrashPlan, CrashSiteCounts, CrashSiteKind, LoggedOp};
use crate::machine::SecureNvm;
use crate::psan_events::{MetaMech, PersistEvent, PersistEventKind, NO_CTX};
use crate::service::ServiceSession;
use crate::telemetry::MachineTelemetry;

use thoth_memctrl::WpqEvent;
use thoth_sim_engine::Cycle;
use thoth_workloads::TraceOp;

/// One observable step of a run.
pub(crate) enum Event<'a> {
    /// Core `core` issues `op`, entry `idx` of its stream, at `now`,
    /// unless the service gate answers [`Verdict::Sleep`].
    Issue {
        core: usize,
        idx: usize,
        op: TraceOp,
        now: Cycle,
    },
    /// A `clwb` reached `block`; `pending` when it wrote relaxed data back.
    Flush { block: u64, pending: bool },
    /// A block store of core `core` to data block index `block` was
    /// ACKed, hence durable.
    Persisted { core: usize, block: u64 },
    /// The metadata guarding the data persist of `block` got its own
    /// durable-ordering edge via `mech`.
    MetaCover { block: u64, mech: MetaMech },
    /// PUB eviction persisted a metadata block.
    MetaPersist,
    /// A packed PUB block entered the persistence path at `now`.
    PubAppend {
        addr: u64,
        image: &'a [u8],
        now: Cycle,
    },
    /// PUB eviction consumed the block at `addr` at `now`.
    PubEvict { addr: u64, now: Cycle },
    /// Core `core` retired `op`, issued at `start`, at `end`; `machine`
    /// is what telemetry's queue probes and timeline sample.
    Retired {
        core: usize,
        op: TraceOp,
        start: Cycle,
        end: Cycle,
        machine: &'a SecureNvm,
    },
    /// WPQ acceptances and drains buffered since the last pump.
    Wpq(&'a [WpqEvent]),
    /// No op is executing: events from here on (e.g. the tail drain)
    /// have no originating op.
    Quiesce,
}

/// What the machine does after an event.
#[derive(PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Carry on.
    Go,
    /// The core's next request has not arrived: it sleeps until then.
    Sleep(Cycle),
    /// The planned crash fired: power is gone, start nothing new.
    Halt,
}

/// The observers one run installed.
#[derive(Default, Clone)]
pub(crate) struct Tap {
    /// Crash anchors seen so far, per kind; `None` when no crash
    /// observer is installed.
    pub(crate) anchors: Option<CrashSiteCounts>,
    /// The crash point that cuts power, when armed.
    pub(crate) plan: Option<CrashPlan>,
    /// Set once the planned anchor happened: no new work may start.
    pub(crate) fired: bool,
    /// Durably-ACKed ops in execution order, for an external oracle.
    pub(crate) op_log: Option<Vec<LoggedOp>>,
    /// The sanitizer's persist-event stream.
    pub(crate) persist: Option<Vec<PersistEvent>>,
    /// `(core, op)` stamped on persist events.
    pub(crate) ctx: (u32, u32),
    /// Counters, timeline and trace spans.
    pub(crate) telem: Option<MachineTelemetry>,
    /// Open-loop arrival gating and request latency.
    pub(crate) service: Option<ServiceSession>,
}

impl Tap {
    /// Feeds `event` to every observer that consumes it. Always inlined:
    /// each call site passes one known variant, so only its arm remains.
    #[inline(always)]
    pub(crate) fn emit(&mut self, event: Event<'_>) -> Verdict {
        match event {
            Event::Issue { core, idx, op, now } => {
                if let Some(wake) = self.service.as_mut().and_then(|s| s.gate(core, now)) {
                    return Verdict::Sleep(wake);
                }
                self.ctx = (core as u32, idx as u32);
                match op {
                    TraceOp::Store { addr, len } | TraceOp::StoreRelaxed { addr, len } => {
                        let relaxed = matches!(op, TraceOp::StoreRelaxed { .. });
                        self.record(PersistEventKind::Store { addr, len, relaxed });
                    }
                    TraceOp::Fence => self.record(PersistEventKind::Fence),
                    TraceOp::Commit => {
                        self.record(PersistEventKind::Commit);
                        self.log(LoggedOp::Commit { core });
                    }
                    TraceOp::Read { .. } | TraceOp::Flush { .. } => {}
                }
            }
            Event::Flush { block, pending } => {
                self.record(PersistEventKind::Flush { block, pending });
            }
            Event::Persisted { core, block } => {
                self.log(LoggedOp::Store { core, block });
                self.anchor(CrashSiteKind::Persist);
            }
            Event::MetaCover { block, mech } => {
                self.record(PersistEventKind::MetaCover { block, mech });
            }
            Event::MetaPersist => self.anchor(CrashSiteKind::MetaPersist),
            Event::PubAppend { addr, image, now } => {
                if self.persist.is_some() {
                    self.record(PersistEventKind::PubAppend {
                        addr,
                        image: image.to_vec(),
                    });
                }
                if let Some(tm) = self.telem.as_mut() {
                    tm.record_pub_append(now.0);
                }
                self.anchor(CrashSiteKind::PubAppend);
            }
            Event::PubEvict { addr, now } => {
                self.record(PersistEventKind::PubEvict { addr });
                if let Some(tm) = self.telem.as_mut() {
                    tm.record_pub_evict(now.0);
                }
            }
            Event::Retired {
                core,
                op,
                start,
                end,
                machine,
            } => {
                // A `Store` op that persisted all its blocks is an anchor.
                if matches!(op, TraceOp::Store { .. }) && !self.fired {
                    self.anchor(CrashSiteKind::Store);
                }
                if let Some(s) = self.service.as_mut() {
                    s.end_op(core, end);
                }
                if let Some(tm) = self.telem.as_mut() {
                    tm.record_op(core, op, start.0, end.0);
                    tm.record_queues(end, machine);
                    tm.sample(end, machine);
                }
            }
            Event::Wpq(events) => {
                for &e in events {
                    if let Some(tm) = self.telem.as_mut() {
                        tm.record_wpq(e);
                    }
                    self.record(match e {
                        WpqEvent::Accepted {
                            addr,
                            category,
                            coalesced,
                        } => PersistEventKind::Accepted {
                            block: addr,
                            category,
                            coalesced,
                        },
                        WpqEvent::Drained { addr, origins } => PersistEventKind::Drained {
                            block: addr,
                            origins,
                        },
                    });
                }
            }
            Event::Quiesce => self.ctx = (NO_CTX, NO_CTX),
        }
        if self.fired {
            Verdict::Halt
        } else {
            Verdict::Go
        }
    }

    /// Appends a persist event stamped with the current op context.
    #[inline(always)]
    fn record(&mut self, kind: PersistEventKind) {
        if let Some(events) = self.persist.as_mut() {
            let (core, op) = self.ctx;
            events.push(PersistEvent {
                seq: events.len() as u64,
                core,
                op,
                kind,
            });
        }
    }

    #[inline]
    fn log(&mut self, op: LoggedOp) {
        if let Some(log) = self.op_log.as_mut() {
            log.push(op);
        }
    }

    /// Counts one crash anchor of `site`; the plan's ordinal fires.
    #[inline]
    fn anchor(&mut self, site: CrashSiteKind) {
        if let Some(counts) = self.anchors.as_mut() {
            let seen = counts.0[site.index()];
            counts.0[site.index()] = seen + 1;
            self.fired |= self.plan == Some(CrashPlan { site, nth: seen });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crash_tap(plan: Option<CrashPlan>) -> Tap {
        Tap {
            anchors: Some(CrashSiteCounts::default()),
            plan,
            op_log: Some(Vec::new()),
            ..Tap::default()
        }
    }

    #[test]
    fn persist_events_carry_context_and_sequence() {
        let mut tap = Tap {
            persist: Some(Vec::new()),
            ..Tap::default()
        };
        tap.emit(Event::Quiesce);
        tap.emit(Event::Flush {
            block: 0x80,
            pending: false,
        });
        let op = TraceOp::Store {
            addr: 0x1000,
            len: 8,
        };
        let now = Cycle(0);
        tap.emit(Event::Issue {
            core: 1,
            idx: 42,
            op,
            now,
        });
        tap.emit(Event::Quiesce);
        tap.emit(Event::Wpq(&[WpqEvent::Drained {
            addr: 0x1000,
            origins: 0b10,
        }]));
        let evs = tap.persist.expect("installed");
        let ctx: Vec<_> = evs.iter().map(|e| (e.seq, e.core, e.op)).collect();
        assert_eq!(ctx, [(0, NO_CTX, NO_CTX), (1, 1, 42), (2, NO_CTX, NO_CTX)]);
        let relaxed = false;
        let store = PersistEventKind::Store {
            addr: 0x1000,
            len: 8,
            relaxed,
        };
        assert_eq!(evs[1].kind, store);
    }

    #[test]
    fn fires_exactly_at_the_nth_anchor() {
        let plan = CrashPlan {
            site: CrashSiteKind::Persist,
            nth: 2,
        };
        let mut tap = crash_tap(Some(plan));
        let go = |tap: &mut Tap, event| tap.emit(event) == Verdict::Go;
        assert!(go(&mut tap, Event::Persisted { core: 0, block: 7 }));
        assert!(
            go(&mut tap, Event::MetaPersist),
            "other kinds don't advance it"
        );
        assert!(go(&mut tap, Event::Persisted { core: 1, block: 8 }));
        assert!(!go(&mut tap, Event::Persisted { core: 0, block: 9 }));
        let counts = tap.anchors.expect("installed");
        assert_eq!(counts.of(CrashSiteKind::Persist), 3);
        assert_eq!(counts.of(CrashSiteKind::MetaPersist), 1);
        let stores = [(0, 7), (1, 8), (0, 9)].map(|(core, block)| LoggedOp::Store { core, block });
        assert_eq!(tap.op_log.expect("installed"), stores);
    }

    #[test]
    fn observer_counts_without_firing() {
        let mut tap = crash_tap(None);
        for _ in 0..10 {
            assert!(tap.emit(Event::MetaPersist) == Verdict::Go);
        }
        let counts = tap.anchors.expect("installed");
        assert_eq!(counts.of(CrashSiteKind::MetaPersist), 10);
    }

    #[test]
    fn no_store_anchor_after_the_crash() {
        let plan = CrashPlan {
            site: CrashSiteKind::Persist,
            nth: 1,
        };
        let mut tap = crash_tap(Some(plan));
        let config = crate::SimConfig::paper_default(crate::Mode::baseline(), 128);
        let machine = &SecureNvm::new(config);
        let (core, op) = (0, TraceOp::Store { addr: 0, len: 256 });
        let (start, end) = (Cycle(0), Cycle(9));
        for block in [7, 8] {
            tap.emit(Event::Persisted { core, block });
            tap.emit(Event::Retired {
                core,
                op,
                start,
                end,
                machine,
            });
        }
        assert!(tap.fired);
        let counts = tap.anchors.expect("installed");
        assert_eq!(counts.of(CrashSiteKind::Persist), 2);
        assert_eq!(
            counts.of(CrashSiteKind::Store),
            1,
            "only the op before the crash"
        );
    }
}
