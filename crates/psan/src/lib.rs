//! `thoth-psan` — a persist-ordering sanitizer for the Thoth simulator,
//! in the tradition of PMTest and XFDetector.
//!
//! Persistent-memory programs are only crash-consistent when their
//! persists are *ordered*: under the x86-TSO persistency model with an
//! ADR platform, a store is durable once the WPQ accepts it, and the
//! undo-logging discipline requires (1) every store of a transaction to
//! be durable before the commit is ACKed, and (2) every undo-log entry to
//! be durable before the in-place update it guards. Thoth adds a third
//! obligation: the security metadata (counter + MAC) of each data persist
//! must gain its own durable-ordering edge (via the PCB, the WPQ, or
//! strict in-place persistence) in the same operation.
//!
//! The sanitizer checks all three without trusting the program:
//!
//! 1. the simulator records a [`thoth_sim::PersistEvent`] stream
//!    (instrumentation hooks in `thoth-sim` and `thoth-memctrl`),
//! 2. the [`checker`] replays the stream through a shadow state machine
//!    tracking each block's `store → flush → durable-ACK → drain`
//!    lifecycle,
//! 3. violations become [`Finding`]s attributed to the exact `(core,
//!    op, address)` site — durability bugs, ordering violations, and
//!    performance smells (redundant flushes, covered undo-log appends,
//!    covered PUB appends).
//!
//! Since psan v2 the checker also carries a vector-clock happens-before
//! engine ([`hb`]): per-core epochs advance at fence/commit, cross-core
//! edges arise from WPQ drain order (publication clocks per block), and
//! persists of one block from two cores with no edge between them are
//! reported as [`FindingClass::CrossCoreRace`] — with
//! [`FindingClass::FenceElision`] and [`FindingClass::StaleCoverOverlap`]
//! for the flush-steal and overlapping-cover shapes. The per-core checks
//! are the degenerate (totally ordered) case of the same lattice.
//!
//! The seeded-bug corpus in `thoth_workloads::corpus` provides ground
//! truth: every planted bug must be caught at its planted site
//! ([`driver::detection`]), and the unmodified workloads must check
//! clean.

#![warn(missing_docs)]

pub mod checker;
pub mod driver;
pub mod finding;
pub mod hb;

pub use checker::{check_events, PsanReport, PsanStats};
pub use driver::{
    acceptable_classes, alignment_for_under, analyze, detection, expected_class,
    finding_matches_site, persisting_modes, race_manifested, seed_variant_under, sim_config_for,
    workload_config, PsanRun, BLOCK_BYTES, DEFAULT_SCALE,
};
pub use finding::{Finding, FindingClass};
pub use hb::{ClockOrd, HbEngine, VClock};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use thoth_nvm::WriteCategory;
    use thoth_sim::psan_events::{MetaMech, PersistEvent, PersistEventKind};
    use thoth_workloads::OpClass;

    const BB: u64 = 128;

    /// Builds a stream from `(core, op, kind)` triples, numbering `seq`
    /// automatically.
    fn stream(items: Vec<(u32, u32, PersistEventKind)>) -> Vec<PersistEvent> {
        items
            .into_iter()
            .enumerate()
            .map(|(i, (core, op, kind))| PersistEvent {
                seq: i as u64,
                core,
                op,
                kind,
            })
            .collect()
    }

    fn store(addr: u64, len: u32) -> PersistEventKind {
        PersistEventKind::Store {
            addr,
            len,
            relaxed: false,
        }
    }

    fn relaxed(addr: u64, len: u32) -> PersistEventKind {
        PersistEventKind::Store {
            addr,
            len,
            relaxed: true,
        }
    }

    fn accepted(block: u64) -> PersistEventKind {
        PersistEventKind::Accepted {
            block,
            category: WriteCategory::Data,
            coalesced: false,
        }
    }

    fn cover(block: u64) -> PersistEventKind {
        PersistEventKind::MetaCover {
            block,
            mech: MetaMech::Pcb,
        }
    }

    fn flush(block: u64, pending: bool) -> PersistEventKind {
        PersistEventKind::Flush { block, pending }
    }

    fn drained(block: u64, origins: u32) -> PersistEventKind {
        PersistEventKind::Drained { block, origins }
    }

    /// Per-core class streams in the shared form the checker takes.
    fn shared(classes: &[Vec<OpClass>]) -> Vec<Arc<[OpClass]>> {
        classes.iter().map(|c| c.as_slice().into()).collect()
    }

    /// A persisted store of `classes[op]` at `addr`: store, meta cover,
    /// acceptance — the shape one replayed `TraceOp::Store` produces.
    fn persisted(core: u32, op: u32, addr: u64) -> Vec<(u32, u32, PersistEventKind)> {
        vec![
            (core, op, store(addr, 8)),
            (core, op, cover(addr - addr % BB)),
            (core, op, accepted(addr - addr % BB)),
        ]
    }

    #[test]
    fn clean_logged_transaction_has_no_findings() {
        let classes = vec![vec![
            OpClass::LogAppend {
                guard_addr: 0x1000,
                guard_len: 8,
            },
            OpClass::DataInPlace,
            OpClass::CommitRecord,
            OpClass::Commit,
        ]];
        let mut evs = persisted(0, 0, 0x9000); // the log append
        evs.extend(persisted(0, 1, 0x1000)); // the guarded update
        evs.extend(persisted(0, 2, 0xf000)); // the commit record
        evs.push((0, 3, PersistEventKind::Commit));
        let r = check_events(&stream(evs), &shared(&classes), BB);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.stats.commits, 1);
        assert_eq!(r.stats.stores, 3);
    }

    #[test]
    fn unflushed_relaxed_store_is_a_durability_bug_at_commit() {
        let classes = vec![vec![OpClass::DataInPlace, OpClass::Commit]];
        let evs = vec![
            (0, 0, relaxed(0x2008, 8)),
            (0, 1, PersistEventKind::Commit),
        ];
        let r = check_events(&stream(evs), &shared(&classes), BB);
        assert_eq!(r.findings.len(), 1);
        let f = &r.findings[0];
        assert_eq!(f.class, FindingClass::Durability);
        assert_eq!((f.core, f.op, f.addr), (0, 0, 0x2008));
    }

    #[test]
    fn crash_mid_epoch_produces_no_findings() {
        // The stream ends before the commit: durability is only owed at
        // commit, so an open transaction is not a violation.
        let classes = vec![vec![OpClass::DataInPlace]];
        let evs = vec![(0, 0, relaxed(0x2008, 8))];
        let r = check_events(&stream(evs), &shared(&classes), BB);
        assert!(r.findings.is_empty());
    }

    #[test]
    fn flush_before_any_store_is_a_redundant_flush() {
        let classes = vec![vec![OpClass::Flush]];
        let evs = vec![(0, 0, flush(0x3000, false))];
        let r = check_events(&stream(evs), &shared(&classes), BB);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].class, FindingClass::RedundantFlush);
        assert_eq!(r.findings[0].addr, 0x3000);
    }

    #[test]
    fn flushed_relaxed_store_commits_clean_but_restore_does_not() {
        // Relaxed store → flush (persists it) → commit: clean.
        // Then a re-store of the same block without a second flush → bug.
        let classes = vec![vec![
            OpClass::DataFresh,
            OpClass::Flush,
            OpClass::Commit,
            OpClass::DataFresh,
            OpClass::Commit,
        ]];
        let evs = vec![
            (0, 0, relaxed(0x4000, 8)),
            (0, 1, flush(0x4000, true)),
            (0, 1, cover(0x4000)),
            (0, 1, accepted(0x4000)),
            (0, 2, PersistEventKind::Commit),
            (0, 3, relaxed(0x4000, 8)), // re-store of the flushed block
            (0, 4, PersistEventKind::Commit),
        ];
        let r = check_events(&stream(evs), &shared(&classes), BB);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        let f = &r.findings[0];
        assert_eq!(f.class, FindingClass::Durability);
        assert_eq!(f.op, 3, "the second (unflushed) store is the bug");
    }

    #[test]
    fn update_durable_before_its_log_entry_is_an_ordering_bug() {
        // The data store persists first; the log append arrives later.
        let classes = vec![vec![
            OpClass::DataInPlace,
            OpClass::LogAppend {
                guard_addr: 0x1000,
                guard_len: 8,
            },
            OpClass::Commit,
        ]];
        let mut evs = persisted(0, 0, 0x1000);
        evs.extend(persisted(0, 1, 0x9000));
        evs.push((0, 2, PersistEventKind::Commit));
        let r = check_events(&stream(evs), &shared(&classes), BB);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        let f = &r.findings[0];
        assert_eq!(f.class, FindingClass::Ordering);
        assert_eq!((f.core, f.op, f.addr), (0, 0, 0x1000));
    }

    #[test]
    fn acceptance_without_meta_cover_is_an_ordering_bug() {
        let classes = vec![vec![OpClass::DataFresh, OpClass::Commit]];
        let evs = vec![
            (0, 0, store(0x5000, 8)),
            (0, 0, accepted(0x5000)), // no MetaCover in this op
            (0, 1, PersistEventKind::Commit),
        ];
        let r = check_events(&stream(evs), &shared(&classes), BB);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].class, FindingClass::Ordering);
        assert!(r.findings[0].detail.contains("metadata"));
    }

    #[test]
    fn covered_log_append_is_a_smell() {
        let ga = OpClass::LogAppend {
            guard_addr: 0x1000,
            guard_len: 64,
        };
        let gb = OpClass::LogAppend {
            guard_addr: 0x1010,
            guard_len: 8,
        };
        let classes = vec![vec![ga, gb, OpClass::Commit]];
        let mut evs = persisted(0, 0, 0x9000);
        evs.extend(persisted(0, 1, 0x9040));
        evs.push((0, 2, PersistEventKind::Commit));
        let r = check_events(&stream(evs), &shared(&classes), BB);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        let f = &r.findings[0];
        assert_eq!(f.class, FindingClass::CoveredLogAppend);
        assert_eq!(f.op, 1, "the second, covered append is the smell");
        assert!(!r.has_errors(), "a smell is not a correctness error");
    }

    #[test]
    fn covered_pub_append_is_flagged_and_eviction_clears_it() {
        use thoth_core::{PartialUpdate, PubBlockCodec};
        let codec = PubBlockCodec::new(BB as usize);
        let updates: Vec<PartialUpdate> = (0..codec.entries_per_block())
            .map(|i| PartialUpdate {
                block_index: i as u32,
                minor: 1,
                mac2: 0xABCD + i as u64,
                ctr_status: true,
                mac_status: true,
            })
            .collect();
        let image = codec.encode(&updates);
        let classes = vec![vec![OpClass::DataInPlace; 4]];
        let append = |addr: u64| PersistEventKind::PubAppend {
            addr,
            image: image.clone(),
        };
        let evs = vec![
            (0, 0, append(0x10_0000)),
            (0, 1, append(0x10_0080)), // same entries again: covered
            (0, 2, PersistEventKind::PubEvict { addr: 0x10_0000 }),
            (0, 2, PersistEventKind::PubEvict { addr: 0x10_0080 }),
            (0, 3, append(0x10_0100)), // after eviction: live again, clean
        ];
        let r = check_events(&stream(evs), &shared(&classes), BB);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        let f = &r.findings[0];
        assert_eq!(f.class, FindingClass::CoveredPubAppend);
        assert_eq!((f.op, f.addr), (1, 0x10_0080));
        assert_eq!(r.stats.pub_appends, 3);
        assert_eq!(r.stats.pub_evicts, 2);
    }

    #[test]
    fn multi_block_store_needs_every_block_accepted() {
        // A store spanning two blocks with only one accepted is not
        // durable at commit.
        let classes = vec![vec![OpClass::DataFresh, OpClass::Commit]];
        let evs = vec![
            (0, 0, store(0x6000, 256)),
            (0, 0, cover(0x6000)),
            (0, 0, accepted(0x6000)), // second block 0x6080 never ACKed
            (0, 1, PersistEventKind::Commit),
        ];
        let r = check_events(&stream(evs), &shared(&classes), BB);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].class, FindingClass::Durability);
        assert!(r.findings[0].detail.contains("1 of 2"));
    }

    #[test]
    fn reencryption_acceptances_are_ignored() {
        // Background data writes (re-encryption after a counter overflow)
        // accept blocks no program store is waiting on: not findings.
        let classes = vec![vec![OpClass::Commit]];
        let evs = vec![
            (0, 0, accepted(0x7000)),
            (0, 0, PersistEventKind::Commit),
        ];
        let r = check_events(&stream(evs), &shared(&classes), BB);
        assert!(r.findings.is_empty());
    }

    #[test]
    fn unordered_cross_core_persists_are_a_race_at_both_endpoints() {
        // Two cores persist the same block with no drain (publication)
        // between them: the WPQ drain order is an unconstrained race.
        let classes = vec![vec![OpClass::DataFresh], vec![OpClass::DataFresh]];
        let mut evs = persisted(0, 0, 0x8000);
        evs.extend(persisted(1, 0, 0x8008));
        let r = check_events(&stream(evs), &shared(&classes), BB);
        assert_eq!(r.count(FindingClass::CrossCoreRace), 2, "{:?}", r.findings);
        let races: Vec<_> = r
            .findings
            .iter()
            .filter(|f| f.class == FindingClass::CrossCoreRace)
            .collect();
        assert!(races.iter().any(|f| (f.core, f.op, f.addr) == (0, 0, 0x8000)));
        assert!(races.iter().any(|f| (f.core, f.op, f.addr) == (1, 0, 0x8008)));
        assert!(r.has_errors(), "a cross-core race is a correctness error");
    }

    #[test]
    fn drain_publication_orders_cross_core_persists() {
        // Core 1 persists the block only after the WPQ drained core 0's
        // write: the drain publishes the order, so there is no race.
        let classes = vec![vec![OpClass::DataFresh], vec![OpClass::DataFresh]];
        let mut evs = persisted(0, 0, 0x8000);
        evs.push((0, 0, drained(0x8000, 0b01)));
        evs.extend(persisted(1, 0, 0x8008));
        let r = check_events(&stream(evs), &shared(&classes), BB);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.stats.drains, 1);
    }

    #[test]
    fn uncovered_counter_block_persists_race_cross_core() {
        // Two cores write the same counter block with no mechanism cover
        // and no ordering edge — the metadata-block form of the race.
        let cb = 0x20_0000;
        let meta_accept = |block: u64| PersistEventKind::Accepted {
            block,
            category: WriteCategory::CounterBlock,
            coalesced: false,
        };
        let classes = vec![vec![OpClass::DataFresh], vec![OpClass::DataFresh]];
        let evs = vec![
            (0, 0, store(cb, 8)),
            (0, 0, meta_accept(cb)),
            (1, 0, store(cb + 8, 8)),
            (1, 0, meta_accept(cb)),
        ];
        let r = check_events(&stream(evs), &shared(&classes), BB);
        assert_eq!(r.count(FindingClass::CrossCoreRace), 2, "{:?}", r.findings);
        assert_eq!(
            r.count(FindingClass::Ordering),
            0,
            "the data-cover rule does not apply to metadata acceptances"
        );
    }

    #[test]
    fn cross_core_flush_steal_is_fence_elision() {
        // Core 0 leaves a relaxed store volatile; core 1's plain store to
        // the same block persists core 0's data before it ever fenced.
        let classes = vec![vec![OpClass::DataFresh], vec![OpClass::DataFresh]];
        let mut evs = vec![(0, 0, relaxed(0xa008, 8))];
        evs.extend(persisted(1, 0, 0xa000));
        let r = check_events(&stream(evs), &shared(&classes), BB);
        assert_eq!(r.count(FindingClass::FenceElision), 1, "{:?}", r.findings);
        let f = r
            .findings
            .iter()
            .find(|f| f.class == FindingClass::FenceElision)
            .expect("just counted");
        assert_eq!(
            (f.core, f.op, f.addr),
            (0, 0, 0xa008),
            "the finding sits at the relaxed store whose fence was elided"
        );
    }

    #[test]
    fn overlapping_unordered_covers_are_stale() {
        // Both cores raise a metadata cover over the same undrained block
        // with no ordering edge between the covers.
        let classes = vec![vec![OpClass::DataFresh], vec![OpClass::DataFresh]];
        let mut evs = persisted(0, 0, 0xb000);
        evs.extend(persisted(1, 0, 0xb008));
        let r = check_events(&stream(evs), &shared(&classes), BB);
        assert_eq!(
            r.count(FindingClass::StaleCoverOverlap),
            2,
            "{:?}",
            r.findings
        );
        // Draining the block retires the covers: repeating the pattern
        // after a drain is clean.
        let mut evs2 = persisted(0, 0, 0xb000);
        evs2.push((0, 0, drained(0xb000, 0b01)));
        evs2.extend(persisted(1, 0, 0xb008));
        let r2 = check_events(&stream(evs2), &shared(&classes), BB);
        assert_eq!(r2.count(FindingClass::StaleCoverOverlap), 0);
    }

    #[test]
    fn cross_core_drain_provenance_is_counted() {
        let classes = vec![vec![OpClass::DataFresh], vec![OpClass::DataFresh]];
        let evs = vec![
            (0, 0, drained(0x8000, 0b11)),
            (0, 0, drained(0x8080, 0b01)),
        ];
        let r = check_events(&stream(evs), &shared(&classes), BB);
        assert_eq!(r.stats.drains, 2);
        assert_eq!(r.stats.cross_core_drains, 1);
    }
}
