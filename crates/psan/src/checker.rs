//! The shadow state machine: replays a persist-event stream and checks
//! x86-TSO persistency orderings.
//!
//! The checker tracks, per cache block, the
//! `store → flush → WPQ-acceptance (durable ACK) → drain` lifecycle, and
//! per core the set of stores belonging to the open transaction. From
//! these it verifies the persist-before edges the recovery protocol
//! relies on:
//!
//! * **Durability** — at `Commit`, every store of the transaction must
//!   hold a durable-ordering edge (its blocks accepted into the ADR
//!   domain). A commit that is ACKed first is the missing-`clwb` bug.
//! * **Ordering** — when an in-place update becomes durable, the undo-log
//!   entry guarding its range must already be durable (write-ahead
//!   logging), and every data acceptance must carry a metadata-persist
//!   cover in the same operation (counter/MAC ordered with the data).
//! * **Smells** — flushes of clean lines, undo-log appends covered by an
//!   earlier entry of the same transaction, and PUB appends whose entries
//!   are all already live.
//!
//! The checker is deliberately stateless with respect to the simulator:
//! everything it knows arrives through [`PersistEvent`]s, so it can also
//! be driven by synthetic streams in tests.

use std::sync::Arc;

use crate::finding::{Finding, FindingClass};
use crate::hb::HbEngine;
use thoth_core::PubBlockCodec;
use thoth_nvm::WriteCategory;
use thoth_sim::{PersistEvent, PersistEventKind};
use thoth_sim_engine::{FastMap, FastSet};
use thoth_workloads::OpClass;

/// Event-stream statistics (sanity numbers for reports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PsanStats {
    /// Total events processed.
    pub events: u64,
    /// Plain (persistent) stores.
    pub stores: u64,
    /// Relaxed stores.
    pub relaxed_stores: u64,
    /// Flush events (per spanned block).
    pub flushes: u64,
    /// Fences.
    pub fences: u64,
    /// Transaction commits.
    pub commits: u64,
    /// WPQ acceptances of data writes.
    pub data_accepts: u64,
    /// WPQ drains.
    pub drains: u64,
    /// Drained entries carrying writes from two or more cores (coalesced
    /// cross-core traffic, from the origin provenance masks).
    pub cross_core_drains: u64,
    /// Metadata-persist covers.
    pub meta_covers: u64,
    /// PUB block appends.
    pub pub_appends: u64,
    /// PUB block evictions.
    pub pub_evicts: u64,
}

/// The checker's verdict over one event stream.
#[derive(Debug, Clone, Default)]
pub struct PsanReport {
    /// Every finding, in stream order.
    pub findings: Vec<Finding>,
    /// Stream statistics.
    pub stats: PsanStats,
}

impl PsanReport {
    /// Number of findings of `class`.
    #[must_use]
    pub fn count(&self, class: FindingClass) -> usize {
        self.findings.iter().filter(|f| f.class == class).count()
    }

    /// True when any durability or ordering (correctness) finding exists.
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.findings.iter().any(|f| !f.class.is_smell())
    }

    /// Findings that are performance smells.
    #[must_use]
    pub fn smells(&self) -> Vec<&Finding> {
        self.findings.iter().filter(|f| f.class.is_smell()).collect()
    }
}

/// One store of the open transaction, tracked until commit.
#[derive(Debug)]
struct StoreRec {
    op: u32,
    addr: u64,
    len: u32,
    class: OpClass,
    blocks: Vec<u64>,
    accepted: FastSet<u64>,
    /// Guard check already performed (runs once, at full acceptance).
    checked: bool,
}

impl StoreRec {
    fn durable(&self) -> bool {
        self.accepted.len() == self.blocks.len()
    }
}

/// PUB entry identity: same (block, minor, mac2) means the same partial
/// update.
type PubKey = (u32, u8, u64);

/// Checks `events` against the per-op semantic `classes` of the trace the
/// stream was recorded from. `block_bytes` must match the simulator
/// configuration (acceptance is block-granular).
///
/// A stream that ends mid-transaction (crash mid-epoch) produces no
/// findings for the open transactions: durability is only owed at commit.
#[must_use]
pub fn check_events(
    events: &[PersistEvent],
    classes: &[Arc<[OpClass]>],
    block_bytes: u64,
) -> PsanReport {
    Checker::new(classes, block_bytes).run(events)
}

struct Checker<'a> {
    classes: &'a [Arc<[OpClass]>],
    block_bytes: u64,
    codec: PubBlockCodec,
    report: PsanReport,
    /// Per-core stores of the open transaction.
    open_tx: Vec<Vec<StoreRec>>,
    /// Block → stores awaiting a durable ACK for it.
    waiting: FastMap<u64, Vec<(usize, usize)>>,
    /// Block → relaxed stores whose data sits volatile in the cache.
    relaxed_dirty: FastMap<u64, Vec<(usize, usize)>>,
    /// Live PUB entries (multiset — identical keys can coexist briefly).
    pub_live: FastMap<PubKey, u32>,
    /// PUB block address → the keys its live entries carry.
    pub_blocks: FastMap<u64, Vec<PubKey>>,
    /// Current `(core, op)` event group and the blocks its metadata
    /// covers (events of one op are contiguous in the stream).
    group: (u32, u32),
    group_meta: FastSet<u64>,
    /// The cross-core happens-before lattice (psan v2, layer 1).
    hb: HbEngine,
}

impl<'a> Checker<'a> {
    fn new(classes: &'a [Arc<[OpClass]>], block_bytes: u64) -> Self {
        Checker {
            classes,
            block_bytes,
            codec: PubBlockCodec::new(block_bytes as usize),
            report: PsanReport::default(),
            open_tx: (0..classes.len()).map(|_| Vec::new()).collect(),
            waiting: FastMap::default(),
            relaxed_dirty: FastMap::default(),
            pub_live: FastMap::default(),
            pub_blocks: FastMap::default(),
            group: (u32::MAX, u32::MAX),
            group_meta: FastSet::default(),
            hb: HbEngine::new(classes.len()),
        }
    }

    fn run(mut self, events: &[PersistEvent]) -> PsanReport {
        for e in events {
            if (e.core, e.op) != self.group {
                self.group = (e.core, e.op);
                self.group_meta.clear();
            }
            self.report.stats.events += 1;
            self.step(e);
        }
        self.report
    }

    fn class_of(&self, core: u32, op: u32) -> Option<OpClass> {
        self.classes
            .get(core as usize)
            .and_then(|c| c.get(op as usize))
            .copied()
    }

    fn finding(&mut self, class: FindingClass, core: u32, op: u32, addr: u64, detail: String) {
        self.report.findings.push(Finding {
            class,
            core,
            op,
            addr,
            detail,
        });
    }

    fn blocks_of(&self, addr: u64, len: u32) -> Vec<u64> {
        let bs = self.block_bytes;
        let first = addr - addr % bs;
        let last = (addr + u64::from(len).max(1) - 1) / bs * bs;
        (first..=last).step_by(bs as usize).collect()
    }

    fn step(&mut self, e: &PersistEvent) {
        match &e.kind {
            PersistEventKind::Store { addr, len, relaxed } => {
                self.on_store(e.core, e.op, *addr, *len, *relaxed);
            }
            PersistEventKind::Flush { block, pending } => {
                self.on_flush(e.core, e.op, *block, *pending);
            }
            PersistEventKind::Accepted {
                block,
                category,
                coalesced: _,
            } => {
                if *category == WriteCategory::Data {
                    self.report.stats.data_accepts += 1;
                }
                self.on_accepted(e.core, e.op, *block, *category);
            }
            PersistEventKind::Drained { block, origins } => {
                self.report.stats.drains += 1;
                if origins.count_ones() >= 2 {
                    self.report.stats.cross_core_drains += 1;
                }
                self.hb.on_drained(*block);
            }
            PersistEventKind::MetaCover { block, mech: _ } => {
                self.report.stats.meta_covers += 1;
                self.group_meta.insert(*block);
                self.hb
                    .on_cover(e.core, e.op, *block, &mut self.report.findings);
            }
            PersistEventKind::Fence => {
                self.report.stats.fences += 1;
                self.hb.tick(e.core);
            }
            PersistEventKind::Commit => {
                self.report.stats.commits += 1;
                self.on_commit(e.core);
                self.hb.tick(e.core);
            }
            PersistEventKind::PubAppend { addr, image } => {
                self.report.stats.pub_appends += 1;
                self.on_pub_append(e.core, e.op, *addr, image);
            }
            PersistEventKind::PubEvict { addr } => {
                self.report.stats.pub_evicts += 1;
                self.on_pub_evict(*addr);
            }
        }
    }

    fn on_store(&mut self, core: u32, op: u32, addr: u64, len: u32, relaxed: bool) {
        if relaxed {
            self.report.stats.relaxed_stores += 1;
        } else {
            self.report.stats.stores += 1;
        }
        let class = self.class_of(core, op).unwrap_or(OpClass::DataInPlace);
        // Smell: an undo-log append for a range an earlier entry of the
        // same open transaction already guards.
        if let OpClass::LogAppend {
            guard_addr,
            guard_len,
        } = class
        {
            let covered = self.open_tx[core as usize].iter().any(|r| {
                matches!(r.class, OpClass::LogAppend {
                    guard_addr: ga, guard_len: gl,
                } if ga <= guard_addr
                    && guard_addr + u64::from(guard_len) <= ga + u64::from(gl))
            });
            if covered {
                self.finding(
                    FindingClass::CoveredLogAppend,
                    core,
                    op,
                    addr,
                    format!(
                        "undo-log append for [{guard_addr:#x}, +{guard_len}) is covered by an \
                         earlier log entry of the same transaction"
                    ),
                );
            }
        }
        let blocks = self.blocks_of(addr, len);
        for &b in &blocks {
            // Acquire the block's publication clock: a store that follows
            // a drain of the block is ordered after everything the drain
            // published (the WPQ drain-order edge).
            self.hb.acquire(core, b);
        }
        let idx = self.open_tx[core as usize].len();
        for &b in &blocks {
            let slot = if relaxed {
                self.relaxed_dirty.entry(b).or_default()
            } else {
                self.waiting.entry(b).or_default()
            };
            slot.push((core as usize, idx));
        }
        self.open_tx[core as usize].push(StoreRec {
            op,
            addr,
            len,
            class,
            blocks,
            accepted: FastSet::default(),
            checked: false,
        });
    }

    fn on_flush(&mut self, core: u32, op: u32, block: u64, pending: bool) {
        self.report.stats.flushes += 1;
        if pending {
            // The write-back is underway: the relaxed stores of this block
            // now await the durable ACK the flush will produce.
            if let Some(recs) = self.relaxed_dirty.remove(&block) {
                self.waiting.entry(block).or_default().extend(recs);
            }
        } else {
            self.finding(
                FindingClass::RedundantFlush,
                core,
                op,
                block,
                "flush of a line holding no un-persisted data".into(),
            );
        }
    }

    fn on_accepted(&mut self, core: u32, op: u32, block: u64, category: WriteCategory) {
        // A plain store to a relaxed-dirty line persists that line's
        // relaxed data too (the write goes through the secure pipeline
        // whole-block).
        let mut hit = self.waiting.remove(&block).unwrap_or_default();
        let relaxed_hit = self.relaxed_dirty.remove(&block).unwrap_or_default();
        // Fence elision: another core's store persisted this core's
        // still-volatile relaxed data before the owner ever flushed or
        // fenced — the owner's durability hangs on a racing core.
        let stolen: Vec<(u32, u32, u64)> = relaxed_hit
            .iter()
            .filter(|&&(c, _)| c as u32 != core)
            .map(|&(c, i)| {
                let r = &self.open_tx[c][i];
                (c as u32, r.op, r.addr)
            })
            .collect();
        for (sc, sop, saddr) in stolen {
            self.finding(
                FindingClass::FenceElision,
                sc,
                sop,
                saddr,
                format!(
                    "relaxed store's block {block:#x} was persisted by core {core} op {op} \
                     before its owner fenced — durability depends on a racing core's persist"
                ),
            );
        }
        hit.extend(relaxed_hit);
        if hit.is_empty() {
            return; // background traffic (re-encryption): not a program store
        }
        // Cross-core happens-before check at the durable-ACK point: this
        // attributed persist must be ordered against every in-flight
        // persist of the block from another core.
        let site_addr = hit
            .iter()
            .find(|&&(c, _)| c as u32 == core)
            .map_or(block, |&(c, i)| self.open_tx[c][i].addr);
        self.hb
            .on_persist_accepted(core, op, site_addr, block, &mut self.report.findings);
        // Every data acceptance must be covered by a metadata persist in
        // the same operation — the counter/MAC update ordered with it.
        if category == WriteCategory::Data && !self.group_meta.contains(&block) {
            self.finding(
                FindingClass::Ordering,
                core,
                op,
                block,
                "data block accepted with no metadata-persist edge in its operation".into(),
            );
        }
        let mut completed: Vec<(usize, usize)> = Vec::new();
        for &(c, i) in &hit {
            let rec = &mut self.open_tx[c][i];
            rec.accepted.insert(block);
            if !rec.checked && rec.durable() {
                rec.checked = true;
                if rec.class == OpClass::DataInPlace {
                    completed.push((c, i));
                }
            }
        }
        for (c, i) in completed {
            self.check_guard(c as u32, i);
        }
    }

    /// Write-ahead-logging edge: when an in-place update becomes durable,
    /// a log entry guarding its full range must already be durable.
    fn check_guard(&mut self, core: u32, rec_idx: usize) {
        let (op, addr, len) = {
            let r = &self.open_tx[core as usize][rec_idx];
            (r.op, r.addr, u64::from(r.len))
        };
        let guard = self.open_tx[core as usize].iter().find(|g| {
            matches!(g.class, OpClass::LogAppend {
                guard_addr, guard_len,
            } if guard_addr <= addr && addr + len <= guard_addr + u64::from(guard_len))
        });
        match guard {
            None => self.finding(
                FindingClass::Ordering,
                core,
                op,
                addr,
                "in-place update became durable with no undo-log entry ordered before it".into(),
            ),
            Some(g) if !g.durable() => {
                let detail = format!(
                    "in-place update became durable before its undo-log entry (op {})",
                    g.op
                );
                self.finding(FindingClass::Ordering, core, op, addr, detail);
            }
            Some(_) => {}
        }
    }

    fn on_commit(&mut self, core: u32) {
        let c = core as usize;
        let mut findings: Vec<Finding> = Vec::new();
        for rec in &self.open_tx[c] {
            if !rec.durable() {
                findings.push(Finding {
                    class: FindingClass::Durability,
                    core,
                    op: rec.op,
                    addr: rec.addr,
                    detail: format!(
                        "transaction committed while this store ({} of {} blocks durable) \
                         has no durable-ordering edge",
                        rec.accepted.len(),
                        rec.blocks.len()
                    ),
                });
            }
        }
        self.report.findings.extend(findings);
        // The transaction is closed: its stores stop waiting.
        for recs in self.waiting.values_mut() {
            recs.retain(|&(rc, _)| rc != c);
        }
        self.waiting.retain(|_, recs| !recs.is_empty());
        for recs in self.relaxed_dirty.values_mut() {
            recs.retain(|&(rc, _)| rc != c);
        }
        self.relaxed_dirty.retain(|_, recs| !recs.is_empty());
        self.open_tx[c].clear();
    }

    fn on_pub_append(&mut self, core: u32, op: u32, addr: u64, image: &[u8]) {
        let mut entries = Vec::new();
        self.codec.decode_into(image, &mut entries);
        let keys: Vec<PubKey> = entries
            .iter()
            .map(|e| (e.block_index, e.minor, e.mac2))
            .collect();
        if !keys.is_empty() && keys.iter().all(|k| self.pub_live.contains_key(k)) {
            self.finding(
                FindingClass::CoveredPubAppend,
                core,
                op,
                addr,
                format!(
                    "PUB append of {} entries all already live in the PUB",
                    keys.len()
                ),
            );
        }
        for &k in &keys {
            *self.pub_live.entry(k).or_insert(0) += 1;
        }
        self.pub_blocks.entry(addr).or_default().extend(keys);
    }

    fn on_pub_evict(&mut self, addr: u64) {
        let Some(keys) = self.pub_blocks.remove(&addr) else {
            return; // pre-existing (e.g. prefilled) block: not tracked
        };
        for k in keys {
            if let Some(n) = self.pub_live.get_mut(&k) {
                *n -= 1;
                if *n == 0 {
                    self.pub_live.remove(&k);
                }
            }
        }
    }
}
