//! The complete Thoth mechanism as a reusable engine.
//!
//! [`ThothEngine`] packages the paper's contribution — PCB combining, PUB
//! buffering, and WTSC/WTBC eviction filtering — behind a host-agnostic
//! interface, so it can be dropped into any memory-controller model (the
//! full-system simulator in `thoth-sim` is one host; a trace-driven
//! analysis or another group's simulator can be another).
//!
//! The host provides four capabilities through [`ThothHost`]:
//!
//! 1. the metadata cache's ground-truth **view** of a block at eviction
//!    time (resident? dirty? does the entry hold the latest value?),
//! 2. **persisting** a metadata block in place (and marking it clean),
//! 3. **writing** a packed PUB block into the persistence path,
//! 4. **reading** a PUB block back from NVM (lending its image, so the
//!    engine decodes it without a copy).
//!
//! Everything else — entry packing, FIFO management, the 80% threshold,
//! policy decisions, and the Figure-3 outcome accounting — lives here.

use crate::entry::{PartialUpdate, PubBlockCodec};
use crate::pcb::{Pcb, PcbInsert, PcbStats};
use crate::policy::{BlockView, EvictOutcome, EvictionPolicy, MetadataKind};
use crate::pub_buffer::{PubBuffer, PubConfig};

use std::collections::BTreeMap;

/// Host callbacks the engine drives (see module docs).
pub trait ThothHost {
    /// Ground-truth cache state of the metadata block (`kind` side) that
    /// `update` belongs to, including WTBC's value comparison.
    fn metadata_view(&mut self, kind: MetadataKind, update: &PartialUpdate) -> BlockView;

    /// Persists the metadata block (`kind` side) holding `update`'s
    /// counter or MAC to its home location and marks it clean.
    fn persist_metadata(&mut self, kind: MetadataKind, update: &PartialUpdate);

    /// Writes one packed PUB block at `addr` through the persistence path.
    /// `image` is the engine's encode buffer: the host copies what it keeps.
    fn write_pub_block(&mut self, addr: u64, image: &[u8]);

    /// Reads the PUB block at `addr` from NVM and lends its image to
    /// `read` (called exactly once).
    fn read_pub_block(&mut self, addr: u64, read: &mut dyn FnMut(&[u8]));

    /// `true` once the host has injected a crash: the engine stops starting
    /// new work (evictions) but always finishes the atomic transition in
    /// flight, so volatile FIFO registers never disagree with the
    /// persistence domain. Hosts without crash injection keep the default.
    fn power_failed(&self) -> bool {
        false
    }
}

/// The Thoth mechanism: PCB + PUB + eviction policy.
#[derive(Clone)]
pub struct ThothEngine {
    pcb: Pcb,
    pub_buf: PubBuffer,
    policy: EvictionPolicy,
    codec: PubBlockCodec,
    outcomes: BTreeMap<EvictOutcome, u64>,
    policy_persists: u64,
    /// Reusable encode buffer for PUB appends (one block image) — the
    /// append path is hot enough that a fresh `Vec` per block shows up.
    scratch: Vec<u8>,
    /// Reusable decode buffer for the PUB eviction victim's entries.
    victim: Vec<PartialUpdate>,
}

impl ThothEngine {
    /// Creates an engine with `pcb_slots` reserved combining entries over
    /// the PUB region described by `pub_config`, filtering evictions with
    /// `policy`.
    #[must_use]
    pub fn new(policy: EvictionPolicy, pcb_slots: usize, pub_config: PubConfig) -> Self {
        let codec = PubBlockCodec::new(pub_config.block_bytes);
        ThothEngine {
            pcb: Pcb::new(pcb_slots, codec.entries_per_block()),
            pub_buf: PubBuffer::new(pub_config),
            policy,
            codec,
            outcomes: BTreeMap::new(),
            policy_persists: 0,
            scratch: vec![0; pub_config.block_bytes],
            victim: Vec::with_capacity(codec.entries_per_block()),
        }
    }

    /// Maximum partial updates the PCB can buffer (slots × entries per
    /// packed block) — the capacity telemetry reports for the PCB.
    #[must_use]
    pub fn pcb_capacity_updates(&self) -> usize {
        self.pcb.num_slots() * self.codec.entries_per_block()
    }

    /// Partial updates currently buffered in the PCB.
    #[must_use]
    pub fn pcb_buffered_updates(&self) -> usize {
        self.pcb.buffered_updates()
    }

    /// The eviction policy in force.
    #[must_use]
    pub fn policy(&self) -> EvictionPolicy {
        self.policy
    }

    /// The PUB entry codec.
    #[must_use]
    pub fn codec(&self) -> PubBlockCodec {
        self.codec
    }

    /// PCB statistics (Table III's merge rate).
    #[must_use]
    pub fn pcb_stats(&self) -> PcbStats {
        self.pcb.stats()
    }

    /// Ground-truth eviction outcome counts (the Figure 3 breakdown).
    #[must_use]
    pub fn outcomes(&self) -> &BTreeMap<EvictOutcome, u64> {
        &self.outcomes
    }

    /// Metadata block persists the policy actually performed.
    #[must_use]
    pub fn policy_persists(&self) -> u64 {
        self.policy_persists
    }

    /// Inserts one partial update: merges in the PCB when possible, packs
    /// full blocks into the PUB, and services eviction pressure (the 80%
    /// threshold) through the host.
    pub fn insert(&mut self, update: PartialUpdate, host: &mut impl ThothHost) {
        let r = self.pcb.insert(update);
        match r {
            PcbInsert::Merged | PcbInsert::Added => {}
            PcbInsert::Emit(block) => {
                // PUB append is one atomic transition: write the packed
                // block into the persistence path *then* advance the end
                // register. A crash tap firing inside write_pub_block
                // still sees the full transition complete — gating happens
                // at the loop boundaries below, never mid-append.
                let addr = self.pub_buf.peek_tail();
                self.codec.encode_into(&block, &mut self.scratch);
                self.pcb.recycle(block);
                host.write_pub_block(addr, &self.scratch);
                self.pub_buf.commit_tail();
                while self.pub_buf.needs_eviction() && !host.power_failed() {
                    if !self.evict_one(host) {
                        break;
                    }
                }
            }
        }
    }

    /// Evicts the oldest PUB block, classifying every entry and persisting
    /// the metadata blocks the policy requires.
    ///
    /// The victim is popped only after every entry is processed; if the
    /// host's power fails partway through, the start register still points
    /// at the victim and recovery re-merges it (persisting metadata is
    /// idempotent). Returns `false` if the eviction was abandoned.
    fn evict_one(&mut self, host: &mut impl ThothHost) -> bool {
        let Some(victim) = self.pub_buf.peek_oldest() else {
            return false;
        };
        let mut entries = std::mem::take(&mut self.victim);
        let codec = self.codec;
        host.read_pub_block(victim, &mut |image| codec.decode_into(image, &mut entries));
        let done = self.classify_victim(&entries, host);
        self.victim = entries;
        if !done {
            return false;
        }
        let popped = self.pub_buf.pop_oldest();
        debug_assert_eq!(popped, Some(victim));
        true
    }

    /// Classifies every entry of an eviction victim, persisting the
    /// metadata blocks the policy requires; `false` if power failed first.
    fn classify_victim(&mut self, entries: &[PartialUpdate], host: &mut impl ThothHost) -> bool {
        for &e in entries {
            if host.power_failed() {
                return false;
            }
            for (kind, status) in [
                (MetadataKind::Counter, e.ctr_status),
                (MetadataKind::Mac, e.mac_status),
            ] {
                let view = host.metadata_view(kind, &e);
                *self.outcomes.entry(EvictOutcome::classify(view)).or_insert(0) += 1;
                if self.policy.requires_persist(status, view) {
                    self.policy_persists += 1;
                    host.persist_metadata(kind, &e);
                }
            }
        }
        true
    }

    /// Crash: the ADR domain flushes each non-empty PCB slot to the PUB as
    /// one crash-padded block (duplicate-fill, Section IV-A). The host's
    /// write here is the residual-power flush (functional, untimed).
    ///
    /// # Panics
    ///
    /// Panics if the PUB lacks space for the flush — the region must keep
    /// at least `pcb_slots` blocks of headroom above the eviction
    /// threshold (the paper's 64 MB region at 80% leaves ~13 MB of
    /// headroom against an 8-block flush; see `SimConfig::validate`).
    pub fn crash_flush(&mut self, mut write: impl FnMut(u64, &[u8])) {
        for slot in self.pcb.crash_drain() {
            let addr = self.pub_buf.allocate_tail();
            write(addr, &self.codec.encode(&slot));
        }
    }

    /// Snapshot of the PCB's buffered partial updates, oldest slot first
    /// (see [`Pcb::pending`]).
    #[must_use]
    pub fn pcb_pending(&self) -> Vec<Vec<PartialUpdate>> {
        self.pcb.pending()
    }

    /// Recovery scan order: every valid PUB block address, oldest first.
    #[must_use]
    pub fn recovery_scan(&self) -> Vec<u64> {
        self.pub_buf.scan_oldest_to_youngest()
    }

    /// Empties the PUB after recovery has merged its contents.
    pub fn clear(&mut self) {
        self.pub_buf.clear();
    }

    /// Direct access to the PUB (occupancy inspection, pre-filling).
    pub fn pub_buffer_mut(&mut self) -> &mut PubBuffer {
        &mut self.pub_buf
    }

    /// Read-only access to the PUB.
    #[must_use]
    pub fn pub_buffer(&self) -> &PubBuffer {
        &self.pub_buf
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_types, reason = "std maps model the host")]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// A minimal host: metadata views scripted per data block, PUB blocks
    /// stored in a map, persists recorded.
    struct ScriptedHost {
        views: HashMap<(MetadataKind, u32), BlockView>,
        pub_mem: HashMap<u64, Vec<u8>>,
        persisted: Vec<(MetadataKind, u32)>,
    }

    impl ScriptedHost {
        fn new() -> Self {
            ScriptedHost {
                views: HashMap::new(),
                pub_mem: HashMap::new(),
                persisted: Vec::new(),
            }
        }
    }

    impl ThothHost for ScriptedHost {
        fn metadata_view(&mut self, kind: MetadataKind, u: &PartialUpdate) -> BlockView {
            self.views
                .get(&(kind, u.block_index))
                .copied()
                .unwrap_or(BlockView::NotPresent)
        }
        fn persist_metadata(&mut self, kind: MetadataKind, u: &PartialUpdate) {
            self.persisted.push((kind, u.block_index));
        }
        fn write_pub_block(&mut self, addr: u64, image: &[u8]) {
            self.pub_mem.insert(addr, image.to_vec());
        }
        fn read_pub_block(&mut self, addr: u64, read: &mut dyn FnMut(&[u8])) {
            read(&self.pub_mem[&addr]);
        }
    }

    fn tiny_engine(threshold: u8) -> ThothEngine {
        ThothEngine::new(
            EvictionPolicy::Wtsc,
            2,
            PubConfig {
                base_addr: 0x1000,
                size_bytes: 4 * 128,
                block_bytes: 128,
                evict_threshold_pct: threshold,
            },
        )
    }

    fn pu(i: u32, status: bool) -> PartialUpdate {
        PartialUpdate {
            block_index: i,
            minor: (i % 128) as u8,
            mac2: u64::from(i) * 77,
            ctr_status: status,
            mac_status: status,
        }
    }

    #[test]
    fn packs_blocks_into_pub_through_host() {
        let mut e = tiny_engine(100);
        let mut h = ScriptedHost::new();
        // 2 PCB slots x 9 entries: the 19th distinct update evicts a full
        // slot into the PUB.
        for i in 0..19 {
            e.insert(pu(i, false), &mut h);
        }
        assert_eq!(h.pub_mem.len(), 1);
        assert_eq!(e.pub_buffer().len_blocks(), 1);
        let img = h.pub_mem.values().next().unwrap();
        let mut entries = Vec::new();
        e.codec().decode_into(img, &mut entries);
        assert_eq!(entries.len(), 9);
    }

    #[test]
    fn eviction_respects_policy_and_counts_outcomes() {
        let mut e = tiny_engine(25); // evict as soon as 1/4 blocks used
        let mut h = ScriptedHost::new();
        // Make block 0's counter side dirty-latest, MAC side clean.
        for i in 0..9 {
            h.views.insert(
                (MetadataKind::Counter, i),
                BlockView::Dirty { subblock_dirty: true, value_matches: true },
            );
            h.views.insert((MetadataKind::Mac, i), BlockView::Clean);
        }
        // Fill both PCB slots and emit one block (triggering eviction).
        for i in 0..19 {
            e.insert(pu(i, true), &mut h);
        }
        // The evicted block held entries 0..9: counter side persisted,
        // MAC side skipped as clean copies.
        assert_eq!(e.policy_persists(), 9);
        assert!(h.persisted.iter().all(|(k, _)| *k == MetadataKind::Counter));
        assert_eq!(e.outcomes()[&EvictOutcome::WrittenBack], 9);
        assert_eq!(e.outcomes()[&EvictOutcome::CleanCopy], 9);
    }

    #[test]
    fn crash_flush_pads_partial_slots() {
        let mut e = tiny_engine(100);
        let mut h = ScriptedHost::new();
        for i in 0..4 {
            e.insert(pu(i, false), &mut h);
        }
        let mut flushed = Vec::new();
        e.crash_flush(|addr, img| flushed.push((addr, img.to_vec())));
        assert_eq!(flushed.len(), 1, "one padded block");
        let mut entries = Vec::new();
        e.codec().decode_into(&flushed[0].1, &mut entries);
        assert_eq!(entries.len(), 4, "duplicates collapse on decode");
        assert_eq!(e.recovery_scan().len(), 1);
        e.clear();
        assert!(e.recovery_scan().is_empty());
    }

    #[test]
    fn merge_in_pcb_produces_no_pub_traffic() {
        let mut e = tiny_engine(100);
        let mut h = ScriptedHost::new();
        for _ in 0..100 {
            e.insert(pu(7, false), &mut h); // same block every time
        }
        assert!(h.pub_mem.is_empty());
        assert_eq!(e.pcb_stats().merged, 99);
    }
}
