//! The Persistent Combining Buffer (PCB): reserved ADR-backed WPQ entries
//! that coalesce partial updates before they reach the PUB.
//!
//! Section IV-C evaluates two arrangements and settles on an **augmented
//! PCB-before-WPQ**: every incoming partial update first searches the PCB
//! for an entry targeting the same data block and merges into it; only
//! when a slot fills with `entries_per_block` distinct updates is it
//! emitted as one packed block write to the PUB. The paper reserves 8 of
//! the 64 WPQ entries for the PCB.
//!
//! Because the PCB slots are WPQ entries, they are inside the ADR
//! persistence domain: accepting a partial update into the PCB *is* the
//! persist ACK for the metadata part of a data write.

use crate::entry::PartialUpdate;

use std::collections::VecDeque;

/// Outcome of inserting a partial update into the PCB.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PcbInsert {
    /// Merged into an existing entry for the same data block (Table III's
    /// "merged in PCB" case) — no new space consumed.
    Merged,
    /// Appended to the open slot.
    Added,
    /// Appended, which required a new slot while all slots were occupied:
    /// the oldest (full) slot is evicted and its packed updates must now
    /// be written to the PUB (one block write through the WPQ). Handing
    /// the slot back with [`Pcb::recycle`] afterwards lets the next new
    /// slot reuse its buffer.
    Emit(Vec<PartialUpdate>),
}

/// PCB statistics (Table III reports `merged / inserts`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PcbStats {
    /// Partial updates offered to the PCB.
    pub inserts: u64,
    /// Updates that merged into an existing PCB entry.
    pub merged: u64,
    /// Full blocks emitted to the PUB.
    pub emitted_blocks: u64,
}

impl PcbStats {
    /// Fraction of inserts that merged, or `None` before any insert.
    #[must_use]
    pub fn merge_rate(&self) -> Option<f64> {
        (self.inserts > 0).then(|| self.merged as f64 / self.inserts as f64)
    }
}

/// The persistent combining buffer.
///
/// Slots are ordered oldest-first; the newest slot is the *open* one being
/// filled. Full slots stay resident — still merge targets — until a new
/// slot is needed while all `num_slots` are occupied, at which point the
/// oldest full slot is emitted to the PUB. Keeping filled slots resident
/// maximizes the merge window (up to `num_slots × entries_per_block`
/// recent partial updates), which is the point of reserving several WPQ
/// entries for the PCB.
///
/// # Example
///
/// ```
/// use thoth_core::{PartialUpdate, Pcb, PcbInsert};
///
/// let mut pcb = Pcb::new(8, 9); // paper: 8 slots, 9 entries per 128 B block
/// let u = PartialUpdate {
///     block_index: 7, minor: 1, mac2: 42, ctr_status: true, mac_status: true,
/// };
/// assert_eq!(pcb.insert(u), PcbInsert::Added);
/// // Same data block again: merges, newest values win.
/// let u2 = PartialUpdate { minor: 2, mac2: 43, ..u };
/// assert_eq!(pcb.insert(u2), PcbInsert::Merged);
/// assert_eq!(pcb.stats().merged, 1);
/// ```
#[derive(Debug, Clone)]
pub struct Pcb {
    num_slots: usize,
    entries_per_block: usize,
    /// Oldest-first; the back slot is the open one.
    slots: VecDeque<Vec<PartialUpdate>>,
    /// An emitted slot's buffer handed back by [`Self::recycle`], reused
    /// for the next new slot.
    spare: Option<Vec<PartialUpdate>>,
    stats: PcbStats,
}

impl Pcb {
    /// Creates a PCB with `num_slots` reserved WPQ entries, each packing
    /// `entries_per_block` partial updates.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    #[must_use]
    pub fn new(num_slots: usize, entries_per_block: usize) -> Self {
        assert!(num_slots > 0, "PCB needs at least one slot");
        assert!(entries_per_block > 0, "a slot must hold at least one entry");
        Pcb {
            num_slots,
            entries_per_block,
            slots: VecDeque::with_capacity(num_slots),
            spare: None,
            stats: PcbStats::default(),
        }
    }

    /// Number of reserved slots.
    #[must_use]
    pub fn num_slots(&self) -> usize {
        self.num_slots
    }

    /// Statistics so far.
    #[must_use]
    pub fn stats(&self) -> PcbStats {
        self.stats
    }

    /// Total partial updates currently buffered across all slots.
    #[must_use]
    pub fn buffered_updates(&self) -> usize {
        self.slots.iter().map(Vec::len).sum()
    }

    /// Inserts one partial update (the augmented-merge design: the whole
    /// PCB is searched for a matching data block first).
    pub fn insert(&mut self, update: PartialUpdate) -> PcbInsert {
        self.stats.inserts += 1;

        // Augmented merge: any slot, any position.
        for slot in &mut self.slots {
            if let Some(e) = slot
                .iter_mut()
                .find(|e| e.block_index == update.block_index)
            {
                // Newest counter/MAC win; status bits accumulate (if any
                // of the merged updates was the dirtying one, eviction
                // must persist the block).
                e.minor = update.minor;
                e.mac2 = update.mac2;
                e.ctr_status |= update.ctr_status;
                e.mac_status |= update.mac_status;
                self.stats.merged += 1;
                return PcbInsert::Merged;
            }
        }

        // Append to the open slot, creating one if needed; evict the
        // oldest full slot when all slots are occupied.
        let mut emitted = None;
        if self
            .slots
            .back()
            .is_none_or(|s| s.len() >= self.entries_per_block)
        {
            if self.slots.len() == self.num_slots {
                let oldest = self.slots.pop_front().expect("slots occupied");
                debug_assert_eq!(oldest.len(), self.entries_per_block);
                self.stats.emitted_blocks += 1;
                emitted = Some(oldest);
            }
            let slot = match self.spare.take() {
                Some(mut buf) => {
                    buf.clear();
                    buf
                }
                None => Vec::with_capacity(self.entries_per_block),
            };
            self.slots.push_back(slot);
        }
        let open = self.slots.back_mut().expect("just ensured");
        open.push(update);

        match emitted {
            Some(block) => PcbInsert::Emit(block),
            None => PcbInsert::Added,
        }
    }

    /// Hands an emitted slot ([`PcbInsert::Emit`]) back once its updates
    /// are written, so the next new slot reuses its buffer.
    pub fn recycle(&mut self, slot: Vec<PartialUpdate>) {
        self.spare = Some(slot);
    }

    /// Snapshot of every non-empty slot's contents, oldest first, without
    /// disturbing the PCB. Crash-injection hosts use this to know which
    /// partial updates were already inside the persistence domain at the
    /// crash instant.
    #[must_use]
    pub fn pending(&self) -> Vec<Vec<PartialUpdate>> {
        self.slots
            .iter()
            .filter(|s| !s.is_empty())
            .cloned()
            .collect()
    }

    /// Crash: the ADR domain flushes each non-empty slot as one padded PUB
    /// block. Returns the slots' contents, oldest first, and empties the
    /// PCB.
    pub fn crash_drain(&mut self) -> Vec<Vec<PartialUpdate>> {
        self.slots.drain(..).filter(|s| !s.is_empty()).collect()
    }

    /// Forces out every buffered slot (end-of-run flush), oldest first.
    pub fn flush(&mut self) -> Vec<Vec<PartialUpdate>> {
        let out: Vec<_> = self.slots.drain(..).filter(|s| !s.is_empty()).collect();
        self.stats.emitted_blocks += out.len() as u64;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn upd(block: u32, minor: u8) -> PartialUpdate {
        PartialUpdate {
            block_index: block,
            minor,
            mac2: u64::from(block) * 1000 + u64::from(minor),
            ctr_status: minor == 1,
            mac_status: minor == 1,
        }
    }

    #[test]
    fn emits_oldest_full_slot_under_pressure() {
        // 2 slots of 4: the 9th distinct update needs a 3rd slot and must
        // evict the oldest full one.
        let mut pcb = Pcb::new(2, 4);
        for i in 0..8 {
            assert_eq!(pcb.insert(upd(i, 1)), PcbInsert::Added);
        }
        assert_eq!(pcb.buffered_updates(), 8);
        match pcb.insert(upd(8, 1)) {
            PcbInsert::Emit(block) => {
                assert_eq!(block.len(), 4);
                assert_eq!(block[0].block_index, 0);
                assert_eq!(block[3].block_index, 3);
            }
            other => panic!("expected Emit, got {other:?}"),
        }
        assert_eq!(pcb.buffered_updates(), 5, "slot 2 + new open entry");
        assert_eq!(pcb.stats().emitted_blocks, 1);
    }

    #[test]
    fn full_slots_remain_merge_targets() {
        // Fill one slot completely; a later update to one of its blocks
        // must still merge (the augmented design's whole point).
        let mut pcb = Pcb::new(8, 4);
        for i in 0..4 {
            pcb.insert(upd(i, 1));
        }
        assert_eq!(pcb.buffered_updates(), 4);
        assert_eq!(pcb.insert(upd(2, 9)), PcbInsert::Merged);
    }

    #[test]
    fn merge_takes_newest_values_and_accumulates_status() {
        let mut pcb = Pcb::new(8, 9);
        pcb.insert(upd(5, 1)); // status true
        let newer = PartialUpdate {
            block_index: 5,
            minor: 2,
            mac2: 999,
            ctr_status: false,
            mac_status: false,
        };
        assert_eq!(pcb.insert(newer), PcbInsert::Merged);
        let flushed = pcb.flush();
        let e = flushed[0][0];
        assert_eq!(e.minor, 2);
        assert_eq!(e.mac2, 999);
        assert!(e.ctr_status, "dirtying status sticks across merges");
        assert!(e.mac_status);
    }

    #[test]
    fn merge_reaches_older_slots() {
        let mut pcb = Pcb::new(8, 3);
        pcb.insert(upd(1, 1));
        pcb.insert(upd(2, 1));
        pcb.insert(upd(3, 1)); // fills slot 1 (stays resident)
        pcb.insert(upd(4, 1)); // opens slot 2
        // Merge into the older, full slot.
        assert_eq!(pcb.insert(upd(1, 2)), PcbInsert::Merged);
        assert_eq!(pcb.stats().merge_rate(), Some(1.0 / 5.0));
    }

    #[test]
    fn merge_window_spans_all_slots() {
        let mut pcb = Pcb::new(2, 9);
        for i in 0..9 {
            pcb.insert(upd(i, 1));
        }
        for i in 100..104 {
            pcb.insert(upd(i, 1));
        }
        // Both a first-slot and a second-slot block merge.
        assert_eq!(pcb.insert(upd(3, 7)), PcbInsert::Merged);
        assert_eq!(pcb.insert(upd(101, 7)), PcbInsert::Merged);
    }

    #[test]
    fn crash_drain_returns_pending_and_clears() {
        let mut pcb = Pcb::new(8, 9);
        pcb.insert(upd(1, 1));
        pcb.insert(upd(2, 1));
        let drained = pcb.crash_drain();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].len(), 2);
        assert_eq!(pcb.buffered_updates(), 0);
        assert!(pcb.crash_drain().is_empty());
    }

    #[test]
    fn flush_counts_emissions() {
        let mut pcb = Pcb::new(8, 9);
        pcb.insert(upd(1, 1));
        let out = pcb.flush();
        assert_eq!(out.len(), 1);
        assert_eq!(pcb.stats().emitted_blocks, 1);
        assert!(pcb.flush().is_empty());
    }

    #[test]
    fn distinct_blocks_never_merge() {
        let mut pcb = Pcb::new(8, 9);
        pcb.insert(upd(1, 1));
        assert_eq!(pcb.insert(upd(2, 1)), PcbInsert::Added);
        assert_eq!(pcb.stats().merged, 0);
    }

    #[test]
    fn merge_rate_none_before_inserts() {
        let pcb = Pcb::new(8, 9);
        assert_eq!(pcb.stats().merge_rate(), None);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_panics() {
        let _ = Pcb::new(0, 9);
    }
}
