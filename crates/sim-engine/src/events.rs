//! Discrete-event queues.
//!
//! * [`CoalescedEventQueue`] — the NVM device's bank-completion
//!   scoreboard: every lane due on one cycle merges into one bitmask
//!   entry.
//! * [`HeapEventQueue`] — a stable-order `BinaryHeap` queue: events
//!   scheduled for the same cycle pop in scheduling order (FIFO). It is
//!   the coalesced queue's differential-testing reference and benchmark
//!   baseline.
//!
//! The trace replay loop needs neither: each core has at most one
//! outstanding wake-up, so it schedules cores with a per-core argmin
//! scan (see DESIGN.md §3.5).

use crate::clock::Cycle;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};

/// A heap entry: ordered by cycle, then insertion sequence.
struct Entry<E> {
    at: Cycle,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (cycle, seq) pops first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A discrete-event queue with deterministic FIFO tie-breaking, O(log n)
/// everywhere. Kept as the reference implementation for the coalesced
/// queue's differential test (`coalesced_queue_matches_heap_reference`)
/// and as the baseline in the `substrates` benchmark.
pub struct HeapEventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> HeapEventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        HeapEventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at cycle `at` (same-cycle FIFO).
    pub fn schedule(&mut self, at: Cycle, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        self.heap.pop().map(|e| (e.at, e.event))
    }

    /// Returns the cycle of the earliest pending event without removing it.
    pub fn peek_cycle(&self) -> Option<Cycle> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Removes all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

impl<E> Default for HeapEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// A same-cycle-coalescing event queue for small lane sets (≤ 64).
///
/// Where [`HeapEventQueue`] stores one entry per event, this queue merges
/// every lane scheduled for one cycle into a single entry carrying a lane
/// **bitmask** — built for per-bank NVM completions, where many banks
/// finish on the same cycle and the consumer only needs "which banks",
/// not an ordering among them. Within a cycle the result is order-free by
/// construction (a set bit is a set bit), so the FIFO tie-breaking the
/// general queues provide is unnecessary here by design.
///
/// # Example
///
/// ```
/// use thoth_sim_engine::{CoalescedEventQueue, Cycle};
///
/// let mut q = CoalescedEventQueue::new();
/// q.schedule(Cycle(2000), 3);
/// q.schedule(Cycle(2000), 7); // same cycle: merged, not appended
/// assert_eq!(q.len(), 1);
/// assert_eq!(q.pop(), Some((Cycle(2000), (1 << 3) | (1 << 7))));
/// ```
#[derive(Debug, Clone, Default)]
pub struct CoalescedEventQueue {
    /// Pending completions: cycle -> lane bitmask. The map stays tiny
    /// (at most one entry per distinct completion cycle, bounded by the
    /// lane count), so ordered-map overhead is negligible next to the
    /// entries a per-event queue would carry.
    entries: BTreeMap<u64, u64>,
    /// Schedules that merged into an existing same-cycle entry.
    coalesced: u64,
}

impl CoalescedEventQueue {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `lane`'s completion at cycle `at`, merging into any
    /// entry already pending for that cycle.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 64` (the bitmask width).
    pub fn schedule(&mut self, at: Cycle, lane: u32) {
        assert!(lane < 64, "lane {lane} exceeds the 64-bit mask");
        let entry = self.entries.entry(at.0).or_insert(0);
        if *entry != 0 {
            self.coalesced += 1;
        }
        *entry |= 1 << lane;
    }

    /// Removes and returns the earliest entry as `(cycle, lane bitmask)`.
    pub fn pop(&mut self) -> Option<(Cycle, u64)> {
        self.entries
            .pop_first()
            .map(|(at, mask)| (Cycle(at), mask))
    }

    /// Pops the earliest entry only if it is due at `now` — the drain
    /// loop a completion scoreboard runs before reading state.
    pub fn pop_due(&mut self, now: Cycle) -> Option<(Cycle, u64)> {
        if self.peek_cycle()? <= now {
            self.pop()
        } else {
            None
        }
    }

    /// Cycle of the earliest pending entry without removing it.
    #[must_use]
    pub fn peek_cycle(&self) -> Option<Cycle> {
        self.entries.keys().next().map(|&at| Cycle(at))
    }

    /// Number of pending **coalesced** entries (distinct cycles, not
    /// lanes: a popped entry may carry many set bits).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no entries are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Removes all pending entries (keeps the coalesced count).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Schedules that merged into an existing entry instead of creating
    /// one — the events a per-event queue would have carried separately.
    #[must_use]
    pub fn coalesced(&self) -> u64 {
        self.coalesced
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesced_queue_orders_cycles_and_merges_lanes() {
        let mut q = CoalescedEventQueue::new();
        q.schedule(Cycle(30), 2);
        q.schedule(Cycle(10), 0);
        q.schedule(Cycle(30), 5);
        q.schedule(Cycle(30), 5); // same lane again: idempotent OR
        q.schedule(Cycle(20), 63);
        assert_eq!(q.len(), 3);
        assert_eq!(q.coalesced(), 2);
        assert_eq!(q.peek_cycle(), Some(Cycle(10)));
        assert_eq!(q.pop(), Some((Cycle(10), 1)));
        assert_eq!(q.pop(), Some((Cycle(20), 1 << 63)));
        assert_eq!(q.pop(), Some((Cycle(30), (1 << 2) | (1 << 5))));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn coalesced_queue_pop_due_respects_now() {
        let mut q = CoalescedEventQueue::new();
        q.schedule(Cycle(100), 1);
        q.schedule(Cycle(200), 2);
        assert_eq!(q.pop_due(Cycle(50)), None);
        assert_eq!(q.pop_due(Cycle(100)), Some((Cycle(100), 2)));
        assert_eq!(q.pop_due(Cycle(100)), None, "next entry not yet due");
        assert_eq!(q.pop_due(Cycle(500)), Some((Cycle(200), 4)));
        assert!(q.is_empty());
        q.schedule(Cycle(7), 0);
        q.clear();
        assert_eq!(q.pop(), None);
    }

    #[test]
    #[should_panic(expected = "exceeds the 64-bit mask")]
    fn coalesced_queue_rejects_wide_lanes() {
        CoalescedEventQueue::new().schedule(Cycle(0), 64);
    }

    /// Differential: against a heap queue of `(cycle, lane)` events with
    /// the coalescing applied by hand at pop time, the coalesced queue
    /// yields the same `(cycle, mask)` sequence for a pseudo-random
    /// schedule — including the count of merges a per-event queue would
    /// have carried as separate entries.
    #[test]
    fn coalesced_queue_matches_heap_reference() {
        let mut q = CoalescedEventQueue::new();
        let mut heap = HeapEventQueue::new();
        let mut x: u64 = 0x1234_5678_9abc_def0;
        let mut events = 0u64;
        for _ in 0..5000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let at = Cycle(x % 300);
            let lane = ((x >> 32) % 64) as u32;
            q.schedule(at, lane);
            heap.schedule(at, lane);
            events += 1;
        }
        let mut merged = 0u64;
        let mut entries = 0u64;
        while let Some((at, first)) = heap.pop() {
            let mut mask = 1u64 << first;
            while heap.peek_cycle() == Some(at) {
                let (_, lane) = heap.pop().expect("peeked");
                mask |= 1 << lane;
                merged += 1; // every event past the first merges
            }
            entries += 1;
            assert_eq!(q.pop(), Some((at, mask)), "cycle {}", at.0);
        }
        assert_eq!(q.pop(), None);
        assert_eq!(q.coalesced(), merged);
        assert_eq!(entries + merged, events, "every event is carried exactly once");
    }

    #[test]
    fn heap_queue_keeps_the_same_contract() {
        let mut q = HeapEventQueue::new();
        q.schedule(Cycle(5), "a");
        q.schedule(Cycle(3), "b");
        q.schedule(Cycle(5), "c");
        assert_eq!(q.peek_cycle(), Some(Cycle(3)));
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((Cycle(3), "b")));
        assert_eq!(q.pop(), Some((Cycle(5), "a")));
        assert_eq!(q.pop(), Some((Cycle(5), "c")));
        assert!(q.is_empty());
    }
}
