//! Recovery-ordering tests for the PUB: when the same data block's partial
//! update lands in the buffer more than once (an older emitted copy plus a
//! newer merged one), the Section IV-D oldest-to-youngest scan must leave
//! the *newest* values in force — including when a crash lands between the
//! two appends and the second copy arrives via the PCB's crash padding.

#![allow(clippy::disallowed_types, reason = "std maps are the reference models")]

use thoth_core::{
    EvictionPolicy, PartialUpdate, PubBuffer, PubConfig, ThothEngine, ThothHost,
};
use thoth_core::policy::{BlockView, MetadataKind};

use std::collections::HashMap;

/// A functional-only host: PUB blocks live in a map, metadata callbacks are
/// inert (no eviction runs in these tests).
#[derive(Default)]
struct MapHost {
    pub_mem: HashMap<u64, Vec<u8>>,
}

impl ThothHost for MapHost {
    fn metadata_view(&mut self, _kind: MetadataKind, _u: &PartialUpdate) -> BlockView {
        BlockView::NotPresent
    }
    fn persist_metadata(&mut self, _kind: MetadataKind, _u: &PartialUpdate) {}
    fn write_pub_block(&mut self, addr: u64, image: &[u8]) {
        self.pub_mem.insert(addr, image.to_vec());
    }
    fn read_pub_block(&mut self, addr: u64, read: &mut dyn FnMut(&[u8])) {
        read(&self.pub_mem[&addr]);
    }
}

fn engine() -> ThothEngine {
    // One PCB slot of 9 entries over a 16-block PUB that never evicts, so
    // tests fully control when a slot is emitted.
    ThothEngine::new(
        EvictionPolicy::Wtsc,
        1,
        PubConfig {
            base_addr: 0x1000,
            size_bytes: 16 * 128,
            block_bytes: 128,
            evict_threshold_pct: 100,
        },
    )
}

fn upd(block: u32, minor: u8) -> PartialUpdate {
    PartialUpdate {
        block_index: block,
        minor,
        mac2: u64::from(block) * 1000 + u64::from(minor),
        ctr_status: true,
        mac_status: true,
    }
}

/// Replays the recovery scan: decode every valid PUB block oldest first and
/// fold the entries into a map where later (younger) entries overwrite
/// earlier (staler) ones — exactly what `merge_entry` does in the machine.
fn recovered_view(engine: &ThothEngine, host: &mut MapHost) -> HashMap<u32, PartialUpdate> {
    let mut view = HashMap::new();
    let mut entries = Vec::new();
    for addr in engine.recovery_scan() {
        host.read_pub_block(addr, &mut |image| engine.codec().decode_into(image, &mut entries));
        for &e in &entries {
            view.insert(e.block_index, e);
        }
    }
    view
}

#[test]
fn younger_pub_entry_overrides_stale_one() {
    let mut e = engine();
    let mut h = MapHost::default();
    // Fill the single PCB slot with blocks 0..9, then push block 9: the
    // slot holding block 0's minor-1 update is emitted to the PUB.
    for i in 0..9 {
        e.insert(upd(i, 1), &mut h);
    }
    e.insert(upd(9, 1), &mut h);
    assert_eq!(e.recovery_scan().len(), 1, "one emitted block in the PUB");

    // Block 0 updated again — merges into the open PCB slot, then the
    // crash pads that slot into a second, younger PUB block.
    e.insert(upd(0, 2), &mut h);
    e.crash_flush(|addr, img| {
        h.pub_mem.insert(addr, img.to_vec());
    });
    assert_eq!(e.recovery_scan().len(), 2, "stale block + crash-padded block");

    let view = recovered_view(&e, &mut h);
    assert_eq!(view[&0].minor, 2, "scan order must land the newest minor");
    assert_eq!(view[&0].mac2, 2, "newest mac2 wins with it");
    assert_eq!(view[&1].minor, 1, "untouched blocks keep their only copy");
}

#[test]
fn crash_between_the_two_appends_recovers_the_older_copy() {
    let mut e = engine();
    let mut h = MapHost::default();
    for i in 0..10 {
        e.insert(upd(i, 1), &mut h); // emits the slot with block 0 @ minor 1
    }
    // The second update to block 0 reaches the PCB but its slot is NOT yet
    // emitted when power fails — and this crash's ADR flush is lost too
    // (simulating the strictest case: only what already sat in the PUB
    // region survives). Recovery must fall back to the older copy instead
    // of inventing state.
    e.insert(upd(0, 7), &mut h);
    let pending = e.pcb_pending();
    assert_eq!(pending.len(), 1);
    assert!(pending[0].iter().any(|u| u.block_index == 0 && u.minor == 7));

    let view = recovered_view(&e, &mut h);
    assert_eq!(view[&0].minor, 1, "pre-crash PUB holds the older copy only");
}

#[test]
fn merge_in_pcb_keeps_single_entry_with_newest_values() {
    let mut e = engine();
    let mut h = MapHost::default();
    e.insert(upd(3, 1), &mut h);
    e.insert(upd(3, 2), &mut h);
    e.insert(upd(3, 3), &mut h);
    e.crash_flush(|addr, img| {
        h.pub_mem.insert(addr, img.to_vec());
    });
    let view = recovered_view(&e, &mut h);
    assert_eq!(view.len(), 1, "merges collapse to one entry");
    assert_eq!(view[&3].minor, 3);
}

#[test]
fn interrupted_append_is_invisible_to_the_scan() {
    // Directly exercise the two-phase append: a packed block written at
    // peek_tail() but never committed (crash in between) must not appear
    // in the recovery scan, and the slot is handed out again afterwards.
    let mut pb = PubBuffer::new(PubConfig {
        base_addr: 0x1000,
        size_bytes: 4 * 128,
        block_bytes: 128,
        evict_threshold_pct: 100,
    });
    let a0 = pb.allocate_tail();
    let torn = pb.peek_tail();
    assert_ne!(a0, torn);
    // ... the packed block write to `torn` is interrupted here; the end
    // register was never advanced ...
    assert_eq!(pb.scan_oldest_to_youngest(), vec![a0]);
    assert_eq!(pb.peek_tail(), torn, "slot is reused on restart");
}
