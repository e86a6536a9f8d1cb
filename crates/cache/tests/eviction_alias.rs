//! Regression tests for the eviction and address-aliasing paths the
//! inline unit tests skim over: set-local victim selection, byte-address
//! aliasing onto one line across the whole API, and the statistics
//! counted on each eviction flavour.

use thoth_cache::{CacheConfig, SetAssocCache};

/// 2 sets × 2 ways × 64 B blocks: set stride is 128 B.
fn small() -> SetAssocCache<u32> {
    SetAssocCache::new(CacheConfig::new(256, 2, 64))
}

#[test]
fn eviction_is_set_local() {
    let mut c = small();
    // Fill set 0 (addresses ≡ 0 mod 128) and set 1 (≡ 64 mod 128).
    c.insert(0x000, 1);
    c.insert(0x080, 2);
    c.insert(0x040, 3);
    c.insert(0x0c0, 4);
    assert_eq!(c.len(), 4);
    // Overflowing set 0 must evict from set 0 and leave set 1 intact.
    let ev = c.insert(0x100, 5).expect("set 0 is full");
    assert_eq!(ev.addr % 128, 0, "victim came from set 0");
    assert!(c.contains(0x040) && c.contains(0x0c0), "set 1 untouched");
    assert_eq!(c.len(), 4);
}

#[test]
fn clean_eviction_is_counted() {
    let mut c = small();
    c.insert(0x000, 1);
    c.insert(0x080, 2);
    let _ = c.insert(0x100, 3).expect("eviction");
    let s = c.stats();
    assert_eq!(s.clean_evictions, 1);
    assert_eq!(s.dirty_evictions, 0);
}

#[test]
fn byte_addresses_alias_to_one_line_across_the_api() {
    let mut c = small();
    c.insert(0x020, 7); // unaligned insert lands on block 0x000
    assert!(c.contains(0x000));
    assert_eq!(c.len(), 1);
    // Every aliased byte address reaches the same line.
    assert!(c.mark_dirty(0x03f, Some(1)));
    assert!(c.is_dirty(0x000));
    assert_eq!(c.dirty_mask(0x01), 1 << 1);
    assert_eq!(c.peek(0x03e), Some(&7));
    assert!(c.clean(0x025));
    assert!(!c.is_dirty(0x000));
    // Aliased insert replaces rather than duplicating.
    assert!(c.insert(0x010, 8).is_none());
    assert_eq!(c.len(), 1);
    assert_eq!(c.peek(0x000), Some(&8));
    // Aliased remove takes the line out.
    let r = c.remove(0x030).expect("resident");
    assert_eq!(r.addr, 0x000, "evicted record carries the aligned address");
    assert!(c.is_empty());
}

#[test]
fn misses_on_absent_blocks_do_not_disturb_state() {
    let mut c = small();
    assert!(c.remove(0x000).is_none());
    assert!(!c.clean(0x000));
    assert_eq!(c.iter().count(), 0);
    assert_eq!(c.stats().hit_rate(), None, "no lookups yet");
    assert!(c.lookup(0x200).is_none());
    assert_eq!(c.stats().hit_rate(), Some(0.0));
}

#[test]
fn reinserting_an_evicted_block_starts_clean() {
    let mut c = small();
    c.insert(0x000, 1);
    c.mark_dirty(0x000, Some(9));
    c.insert(0x080, 2);
    c.lookup(0x080); // make 0x000 the LRU victim
    let ev = c.insert(0x100, 3).expect("eviction");
    assert_eq!((ev.addr, ev.dirty, ev.dirty_mask), (0x000, true, 1 << 9));
    // The block comes back as a fresh fetch: clean, zero mask.
    c.lookup(0x100); // victimize 0x080 next, not 0x100
    c.insert(0x000, 4);
    assert!(!c.is_dirty(0x000));
    assert_eq!(c.dirty_mask(0x000), 0);
    assert_eq!(c.peek(0x000), Some(&4));
}
