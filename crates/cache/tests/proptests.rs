//! Property tests: the set-associative cache against a reference model
//! (deterministic thoth-testkit cases).

#![allow(clippy::disallowed_types, reason = "std maps are the reference models")]

use std::collections::HashMap;
use thoth_cache::{CacheConfig, SetAssocCache};
use thoth_testkit::{check, Gen};

#[derive(Debug, Clone)]
enum Op {
    Lookup(u64),
    Insert(u64, u32),
    MarkDirty(u64, usize),
    Clean(u64),
    Remove(u64),
}

fn arb_op(g: &mut Gen) -> Op {
    let addr = g.below(32) * 64;
    match g.below(5) {
        0 => Op::Lookup(addr),
        1 => Op::Insert(addr, g.u64() as u32),
        2 => Op::MarkDirty(addr, g.range_usize(0, 64)),
        3 => Op::Clean(addr),
        _ => Op::Remove(addr),
    }
}

/// Whatever the op sequence, a resident block's payload equals the
/// last value inserted for it, capacity bounds hold, and dirty state
/// follows mark/clean/insert semantics.
#[test]
fn cache_matches_reference_model() {
    check(128, |g| {
        let ops = g.vec_of(0, 300, arb_op);
        let cfg = CacheConfig::new(512, 2, 64); // 4 sets x 2 ways
        let mut cache: SetAssocCache<u32> = SetAssocCache::new(cfg);
        // Reference: value and dirtiness of the last state per address
        // (only checked when resident — evictions are the cache's choice).
        let mut model: HashMap<u64, (u32, bool, u64)> = HashMap::new();
        for op in ops {
            match op {
                Op::Lookup(a) => {
                    if let Some(&v) = cache.lookup(a) {
                        assert_eq!(v, model[&a].0, "payload mismatch");
                    }
                }
                Op::Insert(a, v) => {
                    cache.insert(a, v);
                    model.insert(a, (v, false, 0));
                }
                Op::MarkDirty(a, s) => {
                    let was = cache.contains(a);
                    let ok = cache.mark_dirty(a, Some(s));
                    assert_eq!(ok, was);
                    if let Some(e) = model.get_mut(&a) {
                        if was {
                            e.1 = true;
                            e.2 |= 1 << s;
                        }
                    }
                }
                Op::Clean(a) => {
                    cache.clean(a);
                    if let Some(e) = model.get_mut(&a) {
                        e.1 = false;
                        e.2 = 0;
                    }
                }
                Op::Remove(a) => {
                    cache.remove(a);
                    model.remove(&a);
                }
            }
            // Invariants after every op:
            assert!(cache.len() <= cfg.num_lines());
            for (addr, v, dirty, mask) in cache.iter() {
                let (mv, mdirty, mmask) = model[&addr];
                assert_eq!(*v, mv);
                assert_eq!(dirty, mdirty);
                assert_eq!(mask, mmask);
                assert!(dirty || mask == 0, "a nonzero dirty mask implies a dirty line");
            }
        }
    });
}

/// Evictions only happen when a set is full, and always evict from
/// the same set as the incoming block.
#[test]
fn evictions_stay_within_the_set() {
    check(128, |g| {
        let addrs = g.vec_of(1, 200, |g| g.below(64));
        let cfg = CacheConfig::new(512, 2, 64); // 4 sets
        let sets = cfg.num_sets() as u64;
        let mut cache: SetAssocCache<()> = SetAssocCache::new(cfg);
        for a in addrs {
            let addr = a * 64;
            if let Some(ev) = cache.insert(addr, ()) {
                assert_eq!(
                    (ev.addr / 64) % sets,
                    (addr / 64) % sets,
                    "evicted from a different set"
                );
            }
        }
    });
}
