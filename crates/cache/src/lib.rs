//! Set-associative write-back cache substrate.
//!
//! The secure metadata caches of the paper (counter cache, MAC cache,
//! Merkle-tree cache — Table I) and the volatile data LLC model are all
//! instances of [`SetAssocCache`]: a generic, LRU, write-back,
//! set-associative cache keyed by block address.
//!
//! Two features exist specifically for Thoth:
//!
//! * **Block dirty state is observable before mutation** — the WTSC policy
//!   records "was the block already dirty when this partial update
//!   arrived?" as the PUB entry's status bit (Section IV-B).
//! * **Per-subblock dirty bitmasks** — the WTBC policy tracks dirtiness of
//!   individual counters/MACs within a metadata block; the mask is carried
//!   on each line and returned with evictions.
//!
//! # Example
//!
//! ```
//! use thoth_cache::{CacheConfig, SetAssocCache};
//!
//! // The paper's counter cache: 64 kB, 4-way, 64 B blocks.
//! let mut cache: SetAssocCache<Vec<u8>> =
//!     SetAssocCache::new(CacheConfig::new(64 * 1024, 4, 64));
//! cache.insert(0x1000, vec![0; 64]);
//! assert!(cache.contains(0x1000));
//! assert!(!cache.is_dirty(0x1000));
//! cache.mark_dirty(0x1000, Some(3));
//! assert!(cache.is_dirty(0x1000));
//! assert_eq!(cache.dirty_mask(0x1000), 1 << 3);
//! ```

#![warn(missing_docs)]

use std::fmt;

/// Configuration of a set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: usize,
    /// Associativity (lines per set).
    pub ways: usize,
    /// Block (line) size in bytes; also the address alignment.
    pub block_bytes: usize,
}

impl CacheConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics unless `capacity_bytes` is a positive multiple of
    /// `ways * block_bytes` and both the block size and the set count are
    /// powers of two (probes align and index with a shift and a mask).
    #[must_use]
    pub fn new(capacity_bytes: usize, ways: usize, block_bytes: usize) -> Self {
        assert!(capacity_bytes > 0 && ways > 0 && block_bytes > 0);
        assert_eq!(
            capacity_bytes % (ways * block_bytes),
            0,
            "capacity must be a whole number of sets"
        );
        let config = CacheConfig {
            capacity_bytes,
            ways,
            block_bytes,
        };
        assert!(
            block_bytes.is_power_of_two() && config.num_sets().is_power_of_two(),
            "block size and set count must be powers of two"
        );
        config
    }

    /// Number of sets.
    #[must_use]
    pub fn num_sets(&self) -> usize {
        self.capacity_bytes / (self.ways * self.block_bytes)
    }

    /// Total number of lines.
    #[must_use]
    pub fn num_lines(&self) -> usize {
        self.capacity_bytes / self.block_bytes
    }
}

/// A line evicted from (or removed out of) the cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Evicted<V> {
    /// Block-aligned address of the line.
    pub addr: u64,
    /// The cached payload.
    pub value: V,
    /// Whether the line was dirty (needs write-back).
    pub dirty: bool,
    /// Per-subblock dirty bits (bit *i* = subblock *i* was updated).
    pub dirty_mask: u64,
}

#[derive(Debug, Clone)]
struct Line<V> {
    addr: u64,
    value: V,
    dirty: bool,
    dirty_mask: u64,
    last_use: u64,
}

/// Running hit/miss/eviction statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the block.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Evictions of dirty lines (write-backs).
    pub dirty_evictions: u64,
    /// Evictions of clean lines.
    pub clean_evictions: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`, or `None` before any lookup.
    #[must_use]
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        (total > 0).then(|| self.hits as f64 / total as f64)
    }
}

/// A generic LRU set-associative write-back cache keyed by block address.
///
/// Addresses are block-aligned internally; callers may pass any byte
/// address within the block.
///
/// Sets are sized once, at construction: each set lists the indices of
/// its resident lines in way order, in one flat slot array. The lines
/// themselves live in one vector that only grows while the cache fills
/// (a few doublings over a run), so a full cache evicts and refills
/// without allocating. Sparse caches (the data LLC) stay small: a line
/// costs memory only once resident.
#[derive(Clone)]
pub struct SetAssocCache<V> {
    config: CacheConfig,
    /// Every resident line, in no particular order.
    lines: Vec<Line<V>>,
    /// `ways` slots per set: the `lines` indices of the set's resident
    /// lines in way order. The first `fill[set]` slots are in use.
    slots: Vec<u32>,
    fill: Vec<u32>,
    tick: u64,
    stats: CacheStats,
    /// `log2(block_bytes)` and `num_sets - 1`: every probe aligns and
    /// indexes with a shift and a mask, never a division, which matters
    /// because the simulator's hot paths take tens of cache probes per
    /// simulated op.
    shift: u32,
    set_mask: u64,
}

impl<V> SetAssocCache<V> {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the cache has 2^32 or more lines.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        assert!(
            u32::try_from(config.num_lines()).is_ok(),
            "line indices must fit in 32 bits"
        );
        SetAssocCache {
            config,
            lines: Vec::new(),
            slots: vec![0; config.num_lines()],
            fill: vec![0; config.num_sets()],
            tick: 0,
            stats: CacheStats::default(),
            shift: config.block_bytes.trailing_zeros(),
            set_mask: config.num_sets() as u64 - 1,
        }
    }

    /// The cache's configuration.
    #[must_use]
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn align(&self, addr: u64) -> u64 {
        addr >> self.shift << self.shift
    }

    fn set_index(&self, block_addr: u64) -> usize {
        ((block_addr >> self.shift) & self.set_mask) as usize
    }

    fn bump(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// The in-use slots of `set`, in way order.
    fn ways_of(&self, set: usize) -> &[u32] {
        let base = set * self.config.ways;
        &self.slots[base..base + self.fill[set] as usize]
    }

    /// `(set, way, lines index)` of the resident line holding `addr`.
    fn find(&self, addr: u64) -> Option<(usize, usize, usize)> {
        let block = self.align(addr);
        let set = self.set_index(block);
        let ways = self.ways_of(set);
        ways.iter()
            .position(|&i| self.lines[i as usize].addr == block)
            .map(|way| (set, way, ways[way] as usize))
    }

    fn line(&self, addr: u64) -> Option<&Line<V>> {
        self.find(addr).map(|(_, _, i)| &self.lines[i])
    }

    fn line_mut(&mut self, addr: u64) -> Option<&mut Line<V>> {
        self.find(addr).map(|(_, _, i)| &mut self.lines[i])
    }

    /// Removes `way` from `set`'s way order, moving the last way into
    /// its place (a `Vec::swap_remove` of the set).
    fn unlink(&mut self, set: usize, way: usize) {
        let base = set * self.config.ways;
        let last = base + self.fill[set] as usize - 1;
        self.slots[base + way] = self.slots[last];
        self.fill[set] -= 1;
    }

    /// Looks up `addr`, counting a hit or miss and refreshing LRU on hit.
    /// Returns a shared reference to the payload.
    pub fn lookup(&mut self, addr: u64) -> Option<&V> {
        self.lookup_mut(addr).map(|v| &*v)
    }

    /// Looks up `addr` mutably, counting a hit or miss and refreshing LRU.
    pub fn lookup_mut(&mut self, addr: u64) -> Option<&mut V> {
        let tick = self.bump();
        match self.find(addr) {
            Some((_, _, i)) => {
                self.stats.hits += 1;
                let l = &mut self.lines[i];
                l.last_use = tick;
                Some(&mut l.value)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Checks residency without touching LRU or statistics.
    #[must_use]
    pub fn contains(&self, addr: u64) -> bool {
        self.find(addr).is_some()
    }

    /// Reads the payload without touching LRU or statistics.
    #[must_use]
    pub fn peek(&self, addr: u64) -> Option<&V> {
        self.line(addr).map(|l| &l.value)
    }

    /// Whether the block is resident and dirty. Non-resident blocks are
    /// reported clean. Does not touch LRU or statistics — WTSC reads this
    /// *before* applying a partial update.
    #[must_use]
    pub fn is_dirty(&self, addr: u64) -> bool {
        self.line(addr).is_some_and(|l| l.dirty)
    }

    /// The per-subblock dirty mask of a resident block (0 if absent).
    #[must_use]
    pub fn dirty_mask(&self, addr: u64) -> u64 {
        self.line(addr).map_or(0, |l| l.dirty_mask)
    }

    /// Inserts a *clean* block, evicting the LRU line of the set if full.
    ///
    /// Fetching a block from memory inserts it clean with a zero mask
    /// ("upon a fetch of a security metadata block, all dirty bits ... are
    /// set to 0", Section IV-B). Returns the evicted line, if any.
    ///
    /// Inserting over an existing line replaces its payload and clears its
    /// dirty state (the caller is assumed to have persisted it).
    pub fn insert(&mut self, addr: u64, value: V) -> Option<Evicted<V>> {
        let block = self.align(addr);
        let set = self.set_index(block);
        let tick = self.bump();
        let line = Line {
            addr: block,
            value,
            dirty: false,
            dirty_mask: 0,
            last_use: tick,
        };

        if let Some((_, _, i)) = self.find(block) {
            self.lines[i] = line;
            return None;
        }

        let base = set * self.config.ways;
        let fill = self.fill[set] as usize;
        if fill < self.config.ways {
            self.slots[base + fill] = self.lines.len() as u32;
            self.fill[set] += 1;
            self.lines.push(line);
            return None;
        }

        // Full set: the new line takes the LRU victim's storage and goes
        // last in way order (the first minimum wins ties).
        let way = (0..fill)
            .min_by_key(|&w| self.lines[self.slots[base + w] as usize].last_use)
            .expect("set is non-empty");
        let i = self.slots[base + way] as usize;
        self.unlink(set, way);
        self.slots[base + fill - 1] = i as u32;
        self.fill[set] += 1;
        let old = std::mem::replace(&mut self.lines[i], line);
        if old.dirty {
            self.stats.dirty_evictions += 1;
        } else {
            self.stats.clean_evictions += 1;
        }
        Some(Evicted {
            addr: old.addr,
            value: old.value,
            dirty: old.dirty,
            dirty_mask: old.dirty_mask,
        })
    }

    /// Marks a resident block dirty, optionally setting one subblock bit.
    ///
    /// Returns `true` if the block was resident.
    ///
    /// # Panics
    ///
    /// Panics if `subblock` is 64 or more (the mask is 64 bits wide).
    pub fn mark_dirty(&mut self, addr: u64, subblock: Option<usize>) -> bool {
        let tick = self.bump();
        let Some(l) = self.line_mut(addr) else {
            return false;
        };
        l.dirty = true;
        if let Some(i) = subblock {
            assert!(i < 64, "subblock index {i} out of mask range");
            l.dirty_mask |= 1 << i;
        }
        l.last_use = tick;
        true
    }

    /// Clears the dirty state of a resident block (after persisting it).
    /// Returns `true` if the block was resident.
    pub fn clean(&mut self, addr: u64) -> bool {
        let Some(l) = self.line_mut(addr) else {
            return false;
        };
        l.dirty = false;
        l.dirty_mask = 0;
        true
    }

    /// Removes a block, returning it.
    pub fn remove(&mut self, addr: u64) -> Option<Evicted<V>> {
        let (set, way, i) = self.find(addr)?;
        self.unlink(set, way);
        let old = self.lines.swap_remove(i);
        if let Some(moved) = self.lines.get(i) {
            // The last line moved into the hole: repoint its slot.
            let moved_set = self.set_index(moved.addr);
            let base = moved_set * self.config.ways;
            let last = self.lines.len() as u32;
            let slot = self.slots[base..base + self.fill[moved_set] as usize]
                .iter_mut()
                .find(|s| **s == last)
                .expect("every line has a slot");
            *slot = i as u32;
        }
        Some(Evicted {
            addr: old.addr,
            value: old.value,
            dirty: old.dirty,
            dirty_mask: old.dirty_mask,
        })
    }

    /// Drops every line (a crash losing the volatile hierarchy), building
    /// no list of them; statistics and the LRU clock are kept.
    pub fn clear(&mut self) {
        self.lines.clear();
        self.fill.fill(0);
    }

    /// Iterates over `(addr, &value, dirty, dirty_mask)` of all lines,
    /// set by set in way order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V, bool, u64)> {
        (0..self.config.num_sets())
            .flat_map(move |set| self.ways_of(set))
            .map(move |&i| {
                let l = &self.lines[i as usize];
                (l.addr, &l.value, l.dirty, l.dirty_mask)
            })
    }

    /// Number of resident lines.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Returns `true` if no lines are resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }
}

impl<V> fmt::Debug for SetAssocCache<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SetAssocCache")
            .field("config", &self.config)
            .field("resident", &self.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SetAssocCache<u32> {
        // 2 sets x 2 ways x 64 B blocks.
        SetAssocCache::new(CacheConfig::new(256, 2, 64))
    }

    #[test]
    fn config_geometry() {
        let c = CacheConfig::new(64 * 1024, 4, 64);
        assert_eq!(c.num_sets(), 256);
        assert_eq!(c.num_lines(), 1024);
    }

    #[test]
    #[should_panic(expected = "whole number of sets")]
    fn bad_config_panics() {
        let _ = CacheConfig::new(1000, 3, 64);
    }

    #[test]
    #[should_panic(expected = "powers of two")]
    fn non_power_of_two_sets_panic() {
        let _ = CacheConfig::new(3 * 2 * 64, 2, 64); // 3 sets
    }

    #[test]
    fn hit_and_miss_accounting() {
        let mut c = small();
        assert!(c.lookup(0x0).is_none());
        c.insert(0x0, 1);
        assert_eq!(c.lookup(0x0), Some(&1));
        assert_eq!(c.lookup(0x3f), Some(&1), "same block, any byte");
        let s = c.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 1);
        assert_eq!(s.hit_rate(), Some(2.0 / 3.0));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = small();
        // Set 0 holds blocks 0x000 and 0x080 (stride = block * num_sets = 128).
        c.insert(0x000, 10);
        c.insert(0x080, 20);
        c.lookup(0x000); // make 0x080 the LRU
        let ev = c.insert(0x100, 30).expect("eviction");
        assert_eq!(ev.addr, 0x080);
        assert!(!ev.dirty);
        assert!(c.contains(0x000));
        assert!(c.contains(0x100));
    }

    #[test]
    fn dirty_state_and_mask() {
        let mut c = small();
        c.insert(0x0, 5);
        assert!(!c.is_dirty(0x0));
        assert!(c.mark_dirty(0x0, Some(2)));
        assert!(c.mark_dirty(0x0, Some(7)));
        assert!(c.is_dirty(0x0));
        assert_eq!(c.dirty_mask(0x0), (1 << 2) | (1 << 7));
        assert!(c.clean(0x0));
        assert!(!c.is_dirty(0x0));
        assert_eq!(c.dirty_mask(0x0), 0);
        // Non-resident blocks: clean, zero mask, mark fails.
        assert!(!c.is_dirty(0x4000));
        assert_eq!(c.dirty_mask(0x4000), 0);
        assert!(!c.mark_dirty(0x4000, None));
    }

    #[test]
    fn eviction_carries_dirty_mask() {
        let mut c = small();
        c.insert(0x000, 1);
        c.mark_dirty(0x000, Some(5));
        c.insert(0x080, 2);
        // mark_dirty refreshed 0x000's LRU stamp; touch 0x080 so 0x000
        // becomes the victim.
        c.lookup(0x080);
        let ev = c.insert(0x100, 3).unwrap();
        assert_eq!(ev.addr, 0x000);
        assert!(ev.dirty);
        assert_eq!(ev.dirty_mask, 1 << 5);
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn reinsert_clears_dirty() {
        let mut c = small();
        c.insert(0x0, 1);
        c.mark_dirty(0x0, Some(0));
        assert!(c.insert(0x0, 2).is_none(), "replacement, not eviction");
        assert!(!c.is_dirty(0x0));
        assert_eq!(c.peek(0x0), Some(&2));
    }

    #[test]
    fn remove_and_drain() {
        let mut c = small();
        c.insert(0x000, 1);
        c.insert(0x040, 2);
        c.mark_dirty(0x040, None);
        let r = c.remove(0x040).unwrap();
        assert!(r.dirty);
        assert_eq!(r.value, 2);
        assert_eq!(c.len(), 1);
        let left: Vec<u64> = c.iter().map(|(addr, ..)| addr).collect();
        assert_eq!(left, [0x000]);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.iter().count(), 0);
    }

    #[test]
    fn peek_does_not_disturb_lru_or_stats() {
        let mut c = small();
        c.insert(0x000, 1);
        c.insert(0x080, 2);
        let before = c.stats();
        assert_eq!(c.peek(0x000), Some(&1));
        assert_eq!(c.stats(), before);
        // 0x000 is still LRU (insert order), so it gets evicted.
        let ev = c.insert(0x100, 3).unwrap();
        assert_eq!(ev.addr, 0x000);
    }

    #[test]
    fn capacity_respected_per_set() {
        let mut c = small();
        for i in 0..100u64 {
            c.insert(i * 64, i as u32);
        }
        assert!(c.len() <= c.config().num_lines());
        for set in 0..c.config().num_sets() {
            assert!(c.ways_of(set).len() <= 2);
        }
    }

    #[test]
    fn lookup_mut_mutates_payload() {
        let mut c = small();
        c.insert(0x0, 7);
        *c.lookup_mut(0x0).unwrap() = 9;
        assert_eq!(c.peek(0x0), Some(&9));
    }

    #[test]
    #[should_panic(expected = "out of mask range")]
    fn oversized_subblock_panics() {
        let mut c = small();
        c.insert(0x0, 1);
        c.mark_dirty(0x0, Some(64));
    }

    /// The flat layout against a per-set `Vec` model: the same victims,
    /// payloads and set-by-set way order (`iter`) under a random mix of
    /// inserts, lookups, dirtying, removals and clones, then `clear`.
    #[test]
    fn matches_the_per_set_vector_model() {
        let mut c = small();
        let mut model: Vec<Vec<(u64, u32, bool, u64)>> = vec![Vec::new(); 2];
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for step in 0..4000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let addr = (x >> 8) % 12 * 64;
            let set = (addr / 64 % 2) as usize;
            match x % 5 {
                0 | 1 => {
                    let ev = c.insert(addr, step);
                    if let Some(w) = model[set].iter().position(|l| l.0 == addr) {
                        model[set][w] = (addr, step, false, 0);
                        assert!(ev.is_none());
                    } else if model[set].len() == 2 {
                        let lru = model[set].iter().enumerate().min_by_key(|(_, l)| l.3).unwrap().0;
                        let old = model[set].swap_remove(lru);
                        let ev = ev.expect("full set evicts");
                        assert_eq!((ev.addr, ev.value, ev.dirty), (old.0, old.1, old.2));
                        model[set].push((addr, step, false, c.tick));
                    } else {
                        assert!(ev.is_none());
                        model[set].push((addr, step, false, c.tick));
                    }
                    let w = model[set].iter().position(|l| l.0 == addr).unwrap();
                    model[set][w].3 = c.tick;
                }
                2 => {
                    let hit = c.lookup(addr).copied();
                    let w = model[set].iter().position(|l| l.0 == addr);
                    assert_eq!(hit, w.map(|w| model[set][w].1));
                    if let Some(w) = w {
                        model[set][w].3 = c.tick;
                    }
                }
                3 => {
                    let resident = c.mark_dirty(addr, None);
                    let w = model[set].iter().position(|l| l.0 == addr);
                    assert_eq!(resident, w.is_some());
                    if let Some(w) = w {
                        model[set][w].2 = true;
                        model[set][w].3 = c.tick;
                    }
                }
                _ => {
                    let removed = c.remove(addr).map(|e| e.value);
                    let w = model[set].iter().position(|l| l.0 == addr);
                    assert_eq!(removed, w.map(|w| model[set].swap_remove(w).1));
                }
            }
            let order: Vec<(u64, u32, bool)> = c.iter().map(|(a, v, d, _)| (a, *v, d)).collect();
            let expect: Vec<(u64, u32, bool)> =
                model.iter().flatten().map(|l| (l.0, l.1, l.2)).collect();
            assert_eq!(order, expect, "step {step}");
        }
        let copy = c.clone();
        let order: Vec<u64> = c.iter().map(|(addr, ..)| addr).collect();
        let expect: Vec<u64> = model.iter().flatten().map(|l| l.0).collect();
        assert_eq!(order, expect);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.iter().count(), 0);
        assert_eq!(copy.iter().count(), expect.len());
    }

    #[test]
    fn iter_reports_all_lines() {
        let mut c = small();
        c.insert(0x000, 1);
        c.insert(0x040, 2);
        c.mark_dirty(0x000, Some(1));
        let mut seen: Vec<_> = c.iter().map(|(a, v, d, m)| (a, *v, d, m)).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![(0x000, 1, true, 2), (0x040, 2, false, 0)]);
    }
}
