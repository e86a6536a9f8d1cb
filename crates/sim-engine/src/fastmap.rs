//! Deterministic, allocation-free hashing for the simulator's hot maps.
//!
//! `std`'s default `RandomState`/SipHash pairing is robust against
//! collision attacks but costs ~1–2 ns per byte and seeds itself randomly
//! per process. The simulator's maps are keyed by block addresses and tree
//! indices under our own control — HashDoS is not in the threat model, and
//! random seeding is actively unwanted (iteration order should never be a
//! hidden source of nondeterminism). This module provides a from-scratch
//! multiplicative hasher in the style of rustc's FxHash: fold each 8-byte
//! chunk into the state with an xor and one odd-constant multiply.
//!
//! Use [`FastMap`]/[`FastSet`] for every map on the simulation hot path;
//! behaviour (as opposed to wall-clock) must not change, which the
//! determinism golden test pins.

#[allow(clippy::disallowed_types, reason = "this is the wrapper")]
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative folding hasher (FxHash construction). Not DoS-resistant
/// by design — see the module docs.
#[derive(Default, Clone)]
pub struct FxStyleHasher {
    hash: u64,
}

/// The golden-ratio-derived odd constant used by rustc's FxHash; any odd
/// multiplier with well-mixed high bits works, this one is battle-tested.
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxStyleHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxStyleHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// `HashMap` with the deterministic multiplicative hasher.
#[allow(clippy::disallowed_types, reason = "this is the wrapper")]
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FxStyleHasher>>;

/// `HashSet` with the deterministic multiplicative hasher.
#[allow(clippy::disallowed_types, reason = "this is the wrapper")]
pub type FastSet<T> = HashSet<T, BuildHasherDefault<FxStyleHasher>>;

#[cfg(test)]
#[allow(clippy::disallowed_types, reason = "std sets measure the hash spread")]
mod tests {
    use super::*;

    fn hash_of(f: impl Fn(&mut FxStyleHasher)) -> u64 {
        let mut h = FxStyleHasher::default();
        f(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(
            hash_of(|h| h.write_u64(0xdead_beef)),
            hash_of(|h| h.write_u64(0xdead_beef))
        );
    }

    #[test]
    fn adjacent_addresses_spread() {
        // Block addresses differ in low bits; the hashes must not cluster.
        let hashes: Vec<u64> = (0..64u64).map(|a| hash_of(|h| h.write_u64(a * 64))).collect();
        let mut top_bytes: std::collections::HashSet<u8> =
            hashes.iter().map(|h| (h >> 56) as u8).collect();
        assert!(top_bytes.len() > 32, "high bits barely mixed");
        top_bytes.clear();
        let mut low: std::collections::HashSet<u64> =
            hashes.iter().map(|h| h & 0xfff).collect();
        assert!(low.len() > 48, "low bits collide excessively");
        low.clear();
    }

    #[test]
    fn byte_stream_matches_word_writes_for_aligned_input() {
        // chunks(8) on 16 bytes == two u64 writes.
        let mut bytes = [0u8; 16];
        bytes[..8].copy_from_slice(&1u64.to_le_bytes());
        bytes[8..].copy_from_slice(&2u64.to_le_bytes());
        assert_eq!(
            hash_of(|h| h.write(&bytes)),
            hash_of(|h| {
                h.write_u64(1);
                h.write_u64(2);
            })
        );
    }

    #[test]
    fn map_and_set_aliases_work() {
        let mut m: FastMap<u64, &str> = FastMap::default();
        m.insert(64, "a");
        m.insert(128, "b");
        assert_eq!(m.get(&64), Some(&"a"));
        let mut s: FastSet<u64> = FastSet::default();
        assert!(s.insert(7));
        assert!(!s.insert(7));
    }
}
