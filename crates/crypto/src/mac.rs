//! Two-level message authentication codes (Section IV-A of the paper).
//!
//! Secure memory authenticates each ciphertext block with a MAC computed
//! over the ciphertext, the block address, and the encryption counter
//! (Bonsai-Merkle-Tree style \[35\]: counter freshness comes from the tree,
//! so the MAC transitively guarantees data freshness).
//!
//! The paper uses an **8-to-1 first-level MAC**: 8 bytes of tag per 64
//! bytes of ciphertext (16 B for a 128 B block, 32 B for 256 B). These
//! first-level MACs are what live in the in-memory MAC blocks. To pack
//! partial updates densely in the PUB, Thoth additionally computes an 8 B
//! **second-level MAC** over the first-level MACs; that is the value stored
//! in a partial-update entry and re-derived during recovery.

use crate::siphash::SipHash24;
use std::cell::Cell;

/// A 128-bit MAC key.
///
/// Wrapping the raw bytes in a newtype keeps key material out of `Debug`
/// output and distinguishes MAC keys from encryption keys in signatures.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct MacKey(pub [u8; 16]);

impl std::fmt::Debug for MacKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("MacKey(..)")
    }
}

/// Computes first- and second-level MACs for ciphertext blocks.
///
/// # Example
///
/// ```
/// use thoth_crypto::{MacEngine, MacKey};
///
/// let eng = MacEngine::new(MacKey([3u8; 16]));
/// let ct = vec![0xCD; 128];
/// let mut first = [0u8; MacEngine::first_level_len(128)]; // 8-to-1: 16 B
/// eng.first_level(0x1000, 4, 1, &ct, &mut first);
/// let tag = eng.second_level(0x1000, &first);
///
/// // Tampering with the ciphertext changes the first-level MAC:
/// let mut bad = ct.clone();
/// bad[5] ^= 1;
/// let mut tampered = [0u8; 16];
/// eng.first_level(0x1000, 4, 1, &bad, &mut tampered);
/// assert_ne!(tampered, first);
/// # let _ = tag;
/// ```
#[derive(Debug, Clone)]
pub struct MacEngine {
    sip: SipHash24,
    /// Invocations of the multi-lane batched hash kernel (telemetry).
    batch_runs: Cell<u64>,
    /// Rows hashed by the vector (AVX2) batch kernel (telemetry).
    simd_rows: Cell<u64>,
}

/// Bytes of ciphertext covered by each 8-byte first-level MAC word.
pub const FIRST_LEVEL_RATIO: usize = 8;

impl MacEngine {
    /// Creates a MAC engine keyed with `key`.
    #[must_use]
    pub fn new(key: MacKey) -> Self {
        MacEngine {
            sip: SipHash24::from_key_bytes(&key.0),
            batch_runs: Cell::new(0),
            simd_rows: Cell::new(0),
        }
    }

    /// Size in bytes of the first-level MAC for a block of `block_bytes`.
    #[must_use]
    pub const fn first_level_len(block_bytes: usize) -> usize {
        block_bytes / FIRST_LEVEL_RATIO
    }

    /// Computes the first-level MAC into `out`: one 8 B tag per 64 B of
    /// ciphertext, each bound to the address, counter pair, and chunk
    /// index.
    ///
    /// # Panics
    ///
    /// Panics if `ciphertext` is not a multiple of 64 bytes or `out` is
    /// not [`Self::first_level_len`] of it.
    pub fn first_level(
        &self,
        addr: u64,
        major: u64,
        minor: u8,
        ciphertext: &[u8],
        out: &mut [u8],
    ) {
        assert_eq!(
            ciphertext.len() % 64,
            0,
            "first-level MAC expects whole 64 B chunks"
        );
        assert_eq!(
            out.len(),
            Self::first_level_len(ciphertext.len()),
            "first-level MAC output must be one 8 B tag per 64 B chunk"
        );
        for (i, (chunk, tag)) in ciphertext.chunks_exact(64).zip(out.chunks_exact_mut(8)).enumerate() {
            let word = self.sip.hash_parts(&[
                chunk,
                &addr.to_le_bytes(),
                &major.to_le_bytes(),
                &[minor, i as u8],
            ]);
            tag.copy_from_slice(&word.to_le_bytes());
        }
    }

    /// Computes the 8 B second-level MAC over a first-level MAC, bound to
    /// the address. This is the value a Thoth partial-update entry carries.
    #[must_use]
    pub fn second_level(&self, addr: u64, first_level: &[u8]) -> u64 {
        self.sip.hash_parts(&[first_level, &addr.to_le_bytes()])
    }

    /// Convenience: both levels at once — the first-level MAC into
    /// `first` (as [`Self::first_level`]), returning the second level.
    #[must_use]
    pub fn both_levels(
        &self,
        addr: u64,
        major: u64,
        minor: u8,
        ciphertext: &[u8],
        first: &mut [u8],
    ) -> u64 {
        self.first_level(addr, major, minor, ciphertext, first);
        self.second_level(addr, first)
    }

    /// Hashes an arbitrary message (used by the Merkle tree for node
    /// hashes, which share the 40-cycle hash engine in the timing model).
    #[must_use]
    pub fn raw_hash(&self, msg: &[u8]) -> u64 {
        self.sip.hash(msg)
    }

    /// Hashes a word sequence; bit-identical to [`Self::raw_hash`] over
    /// the words' little-endian byte encoding (a word is exactly one
    /// SipHash block, so the final length byte agrees).
    #[must_use]
    pub fn raw_hash_words(&self, words: &[u64]) -> u64 {
        self.sip.hash_words(words)
    }

    /// Hashes fixed-width word rows through the multi-lane kernel into
    /// `out`, element-wise equal to [`Self::raw_hash_words`] on each row.
    ///
    /// # Panics
    ///
    /// Panics if `out` and `rows` differ in length.
    pub fn raw_hash_words_batch<const W: usize>(&self, rows: &[[u64; W]], out: &mut [u64]) {
        self.batch_runs.set(self.batch_runs.get() + 1);
        self.simd_rows
            .set(self.simd_rows.get() + self.sip.simd_rows_of(rows.len()));
        self.sip.hash_words_batch(rows, out);
    }

    /// Batched-kernel invocations so far (telemetry).
    #[must_use]
    pub fn batch_runs(&self) -> u64 {
        self.batch_runs.get()
    }

    /// Rows hashed by the vector batch kernel so far (telemetry); 0 on
    /// the scalar backend.
    #[must_use]
    pub fn simd_rows(&self) -> u64 {
        self.simd_rows.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> MacEngine {
        MacEngine::new(MacKey(*b"macmacmacmacmac!"))
    }

    impl MacEngine {
        /// The first-level MAC as a vector.
        fn first(&self, addr: u64, major: u64, minor: u8, ciphertext: &[u8]) -> Vec<u8> {
            let mut out = vec![0; Self::first_level_len(ciphertext.len())];
            self.first_level(addr, major, minor, ciphertext, &mut out);
            out
        }
    }

    #[test]
    fn first_level_sizes_match_paper() {
        let eng = engine();
        // 128 B block -> 16 B MAC; 256 B -> 32 B (Section IV-A).
        assert_eq!(eng.first(0, 0, 0, &[0u8; 128]).len(), 16);
        assert_eq!(eng.first(0, 0, 0, &[0u8; 256]).len(), 32);
        assert_eq!(eng.first(0, 0, 0, &[0u8; 64]).len(), 8);
        assert_eq!(MacEngine::first_level_len(128), 16);
        assert_eq!(MacEngine::first_level_len(256), 32);
    }

    #[test]
    fn deterministic() {
        let eng = engine();
        let ct = vec![9u8; 128];
        assert_eq!(eng.first(1, 2, 3, &ct), eng.first(1, 2, 3, &ct));
        let f = eng.first(1, 2, 3, &ct);
        assert_eq!(eng.second_level(1, &f), eng.second_level(1, &f));
    }

    #[test]
    fn binds_address_and_counter() {
        let eng = engine();
        let ct = vec![0u8; 64];
        let base = eng.first(0x100, 7, 1, &ct);
        assert_ne!(eng.first(0x140, 7, 1, &ct), base, "address must bind");
        assert_ne!(eng.first(0x100, 8, 1, &ct), base, "major must bind");
        assert_ne!(eng.first(0x100, 7, 2, &ct), base, "minor must bind");
    }

    #[test]
    fn detects_single_bit_tamper_anywhere() {
        let eng = engine();
        let ct: Vec<u8> = (0..128).map(|i| i as u8).collect();
        let good = eng.first(0x2000, 1, 1, &ct);
        for byte in [0usize, 63, 64, 127] {
            let mut bad = ct.clone();
            bad[byte] ^= 0x80;
            assert_ne!(eng.first(0x2000, 1, 1, &bad), good, "byte {byte}");
        }
    }

    #[test]
    fn chunk_swap_detected() {
        // Swapping two identical-looking 64 B chunks must change the MAC
        // because the chunk index is bound into each tag.
        let eng = engine();
        let mut ct = vec![0u8; 128];
        ct[..64].fill(0xAA);
        ct[64..].fill(0xBB);
        let good = eng.first(0, 0, 0, &ct);
        let mut swapped = ct[64..].to_vec();
        swapped.extend_from_slice(&ct[..64]);
        let bad = eng.first(0, 0, 0, &swapped);
        assert_ne!(good, bad);
        // And tag words are not merely permuted:
        assert_ne!(&good[..8], &bad[8..]);
    }

    #[test]
    fn second_level_binds_address_and_content() {
        let eng = engine();
        let f1 = vec![1u8; 16];
        let f2 = vec![2u8; 16];
        assert_ne!(eng.second_level(0, &f1), eng.second_level(0, &f2));
        assert_ne!(eng.second_level(0, &f1), eng.second_level(8, &f1));
    }

    #[test]
    fn both_levels_consistent() {
        let eng = engine();
        let ct = vec![0x42; 256];
        let mut f = [0u8; 32];
        let s = eng.both_levels(0x900, 3, 3, &ct, &mut f);
        assert_eq!(f[..], eng.first(0x900, 3, 3, &ct));
        assert_eq!(s, eng.second_level(0x900, &f));
    }

    #[test]
    #[should_panic(expected = "whole 64 B chunks")]
    fn unaligned_ciphertext_panics() {
        let _ = engine().first(0, 0, 0, &[0u8; 100]);
    }

    #[test]
    fn raw_hash_words_matches_byte_encoding() {
        let eng = engine();
        let rows: Vec<[u64; 4]> = (0..6).map(|r| [r, r * 3 + 1, r ^ 0x55, 7 - r]).collect();
        let mut batched = [0u64; 6];
        eng.raw_hash_words_batch(&rows, &mut batched);
        assert_eq!(eng.batch_runs(), 1);
        for (row, &tag) in rows.iter().zip(&batched) {
            assert_eq!(tag, eng.raw_hash_words(row));
            let bytes: Vec<u8> = row.iter().flat_map(|w| w.to_le_bytes()).collect();
            assert_eq!(tag, eng.raw_hash(&bytes));
        }
    }

    #[test]
    fn key_not_in_debug() {
        let k = MacKey([0x5A; 16]);
        assert_eq!(format!("{k:?}"), "MacKey(..)");
    }
}
