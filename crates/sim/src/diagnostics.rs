//! Structured crash/recovery diagnostics.
//!
//! The recovery auditor and the developer tooling both need the same
//! answer to "what exactly disagrees with the persisted state?", so the
//! findings are plain data — crash point, block address, expected/actual
//! digests — instead of `println!` side effects. Rendering is a `Display`
//! impl the binaries call when a human is looking.

use crate::crash::CrashPlan;

use std::fmt;

/// FNV-1a digest of raw bytes — a compact fingerprint for reports, so a
/// diagnostic can carry "expected vs. actual" without hauling block images.
#[must_use]
pub fn byte_digest(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.bytes(bytes);
    h.finish()
}

/// 64-bit FNV-1a accumulator over a canonical little-endian encoding: the
/// one hash behind every pinned digest ([`byte_digest`],
/// [`crate::SimReport::digest`], the headline matrix digest, the
/// instrumentation stream pins). Kept here so the digests' byte-level
/// definition is independent of any hash-map hasher the simulator uses.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Folds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a string, length-prefixed so `("ab","c")` and `("a","bc")`
    /// digest apart.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// Folds a `u64` as its little-endian bytes.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// A counter-block leaf whose persisted NVM image hashes differently from
/// the logical tree's current leaf value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeafMismatch {
    /// Leaf index in the integrity tree.
    pub leaf: u64,
    /// Byte address of the counter block backing the leaf.
    pub counter_block: u64,
    /// Leaf hash the logical tree holds.
    pub expected: u64,
    /// Leaf hash recomputed from the persisted image.
    pub actual: u64,
}

/// A data block whose persisted ciphertext fails first-level MAC
/// authentication against the persisted counter and MAC blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MacMismatch {
    /// Data-block index.
    pub block_index: u64,
    /// Byte address of the data block.
    pub addr: u64,
    /// [`byte_digest`] of the MAC recomputed from persisted state.
    pub expected: u64,
    /// [`byte_digest`] of the MAC slot actually persisted.
    pub actual: u64,
}

/// Everything a failed crash-recovery audit can point at.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrashDiagnostics {
    /// The injected crash point, when one was armed.
    pub crash_point: Option<CrashPlan>,
    /// Tree leaves disagreeing with the persisted counter region.
    pub leaf_mismatches: Vec<LeafMismatch>,
    /// Data blocks failing authentication.
    pub mac_mismatches: Vec<MacMismatch>,
}

impl CrashDiagnostics {
    /// `true` when nothing disagrees.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.leaf_mismatches.is_empty() && self.mac_mismatches.is_empty()
    }
}

impl fmt::Display for CrashDiagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.crash_point {
            Some(p) => writeln!(f, "crash point {}:", p.label())?,
            None => writeln!(f, "no injected crash point:")?,
        }
        writeln!(
            f,
            "  {} mismatched leaves, {} failed MACs",
            self.leaf_mismatches.len(),
            self.mac_mismatches.len()
        )?;
        for m in self.leaf_mismatches.iter().take(5) {
            writeln!(
                f,
                "  leaf {} cb={:#x}: expected {:#018x}, persisted {:#018x}",
                m.leaf, m.counter_block, m.expected, m.actual
            )?;
        }
        for m in self.mac_mismatches.iter().take(5) {
            writeln!(
                f,
                "  block {} addr={:#x}: MAC digest expected {:#018x}, persisted {:#018x}",
                m.block_index, m.addr, m.expected, m.actual
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crash::CrashSiteKind;

    #[test]
    fn digest_distinguishes_bytes() {
        assert_ne!(byte_digest(b"abc"), byte_digest(b"abd"));
        assert_eq!(byte_digest(b""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn display_mentions_the_crash_point() {
        let d = CrashDiagnostics {
            crash_point: Some(CrashPlan { site: CrashSiteKind::Persist, nth: 3 }),
            leaf_mismatches: vec![LeafMismatch {
                leaf: 1,
                counter_block: 0x400,
                expected: 1,
                actual: 2,
            }],
            mac_mismatches: Vec::new(),
        };
        assert!(!d.is_clean());
        let text = d.to_string();
        assert!(text.contains("persist:3"));
        assert!(text.contains("1 mismatched leaves"));
    }
}
