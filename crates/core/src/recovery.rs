//! Recovery-time model (Section IV-D).
//!
//! After a crash, recovery (1) lets ADR flush the WPQ/PCB, (2) scans the
//! PUB oldest-to-youngest, merging each entry's counter and MAC into the
//! metadata blocks, (3) re-verifies each affected ciphertext through two
//! MAC levels, and (4) rebuilds and verifies the integrity tree over the
//! inconsistent parts (via Anubis' shadow tracking). The *functional*
//! recovery is implemented in `thoth-sim`; this module provides the
//! paper's cost model — footnote 5 prices step (2)+(3), which dominates,
//! and arrives at ≈7 s for a full 64 MB PUB.

use thoth_crypto::HASH_CYCLES;
use thoth_nvm::{READ_NS, WRITE_NS};
use thoth_sim_engine::CYCLES_PER_NS;

/// Estimated nanoseconds to process one PUB *entry*: read its MAC block,
/// ciphertext and counter block (3 reads), compute two MAC levels, and
/// write back the updated counter and MAC blocks (2 writes). Matches
/// footnote 5's recipe.
#[must_use]
pub fn per_entry_ns() -> u64 {
    let hash_ns = 2 * HASH_CYCLES / CYCLES_PER_NS;
    3 * READ_NS + 2 * WRITE_NS + hash_ns
}

/// Estimated nanoseconds to recover a PUB of `blocks` packed blocks with
/// `entries_per_block` entries each: one read per PUB block plus the
/// per-entry work.
#[must_use]
pub fn pub_recovery_ns(blocks: u64, entries_per_block: u64) -> u64 {
    blocks * READ_NS + blocks * entries_per_block * per_entry_ns()
}

/// The same, in seconds.
#[must_use]
pub fn pub_recovery_secs(blocks: u64, entries_per_block: u64) -> f64 {
    pub_recovery_ns(blocks, entries_per_block) as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_entry_cost_matches_footnote_recipe() {
        // 3*150 + 2*500 + 2*40cy@4GHz(=20ns) = 450 + 1000 + 20 = 1470 ns.
        assert_eq!(per_entry_ns(), 1470);
    }

    #[test]
    fn full_64mb_pub_is_roughly_seven_seconds() {
        // 64 MB / 128 B = 524 288 blocks x 9 entries.
        let secs = pub_recovery_secs((64 << 20) / 128, 9);
        assert!(
            (5.0..10.0).contains(&secs),
            "expected ≈7 s (paper, Section IV-D), got {secs:.2} s"
        );
    }

    #[test]
    fn scales_linearly_with_blocks() {
        let one = pub_recovery_ns(1000, 9);
        let two = pub_recovery_ns(2000, 9);
        assert_eq!(two, 2 * one);
    }

    #[test]
    fn empty_pub_recovers_instantly() {
        assert_eq!(pub_recovery_ns(0, 9), 0);
    }

    #[test]
    fn larger_blocks_amortize_the_block_read() {
        // Same number of entries, packed into fewer 256 B blocks.
        let entries = 19u64 * 9 * 100;
        let ns_128 = pub_recovery_ns(entries / 9, 9);
        let ns_256 = pub_recovery_ns(entries / 19, 19);
        assert!(ns_256 < ns_128);
    }
}
