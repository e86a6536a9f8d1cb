//! The Partial Updates Buffer: a circular FIFO region in NVM.
//!
//! Section IV-A: *"The buffer itself is managed as a FIFO circular buffer
//! where two counters are used, one to indicate the start and one to
//! indicate the end. A third register is used to indicate the base address
//! of the buffer."* The three registers live in the ADR persistence domain
//! (they survive a crash); the blocks live in a reserved NVM region
//! (64 MB by default — under 1% of a 32 GB module).
//!
//! This type manages *allocation and ordering only*. Writing the packed
//! block (through the WPQ) and processing evicted blocks (through the
//! WTSC/WTBC policy) are the caller's responsibility, keeping the FIFO
//! logic independently testable.

use crate::entry::PubBlockCodec;

/// Configuration of the PUB region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PubConfig {
    /// First byte of the reserved NVM region.
    pub base_addr: u64,
    /// Region size in bytes (64 MB in the paper).
    pub size_bytes: u64,
    /// Memory block size (128 or 256 B).
    pub block_bytes: usize,
    /// Occupied fraction (in percent) at which eviction begins — 80 in the
    /// paper's evaluation.
    pub evict_threshold_pct: u8,
}

impl PubConfig {
    /// The paper's configuration: 64 MB, eviction at 80% occupancy.
    #[must_use]
    pub fn paper_default(base_addr: u64, block_bytes: usize) -> Self {
        PubConfig {
            base_addr,
            size_bytes: 64 << 20,
            block_bytes,
            evict_threshold_pct: 80,
        }
    }
}

/// The circular FIFO partial-updates buffer.
///
/// # Example
///
/// ```
/// use thoth_core::{PubBuffer, PubConfig};
///
/// let mut pb = PubBuffer::new(PubConfig {
///     base_addr: 0x1000,
///     size_bytes: 4 * 128, // 4 blocks
///     block_bytes: 128,
///     evict_threshold_pct: 50,
/// });
/// assert_eq!(pb.capacity_blocks(), 4);
/// let a0 = pb.allocate_tail();
/// assert_eq!(a0, 0x1000);
/// let a1 = pb.allocate_tail();
/// assert_eq!(a1, 0x1080);
/// assert!(pb.needs_eviction()); // 2/4 = 50%
/// assert_eq!(pb.pop_oldest(), Some(0x1000));
/// ```
#[derive(Debug, Clone)]
pub struct PubBuffer {
    config: PubConfig,
    codec: PubBlockCodec,
    /// Index of the oldest valid block (the *start* register).
    head: u64,
    /// Number of valid blocks; the *end* register is `(head + len) % cap`.
    len: u64,
}

impl PubBuffer {
    /// Creates an empty PUB over the given region.
    ///
    /// # Panics
    ///
    /// Panics if the region holds no complete block or the threshold is
    /// not a percentage.
    #[must_use]
    pub fn new(config: PubConfig) -> Self {
        assert!(
            config.size_bytes >= config.block_bytes as u64,
            "PUB region smaller than one block"
        );
        assert!(
            config.evict_threshold_pct > 0 && config.evict_threshold_pct <= 100,
            "threshold must be 1..=100 percent"
        );
        PubBuffer {
            config,
            codec: PubBlockCodec::new(config.block_bytes),
            head: 0,
            len: 0,
        }
    }

    /// The region configuration.
    #[must_use]
    pub fn config(&self) -> PubConfig {
        self.config
    }

    /// The entry codec for this block size.
    #[must_use]
    pub fn codec(&self) -> PubBlockCodec {
        self.codec
    }

    /// Capacity in blocks.
    #[must_use]
    pub fn capacity_blocks(&self) -> u64 {
        self.config.size_bytes / self.config.block_bytes as u64
    }

    /// Capacity in partial-update entries.
    #[must_use]
    pub fn capacity_entries(&self) -> u64 {
        self.capacity_blocks() * self.codec.entries_per_block() as u64
    }

    /// Valid blocks currently buffered.
    #[must_use]
    pub fn len_blocks(&self) -> u64 {
        self.len
    }

    /// Whether no blocks are buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Occupancy as a fraction in `[0, 1]`.
    #[must_use]
    pub fn occupancy(&self) -> f64 {
        self.len as f64 / self.capacity_blocks() as f64
    }

    /// `true` once occupancy reached the eviction threshold.
    #[must_use]
    pub fn needs_eviction(&self) -> bool {
        self.len * 100 >= self.capacity_blocks() * u64::from(self.config.evict_threshold_pct)
    }

    fn addr_of(&self, index: u64) -> u64 {
        self.config.base_addr + (index % self.capacity_blocks()) * self.config.block_bytes as u64
    }

    /// Allocates the next tail slot, returning the NVM address the packed
    /// block must be written to. Advances the *end* register.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is completely full — callers must evict when
    /// [`Self::needs_eviction`] reports true, which (with a threshold
    /// below 100%) always happens well before this.
    pub fn allocate_tail(&mut self) -> u64 {
        let addr = self.peek_tail();
        self.commit_tail();
        addr
    }

    /// The NVM address the next packed block would be written to, without
    /// advancing the *end* register. Appends that must be crash-atomic
    /// write the block here first and call [`Self::commit_tail`] only once
    /// the write is in the persistence domain — a crash in between leaves
    /// the FIFO registers untouched, so the half-written slot is simply
    /// never scanned.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is completely full (see [`Self::allocate_tail`]).
    #[must_use]
    pub fn peek_tail(&self) -> u64 {
        assert!(
            self.len < self.capacity_blocks(),
            "PUB overflow: eviction did not keep up"
        );
        self.addr_of(self.head + self.len)
    }

    /// Advances the *end* register over the slot returned by
    /// [`Self::peek_tail`], making the block visible to eviction and the
    /// recovery scan.
    pub fn commit_tail(&mut self) {
        assert!(
            self.len < self.capacity_blocks(),
            "PUB overflow: eviction did not keep up"
        );
        self.len += 1;
    }

    /// The NVM address of the oldest block without consuming it. Eviction
    /// reads and fully processes the block through this, then calls
    /// [`Self::pop_oldest`] — so a crash mid-eviction leaves the *start*
    /// register pointing at the unprocessed block and recovery re-scans it
    /// (merging is idempotent).
    #[must_use]
    pub fn peek_oldest(&self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        Some(self.addr_of(self.head))
    }

    /// Pops the oldest block, returning its NVM address for the caller to
    /// read and process. Advances the *start* register.
    pub fn pop_oldest(&mut self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let addr = self.addr_of(self.head);
        self.head = (self.head + 1) % self.capacity_blocks();
        self.len -= 1;
        Some(addr)
    }

    /// Addresses of all valid blocks, oldest to youngest — the recovery
    /// scan order of Section IV-D. Does not consume the buffer.
    #[must_use]
    pub fn scan_oldest_to_youngest(&self) -> Vec<u64> {
        (0..self.len).map(|i| self.addr_of(self.head + i)).collect()
    }

    /// Empties the buffer (after recovery has merged all entries).
    pub fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(blocks: u64, threshold: u8) -> PubBuffer {
        PubBuffer::new(PubConfig {
            base_addr: 0x10_000,
            size_bytes: blocks * 128,
            block_bytes: 128,
            evict_threshold_pct: threshold,
        })
    }

    #[test]
    fn paper_default_geometry() {
        let pb = PubBuffer::new(PubConfig::paper_default(0, 128));
        assert_eq!(pb.capacity_blocks(), (64 << 20) / 128);
        assert_eq!(pb.capacity_entries(), (64 << 20) / 128 * 9);
        assert_eq!(pb.config().evict_threshold_pct, 80);
    }

    #[test]
    fn fifo_order_and_wraparound() {
        let mut pb = small(4, 100);
        let a: Vec<u64> = (0..4).map(|_| pb.allocate_tail()).collect();
        assert_eq!(a, vec![0x10_000, 0x10_080, 0x10_100, 0x10_180]);
        assert_eq!(pb.pop_oldest(), Some(0x10_000));
        assert_eq!(pb.pop_oldest(), Some(0x10_080));
        // Two free slots; new allocations wrap to the start of the region.
        assert_eq!(pb.allocate_tail(), 0x10_000);
        assert_eq!(pb.pop_oldest(), Some(0x10_100));
        assert_eq!(pb.pop_oldest(), Some(0x10_180));
        assert_eq!(pb.pop_oldest(), Some(0x10_000));
        assert_eq!(pb.pop_oldest(), None);
    }

    #[test]
    fn eviction_threshold() {
        let mut pb = small(10, 80);
        for _ in 0..7 {
            pb.allocate_tail();
        }
        assert!(!pb.needs_eviction());
        pb.allocate_tail();
        assert!(pb.needs_eviction());
        assert!((pb.occupancy() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn scan_order_is_oldest_first_across_wrap() {
        let mut pb = small(4, 100);
        for _ in 0..4 {
            pb.allocate_tail();
        }
        pb.pop_oldest();
        pb.pop_oldest();
        pb.allocate_tail(); // wraps to slot 0
        assert_eq!(
            pb.scan_oldest_to_youngest(),
            vec![0x10_100, 0x10_180, 0x10_000]
        );
    }

    #[test]
    fn clear_resets() {
        let mut pb = small(4, 100);
        pb.allocate_tail();
        pb.clear();
        assert!(pb.is_empty());
        assert_eq!(pb.scan_oldest_to_youngest(), Vec::<u64>::new());
    }

    #[test]
    #[should_panic(expected = "PUB overflow")]
    fn overflow_panics() {
        let mut pb = small(2, 100);
        pb.allocate_tail();
        pb.allocate_tail();
        pb.allocate_tail();
    }

    #[test]
    fn peek_then_commit_matches_allocate() {
        let mut pb = small(4, 100);
        let peeked = pb.peek_tail();
        assert_eq!(pb.len_blocks(), 0, "peek does not advance the end register");
        assert_eq!(pb.peek_tail(), peeked, "peek is idempotent");
        pb.commit_tail();
        assert_eq!(pb.len_blocks(), 1);
        assert_eq!(pb.scan_oldest_to_youngest(), vec![peeked]);
        assert_eq!(pb.allocate_tail(), 0x10_080, "next slot follows");
    }

    #[test]
    fn peek_oldest_does_not_consume() {
        let mut pb = small(4, 100);
        assert_eq!(pb.peek_oldest(), None);
        pb.allocate_tail();
        pb.allocate_tail();
        assert_eq!(pb.peek_oldest(), Some(0x10_000));
        assert_eq!(pb.peek_oldest(), Some(0x10_000), "peek is idempotent");
        assert_eq!(pb.len_blocks(), 2);
        assert_eq!(pb.pop_oldest(), Some(0x10_000));
        assert_eq!(pb.peek_oldest(), Some(0x10_080));
    }

    #[test]
    fn codec_matches_block_size() {
        let pb = small(4, 100);
        assert_eq!(pb.codec().entries_per_block(), 9);
    }
}
