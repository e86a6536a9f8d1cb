//! The NVM device: sparse functional store + banked timing model.

use crate::category::WriteCategory;
use crate::wear::WearTracker;
use thoth_sim_engine::{Cycle, FastMap, CYCLES_PER_NS};

/// Device capacity in bytes (Table I: 32 GB).
pub const CAPACITY_BYTES: u64 = 32 << 30;
/// Independently timed banks.
pub const NUM_BANKS: usize = 16;
/// Read latency in nanoseconds (Table I: 150 ns).
pub const READ_NS: u64 = 150;
/// Write latency in nanoseconds (Table I: 500 ns).
pub const WRITE_NS: u64 = 500;
/// Read latency in core cycles.
pub const READ_CYCLES: u64 = READ_NS * CYCLES_PER_NS;
/// Write latency in core cycles.
pub const WRITE_CYCLES: u64 = WRITE_NS * CYCLES_PER_NS;

/// Block slots per image chunk of the store. Small enough that a
/// half-used chunk wastes little; large enough that the PUB prefill's
/// tens of thousands of blocks take a few hundred allocations. One
/// contiguous slab would avoid even those, but regrowing it copies the
/// store and leaves freed slabs behind that raise the allocator's
/// mmap threshold, which costs more peak memory than the store saves.
const CHUNK_BLOCKS: usize = 256;

/// The simulated NVM device.
///
/// # Example
///
/// ```
/// use thoth_nvm::{NvmDevice, WriteCategory};
/// use thoth_sim_engine::Cycle;
///
/// let mut nvm = NvmDevice::new(128);
/// nvm.write_block(0x1000, &[7u8; 128], WriteCategory::Data);
/// assert_eq!(nvm.read_block(0x1000)[0], 7);
/// assert_eq!(nvm.writes_in(WriteCategory::Data), 1);
///
/// // Timing: a write occupies its bank for 2000 cycles (500 ns @ 4 GHz).
/// let done = nvm.time_access(Cycle(0), 0x1000, true);
/// assert_eq!(done, Cycle(2000));
/// let done2 = nvm.time_access(Cycle(0), 0x1000, true); // same bank: serialized
/// assert_eq!(done2, Cycle(4000));
/// ```
#[derive(Debug, Clone)]
pub struct NvmDevice {
    /// Access granularity in bytes (64, 128 or 256).
    block_bytes: usize,
    /// Sparse block index: block-aligned address -> slot in [`Self::chunks`].
    blocks: FastMap<u64, u32>,
    /// Block images, [`CHUNK_BLOCKS`] slots per chunk. A block keeps its
    /// slot for the device's lifetime (rewrites copy in place), and a
    /// chunk is allocated once at full size and never reallocated.
    chunks: Vec<Box<[u8]>>,
    /// Per-bank earliest availability: the bank model's only timing state.
    bank_busy_until: Vec<Cycle>,
    wear: WearTracker,
    /// Functional writes per category, indexed by [`WriteCategory::index`]
    /// (a dense array so the per-write accounting is two adds, not a
    /// string-keyed map lookup).
    writes_by_cat: [u64; WriteCategory::ALL.len()],
    /// Timed reads issued through [`Self::time_access`].
    timed_reads: u64,
}

impl NvmDevice {
    /// Creates an empty (all-zero) device accessed in `block_bytes` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `block_bytes` is zero or not a power of two.
    #[must_use]
    pub fn new(block_bytes: usize) -> Self {
        assert!(block_bytes.is_power_of_two(), "block size must be a power of two");
        NvmDevice {
            block_bytes,
            blocks: FastMap::default(),
            chunks: Vec::new(),
            bank_busy_until: vec![Cycle::ZERO; NUM_BANKS],
            wear: WearTracker::new(),
            writes_by_cat: [0; WriteCategory::ALL.len()],
            timed_reads: 0,
        }
    }

    fn align(&self, addr: u64) -> u64 {
        addr - addr % self.block_bytes as u64
    }

    fn check_range(&self, addr: u64) {
        assert!(
            addr < CAPACITY_BYTES,
            "address {addr:#x} beyond NVM capacity {CAPACITY_BYTES:#x}"
        );
    }

    /// The bank servicing `addr` (low block-address bits).
    #[must_use]
    pub fn bank_of(&self, addr: u64) -> usize {
        ((self.align(addr) / self.block_bytes as u64) % NUM_BANKS as u64) as usize
    }

    // ---- functional interface -------------------------------------------

    /// Reads the block containing `addr`. Untouched blocks read as zeros.
    #[must_use]
    pub fn read_block(&self, addr: u64) -> Vec<u8> {
        self.block_image(addr)
            .map_or_else(|| vec![0; self.block_bytes], <[u8]>::to_vec)
    }

    /// Borrowing read of the block containing `addr`, or `None` for a
    /// never-written (all-zero) block. The allocation-free path for hot
    /// callers; [`Self::read_block`] stays for everyone who wants an owned
    /// image.
    #[must_use]
    pub fn block_image(&self, addr: u64) -> Option<&[u8]> {
        self.check_range(addr);
        let slot = *self.blocks.get(&self.align(addr))?;
        Some(self.slot(slot))
    }

    fn slot(&self, slot: u32) -> &[u8] {
        let bs = self.block_bytes;
        let at = slot as usize % CHUNK_BLOCKS * bs;
        &self.chunks[slot as usize / CHUNK_BLOCKS][at..at + bs]
    }

    /// The image of `block` (block-aligned) for writing, giving a
    /// never-written block a fresh all-zero slot.
    fn slot_mut(&mut self, block: u64) -> &mut [u8] {
        let bs = self.block_bytes;
        let next = self.blocks.len();
        let slot = *self.blocks.entry(block).or_insert_with(|| {
            u32::try_from(next).expect("NVM store holds at most 2^32 blocks")
        }) as usize;
        if slot / CHUNK_BLOCKS == self.chunks.len() {
            // Slots are handed out densely, so a new chunk is needed
            // exactly when the previous one is full.
            self.chunks.push(vec![0; CHUNK_BLOCKS * bs].into_boxed_slice());
        }
        let at = slot % CHUNK_BLOCKS * bs;
        &mut self.chunks[slot / CHUNK_BLOCKS][at..at + bs]
    }

    /// Writes one full block, tagged with a traffic category.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly one block, or `addr` is out of range.
    pub fn write_block(&mut self, addr: u64, data: &[u8], category: WriteCategory) {
        self.check_range(addr);
        assert_eq!(
            data.len(),
            self.block_bytes,
            "write must be one full block"
        );
        let block = self.align(addr);
        self.slot_mut(block).copy_from_slice(data);
        self.wear.record(block);
        self.writes_by_cat[category.index()] += 1;
    }

    /// Writes only the first `prefix_bytes` of a block — the torn-write
    /// fault model (see [`crate::fault`]): power failed after a prefix of
    /// 64 B units persisted. The rest of the block keeps its old contents
    /// (zeros if never written). A zero-length prefix still counts as a
    /// write attempt for accounting, but changes nothing.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not one full block, `prefix_bytes` exceeds the
    /// block or is not a multiple of [`crate::fault::TORN_WRITE_UNIT`],
    /// or `addr` is out of range.
    pub fn write_block_torn(
        &mut self,
        addr: u64,
        data: &[u8],
        prefix_bytes: usize,
        category: WriteCategory,
    ) {
        self.check_range(addr);
        assert_eq!(
            data.len(),
            self.block_bytes,
            "torn write must start from one full block"
        );
        assert!(
            prefix_bytes <= self.block_bytes,
            "torn prefix exceeds the block"
        );
        assert!(
            prefix_bytes.is_multiple_of(crate::fault::TORN_WRITE_UNIT),
            "torn prefix must be whole {} B units",
            crate::fault::TORN_WRITE_UNIT
        );
        let block = self.align(addr);
        self.slot_mut(block)[..prefix_bytes].copy_from_slice(&data[..prefix_bytes]);
        self.wear.record(block);
        self.writes_by_cat[category.index()] += 1;
    }

    /// Installs block contents with **no** wear or category accounting —
    /// the warm-up/prefill path. Callers use this only for state whose
    /// stats the next [`Self::reset_stats`] would discard anyway; measured
    /// traffic must go through [`Self::write_block`].
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly one block, or `addr` is out of range.
    pub fn install_block(&mut self, addr: u64, data: &[u8]) {
        self.check_range(addr);
        assert_eq!(
            data.len(),
            self.block_bytes,
            "install must be one full block"
        );
        let block = self.align(addr);
        self.slot_mut(block).copy_from_slice(data);
    }

    /// Pre-sizes the block index for `additional` more resident blocks
    /// (bulk-install paths like the PUB prefill).
    pub fn reserve_blocks(&mut self, additional: usize) {
        self.blocks.reserve(additional);
        let slots = self.blocks.len() + additional;
        self.chunks
            .reserve(slots.div_ceil(CHUNK_BLOCKS).saturating_sub(self.chunks.len()));
    }

    /// Records a write for accounting/wear without storing bytes.
    ///
    /// Fast timing-only simulations use this when functional contents are
    /// disabled; the write still counts toward categories and wear.
    pub fn note_write(&mut self, addr: u64, category: WriteCategory) {
        self.check_range(addr);
        let block = self.align(addr);
        self.wear.record(block);
        self.writes_by_cat[category.index()] += 1;
    }

    /// Reads `len` bytes starting at `addr` (may span blocks).
    #[must_use]
    pub fn read_bytes(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        let bs = self.block_bytes as u64;
        let mut cur = addr;
        while out.len() < len {
            let block = self.align(cur);
            let offset = (cur - block) as usize;
            let img = self.read_block(cur);
            let take = (len - out.len()).min(self.block_bytes - offset);
            out.extend_from_slice(&img[offset..offset + take]);
            cur = block + bs;
        }
        out
    }

    /// Corrupts one byte in place — used by tamper-detection tests. Does
    /// not count as a tracked write (an attacker bypasses the controller).
    pub fn tamper(&mut self, addr: u64, xor_mask: u8) {
        self.check_range(addr);
        let block = self.align(addr);
        let offset = (addr - block) as usize;
        self.slot_mut(block)[offset] ^= xor_mask;
    }

    /// Number of distinct blocks ever written.
    #[must_use]
    pub fn resident_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Addresses of all materialized blocks in `[lo, hi)`, sorted.
    /// Recovery uses this to enumerate the counter blocks to rebuild the
    /// integrity tree from.
    #[must_use]
    pub fn block_addrs_in(&self, lo: u64, hi: u64) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .blocks
            .keys()
            .copied()
            .filter(|&a| (lo..hi).contains(&a))
            .collect();
        out.sort_unstable();
        out
    }

    // ---- timing interface -----------------------------------------------

    /// Schedules an access beginning no earlier than `now`; returns its
    /// completion cycle and occupies the bank until then.
    pub fn time_access(&mut self, now: Cycle, addr: u64, is_write: bool) -> Cycle {
        self.check_range(addr);
        let bank = self.bank_of(addr);
        let latency = if is_write { WRITE_CYCLES } else { READ_CYCLES };
        let start = now.max(self.bank_busy_until[bank]);
        let done = start + latency;
        self.bank_busy_until[bank] = done;
        if !is_write {
            self.timed_reads += 1;
        }
        done
    }

    /// Number of banks still busy at `now` — the device-side queue-depth
    /// proxy that telemetry reads after every retired op.
    #[must_use]
    pub fn queue_depth(&self, now: Cycle) -> u64 {
        self.bank_busy_until
            .iter()
            .filter(|&&until| until > now)
            .count() as u64
    }

    /// Resets all bank timing (not the functional state). Used between the
    /// warm-up and measured phases of an experiment.
    pub fn reset_timing(&mut self) {
        self.bank_busy_until.fill(Cycle::ZERO);
    }

    // ---- statistics -------------------------------------------------------

    /// Count of functional writes in `category`.
    #[must_use]
    pub fn writes_in(&self, category: WriteCategory) -> u64 {
        self.writes_by_cat[category.index()]
    }

    /// Total functional writes across all categories.
    #[must_use]
    pub fn total_writes(&self) -> u64 {
        self.writes_by_cat.iter().sum()
    }

    /// Reads issued through the timing model.
    #[must_use]
    pub fn timed_reads(&self) -> u64 {
        self.timed_reads
    }

    /// The wear tracker (per-block write counts).
    #[must_use]
    pub fn wear(&self) -> &WearTracker {
        &self.wear
    }

    /// Zeroes all statistics and wear (keeps functional contents). Used at
    /// the end of warm-up so measured counts cover only the region of
    /// interest.
    pub fn reset_stats(&mut self) {
        self.writes_by_cat = [0; WriteCategory::ALL.len()];
        self.timed_reads = 0;
        self.wear = WearTracker::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> NvmDevice {
        NvmDevice::new(128)
    }

    #[test]
    fn table_i_latencies() {
        assert_eq!(READ_CYCLES, 600);
        assert_eq!(WRITE_CYCLES, 2000);
        assert_eq!(CAPACITY_BYTES, 32 << 30);
    }

    #[test]
    fn untouched_blocks_read_zero() {
        let d = dev();
        assert_eq!(d.read_block(0x4000), vec![0u8; 128]);
        assert_eq!(d.resident_blocks(), 0);
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut d = dev();
        let data: Vec<u8> = (0..128).map(|i| i as u8).collect();
        d.write_block(0x2000, &data, WriteCategory::Data);
        assert_eq!(d.read_block(0x2000), data);
        assert_eq!(d.read_block(0x2040), data, "same block via inner address");
    }

    #[test]
    fn read_bytes_spans_blocks() {
        let mut d = dev();
        d.write_block(0, &[0xAA; 128], WriteCategory::Data);
        d.write_block(128, &[0xBB; 128], WriteCategory::Data);
        let span = d.read_bytes(120, 16);
        assert_eq!(&span[..8], &[0xAA; 8]);
        assert_eq!(&span[8..], &[0xBB; 8]);
    }

    #[test]
    fn category_accounting() {
        let mut d = dev();
        d.write_block(0, &[0; 128], WriteCategory::Data);
        d.write_block(128, &[0; 128], WriteCategory::Data);
        d.write_block(256, &[0; 128], WriteCategory::MacBlock);
        d.write_block(384, &[0; 128], WriteCategory::PubBlock);
        assert_eq!(d.writes_in(WriteCategory::Data), 2);
        assert_eq!(d.writes_in(WriteCategory::MacBlock), 1);
        assert_eq!(d.writes_in(WriteCategory::PubBlock), 1);
        assert_eq!(d.writes_in(WriteCategory::CounterBlock), 0);
        assert_eq!(d.total_writes(), 4);
    }

    #[test]
    fn banks_serialize_same_bank_accesses() {
        let mut d = dev();
        let done1 = d.time_access(Cycle(0), 0, true);
        let done2 = d.time_access(Cycle(0), 0, true);
        assert_eq!(done1, Cycle(2000));
        assert_eq!(done2, Cycle(4000));
        // A later arrival starts when it arrives, not earlier.
        let done3 = d.time_access(Cycle(10_000), 0, false);
        assert_eq!(done3, Cycle(10_600));
    }

    #[test]
    fn different_banks_run_in_parallel() {
        let mut d = dev();
        // Consecutive blocks map to consecutive banks.
        let a = d.time_access(Cycle(0), 0, true);
        let b = d.time_access(Cycle(0), 128, true);
        assert_eq!(a, Cycle(2000));
        assert_eq!(b, Cycle(2000));
        assert_ne!(d.bank_of(0), d.bank_of(128));
    }

    #[test]
    fn bank_mapping_is_block_granular() {
        let d = dev();
        assert_eq!(d.bank_of(0), d.bank_of(127));
        assert_eq!(d.bank_of(0), d.bank_of(16 * 128)); // wraps at num_banks
    }

    #[test]
    fn torn_write_persists_prefix_only() {
        let mut d = dev();
        d.write_block(0, &[0x11; 128], WriteCategory::Data);
        d.write_block_torn(0, &[0x22; 128], 64, WriteCategory::Data);
        let img = d.read_block(0);
        assert_eq!(&img[..64], &[0x22; 64][..]);
        assert_eq!(&img[64..], &[0x11; 64][..], "tail keeps old contents");
        assert_eq!(d.writes_in(WriteCategory::Data), 2, "torn write still counted");
    }

    #[test]
    fn torn_write_with_zero_prefix_changes_nothing() {
        let mut d = dev();
        d.write_block(0, &[0x11; 128], WriteCategory::Data);
        d.write_block_torn(0, &[0x22; 128], 0, WriteCategory::Data);
        assert_eq!(d.read_block(0), vec![0x11; 128]);
    }

    #[test]
    fn torn_write_to_untouched_block_leaves_zero_tail() {
        let mut d = dev();
        d.write_block_torn(0x4000, &[0x33; 128], 64, WriteCategory::CounterBlock);
        let img = d.read_block(0x4000);
        assert_eq!(&img[..64], &[0x33; 64][..]);
        assert_eq!(&img[64..], &[0u8; 64][..]);
    }

    #[test]
    #[should_panic(expected = "whole 64 B units")]
    fn torn_write_rejects_unaligned_prefix() {
        let mut d = dev();
        d.write_block_torn(0, &[0; 128], 17, WriteCategory::Data);
    }

    #[test]
    fn tamper_flips_bits_without_counting() {
        let mut d = dev();
        d.write_block(0, &[0u8; 128], WriteCategory::Data);
        let before_writes = d.total_writes();
        d.tamper(5, 0xFF);
        assert_eq!(d.read_block(0)[5], 0xFF);
        assert_eq!(d.total_writes(), before_writes);
    }

    #[test]
    fn store_spans_chunks_and_clones_deep() {
        let mut d = dev();
        let n = 3 * CHUNK_BLOCKS as u64 + 5;
        // Interleave new blocks with rewrites of old ones: a block keeps
        // its slot, so rewrites never disturb a neighbour.
        for i in 0..n {
            d.write_block(i * 4096, &[i as u8; 128], WriteCategory::Data);
            d.write_block(i / 2 * 4096, &[(i / 2) as u8 ^ 0xFF; 128], WriteCategory::Data);
        }
        assert_eq!(d.resident_blocks(), n as usize);
        let copy = d.clone();
        d.write_block(0, &[0x5A; 128], WriteCategory::Data);
        for i in 0..n {
            let want = if i <= (n - 1) / 2 { i as u8 ^ 0xFF } else { i as u8 };
            assert_eq!(copy.block_image(i * 4096), Some(&[want; 128][..]), "block {i}");
        }
        assert_eq!(d.read_block(0), vec![0x5A; 128]);
        assert_eq!(d.block_image(n * 4096), None);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut d = dev();
        d.write_block(0, &[3u8; 128], WriteCategory::Data);
        d.reset_stats();
        assert_eq!(d.total_writes(), 0);
        assert_eq!(d.read_block(0)[0], 3);
    }

    #[test]
    fn reset_timing_clears_banks() {
        let mut d = dev();
        d.time_access(Cycle(0), 0, true);
        d.reset_timing();
        assert_eq!(d.queue_depth(Cycle(0)), 0);
    }

    #[test]
    #[should_panic(expected = "beyond NVM capacity")]
    fn out_of_range_panics() {
        let mut d = dev();
        d.write_block(32 << 30, &[0; 128], WriteCategory::Data);
    }

    #[test]
    #[should_panic(expected = "one full block")]
    fn partial_write_panics() {
        let mut d = dev();
        d.write_block(0, &[0; 64], WriteCategory::Data);
    }

    #[test]
    fn install_block_stores_without_accounting() {
        let mut d = dev();
        d.reserve_blocks(8);
        d.install_block(0x2000, &[9u8; 128]);
        assert_eq!(d.read_block(0x2000), vec![9u8; 128]);
        assert_eq!(d.total_writes(), 0, "no category accounting");
        assert_eq!(d.wear().blocks_touched(), 0, "no wear accounting");
        // Re-install reuses the residency (same as write_block).
        d.install_block(0x2000, &[7u8; 128]);
        assert_eq!(d.resident_blocks(), 1);
        assert_eq!(d.read_block(0x2000)[0], 7);
    }

    #[test]
    fn queue_depth_counts_busy_banks() {
        let mut d = dev();
        assert_eq!(d.queue_depth(Cycle(0)), 0);
        d.time_access(Cycle(0), 0, true); // bank 0 busy until 2000
        d.time_access(Cycle(400), 128, false); // bank 1 busy until 1000
        assert_eq!(d.queue_depth(Cycle(0)), 2);
        assert_eq!(d.queue_depth(Cycle(1000)), 1);
        assert_eq!(d.queue_depth(Cycle(2000)), 0);
        // Cores issue out of cycle order: an access stamped before the
        // previous one still waits for its busy bank, and the bank
        // counts as busy at that earlier cycle.
        assert_eq!(d.time_access(Cycle(100), 0, true), Cycle(4000));
        assert_eq!(d.queue_depth(Cycle(100)), 2);
    }
}
