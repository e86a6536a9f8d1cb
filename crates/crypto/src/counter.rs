//! Split encryption counters (Yan et al. \[11\], as used in Section II-A).
//!
//! A *counter group* covers one 4 KB page: a 64-bit **major** counter shared
//! by every block in the page plus a 7-bit **minor** counter per block. The
//! per-block encryption counter used in the IV is the pair (major, minor).
//! When a minor counter overflows, the major counter is incremented and all
//! minors reset, which forces a page re-encryption (every block's effective
//! counter changed).
//!
//! Counter groups are bit-packed into *counter blocks* of the memory access
//! granularity (64/128/256 B). Only whole groups are stored per block, as in
//! the classic split-counter layout where a 64 B block holds 64 minors and
//! one major.
//!
//! The simulator keeps counter blocks as their packed images and works on
//! them in place through [`CounterBlock`] (read, increment, set a minor),
//! so a counter update never unpacks or repacks a block. [`CounterGroup`]
//! with [`CounterBlock::pack`]/[`CounterBlock::unpack`] is the unpacked
//! model those in-place operations are tested against.

/// Width of a minor counter in bits.
pub const MINOR_COUNTER_BITS: u32 = 7;

/// Largest value a minor counter can hold before overflowing.
pub const MINOR_COUNTER_MAX: u8 = (1 << MINOR_COUNTER_BITS) - 1;

/// Outcome of incrementing a block's counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncrementOutcome {
    /// The minor counter was incremented; only this block's counter changed.
    Minor,
    /// The minor counter overflowed: the major was incremented and every
    /// minor in the group reset to zero. The whole page must be
    /// re-encrypted and its counter block persisted immediately (the paper
    /// persists the counter block eagerly on major-counter change).
    MajorOverflow,
}

/// A split-counter group: one major counter plus one minor per data block
/// of the covered page.
///
/// # Example
///
/// ```
/// use thoth_crypto::{CounterGroup, MINOR_COUNTER_MAX};
/// use thoth_crypto::counter::IncrementOutcome;
///
/// let mut g = CounterGroup::new(32); // 4 KB page of 128 B blocks
/// assert_eq!(g.value_of(3), (0, 0));
/// assert_eq!(g.increment(3), IncrementOutcome::Minor);
/// assert_eq!(g.value_of(3), (0, 1));
///
/// for _ in 0..MINOR_COUNTER_MAX as u32 - 1 {
///     g.increment(3);
/// }
/// assert_eq!(g.value_of(3), (0, 127));
/// assert_eq!(g.increment(3), IncrementOutcome::MajorOverflow);
/// assert_eq!(g.value_of(3), (1, 0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterGroup {
    major: u64,
    minors: Vec<u8>,
}

impl CounterGroup {
    /// Creates a zeroed group covering `blocks_per_page` data blocks.
    ///
    /// # Panics
    ///
    /// Panics if `blocks_per_page` is zero.
    #[must_use]
    pub fn new(blocks_per_page: usize) -> Self {
        assert!(blocks_per_page > 0, "a counter group must cover at least one block");
        CounterGroup {
            major: 0,
            minors: vec![0; blocks_per_page],
        }
    }

    /// Number of blocks this group covers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.minors.len()
    }

    /// Returns `true` if the group covers no blocks (never constructible).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.minors.is_empty()
    }

    /// The shared major counter.
    #[must_use]
    pub fn major(&self) -> u64 {
        self.major
    }

    /// The (major, minor) counter pair of block `idx` within the page.
    #[must_use]
    pub fn value_of(&self, idx: usize) -> (u64, u8) {
        (self.major, self.minors[idx])
    }

    /// Increments the counter of block `idx`, handling minor overflow.
    pub fn increment(&mut self, idx: usize) -> IncrementOutcome {
        if self.minors[idx] == MINOR_COUNTER_MAX {
            self.major = self
                .major
                .checked_add(1)
                .expect("64-bit major counter overflow: cryptographically unreachable");
            self.minors.iter_mut().for_each(|m| *m = 0);
            IncrementOutcome::MajorOverflow
        } else {
            self.minors[idx] += 1;
            IncrementOutcome::Minor
        }
    }

    /// Overwrites the minor counter of block `idx` — used by crash
    /// recovery when merging a verified PUB entry into a counter block.
    /// Normal operation must use [`Self::increment`].
    pub fn set_minor(&mut self, idx: usize, minor: u8) {
        assert!(minor <= MINOR_COUNTER_MAX, "minor {minor} exceeds 7 bits");
        self.minors[idx] = minor;
    }

    /// Size of this group bit-packed, in bits.
    #[must_use]
    pub fn packed_bits(&self) -> usize {
        64 + self.minors.len() * MINOR_COUNTER_BITS as usize
    }

    /// Bit-packs the group: major (LE, 64 bits) then 7-bit minors in index
    /// order, LSB-first within the byte stream.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.packed_bits().div_ceil(8)];
        self.write_into(&mut out);
        out
    }

    /// Allocation-free [`Self::to_bytes`]: packs into the front of `out`,
    /// byte-identical (the packed region is zeroed first so padding bits
    /// match the freshly-allocated path).
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than the packed size.
    pub fn write_into(&self, out: &mut [u8]) {
        let need = self.packed_bits().div_ceil(8);
        assert!(out.len() >= need, "counter group needs {need} bytes, got {}", out.len());
        out[..need].fill(0);
        out[..8].copy_from_slice(&self.major.to_le_bytes());
        // 8 minors are 56 bits — exactly 7 bytes — so every chunk of 8
        // lands byte-aligned: one u64 compose and a 7-byte copy replace
        // 56 single-bit writes (counter packs run on every counter-block
        // persist).
        let mut byte = 8usize;
        let mut chunks = self.minors.chunks_exact(8);
        for chunk in &mut chunks {
            let mut packed = 0u64;
            for (i, &m) in chunk.iter().enumerate() {
                packed |= u64::from(m) << (7 * i);
            }
            out[byte..byte + 7].copy_from_slice(&packed.to_le_bytes()[..7]);
            byte += 7;
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut packed = 0u64;
            for (i, &m) in rem.iter().enumerate() {
                packed |= u64::from(m) << (7 * i);
            }
            let n = (7 * rem.len()).div_ceil(8);
            out[byte..byte + n].copy_from_slice(&packed.to_le_bytes()[..n]);
        }
    }

    /// Reverses [`Self::to_bytes`].
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is shorter than the packed size for
    /// `blocks_per_page` minors.
    #[must_use]
    pub fn from_bytes(bytes: &[u8], blocks_per_page: usize) -> Self {
        let need = (64 + blocks_per_page * MINOR_COUNTER_BITS as usize).div_ceil(8);
        assert!(bytes.len() >= need, "counter group truncated: {} < {need}", bytes.len());
        let major = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"));
        let mut minors = Vec::with_capacity(blocks_per_page);
        // Mirror of `write_into`: each 8-minor chunk is 7 byte-aligned
        // bytes; load them as one u64 and peel 7-bit fields.
        let mut byte = 8usize;
        let mut left = blocks_per_page;
        while left > 0 {
            let take = left.min(8);
            let n = (7 * take).div_ceil(8);
            let mut w = [0u8; 8];
            w[..n].copy_from_slice(&bytes[byte..byte + n]);
            let packed = u64::from_le_bytes(w);
            minors.extend((0..take).map(|i| ((packed >> (7 * i)) & 0x7f) as u8));
            byte += 7;
            left -= take;
        }
        CounterGroup { major, minors }
    }
}

/// Writes `nbits` low bits of `value` at bit offset `bitpos` (LSB-first).
/// Bit-at-a-time reference: the pack/unpack hot paths use byte-aligned
/// u64 chunks instead, and the differential tests hold them to this.
#[cfg(test)]
fn write_bits(buf: &mut [u8], bitpos: usize, value: u64, nbits: usize) {
    for i in 0..nbits {
        let bit = (value >> i) & 1;
        let pos = bitpos + i;
        if bit != 0 {
            buf[pos / 8] |= 1 << (pos % 8);
        } else {
            buf[pos / 8] &= !(1 << (pos % 8));
        }
    }
}

/// Reads `nbits` bits at offset `bitpos` (LSB-first; inverse of
/// [`write_bits`], test oracle only).
#[cfg(test)]
fn read_bits(buf: &[u8], bitpos: usize, nbits: usize) -> u64 {
    let mut v = 0u64;
    for i in 0..nbits {
        let pos = bitpos + i;
        if buf[pos / 8] & (1 << (pos % 8)) != 0 {
            v |= 1 << i;
        }
    }
    v
}

/// Geometry of counter blocks: how split-counter groups map onto memory
/// blocks of the configured access granularity.
///
/// # Example
///
/// ```
/// use thoth_crypto::counter::IncrementOutcome;
/// use thoth_crypto::CounterBlock;
///
/// // 128 B blocks, 4 KB pages -> 32 blocks per page, 298-bit groups,
/// // 3 groups per 128 B counter block.
/// let geo = CounterBlock::geometry(128, 4096);
/// assert_eq!(geo.blocks_per_page, 32);
/// assert_eq!(geo.groups_per_block, 3);
/// assert_eq!(geo.data_blocks_per_counter_block(), 96);
///
/// // Counters update in place on the packed image.
/// let mut image = vec![0u8; 128];
/// assert_eq!(geo.increment(&mut image, 2, 31), IncrementOutcome::Minor);
/// assert_eq!(geo.value_of(&image, 2, 31), (0, 1));
/// geo.set_minor(&mut image, 2, 31, 127);
/// assert_eq!(geo.increment(&mut image, 2, 31), IncrementOutcome::MajorOverflow);
/// assert_eq!(geo.value_of(&image, 2, 31), (1, 0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterBlock {
    /// Memory access granularity in bytes (64, 128 or 256 in the paper).
    pub block_bytes: usize,
    /// Page size covered by one counter group (4096 in the paper).
    pub page_bytes: usize,
    /// Data blocks per page = `page_bytes / block_bytes`.
    pub blocks_per_page: usize,
    /// Whole counter groups that fit in one counter block.
    pub groups_per_block: usize,
}

impl CounterBlock {
    /// Computes the packing geometry for the given block and page sizes.
    ///
    /// # Panics
    ///
    /// Panics if sizes are zero, the page is not a multiple of the block
    /// size, or a single group does not fit in one block.
    #[must_use]
    pub fn geometry(block_bytes: usize, page_bytes: usize) -> Self {
        assert!(block_bytes > 0 && page_bytes > 0);
        assert_eq!(
            page_bytes % block_bytes,
            0,
            "page size must be a multiple of block size"
        );
        let blocks_per_page = page_bytes / block_bytes;
        let group_bits = 64 + blocks_per_page * MINOR_COUNTER_BITS as usize;
        let groups_per_block = (block_bytes * 8) / group_bits;
        assert!(
            groups_per_block >= 1,
            "one counter group ({group_bits}b) must fit in a {block_bytes}B block"
        );
        CounterBlock {
            block_bytes,
            page_bytes,
            blocks_per_page,
            groups_per_block,
        }
    }

    /// Number of data blocks whose counters live in one counter block.
    #[must_use]
    pub fn data_blocks_per_counter_block(&self) -> usize {
        self.groups_per_block * self.blocks_per_page
    }

    /// Bytes one packed group occupies.
    fn group_bytes(&self) -> usize {
        (64 + self.blocks_per_page * MINOR_COUNTER_BITS as usize).div_ceil(8)
    }

    /// `(byte, bit shift)` of the minor of block `slot` in group `group`.
    fn minor_at(&self, group: usize, slot: usize) -> (usize, u32) {
        assert!(
            group < self.groups_per_block && slot < self.blocks_per_page,
            "counter ({group}, {slot}) outside the block"
        );
        let bit = (group * self.group_bytes() + 8) * 8 + slot * MINOR_COUNTER_BITS as usize;
        (bit / 8, (bit % 8) as u32)
    }

    /// The major counter of group `group`, read from a packed image.
    #[must_use]
    pub fn major(&self, image: &[u8], group: usize) -> u64 {
        let at = group * self.group_bytes();
        u64::from_le_bytes(image[at..at + 8].try_into().expect("8 bytes"))
    }

    /// The minor counter of block `slot` in group `group`, read from a
    /// packed image.
    #[must_use]
    pub fn minor(&self, image: &[u8], group: usize, slot: usize) -> u8 {
        let (byte, shift) = self.minor_at(group, slot);
        // A 7-bit field spills into the next byte only past shift 1.
        let mut window = u16::from(image[byte]);
        if shift > 1 {
            window |= u16::from(image[byte + 1]) << 8;
        }
        (window >> shift) as u8 & MINOR_COUNTER_MAX
    }

    /// The (major, minor) counter pair of block `slot` in group `group` —
    /// [`CounterGroup::value_of`] on a packed image.
    #[must_use]
    pub fn value_of(&self, image: &[u8], group: usize, slot: usize) -> (u64, u8) {
        (self.major(image, group), self.minor(image, group, slot))
    }

    /// Overwrites one minor counter in a packed image —
    /// [`CounterGroup::set_minor`] in place. Every other bit is kept.
    ///
    /// # Panics
    ///
    /// Panics if `minor` exceeds 7 bits.
    pub fn set_minor(&self, image: &mut [u8], group: usize, slot: usize, minor: u8) {
        assert!(minor <= MINOR_COUNTER_MAX, "minor {minor} exceeds 7 bits");
        let (byte, shift) = self.minor_at(group, slot);
        let mask = u16::from(MINOR_COUNTER_MAX) << shift;
        let value = u16::from(minor) << shift;
        image[byte] = image[byte] & !(mask as u8) | value as u8;
        if shift > 1 {
            image[byte + 1] = image[byte + 1] & !((mask >> 8) as u8) | (value >> 8) as u8;
        }
    }

    /// Increments the counter of block `slot` in group `group` of a packed
    /// image, handling minor overflow — [`CounterGroup::increment`] in
    /// place: on overflow the group's major counter increments and all of
    /// its minors reset.
    pub fn increment(&self, image: &mut [u8], group: usize, slot: usize) -> IncrementOutcome {
        let minor = self.minor(image, group, slot);
        if minor < MINOR_COUNTER_MAX {
            self.set_minor(image, group, slot, minor + 1);
            return IncrementOutcome::Minor;
        }
        let major = self
            .major(image, group)
            .checked_add(1)
            .expect("64-bit major counter overflow: cryptographically unreachable");
        let at = group * self.group_bytes();
        image[at..at + 8].copy_from_slice(&major.to_le_bytes());
        // The minors are one byte-aligned bit run after the major.
        let bits = self.blocks_per_page * MINOR_COUNTER_BITS as usize;
        image[at + 8..at + 8 + bits / 8].fill(0);
        if !bits.is_multiple_of(8) {
            image[at + 8 + bits / 8] &= !((1u8 << (bits % 8)) - 1);
        }
        IncrementOutcome::MajorOverflow
    }

    /// Clears every bit of a counter-block image that holds no counter
    /// (the padding after each group's minors and after the last group),
    /// making it byte-identical to `pack(&unpack(image))`. Images the
    /// in-place operations start from are normalized, so they stay
    /// byte-identical to what packing the unpacked groups would produce.
    ///
    /// # Panics
    ///
    /// Panics if `image` is shorter than one block.
    pub fn normalize(&self, image: &mut [u8]) {
        let gb = self.group_bytes();
        let bits = self.blocks_per_page * MINOR_COUNTER_BITS as usize;
        if !bits.is_multiple_of(8) {
            for g in 0..self.groups_per_block {
                image[g * gb + 8 + bits / 8] &= (1u8 << (bits % 8)) - 1;
            }
        }
        image[self.groups_per_block * gb..self.block_bytes].fill(0);
    }

    /// Packs `groups` into one counter block image of `block_bytes` bytes.
    ///
    /// # Panics
    ///
    /// Panics if the number of groups differs from the geometry.
    #[must_use]
    pub fn pack(&self, groups: &[CounterGroup]) -> Vec<u8> {
        let mut out = vec![0u8; self.block_bytes];
        self.pack_into(groups, &mut out);
        out
    }

    /// Allocation-free [`Self::pack`]: packs into the front of `out`,
    /// byte-identical (the block region is zeroed first).
    ///
    /// # Panics
    ///
    /// Panics if the group count differs from the geometry or `out` is
    /// shorter than one block.
    pub fn pack_into(&self, groups: &[CounterGroup], out: &mut [u8]) {
        assert_eq!(groups.len(), self.groups_per_block);
        assert!(out.len() >= self.block_bytes);
        let group_bytes = (64 + self.blocks_per_page * MINOR_COUNTER_BITS as usize).div_ceil(8);
        out[..self.block_bytes].fill(0);
        for (i, g) in groups.iter().enumerate() {
            assert_eq!(g.len(), self.blocks_per_page);
            g.write_into(&mut out[i * group_bytes..(i + 1) * group_bytes]);
        }
    }

    /// Reverses [`Self::pack`].
    #[must_use]
    pub fn unpack(&self, block: &[u8]) -> Vec<CounterGroup> {
        assert!(block.len() >= self.block_bytes);
        let group_bytes = (64 + self.blocks_per_page * MINOR_COUNTER_BITS as usize).div_ceil(8);
        (0..self.groups_per_block)
            .map(|i| CounterGroup::from_bytes(&block[i * group_bytes..], self.blocks_per_page))
            .collect()
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_types, reason = "a std set checks uniqueness")]
mod tests {
    use super::*;

    #[test]
    fn increments_and_overflow() {
        let mut g = CounterGroup::new(4);
        for i in 0..MINOR_COUNTER_MAX as usize {
            assert_eq!(g.increment(0), IncrementOutcome::Minor, "step {i}");
        }
        assert_eq!(g.value_of(0), (0, MINOR_COUNTER_MAX));
        g.increment(1); // another block's minor
        assert_eq!(g.value_of(1), (0, 1));
        // Overflow resets ALL minors and bumps the major.
        assert_eq!(g.increment(0), IncrementOutcome::MajorOverflow);
        assert_eq!(g.value_of(0), (1, 0));
        assert_eq!(g.value_of(1), (1, 0));
    }

    #[test]
    fn counter_pairs_never_repeat_across_overflow() {
        // The (major, minor) pair seen by a block must be strictly fresh.
        let mut g = CounterGroup::new(2);
        let mut seen = std::collections::HashSet::new();
        assert!(seen.insert(g.value_of(0)));
        for _ in 0..400 {
            g.increment(0);
            assert!(seen.insert(g.value_of(0)), "counter pair repeated");
        }
    }

    #[test]
    fn pack_roundtrip_single_group() {
        let mut g = CounterGroup::new(64);
        g.increment(0);
        g.increment(63);
        g.increment(63);
        let bytes = g.to_bytes();
        let g2 = CounterGroup::from_bytes(&bytes, 64);
        assert_eq!(g, g2);
    }

    #[test]
    fn packed_size_matches_classic_layout() {
        // Classic: 64 B block = 64 minors of 7b + 64b major = 512 bits.
        let g = CounterGroup::new(64);
        assert_eq!(g.packed_bits(), 512);
        let geo = CounterBlock::geometry(64, 4096);
        assert_eq!(geo.blocks_per_page, 64);
        assert_eq!(geo.groups_per_block, 1);
        assert_eq!(geo.data_blocks_per_counter_block(), 64);
    }

    #[test]
    fn geometry_for_paper_block_sizes() {
        // 128 B blocks: page has 32 blocks, group = 64 + 224 = 288 bits,
        // 1024 / 288 -> 3 groups per counter block.
        let geo128 = CounterBlock::geometry(128, 4096);
        assert_eq!(geo128.groups_per_block, 3);
        assert_eq!(geo128.data_blocks_per_counter_block(), 96);
        // 256 B blocks: 16 blocks/page, group = 64 + 112 = 176 bits,
        // 2048 / 176 -> 11 groups.
        let geo256 = CounterBlock::geometry(256, 4096);
        assert_eq!(geo256.groups_per_block, 11);
        assert_eq!(geo256.data_blocks_per_counter_block(), 176);
    }

    #[test]
    fn block_pack_roundtrip() {
        let geo = CounterBlock::geometry(128, 4096);
        let mut groups: Vec<CounterGroup> = (0..geo.groups_per_block)
            .map(|_| CounterGroup::new(geo.blocks_per_page))
            .collect();
        groups[0].increment(5);
        groups[1].increment(0);
        for _ in 0..200 {
            groups[2].increment(31);
        }
        let img = geo.pack(&groups);
        assert_eq!(img.len(), 128);
        let back = geo.unpack(&img);
        assert_eq!(back, groups);
    }

    #[test]
    fn pack_into_matches_pack_even_on_dirty_buffers() {
        let geo = CounterBlock::geometry(256, 4096);
        let mut groups: Vec<CounterGroup> = (0..geo.groups_per_block)
            .map(|_| CounterGroup::new(geo.blocks_per_page))
            .collect();
        for (i, g) in groups.iter_mut().enumerate() {
            for _ in 0..=i * 13 {
                g.increment(i % 16);
            }
        }
        let fresh = geo.pack(&groups);
        let mut dirty = vec![0xFFu8; 256];
        geo.pack_into(&groups, &mut dirty);
        assert_eq!(dirty, fresh);
    }

    /// The chunked pack/unpack must stay byte-identical to the original
    /// bit-at-a-time packing for every group width, ragged tails
    /// included.
    #[test]
    fn chunked_pack_matches_bitwise_reference() {
        for width in 1..=70usize {
            let mut g = CounterGroup::new(width);
            g.major = 0x0123_4567_89ab_cdef;
            for (i, m) in (0..width).zip([3u8, 127, 0, 64, 99, 1, 77, 50].iter().cycle()) {
                g.set_minor(i, *m);
            }
            let fast = g.to_bytes();
            let mut reference = vec![0u8; g.packed_bits().div_ceil(8)];
            reference[..8].copy_from_slice(&g.major.to_le_bytes());
            let mut bitpos = 64usize;
            for i in 0..width {
                write_bits(
                    &mut reference,
                    bitpos,
                    u64::from(g.minors[i]),
                    MINOR_COUNTER_BITS as usize,
                );
                bitpos += MINOR_COUNTER_BITS as usize;
            }
            assert_eq!(fast, reference, "width {width}");
            assert_eq!(CounterGroup::from_bytes(&fast, width), g, "width {width}");
        }
    }

    #[test]
    fn bit_packing_helpers() {
        let mut buf = vec![0u8; 4];
        write_bits(&mut buf, 3, 0b1011011, 7);
        assert_eq!(read_bits(&buf, 3, 7), 0b1011011);
        write_bits(&mut buf, 10, 0x3f, 6);
        assert_eq!(read_bits(&buf, 10, 6), 0x3f);
        // First value must be unaffected.
        assert_eq!(read_bits(&buf, 3, 7), 0b1011011);
        // Overwriting with zeros clears.
        write_bits(&mut buf, 3, 0, 7);
        assert_eq!(read_bits(&buf, 3, 7), 0);
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn zero_sized_group_panics() {
        let _ = CounterGroup::new(0);
    }

    #[test]
    #[should_panic(expected = "multiple of block size")]
    fn bad_geometry_panics() {
        let _ = CounterBlock::geometry(96, 4096);
    }
}
