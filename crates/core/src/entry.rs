//! The partial-update entry and its bit-packed block encoding.
//!
//! Section IV-A: *"A partial update entry contains the {address, MAC,
//! counter, status}. The address is 32b ... The counter is the 7b minor
//! counter ... The MAC is 64b ... the status bits (2b) are used to help on
//! deciding the actions upon the eviction of this partial update entry
//! from the PUB."*
//!
//! Total: 105 bits per entry, giving 9 entries per 128 B block and 19 per
//! 256 B block — exactly the densities the paper reports.

/// Size of one encoded partial-update entry, in bits.
pub const ENTRY_BITS: usize = 32 + 64 + 7 + 2;

/// One partial security-metadata update: the new minor counter and
/// second-level MAC produced by a single persistent data-block write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PartialUpdate {
    /// The *data* block index (`physical address / block size`) whose
    /// counter and MAC this entry carries. 32 bits address a 512 GB module
    /// at 128 B granularity.
    pub block_index: u32,
    /// The new 7-bit minor counter value.
    pub minor: u8,
    /// The new 8 B second-level MAC over the block's first-level MAC.
    pub mac2: u64,
    /// Status bit for the *counter* block: `true` if this update was the
    /// one that turned the counter block dirty in the metadata cache
    /// (WTSC: only such entries persist the block on eviction).
    pub ctr_status: bool,
    /// Status bit for the *MAC* block, same semantics.
    pub mac_status: bool,
}

impl PartialUpdate {
    /// Packs the status bits into the 2-bit field (bit 0 = counter,
    /// bit 1 = MAC).
    #[must_use]
    pub fn status_bits(&self) -> u8 {
        u8::from(self.ctr_status) | (u8::from(self.mac_status) << 1)
    }

    /// Reconstructs status flags from the 2-bit field.
    #[must_use]
    pub fn with_status_bits(mut self, bits: u8) -> Self {
        self.ctr_status = bits & 1 != 0;
        self.mac_status = bits & 2 != 0;
        self
    }
}

/// Encodes/decodes packed PUB blocks of a fixed memory block size.
///
/// # Example
///
/// ```
/// use thoth_core::{PartialUpdate, PubBlockCodec};
///
/// let codec = PubBlockCodec::new(128);
/// assert_eq!(codec.entries_per_block(), 9);  // paper, Section IV-A
/// assert_eq!(PubBlockCodec::new(256).entries_per_block(), 19);
///
/// let updates: Vec<PartialUpdate> = (0..9)
///     .map(|i| PartialUpdate {
///         block_index: i,
///         minor: (i % 128) as u8,
///         mac2: u64::from(i) * 31,
///         ctr_status: i % 2 == 0,
///         mac_status: i % 3 == 0,
///     })
///     .collect();
/// let img = codec.encode(&updates);
/// assert_eq!(img.len(), 128);
/// let mut decoded = Vec::new();
/// codec.decode_into(&img, &mut decoded);
/// assert_eq!(decoded, updates);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PubBlockCodec {
    block_bytes: usize,
}

impl PubBlockCodec {
    /// Creates a codec for `block_bytes` memory blocks.
    ///
    /// # Panics
    ///
    /// Panics if a block cannot hold at least one entry.
    #[must_use]
    pub fn new(block_bytes: usize) -> Self {
        assert!(
            block_bytes * 8 >= ENTRY_BITS,
            "{block_bytes} B block cannot hold a {ENTRY_BITS}-bit entry"
        );
        PubBlockCodec { block_bytes }
    }

    /// The memory block size this codec packs into.
    #[must_use]
    pub fn block_bytes(&self) -> usize {
        self.block_bytes
    }

    /// How many entries fit in one block (9 for 128 B, 19 for 256 B).
    #[must_use]
    pub fn entries_per_block(&self) -> usize {
        self.block_bytes * 8 / ENTRY_BITS
    }

    /// Encodes exactly `entries_per_block()` updates into a block image.
    ///
    /// If fewer updates are supplied, the last one is duplicated to fill
    /// the block — the paper's crash-time padding rule ("we duplicate the
    /// existing partial entries upon a crash to fill a full cache block"),
    /// which is safe because applying the same partial update twice during
    /// recovery is idempotent.
    ///
    /// # Panics
    ///
    /// Panics if `updates` is empty or longer than the block capacity.
    #[must_use]
    pub fn encode(&self, updates: &[PartialUpdate]) -> Vec<u8> {
        let mut out = vec![0u8; self.block_bytes];
        self.encode_into(updates, &mut out);
        out
    }

    /// [`Self::encode`] into a caller-provided buffer (cleared first) —
    /// lets hot loops reuse one allocation across blocks.
    ///
    /// # Panics
    ///
    /// As [`Self::encode`], plus if `out` is shorter than one block.
    pub fn encode_into(&self, updates: &[PartialUpdate], out: &mut [u8]) {
        let cap = self.entries_per_block();
        assert!(!updates.is_empty(), "cannot encode an empty PUB block");
        assert!(
            updates.len() <= cap,
            "{} updates exceed block capacity {cap}",
            updates.len()
        );
        assert!(out.len() >= self.block_bytes, "output buffer too small");
        out[..self.block_bytes].fill(0);
        let last = *updates.last().expect("non-empty");
        for slot in 0..cap {
            let u = updates.get(slot).copied().unwrap_or(last);
            let bit = slot * ENTRY_BITS;
            // A whole 105-bit entry shifted into bit position is at most
            // 112 bits, so one 14-byte OR window lands it in a single
            // u128 operation (PUB append is the simulator's hottest
            // encode). The window never overruns: the block must hold
            // `105 + bit%8` more bits past `bit/8`, which forces at
            // least 14 whole bytes there.
            let val = u128::from(u.block_index)
                | u128::from(u.mac2) << 32
                | u128::from(u.minor & 0x7f) << 96
                | u128::from(u.status_bits()) << 103;
            let byte = bit / 8;
            let window = (val << (bit % 8)).to_le_bytes();
            for (o, w) in out[byte..byte + 14].iter_mut().zip(window) {
                *o |= w;
            }
        }
    }

    /// Decodes a block image into its entries, replacing the contents of
    /// `out` (whose buffer callers reuse across blocks). Trailing
    /// duplicates created by crash-time padding are collapsed.
    ///
    /// # Panics
    ///
    /// Panics if the image is shorter than one block.
    pub fn decode_into(&self, image: &[u8], out: &mut Vec<PartialUpdate>) {
        assert!(
            image.len() >= self.block_bytes,
            "PUB block image truncated"
        );
        let cap = self.entries_per_block();
        out.clear();
        for slot in 0..cap {
            let bit = slot * ENTRY_BITS;
            // Mirror of the encode window: one 14-byte read covers the
            // shifted entry (see `encode_into` for the bound).
            let byte = bit / 8;
            let mut window = [0u8; 16];
            window[..14].copy_from_slice(&image[byte..byte + 14]);
            let val = u128::from_le_bytes(window) >> (bit % 8);
            let u = PartialUpdate {
                block_index: (val & 0xffff_ffff) as u32,
                mac2: ((val >> 32) & u128::from(u64::MAX)) as u64,
                minor: ((val >> 96) & 0x7f) as u8,
                ctr_status: false,
                mac_status: false,
            }
            .with_status_bits(((val >> 103) & 0b11) as u8);
            if out.last() == Some(&u) {
                continue; // crash-padding duplicate
            }
            out.push(u);
        }
    }
}

/// Writes `value`'s low `nbits` bits at bit offset `bitpos`, LSB-first
/// within the stream. Byte-at-a-time reference implementation: the hot
/// codec paths use single u128 OR/read windows instead, and the
/// differential tests below hold them to this oracle.
#[cfg(test)]
fn write_bits(buf: &mut [u8], bitpos: usize, value: u64, nbits: usize) {
    debug_assert!(nbits <= 64);
    let mut val = if nbits == 64 {
        value
    } else {
        value & ((1u64 << nbits) - 1)
    };
    let mut byte = bitpos / 8;
    let mut shift = bitpos % 8;
    let mut remaining = nbits;
    while remaining > 0 {
        let take = (8 - shift).min(remaining);
        buf[byte] |= ((val & ((1u64 << take) - 1)) << shift) as u8;
        val >>= take;
        remaining -= take;
        byte += 1;
        shift = 0;
    }
}

/// Reads `nbits` bits at bit offset `bitpos`, LSB-first (inverse of
/// [`write_bits`]; test oracle for the windowed decode).
#[cfg(test)]
fn read_bits(buf: &[u8], bitpos: usize, nbits: usize) -> u64 {
    debug_assert!(nbits <= 64);
    let mut v = 0u64;
    let mut got = 0;
    let mut byte = bitpos / 8;
    let mut shift = bitpos % 8;
    while got < nbits {
        let take = (8 - shift).min(nbits - got);
        let bits = (u64::from(buf[byte] >> shift)) & ((1u64 << take) - 1);
        v |= bits << got;
        got += take;
        byte += 1;
        shift = 0;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The entries of `image` as a new vector.
    fn decode(codec: &PubBlockCodec, image: &[u8]) -> Vec<PartialUpdate> {
        let mut out = Vec::new();
        codec.decode_into(image, &mut out);
        out
    }

    fn sample(i: u32) -> PartialUpdate {
        PartialUpdate {
            block_index: i.wrapping_mul(0x9e37_79b9),
            minor: (i % 128) as u8,
            mac2: u64::from(i).wrapping_mul(0xdead_beef_cafe_f00d),
            ctr_status: i.is_multiple_of(2),
            mac_status: i.is_multiple_of(3),
        }
    }

    #[test]
    fn entry_bits_is_105() {
        assert_eq!(ENTRY_BITS, 105);
    }

    /// Byte-at-a-time reference encode (the original implementation);
    /// the windowed fast path must produce identical images.
    fn encode_bitwise(codec: &PubBlockCodec, updates: &[PartialUpdate]) -> Vec<u8> {
        let cap = codec.entries_per_block();
        let mut out = vec![0u8; codec.block_bytes()];
        let last = *updates.last().expect("non-empty");
        for slot in 0..cap {
            let u = updates.get(slot).copied().unwrap_or(last);
            let bit = slot * ENTRY_BITS;
            write_bits(&mut out, bit, u64::from(u.block_index), 32);
            write_bits(&mut out, bit + 32, u.mac2, 64);
            write_bits(&mut out, bit + 96, u64::from(u.minor & 0x7f), 7);
            write_bits(&mut out, bit + 103, u64::from(u.status_bits()), 2);
        }
        out
    }

    #[test]
    fn windowed_codec_matches_bitwise_reference() {
        for block_bytes in [64, 128, 256, 512] {
            let codec = PubBlockCodec::new(block_bytes);
            let cap = codec.entries_per_block();
            for fill in 1..=cap {
                let updates: Vec<_> =
                    (0..fill as u32).map(|i| sample(i * 7 + block_bytes as u32)).collect();
                let fast = codec.encode(&updates);
                assert_eq!(
                    fast,
                    encode_bitwise(&codec, &updates),
                    "{block_bytes} B block, {fill} updates"
                );
                // And the windowed decode reads back what the bitwise
                // reference would: per-field read_bits equality.
                for (slot, u) in decode(&codec, &fast).iter().enumerate() {
                    let bit = slot * ENTRY_BITS;
                    assert_eq!(u64::from(u.block_index), read_bits(&fast, bit, 32));
                    assert_eq!(u.mac2, read_bits(&fast, bit + 32, 64));
                    assert_eq!(u64::from(u.minor), read_bits(&fast, bit + 96, 7));
                    assert_eq!(
                        u64::from(u.status_bits()),
                        read_bits(&fast, bit + 103, 2)
                    );
                }
            }
        }
    }

    #[test]
    fn capacities_match_paper() {
        assert_eq!(PubBlockCodec::new(128).entries_per_block(), 9);
        assert_eq!(PubBlockCodec::new(256).entries_per_block(), 19);
        assert_eq!(PubBlockCodec::new(64).entries_per_block(), 4);
    }

    #[test]
    fn roundtrip_full_block_128() {
        let codec = PubBlockCodec::new(128);
        let updates: Vec<_> = (0..9).map(sample).collect();
        assert_eq!(decode(&codec, &codec.encode(&updates)), updates);
    }

    #[test]
    fn roundtrip_full_block_256() {
        let codec = PubBlockCodec::new(256);
        let updates: Vec<_> = (100..119).map(sample).collect();
        assert_eq!(decode(&codec, &codec.encode(&updates)), updates);
    }

    #[test]
    fn partial_block_pads_by_duplication_and_decodes_back() {
        let codec = PubBlockCodec::new(128);
        let updates: Vec<_> = (0..4).map(sample).collect();
        let img = codec.encode(&updates);
        // Duplicates collapse on decode.
        assert_eq!(decode(&codec, &img), updates);
    }

    #[test]
    fn status_bits_roundtrip() {
        for bits in 0..4u8 {
            let u = sample(0).with_status_bits(bits);
            assert_eq!(u.status_bits(), bits);
        }
    }

    #[test]
    fn extreme_values_roundtrip() {
        let codec = PubBlockCodec::new(128);
        let u = PartialUpdate {
            block_index: u32::MAX,
            minor: 127,
            mac2: u64::MAX,
            ctr_status: true,
            mac_status: true,
        };
        let img = codec.encode(&[u]);
        assert_eq!(decode(&codec, &img)[0], u);
    }

    #[test]
    fn minor_is_masked_to_seven_bits() {
        let codec = PubBlockCodec::new(128);
        let mut u = sample(1);
        u.minor = 0xff; // invalid: top bit must not leak into the MAC field
        let img = codec.encode(&[u]);
        let back = decode(&codec, &img)[0];
        assert_eq!(back.minor, 0x7f);
        assert_eq!(back.mac2, u.mac2, "adjacent field unharmed");
    }

    #[test]
    #[should_panic(expected = "exceed block capacity")]
    fn overfull_encode_panics() {
        let codec = PubBlockCodec::new(128);
        let updates: Vec<_> = (0..10).map(sample).collect();
        let _ = codec.encode(&updates);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_encode_panics() {
        let _ = PubBlockCodec::new(128).encode(&[]);
    }

    #[test]
    fn consecutive_identical_real_entries_note() {
        // Two *different* adjacent entries never collapse.
        let codec = PubBlockCodec::new(128);
        let mut updates: Vec<_> = (0..9).map(sample).collect();
        updates[4] = updates[3]; // a genuinely repeated update
        let back = decode(&codec, &codec.encode(&updates));
        // The repeated entry collapses — acceptable: re-applying a partial
        // update during recovery is idempotent.
        assert_eq!(back.len(), 8);
    }
}
