//! Counter-mode memory encryption (Figure 1 of the paper).
//!
//! Each memory block is encrypted by XORing it with a one-time pad (OTP)
//! generated by AES over an initialization vector built from the block's
//! physical address (spatial uniqueness), its split counter (temporal
//! uniqueness) and the 16-byte-chunk index within the block. Because pad
//! generation depends only on (address, counter), it can be overlapped with
//! the data fetch — the property that makes counter mode the default for
//! secure memories.

use crate::aes::Aes128;

/// Pads [`CtrMode::encrypt`] generates per batched-cipher call (a
/// multiple of the four-wide hardware pipeline).
const PAD_BATCH: usize = 16;

/// A pad generator: produces the 16-byte OTP chunk for a given IV tuple.
///
/// [`CtrMode`] is the AES-backed production implementation; tests can
/// substitute cheap doubles.
pub trait BlockCipherPad {
    /// Generates the 16-byte pad for `(addr, major, minor, chunk)`.
    fn pad(&self, addr: u64, major: u64, minor: u8, chunk: u32) -> [u8; 16];
}

/// AES-128 counter-mode encryption of whole memory blocks.
///
/// # Example
///
/// ```
/// use thoth_crypto::CtrMode;
///
/// let ctr = CtrMode::new(&[7u8; 16]);
/// let plain = vec![0xAB; 128];
/// let mut block = plain.clone();
/// ctr.encrypt(0x1000, 5, 2, &mut block); // in place
/// assert_ne!(block, plain);
/// let cipher = block.clone();
/// ctr.decrypt(0x1000, 5, 2, &mut block);
/// assert_eq!(block, plain);
/// // A stale counter decrypts to garbage:
/// block.copy_from_slice(&cipher);
/// ctr.decrypt(0x1000, 5, 1, &mut block);
/// assert_ne!(block, plain);
/// ```
#[derive(Debug, Clone)]
pub struct CtrMode {
    aes: Aes128,
}

impl CtrMode {
    /// Creates a counter-mode engine keyed with `key`.
    #[must_use]
    pub fn new(key: &[u8; 16]) -> Self {
        CtrMode {
            aes: Aes128::new(key),
        }
    }

    /// XORs `data` in place with the OTP for `(addr, major, minor)`.
    ///
    /// Encryption and decryption are the same operation; [`Self::decrypt`]
    /// is provided for readability at call sites.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of 16.
    pub fn encrypt(&self, addr: u64, major: u64, minor: u8, data: &mut [u8]) {
        assert_eq!(
            data.len() % 16,
            0,
            "block length must be a multiple of the AES block size"
        );
        // Build each span's IVs in a stack buffer, run them through the
        // batched cipher (4-wide on AES-NI), then XOR in place. One span
        // covers a whole 256 B block.
        let mut pads = [[0u8; 16]; PAD_BATCH];
        for (s, span) in data.chunks_mut(16 * PAD_BATCH).enumerate() {
            let pads = &mut pads[..span.len() / 16];
            for (i, pad) in pads.iter_mut().enumerate() {
                *pad = Self::iv(addr, major, minor, (s * PAD_BATCH + i) as u32);
            }
            self.aes.encrypt_blocks(pads);
            for (chunk, pad) in span.chunks_exact_mut(16).zip(pads.iter()) {
                for (d, p) in chunk.iter_mut().zip(pad) {
                    *d ^= p;
                }
            }
        }
    }

    /// Decrypts `data` in place; identical to [`Self::encrypt`] (XOR with
    /// the pad).
    pub fn decrypt(&self, addr: u64, major: u64, minor: u8, data: &mut [u8]) {
        self.encrypt(addr, major, minor, data);
    }

    /// AES blocks encrypted on the hardware path so far (telemetry).
    #[must_use]
    pub fn hw_blocks(&self) -> u64 {
        self.aes.hw_blocks()
    }

    /// IV layout (16 bytes): addr(6) || minor(1) || chunk(1) || major(8).
    /// Physical addresses are < 2^48 in all configurations we model.
    fn iv(addr: u64, major: u64, minor: u8, chunk: u32) -> [u8; 16] {
        let mut iv = [0u8; 16];
        iv[..6].copy_from_slice(&addr.to_le_bytes()[..6]);
        iv[6] = minor;
        iv[7] = chunk as u8;
        iv[8..].copy_from_slice(&major.to_le_bytes());
        iv
    }
}

impl BlockCipherPad for CtrMode {
    fn pad(&self, addr: u64, major: u64, minor: u8, chunk: u32) -> [u8; 16] {
        self.aes.encrypt_block(&Self::iv(addr, major, minor, chunk))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> CtrMode {
        CtrMode::new(b"0123456789abcdef")
    }

    /// `data` XORed with the pad, as a new vector.
    fn enc(ctr: &CtrMode, addr: u64, major: u64, minor: u8, data: &[u8]) -> Vec<u8> {
        let mut out = data.to_vec();
        ctr.encrypt(addr, major, minor, &mut out);
        out
    }

    #[test]
    fn roundtrip_all_paper_block_sizes() {
        let ctr = engine();
        for size in [64usize, 128, 256] {
            let data: Vec<u8> = (0..size).map(|i| (i * 7 + 3) as u8).collect();
            let ct = enc(&ctr, 0xdead00, 1, 2, &data);
            assert_eq!(ct.len(), size);
            assert_eq!(enc(&ctr, 0xdead00, 1, 2, &ct), data);
        }
    }

    #[test]
    fn spatial_uniqueness() {
        // Same data + counter at different addresses -> different ciphertext.
        let ctr = engine();
        let data = vec![0u8; 64];
        let a = enc(&ctr, 0x1000, 0, 0, &data);
        let b = enc(&ctr, 0x2000, 0, 0, &data);
        assert_ne!(a, b);
    }

    #[test]
    fn temporal_uniqueness() {
        // Same data + address with bumped minor or major -> different ciphertext.
        let ctr = engine();
        let data = vec![0u8; 64];
        let base = enc(&ctr, 0x1000, 0, 0, &data);
        assert_ne!(enc(&ctr, 0x1000, 0, 1, &data), base);
        assert_ne!(enc(&ctr, 0x1000, 1, 0, &data), base);
    }

    #[test]
    fn per_chunk_pads_differ() {
        // A block of repeated 16-byte chunks must not produce repeated
        // ciphertext chunks (chunk index is in the IV).
        let ctr = engine();
        let data = vec![0x55u8; 128];
        let ct = enc(&ctr, 0x40, 9, 9, &data);
        let chunks: Vec<&[u8]> = ct.chunks_exact(16).collect();
        for i in 1..chunks.len() {
            assert_ne!(chunks[0], chunks[i], "chunk {i} repeated");
        }
    }

    #[test]
    fn wrong_counter_fails_to_decrypt() {
        let ctr = engine();
        let data: Vec<u8> = (0..64).collect();
        let ct = enc(&ctr, 0x80, 3, 7, &data);
        assert_ne!(enc(&ctr, 0x80, 3, 8, &ct), data);
        assert_ne!(enc(&ctr, 0x80, 4, 7, &ct), data);
        assert_ne!(enc(&ctr, 0x88, 3, 7, &ct), data);
    }

    #[test]
    #[should_panic(expected = "multiple of the AES block size")]
    fn unaligned_length_panics() {
        engine().encrypt(0, 0, 0, &mut [0u8; 15]);
    }

    #[test]
    fn batched_stream_matches_per_chunk_pads() {
        // `encrypt` runs the whole pad stream through the batched cipher;
        // the per-chunk `pad` trait path is the reference.
        let ctr = engine();
        for size in [16usize, 48, 64, 128, 256, 512, 1040] {
            let data: Vec<u8> = (0..size).map(|i| (i * 13 + 5) as u8).collect();
            let ct = enc(&ctr, 0xabc0, 11, 4, &data);
            for (i, (chunk, plain)) in
                ct.chunks_exact(16).zip(data.chunks_exact(16)).enumerate()
            {
                let pad = ctr.pad(0xabc0, 11, 4, i as u32);
                let expect: Vec<u8> = plain.iter().zip(&pad).map(|(d, p)| d ^ p).collect();
                assert_eq!(chunk, &expect[..], "chunk {i} of {size}-byte block");
            }
        }
    }

    #[test]
    fn pad_trait_object_usable() {
        let ctr = engine();
        let dyn_pad: &dyn BlockCipherPad = &ctr;
        let p = dyn_pad.pad(1, 2, 3, 0);
        assert_eq!(p, ctr.pad(1, 2, 3, 0));
    }
}
