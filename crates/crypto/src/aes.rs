//! AES-128 block cipher (FIPS-197), implemented from scratch.
//!
//! Three implementations live here, fastest first:
//!
//! * **AES-NI** (`x86_64` only) — one `AESENC` per round via
//!   `std::arch` intrinsics, selected at runtime with
//!   `is_x86_feature_detected!("aes")` and pipelined four blocks wide in
//!   [`Aes128::encrypt_blocks`]. Building with `--cfg thoth_soft_aes`
//!   compiles this path out entirely (CI uses that to keep the fallback
//!   honest), and [`Aes128::new_soft`] forces the fallback at runtime for
//!   differential tests on machines that do have the instructions.
//! * **T-tables** — the portable scalar path (each round is 16 table
//!   lookups + XORs over four 256-entry u32 tables, all built at compile
//!   time from the S-box). This is the fallback on non-x86 builds and the
//!   differential oracle for the hardware path
//!   (`aes_hw_vs_ttable`).
//! * **Byte-wise FIPS-197** (tests only) — S-box lookups plus explicit
//!   `MixColumns` arithmetic over GF(2^8); the oracle of last resort for
//!   both paths.
//!
//! There is no decryption: counter mode runs the forward cipher both
//! ways ([`crate::CtrMode::decrypt`]).
//!
//! None of these is meant to be a constant-time production cipher — they
//! exist so the simulator's *functional* state (ciphertexts, one-time
//! pads) is real AES, making recovery and tamper-detection tests
//! meaningful. The *timing* model charges the paper's fixed 40-cycle AES
//! latency regardless of which software path runs.

use std::cell::Cell;

/// The AES S-box.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// Key-schedule round constants `x^(i-1)` in GF(2^8), at compile time.
const RCON: [u8; 10] = {
    let mut rcon = [0u8; 10];
    let mut v: u8 = 1;
    let mut i = 0;
    while i < 10 {
        rcon[i] = v;
        v = xtime(v);
        i += 1;
    }
    rcon
};

/// The four encryption T-tables: `TE[0][x]` packs the `MixColumns` image
/// of `SubBytes(x)` as a big-endian column `({02}s, s, s, {03}s)`; the
/// other three are byte rotations of it, so one round of
/// SubBytes+ShiftRows+MixColumns collapses to four lookups per column.
const TE: [[u32; 256]; 4] = {
    let mut t = [[0u32; 256]; 4];
    let mut i = 0;
    while i < 256 {
        let s = SBOX[i] as u32;
        let s2 = xtime(SBOX[i]) as u32;
        let s3 = s2 ^ s;
        let w = (s2 << 24) | (s << 16) | (s << 8) | s3;
        t[0][i] = w;
        t[1][i] = w.rotate_right(8);
        t[2][i] = w.rotate_right(16);
        t[3][i] = w.rotate_right(24);
        i += 1;
    }
    t
};

/// Which implementation [`Aes128::encrypt_block`] dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AesBackend {
    /// Hardware AES via `AESENC`/`AESENCLAST` intrinsics (x86_64 with the
    /// `aes` feature, unless compiled out with `--cfg thoth_soft_aes`).
    HwAesNi,
    /// The portable T-table software path.
    TTable,
}

/// The hardware path. Compiled only on x86_64 and only when the
/// `thoth_soft_aes` escape hatch is off; runtime dispatch still checks
/// CPUID before ever calling in.
#[cfg(all(target_arch = "x86_64", not(thoth_soft_aes)))]
#[allow(unsafe_code, reason = "AES-NI intrinsics")]
mod hw {
    use std::arch::x86_64::{
        __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_loadu_si128, _mm_setzero_si128,
        _mm_storeu_si128, _mm_xor_si128,
    };

    /// Runtime CPU support for the instructions this module emits.
    pub fn available() -> bool {
        is_x86_feature_detected!("aes")
    }

    /// Encrypts `blocks` in place, four blocks in flight at a time —
    /// `AESENC` pipelines, so independent blocks hide its latency.
    ///
    /// # Safety
    ///
    /// The CPU must support the `aes` and `sse2` target features
    /// (guaranteed by [`available`]; `sse2` is baseline on x86_64).
    #[target_feature(enable = "aes")]
    pub unsafe fn encrypt_blocks(round_keys: &[[u8; 16]; 11], blocks: &mut [[u8; 16]]) {
        unsafe {
            let mut k = [_mm_setzero_si128(); 11];
            for (dst, src) in k.iter_mut().zip(round_keys) {
                *dst = _mm_loadu_si128(src.as_ptr().cast());
            }
            let mut quads = blocks.chunks_exact_mut(4);
            for quad in &mut quads {
                let mut s: [__m128i; 4] = [
                    _mm_loadu_si128(quad[0].as_ptr().cast()),
                    _mm_loadu_si128(quad[1].as_ptr().cast()),
                    _mm_loadu_si128(quad[2].as_ptr().cast()),
                    _mm_loadu_si128(quad[3].as_ptr().cast()),
                ];
                for lane in &mut s {
                    *lane = _mm_xor_si128(*lane, k[0]);
                }
                for rk in &k[1..10] {
                    for lane in &mut s {
                        *lane = _mm_aesenc_si128(*lane, *rk);
                    }
                }
                for (lane, out) in s.iter_mut().zip(quad.iter_mut()) {
                    *lane = _mm_aesenclast_si128(*lane, k[10]);
                    _mm_storeu_si128(out.as_mut_ptr().cast(), *lane);
                }
            }
            for block in quads.into_remainder() {
                let mut s = _mm_loadu_si128(block.as_ptr().cast());
                s = _mm_xor_si128(s, k[0]);
                for rk in &k[1..10] {
                    s = _mm_aesenc_si128(s, *rk);
                }
                s = _mm_aesenclast_si128(s, k[10]);
                _mm_storeu_si128(block.as_mut_ptr().cast(), s);
            }
        }
    }
}

/// Picks the fastest backend the build and the CPU both support.
fn detect_backend() -> AesBackend {
    #[cfg(all(target_arch = "x86_64", not(thoth_soft_aes)))]
    if hw::available() {
        return AesBackend::HwAesNi;
    }
    AesBackend::TTable
}

/// Multiply by x (i.e. {02}) in GF(2^8) with the AES polynomial.
#[inline]
const fn xtime(b: u8) -> u8 {
    (b << 1) ^ (if b & 0x80 != 0 { 0x1b } else { 0 })
}

/// AES-128: 10 rounds, 128-bit key, 16-byte blocks.
///
/// # Example
///
/// ```
/// use thoth_crypto::Aes128;
///
/// let key = [0u8; 16];
/// let aes = Aes128::new(&key);
/// let pt = *b"attack at dawn!!";
/// let ct = aes.encrypt_block(&pt);
/// assert_ne!(ct, pt);
/// // Every backend is bit-identical to the portable T-table path.
/// assert_eq!(aes.encrypt_block_ttable(&pt), ct);
/// ```
#[derive(Clone)]
pub struct Aes128 {
    /// The round keys as bytes, for the AES-NI path (the only reader).
    #[cfg(all(target_arch = "x86_64", not(thoth_soft_aes)))]
    round_keys: [[u8; 16]; 11],
    /// The key schedule as big-endian column words, for the T-table path.
    rk_words: [u32; 44],
    backend: AesBackend,
    /// Blocks encrypted through the hardware path (telemetry counter
    /// `aes_hw_blocks`; always maintained — one `Cell` add per batch is
    /// cheaper than a branch on a config that crypto cannot see).
    hw_blocks: Cell<u64>,
}

impl Aes128 {
    /// Expands `key` into the 11 round keys, using the fastest backend
    /// the build and CPU support (AES-NI where available).
    #[must_use]
    pub fn new(key: &[u8; 16]) -> Self {
        Self::with_backend(key, detect_backend())
    }

    /// Like [`Self::new`] but forces the portable T-table path even when
    /// the CPU has AES-NI — the knob the forced-fallback differential
    /// tests (and any caller that wants reproducible software AES) use.
    #[must_use]
    pub fn new_soft(key: &[u8; 16]) -> Self {
        Self::with_backend(key, AesBackend::TTable)
    }

    fn with_backend(key: &[u8; 16], backend: AesBackend) -> Self {
        let mut w = [[0u8; 4]; 44];
        for i in 0..4 {
            w[i] = [key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]];
        }
        for i in 4..44 {
            let mut t = w[i - 1];
            if i % 4 == 0 {
                t.rotate_left(1);
                for b in &mut t {
                    *b = SBOX[*b as usize];
                }
                t[0] ^= RCON[i / 4 - 1];
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ t[j];
            }
        }
        let mut round_keys = [[0u8; 16]; 11];
        for (r, rk) in round_keys.iter_mut().enumerate() {
            for c in 0..4 {
                rk[4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
            }
        }
        let mut rk_words = [0u32; 44];
        for (i, col) in w.iter().enumerate() {
            rk_words[i] = u32::from_be_bytes(*col);
        }
        Aes128 {
            #[cfg(all(target_arch = "x86_64", not(thoth_soft_aes)))]
            round_keys,
            rk_words,
            backend,
            hw_blocks: Cell::new(0),
        }
    }

    /// The backend [`Self::encrypt_block`] dispatches to.
    #[must_use]
    pub fn backend(&self) -> AesBackend {
        self.backend
    }

    /// Blocks encrypted through the hardware path so far (0 on the
    /// software backend).
    #[must_use]
    pub fn hw_blocks(&self) -> u64 {
        self.hw_blocks.get()
    }

    /// Encrypts one 16-byte block. Dispatches to AES-NI when the backend
    /// supports it, else the T-table path; both are bit-identical to the
    /// byte-wise FIPS-197 rounds, which the differential tests enforce.
    #[must_use]
    pub fn encrypt_block(&self, plaintext: &[u8; 16]) -> [u8; 16] {
        match self.backend {
            #[cfg(all(target_arch = "x86_64", not(thoth_soft_aes)))]
            #[allow(unsafe_code, reason = "calls the AES-NI kernel")]
            AesBackend::HwAesNi => {
                let mut blocks = [*plaintext];
                // SAFETY: `backend` is `HwAesNi` only when `detect_backend`
                // saw the `aes` feature at runtime.
                unsafe { hw::encrypt_blocks(&self.round_keys, &mut blocks) };
                self.hw_blocks.set(self.hw_blocks.get() + 1);
                blocks[0]
            }
            _ => self.encrypt_block_ttable(plaintext),
        }
    }

    /// Encrypts a batch of blocks in place. On the hardware backend the
    /// blocks run four wide through the `AESENC` pipeline — the fast path
    /// for CTR pad generation, where every 128 B memory block needs eight
    /// independent pads.
    pub fn encrypt_blocks(&self, blocks: &mut [[u8; 16]]) {
        match self.backend {
            #[cfg(all(target_arch = "x86_64", not(thoth_soft_aes)))]
            #[allow(unsafe_code, reason = "calls the AES-NI kernel")]
            AesBackend::HwAesNi => {
                // SAFETY: as in `encrypt_block` — runtime-detected.
                unsafe { hw::encrypt_blocks(&self.round_keys, blocks) };
                self.hw_blocks.set(self.hw_blocks.get() + blocks.len() as u64);
            }
            _ => {
                for block in blocks {
                    *block = self.encrypt_block_ttable(block);
                }
            }
        }
    }

    /// Encrypts one block with the portable T-table path (the oracle the
    /// hardware path is differentially tested against, and the dispatch
    /// target on machines without AES-NI).
    #[must_use]
    pub fn encrypt_block_ttable(&self, plaintext: &[u8; 16]) -> [u8; 16] {
        let rk = &self.rk_words;
        let mut w = [0u32; 4];
        for (c, word) in w.iter_mut().enumerate() {
            *word = u32::from_be_bytes([
                plaintext[4 * c],
                plaintext[4 * c + 1],
                plaintext[4 * c + 2],
                plaintext[4 * c + 3],
            ]) ^ rk[c];
        }
        for round in 1..10 {
            let mut n = [0u32; 4];
            for (c, word) in n.iter_mut().enumerate() {
                *word = TE[0][(w[c] >> 24) as usize]
                    ^ TE[1][((w[(c + 1) & 3] >> 16) & 0xff) as usize]
                    ^ TE[2][((w[(c + 2) & 3] >> 8) & 0xff) as usize]
                    ^ TE[3][(w[(c + 3) & 3] & 0xff) as usize]
                    ^ rk[4 * round + c];
            }
            w = n;
        }
        // Final round: SubBytes + ShiftRows only, no MixColumns.
        let mut out = [0u8; 16];
        for c in 0..4 {
            let x = (u32::from(SBOX[(w[c] >> 24) as usize]) << 24)
                | (u32::from(SBOX[((w[(c + 1) & 3] >> 16) & 0xff) as usize]) << 16)
                | (u32::from(SBOX[((w[(c + 2) & 3] >> 8) & 0xff) as usize]) << 8)
                | u32::from(SBOX[(w[(c + 3) & 3] & 0xff) as usize]);
            out[4 * c..4 * c + 4].copy_from_slice(&(x ^ rk[40 + c]).to_be_bytes());
        }
        out
    }
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("Aes128").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thoth_testkit::check;

    /// Encrypts one block with the textbook byte-wise FIPS-197 round
    /// functions: the oracle the T-table and hardware paths are checked
    /// against.
    fn encrypt_block_bytewise(aes: &Aes128, plaintext: &[u8; 16]) -> [u8; 16] {
        let round_key = |r: usize| -> [u8; 16] {
            let mut rk = [0u8; 16];
            for c in 0..4 {
                rk[4 * c..4 * c + 4].copy_from_slice(&aes.rk_words[4 * r + c].to_be_bytes());
            }
            rk
        };
        let mut s = *plaintext;
        add_round_key(&mut s, &round_key(0));
        for round in 1..10 {
            sub_bytes(&mut s);
            shift_rows(&mut s);
            mix_columns(&mut s);
            add_round_key(&mut s, &round_key(round));
        }
        sub_bytes(&mut s);
        shift_rows(&mut s);
        add_round_key(&mut s, &round_key(10));
        s
    }

    // The state is stored column-major as in FIPS-197: byte s[r][c] = state[r + 4c].

    fn add_round_key(s: &mut [u8; 16], rk: &[u8; 16]) {
        for i in 0..16 {
            s[i] ^= rk[i];
        }
    }

    fn sub_bytes(s: &mut [u8; 16]) {
        for b in s.iter_mut() {
            *b = SBOX[*b as usize];
        }
    }

    fn shift_rows(s: &mut [u8; 16]) {
        for r in 1..4 {
            let row = [s[r], s[r + 4], s[r + 8], s[r + 12]];
            for c in 0..4 {
                s[r + 4 * c] = row[(c + r) % 4];
            }
        }
    }

    fn mix_columns(s: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [s[4 * c], s[4 * c + 1], s[4 * c + 2], s[4 * c + 3]];
            s[4 * c] = xtime(col[0]) ^ xtime(col[1]) ^ col[1] ^ col[2] ^ col[3];
            s[4 * c + 1] = col[0] ^ xtime(col[1]) ^ xtime(col[2]) ^ col[2] ^ col[3];
            s[4 * c + 2] = col[0] ^ col[1] ^ xtime(col[2]) ^ xtime(col[3]) ^ col[3];
            s[4 * c + 3] = xtime(col[0]) ^ col[0] ^ col[1] ^ col[2] ^ xtime(col[3]);
        }
    }

    /// FIPS-197 Appendix B: the canonical AES-128 example.
    #[test]
    fn fips197_appendix_b_vector() {
        let key: [u8; 16] = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let pt: [u8; 16] = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        let expected: [u8; 16] = [
            0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
            0x0b, 0x32,
        ];
        let aes = Aes128::new(&key);
        assert_eq!(aes.encrypt_block(&pt), expected);
    }

    /// FIPS-197 Appendix C.1 known-answer test.
    #[test]
    fn fips197_appendix_c1_vector() {
        let key: [u8; 16] = [
            0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d,
            0x0e, 0x0f,
        ];
        let pt: [u8; 16] = [
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ];
        let expected: [u8; 16] = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        let aes = Aes128::new(&key);
        assert_eq!(aes.encrypt_block(&pt), expected);
    }

    #[test]
    fn ttable_matches_bytewise_on_fixed_corpus() {
        let mut x: u64 = 0xfeed_f00d_1234_5678;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..64 {
            let mut key = [0u8; 16];
            key[..8].copy_from_slice(&next().to_le_bytes());
            key[8..].copy_from_slice(&next().to_le_bytes());
            let aes = Aes128::new(&key);
            for _ in 0..16 {
                let mut pt = [0u8; 16];
                pt[..8].copy_from_slice(&next().to_le_bytes());
                pt[8..].copy_from_slice(&next().to_le_bytes());
                assert_eq!(aes.encrypt_block_ttable(&pt), encrypt_block_bytewise(&aes, &pt));
            }
        }
    }

    /// The T-table fast path must agree with the byte-wise FIPS-197
    /// oracle on every key/block pair.
    #[test]
    fn ttable_encrypt_matches_bytewise_oracle() {
        check(512, |g| {
            let key: [u8; 16] = g.bytes();
            let pt: [u8; 16] = g.bytes();
            let aes = Aes128::new(&key);
            assert_eq!(
                aes.encrypt_block(&pt),
                encrypt_block_bytewise(&aes, &pt),
                "T-table and byte-wise AES disagree"
            );
        });
    }

    /// Whatever backend `new` picked must agree with both software
    /// oracles on a randomized corpus, block by block and batched.
    #[test]
    fn dispatched_backend_matches_both_oracles() {
        let mut x: u64 = 0x0be5_7a11_c0de_cafe;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..32 {
            let mut key = [0u8; 16];
            key[..8].copy_from_slice(&next().to_le_bytes());
            key[8..].copy_from_slice(&next().to_le_bytes());
            let aes = Aes128::new(&key);
            // Odd batch length exercises the 4-wide loop and its remainder.
            let mut batch = [[0u8; 16]; 7];
            for block in &mut batch {
                block[..8].copy_from_slice(&next().to_le_bytes());
                block[8..].copy_from_slice(&next().to_le_bytes());
            }
            let plain = batch;
            aes.encrypt_blocks(&mut batch);
            for (pt, ct) in plain.iter().zip(&batch) {
                assert_eq!(*ct, aes.encrypt_block(pt));
                assert_eq!(*ct, aes.encrypt_block_ttable(pt));
                assert_eq!(*ct, encrypt_block_bytewise(&aes, pt));
            }
        }
    }

    /// The forced-software constructor must take the T-table path even on
    /// machines with AES-NI, and must agree with the dispatched backend.
    #[test]
    fn forced_fallback_matches_dispatched() {
        let key = [0x5Au8; 16];
        let hard = Aes128::new(&key);
        let soft = Aes128::new_soft(&key);
        assert_eq!(soft.backend(), AesBackend::TTable);
        let mut x: u64 = 0xdec0_de00_0000_0001;
        for _ in 0..64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let mut pt = [0u8; 16];
            pt[..8].copy_from_slice(&x.to_le_bytes());
            pt[8..].copy_from_slice(&x.rotate_left(17).to_le_bytes());
            assert_eq!(hard.encrypt_block(&pt), soft.encrypt_block(&pt));
        }
        assert_eq!(soft.hw_blocks(), 0, "software path must not count hw blocks");
    }

    #[test]
    fn hw_block_counter_tracks_batches() {
        let aes = Aes128::new(&[1u8; 16]);
        let _ = aes.encrypt_block(&[0u8; 16]);
        let mut batch = [[0u8; 16]; 9];
        aes.encrypt_blocks(&mut batch);
        match aes.backend() {
            AesBackend::HwAesNi => assert_eq!(aes.hw_blocks(), 10),
            AesBackend::TTable => assert_eq!(aes.hw_blocks(), 0),
        }
    }

    #[test]
    fn te_tables_are_rotations_of_te0() {
        for (i, &t0) in TE[0].iter().enumerate() {
            assert_eq!(TE[1][i], t0.rotate_right(8));
            assert_eq!(TE[2][i], t0.rotate_right(16));
            assert_eq!(TE[3][i], t0.rotate_right(24));
        }
    }

    #[test]
    fn different_keys_give_different_ciphertexts() {
        let a = Aes128::new(&[0u8; 16]);
        let b = Aes128::new(&[1u8; 16]);
        let pt = [7u8; 16];
        assert_ne!(a.encrypt_block(&pt), b.encrypt_block(&pt));
    }

    #[test]
    fn debug_does_not_leak_key() {
        let aes = Aes128::new(&[0xAB; 16]);
        let dbg = format!("{aes:?}");
        assert!(!dbg.contains("ab"), "debug output must not contain key bytes");
        assert!(!dbg.contains("171"), "debug output must not contain key bytes");
    }
}
