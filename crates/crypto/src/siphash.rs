//! SipHash-2-4: a fast keyed 64-bit pseudo-random function.
//!
//! SipHash is used throughout the reproduction as the MAC primitive and as
//! the hash for Bonsai-Merkle-Tree nodes. The paper models a generic
//! 40-cycle hash engine (Table I); functionally, any keyed 64-bit PRF with
//! good distribution suffices, and SipHash-2-4 is compact and well-specified
//! (Aumasson & Bernstein, 2012).
//!
//! Two batched kernels live behind [`SipHash24::hash_words_batch`],
//! fastest first:
//!
//! * **AVX2 four-lane** (`x86_64` only) — the four lanes' `v0..v3` states
//!   live in four `__m256i` registers (one 64-bit element per lane), so
//!   every sipround runs all four compression chains in lock-step vector
//!   instructions. Selected at runtime with
//!   `is_x86_feature_detected!("avx2")`; building with
//!   `--cfg thoth_soft_sip` compiles the path out entirely (CI uses that
//!   to keep the fallback honest), and [`SipHash24::new_soft`] forces the
//!   fallback at runtime for differential tests on machines that do have
//!   AVX2.
//! * **Scalar-interleaved lanes** — the portable path and the
//!   differential oracle for the vector kernel: the same four
//!   compression chains, unrolled so the out-of-order core overlaps them.
//!
//! Both are bit-identical to serial [`SipHash24::hash_words`] per row,
//! which the `siphash_simd` differential tests enforce.

/// SipHash-2-4 with a 128-bit key producing a 64-bit tag.
///
/// # Example
///
/// ```
/// use thoth_crypto::SipHash24;
///
/// let mac = SipHash24::new(0x0706050403020100, 0x0f0e0d0c0b0a0908);
/// let t1 = mac.hash(b"hello");
/// let t2 = mac.hash(b"hello");
/// let t3 = mac.hash(b"hellp");
/// assert_eq!(t1, t2);
/// assert_ne!(t1, t3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SipHash24 {
    k0: u64,
    k1: u64,
    /// Forces the scalar lane kernel even when the CPU has AVX2 (the
    /// forced-fallback knob differential tests use).
    soft: bool,
}

/// Which kernel [`SipHash24::hash_words_batch`] runs full lane groups
/// through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SipBackend {
    /// The AVX2 four-lane vector kernel (x86_64 with the `avx2` feature,
    /// unless compiled out with `--cfg thoth_soft_sip`).
    SimdAvx2,
    /// The portable scalar-interleaved lane kernel.
    Scalar,
}

/// The vector kernel. Compiled only on x86_64 and only when the
/// `thoth_soft_sip` escape hatch is off; runtime dispatch still checks
/// CPUID before ever calling in.
#[cfg(all(target_arch = "x86_64", not(thoth_soft_sip)))]
#[allow(unsafe_code, reason = "AVX2 intrinsics")]
mod simd {
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi64, _mm256_or_si256, _mm256_set1_epi64x, _mm256_set_epi64x,
        _mm256_shuffle_epi32, _mm256_slli_epi64, _mm256_srli_epi64, _mm256_storeu_si256,
        _mm256_xor_si256,
    };

    /// Runtime CPU support for the instructions this module emits.
    pub fn available() -> bool {
        is_x86_feature_detected!("avx2")
    }

    /// Per-element rotate-left by a constant; AVX2 has no 64-bit rotate,
    /// so it is a shift pair plus an OR (the rotate-by-32 in sipround
    /// uses a 32-bit shuffle instead — one instruction, no shift unit).
    /// The complementary right shift is a second const parameter because
    /// the shift intrinsics only take standalone constants; the inline
    /// const assert pins `INV = 64 - R`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn rotl<const R: i32, const INV: i32>(x: __m256i) -> __m256i {
        const {
            assert!(R + INV == 64);
        }
        _mm256_or_si256(_mm256_slli_epi64(x, R), _mm256_srli_epi64(x, INV))
    }

    /// One sipround across all four lanes at once.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn sipround(v: &mut [__m256i; 4]) {
        unsafe {
            v[0] = _mm256_add_epi64(v[0], v[1]);
            v[1] = rotl::<13, 51>(v[1]);
            v[1] = _mm256_xor_si256(v[1], v[0]);
            // Rotate by 32 = swap the 32-bit halves of each element.
            v[0] = _mm256_shuffle_epi32(v[0], 0b1011_0001);
            v[2] = _mm256_add_epi64(v[2], v[3]);
            v[3] = rotl::<16, 48>(v[3]);
            v[3] = _mm256_xor_si256(v[3], v[2]);
            v[0] = _mm256_add_epi64(v[0], v[3]);
            v[3] = rotl::<21, 43>(v[3]);
            v[3] = _mm256_xor_si256(v[3], v[0]);
            v[2] = _mm256_add_epi64(v[2], v[1]);
            v[1] = rotl::<17, 47>(v[1]);
            v[1] = _mm256_xor_si256(v[1], v[2]);
            v[2] = _mm256_shuffle_epi32(v[2], 0b1011_0001);
        }
    }

    /// Hashes four equal-width word rows, one per vector lane. `init` is
    /// the keyed initial state, `last` the final length block — both
    /// identical across lanes, so they broadcast.
    ///
    /// # Safety
    ///
    /// The CPU must support the `avx2` target feature (guaranteed by
    /// [`available`]).
    #[target_feature(enable = "avx2")]
    pub unsafe fn hash_rows<const W: usize>(
        init: [u64; 4],
        rows: &[[u64; W]; 4],
        last: u64,
    ) -> [u64; 4] {
        unsafe {
            let mut v = [
                _mm256_set1_epi64x(init[0] as i64),
                _mm256_set1_epi64x(init[1] as i64),
                _mm256_set1_epi64x(init[2] as i64),
                _mm256_set1_epi64x(init[3] as i64),
            ];
            for (((&r0, &r1), &r2), &r3) in
                rows[0].iter().zip(&rows[1]).zip(&rows[2]).zip(&rows[3])
            {
                // `_mm256_set_epi64x` takes elements high-to-low, so lane
                // `j` (element `j`) carries row `j`'s word.
                let m = _mm256_set_epi64x(r3 as i64, r2 as i64, r1 as i64, r0 as i64);
                v[3] = _mm256_xor_si256(v[3], m);
                sipround(&mut v);
                sipround(&mut v);
                v[0] = _mm256_xor_si256(v[0], m);
            }
            let l = _mm256_set1_epi64x(last as i64);
            v[3] = _mm256_xor_si256(v[3], l);
            sipround(&mut v);
            sipround(&mut v);
            v[0] = _mm256_xor_si256(v[0], l);
            v[2] = _mm256_xor_si256(v[2], _mm256_set1_epi64x(0xff));
            for _ in 0..4 {
                sipround(&mut v);
            }
            let tag = _mm256_xor_si256(
                _mm256_xor_si256(v[0], v[1]),
                _mm256_xor_si256(v[2], v[3]),
            );
            let mut out = [0u64; 4];
            _mm256_storeu_si256(out.as_mut_ptr().cast(), tag);
            out
        }
    }
}

/// Picks the fastest batch kernel the build and the CPU both support.
fn detect_backend() -> SipBackend {
    #[cfg(all(target_arch = "x86_64", not(thoth_soft_sip)))]
    if simd::available() {
        return SipBackend::SimdAvx2;
    }
    SipBackend::Scalar
}

#[inline]
fn sipround(v: &mut [u64; 4]) {
    v[0] = v[0].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(13);
    v[1] ^= v[0];
    v[0] = v[0].rotate_left(32);
    v[2] = v[2].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(16);
    v[3] ^= v[2];
    v[0] = v[0].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(21);
    v[3] ^= v[0];
    v[2] = v[2].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(17);
    v[1] ^= v[2];
    v[2] = v[2].rotate_left(32);
}

impl SipHash24 {
    /// Creates a SipHash instance from the two 64-bit key halves, using
    /// the fastest batch kernel the build and CPU support (AVX2 where
    /// available).
    #[must_use]
    pub const fn new(k0: u64, k1: u64) -> Self {
        SipHash24 { k0, k1, soft: false }
    }

    /// Like [`Self::new`] but forces the scalar lane kernel even when the
    /// CPU has AVX2 — the knob the forced-fallback differential tests
    /// (and any caller that wants reproducible software batching) use.
    /// Per-row results are identical either way.
    #[must_use]
    pub const fn new_soft(k0: u64, k1: u64) -> Self {
        SipHash24 { k0, k1, soft: true }
    }

    /// Creates a SipHash instance from a 16-byte key (little-endian halves).
    #[must_use]
    pub fn from_key_bytes(key: &[u8; 16]) -> Self {
        let k0 = u64::from_le_bytes(key[..8].try_into().expect("8 bytes"));
        let k1 = u64::from_le_bytes(key[8..].try_into().expect("8 bytes"));
        SipHash24::new(k0, k1)
    }

    /// The kernel [`Self::hash_words_batch`] runs full lane groups
    /// through.
    #[must_use]
    pub fn backend(&self) -> SipBackend {
        if self.soft {
            SipBackend::Scalar
        } else {
            detect_backend()
        }
    }

    /// How many of an `n`-row batch would go through the vector kernel
    /// (full [`BATCH_LANES`] groups; 0 on the scalar backend) — the
    /// bookkeeping behind the `sip_simd_rows` telemetry counter, kept
    /// here so callers don't re-derive the grouping rule.
    #[must_use]
    pub fn simd_rows_of(&self, n: usize) -> u64 {
        match self.backend() {
            SipBackend::SimdAvx2 => (n - n % BATCH_LANES) as u64,
            SipBackend::Scalar => 0,
        }
    }

    /// Hashes an arbitrary byte message to a 64-bit tag.
    #[must_use]
    pub fn hash(&self, msg: &[u8]) -> u64 {
        let mut v = self.init_state();
        let mut chunks = msg.chunks_exact(8);
        for chunk in &mut chunks {
            compress(&mut v, u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
        // Final block: remaining bytes plus the length in the top byte.
        let rem = chunks.remainder();
        let mut last = (msg.len() as u64 & 0xff) << 56;
        for (i, &b) in rem.iter().enumerate() {
            last |= u64::from(b) << (8 * i);
        }
        Self::finalize(v, last)
    }

    /// Hashes a multi-part message exactly as if the parts were
    /// concatenated — `hash_parts(&[a, b]) == hash(a ++ b)` — without
    /// materializing the concatenation. This is the allocation-free path
    /// for MAC inputs assembled from a payload plus address/counter
    /// framing.
    #[must_use]
    pub fn hash_parts(&self, parts: &[&[u8]]) -> u64 {
        let mut v = self.init_state();
        let mut buf = [0u8; 8];
        let mut buffered = 0usize;
        let mut total = 0u64;
        for part in parts {
            let mut p = *part;
            total += p.len() as u64;
            if buffered > 0 {
                let take = p.len().min(8 - buffered);
                buf[buffered..buffered + take].copy_from_slice(&p[..take]);
                buffered += take;
                p = &p[take..];
                if buffered < 8 {
                    continue; // `p` is exhausted; keep accumulating.
                }
                compress(&mut v, u64::from_le_bytes(buf));
                // `buffered` is reset by the remainder handling below.
            }
            let mut chunks = p.chunks_exact(8);
            for chunk in &mut chunks {
                compress(&mut v, u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
            }
            let rem = chunks.remainder();
            buf[..rem.len()].copy_from_slice(rem);
            buffered = rem.len();
        }
        let mut last = (total & 0xff) << 56;
        for (i, &b) in buf[..buffered].iter().enumerate() {
            last |= u64::from(b) << (8 * i);
        }
        Self::finalize(v, last)
    }

    /// Hashes a sequence of 64-bit words (convenience for address/counter
    /// tuples that dominate MAC inputs in the simulator). Equivalent to
    /// hashing the little-endian byte encoding of the words.
    #[must_use]
    pub fn hash_words(&self, words: &[u64]) -> u64 {
        let mut s = self.words();
        for &w in words {
            s.push(w);
        }
        s.finish()
    }

    /// Starts an incremental word-at-a-time hash. [`SipWordStream::finish`]
    /// yields the same tag [`Self::hash_words`] would for the pushed
    /// sequence, with no intermediate buffer.
    #[must_use]
    pub fn words(&self) -> SipWordStream {
        SipWordStream {
            v: self.init_state(),
            count: 0,
        }
    }

    /// Hashes fixed-width word rows, element-wise equal to
    /// [`Self::hash_words`] on each row. This is the merkle/MAC fast path:
    /// node messages at one tree level are all the same width, so whole
    /// dirty-parent sets run through the multi-lane kernel — vectorized
    /// four lanes wide on the AVX2 backend, scalar-interleaved otherwise.
    /// Ragged tails (fewer than [`BATCH_LANES`] rows) fall back to serial
    /// [`Self::hash_words`] on either backend. Row `i`'s tag lands in
    /// `out[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `out` and `rows` differ in length.
    pub fn hash_words_batch<const W: usize>(&self, rows: &[[u64; W]], out: &mut [u64]) {
        assert_eq!(out.len(), rows.len(), "one output word per row");
        let mut groups = rows.chunks_exact(BATCH_LANES);
        let mut tags = out.chunks_exact_mut(BATCH_LANES);
        let last = ((W as u64 * 8) & 0xff) << 56;
        #[cfg(all(target_arch = "x86_64", not(thoth_soft_sip)))]
        if self.backend() == SipBackend::SimdAvx2 {
            for (g, t) in (&mut groups).zip(&mut tags) {
                let lanes: &[[u64; W]; BATCH_LANES] = g.try_into().expect("exact chunk");
                // SAFETY: the backend is `SimdAvx2` only when
                // `detect_backend` saw the `avx2` feature at runtime.
                #[allow(unsafe_code, reason = "calls the AVX2 kernel")]
                t.copy_from_slice(&unsafe { simd::hash_rows(self.init_state(), lanes, last) });
            }
            for (row, t) in groups.remainder().iter().zip(tags.into_remainder()) {
                *t = self.hash_words(row);
            }
            return;
        }
        for (g, t) in (&mut groups).zip(&mut tags) {
            let mut v = [self.init_state(); BATCH_LANES];
            for (((&a, &b), &c), &d) in g[0].iter().zip(&g[1]).zip(&g[2]).zip(&g[3]) {
                compress_lanes(&mut v, [a, b, c, d]);
            }
            t.copy_from_slice(&v.map(|lane| Self::finalize(lane, last)));
        }
        for (row, t) in groups.remainder().iter().zip(tags.into_remainder()) {
            *t = self.hash_words(row);
        }
    }

    #[inline]
    fn init_state(&self) -> [u64; 4] {
        [
            self.k0 ^ 0x736f6d6570736575,
            self.k1 ^ 0x646f72616e646f6d,
            self.k0 ^ 0x6c7967656e657261,
            self.k1 ^ 0x7465646279746573,
        ]
    }

    #[inline]
    fn finalize(mut v: [u64; 4], last: u64) -> u64 {
        v[3] ^= last;
        sipround(&mut v);
        sipround(&mut v);
        v[0] ^= last;
        v[2] ^= 0xff;
        for _ in 0..4 {
            sipround(&mut v);
        }
        v[0] ^ v[1] ^ v[2] ^ v[3]
    }
}

#[inline]
fn compress(v: &mut [u64; 4], m: u64) {
    v[3] ^= m;
    sipround(v);
    sipround(v);
    v[0] ^= m;
}

/// Lanes the batched kernels interleave. Four keeps the working set (16
/// `u64`s of state) in registers while giving the out-of-order core enough
/// independent sipround chains to hide each chain's latency.
pub const BATCH_LANES: usize = 4;

/// One compression step applied to every lane; the per-lane rounds carry
/// no cross-lane dependency, so the unrolled loop bodies overlap.
#[inline]
fn compress_lanes(v: &mut [[u64; 4]; BATCH_LANES], m: [u64; BATCH_LANES]) {
    for (lane, &word) in v.iter_mut().zip(&m) {
        lane[3] ^= word;
    }
    for lane in v.iter_mut() {
        sipround(lane);
        sipround(lane);
    }
    for (lane, &word) in v.iter_mut().zip(&m) {
        lane[0] ^= word;
    }
}

/// Incremental word-oriented SipHash-2-4 state; see [`SipHash24::words`].
///
/// Words enter the compression function directly (a word's little-endian
/// bytes are exactly one SipHash block), so streaming needs no byte
/// buffer at all.
#[derive(Debug, Clone)]
pub struct SipWordStream {
    v: [u64; 4],
    count: u64,
}

impl SipWordStream {
    /// Appends one word to the message.
    #[inline]
    pub fn push(&mut self, word: u64) {
        compress(&mut self.v, word);
        self.count += 1;
    }

    /// Completes the hash over everything pushed so far.
    #[must_use]
    pub fn finish(self) -> u64 {
        // The byte message is `count * 8` long with no trailing partial
        // block, so the final SipHash block carries only the length.
        SipHash24::finalize(self.v, ((self.count * 8) & 0xff) << 56)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference test vector from the SipHash paper (Appendix A):
    /// key = 000102...0f, message = 000102...0e (15 bytes),
    /// SipHash-2-4 output = 0xa129ca6149be45e5.
    #[test]
    fn reference_vector() {
        let key: [u8; 16] = [
            0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d,
            0x0e, 0x0f,
        ];
        let msg: Vec<u8> = (0u8..15).collect();
        let h = SipHash24::from_key_bytes(&key);
        assert_eq!(h.hash(&msg), 0xa129ca6149be45e5);
    }

    /// First entries of the official SipHash-2-4 64-bit test-vector table
    /// (vectors for messages 0x00.., of increasing length, same key).
    #[test]
    fn official_vector_table_prefix() {
        const VECTORS: [u64; 8] = [
            0x726fdb47dd0e0e31,
            0x74f839c593dc67fd,
            0x0d6c8009d9a94f5a,
            0x85676696d7fb7e2d,
            0xcf2794e0277187b7,
            0x18765564cd99a68d,
            0xcbc9466e58fee3ce,
            0xab0200f58b01d137,
        ];
        let key: [u8; 16] = [
            0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d,
            0x0e, 0x0f,
        ];
        let h = SipHash24::from_key_bytes(&key);
        for (len, &expect) in VECTORS.iter().enumerate() {
            let msg: Vec<u8> = (0..len as u8).collect();
            assert_eq!(h.hash(&msg), expect, "length {len}");
        }
    }

    #[test]
    fn deterministic_and_key_sensitive() {
        let a = SipHash24::new(1, 2);
        let b = SipHash24::new(1, 3);
        assert_eq!(a.hash(b"x"), a.hash(b"x"));
        assert_ne!(a.hash(b"x"), b.hash(b"x"));
    }

    #[test]
    fn length_extension_distinguished() {
        // Same bytes, different length must hash differently (length is
        // folded into the final block).
        let h = SipHash24::new(42, 43);
        assert_ne!(h.hash(&[0u8; 8]), h.hash(&[0u8; 9]));
        assert_ne!(h.hash(&[]), h.hash(&[0u8]));
    }

    #[test]
    fn hash_words_matches_manual_encoding() {
        let h = SipHash24::new(5, 6);
        let words = [0xdead_beefu64, 0x1234_5678_9abc_def0];
        let mut bytes = Vec::new();
        for w in words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        assert_eq!(h.hash_words(&words), h.hash(&bytes));
    }

    #[test]
    fn hash_parts_matches_concatenation() {
        let h = SipHash24::new(9, 10);
        let msg: Vec<u8> = (0u8..=97).collect();
        // Every two-way split, including empty parts.
        for cut in 0..=msg.len() {
            assert_eq!(
                h.hash_parts(&[&msg[..cut], &msg[cut..]]),
                h.hash(&msg),
                "split at {cut}"
            );
        }
        // A many-part split with awkward (non-word) boundaries.
        assert_eq!(
            h.hash_parts(&[&msg[..3], &[], &msg[3..20], &msg[20..21], &msg[21..]]),
            h.hash(&msg)
        );
        assert_eq!(h.hash_parts(&[]), h.hash(&[]));
    }

    #[test]
    fn word_stream_matches_hash_words() {
        let h = SipHash24::new(11, 12);
        // Lengths straddling the 256-byte length wraparound (len & 0xff).
        for n in [0usize, 1, 2, 7, 31, 32, 33, 64] {
            let words: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9e37)).collect();
            let mut s = h.words();
            for &w in &words {
                s.push(w);
            }
            let mut bytes = Vec::new();
            for w in &words {
                bytes.extend_from_slice(&w.to_le_bytes());
            }
            assert_eq!(s.finish(), h.hash(&bytes), "{n} words");
        }
    }

    #[test]
    fn hash_words_batch_matches_scalar() {
        let h = SipHash24::new(23, 24);
        // 10-word rows (merkle node width) at counts that exercise full
        // lane groups plus every remainder size.
        for count in 0..=9usize {
            let rows: Vec<[u64; 10]> = (0..count)
                .map(|r| std::array::from_fn(|i| (r * 17 + i) as u64 ^ 0xABCD))
                .collect();
            let batched = batch(&h, &rows);
            let scalar: Vec<u64> = rows.iter().map(|row| h.hash_words(row)).collect();
            assert_eq!(batched, scalar, "{count} rows");
        }
        // Width with a non-zero tail interaction in the length byte.
        let rows: Vec<[u64; 4]> = (0..5).map(|r| [r, r + 1, r + 2, r + 3]).collect();
        assert_eq!(
            batch(&h, &rows),
            rows.iter().map(|row| h.hash_words(row)).collect::<Vec<_>>()
        );
    }

    /// The batch kernel's tags as a vector.
    fn batch<const W: usize>(h: &SipHash24, rows: &[[u64; W]]) -> Vec<u64> {
        let mut out = vec![0; rows.len()];
        h.hash_words_batch(rows, &mut out);
        out
    }

    /// Tiny deterministic generator for differential-test row corpora
    /// (the workspace has no external RNG crate).
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// `siphash_simd`: the dispatched batch kernel (AVX2 where the CPU has
    /// it), the forced-fallback scalar kernel, and serial `hash_words`
    /// must agree bit-for-bit on random rows at every remainder size.
    #[test]
    fn siphash_simd_matches_scalar_oracle_on_random_rows() {
        let fast = SipHash24::new(0x5eed_f00d, 0x0ddc_0ffe);
        let soft = SipHash24::new_soft(0x5eed_f00d, 0x0ddc_0ffe);
        assert_eq!(soft.backend(), SipBackend::Scalar);
        let mut s = 0x1234_5678_dead_beefu64;
        for count in [0usize, 1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 37, 101] {
            let rows: Vec<[u64; 10]> = (0..count)
                .map(|_| std::array::from_fn(|_| xorshift(&mut s)))
                .collect();
            let serial: Vec<u64> = rows.iter().map(|r| fast.hash_words(r)).collect();
            assert_eq!(batch(&fast, &rows), serial, "{count} rows dispatched");
            assert_eq!(batch(&soft, &rows), serial, "{count} rows forced-soft");
        }
    }

    /// `siphash_simd`: width is a const generic, so cover several widths
    /// including zero-word rows and a width whose byte length exercises a
    /// different final length block.
    #[test]
    fn siphash_simd_matches_scalar_oracle_across_widths() {
        let fast = SipHash24::new(77, 78);
        let soft = SipHash24::new_soft(77, 78);
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        macro_rules! check_width {
            ($w:literal) => {
                let rows: Vec<[u64; $w]> = (0..11)
                    .map(|_| std::array::from_fn(|_| xorshift(&mut s)))
                    .collect();
                let serial: Vec<u64> = rows.iter().map(|r| fast.hash_words(r)).collect();
                assert_eq!(batch(&fast, &rows), serial, "width {}", $w);
                assert_eq!(batch(&soft, &rows), serial, "width {} soft", $w);
            };
        }
        check_width!(0);
        check_width!(1);
        check_width!(2);
        check_width!(4);
        check_width!(12);
        check_width!(33);
    }

    /// The `sip_simd_rows` accounting helper matches the grouping rule the
    /// batch kernel actually uses: full lane groups on the vector backend,
    /// nothing on the scalar one.
    #[test]
    fn simd_rows_accounting_matches_grouping() {
        let fast = SipHash24::new(1, 2);
        let soft = SipHash24::new_soft(1, 2);
        for n in 0..=9usize {
            assert_eq!(soft.simd_rows_of(n), 0, "soft {n}");
            let expect = match fast.backend() {
                SipBackend::SimdAvx2 => (n - n % BATCH_LANES) as u64,
                SipBackend::Scalar => 0,
            };
            assert_eq!(fast.simd_rows_of(n), expect, "dispatched {n}");
        }
    }

    #[test]
    fn avalanche_on_single_bit_flip() {
        let h = SipHash24::new(7, 8);
        let base = h.hash(&[0u8; 32]);
        let mut flipped = [0u8; 32];
        flipped[17] = 0x10;
        let other = h.hash(&flipped);
        let differing = (base ^ other).count_ones();
        assert!(differing > 16, "weak diffusion: only {differing} bits differ");
    }
}
