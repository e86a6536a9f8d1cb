//! A tiny, fully deterministic property-test harness.
//!
//! The build environment for this repository has no registry access, so
//! `proptest` cannot be resolved; this crate provides the small subset the
//! test suites actually need: a seedable generator of random-ish values and
//! a case-runner that reports the failing case's seed so a failure can be
//! replayed in isolation.
//!
//! Unlike `proptest` there is no shrinking — cases are small enough here
//! that the failing input is directly debuggable, and every case is
//! reproducible from `(SEED, case index)` alone.
//!
//! # Example
//!
//! ```
//! use thoth_testkit::check;
//!
//! check(64, |rng| {
//!     let x = rng.u64();
//!     assert_eq!(x.wrapping_add(1).wrapping_sub(1), x);
//! });
//! ```

#![allow(clippy::print_stdout, clippy::print_stderr, reason = "prints seeds")]

/// Deterministic generator used by all property tests (SplitMix64 core —
/// a distinct algorithm from the simulator's own RNG, so tests do not
/// accidentally depend on the engine they are testing).
pub struct Gen {
    state: u64,
}

impl Gen {
    /// Creates a generator from a seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Gen {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Next raw 64-bit value (SplitMix64).
    pub fn u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Multiply-shift bounded sampling; bias is negligible for test use.
        ((u128::from(self.u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.below(hi - lo)
    }

    /// Uniform usize in `[lo, hi)`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range(lo as u64, hi as u64) as usize
    }

    /// A random byte.
    pub fn u8(&mut self) -> u8 {
        self.u64() as u8
    }

    /// A random bool.
    pub fn bool(&mut self) -> bool {
        self.u64() & 1 == 1
    }

    /// A random byte array.
    pub fn bytes<const N: usize>(&mut self) -> [u8; N] {
        let mut out = [0u8; N];
        self.fill(&mut out);
        out
    }

    /// Fills a slice with random bytes.
    pub fn fill(&mut self, out: &mut [u8]) {
        for chunk in out.chunks_mut(8) {
            let w = self.u64().to_le_bytes();
            chunk.copy_from_slice(&w[..chunk.len()]);
        }
    }

    /// A random byte vector of length `len`.
    pub fn byte_vec(&mut self, len: usize) -> Vec<u8> {
        let mut v = vec![0u8; len];
        self.fill(&mut v);
        v
    }

    /// A vector of `gen(self)` values with a length in `[min_len, max_len)`.
    pub fn vec_of<T>(
        &mut self,
        min_len: usize,
        max_len: usize,
        mut gen: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        let len = self.range_usize(min_len, max_len);
        (0..len).map(|_| gen(self)).collect()
    }
}

/// Base seed mixed into every case; changing it reshuffles all suites.
pub const SEED: u64 = 0x7407_7E57_2026_0807;

/// Runs `cases` independent property checks, each with its own
/// deterministically derived generator. On failure the panic message names
/// the case index so `case(idx, f)` replays exactly that input.
pub fn check(cases: u64, mut property: impl FnMut(&mut Gen)) {
    for i in 0..cases {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut g = Gen::new(SEED ^ i.wrapping_mul(0x2545_f491_4f6c_dd1d));
            property(&mut g);
        }));
        if let Err(cause) = result {
            eprintln!("thoth-testkit: property failed at case {i}/{cases} (replay with thoth_testkit::case({i}, ..))");
            std::panic::resume_unwind(cause);
        }
    }
}

/// Replays one case of [`check`] — handy while debugging a failure.
pub fn case(index: u64, mut property: impl FnMut(&mut Gen)) {
    let mut g = Gen::new(SEED ^ index.wrapping_mul(0x2545_f491_4f6c_dd1d));
    property(&mut g);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Gen::new(7);
        let mut b = Gen::new(7);
        for _ in 0..32 {
            assert_eq!(a.u64(), b.u64());
        }
    }

    #[test]
    fn below_stays_in_bounds() {
        let mut g = Gen::new(1);
        for bound in [1u64, 2, 3, 7, 100, 1 << 40] {
            for _ in 0..100 {
                assert!(g.below(bound) < bound);
            }
        }
    }

    #[test]
    fn range_covers_small_domains() {
        let mut g = Gen::new(2);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[g.range(0, 4) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn vec_of_respects_length_bounds() {
        let mut g = Gen::new(3);
        for _ in 0..50 {
            let v = g.vec_of(2, 10, Gen::u64);
            assert!((2..10).contains(&v.len()));
        }
    }

    #[test]
    fn check_runs_every_case() {
        let mut n = 0;
        check(17, |_| n += 1);
        assert_eq!(n, 17);
    }

    #[test]
    fn fill_covers_unaligned_lengths() {
        let mut g = Gen::new(4);
        let v = g.byte_vec(13);
        assert_eq!(v.len(), 13);
        assert!(v.iter().any(|&b| b != 0), "all-zero 13 bytes is vanishingly unlikely");
    }
}
