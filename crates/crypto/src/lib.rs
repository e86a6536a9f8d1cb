//! Cryptographic substrate for the Thoth secure-NVM reproduction.
//!
//! Secure memory (Section II-A of the paper) needs three primitives, all
//! implemented here from scratch:
//!
//! * [`aes`] — AES-128 block cipher (FIPS-197), used as the pad generator
//!   for counter-mode memory encryption,
//! * [`ctr`] — counter-mode encryption of memory blocks from an IV built
//!   from the block address and its split counter (Figure 1 of the paper),
//! * [`siphash`] — SipHash-2-4, the keyed 64-bit PRF used for MACs and
//!   Bonsai-Merkle-Tree node hashes,
//! * [`mac`] — the two-level MAC scheme of Section IV-A: an 8-to-1
//!   first-level MAC over the ciphertext (16 B per 128 B block) and the 8 B
//!   second-level MAC stored in partial-update entries,
//! * [`counter`] — split encryption counters (64-bit major + 7-bit minor,
//!   Yan et al. \[11\]) with overflow detection and block packing.
//!
//! Functional simulation runs these algorithms for real so that crash
//! recovery and tamper detection are genuinely exercised; the timing model
//! charges the fixed latencies of the paper's Table I ([`AES_CYCLES`],
//! [`HASH_CYCLES`]) independently of software cost.

#![warn(missing_docs)]

/// AES engine latency in core cycles (Table I: 40).
pub const AES_CYCLES: u64 = 40;
/// Hash/MAC engine latency in core cycles per hash (Table I: 40).
pub const HASH_CYCLES: u64 = 40;

pub mod aes;
pub mod counter;
pub mod ctr;
pub mod mac;
pub mod siphash;

pub use aes::{Aes128, AesBackend};
pub use counter::{CounterBlock, CounterGroup, MINOR_COUNTER_BITS, MINOR_COUNTER_MAX};
pub use ctr::{BlockCipherPad, CtrMode};
pub use mac::{MacEngine, MacKey};
pub use siphash::{SipBackend, SipHash24, SipWordStream};
