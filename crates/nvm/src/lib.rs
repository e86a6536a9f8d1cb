//! Banked non-volatile memory device model.
//!
//! Models the paper's "DDR-based PCM" main memory (Table I): 32 GB
//! ([`CAPACITY_BYTES`]), 150 ns reads ([`READ_NS`]), 500 ns writes
//! ([`WRITE_NS`]), with bank-level parallelism over [`NUM_BANKS`] banks.
//! The device plays two roles at once:
//!
//! * **Functional**: a sparse, block-granular backing store holding the
//!   *real bytes* of ciphertexts, counter blocks, MAC blocks, Merkle-tree
//!   nodes and the PUB region — this is the persistence domain that
//!   survives a simulated crash.
//! * **Timing**: per-bank busy tracking that converts the stream of reads
//!   and writes issued by the memory controller into completion cycles.
//!   Write bandwidth contention is the mechanism that turns Thoth's write
//!   reduction into speedup, so banks model writes occupying the bank for
//!   the full write latency.
//!
//! Every write is tagged with a [`WriteCategory`]; the per-category counts
//! are what Figure 9 and Table II of the paper report. A [`wear`] tracker
//! accumulates per-block write counts for the lifetime claims.

#![warn(missing_docs)]

pub mod category;
pub mod device;
pub mod fault;
pub mod wear;

pub use category::WriteCategory;
pub use device::{
    NvmDevice, CAPACITY_BYTES, NUM_BANKS, READ_CYCLES, READ_NS, WRITE_CYCLES, WRITE_NS,
};
pub use fault::FaultConfig;
pub use wear::WearTracker;
