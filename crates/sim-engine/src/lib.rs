//! Simulation kernel used by every Thoth substrate.
//!
//! This crate provides the deterministic foundations that the NVM device
//! model, memory controller, and full-system simulator are built on:
//!
//! * [`Cycle`] — a strongly-typed simulation timestamp with nanosecond
//!   conversions at a configurable clock frequency,
//! * [`fastmap`] — deterministic multiplicative hashing ([`FastMap`],
//!   [`FastSet`]) for the simulator's address-keyed hot maps,
//! * [`rng`] — a deterministic, seedable random-number generator so every
//!   experiment in the paper reproduction is bit-for-bit repeatable.
//!
//! There is no event queue: the replay loop picks the next core by an
//! argmin scan over per-core wake-up cycles, and each NVM bank keeps the
//! cycle it is busy until (DESIGN.md §3.5).
//!
//! # Example
//!
//! ```
//! use thoth_sim_engine::{Cycle, Frequency};
//!
//! // A 500 ns PCM write issued at cycle 100 holds its bank until 2100.
//! let busy_until = Cycle(100) + Frequency::ghz(4).ns_to_cycles(500);
//! assert_eq!(busy_until, Cycle(2100));
//! // A later access to that bank starts once the bank is free.
//! assert_eq!(Cycle(150).max(busy_until), Cycle(2100));
//! ```

#![warn(missing_docs)]

pub mod clock;
pub mod fastmap;
pub mod rng;

pub use clock::{Cycle, Frequency};
pub use fastmap::{FastMap, FastSet};
pub use rng::DetRng;
