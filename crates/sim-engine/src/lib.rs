//! Simulation kernel used by every Thoth substrate.
//!
//! This crate provides the deterministic foundations that the NVM device
//! model, memory controller, and full-system simulator are built on:
//!
//! * [`Cycle`] — a strongly-typed simulation timestamp, counted at the
//!   paper's 4 GHz clock ([`CYCLES_PER_NS`]),
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
//! use thoth_sim_engine::{Cycle, CYCLES_PER_NS};
//!
//! // A 50 ns bank access issued at cycle 100 holds its bank until 300.
//! let busy_until = Cycle(100) + 50 * CYCLES_PER_NS;
//! assert_eq!(busy_until, Cycle(300));
//! // A later access to that bank starts once the bank is free.
//! assert_eq!(Cycle(150).max(busy_until), Cycle(300));
//! ```

#![warn(missing_docs)]

pub mod clock;
pub mod fastmap;
pub mod rng;

pub use clock::{cycles_to_secs, Cycle, CYCLES_PER_NS};
pub use fastmap::{FastMap, FastSet};
pub use rng::DetRng;
