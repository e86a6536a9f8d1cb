//! Discrete-event simulation kernel used by every Thoth substrate.
//!
//! This crate provides the deterministic foundations that the NVM device
//! model, memory controller, and full-system simulator are built on:
//!
//! * [`Cycle`] — a strongly-typed simulation timestamp with nanosecond
//!   conversions at a configurable clock frequency,
//! * [`CoalescedEventQueue`] — the NVM bank-completion queue, merging
//!   same-cycle lanes into one bitmask entry ([`HeapEventQueue`], a
//!   stable-order heap queue, is its reference implementation),
//! * [`fastmap`] — deterministic multiplicative hashing ([`FastMap`],
//!   [`FastSet`]) for the simulator's address-keyed hot maps,
//! * [`rng`] — a deterministic, seedable random-number generator so every
//!   experiment in the paper reproduction is bit-for-bit repeatable.
//!
//! # Example
//!
//! ```
//! use thoth_sim_engine::{Cycle, HeapEventQueue};
//!
//! let mut q: HeapEventQueue<&'static str> = HeapEventQueue::new();
//! q.schedule(Cycle(20), "late");
//! q.schedule(Cycle(10), "early");
//! q.schedule(Cycle(10), "early-second"); // same cycle: FIFO order
//!
//! assert_eq!(q.pop(), Some((Cycle(10), "early")));
//! assert_eq!(q.pop(), Some((Cycle(10), "early-second")));
//! assert_eq!(q.pop(), Some((Cycle(20), "late")));
//! assert_eq!(q.pop(), None);
//! ```

#![warn(missing_docs)]

pub mod clock;
pub mod events;
pub mod fastmap;
pub mod rng;

pub use clock::{Cycle, Frequency};
pub use events::{CoalescedEventQueue, HeapEventQueue};
pub use fastmap::{FastMap, FastSet};
pub use rng::DetRng;
