//! Memory-controller model: the ADR-backed write-pending queue (WPQ).
//!
//! Persistent-memory platforms guarantee that a small buffer inside the
//! memory controller — the WPQ — is flushed to NVM by residual power on a
//! crash (Asynchronous DRAM Refresh, Section II-B of the paper). A store is
//! therefore *persistent* the moment it is accepted into the WPQ, which is
//! the paper's (and Intel's) persistence-domain boundary.
//!
//! The model captures the three behaviours the evaluation depends on:
//!
//! * **Coalescing** — a write to a block already pending (and not yet
//!   committed to a drain) merges in place. The baseline machine drains at
//!   50% occupancy precisely so that metadata writes to the same block
//!   arriving close in time coalesce (Section V-A).
//! * **Back-pressure** — when the WPQ is full, the inserting core stalls
//!   until a drain completes; this is how NVM write-bandwidth savings
//!   become speedup.
//! * **ADR flush** — on a crash, every pending entry is written to NVM
//!   functionally.

#![warn(missing_docs)]

pub mod wpq;

pub use wpq::{Wpq, WpqEvent, WpqStats};
