//! Full-system secure-NVM simulator composing every substrate.
//!
//! This crate wires the pieces together into the machine of the paper's
//! Table I: 4 cores issuing persistent transactions into a secure memory
//! controller (counter-mode encryption, two-level MACs, Bonsai Merkle
//! Tree, counter/MAC/MT caches), an ADR-backed WPQ, and a banked PCM
//! device. [`SimConfig`] holds what the experiments vary; every fixed
//! Table I value is a constant in the crate that uses it (the cache
//! geometries and core timing in [`config`], the clock in
//! `thoth-sim-engine`, the PCM in `thoth-nvm`, the AES and hash engines
//! in `thoth-crypto`). The machine runs one of the eight modes in
//! [`Mode::ALL`]; the paper's three are:
//!
//! * [`Mode::Baseline`] — Anubis adapted to emerging interfaces: strict
//!   persistence of the full counter and MAC blocks with every data write
//!   (no ECC bits to hide metadata in), WPQ coalescing with 50% drain.
//! * [`Mode::Thoth`] — the paper's contribution: partial updates combined
//!   in the PCB, buffered in the PUB, filtered at eviction by WTSC/WTBC.
//! * [`Mode::AnubisEcc`] — the hypothetical ideal of Section V-F: ECC bits
//!   still exist, so metadata co-locates with data for free.
//!
//! The simulator is execution-driven (it replays real workload traces
//! from `thoth-workloads`), functionally faithful (real AES/MAC bytes in
//! [`FunctionalMode::Full`]), and crash-testable: [`machine::SecureNvm::crash`]
//! drops volatile state and ADR-flushes the persistence domain, and
//! [`machine::SecureNvm::recover`] runs the Section IV-D recovery — PUB
//! merge, tree reconstruction, root verification.

#![warn(missing_docs)]

pub mod config;
pub mod crash;
pub mod diagnostics;
pub mod layout;
pub mod machine;
pub(crate) mod mechanism;
pub mod psan_events;
pub mod report;
pub mod service;
mod tap;
pub mod telemetry;

pub use config::{FunctionalMode, Mode, PcbArrangement, SimConfig};
pub use crash::{CrashPlan, CrashSiteCounts, CrashSiteKind, LoggedOp};
pub use diagnostics::{byte_digest, CrashDiagnostics, Fnv1a, LeafMismatch, MacMismatch};
pub use layout::MemoryLayout;
pub use machine::{SecureNvm, WarmBoot};
pub use psan_events::{MetaMech, PersistEvent, PersistEventKind, NO_CTX};
pub use report::{matrix_digest, MatrixRuns, RecoveryReport, SimReport};
pub use service::ServiceReport;
pub use thoth_telemetry::{TelemetryConfig, TelemetryReport};
// Acceptance events embed the NVM write category; re-export it so event
// consumers need no direct thoth-nvm dependency.
pub use thoth_nvm::WriteCategory;

use thoth_workloads::MultiCoreTrace;

/// Convenience: builds a machine, replays `trace`, returns the report.
///
/// # Example
///
/// ```
/// use thoth_sim::{run_trace, Mode, SimConfig};
/// use thoth_workloads::{spec, WorkloadConfig, WorkloadKind};
///
/// let trace = spec::generate(
///     WorkloadConfig::paper_default(WorkloadKind::Ctree).scaled(0.005),
/// );
/// let report = run_trace(&SimConfig::paper_default(Mode::baseline(), 128), &trace);
/// assert!(report.total_cycles > 0);
/// assert!(report.writes_total() > 0);
/// ```
#[must_use]
pub fn run_trace(config: &SimConfig, trace: &MultiCoreTrace) -> SimReport {
    let mut machine = SecureNvm::new(config.clone());
    machine.run(trace)
}
