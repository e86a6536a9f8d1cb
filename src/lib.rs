//! **thoth-repro** — a from-scratch Rust reproduction of
//! *Thoth: Bridging the Gap Between Persistently Secure Memories and
//! Memory Interfaces of Emerging NVMs* (Han, Tuck, Awad — HPCA 2023).
//!
//! Emerging NVM interfaces (DDR-T, CXL memory, DDR5 with on-die ECC) have
//! no host-visible ECC bits, so a crash-consistent secure memory can no
//! longer co-locate its encryption counters and MACs with data — it would
//! need two extra full-block writes per persistent store. Thoth replaces
//! those with 105-bit *partial updates* packed into a large persistent
//! FIFO in NVM (the PUB), combined on-chip in reserved ADR-backed WPQ
//! entries (the PCB), and filtered at eviction time by the WTSC/WTBC
//! policies so that almost no buffered update ever needs a metadata block
//! persist of its own.
//!
//! This facade crate re-exports the workspace:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`sim_engine`] | simulation kernel: cycles, fast maps, RNG |
//! | [`crypto`] | AES-128, counter-mode encryption, split counters, SipHash MACs |
//! | [`cache`] | set-associative write-back caches with subblock dirty masks |
//! | [`nvm`] | banked PCM device model + sparse functional store |
//! | [`merkle`] | Bonsai Merkle Tree + Anubis shadow tracking |
//! | [`memctrl`] | the ADR write-pending queue |
//! | [`core`] | **the paper's contribution**: PUB, PCB, WTSC/WTBC, recovery model |
//! | [`workloads`] | WHISPER-style persistent benchmarks |
//! | [`sim`] | the full-system machine (baseline / Thoth / ideal-Anubis) |
//! | [`experiments`] | regenerators for every table and figure |
//!
//! # Quickstart
//!
//! ```
//! use thoth_repro::sim::{run_trace, Mode, SimConfig};
//! use thoth_repro::workloads::{spec, WorkloadConfig, WorkloadKind};
//!
//! // Generate a (tiny) ctree workload trace and compare the baseline
//! // against Thoth.
//! let trace = spec::generate(
//!     WorkloadConfig::paper_default(WorkloadKind::Ctree).scaled(0.005),
//! );
//! let baseline = run_trace(&SimConfig::paper_default(Mode::baseline(), 128), &trace);
//! let thoth = run_trace(&SimConfig::paper_default(Mode::thoth_wtsc(), 128), &trace);
//!
//! assert!(thoth.writes_total() < baseline.writes_total());
//! ```

#![warn(missing_docs)]

pub use thoth_cache as cache;
pub use thoth_core as core;
pub use thoth_crypto as crypto;
pub use thoth_experiments as experiments;
pub use thoth_memctrl as memctrl;
pub use thoth_merkle as merkle;
pub use thoth_nvm as nvm;
pub use thoth_sim as sim;
pub use thoth_sim_engine as sim_engine;
pub use thoth_workloads as workloads;
