//! WHISPER-style persistent-memory workloads (Section V-A of the paper).
//!
//! The paper evaluates Thoth with four database benchmarks from the
//! WHISPER suite plus an in-house *Random Array Swap*. This crate
//! re-implements that workload set from scratch as real data structures
//! operating on a simulated persistent heap:
//!
//! * [`btree`] — a B-tree keyed by `u64` with blob values,
//! * [`rbtree`] — a red-black tree (scattered small updates from
//!   rotations and recoloring),
//! * [`hashmap`] — a chained hash table,
//! * [`ctree`] — a crit-bit (radix) tree, WHISPER's `ctree`,
//! * [`swap`] — the in-house benchmark: each transaction swaps a
//!   transaction-sized segment between two contiguous arrays.
//!
//! Every workload runs inside an undo-logging transaction runtime
//! ([`runtime::TxRuntime`]) that emits a *persistent-store trace*: the
//! exact sequence of persistent stores (log appends, data writes, commit
//! records) and read accesses each transaction performs, with transaction
//! barriers. The full-system simulator replays these traces through the
//! secure-memory pipeline; transaction size is command-line configurable
//! exactly as in the paper (128/512/1024/2048 B).

#![warn(missing_docs)]

pub mod btree;
pub mod corpus;
pub mod ctree;
pub mod fuzz;
pub mod hashmap;
pub mod heap;
pub mod queue;
pub mod rbtree;
pub mod runtime;
pub mod service;
pub mod spec;
pub mod swap;
pub mod trace_io;

pub use corpus::{BugSite, RaceAlignment, SeededBug, SeededVariant};
pub use fuzz::{generate_fuzz, FuzzSpec};
pub use heap::PersistentHeap;
pub use runtime::{
    AnnotatedTrace, CoreTrace, MultiCoreTrace, OpClass, TraceOp, TxRuntime, DATA_REGION_BYTES,
};
pub use service::{
    generate_service, MixKind, MixStats, ReqKind, RequestMeta, ServiceSpec, ServiceTrace,
};
pub use spec::{WorkloadConfig, WorkloadKind};

// Trace import/export lives in [`trace_io`].
