//! Workload selection and multi-core trace generation.
//!
//! Mirrors the paper's setup (Section V-A): 4 cores, each running its own
//! instance of the benchmark for at least 5000 warm-up transactions before
//! measurement, with command-line-configurable transaction sizes.

use crate::btree::BTree;
use crate::ctree::CritBitTree;
use crate::hashmap::HashMapPm;
use crate::rbtree::RbTree;
use crate::runtime::{AnnotatedTrace, MultiCoreTrace, TxRuntime};
use crate::{queue, service, swap};
use thoth_sim_engine::DetRng;

/// The five benchmarks of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// B-tree (whole-node rewrites + blob values).
    Btree,
    /// Red-black tree (scattered 8 B rebalancing stores).
    Rbtree,
    /// Chained hash table (spatially uniform bucket updates).
    Hashmap,
    /// Crit-bit tree (concentrated single-pointer splices).
    Ctree,
    /// Random array swap (tiny footprint; the paper's outlier).
    Swap,
    /// Persistent ring queue — an extension beyond the paper's suite
    /// (not part of [`WorkloadKind::ALL`], which is the paper's set).
    Queue,
    /// Multi-tenant KV service core (closed-loop form of the open-loop
    /// [`crate::service`] subsystem: per-core tenant tables, YCSB-A mix,
    /// Zipfian keys) — an extension beyond the paper's suite.
    Service,
}

impl WorkloadKind {
    /// The paper's five workloads, in its reporting order. The extension
    /// workloads live in [`WorkloadKind::EXTENDED`].
    pub const ALL: [WorkloadKind; 5] = [
        WorkloadKind::Btree,
        WorkloadKind::Rbtree,
        WorkloadKind::Hashmap,
        WorkloadKind::Ctree,
        WorkloadKind::Swap,
    ];

    /// The paper's workloads plus this repository's extensions.
    pub const EXTENDED: [WorkloadKind; 7] = [
        WorkloadKind::Btree,
        WorkloadKind::Rbtree,
        WorkloadKind::Hashmap,
        WorkloadKind::Ctree,
        WorkloadKind::Swap,
        WorkloadKind::Queue,
        WorkloadKind::Service,
    ];

    /// Stable lowercase name used in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Btree => "btree",
            WorkloadKind::Rbtree => "rbtree",
            WorkloadKind::Hashmap => "hashmap",
            WorkloadKind::Ctree => "ctree",
            WorkloadKind::Swap => "swap",
            WorkloadKind::Queue => "queue",
            WorkloadKind::Service => "service",
        }
    }

    /// Parses a name produced by [`Self::name`].
    #[must_use]
    pub fn from_name(name: &str) -> Option<WorkloadKind> {
        WorkloadKind::EXTENDED.into_iter().find(|k| k.name() == name)
    }
}

impl std::fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration of one trace-generation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadConfig {
    /// Which benchmark.
    pub kind: WorkloadKind,
    /// Simulated cores, each running an independent instance (4 in the
    /// paper).
    pub cores: usize,
    /// Warm-up transactions per core (traced but excluded from measured
    /// statistics; also used to pre-fill the PUB as the paper does).
    pub warmup_txs_per_core: usize,
    /// Measured transactions per core.
    pub txs_per_core: usize,
    /// Transaction size in bytes (128/512/1024/2048 in the paper).
    pub tx_size: usize,
    /// Keyspace size (trees/hashmap) or array slots (swap): bounds the
    /// persistent footprint.
    pub footprint: u64,
    /// Untraced pre-population inserts per core (the database-loading
    /// phase); ignored by `swap`, whose arrays are created untraced.
    pub prepopulate: u64,
    /// Per-mille of transactions that *delete* the drawn key instead of
    /// inserting/updating it (0 = the paper's insert/update-only mix;
    /// a transaction whose delete target is absent inserts instead, so
    /// every transaction stays mutating). Ignored by `swap`.
    pub delete_per_mille: u16,
    /// RNG seed; every run is fully deterministic.
    pub seed: u64,
}

impl WorkloadConfig {
    /// A paper-flavoured default: 4 cores, 128 B transactions.
    ///
    /// Footprints are per-workload: the tree/hash workloads use keyspaces
    /// large enough to overflow the secure metadata caches (as WHISPER's
    /// databases do); swap stays tiny by design.
    #[must_use]
    pub fn paper_default(kind: WorkloadKind) -> Self {
        // Swap exchanges two contiguous arrays of transaction size: the
        // paper stresses it "touches few memory locations", so its
        // footprint is a handful of slots; the database workloads use
        // keyspaces large enough to overflow the secure metadata caches.
        let footprint = match kind {
            WorkloadKind::Swap => 4,
            WorkloadKind::Queue => 1024,
            WorkloadKind::Service => 16_384,
            _ => 200_000,
        };
        WorkloadConfig {
            kind,
            cores: 4,
            warmup_txs_per_core: 1000,
            txs_per_core: 2000,
            tx_size: 128,
            footprint,
            prepopulate: footprint / 2,
            delete_per_mille: 0,
            seed: 0xC0FFEE,
        }
    }

    /// Scales transaction counts by `f` (quick test/bench variants).
    #[must_use]
    pub fn scaled(mut self, f: f64) -> Self {
        self.warmup_txs_per_core = ((self.warmup_txs_per_core as f64 * f) as usize).max(1);
        self.txs_per_core = ((self.txs_per_core as f64 * f) as usize).max(1);
        self
    }

    /// The paper default for `kind` with transaction counts scaled by
    /// `scale` — the configuration the experiment harness and the crash
    /// sweeps generate from. Below scale 0.1 (quick runs) the footprint
    /// and pre-population shrink too, so trace generation stays fast.
    #[must_use]
    pub fn at_scale(kind: WorkloadKind, scale: f64) -> Self {
        let mut cfg = WorkloadConfig::paper_default(kind).scaled(scale);
        if scale < 0.1 {
            cfg.footprint = match kind {
                WorkloadKind::Swap => 4,
                WorkloadKind::Queue => 32,
                _ => 10_000,
            };
            cfg.prepopulate = cfg.footprint / 2;
        }
        cfg
    }
}

/// Base heap address for core `i`: cores are ≈1 GiB apart so their data
/// never shares memory blocks (independent instances, as in the paper),
/// staggered by an odd number of blocks so that the cores' identically
/// structured heaps (logs, commit records) do not alias onto the same
/// NVM banks.
pub(crate) fn core_heap_base(core: usize) -> u64 {
    0x1000_0000 + core as u64 * ((1 << 30) + 37 * 128)
}

/// Generates the multi-core persistent-store trace for `config`.
///
/// # Example
///
/// ```
/// use thoth_workloads::{WorkloadConfig, WorkloadKind};
/// use thoth_workloads::spec::generate;
///
/// let mut cfg = WorkloadConfig::paper_default(WorkloadKind::Ctree).scaled(0.01);
/// cfg.cores = 2;
/// let trace = generate(cfg);
/// assert_eq!(trace.cores.len(), 2);
/// assert!(trace.total_txs() > 0);
/// ```
#[must_use]
pub fn generate(config: WorkloadConfig) -> MultiCoreTrace {
    generate_annotated(config).trace
}

/// [`generate`], but also returning the per-op [`crate::runtime::OpClass`]
/// annotations the transaction runtime recorded — the input the
/// persistency sanitizer (`thoth-psan`) and the seeded-bug corpus
/// ([`crate::corpus`]) consume. The op streams are byte-identical to
/// [`generate`]'s.
#[must_use]
pub fn generate_annotated(config: WorkloadConfig) -> AnnotatedTrace {
    assert!(config.cores > 0, "need at least one core");
    let mut master = DetRng::seed_from(config.seed);
    let mut cores = Vec::with_capacity(config.cores);
    let mut classes = Vec::with_capacity(config.cores);
    for core in 0..config.cores {
        let mut rng = master.fork();
        let mut rt = TxRuntime::new(core_heap_base(core));
        let txs = config.warmup_txs_per_core + config.txs_per_core;
        let size = config.tx_size;
        match config.kind {
            WorkloadKind::Btree => run_kv(&mut rt, &mut rng, &config, |rt| BTree::create(rt, size)),
            WorkloadKind::Rbtree => run_kv(&mut rt, &mut rng, &config, |_| RbTree::create(size)),
            WorkloadKind::Hashmap => run_kv(&mut rt, &mut rng, &config, |rt| {
                HashMapPm::create(rt, (config.footprint / 2).max(16), size)
            }),
            WorkloadKind::Ctree => {
                run_kv(&mut rt, &mut rng, &config, |rt| {
                    CritBitTree::create(rt, size)
                });
            }
            WorkloadKind::Swap => swap::run(&mut rt, &mut rng, txs, config.tx_size, config.footprint),
            WorkloadKind::Queue => {
                queue::run(&mut rt, &mut rng, txs, config.tx_size, config.footprint);
            }
            WorkloadKind::Service => {
                service::run_closed(
                    &mut rt,
                    &mut rng,
                    config.prepopulate as usize,
                    txs,
                    config.tx_size,
                    config.footprint,
                );
            }
        }
        let (ops, cls) = rt.into_annotated();
        cores.push(ops);
        classes.push(cls);
    }
    AnnotatedTrace {
        trace: MultiCoreTrace {
            cores,
            warmup_txs_per_core: config.warmup_txs_per_core,
        },
        classes,
    }
}

/// What the key-value workload loop [`run_kv`] needs of an index
/// structure.
pub(crate) trait KvStore {
    /// The value blob stored under `key`, if any.
    fn lookup(&self, rt: &mut TxRuntime, key: u64) -> Option<u64>;
    /// Inserts or updates `key` with a fresh value blob filled from `fill`.
    fn insert(&mut self, rt: &mut TxRuntime, key: u64, fill: u64);
    /// Removes `key`; `false` when it was absent.
    fn delete(&mut self, rt: &mut TxRuntime, key: u64) -> bool;
}

/// Each index structure's inherent `lookup`, `insert` and `delete` are
/// its [`KvStore`] implementation.
macro_rules! kv_store {
    ($($ty:ty),*) => {$(
        impl KvStore for $ty {
            fn lookup(&self, rt: &mut TxRuntime, key: u64) -> Option<u64> {
                <$ty>::lookup(self, rt, key)
            }
            fn insert(&mut self, rt: &mut TxRuntime, key: u64, fill: u64) {
                <$ty>::insert(self, rt, key, fill);
            }
            fn delete(&mut self, rt: &mut TxRuntime, key: u64) -> bool {
                <$ty>::delete(self, rt, key)
            }
        }
    )*};
}

kv_store!(BTree, RbTree, CritBitTree, HashMapPm);

/// Runs one core of a key-value workload (btree, rbtree, hashmap,
/// ctree) on the structure `create` builds. An untraced transaction
/// builds it and an untraced pre-population loads `config.prepopulate`
/// random keys (WHISPER's database-loading step); then each traced
/// transaction is one lookup (pointer-chase reads) plus one
/// insert/update of a value blob of the size `create` fixed.
pub(crate) fn run_kv<S: KvStore>(
    rt: &mut TxRuntime,
    rng: &mut DetRng,
    config: &WorkloadConfig,
    create: impl FnOnce(&mut TxRuntime) -> S,
) {
    let keyspace = config.footprint;
    rt.set_tracing(false);
    rt.begin();
    let mut store = create(rt);
    rt.commit();
    for _ in 0..config.prepopulate {
        rt.begin();
        store.insert(rt, rng.gen_range(keyspace), 0);
        rt.commit();
    }
    rt.set_tracing(true);
    for n in 0..config.warmup_txs_per_core + config.txs_per_core {
        let key = rng.gen_range(keyspace);
        let probe = rng.gen_range(keyspace);
        rt.begin();
        let _ = store.lookup(rt, probe);
        // Mixed mutation: a delete-flavoured transaction removes the key
        // if present, otherwise falls back to inserting it (so every
        // transaction mutates and the structure size stays balanced).
        let per_mille = config.delete_per_mille;
        let deleting = per_mille > 0 && rng.gen_range(1000) < u64::from(per_mille);
        if !(deleting && store.delete(rt, key)) {
            store.insert(rt, key, n as u64);
        }
        rt.commit();
    }
}

/// A one-core, insert/update-only [`run_kv`] configuration with no
/// warm-up: `prepopulate` untraced inserts, then `txs` traced
/// transactions of `tx_size`-byte values over `keyspace` keys.
#[cfg(test)]
pub(crate) fn kv_config(
    kind: WorkloadKind,
    prepopulate: u64,
    txs: usize,
    tx_size: usize,
    keyspace: u64,
) -> WorkloadConfig {
    WorkloadConfig {
        cores: 1,
        warmup_txs_per_core: 0,
        txs_per_core: txs,
        tx_size,
        footprint: keyspace,
        prepopulate,
        ..WorkloadConfig::paper_default(kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::TraceOp;

    fn quick(kind: WorkloadKind) -> WorkloadConfig {
        let mut c = WorkloadConfig::paper_default(kind).scaled(0.02);
        c.cores = 2;
        c.footprint = match kind {
            WorkloadKind::Swap => 32,
            _ => 2000,
        };
        c.prepopulate = c.footprint / 2;
        c
    }

    #[test]
    fn all_workloads_generate_nonempty_traces() {
        for kind in WorkloadKind::ALL {
            let trace = generate(quick(kind));
            assert_eq!(trace.cores.len(), 2, "{kind}");
            assert!(trace.total_stores() > 0, "{kind}");
            assert!(trace.total_txs() > 0, "{kind}");
        }
    }

    #[test]
    fn kv_workloads_trace_exactly_their_transactions() {
        // Every traced transaction mutates (a delete of an absent key
        // inserts instead), so each ends in one commit; the untraced
        // set-up and pre-population add none.
        for kind in [
            WorkloadKind::Btree,
            WorkloadKind::Rbtree,
            WorkloadKind::Hashmap,
            WorkloadKind::Ctree,
        ] {
            for delete_per_mille in [0, 300] {
                let cfg = WorkloadConfig {
                    delete_per_mille,
                    ..quick(kind)
                };
                let per_core = cfg.warmup_txs_per_core + cfg.txs_per_core;
                let trace = generate(cfg);
                for ops in &trace.cores {
                    let commits = ops
                        .iter()
                        .filter(|op| matches!(op, TraceOp::Commit))
                        .count();
                    assert_eq!(commits, per_core, "{kind} delete={delete_per_mille}");
                }
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let a = generate(quick(WorkloadKind::Btree));
        let b = generate(quick(WorkloadKind::Btree));
        assert_eq!(a.cores, b.cores);
    }

    #[test]
    fn different_seeds_differ() {
        let mut c1 = quick(WorkloadKind::Hashmap);
        let mut c2 = c1;
        c1.seed = 1;
        c2.seed = 2;
        assert_ne!(generate(c1).cores, generate(c2).cores);
    }

    #[test]
    fn cores_use_disjoint_address_ranges() {
        let trace = generate(quick(WorkloadKind::Rbtree));
        let range_of = |ops: &[TraceOp]| {
            let addrs: Vec<u64> = ops
                .iter()
                .filter_map(|op| match op {
                    TraceOp::Store { addr, .. } => Some(*addr),
                    _ => None,
                })
                .collect();
            (
                addrs.iter().copied().min().unwrap(),
                addrs.iter().copied().max().unwrap(),
            )
        };
        let (_, max0) = range_of(&trace.cores[0]);
        let (min1, _) = range_of(&trace.cores[1]);
        assert!(max0 < min1, "core heaps overlap");
    }

    #[test]
    fn tx_size_grows_store_volume() {
        let small = generate(quick(WorkloadKind::Btree));
        let mut big_cfg = quick(WorkloadKind::Btree);
        big_cfg.tx_size = 1024;
        let big = generate(big_cfg);
        let bytes = |t: &MultiCoreTrace| -> u64 {
            t.cores
                .iter()
                .flat_map(|ops| ops.iter())
                .filter_map(|op| match op {
                    TraceOp::Store { len, .. } => Some(u64::from(*len)),
                    _ => None,
                })
                .sum()
        };
        assert!(bytes(&big) > 2 * bytes(&small));
    }

    #[test]
    fn delete_mix_changes_traces_but_stays_valid() {
        let pure = quick(WorkloadKind::Hashmap);
        let mut mixed = pure;
        mixed.delete_per_mille = 300;
        let a = generate(pure);
        let b = generate(mixed);
        assert_ne!(a.cores, b.cores, "mix must alter the store stream");
        assert!(b.total_txs() > 0);
        assert!(b.total_stores() > 0);
    }

    #[test]
    fn zero_delete_mix_is_byte_identical_to_legacy() {
        // delete_per_mille = 0 must not even perturb the RNG stream.
        let cfg = quick(WorkloadKind::Btree);
        let a = generate(cfg);
        let mut cfg0 = cfg;
        cfg0.delete_per_mille = 0;
        let b = generate(cfg0);
        assert_eq!(a.cores, b.cores);
    }

    #[test]
    fn names_roundtrip() {
        for k in WorkloadKind::EXTENDED {
            assert_eq!(WorkloadKind::from_name(k.name()), Some(k));
        }
        assert_eq!(WorkloadKind::from_name("nope"), None);
    }

    #[test]
    fn queue_extension_generates_and_runs() {
        let mut c = WorkloadConfig::paper_default(WorkloadKind::Queue).scaled(0.02);
        c.cores = 2;
        c.footprint = 32;
        let t = generate(c);
        assert!(t.total_txs() > 0);
        assert!(t.total_stores() > 0);
    }
}
