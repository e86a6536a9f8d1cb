//! Seeded, well-formed persist-trace fuzzer (generator half).
//!
//! [`generate_fuzz`] produces small multi-core traces that are **clean by
//! construction**: every op stream is emitted by the real undo-logging
//! runtime ([`crate::TxRuntime`]), so write-ahead ordering, commit
//! records, and persist barriers are all present and correctly placed —
//! the persist-ordering sanitizer must report zero findings on any of
//! them, any crash point must recover, and the golden shadow heap must
//! match the machine. The fuzz harness (`thoth-experiments fuzz`) runs
//! each generated trace through the real simulator with crash injection
//! and cross-checks those three observers; a disagreement on a trace this
//! generator produced is a bug in one of the observers, never in the
//! trace.
//!
//! The generator is biased, not uniform:
//!
//! * **hot-counter bias** — a small per-core pool of hot 8-byte slots
//!   absorbs [`FuzzSpec::hot_bias_pct`]% of the in-place writes, so WPQ
//!   coalescing, undo-log dedup, and repeated metadata covers of the same
//!   block all get exercised (the paths where observer bookkeeping is
//!   most likely to diverge);
//! * **tenant-sharded overlap** — cores model tenants: each core's
//!   addresses live in its own heap shard ([`crate::spec`]'s per-core
//!   heap base), so address overlap is dense *within* a core and absent
//!   *across* cores — exactly the sharing discipline of the multi-tenant
//!   service, and the reason the traces stay race-free.
//!
//! Everything derives from [`FuzzSpec::seed`]: the same spec generates
//! the same trace, so any cross-check disagreement replays exactly from
//! its `SEED:ANCHOR` recipe.

use crate::runtime::AnnotatedTrace;
use crate::service::MixStats;
use crate::spec::core_heap_base;
use crate::{MultiCoreTrace, TxRuntime};

use thoth_sim_engine::DetRng;

/// Seed salt for fuzz-trace generation (distinct from workload seeds).
const FUZZ_SALT: u64 = 0xF0_7E57;

/// Simulated cores of every fuzz trace (= tenants; shards never overlap).
const CORES: usize = 2;
/// Transactions per core.
const TXS_PER_CORE: usize = 6;
/// Maximum writes per transaction (at least one is always emitted).
const WRITES_PER_TX: usize = 4;
/// Hot 8-byte slots per core.
const HOT_SLOTS: u64 = 4;
/// Cold-object payload size in bytes.
const VALUE_BYTES: usize = 24;

/// What varies between generated fuzz traces: the seed and the
/// address-overlap bias. Every trace has the same tiny shape (hundreds
/// run in seconds): two cores of six transactions, each of one to four
/// writes, over four hot slots and 24-byte cold objects per core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzSpec {
    /// Seed; the trace is a pure function of the spec.
    pub seed: u64,
    /// Probability (percent) that an in-place write hits a hot slot —
    /// the address-overlap bias.
    pub hot_bias_pct: u8,
}

impl FuzzSpec {
    /// The quick-mode spec: update-heavy overlap.
    #[must_use]
    pub fn quick(seed: u64) -> Self {
        FuzzSpec {
            seed,
            hot_bias_pct: 60,
        }
    }

    /// [`Self::quick`] with the address-overlap bias taken from a real
    /// service mix: the mutate fraction of the measured request stream
    /// becomes the hot-slot probability (clamped to keep both hot and
    /// cold paths exercised). A read-heavy YCSB-B stream thus fuzzes
    /// sparse overlap, an update-heavy YCSB-A/F stream dense overlap.
    #[must_use]
    pub fn biased(seed: u64, mix: &MixStats) -> Self {
        FuzzSpec {
            seed,
            hot_bias_pct: (mix.mutate_per_mille() / 10).clamp(10, 90) as u8,
        }
    }
}

/// Generates one clean-by-construction annotated trace for `spec`.
#[must_use]
pub fn generate_fuzz(spec: &FuzzSpec) -> AnnotatedTrace {
    let mut cores = Vec::with_capacity(CORES);
    let mut classes = Vec::with_capacity(CORES);
    for core in 0..CORES {
        let mut rng = DetRng::seed_from(spec.seed ^ FUZZ_SALT ^ (core as u64) << 32);
        let mut rt = TxRuntime::new(core_heap_base(core));

        // Hot slots and a seed cold object exist before the traced phase
        // (like the workloads' database-loading step), so in-place
        // updates of them are genuine old-value overwrites.
        rt.set_tracing(false);
        let hot: Vec<u64> = (0..HOT_SLOTS).map(|_| rt.alloc(8)).collect();
        let mut cold: Vec<u64> = vec![rt.alloc(VALUE_BYTES as u64)];
        rt.begin();
        for &h in &hot {
            rt.write_new_u64(h, 0);
        }
        rt.write_new(cold[0], &[0u8; VALUE_BYTES]);
        rt.commit();
        rt.set_tracing(true);

        for tx in 0..TXS_PER_CORE {
            rt.begin();
            let writes = 1 + rng.gen_index(WRITES_PER_TX);
            for w in 0..writes {
                if rng.gen_index(100) < spec.hot_bias_pct as usize {
                    // Hot-counter bump: read-modify-write of a shared
                    // (within-core) slot — dense block overlap.
                    let slot = hot[rng.gen_index(hot.len())];
                    let v = rt.read_u64(slot);
                    rt.write_u64(slot, v.wrapping_add(1 + tx as u64));
                } else if rng.gen_index(2) == 0 {
                    // Fresh allocation: no undo entry by design.
                    let p = rt.alloc(VALUE_BYTES as u64);
                    rt.write_new(p, &[(tx + w) as u8; VALUE_BYTES]);
                    cold.push(p);
                } else {
                    // In-place update of an existing cold object
                    // (write-ahead logged).
                    let p = cold[rng.gen_index(cold.len())];
                    rt.write(p, &[(tx ^ w) as u8; VALUE_BYTES]);
                }
            }
            rt.commit();
        }
        let (ops, cls) = rt.into_annotated();
        cores.push(ops);
        classes.push(cls);
    }
    AnnotatedTrace {
        trace: MultiCoreTrace {
            cores,
            warmup_txs_per_core: 0,
        },
        classes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OpClass, TraceOp};

    #[test]
    fn generation_is_deterministic() {
        let spec = FuzzSpec::quick(42);
        let a = generate_fuzz(&spec);
        let b = generate_fuzz(&spec);
        assert_eq!(a.trace.cores, b.trace.cores);
        assert_eq!(a.classes, b.classes);
        let c = generate_fuzz(&FuzzSpec::quick(43));
        assert_ne!(a.trace.cores, c.trace.cores, "seed must matter");
    }

    #[test]
    fn traces_have_valid_transaction_structure() {
        let a = generate_fuzz(&FuzzSpec::quick(7));
        assert_eq!(a.trace.cores.len(), 2);
        for (ops, cls) in a.trace.cores.iter().zip(&a.classes) {
            assert_eq!(ops.len(), cls.len());
            assert!(matches!(ops.last(), Some(TraceOp::Commit)));
            // Every in-place data write is guarded by a log append of
            // the same open transaction (write-ahead logging); fresh
            // writes need none.
            let mut guarded: Vec<(u64, u64)> = Vec::new();
            for (op, class) in ops.iter().zip(cls.iter()) {
                match *class {
                    OpClass::LogAppend {
                        guard_addr,
                        guard_len,
                    } => guarded.push((guard_addr, u64::from(guard_len))),
                    OpClass::DataInPlace => {
                        let TraceOp::Store { addr, len } = *op else {
                            panic!("in-place class on non-store op");
                        };
                        assert!(
                            guarded
                                .iter()
                                .any(|&(a, l)| a <= addr && addr + u64::from(len) <= a + l),
                            "unguarded in-place write at {addr:#x}"
                        );
                    }
                    OpClass::Commit => guarded.clear(),
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn cores_are_tenant_sharded() {
        // No persistent address is touched by more than one core: the
        // traces are race-free by construction.
        let a = generate_fuzz(&FuzzSpec::quick(11));
        let addrs = |ops: &[TraceOp]| -> Vec<u64> {
            ops.iter()
                .filter_map(|op| match *op {
                    TraceOp::Store { addr, .. } | TraceOp::StoreRelaxed { addr, .. } => Some(addr),
                    _ => None,
                })
                .collect()
        };
        let a0 = addrs(&a.trace.cores[0]);
        let a1 = addrs(&a.trace.cores[1]);
        assert!(!a0.is_empty() && !a1.is_empty());
        assert!(a0.iter().all(|x| !a1.contains(x)), "shards overlap");
    }

    #[test]
    fn hot_bias_concentrates_the_address_footprint() {
        let block = |a: u64| a / 128;
        let distinct = |spec: &FuzzSpec| {
            let t = generate_fuzz(spec);
            let mut blocks: Vec<u64> = t.trace.cores[0]
                .iter()
                .filter_map(|op| match *op {
                    TraceOp::Store { addr, .. } => Some(block(addr)),
                    _ => None,
                })
                .collect();
            blocks.sort_unstable();
            blocks.dedup();
            blocks.len()
        };
        let mut hot = FuzzSpec::quick(3);
        hot.hot_bias_pct = 95;
        let mut cold = FuzzSpec::quick(3);
        cold.hot_bias_pct = 0;
        assert!(
            distinct(&hot) < distinct(&cold),
            "bias must shrink the touched-block set"
        );
    }

    #[test]
    fn mix_stats_steer_the_bias() {
        let read_heavy = MixStats {
            reads: 950,
            updates: 50,
            rmws: 0,
        };
        let update_heavy = MixStats {
            reads: 500,
            updates: 500,
            rmws: 0,
        };
        let b = FuzzSpec::biased(1, &read_heavy);
        let f = FuzzSpec::biased(1, &update_heavy);
        assert!(b.hot_bias_pct < f.hot_bias_pct);
        assert!((10..=90).contains(&b.hot_bias_pct));
        assert_eq!(FuzzSpec::biased(1, &MixStats::default()).hot_bias_pct, 10);
    }
}
