//! The metadata-persistence mechanism seam.
//!
//! Every [`Mode`] resolves to one [`MetaMechanism`] implementation that
//! declares, in one place, the three things a mechanism is responsible
//! for:
//!
//! * its **persist schedule** — what happens to the counter, MAC and
//!   integrity-tree state when a store (or an overflow re-encryption)
//!   needs its metadata made durable ([`MetaMechanism::persist_store`],
//!   [`MetaMechanism::persist_reencrypt`], plus the schedule flags),
//! * its **recovery procedure** — the mechanism-specific step that runs
//!   before the generic tree rebuild ([`MetaMechanism::recover_metadata`])
//!   and any residual-energy work at the crash instant
//!   ([`MetaMechanism::crash_residual`]),
//! * its **psan cover semantics** — the [`MetaMech`] edge it emits for
//!   every covered data persist (the return value of the persist hooks).
//!
//! The machine itself ([`crate::machine::SecureNvm`]) stays
//! mechanism-agnostic: it runs the shared pipeline (counter fetch +
//! increment, encryption, first-level MAC, eager logical-tree update,
//! data write) and delegates everything metadata-durability-related
//! through this trait. Implementations are stateless statics, so
//! dispatch is a `&'static dyn` lookup with no per-machine storage and
//! no borrow entanglement with the machine's own fields. They persist
//! and dirty metadata only through [`SecureNvm::persist_meta`] and
//! [`SecureNvm::dirty_meta`].

use crate::config::{Mode, PcbArrangement};
use crate::machine::SecureNvm;
use crate::psan_events::MetaMech;
use crate::report::RecoveryReport;

use thoth_core::PartialUpdate;
use thoth_crypto::HASH_CYCLES;
use thoth_nvm::WriteCategory;
use thoth_sim_engine::{Cycle, FastSet};

/// Everything a mechanism may need about the store being covered.
/// Computed once by the shared pipeline and lent to the mechanism. The
/// post-increment counter block is the counter cache's line for `cb`.
pub(crate) struct StoreMeta<'a> {
    /// Data block index.
    pub index: u64,
    /// Data block address.
    pub addr: u64,
    /// Counter block address.
    pub cb: u64,
    /// MAC block address.
    pub mb: u64,
    /// Slot of this block's MAC inside the MAC block.
    pub mslot: usize,
    /// Post-increment minor counter.
    pub minor: u8,
    /// Counter-cache dirtiness sampled before this store's update.
    pub ctr_was_dirty: bool,
    /// MAC-cache dirtiness sampled before this store's update.
    pub mac_was_dirty: bool,
    /// The fresh first-level MAC of the (new) ciphertext.
    pub first_mac: &'a [u8],
}

/// The re-encryption variant of [`StoreMeta`] (counter state was already
/// persisted eagerly by the overflow handler).
pub(crate) struct ReencryptMeta<'a> {
    /// Data block index.
    pub index: u64,
    /// Data block address.
    pub addr: u64,
    /// MAC block address.
    pub mb: u64,
    /// Slot of this block's MAC inside the MAC block.
    pub mslot: usize,
    /// Current (post-overflow) minor counter.
    pub minor: u8,
    /// MAC-cache dirtiness sampled before the image update.
    pub mac_was_dirty: bool,
    /// The fresh first-level MAC of the re-encrypted ciphertext.
    pub first_mac: &'a [u8],
}

/// One metadata-persistence mechanism (see the module docs).
pub(crate) trait MetaMechanism: Sync {
    /// Whether the Anubis shadow table tracks dirty metadata lines (the
    /// recovery-time dirty map). Strict, persistent-domain and
    /// reconstructing mechanisms keep NVM consistent without it.
    fn shadow_tracked(&self) -> bool {
        false
    }

    /// Charge the baseline's extra last-level hash at store time
    /// ("we calculate another hash for the last level", Section V-A).
    fn extra_store_hash(&self) -> bool {
        false
    }

    /// Strict subtree persistence: stream every updated tree-path node
    /// through the WPQ with the store instead of dirtying the MT cache.
    fn strict_tree_path(&self) -> bool {
        false
    }

    /// Persist schedule for one store's metadata. May advance `t`
    /// (engine latencies) and fold extra durability into `ack`; returns
    /// the psan cover edge for the data block.
    fn persist_store(
        &self,
        m: &mut SecureNvm,
        t: &mut Cycle,
        ack: &mut Cycle,
        meta: &StoreMeta<'_>,
    ) -> MetaMech;

    /// Persist schedule for one overflow re-encryption's MAC update.
    fn persist_reencrypt(&self, m: &mut SecureNvm, t: Cycle, meta: &ReencryptMeta<'_>) -> MetaMech;

    /// Residual-energy work at the crash instant, before the WPQ's ADR
    /// flush. Default: nothing survives outside the ADR domain.
    fn crash_residual(&self, _m: &mut SecureNvm) {}

    /// Mechanism-specific recovery step, run before the generic tree
    /// rebuild. `t` accumulates the measured recovery time on the
    /// device model. Default: nothing to recover.
    fn recover_metadata(&self, _m: &mut SecureNvm, _t: &mut Cycle, _report: &mut RecoveryReport) {}
}

/// Resolves a mode to its (stateless, static) mechanism.
pub(crate) fn mechanism_of(mode: Mode) -> &'static dyn MetaMechanism {
    match mode {
        Mode::Baseline => &BASELINE,
        Mode::Thoth(_) => &ThothMech,
        Mode::AnubisEcc => &AnubisEccMech,
        Mode::Eadr => &EadrMech,
        Mode::Phoenix => &PhoenixMech,
        Mode::FreijStrict => &FREIJ_STRICT,
        Mode::FreijLazy => &FREIJ_LAZY,
    }
}

/// In-place persistence of the counter and MAC blocks with every data
/// write. The paper's baseline (Anubis adapted to emerging interfaces)
/// charges an extra last-level hash and persists the tree path lazily;
/// Freij et al.'s streamlined BMT updates absorb that hash in the
/// pipelined update and persist the updated tree path either strictly
/// (streamed through the WPQ) or lazily (MT-cache eviction).
struct InPlaceMech {
    extra_hash: bool,
    strict_tree: bool,
    /// The psan cover edge of every covered data persist.
    cover: MetaMech,
}

static BASELINE: InPlaceMech = InPlaceMech {
    extra_hash: true,
    strict_tree: false,
    cover: MetaMech::InPlace,
};
static FREIJ_STRICT: InPlaceMech = InPlaceMech {
    extra_hash: false,
    strict_tree: true,
    cover: MetaMech::SubtreeStrict,
};
static FREIJ_LAZY: InPlaceMech = InPlaceMech {
    extra_hash: false,
    strict_tree: false,
    cover: MetaMech::SubtreeLazy,
};

impl MetaMechanism for InPlaceMech {
    fn extra_store_hash(&self) -> bool {
        self.extra_hash
    }

    fn strict_tree_path(&self) -> bool {
        self.strict_tree
    }

    fn persist_store(
        &self,
        m: &mut SecureNvm,
        t: &mut Cycle,
        ack: &mut Cycle,
        meta: &StoreMeta<'_>,
    ) -> MetaMech {
        // Full counter + MAC blocks each write; NVM is now (logically)
        // current, so the caches stay clean.
        let blocks = [
            (meta.cb, WriteCategory::CounterBlock),
            (meta.mb, WriteCategory::MacBlock),
        ];
        *ack = (*ack).max(m.persist_meta(*t, &blocks));
        self.cover
    }

    fn persist_reencrypt(&self, m: &mut SecureNvm, t: Cycle, meta: &ReencryptMeta<'_>) -> MetaMech {
        m.persist_meta(t, &[(meta.mb, WriteCategory::MacBlock)]);
        self.cover
    }
}

/// Thoth (either eviction policy): partial updates through the PCB/PUB.
struct ThothMech;

impl MetaMechanism for ThothMech {
    fn shadow_tracked(&self) -> bool {
        true
    }

    fn persist_store(
        &self,
        m: &mut SecureNvm,
        t: &mut Cycle,
        ack: &mut Cycle,
        meta: &StoreMeta<'_>,
    ) -> MetaMech {
        // Second-level MAC for the partial update.
        *t += HASH_CYCLES;
        let mac2 = m.mac.second_level(meta.addr, meta.first_mac);
        let sub = m.layout.ctr_subblock(meta.index);
        m.dirty_meta(*t, meta.cb, WriteCategory::CounterBlock, sub);
        m.dirty_meta(*t, meta.mb, WriteCategory::MacBlock, meta.mslot);
        let pu = PartialUpdate {
            block_index: meta.index as u32,
            minor: meta.minor,
            mac2,
            ctr_status: !meta.ctr_was_dirty,
            mac_status: !meta.mac_was_dirty,
        };
        // PCB-after-WPQ (Section IV-C): if both metadata blocks already
        // have coalescable full-block entries pending in the WPQ, merge
        // into those instead of using PCB space.
        if m.config.pcb_arrangement == PcbArrangement::AfterWpq
            && m.wpq.contains_coalescable(meta.cb)
            && m.wpq.contains_coalescable(meta.mb)
        {
            let blocks = [
                (meta.cb, WriteCategory::CounterBlock),
                (meta.mb, WriteCategory::MacBlock),
            ];
            m.persist_meta(*t, &blocks);
            m.pcb_wpq_bypass += 1;
            MetaMech::WpqMerge
        } else {
            *ack = (*ack).max(m.insert_partial_update(*t, pu));
            MetaMech::Pcb
        }
    }

    fn persist_reencrypt(&self, m: &mut SecureNvm, t: Cycle, meta: &ReencryptMeta<'_>) -> MetaMech {
        m.dirty_meta(t, meta.mb, WriteCategory::MacBlock, meta.mslot);
        let mac2 = m.mac.second_level(meta.addr, meta.first_mac);
        let pu = PartialUpdate {
            block_index: meta.index as u32,
            minor: meta.minor,
            mac2,
            // The counter block was just eagerly persisted (clean).
            ctr_status: false,
            mac_status: !meta.mac_was_dirty,
        };
        m.insert_partial_update(t, pu);
        MetaMech::Pcb
    }

    fn recover_metadata(&self, m: &mut SecureNvm, t: &mut Cycle, report: &mut RecoveryReport) {
        // Merge the PUB (oldest to youngest), timing the serial scan on
        // the device model.
        let Some(engine) = &m.thoth else { return };
        let codec = engine.codec();
        let scan = engine.recovery_scan();
        report.pub_blocks_scanned = scan.len() as u64;
        report.modeled_seconds = thoth_core::recovery::pub_recovery_secs(
            scan.len() as u64,
            codec.entries_per_block() as u64,
        );
        let mut entries = Vec::with_capacity(codec.entries_per_block());
        for block_addr in scan {
            *t = m.nvm.time_access(*t, block_addr, false);
            codec.decode_into(m.persisted(block_addr), &mut entries);
            for e in &entries {
                report.entries_examined += 1;
                // Footnote 5's per-entry recipe: read ciphertext, counter
                // and MAC blocks, two MAC levels, then the merge writes
                // (charged inside merge_entry via the `Recovery` write
                // category; timing charged here).
                let index = u64::from(e.block_index);
                let (cb, _, _) = m.layout.ctr_location(index);
                let (mb, _) = m.layout.mac_location(index);
                *t = (*t).max(m.nvm.time_access(*t, m.layout.block_addr(index), false));
                *t = (*t).max(m.nvm.time_access(*t, cb, false));
                *t = (*t).max(m.nvm.time_access(*t, mb, false));
                *t += 2 * HASH_CYCLES;
                if m.merge_entry(e) {
                    report.entries_merged += 1;
                    *t = (*t).max(m.nvm.time_access(*t, cb, true));
                    *t = (*t).max(m.nvm.time_access(*t, mb, true));
                } else {
                    report.entries_stale += 1;
                }
            }
        }
    }
}

/// Ideal co-located-ECC Anubis: metadata rides along with the data write.
struct AnubisEccMech;

impl MetaMechanism for AnubisEccMech {
    fn shadow_tracked(&self) -> bool {
        true
    }

    fn persist_store(
        &self,
        m: &mut SecureNvm,
        t: &mut Cycle,
        _ack: &mut Cycle,
        meta: &StoreMeta<'_>,
    ) -> MetaMech {
        // Metadata rides along with data via ECC bits / MAC chip: caches
        // dirty, persisted only through natural eviction.
        let sub = m.layout.ctr_subblock(meta.index);
        m.dirty_meta(*t, meta.cb, WriteCategory::CounterBlock, sub);
        m.dirty_meta(*t, meta.mb, WriteCategory::MacBlock, meta.mslot);
        MetaMech::EccRideAlong
    }

    fn persist_reencrypt(&self, m: &mut SecureNvm, t: Cycle, meta: &ReencryptMeta<'_>) -> MetaMech {
        m.dirty_meta(t, meta.mb, WriteCategory::MacBlock, meta.mslot);
        MetaMech::EccRideAlong
    }
}

/// Enhanced ADR: the whole cache hierarchy is in the persistence domain.
struct EadrMech;

impl MetaMechanism for EadrMech {
    fn persist_store(
        &self,
        m: &mut SecureNvm,
        t: &mut Cycle,
        ack: &mut Cycle,
        meta: &StoreMeta<'_>,
    ) -> MetaMech {
        // The entire hierarchy is persistent: the store is durable the
        // moment it executes; NVM traffic is eviction-driven.
        let sub = m.layout.ctr_subblock(meta.index);
        m.dirty_meta(*t, meta.cb, WriteCategory::CounterBlock, sub);
        m.dirty_meta(*t, meta.mb, WriteCategory::MacBlock, meta.mslot);
        *ack = *t;
        MetaMech::EadrDomain
    }

    fn persist_reencrypt(&self, m: &mut SecureNvm, t: Cycle, meta: &ReencryptMeta<'_>) -> MetaMech {
        m.dirty_meta(t, meta.mb, WriteCategory::MacBlock, meta.mslot);
        MetaMech::EadrDomain
    }

    fn crash_residual(&self, m: &mut SecureNvm) {
        // eADR: residual power flushes every dirty cache line to NVM
        // before the volatile state is lost.
        for (a, img, dirty, _) in m.ctr_cache.iter() {
            if dirty {
                m.nvm.write_block(a, img, WriteCategory::CounterBlock);
            }
        }
        for (a, img, dirty, _) in m.mac_cache.iter() {
            if dirty {
                m.nvm.write_block(a, img, WriteCategory::MacBlock);
            }
        }
    }
}

/// Phoenix: the tree leaves (counter blocks) persist strictly with every
/// store; the MAC region and the upper tree levels are *reconstructible*
/// state, rebuilt at recovery from the persisted counters and ciphertext
/// (arXiv:1911.01922 — MAC co-location with data is assumed, as in
/// Osiris, so no separate strict MAC write is charged).
struct PhoenixMech;

impl MetaMechanism for PhoenixMech {
    fn persist_store(
        &self,
        m: &mut SecureNvm,
        t: &mut Cycle,
        ack: &mut Cycle,
        meta: &StoreMeta<'_>,
    ) -> MetaMech {
        // Strict leaf-counter persistence; the MAC image stays lazy in
        // cache (reconstructed at boot, so losing it is safe).
        *ack = (*ack).max(m.persist_meta(*t, &[(meta.cb, WriteCategory::CounterBlock)]));
        m.dirty_meta(*t, meta.mb, WriteCategory::MacBlock, meta.mslot);
        MetaMech::PhoenixLeaf
    }

    fn persist_reencrypt(&self, m: &mut SecureNvm, t: Cycle, meta: &ReencryptMeta<'_>) -> MetaMech {
        // The overflow handler already persisted the counter block
        // eagerly; the refreshed MAC stays lazy like every other.
        m.dirty_meta(t, meta.mb, WriteCategory::MacBlock, meta.mslot);
        MetaMech::PhoenixLeaf
    }

    fn recover_metadata(&self, m: &mut SecureNvm, t: &mut Cycle, report: &mut RecoveryReport) {
        // Reconstruct the first-level MAC region from the persisted
        // ciphertext + counters: Phoenix's lazy levels are recomputable
        // because the leaves are strictly persistent. Each written block
        // costs a ciphertext read, a counter read (typically banked with
        // neighbours) and one MAC-engine pass; only stale MAC images are
        // written back.
        let mut indices: Vec<u64> = m.data_versions.keys().copied().collect();
        indices.sort_unstable();
        let mut rebuilt: FastSet<u64> = FastSet::default();
        for index in indices {
            let addr = m.layout.block_addr(index);
            let (cb, _, _) = m.layout.ctr_location(index);
            *t = (*t).max(m.nvm.time_access(*t, addr, false));
            *t = (*t).max(m.nvm.time_access(*t, cb, false));
            let (major, minor) = m.persisted_counter(index);
            m.persisted_first_mac(index, major, minor);
            *t += HASH_CYCLES;
            if let Some(mb) = m.restore_mac_slot(index) {
                *t = (*t).max(m.nvm.time_access(*t, mb, true));
                rebuilt.insert(mb);
            }
        }
        report.mac_blocks_recovered = rebuilt.len() as u64;
    }
}
