//! Persist-event instrumentation for the persistency sanitizer
//! (`thoth-psan`).
//!
//! When recording is enabled ([`crate::machine::SecureNvm::run_psan`]),
//! the machine emits one [`PersistEvent`] for every observable step of a
//! cache block's persist lifecycle:
//!
//! ```text
//! store  ──►  (flush)  ──►  WPQ acceptance  ──►  drain to NVM
//!                 │                │
//!                 └── relaxed stores only   └── the durable-ACK point
//!                                               under ADR (Section II-B)
//! ```
//!
//! plus the metadata-persist mechanism covering each data persist
//! ([`PersistEventKind::MetaCover`]), persist-barrier/commit markers, and
//! PUB append/evict traffic. The sanitizer replays this stream through a
//! shadow state machine and checks x86-TSO persistency orderings
//! (persist-before edges) without re-deriving any simulator state.
//!
//! Events carry the `(core, op)` coordinates of the trace operation that
//! was executing when they were produced, so findings attribute to exact
//! source sites. Events produced outside any operation (e.g. the final
//! WPQ drain at end of simulation) use [`NO_CTX`].

use thoth_nvm::WriteCategory;

/// Sentinel `core`/`op` for events with no originating trace operation.
pub const NO_CTX: u32 = u32::MAX;

/// One step in a block's persist lifecycle, stamped with its origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistEvent {
    /// Global sequence number (total order of the recorded stream).
    pub seq: u64,
    /// Core executing the originating trace op, or [`NO_CTX`].
    pub core: u32,
    /// Index of the originating op in that core's stream, or [`NO_CTX`].
    pub op: u32,
    /// What happened.
    pub kind: PersistEventKind,
}

/// The observable persist-lifecycle steps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistEventKind {
    /// A program store was issued. `relaxed` stores are volatile (plain
    /// `mov`): they gain a durable-ordering edge only through a later
    /// [`PersistEventKind::Flush`] — or not at all.
    Store {
        /// Byte address of the store.
        addr: u64,
        /// Store length in bytes.
        len: u32,
        /// True for `mov`-without-`clwb` stores ([`thoth_workloads::TraceOp::StoreRelaxed`]).
        relaxed: bool,
    },
    /// A cache-line write-back (`clwb`) reached block `block`. `pending`
    /// is false when the line held no un-persisted relaxed data — the
    /// flush was redundant.
    Flush {
        /// Block-aligned address flushed.
        block: u64,
        /// Whether the flush actually wrote dirty relaxed data back.
        pending: bool,
    },
    /// The WPQ accepted a write — the durable-ACK point under ADR.
    Accepted {
        /// Block-aligned address of the accepted write.
        block: u64,
        /// What kind of write this is (data, counter, MAC, PUB…).
        category: WriteCategory,
        /// True when the write merged into an already-pending entry.
        coalesced: bool,
    },
    /// The WPQ drained a pending write into the NVM array.
    Drained {
        /// Block-aligned address drained.
        block: u64,
        /// Cross-core provenance: one bit per core whose write the
        /// drained entry carries (coalescing ORs the masks); 0 for pure
        /// background traffic such as re-encryption.
        origins: u32,
    },
    /// The security metadata guarding a data persist got its own
    /// durable-ordering edge, via `mech`.
    MetaCover {
        /// Block-aligned address of the *data* block being covered.
        block: u64,
        /// How the metadata persist is ordered with the data persist.
        mech: MetaMech,
    },
    /// A persist barrier (`sfence`) without transaction commit.
    Fence,
    /// A transaction commit barrier.
    Commit,
    /// A PUB block was appended (the PCB sealed a block of partial
    /// updates into the persist undo buffer). `image` is the encoded
    /// block so the sanitizer can decode the entries it carries.
    PubAppend {
        /// NVM address of the appended PUB block.
        addr: u64,
        /// Encoded block image ([`thoth_core::PubBlockCodec`] format).
        image: Vec<u8>,
    },
    /// A PUB block was consumed by eviction (its entries were applied to
    /// the home metadata locations and are no longer live).
    PubEvict {
        /// NVM address of the evicted PUB block.
        addr: u64,
    },
}

/// How a data persist's metadata (counter + MAC) gets its own
/// durable-ordering edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetaMech {
    /// Baseline strict persistence: full counter and MAC blocks are
    /// written through the WPQ with the data.
    InPlace,
    /// Thoth: a partial update entered the ADR-protected PCB.
    Pcb,
    /// Thoth, PCB-after-WPQ arrangement: the update coalesced into
    /// already-pending WPQ metadata entries.
    WpqMerge,
    /// AnubisEcc: metadata rides along in the data block's ECC bits.
    EccRideAlong,
    /// eADR: the whole cache hierarchy is in the persistence domain.
    EadrDomain,
    /// Phoenix: the leaf counter block persisted strictly with the data;
    /// MAC and upper tree levels are reconstructed at recovery.
    PhoenixLeaf,
    /// Freij strict subtree persistence: counter, MAC and the updated
    /// tree-path nodes all stream through the WPQ with the data.
    SubtreeStrict,
    /// Freij lazy subtree persistence: counter and MAC persist in place;
    /// tree nodes persist through natural eviction.
    SubtreeLazy,
}

impl MetaMech {
    /// Stable lowercase name (reports, JSON).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MetaMech::InPlace => "in-place",
            MetaMech::Pcb => "pcb",
            MetaMech::WpqMerge => "wpq-merge",
            MetaMech::EccRideAlong => "ecc-ride-along",
            MetaMech::EadrDomain => "eadr-domain",
            MetaMech::PhoenixLeaf => "phoenix-leaf",
            MetaMech::SubtreeStrict => "subtree-strict",
            MetaMech::SubtreeLazy => "subtree-lazy",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_mech_names_are_distinct() {
        let all = [
            MetaMech::InPlace,
            MetaMech::Pcb,
            MetaMech::WpqMerge,
            MetaMech::EccRideAlong,
            MetaMech::EadrDomain,
            MetaMech::PhoenixLeaf,
            MetaMech::SubtreeStrict,
            MetaMech::SubtreeLazy,
        ];
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a.name(), b.name());
            }
        }
    }
}
