//! Deterministic crash-point enumeration and injection.
//!
//! A [`CrashPlan`] names one point in a run — "power fails right after the
//! Nth event of this kind" — and the machine's instrumentation tap counts
//! those events as they happen. Counting only *observes*: the transition
//! in flight (a block store, a PUB append, a metadata persist) always
//! completes atomically, and the replay loop stops starting new work once
//! the planned event happened. That mirrors real hardware, where the ADR
//! domain is a set of atomic acceptance points, not an arbitrary
//! instruction boundary.
//!
//! The tap also counts without a plan, to enumerate how many crash points
//! of each kind a workload exposes ([`CrashSiteCounts`]), which is what
//! the crash-sweep engine samples from.

/// The kinds of events a crash can be anchored to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CrashSiteKind {
    /// After the Nth persistent block store completed (every `store_block`,
    /// including re-encryptions) — the finest-grained, mid-transaction
    /// anchor.
    Persist,
    /// After the Nth `Store` trace operation completed all its blocks —
    /// between stores of a transaction.
    Store,
    /// After the Nth packed PUB block entered the persistence path
    /// (mid-PUB-append pressure: eviction work that would follow is cut).
    PubAppend,
    /// After the Nth metadata block persist issued by PUB eviction — the
    /// mid-metadata-merge window.
    MetaPersist,
}

impl CrashSiteKind {
    /// Every kind, in a fixed order.
    pub const ALL: [CrashSiteKind; 4] = [
        CrashSiteKind::Persist,
        CrashSiteKind::Store,
        CrashSiteKind::PubAppend,
        CrashSiteKind::MetaPersist,
    ];

    /// Dense index for per-kind arrays.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            CrashSiteKind::Persist => 0,
            CrashSiteKind::Store => 1,
            CrashSiteKind::PubAppend => 2,
            CrashSiteKind::MetaPersist => 3,
        }
    }

    /// Stable lowercase tag (JSON, reproduce commands).
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            CrashSiteKind::Persist => "persist",
            CrashSiteKind::Store => "store",
            CrashSiteKind::PubAppend => "pub-append",
            CrashSiteKind::MetaPersist => "meta-persist",
        }
    }

    /// Parses a [`Self::tag`] back.
    #[must_use]
    pub fn from_tag(tag: &str) -> Option<Self> {
        CrashSiteKind::ALL.into_iter().find(|k| k.tag() == tag)
    }
}

/// One deterministic crash point: power fails immediately after the
/// `nth` (0-based) event of kind `site`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CrashPlan {
    /// Event kind the crash is anchored to.
    pub site: CrashSiteKind,
    /// 0-based ordinal of the anchoring event.
    pub nth: u64,
}

impl CrashPlan {
    /// Stable `kind:N` label (JSON, reproduce commands).
    #[must_use]
    pub fn label(&self) -> String {
        format!("{}:{}", self.site.tag(), self.nth)
    }

    /// Parses a [`Self::label`] back.
    #[must_use]
    pub fn parse(label: &str) -> Option<Self> {
        let (tag, nth) = label.rsplit_once(':')?;
        Some(CrashPlan {
            site: CrashSiteKind::from_tag(tag)?,
            nth: nth.parse().ok()?,
        })
    }
}

/// Per-kind totals of crash-anchor events seen in a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrashSiteCounts(pub [u64; 4]);

impl CrashSiteCounts {
    /// Events of `kind` observed.
    #[must_use]
    pub fn of(&self, kind: CrashSiteKind) -> u64 {
        self.0[kind.index()]
    }
}

/// One durably-ACKed operation, logged in execution order so an external
/// oracle can replay what the machine promised to keep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoggedOp {
    /// Core `core` completed a persistent store to data block `block`
    /// (block index, not byte address) — ACKed, hence durable.
    Store {
        /// Issuing core.
        core: usize,
        /// Data-block index.
        block: u64,
    },
    /// Core `core` committed its open transaction: every store logged for
    /// it since its previous commit is now *transactionally* committed.
    Commit {
        /// Committing core.
        core: usize,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for kind in CrashSiteKind::ALL {
            let p = CrashPlan { site: kind, nth: 17 };
            assert_eq!(CrashPlan::parse(&p.label()), Some(p));
        }
        assert_eq!(CrashPlan::parse("bogus:1"), None);
        assert_eq!(CrashPlan::parse("persist"), None);
    }
}
