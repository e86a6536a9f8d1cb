//! The recovery-audit oracle.
//!
//! After `crash()` + `recover()`, [`audit_recovery`] interrogates the
//! machine's *persisted* state only (never its volatile bookkeeping) and
//! checks it against the independent [`ShadowHeap`]:
//!
//! 1. the rebuilt integrity-tree root matches the persistent root
//!    register, and no counter leaf disagrees with the logical tree,
//! 2. every written block's persisted ciphertext authenticates against the
//!    persisted counter and MAC blocks,
//! 3. every written block decrypts to exactly the plaintext of its latest
//!    durably-ACKed version — committed transactions are intact, and
//!    in-flight (uncommitted) work is the clean ACKed prefix, never a
//!    half-applied mix,
//! 4. the machine's own version map agrees with the shadow heap in both
//!    directions (no lost or invented blocks).
//!
//! Under an active fault model the expectations invert: corruption may
//! exist, but it must be **detected** (root/leaf/MAC failure) — a content
//! mismatch that authenticates cleanly is *silent corruption*, the one
//! outcome a persistently secure memory must never produce.

use crate::shadow::ShadowHeap;

use thoth_sim::{CrashDiagnostics, CrashPlan, MacMismatch, RecoveryReport, SecureNvm};

/// Everything one crash → recover → audit cycle established.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// The injected crash point.
    pub plan: CrashPlan,
    /// Rebuilt tree root matched the persistent root register.
    pub root_ok: bool,
    /// PUB blocks recovery scanned.
    pub pub_blocks_scanned: u64,
    /// PUB entries merged during recovery.
    pub entries_merged: u64,
    /// Written blocks audited.
    pub blocks_checked: u64,
    /// Blocks failing persisted-state MAC authentication.
    pub auth_failures: u64,
    /// Blocks whose decrypted content differs from the shadow heap's
    /// latest ACKed version.
    pub content_mismatches: u64,
    /// Blocks whose machine/shadow version bookkeeping disagrees.
    pub version_disagreements: u64,
    /// Blocks whose latest version was transactionally committed.
    pub committed_blocks: u64,
    /// Blocks with durable but uncommitted (in-flight) stores.
    pub inflight_blocks: u64,
    /// Structured findings (leaf and MAC mismatches) for reporting.
    pub diagnostics: CrashDiagnostics,
}

impl AuditReport {
    /// `true` when persisted state is fully consistent: root verified,
    /// everything authenticated, and all content equal to the shadow heap.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.root_ok
            && self.auth_failures == 0
            && self.content_mismatches == 0
            && self.version_disagreements == 0
            && self.diagnostics.is_clean()
    }

    /// `true` when at least one integrity check tripped — corruption, if
    /// any, did not go unnoticed.
    #[must_use]
    pub fn corruption_detected(&self) -> bool {
        !self.root_ok || self.auth_failures > 0 || !self.diagnostics.leaf_mismatches.is_empty()
    }

    /// Content diverged but nothing tripped: the one unacceptable outcome.
    #[must_use]
    pub fn silent_corruption(&self) -> bool {
        (self.content_mismatches > 0 || self.version_disagreements > 0)
            && !self.corruption_detected()
    }

    /// The audit verdict: with faults disabled the state must be fully
    /// clean; with faults active corruption is allowed but must be
    /// detected.
    #[must_use]
    pub fn passed(&self, faults_active: bool) -> bool {
        if faults_active {
            !self.silent_corruption()
        } else {
            self.is_clean()
        }
    }
}

/// Audits a machine that just ran `recover()` against the shadow heap (see
/// the module docs for the checks).
#[must_use]
pub fn audit_recovery(
    machine: &SecureNvm,
    shadow: &ShadowHeap,
    recovery: &RecoveryReport,
    plan: CrashPlan,
) -> AuditReport {
    let mut report = AuditReport {
        plan,
        root_ok: recovery.root_verified,
        pub_blocks_scanned: recovery.pub_blocks_scanned,
        entries_merged: recovery.entries_merged,
        blocks_checked: 0,
        auth_failures: 0,
        content_mismatches: 0,
        version_disagreements: 0,
        committed_blocks: shadow.committed_blocks(),
        inflight_blocks: shadow.inflight_blocks(),
        diagnostics: CrashDiagnostics {
            crash_point: Some(plan),
            leaf_mismatches: machine.leaf_mismatches(),
            mac_mismatches: Vec::new(),
        },
    };

    // Version bookkeeping must agree in both directions.
    let written = machine.written_blocks();
    for &(block, version) in &written {
        if shadow.latest_version(block) != Some(version) {
            report.version_disagreements += 1;
        }
    }
    // `written` is sorted by block: one binary search per shadow block.
    report.version_disagreements += shadow
        .blocks()
        .filter(|&(b, _)| written.binary_search_by_key(&b, |&(wb, _)| wb).is_err())
        .count() as u64;

    // Per-block authentication and content equality, from persisted bytes
    // only.
    for (block, version) in shadow.blocks() {
        report.blocks_checked += 1;
        match machine.authenticate_persisted(block) {
            Ok(()) => {}
            Err(m @ MacMismatch { .. }) => {
                report.auth_failures += 1;
                report.diagnostics.mac_mismatches.push(m);
            }
        }
        if machine.decrypt_persisted(block) != machine.expected_plaintext(block, version) {
            report.content_mismatches += 1;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use thoth_sim::{CrashSiteKind, LeafMismatch};

    fn blank(plan: CrashPlan) -> AuditReport {
        AuditReport {
            plan,
            root_ok: true,
            pub_blocks_scanned: 0,
            entries_merged: 0,
            blocks_checked: 0,
            auth_failures: 0,
            content_mismatches: 0,
            version_disagreements: 0,
            committed_blocks: 0,
            inflight_blocks: 0,
            diagnostics: CrashDiagnostics::default(),
        }
    }

    #[test]
    fn verdict_logic() {
        let plan = CrashPlan { site: CrashSiteKind::Persist, nth: 0 };
        let clean = blank(plan);
        assert!(clean.is_clean());
        assert!(clean.passed(false));
        assert!(clean.passed(true));

        let mut detected = blank(plan);
        detected.content_mismatches = 1;
        detected.auth_failures = 1;
        assert!(!detected.is_clean());
        assert!(detected.corruption_detected());
        assert!(!detected.silent_corruption());
        assert!(!detected.passed(false));
        assert!(detected.passed(true), "detected corruption is acceptable under faults");

        let mut silent = blank(plan);
        silent.content_mismatches = 1;
        assert!(silent.silent_corruption());
        assert!(!silent.passed(true), "silent corruption never passes");

        let mut leaf_only = blank(plan);
        leaf_only.diagnostics.leaf_mismatches.push(LeafMismatch {
            leaf: 0,
            counter_block: 0,
            expected: 1,
            actual: 2,
        });
        assert!(leaf_only.corruption_detected());
        assert!(!leaf_only.is_clean());
    }
}
