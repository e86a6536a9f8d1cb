//! Simulator configuration (the paper's Table I).
//!
//! [`SimConfig`] holds what the experiments vary. Every Table I value
//! that no experiment varies is a constant in the crate that uses it:
//! the clock in `thoth-sim-engine`, the PCM in `thoth-nvm`, the AES and
//! hash engines in `thoth-crypto`, and the fixed cache geometries and
//! core timing here.

use thoth_core::EvictionPolicy;

/// Counter cache associativity (Table I: 4-way).
pub const CTR_CACHE_WAYS: usize = 4;
/// MAC cache associativity (Table I: 8-way).
pub const MAC_CACHE_WAYS: usize = 8;
/// Merkle-tree cache capacity in bytes (Table I: 256 kB).
pub const MT_CACHE_BYTES: usize = 256 << 10;
/// Merkle-tree cache associativity (Table I: 8-way).
pub const MT_CACHE_WAYS: usize = 8;
/// LLC capacity in bytes (Table I: 16 MB) — models the data-side cache
/// hierarchy in front of the memory controller.
pub const LLC_BYTES: usize = 16 << 20;
/// LLC associativity (Table I: 16-way).
pub const LLC_WAYS: usize = 16;
/// LLC hit latency in cycles (Table I: 32).
pub const LLC_HIT_CYCLES: u64 = 32;
/// CPU compute cycles charged between consecutive trace operations. A
/// calibration, not a Table I value (DESIGN.md §4.5).
pub const COMPUTE_GAP_CYCLES: u64 = 300;

/// The secure-memory organization being simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Strict persistence of counter + MAC blocks per data write (Anubis
    /// adapted to emerging interfaces — the paper's baseline).
    Baseline,
    /// Thoth with the given PUB eviction policy.
    Thoth(EvictionPolicy),
    /// Ideal co-located-ECC Anubis (Section V-F comparison): metadata
    /// persists for free with the data write.
    AnubisEcc,
    /// Enhanced ADR (the paper's Section II-B future work): the whole
    /// cache hierarchy is inside the persistence domain, so persists ACK
    /// immediately and security metadata persists through natural
    /// eviction alone — no strict persistence, no PUB.
    Eadr,
    /// Phoenix-style persistent tree of counters (arXiv:1911.01922):
    /// counter blocks (the tree leaves) persist strictly with every
    /// write, the upper levels and the MAC region stay lazy, and
    /// recovery reconstructs the reconstructible state from the
    /// persisted counters and ciphertext.
    Phoenix,
    /// Freij et al.'s streamlined BMT updates (arXiv:2003.04693) with
    /// strict subtree persistence: counter + MAC blocks persist in
    /// place and every updated tree-path node streams through the WPQ,
    /// pipelined with the data write.
    FreijStrict,
    /// Freij et al.'s streamlined updates with lazy subtree
    /// persistence: counter + MAC blocks persist in place, tree nodes
    /// persist only through natural MT-cache eviction.
    FreijLazy,
}

impl Mode {
    /// The baseline machine.
    #[must_use]
    pub fn baseline() -> Mode {
        Mode::Baseline
    }

    /// Thoth with WTSC (the paper's default policy).
    #[must_use]
    pub fn thoth_wtsc() -> Mode {
        Mode::Thoth(EvictionPolicy::Wtsc)
    }

    /// Thoth with WTBC.
    #[must_use]
    pub fn thoth_wtbc() -> Mode {
        Mode::Thoth(EvictionPolicy::Wtbc)
    }

    /// The eADR future-work machine.
    #[must_use]
    pub fn eadr() -> Mode {
        Mode::Eadr
    }

    /// The Phoenix tree-of-counters machine.
    #[must_use]
    pub fn phoenix() -> Mode {
        Mode::Phoenix
    }

    /// Freij-style streamlined updates, strict subtree persistence.
    #[must_use]
    pub fn freij_strict() -> Mode {
        Mode::FreijStrict
    }

    /// Freij-style streamlined updates, lazy subtree persistence.
    #[must_use]
    pub fn freij_lazy() -> Mode {
        Mode::FreijLazy
    }

    /// Stable label for reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Mode::Baseline => "baseline",
            Mode::Thoth(EvictionPolicy::Wtsc) => "thoth-wtsc",
            Mode::Thoth(EvictionPolicy::Wtbc) => "thoth-wtbc",
            Mode::AnubisEcc => "anubis-ecc",
            Mode::Eadr => "eadr",
            Mode::Phoenix => "phoenix",
            Mode::FreijStrict => "freij-strict",
            Mode::FreijLazy => "freij-lazy",
        }
    }

    /// Every supported mechanism, in report order: the paper's four
    /// machines first, then the extension mechanisms.
    pub const ALL: [Mode; 8] = [
        Mode::Baseline,
        Mode::Thoth(EvictionPolicy::Wtsc),
        Mode::Thoth(EvictionPolicy::Wtbc),
        Mode::AnubisEcc,
        Mode::Eadr,
        Mode::Phoenix,
        Mode::FreijStrict,
        Mode::FreijLazy,
    ];
}

/// How the PCB is arranged relative to the WPQ (Section IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PcbArrangement {
    /// The paper's adopted design: partial updates first merge inside the
    /// PCB (searching every reserved entry), and only packed full blocks
    /// enter the WPQ.
    #[default]
    BeforeWpq,
    /// The alternative: a partial update whose counter *and* MAC blocks
    /// already have pending (coalescable) WPQ entries merges into those
    /// full-block entries instead of consuming PCB space; everything else
    /// falls back to the PCB path. The paper found the augmented
    /// before-WPQ design performs equivalently.
    AfterWpq,
}

impl PcbArrangement {
    /// Short label for reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            PcbArrangement::BeforeWpq => "pcb-before-wpq",
            PcbArrangement::AfterWpq => "pcb-after-wpq",
        }
    }
}

/// How much functional state the run maintains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FunctionalMode {
    /// Real AES ciphertexts and real MAC bytes in NVM. Required for crash
    /// and recovery testing; slower.
    Full,
    /// Counters, MAC *values* and PUB contents are maintained (so all
    /// policy decisions and write counts are identical to `Full`), but
    /// data bytes are not encrypted or stored. For timing sweeps.
    Fast,
}

/// The machine parameters the experiments vary (the rest of Table I is
/// constants; see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Secure-memory organization.
    pub mode: Mode,
    /// Functional fidelity.
    pub functional: FunctionalMode,
    /// Memory access granularity in bytes (128 or 256 in the evaluation).
    pub block_bytes: usize,
    /// Total WPQ entries (64). In Thoth mode, `pcb_entries` of these are
    /// reserved for the PCB and the WPQ keeps the rest.
    pub wpq_entries: usize,
    /// Reserved PCB entries (8; 1/8 of the WPQ in the sensitivity study).
    pub pcb_entries: usize,
    /// Counter cache capacity in bytes (64 kB; [`CTR_CACHE_WAYS`]-way).
    pub ctr_cache_bytes: usize,
    /// MAC cache capacity in bytes (128 kB; [`MAC_CACHE_WAYS`]-way).
    pub mac_cache_bytes: usize,
    /// PUB region size in bytes. The paper uses 64 MB on 32 GB of data;
    /// the default here is 8 MB, proportional to the traces' footprints
    /// (see DESIGN.md) — still ≈590 k buffered entries at 128 B blocks.
    pub pub_size_bytes: u64,
    /// PUB eviction threshold in percent (80).
    pub pub_threshold_pct: u8,
    /// Pre-fill the PUB to its threshold during warm-up, as the paper
    /// does during fast-forwarding.
    pub pub_prefill: bool,
    /// PCB/WPQ arrangement (Thoth mode only; Section IV-C).
    pub pcb_arrangement: PcbArrangement,
}

impl SimConfig {
    /// The paper's Table I configuration for a given mode and block size.
    #[must_use]
    pub fn paper_default(mode: Mode, block_bytes: usize) -> Self {
        SimConfig {
            mode,
            functional: FunctionalMode::Fast,
            block_bytes,
            wpq_entries: 64,
            pcb_entries: 8,
            ctr_cache_bytes: 64 << 10,
            mac_cache_bytes: 128 << 10,
            pub_size_bytes: 8 << 20,
            pub_threshold_pct: 80,
            pub_prefill: true,
            pcb_arrangement: PcbArrangement::default(),
        }
    }

    /// Effective WPQ capacity: in Thoth mode the PCB entries are carved
    /// out of the WPQ (64 → 56 + 8 in the paper).
    #[must_use]
    pub fn effective_wpq_entries(&self) -> usize {
        match self.mode {
            Mode::Thoth(_) => self.wpq_entries.saturating_sub(self.pcb_entries).max(1),
            _ => self.wpq_entries,
        }
    }

    /// Sizes the WPQ to `entries`, reserving 1/8 of them (at least one)
    /// for the PCB: the paper's rule in its WPQ-size study (Figure 12).
    pub fn resize_wpq(&mut self, entries: usize) {
        self.wpq_entries = entries;
        self.pcb_entries = (entries / 8).max(1);
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent settings (zero sizes, PCB larger than WPQ).
    pub fn validate(&self) {
        assert!(self.block_bytes.is_power_of_two(), "block size power of two");
        assert!(self.wpq_entries > 0);
        assert!(
            self.pcb_entries < self.wpq_entries,
            "PCB must leave WPQ entries"
        );
        assert!(self.pub_size_bytes >= self.block_bytes as u64);
        if matches!(self.mode, Mode::Thoth(_)) {
            // The ADR crash flush writes up to `pcb_entries` packed blocks
            // into the PUB without running eviction; the region must keep
            // that much headroom above the eviction threshold.
            let capacity = self.pub_size_bytes / self.block_bytes as u64;
            let threshold = capacity * u64::from(self.pub_threshold_pct) / 100;
            assert!(
                capacity - threshold >= self.pcb_entries as u64,
                "PUB too small: {capacity} blocks at {}% leaves less headroom \
                 than the {} PCB slots a crash flush can add",
                self.pub_threshold_pct,
                self.pcb_entries
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table I, pinned in one place: every machine constant (whichever
    /// crate holds it) and the varied parameters' defaults.
    #[test]
    fn paper_default_matches_table_i() {
        assert_eq!(thoth_sim_engine::CYCLES_PER_NS, 4, "4 GHz cores");
        assert_eq!(thoth_nvm::CAPACITY_BYTES, 32 << 30);
        assert_eq!(thoth_nvm::NUM_BANKS, 16);
        assert_eq!((thoth_nvm::READ_NS, thoth_nvm::READ_CYCLES), (150, 600));
        assert_eq!((thoth_nvm::WRITE_NS, thoth_nvm::WRITE_CYCLES), (500, 2000));
        assert_eq!(thoth_crypto::AES_CYCLES, 40);
        assert_eq!(thoth_crypto::HASH_CYCLES, 40);
        assert_eq!((CTR_CACHE_WAYS, MAC_CACHE_WAYS), (4, 8));
        assert_eq!((MT_CACHE_BYTES, MT_CACHE_WAYS), (256 << 10, 8));
        assert_eq!((LLC_BYTES, LLC_WAYS, LLC_HIT_CYCLES), (16 << 20, 16, 32));
        assert_eq!(COMPUTE_GAP_CYCLES, 300, "DESIGN.md §4.5 calibration");
        let c = SimConfig::paper_default(Mode::baseline(), 128);
        assert_eq!(c.wpq_entries, 64);
        assert_eq!(c.pcb_entries, 8);
        assert_eq!(c.ctr_cache_bytes, 64 << 10);
        assert_eq!(c.mac_cache_bytes, 128 << 10);
        assert_eq!(c.pub_threshold_pct, 80);
        c.validate();
    }

    #[test]
    fn thoth_reserves_wpq_entries() {
        let base = SimConfig::paper_default(Mode::baseline(), 128);
        let thoth = SimConfig::paper_default(Mode::thoth_wtsc(), 128);
        assert_eq!(base.effective_wpq_entries(), 64);
        assert_eq!(thoth.effective_wpq_entries(), 56);
    }

    #[test]
    fn mode_labels() {
        assert_eq!(Mode::baseline().label(), "baseline");
        assert_eq!(Mode::thoth_wtsc().label(), "thoth-wtsc");
        assert_eq!(Mode::thoth_wtbc().label(), "thoth-wtbc");
        assert_eq!(Mode::AnubisEcc.label(), "anubis-ecc");
        assert_eq!(Mode::eadr().label(), "eadr");
        assert_eq!(Mode::phoenix().label(), "phoenix");
        assert_eq!(Mode::freij_strict().label(), "freij-strict");
        assert_eq!(Mode::freij_lazy().label(), "freij-lazy");
    }

    #[test]
    fn all_modes_are_distinct_and_validate() {
        let mut labels: Vec<&str> = Mode::ALL.iter().map(|m| m.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), Mode::ALL.len());
        for mode in Mode::ALL {
            SimConfig::paper_default(mode, 128).validate();
        }
    }

    #[test]
    fn arrangement_labels() {
        assert_eq!(PcbArrangement::BeforeWpq.label(), "pcb-before-wpq");
        assert_eq!(PcbArrangement::AfterWpq.label(), "pcb-after-wpq");
        assert_eq!(PcbArrangement::default(), PcbArrangement::BeforeWpq);
    }

    #[test]
    #[should_panic(expected = "PCB must leave WPQ entries")]
    fn oversized_pcb_panics() {
        let mut c = SimConfig::paper_default(Mode::thoth_wtsc(), 128);
        c.pcb_entries = 64;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "leaves less headroom than the")]
    fn pub_without_crash_flush_headroom_panics() {
        // 16 blocks at 80% leave 4 free, fewer than the 8 PCB slots.
        let mut c = SimConfig::paper_default(Mode::thoth_wtsc(), 128);
        c.pub_size_bytes = 16 * 128;
        c.validate();
    }
}
