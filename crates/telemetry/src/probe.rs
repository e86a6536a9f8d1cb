//! Occupancy probe for bounded queues.
//!
//! The machine's telemetry observer owns one probe per persist-path
//! queue and records every queue's occupancy after each retired op into
//! a log2 histogram plus a running peak; the report summarises each
//! probe against the capacity it was created with.

use crate::registry::Hist;

/// Records the occupancy history of one bounded queue.
#[derive(Debug, Clone)]
pub struct QueueProbe {
    name: &'static str,
    capacity: u64,
    hist: Hist,
    peak: u64,
}

impl QueueProbe {
    /// A fresh probe for a queue of `capacity` slots.
    #[must_use]
    pub fn new(name: &'static str, capacity: u64) -> Self {
        QueueProbe {
            name,
            capacity,
            hist: Hist::new(),
            peak: 0,
        }
    }

    /// Records one occupancy sample.
    pub fn record(&mut self, occupancy: u64) {
        self.hist.observe(occupancy);
        self.peak = self.peak.max(occupancy);
    }

    /// The probe's queue name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The queue capacity the probe was created with.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Highest occupancy ever recorded.
    #[must_use]
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn samples(&self) -> u64 {
        self.hist.count()
    }

    /// The occupancy histogram.
    #[must_use]
    pub fn hist(&self) -> &Hist {
        &self.hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thoth_testkit::check;

    #[test]
    fn records_peak_and_samples() {
        let mut p = QueueProbe::new("wpq", 64);
        for occ in [0u64, 3, 7, 2, 7, 5] {
            p.record(occ);
        }
        assert_eq!(p.name(), "wpq");
        assert_eq!(p.capacity(), 64);
        assert_eq!(p.peak(), 7);
        assert_eq!(p.samples(), 6);
    }

    #[test]
    fn peak_is_max_of_recorded() {
        check(100, |g| {
            let cap = g.range(1, 128);
            let mut p = QueueProbe::new("q", cap);
            let mut max = 0u64;
            for _ in 0..g.range_usize(1, 64) {
                let occ = g.below(cap + 1);
                max = max.max(occ);
                p.record(occ);
            }
            assert_eq!(p.peak(), max);
            assert_eq!(p.hist().count(), p.samples());
        });
    }
}
