//! Simulation time: cycles at the fixed core clock.
//!
//! All timing in the Thoth reproduction is expressed in processor cycles at
//! the paper's 4 GHz clock (Table I), [`CYCLES_PER_NS`] cycles per
//! nanosecond.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, measured in processor clock cycles.
///
/// `Cycle` is an absolute timestamp; durations are plain `u64` cycle counts.
/// The zero cycle is the start of simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(pub u64);

impl Cycle {
    /// The beginning of simulated time.
    pub const ZERO: Cycle = Cycle(0);

    /// Returns the later of `self` and `other`.
    #[must_use]
    pub fn max(self, other: Cycle) -> Cycle {
        Cycle(self.0.max(other.0))
    }

    /// Returns the earlier of `self` and `other`.
    #[must_use]
    pub fn min(self, other: Cycle) -> Cycle {
        Cycle(self.0.min(other.0))
    }

    /// Saturating difference `self - earlier`, in cycles.
    ///
    /// Returns 0 if `earlier` is actually later than `self`.
    #[must_use]
    pub fn saturating_since(self, earlier: Cycle) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;
    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl AddAssign<u64> for Cycle {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Cycle> for Cycle {
    type Output = u64;
    fn sub(self, rhs: Cycle) -> u64 {
        self.0
            .checked_sub(rhs.0)
            .expect("cycle subtraction underflow: rhs is later than lhs")
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cy", self.0)
    }
}

/// Core clock cycles per nanosecond: the paper's 4 GHz cores (Table I).
/// Device latencies given in nanoseconds (the PCM's 150 ns read / 500 ns
/// write) convert to cycles by multiplying with this.
pub const CYCLES_PER_NS: u64 = 4;

/// Converts a cycle count into seconds at the 4 GHz clock, for report
/// output.
#[must_use]
pub fn cycles_to_secs(cycles: u64) -> f64 {
    cycles as f64 / (CYCLES_PER_NS * 1_000_000_000) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_arithmetic() {
        let c = Cycle(100);
        assert_eq!(c + 50, Cycle(150));
        assert_eq!(Cycle(150) - Cycle(100), 50);
        let mut c2 = Cycle(5);
        c2 += 3;
        assert_eq!(c2, Cycle(8));
    }

    #[test]
    fn cycle_ordering_and_extremes() {
        assert!(Cycle(1) < Cycle(2));
        assert_eq!(Cycle(3).max(Cycle(7)), Cycle(7));
        assert_eq!(Cycle(3).min(Cycle(7)), Cycle(3));
        assert_eq!(Cycle::ZERO, Cycle(0));
    }

    #[test]
    fn saturating_since_clamps() {
        assert_eq!(Cycle(10).saturating_since(Cycle(4)), 6);
        assert_eq!(Cycle(4).saturating_since(Cycle(10)), 0);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn cycle_sub_underflow_panics() {
        let _ = Cycle(1) - Cycle(2);
    }

    #[test]
    fn frequency_table_i_latencies() {
        assert_eq!(CYCLES_PER_NS, 4, "4 GHz cores");
        assert_eq!(150 * CYCLES_PER_NS, 600);
        assert_eq!(500 * CYCLES_PER_NS, 2000);
    }

    #[test]
    fn cycles_to_secs() {
        let s = super::cycles_to_secs(4_000_000_000);
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Cycle(42).to_string(), "42cy");
    }
}
