//! Figure 12: sensitivity to WPQ size.
//!
//! The paper shrinks the WPQ from 64 to 32 and 16 entries (always
//! reserving 1/8 of the entries for the PCB in Thoth mode) and finds
//! Thoth's advantage *grows* as the WPQ shrinks: the baseline leans on
//! WPQ coalescing to absorb its strict metadata persists, so a smaller
//! queue hurts it much more than Thoth.

use crate::runner::ExpSettings;
use crate::sensitivity;
use crate::tablefmt::Table;

use thoth_sim::SimConfig;

/// The paper's WPQ sizes.
pub const WPQ_SIZES: [usize; 3] = [64, 32, 16];

/// Runs the sweep and renders one table per block size.
#[must_use]
pub fn run(settings: ExpSettings) -> Vec<Table> {
    let points = WPQ_SIZES.map(|wpq| {
        let edit = move |c: &mut SimConfig| c.resize_wpq(wpq);
        (format!("wpq={wpq}"), edit)
    });
    sensitivity::run(settings, "Figure 12: Thoth speedup vs WPQ size", &points)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_paper() {
        assert_eq!(WPQ_SIZES, [64, 32, 16]);
    }
}
