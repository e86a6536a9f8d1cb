//! Figure 11: sensitivity to secure metadata cache size.
//!
//! The paper grows the counter/MAC caches from 64 kB/128 kB through
//! 512 kB/1 MB to 1 MB/2 MB and finds Thoth's speedup *increases* with
//! cache size: Thoth persists metadata through natural eviction, so fewer
//! evictions mean fewer write-backs, while the baseline still persists
//! strictly on every write.

use crate::runner::ExpSettings;
use crate::sensitivity;
use crate::tablefmt::Table;

use thoth_sim::SimConfig;

/// The paper's (counter cache, MAC cache) size points, in bytes.
pub const CACHE_POINTS: [(usize, usize); 3] = [
    (64 << 10, 128 << 10),
    (512 << 10, 1 << 20),
    (1 << 20, 2 << 20),
];

/// Runs the sweep and renders one table per block size.
#[must_use]
pub fn run(settings: ExpSettings) -> Vec<Table> {
    let points = CACHE_POINTS.map(|(ctr, mac)| {
        let edit = move |c: &mut SimConfig| {
            c.ctr_cache_bytes = ctr;
            c.mac_cache_bytes = mac;
        };
        (format!("{}k/{}k", ctr >> 10, mac >> 10), edit)
    });
    sensitivity::run(
        settings,
        "Figure 11: Thoth speedup vs counter/MAC cache size",
        &points,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_points_match_paper() {
        assert_eq!(CACHE_POINTS[0], (64 << 10, 128 << 10));
        assert_eq!(CACHE_POINTS[2], (1 << 20, 2 << 20));
    }
}
