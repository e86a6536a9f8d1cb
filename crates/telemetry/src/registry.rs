//! Log2-bucketed histograms and the report's table of named counters
//! and histograms.
//!
//! Names are `&'static str` and rows keep the order they were built in
//! (the order of the CSV rows); lookup is a linear scan over a small
//! `Vec`, which keeps std `HashMap`, a clippy `disallowed_types` entry,
//! out of the crate.

/// A log2-bucketed histogram of `u64` samples.
///
/// Bucket `0` holds the value `0`; bucket `b > 0` holds values `v` with
/// `floor(log2 v) == b - 1`, i.e. `2^(b-1) <= v < 2^b`. 65 buckets cover
/// the full `u64` range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hist {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist::new()
    }
}

impl Hist {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Hist {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index a value lands in.
    #[must_use]
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Records one sample.
    pub fn observe(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample (`u64::MAX` when empty).
    #[must_use]
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest sample (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of samples (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The raw bucket counts.
    #[must_use]
    pub fn buckets(&self) -> &[u64; 65] {
        &self.buckets
    }

    /// The `p`-quantile of the recorded samples (`p` in `[0, 1]`,
    /// clamped), estimated from the log2 buckets.
    ///
    /// The target rank `p·(count−1)` is located by a cumulative walk over
    /// the buckets. Buckets 0 and 1 hold a single value each (0 and 1),
    /// so quantiles landing there are **exact**; a wider bucket `b`
    /// interpolates linearly across its `[2^(b−1), 2^b)` range, placing
    /// the bucket's `n` samples at its `n` midpoints. The result is
    /// clamped to the observed `[min, max]`, which also makes quantiles
    /// of constant samples exact, and is non-decreasing in `p`. Returns
    /// `0.0` for an empty histogram.
    #[must_use]
    pub fn quantile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let p = p.clamp(0.0, 1.0);
        let target = p * (self.count - 1) as f64;
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            // Samples of bucket b occupy ranks [seen, seen + n).
            if target < (seen + n) as f64 {
                let est = if b <= 1 {
                    // Single-valued buckets: 0 holds {0}, 1 holds {1}.
                    b as f64
                } else {
                    let lo = (1u64 << (b - 1)) as f64;
                    let width = lo; // bucket spans [2^(b-1), 2^b)
                    // Midpoint interpolation, capped at the bucket's top
                    // edge (the +0.5 shift would otherwise overshoot it
                    // and dip below the next bucket's start).
                    (lo + width * (target - seen as f64 + 0.5) / n as f64).min(2.0 * lo)
                };
                return est.clamp(self.min as f64, self.max as f64);
            }
            seen += n;
        }
        self.max as f64
    }
}

/// The named counters and histograms of one report, in row order.
#[derive(Debug)]
pub struct Registry {
    counters: Vec<(&'static str, u64)>,
    hists: Vec<(&'static str, Hist)>,
}

impl Registry {
    /// A table of `counters` and `hists`, each kept in the given order.
    #[must_use]
    pub fn new(counters: Vec<(&'static str, u64)>, hists: Vec<(&'static str, Hist)>) -> Self {
        Registry { counters, hists }
    }

    /// Current value of a counter by name (`None` if the table has none).
    #[must_use]
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// A histogram by name (`None` if the table has none).
    #[must_use]
    pub fn hist_named(&self, name: &str) -> Option<&Hist> {
        self.hists.iter().find(|(n, _)| *n == name).map(|(_, h)| h)
    }

    /// Counters as CSV (`counter,value` header).
    #[must_use]
    pub fn counters_csv(&self) -> String {
        let mut s = String::from("counter,value\n");
        for (name, value) in &self.counters {
            s.push_str(name);
            s.push(',');
            s.push_str(&value.to_string());
            s.push('\n');
        }
        s
    }

    /// Histograms as long-format CSV
    /// (`hist,count,sum,min,max,mean` header, one row per histogram).
    #[must_use]
    pub fn hists_csv(&self) -> String {
        let mut s = String::from("hist,count,sum,min,max,mean\n");
        for (name, h) in &self.hists {
            let min = if h.count() == 0 { 0 } else { h.min() };
            s.push_str(&format!(
                "{name},{},{},{min},{},{:.3}\n",
                h.count(),
                h.sum(),
                h.max(),
                h.mean()
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thoth_testkit::check;

    #[test]
    fn counter_find_or_create() {
        // A built table finds each counter it was created with and no
        // other.
        let r = Registry::new(vec![("x", 7), ("y", 0)], Vec::new());
        assert_eq!(r.counter_value("x"), Some(7));
        assert_eq!(r.counter_value("y"), Some(0));
        assert_eq!(r.counter_value("z"), None);
        assert!(r.hist_named("x").is_none());
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Hist::bucket_of(0), 0);
        assert_eq!(Hist::bucket_of(1), 1);
        assert_eq!(Hist::bucket_of(2), 2);
        assert_eq!(Hist::bucket_of(3), 2);
        assert_eq!(Hist::bucket_of(4), 3);
        assert_eq!(Hist::bucket_of(u64::MAX), 64);
    }

    #[test]
    fn bucket_of_is_log2_partition() {
        // Property: bucket b>0 contains exactly [2^(b-1), 2^b).
        check(500, |g| {
            let v = g.u64();
            let b = Hist::bucket_of(v);
            if v == 0 {
                assert_eq!(b, 0);
            } else {
                assert!(v >= 1u64 << (b - 1));
                assert!(b == 64 || v < 1u64 << b);
            }
        });
    }

    #[test]
    fn hist_totals_match_samples() {
        // Property: count equals bucket sum equals number of observes,
        // and sum/min/max track the sample set.
        check(100, |g| {
            let mut h = Hist::new();
            let n = g.range_usize(1, 64);
            let mut sum = 0u64;
            let mut min = u64::MAX;
            let mut max = 0u64;
            for _ in 0..n {
                let v = g.below(1 << 40);
                h.observe(v);
                sum += v;
                min = min.min(v);
                max = max.max(v);
            }
            assert_eq!(h.count(), n as u64);
            assert_eq!(h.buckets().iter().sum::<u64>(), n as u64);
            assert_eq!(h.sum(), sum);
            assert_eq!(h.min(), min);
            assert_eq!(h.max(), max);
            assert!((h.mean() - sum as f64 / n as f64).abs() < 1e-9);
        });
    }

    #[test]
    fn csv_shapes() {
        let mut lat = Hist::new();
        lat.observe(5);
        let r = Registry::new(vec![("stores", 2), ("loads", 0)], vec![("lat", lat)]);
        assert_eq!(r.counters_csv(), "counter,value\nstores,2\nloads,0\n");
        assert_eq!(
            r.hists_csv(),
            "hist,count,sum,min,max,mean\nlat,1,5,5,5,5.000\n"
        );
    }

    #[test]
    fn quantile_empty_is_zero() {
        let h = Hist::new();
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.quantile(0.999), 0.0);
    }

    #[test]
    fn quantile_exact_below_bucket_two() {
        // Buckets 0 and 1 are single-valued: quantiles there are exact.
        let mut h = Hist::new();
        for _ in 0..90 {
            h.observe(0);
        }
        for _ in 0..10 {
            h.observe(1);
        }
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.quantile(0.95), 1.0);
        assert_eq!(h.quantile(1.0), 1.0);
    }

    #[test]
    fn quantile_constant_samples_is_exact() {
        // min==max clamp pins every quantile of a constant stream.
        let mut h = Hist::new();
        for _ in 0..1000 {
            h.observe(1234);
        }
        for p in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(h.quantile(p), 1234.0, "p={p}");
        }
    }

    #[test]
    fn quantile_pins_p50_p99_p999_on_uniform() {
        // 100_000 samples uniform over [0, 4096): the exact p-quantile is
        // p*4095; log2 interpolation must land within one bucket width
        // (the containing bucket spans half its upper bound).
        let mut h = Hist::new();
        for i in 0..100_000u64 {
            h.observe(i % 4096);
        }
        for (p, exact) in [(0.5, 2047.5), (0.99, 4054.0), (0.999, 4090.9)] {
            let q = h.quantile(p);
            let bucket_width = (1u64 << (Hist::bucket_of(exact as u64) - 1)) as f64;
            assert!(
                (q - exact).abs() <= bucket_width,
                "p={p}: got {q}, exact {exact}, width {bucket_width}"
            );
        }
        assert_eq!(h.quantile(0.0), 0.0);
        assert_eq!(h.quantile(1.0), 4095.0);
    }

    #[test]
    fn quantile_pins_tail_of_bimodal() {
        // 990 fast samples (value 100) + 10 slow (value 100_000): p50 and
        // p99 sit in the fast mode, p999 in the slow mode — the shape the
        // service saturation report depends on.
        let mut h = Hist::new();
        for _ in 0..990 {
            h.observe(100);
        }
        for _ in 0..10 {
            h.observe(100_000);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        let p999 = h.quantile(0.999);
        assert!((64.0..256.0).contains(&p50), "p50 {p50} in fast bucket");
        assert!((64.0..256.0).contains(&p99), "p99 {p99} in fast bucket");
        assert!(
            (65_536.0..=131_072.0).contains(&p999),
            "p999 {p999} in slow bucket"
        );
        assert!(p999 <= 100_000.0, "clamped to observed max");
    }

    #[test]
    fn quantile_is_monotone_in_p() {
        check(100, |g| {
            let mut h = Hist::new();
            let n = g.range_usize(1, 300);
            for _ in 0..n {
                h.observe(g.below(1 << 30));
            }
            let mut prev = h.quantile(0.0);
            for i in 1..=100 {
                let q = h.quantile(f64::from(i) / 100.0);
                assert!(q >= prev, "quantile dips at p={}", f64::from(i) / 100.0);
                prev = q;
            }
            // And bounded by the observed extremes.
            assert!(h.quantile(0.0) >= h.min() as f64);
            assert!(h.quantile(1.0) <= h.max() as f64);
        });
    }

    #[test]
    fn empty_hist_csv_min_is_zero() {
        let r = Registry::new(Vec::new(), vec![("empty", Hist::new())]);
        assert!(r.hists_csv().contains("empty,0,0,0,0,0.000\n"));
    }
}
