//! Typed counters and log2-bucketed histograms behind a dense registry.
//!
//! Names are `&'static str`; lookup is a linear scan over a small `Vec`,
//! which is both allocation-free after warm-up and faster than hashing
//! for the dozen-odd stats a run registers (and it keeps std `HashMap`,
//! a clippy `disallowed_types` entry, out of the crate). IDs are dense
//! indices; the hot path is `add`/`observe` by ID — one bounds-checked
//! array access.

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(usize);

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

/// The dense stat registry: counters and histograms, registered by name.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Vec<(&'static str, u64)>,
    hists: Vec<(&'static str, Hist)>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    /// Finds or registers the counter `name`.
    pub fn counter(&mut self, name: &'static str) -> CounterId {
        if let Some(i) = self.counters.iter().position(|(n, _)| *n == name) {
            return CounterId(i);
        }
        self.counters.push((name, 0));
        CounterId(self.counters.len() - 1)
    }

    /// Finds or registers the histogram `name`.
    pub fn hist(&mut self, name: &'static str) -> HistId {
        if let Some(i) = self.hists.iter().position(|(n, _)| *n == name) {
            return HistId(i);
        }
        self.hists.push((name, Hist::new()));
        HistId(self.hists.len() - 1)
    }

    /// Adds `n` to a counter.
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counters[id.0].1 += n;
    }

    /// Records one histogram sample.
    pub fn observe(&mut self, id: HistId, value: u64) {
        self.hists[id.0].1.observe(value);
    }

    /// Records a sample in the histogram AND bumps its paired counter by
    /// one — the invariant the property tests pin down: for every stat
    /// recorded this way, `hist.count() == counter value`.
    pub fn event(&mut self, counter: CounterId, hist: HistId, value: u64) {
        self.add(counter, 1);
        self.observe(hist, value);
    }

    /// Current value of a counter by name (`None` if never registered).
    #[must_use]
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// A histogram by name (`None` if never registered).
    #[must_use]
    pub fn hist_named(&self, name: &str) -> Option<&Hist> {
        self.hists.iter().find(|(n, _)| *n == name).map(|(_, h)| h)
    }

    /// Every counter as `(name, value)`, in registration order.
    #[must_use]
    pub fn counters(&self) -> &[(&'static str, u64)] {
        &self.counters
    }

    /// Every histogram as `(name, hist)`, in registration order.
    #[must_use]
    pub fn hists(&self) -> &[(&'static str, Hist)] {
        &self.hists
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
        let mut r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("y");
        let a2 = r.counter("x");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        r.add(a, 3);
        r.add(a2, 4);
        assert_eq!(r.counter_value("x"), Some(7));
        assert_eq!(r.counter_value("y"), Some(0));
        assert_eq!(r.counter_value("z"), None);
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
    fn event_keeps_hist_and_counter_in_lock_step() {
        // The headline telemetry invariant: stats recorded via `event`
        // always satisfy hist.count == counter.
        check(100, |g| {
            let mut r = Registry::new();
            let c = r.counter("persists");
            let h = r.hist("persist_latency");
            let n = g.range_usize(0, 200);
            for _ in 0..n {
                r.event(c, h, g.below(10_000));
            }
            assert_eq!(
                r.counter_value("persists").expect("registered"),
                r.hist_named("persist_latency").expect("registered").count()
            );
        });
    }

    #[test]
    fn csv_shapes() {
        let mut r = Registry::new();
        let c = r.counter("stores");
        r.add(c, 2);
        let h = r.hist("lat");
        r.observe(h, 5);
        let cc = r.counters_csv();
        assert!(cc.starts_with("counter,value\n"));
        assert!(cc.contains("stores,2\n"));
        let hc = r.hists_csv();
        assert!(hc.starts_with("hist,count,sum,min,max,mean\n"));
        assert!(hc.contains("lat,1,5,5,5,5.000\n"));
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
        let mut r = Registry::new();
        r.hist("empty");
        assert!(r.hists_csv().contains("empty,0,0,0,0,0.000\n"));
    }
}
