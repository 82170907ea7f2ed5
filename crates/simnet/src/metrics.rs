//! Lightweight metrics: counters and log-bucketed histograms.
//!
//! The histogram uses logarithmic buckets (HdrHistogram-style, base-2
//! exponent with linear sub-buckets) so it can absorb nanosecond-to-second
//! latencies with bounded error and O(1) recording. Quantile queries
//! interpolate within a bucket.

use std::collections::BTreeMap;
use std::fmt;

/// A monotonically increasing counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    pub fn add(&mut self, n: u64) {
        self.0 = self.0.saturating_add(n);
    }

    pub fn get(&self) -> u64 {
        self.0
    }
}

const SUB_BUCKET_BITS: u32 = 5; // 32 linear sub-buckets per power of two
const SUB_BUCKETS: u64 = 1 << SUB_BUCKET_BITS;

/// A representative sample attached to a histogram bucket: the largest
/// value recorded into that bucket together with the trace id that produced
/// it, so tail buckets can be walked back to concrete traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemplar {
    pub value: u64,
    pub trace_id: u64,
}

/// Log-bucketed histogram of `u64` samples (we record nanoseconds or bytes).
/// Relative error per sample is bounded by `1 / SUB_BUCKETS ≈ 3.1%`.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    counts: BTreeMap<u32, u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
    /// Per-bucket exemplars; only populated via
    /// [`Histogram::record_with_exemplar`], so plain recording stays
    /// byte-identical to the pre-exemplar histogram.
    exemplars: BTreeMap<u32, Exemplar>,
}

fn bucket_of(value: u64) -> u32 {
    if value < SUB_BUCKETS {
        return value as u32;
    }
    // Position of the highest set bit determines the exponent; the next
    // SUB_BUCKET_BITS bits select the linear sub-bucket.
    let exp = 63 - value.leading_zeros();
    let shift = exp - SUB_BUCKET_BITS;
    let sub = ((value >> shift) - SUB_BUCKETS) as u32;
    (exp - SUB_BUCKET_BITS + 1) * SUB_BUCKETS as u32 + sub
}

fn bucket_low(bucket: u32) -> u64 {
    let sb = SUB_BUCKETS as u32;
    if bucket < sb {
        return bucket as u64;
    }
    let tier = bucket / sb; // >= 1
    let sub = (bucket % sb) as u64;
    let shift = tier - 1;
    (SUB_BUCKETS + sub) << shift
}

fn bucket_high(bucket: u32) -> u64 {
    let sb = SUB_BUCKETS as u32;
    if bucket < sb {
        return bucket as u64;
    }
    let tier = bucket / sb;
    let shift = tier - 1;
    bucket_low(bucket) + (1u64 << shift) - 1
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            counts: BTreeMap::new(),
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            exemplars: BTreeMap::new(),
        }
    }

    pub fn record(&mut self, value: u64) {
        *self.counts.entry(bucket_of(value)).or_insert(0) += 1;
        self.total += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Record a value and attach `trace_id` as the bucket's exemplar if this
    /// is the largest value the bucket has seen (strictly-greater keeps the
    /// first on ties, so replays are deterministic).
    pub fn record_with_exemplar(&mut self, value: u64, trace_id: u64) {
        self.record(value);
        let b = bucket_of(value);
        match self.exemplars.entry(b) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(Exemplar { value, trace_id });
            }
            std::collections::btree_map::Entry::Occupied(mut e) => {
                if value > e.get().value {
                    e.insert(Exemplar { value, trace_id });
                }
            }
        }
    }

    /// Bucket exemplars in ascending bucket (≈ value) order.
    pub fn exemplars(&self) -> impl Iterator<Item = &Exemplar> {
        self.exemplars.values()
    }

    /// Exemplars from buckets whose range reaches `threshold` or above —
    /// the concrete trace ids behind the tail of the distribution.
    pub fn exemplars_at_or_above(&self, threshold: u64) -> Vec<Exemplar> {
        self.exemplars
            .iter()
            .filter(|(&b, _)| bucket_high(b) >= threshold)
            .map(|(_, e)| *e)
            .collect()
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Approximate quantile `q ∈ [0,1]` by linear interpolation within the
    /// containing bucket. Exact for values < 32 (unit buckets), and exact at
    /// the boundaries: `q = 0` returns the true minimum, `q = 1` the true
    /// maximum (both are tracked outside the buckets), and a single-sample
    /// histogram always answers with that sample's bucket floor = min = max.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        if q == 0.0 {
            return self.min();
        }
        if q == 1.0 || self.total == 1 {
            return self.max;
        }
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (&bucket, &count) in &self.counts {
            if seen + count >= target {
                let into = (target - seen) as f64 / count as f64;
                let low = bucket_low(bucket) as f64;
                let high = bucket_high(bucket) as f64;
                let v = low + (high - low) * into;
                return (v.round() as u64).clamp(self.min(), self.max);
            }
            seen += count;
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Merge another histogram into this one. Colliding bucket exemplars
    /// keep the larger value (ties keep `self`'s), matching
    /// [`Histogram::record_with_exemplar`]'s rule so merge order cannot
    /// change the result.
    pub fn merge(&mut self, other: &Histogram) {
        for (&b, &c) in &other.counts {
            *self.counts.entry(b).or_insert(0) += c;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (&b, e) in &other.exemplars {
            match self.exemplars.entry(b) {
                std::collections::btree_map::Entry::Vacant(v) => {
                    v.insert(*e);
                }
                std::collections::btree_map::Entry::Occupied(mut o) => {
                    if e.value > o.get().value {
                        o.insert(*e);
                    }
                }
            }
        }
    }

    /// The histogram of everything recorded *after* `earlier` was
    /// snapshotted, assuming `earlier` is a prefix of `self` (as when a
    /// runner clones the histogram every heartbeat). Counts and sums
    /// subtract exactly; min/max are re-derived from the surviving buckets'
    /// bounds (clamped to `self`'s true extremes), which is the same ≤3.1%
    /// bucket error the histogram already carries. Exemplars are not
    /// windowed — the cumulative histogram keeps those.
    pub fn since(&self, earlier: &Histogram) -> Histogram {
        let mut counts = BTreeMap::new();
        for (&b, &c) in &self.counts {
            let prev = earlier.counts.get(&b).copied().unwrap_or(0);
            if c > prev {
                counts.insert(b, c - prev);
            }
        }
        let total = self.total.saturating_sub(earlier.total);
        let (min, max) = if total == 0 || counts.is_empty() {
            (u64::MAX, 0)
        } else {
            let first = *counts.keys().next().unwrap();
            let last = *counts.keys().next_back().unwrap();
            (
                bucket_low(first).max(self.min),
                bucket_high(last).min(self.max),
            )
        };
        Histogram {
            counts,
            total,
            sum: self.sum.saturating_sub(earlier.sum),
            min,
            max,
            exemplars: BTreeMap::new(),
        }
    }

    /// Snapshot as a [`telemetry::Summary`] (p50/p90/p99/p999) for registry
    /// export.
    pub fn summary(&self) -> telemetry::Summary {
        telemetry::Summary {
            count: self.total,
            sum: self.sum as f64,
            min: self.min() as f64,
            max: self.max as f64,
            quantiles: vec![
                (0.5, self.quantile(0.5) as f64),
                (0.9, self.quantile(0.9) as f64),
                (0.99, self.quantile(0.99) as f64),
                (0.999, self.quantile(0.999) as f64),
            ],
        }
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.1} p50={} p99={} max={}",
            self.total,
            self.mean(),
            self.p50(),
            self.p99(),
            self.max
        )
    }
}

/// A named bag of counters and histograms, keyed by static strings.
#[derive(Debug, Clone, Default)]
pub struct MetricSet {
    counters: BTreeMap<String, Counter>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricSet {
    pub fn new() -> Self {
        Self::default()
    }

    // Both accessors look the name up before inserting, so a name already
    // present costs no `String`. Returning the `get_mut` borrow early does
    // not pass the borrow checker, hence check first, then insert.
    pub fn counter(&mut self, name: &str) -> &mut Counter {
        if !self.counters.contains_key(name) {
            self.counters.insert(name.to_string(), Counter::default());
        }
        self.counters.get_mut(name).expect("inserted above")
    }

    pub fn histogram(&mut self, name: &str) -> &mut Histogram {
        if !self.histograms.contains_key(name) {
            self.histograms
                .insert(name.to_string(), Histogram::default());
        }
        self.histograms.get_mut(name).expect("inserted above")
    }

    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.get(name).map(|c| c.get()).unwrap_or(0)
    }

    pub fn get_histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), v.get()))
    }

    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Export every counter (as a Prometheus counter) and every histogram
    /// (as a summary) into `reg`. Metric names become `{prefix}{name}`;
    /// `labels` are attached to every series.
    pub fn export(&self, reg: &mut telemetry::Registry, prefix: &str, labels: &[(&str, &str)]) {
        for (name, value) in self.counters() {
            reg.set_counter(&format!("{prefix}{name}"), labels, value);
        }
        for (name, hist) in self.histograms() {
            if !hist.is_empty() {
                reg.set_summary(&format!("{prefix}{name}"), labels, hist.summary());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basic() {
        let mut c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 31);
        assert_eq!(h.count(), 32);
        // Median of 0..=31 is ~15/16; unit buckets make this exact ±1.
        let p50 = h.p50();
        assert!((15..=16).contains(&p50), "p50 was {p50}");
    }

    #[test]
    fn bucket_bounds_are_consistent() {
        for v in [
            0u64,
            1,
            31,
            32,
            33,
            100,
            1_000,
            123_456,
            u32::MAX as u64,
            1 << 40,
        ] {
            let b = bucket_of(v);
            assert!(
                bucket_low(b) <= v && v <= bucket_high(b),
                "value {v} not within bucket {b}: [{}, {}]",
                bucket_low(b),
                bucket_high(b)
            );
        }
    }

    #[test]
    fn quantile_error_is_bounded() {
        let mut h = Histogram::new();
        for i in 1..=10_000u64 {
            h.record(i * 17);
        }
        let p50 = h.p50() as f64;
        let exact = 5_000.0 * 17.0;
        assert!(
            (p50 - exact).abs() / exact < 0.05,
            "p50={p50} exact={exact}"
        );
        let p99 = h.p99() as f64;
        let exact99 = 9_900.0 * 17.0;
        assert!((p99 - exact99).abs() / exact99 < 0.05);
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = Histogram::new();
        assert_eq!(h.p50(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(1_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 10);
        assert_eq!(a.max(), 1_000);
    }

    #[test]
    fn metric_set_round_trips() {
        let mut m = MetricSet::new();
        m.counter("reads").add(3);
        m.histogram("latency").record(42);
        assert_eq!(m.counter_value("reads"), 3);
        assert_eq!(m.counter_value("missing"), 0);
        assert_eq!(m.get_histogram("latency").unwrap().count(), 1);
        assert_eq!(m.counters().count(), 1);
        assert_eq!(m.histograms().count(), 1);
    }

    #[test]
    fn mean_tracks_exact_sum() {
        let mut h = Histogram::new();
        h.record(100);
        h.record(200);
        h.record(300);
        assert!((h.mean() - 200.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_boundaries_are_exact() {
        let mut h = Histogram::new();
        // Large, sparse values so bucket interpolation would be visibly
        // off without the exact boundary handling.
        for v in [1_000u64, 70_000, 1_000_003, 90_000_017] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 1_000);
        assert_eq!(h.quantile(1.0), 90_000_017);
    }

    #[test]
    fn single_sample_histogram_is_exact_at_every_quantile() {
        let mut h = Histogram::new();
        h.record(123_457);
        for q in [0.0, 0.1, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 123_457, "q={q}");
        }
    }

    /// Property test against a sorted-vec oracle: for randomized inputs
    /// across several magnitudes, every quantile must be within the
    /// histogram's documented relative-error bound of the exact
    /// (nearest-rank) answer, and q=0 / q=1 must be exact.
    #[test]
    fn quantiles_match_sorted_vec_oracle() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            // xorshift64* — deterministic, dependency-free.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        for case in 0..50 {
            let n = 1 + (next() % 2_000) as usize;
            // Mix magnitudes: unit-bucket values, mid-range, and huge.
            let mut samples: Vec<u64> = (0..n)
                .map(|_| match next() % 3 {
                    0 => next() % 32,
                    1 => next() % 1_000_000,
                    _ => next() % (1 << 40),
                })
                .collect();
            let mut h = Histogram::new();
            for &s in &samples {
                h.record(s);
            }
            samples.sort_unstable();
            assert_eq!(h.quantile(0.0), samples[0], "case {case}: q=0 not min");
            assert_eq!(h.quantile(1.0), samples[n - 1], "case {case}: q=1 not max");
            // q→1 boundary: a quantile within one ulp-ish of 1 must land on
            // the true maximum (ceil-rank puts the target at rank n, and
            // interpolation in the top bucket clamps to max).
            assert_eq!(
                h.quantile(1.0 - 1e-9),
                samples[n - 1],
                "case {case}: q→1 not max"
            );
            for q in [0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999] {
                let rank = ((q * n as f64).ceil().max(1.0) as usize).min(n) - 1;
                let exact = samples[rank];
                let got = h.quantile(q);
                // One sub-bucket of slack on top of the 1/32 relative bound
                // covers interpolation and rank rounding.
                let tol = (exact as f64 / SUB_BUCKETS as f64).max(1.0) * 2.0;
                assert!(
                    (got as f64 - exact as f64).abs() <= tol,
                    "case {case}: q={q} got={got} exact={exact} tol={tol}"
                );
            }
        }
    }

    #[test]
    fn summary_snapshot_matches_histogram() {
        let mut h = Histogram::new();
        for i in 1..=100u64 {
            h.record(i * 1_000);
        }
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 1_000.0);
        assert_eq!(s.max, 100_000.0);
        assert_eq!(s.quantiles.len(), 4);
        assert_eq!(s.quantiles[0].0, 0.5);
        assert_eq!(s.quantiles[0].1, h.p50() as f64);
        assert_eq!(s.quantiles[3].0, 0.999);
        assert_eq!(s.quantiles[3].1, h.p999() as f64);
    }

    #[test]
    fn p999_sits_between_p99_and_max() {
        let mut h = Histogram::new();
        for i in 1..=10_000u64 {
            h.record(i);
        }
        let (p99, p999, max) = (h.p99(), h.p999(), h.max());
        assert!(p99 <= p999 && p999 <= max, "{p99} {p999} {max}");
        let exact = 9_990.0;
        assert!((p999 as f64 - exact).abs() / exact < 0.05, "p999={p999}");
    }

    #[test]
    fn exemplars_keep_bucket_maximum_deterministically() {
        // Sub-buckets at ~1000 are 16 wide (992..=1007), so these three
        // share one bucket.
        let mut h = Histogram::new();
        h.record_with_exemplar(1_000, 0xaaaa);
        h.record_with_exemplar(1_007, 0xbbbb); // same bucket, larger value
        h.record_with_exemplar(1_007, 0xcccc); // tie — first writer wins
        h.record_with_exemplar(5, 0xdddd);
        let tail = h.exemplars_at_or_above(900);
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].value, 1_007);
        assert_eq!(tail[0].trace_id, 0xbbbb);
        assert_eq!(h.exemplars().count(), 2);
        // Plain record never creates exemplars (baseline byte-compat).
        let mut plain = Histogram::new();
        plain.record(1_000);
        assert_eq!(plain.exemplars().count(), 0);
        // Merge applies the same keep-max rule in either order.
        let mut a = Histogram::new();
        a.record_with_exemplar(1_000, 1);
        let mut b = Histogram::new();
        b.record_with_exemplar(1_007, 2);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(
            ab.exemplars().collect::<Vec<_>>(),
            ba.exemplars().collect::<Vec<_>>()
        );
        assert_eq!(ab.exemplars().next().unwrap().trace_id, 2);
    }

    #[test]
    fn since_returns_the_window_delta() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        let snap = h.clone();
        for v in [1_000u64, 2_000] {
            h.record(v);
        }
        let w = h.since(&snap);
        assert_eq!(w.count(), 2);
        assert_eq!(w.mean(), 1_500.0);
        // Window extremes come from bucket bounds, clamped to the true max.
        assert!(w.min() >= 960 && w.min() <= 1_000, "min={}", w.min());
        assert_eq!(w.max(), 2_000);
        assert!(w.p99() >= 1_900);
        // Empty window is safe.
        let empty = h.since(&h.clone());
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.p99(), 0);
    }

    #[test]
    fn metric_set_exports_to_registry() {
        let mut m = MetricSet::new();
        m.counter("reads").add(7);
        m.histogram("latency_ns").record(500);
        m.histogram("empty_one"); // never recorded — must be skipped
        let mut reg = telemetry::Registry::new();
        m.export(&mut reg, "sim_", &[("arch", "linked")]);
        assert_eq!(
            reg.counter_value("sim_reads", &[("arch", "linked")]),
            Some(7)
        );
        let s = reg
            .summary_value("sim_latency_ns", &[("arch", "linked")])
            .unwrap();
        assert_eq!(s.count, 1);
        assert!(reg
            .summary_value("sim_empty_one", &[("arch", "linked")])
            .is_none());
        assert_eq!(reg.series_count(), 2);
    }
}
