//! Miss-ratio-curve (MRC) estimation.
//!
//! The §4 theoretical model is driven by `MR(x)` — the miss ratio of a cache
//! of size `x`. This module provides three estimators:
//!
//! * [`zipf_hit_ratio`] — the idealized estimate: a cache holding the `c`
//!   hottest of `n` Zipf(α) keys hits with the summed popularity of those
//!   keys. Exact for LFU under the independent reference model; a good
//!   upper bound for LRU.
//! * [`che_lru_hit_ratio`] — Che's approximation for LRU: solve for the
//!   characteristic time `T` with `Σᵢ (1 − e^{−pᵢT}) = c`, then
//!   `hit = Σᵢ pᵢ (1 − e^{−pᵢT})`. Markedly more accurate than the
//!   top-c estimate at small cache sizes.
//! * [`StackDistance`] — Mattson's exact LRU MRC from a concrete trace, via
//!   a Fenwick tree over access timestamps (O(log n) per access). One pass
//!   yields the miss ratio at *every* cache size simultaneously.

use std::collections::HashMap;
use std::hash::Hash;

/// Normalized Zipf(α) popularity vector for ranks `1..=n` (index 0 = hottest).
pub fn zipf_popularities(n: usize, alpha: f64) -> Vec<f64> {
    assert!(n > 0, "zipf requires at least one key");
    let mut p: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-alpha)).collect();
    let sum: f64 = p.iter().sum();
    for v in &mut p {
        *v /= sum;
    }
    p
}

/// Idealized hit ratio of a cache holding the `cache_items` hottest of
/// `n` Zipf(α) keys.
pub fn zipf_hit_ratio(n: usize, alpha: f64, cache_items: usize) -> f64 {
    if cache_items == 0 {
        return 0.0;
    }
    if cache_items >= n {
        return 1.0;
    }
    zipf_popularities(n, alpha)[..cache_items].iter().sum()
}

/// Che's approximation of the LRU hit ratio for a popularity vector `p`
/// (need not be Zipfian) and a cache of `cache_items` entries.
pub fn che_lru_hit_ratio(popularities: &[f64], cache_items: usize) -> f64 {
    let n = popularities.len();
    if cache_items == 0 || n == 0 {
        return 0.0;
    }
    if cache_items >= n {
        return 1.0;
    }
    let c = cache_items as f64;
    // Occupancy Σ (1 - e^{-p_i T}) is increasing in T: bisect for T.
    let occupancy = |t: f64| -> f64 {
        popularities
            .iter()
            .map(|&p| 1.0 - (-p * t).exp())
            .sum::<f64>()
    };
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    while occupancy(hi) < c {
        hi *= 2.0;
        if hi > 1e18 {
            break;
        }
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if occupancy(mid) < c {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let t = 0.5 * (lo + hi);
    popularities
        .iter()
        .map(|&p| p * (1.0 - (-p * t).exp()))
        .sum()
}

/// Fixed-capacity Fenwick (binary indexed) tree over access timestamps.
/// Growth and renumbering are handled by the owner ([`StackDistance`], or
/// the SHARDS profiler in `elastic`) rebuilding a fresh tree from its live
/// marks — O(n log n) but amortized over doublings.
#[derive(Debug, Clone, Default)]
pub struct Fenwick {
    tree: Vec<i64>,
}

impl Fenwick {
    /// Capacity for indices `1..=n`.
    pub fn with_capacity(n: usize) -> Self {
        Fenwick {
            tree: vec![0; n + 1],
        }
    }

    /// Largest valid index.
    pub fn capacity(&self) -> usize {
        self.tree.len().saturating_sub(1)
    }

    /// Add `delta` (+1 marks, -1 unmarks) at index `i` in `1..=capacity`.
    #[inline]
    pub fn add(&mut self, mut i: usize, delta: i64) {
        debug_assert!(i >= 1 && i <= self.capacity(), "fenwick index {i}");
        while i < self.tree.len() {
            self.tree[i] += delta;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of marks in `[1, i]`.
    #[inline]
    pub fn prefix(&self, mut i: usize) -> u64 {
        i = i.min(self.capacity());
        let mut s: i64 = 0;
        while i > 0 {
            s += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        debug_assert!(s >= 0);
        s as u64
    }
}

/// Mattson stack-distance processor: feed it a reference stream, get the
/// exact LRU miss-ratio curve.
#[derive(Debug, Clone, Default)]
pub struct StackDistance<K: Hash + Eq> {
    last_access: HashMap<K, usize>,
    fenwick: Fenwick,
    clock: usize,
    /// histogram[d] = number of accesses with stack distance d (1-based);
    /// grows on demand.
    histogram: Vec<u64>,
    cold_misses: u64,
    total: u64,
}

impl<K: Hash + Eq> StackDistance<K> {
    pub fn new() -> Self {
        StackDistance {
            last_access: HashMap::new(),
            fenwick: Fenwick::with_capacity(1024),
            clock: 0,
            histogram: Vec::new(),
            cold_misses: 0,
            total: 0,
        }
    }

    /// Double the Fenwick capacity, re-marking each key's latest access.
    fn grow(&mut self, need: usize) {
        let new_cap = need.next_power_of_two().max(2048);
        let mut fresh = Fenwick::with_capacity(new_cap);
        for &t in self.last_access.values() {
            fresh.add(t, 1);
        }
        self.fenwick = fresh;
    }

    /// Record one access; returns the stack distance (`None` on first touch).
    ///
    /// The distance counts the distinct keys accessed since the previous
    /// access to this key, including the key itself — so a distance-`d`
    /// access hits in any LRU cache holding ≥ `d` entries.
    pub fn access(&mut self, key: K) -> Option<u64> {
        self.clock += 1;
        self.total += 1;
        let t = self.clock;
        if t > self.fenwick.capacity() {
            self.grow(t * 2);
        }
        match self.last_access.insert(key, t) {
            None => {
                self.fenwick.add(t, 1);
                self.cold_misses += 1;
                None
            }
            Some(prev) => {
                // distinct keys touched in (prev, t-1], plus the key itself
                let between = self.fenwick.prefix(t - 1) - self.fenwick.prefix(prev);
                let distance = between + 1;
                self.fenwick.add(prev, -1);
                self.fenwick.add(t, 1);
                let d = distance as usize;
                if self.histogram.len() <= d {
                    self.histogram.resize(d + 1, 0);
                }
                self.histogram[d] += 1;
                Some(distance)
            }
        }
    }

    pub fn total_accesses(&self) -> u64 {
        self.total
    }

    pub fn unique_keys(&self) -> u64 {
        self.cold_misses
    }

    /// Produce the miss-ratio curve over entry counts.
    pub fn curve(&self) -> MissRatioCurve {
        let mut points = Vec::with_capacity(self.histogram.len() + 1);
        // misses(c) = cold + accesses with distance > c
        let reuse_total: u64 = self.histogram.iter().sum();
        let mut within = 0u64; // accesses with distance <= c
        points.push((0u64, 1.0)); // size-0 cache misses everything
        for (d, &count) in self.histogram.iter().enumerate().skip(1) {
            within += count;
            let misses = self.cold_misses + (reuse_total - within);
            let ratio = if self.total == 0 {
                0.0
            } else {
                misses as f64 / self.total as f64
            };
            if count > 0 || d == self.histogram.len() - 1 {
                points.push((d as u64, ratio));
            }
        }
        if points.len() == 1 {
            // No reuses at all: every access is a cold miss at any size.
            points.push((1, 1.0));
        }
        MissRatioCurve { points }
    }
}

/// A piecewise-constant miss-ratio curve over cache sizes in *entries*.
/// Query with [`MissRatioCurve::miss_ratio`]; convert entries↔bytes at the
/// call site using the workload's mean entry size.
#[derive(Debug, Clone)]
pub struct MissRatioCurve {
    /// (cache_entries, miss_ratio), strictly increasing in entries.
    pub points: Vec<(u64, f64)>,
}

impl MissRatioCurve {
    /// Miss ratio for a cache of `entries` slots: the value at the largest
    /// point ≤ `entries` (curves are non-increasing step functions).
    pub fn miss_ratio(&self, entries: u64) -> f64 {
        let mut ratio = 1.0;
        for &(sz, mr) in &self.points {
            if sz <= entries {
                ratio = mr;
            } else {
                break;
            }
        }
        ratio
    }

    pub fn hit_ratio(&self, entries: u64) -> f64 {
        1.0 - self.miss_ratio(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_popularities_are_normalized_and_sorted() {
        let p = zipf_popularities(1000, 1.2);
        let sum: f64 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(p.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn zipf_hit_ratio_monotone_in_cache_size() {
        let mut prev = 0.0;
        for c in [0, 1, 10, 100, 1_000, 10_000, 100_000] {
            let h = zipf_hit_ratio(100_000, 1.2, c);
            assert!(h >= prev);
            prev = h;
        }
        assert_eq!(zipf_hit_ratio(100, 1.2, 100), 1.0);
        assert_eq!(zipf_hit_ratio(100, 1.2, 0), 0.0);
    }

    #[test]
    fn zipf_skew_concentrates_mass() {
        // With α=1.2 over 100K keys the paper's working sets are tiny:
        // the top 1% of keys should cover well over half the accesses.
        let h = zipf_hit_ratio(100_000, 1.2, 1_000);
        assert!(h > 0.6, "top-1% coverage was {h}");
        // And low skew should cover much less.
        let h_low = zipf_hit_ratio(100_000, 0.6, 1_000);
        assert!(h_low < h - 0.2);
    }

    #[test]
    fn che_approximation_bounded_by_ideal() {
        let p = zipf_popularities(10_000, 1.0);
        for c in [10usize, 100, 1_000, 5_000] {
            let che = che_lru_hit_ratio(&p, c);
            let ideal = zipf_hit_ratio(10_000, 1.0, c);
            assert!(che <= ideal + 1e-6, "che {che} ideal {ideal} at c={c}");
            assert!(che > 0.0);
        }
        assert_eq!(che_lru_hit_ratio(&p, 10_000), 1.0);
        assert_eq!(che_lru_hit_ratio(&p, 0), 0.0);
    }

    #[test]
    fn che_matches_uniform_closed_form() {
        // Uniform popularities: LRU hit ratio ≈ c/n.
        let n = 1_000;
        let p = vec![1.0 / n as f64; n];
        for c in [100usize, 500, 900] {
            let che = che_lru_hit_ratio(&p, c);
            let expect = c as f64 / n as f64;
            assert!((che - expect).abs() < 0.05, "che={che} expect={expect}");
        }
    }

    #[test]
    fn stack_distance_of_simple_sequence() {
        let mut sd = StackDistance::new();
        assert_eq!(sd.access("a"), None);
        assert_eq!(sd.access("b"), None);
        assert_eq!(sd.access("a"), Some(2)); // b touched since
        assert_eq!(sd.access("a"), Some(1)); // immediate re-reference
        assert_eq!(sd.access("c"), None);
        assert_eq!(sd.access("b"), Some(3)); // a, c touched since
    }

    #[test]
    fn repeated_scans_have_distance_equal_to_working_set() {
        let mut sd = StackDistance::new();
        let n = 50u32;
        for _round in 0..4 {
            for k in 0..n {
                sd.access(k);
            }
        }
        let curve = sd.curve();
        // Cache of n entries captures all re-references; n-1 captures none
        // (cyclic scan is LRU's worst case).
        assert!((curve.miss_ratio(n as u64) - (n as f64 / (4 * n) as f64)).abs() < 1e-9);
        assert_eq!(curve.miss_ratio((n - 1) as u64), 1.0);
    }

    #[test]
    fn curve_is_non_increasing() {
        let mut sd = StackDistance::new();
        // pseudo-random-ish but deterministic mix
        for i in 0..5_000u64 {
            sd.access(crate::ring::splitmix64(i) % 300);
        }
        let curve = sd.curve();
        for w in curve.points.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].1 >= w[1].1 - 1e-12);
        }
        // Large cache miss ratio == cold-miss fraction.
        let cold = sd.unique_keys() as f64 / sd.total_accesses() as f64;
        assert!((curve.miss_ratio(1_000_000) - cold).abs() < 1e-9);
    }

    #[test]
    fn mrc_matches_direct_lru_simulation() {
        use crate::cache::Cache;
        // Compare Mattson's curve against actually running an LRU cache.
        let trace: Vec<u64> = (0..20_000u64)
            .map(|i| {
                let r = crate::ring::splitmix64(i);
                // 90% of traffic to 20 hot keys, rest to 500 cold keys
                if r % 10 < 9 {
                    r % 20
                } else {
                    20 + (r / 16) % 500
                }
            })
            .collect();
        let mut sd = StackDistance::new();
        for &k in &trace {
            sd.access(k);
        }
        let curve = sd.curve();
        for cache_entries in [10u64, 50, 200] {
            let mut cache: Cache<u64, ()> = Cache::lru(cache_entries * 164);
            let mut misses = 0u64;
            for &k in &trace {
                if cache.get(&k, 0).is_none() {
                    misses += 1;
                    cache.insert(k, (), 100, 0); // charge 164 per entry
                }
            }
            let simulated = misses as f64 / trace.len() as f64;
            let analytic = curve.miss_ratio(cache_entries);
            assert!(
                (simulated - analytic).abs() < 0.01,
                "entries={cache_entries} simulated={simulated} mattson={analytic}"
            );
        }
    }

    #[test]
    fn empty_curve_misses_everything() {
        let sd: StackDistance<u32> = StackDistance::new();
        let curve = sd.curve();
        assert_eq!(curve.miss_ratio(100), 1.0);
        assert_eq!(curve.hit_ratio(100), 0.0);
    }
}
