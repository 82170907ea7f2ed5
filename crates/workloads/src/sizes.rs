//! Per-key value-size models.
//!
//! A key's size must be a *stable* property of the key — the same key always
//! has (roughly) the same value size across reads, writes and runs — or
//! byte accounting between cache fills and later hits would disagree. Sizes
//! are therefore derived deterministically from `(distribution, key,
//! stream seed)` rather than drawn fresh per access.

use cachekit::ring::splitmix64;

/// A value-size distribution.
#[derive(Debug, Clone, PartialEq)]
pub enum SizeDist {
    /// Every value is exactly this size (the synthetic sweeps).
    Fixed(u64),
    /// Uniform in `[lo, hi]`.
    Uniform { lo: u64, hi: u64 },
    /// Log-normal parameterized by median and sigma (of the underlying
    /// normal). Matches heavy-tailed production size distributions; the
    /// Unity Catalog trace uses median ≈ 23 KB.
    LogNormal { median: u64, sigma: f64 },
    /// Discrete mixture: `(size, weight)` pairs (weights need not sum to 1).
    /// Used to match published trace percentiles (e.g. Meta's ~10 B median).
    Discrete(Vec<(u64, f64)>),
}

impl SizeDist {
    /// The deterministic size of `key` under this distribution. `seed`
    /// decorrelates size assignment across experiments.
    pub fn size_of(&self, key: u64, seed: u64) -> u64 {
        let h = splitmix64(key ^ splitmix64(seed ^ 0xC0FFEE));
        match self {
            SizeDist::Fixed(s) => *s,
            SizeDist::Uniform { lo, hi } => {
                let span = hi.saturating_sub(*lo) + 1;
                lo + h % span
            }
            SizeDist::LogNormal { median, sigma } => {
                let z = standard_normal(h);
                let v = (*median as f64) * (sigma * z).exp();
                (v.round() as u64).max(1)
            }
            SizeDist::Discrete(items) => {
                let total: f64 = items.iter().map(|(_, w)| w).sum();
                let mut point = (h as f64 / u64::MAX as f64) * total;
                for (size, w) in items {
                    if point < *w {
                        return *size;
                    }
                    point -= w;
                }
                items.last().map(|(s, _)| *s).unwrap_or(1)
            }
        }
    }

    /// Mean size estimated over a keyspace of `n` keys (used for converting
    /// byte capacities to entry counts in the analytic model).
    pub fn mean_over_keys(&self, n: u64, seed: u64) -> f64 {
        let sample = n.clamp(1, 10_000);
        let total: u64 = (0..sample)
            .map(|i| self.size_of(i * n.max(1) / sample, seed))
            .sum();
        total as f64 / sample as f64
    }
}

/// Map a uniform u64 to a standard normal via Box–Muller on two derived
/// uniforms (deterministic — no RNG state).
fn standard_normal(h: u64) -> f64 {
    let u1 = ((splitmix64(h) >> 11) as f64 / (1u64 << 53) as f64).max(1e-12);
    let u2 = (splitmix64(h ^ 0xABCD_EF01) >> 11) as f64 / (1u64 << 53) as f64;
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_are_deterministic_per_key() {
        let d = SizeDist::LogNormal { median: 23_000, sigma: 1.5 };
        for key in [0u64, 1, 99, 12345] {
            assert_eq!(d.size_of(key, 7), d.size_of(key, 7));
        }
        // but differ across seeds
        assert_ne!(d.size_of(1, 7), d.size_of(1, 8));
    }

    #[test]
    fn fixed_is_fixed() {
        let d = SizeDist::Fixed(1024);
        assert_eq!(d.size_of(0, 0), 1024);
        assert_eq!(d.size_of(u64::MAX, 9), 1024);
        assert_eq!(d.mean_over_keys(100, 0), 1024.0);
    }

    #[test]
    fn uniform_stays_in_bounds() {
        let d = SizeDist::Uniform { lo: 10, hi: 20 };
        for key in 0..1000 {
            let s = d.size_of(key, 3);
            assert!((10..=20).contains(&s));
        }
    }

    #[test]
    fn lognormal_median_is_close() {
        let d = SizeDist::LogNormal { median: 23_000, sigma: 1.5 };
        let mut sizes: Vec<u64> = (0..20_001).map(|k| d.size_of(k, 1)).collect();
        sizes.sort_unstable();
        let median = sizes[sizes.len() / 2] as f64;
        assert!(
            (median - 23_000.0).abs() / 23_000.0 < 0.1,
            "median {median} too far from 23000"
        );
        // heavy tail: p99 well above median
        let p99 = sizes[(sizes.len() as f64 * 0.99) as usize] as f64;
        assert!(p99 > 10.0 * median, "p99 {p99} not heavy-tailed");
    }

    #[test]
    fn discrete_mixture_respects_weights() {
        let d = SizeDist::Discrete(vec![(10, 0.9), (1000, 0.1)]);
        let small = (0..10_000).filter(|&k| d.size_of(k, 2) == 10).count();
        let frac = small as f64 / 10_000.0;
        assert!((frac - 0.9).abs() < 0.03, "small fraction {frac}");
    }

    #[test]
    fn discrete_empty_defaults_to_one() {
        let d = SizeDist::Discrete(vec![]);
        assert_eq!(d.size_of(5, 5), 1);
    }

    #[test]
    fn mean_over_keys_reflects_distribution() {
        let d = SizeDist::Discrete(vec![(100, 0.5), (300, 0.5)]);
        let mean = d.mean_over_keys(10_000, 4);
        assert!((mean - 200.0).abs() < 20.0, "mean {mean}");
    }
}
