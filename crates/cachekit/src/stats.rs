//! Cache statistics. Every architecture's cost accounting starts from these
//! counters: hit/miss ratios determine how often the expensive storage path
//! runs, which is the paper's whole cost story.

use std::fmt;
use std::ops::AddAssign;

/// Monotonic counters for one cache instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub inserts: u64,
    pub evictions: u64,
    /// Entries dropped because their TTL elapsed.
    pub expired: u64,
    /// Entries removed by explicit invalidation.
    pub invalidations: u64,
    /// Inserts rejected because the entry exceeded total capacity.
    pub rejected: u64,
}

impl CacheStats {
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hits / lookups; 0 when idle.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Misses / lookups; 0 when idle (note: *not* 1, so an unused cache does
    /// not report a pessimal miss ratio).
    pub fn miss_ratio(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }

    /// Export every counter (plus the derived hit ratio) into a metrics
    /// registry as `{prefix}hits_total`, `{prefix}misses_total`, … with
    /// `labels` on each series. Idle caches export nothing.
    pub fn export(&self, reg: &mut telemetry::Registry, prefix: &str, labels: &[(&str, &str)]) {
        if self.lookups() == 0 && self.inserts == 0 {
            return;
        }
        let counters: [(&str, u64); 7] = [
            ("hits_total", self.hits),
            ("misses_total", self.misses),
            ("inserts_total", self.inserts),
            ("evictions_total", self.evictions),
            ("expired_total", self.expired),
            ("invalidations_total", self.invalidations),
            ("rejected_total", self.rejected),
        ];
        for (name, value) in counters {
            reg.set_counter(&format!("{prefix}{name}"), labels, value);
        }
        reg.set_gauge(&format!("{prefix}hit_ratio"), labels, self.hit_ratio());
    }
}

impl AddAssign for CacheStats {
    fn add_assign(&mut self, rhs: Self) {
        self.hits += rhs.hits;
        self.misses += rhs.misses;
        self.inserts += rhs.inserts;
        self.evictions += rhs.evictions;
        self.expired += rhs.expired;
        self.invalidations += rhs.invalidations;
        self.rejected += rhs.rejected;
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hits={} misses={} (hit ratio {:.3}) evictions={} expired={} invalidations={}",
            self.hits,
            self.misses,
            self.hit_ratio(),
            self.evictions,
            self.expired,
            self.invalidations
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_idle_cache() {
        let s = CacheStats::default();
        assert_eq!(s.hit_ratio(), 0.0);
        assert_eq!(s.miss_ratio(), 0.0);
    }

    #[test]
    fn ratios_sum_to_one_under_traffic() {
        let s = CacheStats {
            hits: 3,
            misses: 1,
            ..Default::default()
        };
        assert!((s.hit_ratio() + s.miss_ratio() - 1.0).abs() < 1e-12);
        assert!((s.hit_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn export_skips_idle_and_emits_series() {
        let mut reg = telemetry::Registry::new();
        CacheStats::default().export(&mut reg, "cache_", &[]);
        assert!(reg.is_empty(), "idle cache exports nothing");
        let s = CacheStats {
            hits: 3,
            misses: 1,
            inserts: 1,
            ..Default::default()
        };
        s.export(&mut reg, "cache_", &[("shard", "0")]);
        assert_eq!(reg.counter_value("cache_hits_total", &[("shard", "0")]), Some(3));
        assert_eq!(reg.gauge_value("cache_hit_ratio", &[("shard", "0")]), Some(0.75));
    }

    #[test]
    fn add_assign_merges_all_fields() {
        let mut a = CacheStats {
            hits: 1,
            misses: 2,
            inserts: 3,
            evictions: 4,
            expired: 5,
            invalidations: 6,
            rejected: 7,
        };
        a += a;
        assert_eq!(a.hits, 2);
        assert_eq!(a.rejected, 14);
        assert_eq!(a.lookups(), 6);
    }
}
