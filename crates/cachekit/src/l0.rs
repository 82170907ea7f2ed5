//! The in-process L0 hot-key tier.
//!
//! A few megabytes of cache *inside* the application process absorb the
//! Zipf head at near-zero CPU: no RPC, no serialization, one hash probe.
//! This is the HybridKV-style third point on the paper's curve between
//! Remote's per-RPC CPU tax and Linked's DRAM duplication — the L0 is so
//! small that duplicating it per app server costs almost nothing, while
//! the keys it holds are exactly the ones whose lookups dominate the bill.
//!
//! Correctness model:
//!
//! * **Hard byte cap.** The L0 never exceeds its configured capacity;
//!   admission is TinyLFU-gated so scans and one-hit wonders cannot wash
//!   out the head (see [`crate::admission`]).
//! * **Strict version-based invalidation.** Every entry carries the
//!   version of the value it was filled from. [`L0Cache::invalidate`]
//!   carries the writer's new version and only removes entries that are
//!   actually older; an admit whose version is behind the resident entry's
//!   is dropped (a late refill must never roll a key backwards).
//! * **Fail-open.** Any miss, expiry or version mismatch returns `None`
//!   and the caller falls through to the authoritative path. The L0 can
//!   only ever *add* a fast path, never change an outcome.
//!
//! Two consistency modes ([`L0Mode`]):
//!
//! * `InvalidateFirst` — writers invalidate the L0 before acknowledging,
//!   so a hit is always fresh at its version (the coherent mode).
//! * `ServeStale` — writers leave the L0 alone and entries simply expire
//!   `stale_after_nanos` after they were stored, so a hit may be stale but
//!   never by more than the declared bound (the cheap mode).

use crate::cache::{Cache, CacheKeyHash, InsertOutcome};
use crate::policy::PolicyKind;

/// Consistency mode for the L0 tier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum L0Mode {
    /// Writers invalidate before acking: every hit is fresh at its version.
    InvalidateFirst,
    /// Writers skip the L0; entries expire `stale_after_nanos` after being
    /// stored, bounding how stale any served value can be.
    ServeStale { stale_after_nanos: u64 },
}

/// Sizing and mode for an [`L0Cache`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct L0Params {
    /// Hard byte cap (entry overhead included, like [`Cache`]).
    pub capacity_bytes: u64,
    /// Sizes the TinyLFU sketch (≈ capacity / mean hot-entry size).
    pub expected_entries: usize,
    pub mode: L0Mode,
}

/// Counters the deployment lifts into its report and telemetry export.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct L0Stats {
    pub hits: u64,
    pub misses: u64,
    /// Entries accepted by the TinyLFU gate.
    pub admitted: u64,
    /// Candidates the TinyLFU gate judged colder than the victim.
    pub rejected: u64,
    /// Admits dropped because the resident entry was already newer.
    pub stale_admits_dropped: u64,
    /// Entries removed by a versioned invalidation.
    pub invalidations: u64,
    /// Invalidations that found nothing older to remove.
    pub invalidation_misses: u64,
}

/// A served L0 value with its provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L0Hit<'a, V> {
    pub value: &'a V,
    /// Version of the authoritative value this entry was filled from.
    pub version: u64,
    /// Nanoseconds since the entry was stored (staleness upper bound).
    pub age_nanos: u64,
}

#[derive(Debug, Clone)]
struct L0Entry<V> {
    value: V,
    version: u64,
    stored_at: u64,
}

/// The tier itself: a TinyLFU-admitted, byte-capped cache of versioned
/// entries. See module docs for the consistency model.
#[derive(Debug, Clone)]
pub struct L0Cache<K, V> {
    cache: Cache<K, L0Entry<V>>,
    mode: L0Mode,
    stats: L0Stats,
}

impl<K: CacheKeyHash + Eq, V> L0Cache<K, V> {
    pub fn new(params: L0Params) -> Self {
        L0Cache {
            cache: Cache::new(params.capacity_bytes, PolicyKind::Lru)
                .with_tinylfu(params.expected_entries.max(16)),
            mode: params.mode,
            stats: L0Stats::default(),
        }
    }

    pub fn mode(&self) -> L0Mode {
        self.mode
    }

    pub fn capacity_bytes(&self) -> u64 {
        self.cache.capacity_bytes()
    }

    pub fn used_bytes(&self) -> u64 {
        self.cache.used_bytes()
    }

    pub fn len(&self) -> usize {
        self.cache.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    pub fn stats(&self) -> L0Stats {
        self.stats
    }

    pub fn reset_stats(&mut self) {
        self.stats = L0Stats::default();
        self.cache.reset_stats();
    }

    /// Serve `key` if resident and within the mode's freshness rules.
    /// Expired (serve-stale) entries are dropped on the way out, so a
    /// `None` here is always safe to fail open on.
    pub fn get(&mut self, key: &K, now: u64) -> Option<L0Hit<'_, V>> {
        match self.cache.get(key, now) {
            Some(e) => {
                self.stats.hits += 1;
                Some(L0Hit {
                    version: e.version,
                    age_nanos: now.saturating_sub(e.stored_at),
                    value: &e.value,
                })
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Offer a freshly-fetched value at `version` to the tier. Returns
    /// true if the entry is now resident. The TinyLFU gate may refuse a
    /// cold candidate; an offer older than the resident entry is dropped
    /// (strict versioning: the tier never rolls a key backwards).
    pub fn admit(&mut self, key: K, value: V, version: u64, value_bytes: u64, now: u64) -> bool {
        if let Some(resident) = self.cache.peek(&key) {
            if version < resident.version {
                self.stats.stale_admits_dropped += 1;
                return false;
            }
        }
        let entry = L0Entry {
            value,
            version,
            stored_at: now,
        };
        let outcome = match self.mode {
            L0Mode::InvalidateFirst => self.cache.insert(key, entry, value_bytes, now),
            L0Mode::ServeStale { stale_after_nanos } => {
                self.cache
                    .insert_with_ttl(key, entry, value_bytes, now, stale_after_nanos)
            }
        };
        match outcome {
            InsertOutcome::Inserted { .. } | InsertOutcome::Replaced { .. } => {
                self.stats.admitted += 1;
                true
            }
            InsertOutcome::TooLarge | InsertOutcome::NotAdmitted => {
                self.stats.rejected += 1;
                false
            }
        }
    }

    /// A writer moved `key` to `new_version`: drop the resident entry if
    /// it is older. Entries already at or past `new_version` stay (they
    /// were filled from the new write or something newer). Returns true
    /// if an entry was removed.
    pub fn invalidate(&mut self, key: &K, new_version: u64) -> bool {
        let stale = self
            .cache
            .peek(key)
            .map(|e| e.version < new_version)
            .unwrap_or(false);
        if stale {
            self.cache.remove(key);
            self.stats.invalidations += 1;
            true
        } else {
            self.stats.invalidation_misses += 1;
            false
        }
    }

    /// Drop everything (deployment resets between phases).
    pub fn clear(&mut self) {
        self.cache.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l0(capacity: u64, mode: L0Mode) -> L0Cache<u64, u64> {
        L0Cache::new(L0Params {
            capacity_bytes: capacity,
            expected_entries: 64,
            mode,
        })
    }

    #[test]
    fn hit_carries_version_and_age() {
        let mut c = l0(4096, L0Mode::InvalidateFirst);
        assert!(c.admit(1, 100, 7, 16, 1_000));
        let hit = c.get(&1, 3_500).expect("resident");
        assert_eq!(*hit.value, 100);
        assert_eq!(hit.version, 7);
        assert_eq!(hit.age_nanos, 2_500);
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn invalidation_is_strictly_versioned() {
        let mut c = l0(4096, L0Mode::InvalidateFirst);
        c.admit(1, 100, 5, 16, 0);
        // An invalidation at the same version is a no-op (entry is fresh).
        assert!(!c.invalidate(&1, 5));
        assert!(c.get(&1, 0).is_some());
        // A newer write removes it.
        assert!(c.invalidate(&1, 6));
        assert!(c.get(&1, 0).is_none(), "fail open after invalidation");
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn late_refill_never_rolls_back() {
        let mut c = l0(4096, L0Mode::InvalidateFirst);
        c.admit(1, 200, 9, 16, 0);
        assert!(!c.admit(1, 100, 8, 16, 1), "older offer must be dropped");
        assert_eq!(*c.get(&1, 2).unwrap().value, 200);
        assert_eq!(c.stats().stale_admits_dropped, 1);
    }

    #[test]
    fn serve_stale_expires_at_the_declared_bound() {
        let bound = 1_000_000; // 1 ms
        let mut c = l0(
            4096,
            L0Mode::ServeStale {
                stale_after_nanos: bound,
            },
        );
        c.admit(1, 100, 1, 16, 0);
        assert!(c.get(&1, bound - 1).is_some(), "within bound: served");
        assert!(c.get(&1, bound).is_none(), "at the bound: fail open");
    }

    #[test]
    fn byte_cap_is_hard() {
        let mut c = l0(1024, L0Mode::InvalidateFirst);
        for k in 0..100u64 {
            c.admit(k, k, 1, 64, k);
            assert!(c.used_bytes() <= c.capacity_bytes());
        }
        assert!(c.len() < 100, "cap must have forced eviction or rejection");
    }

    #[test]
    fn tinylfu_protects_the_head_from_scans() {
        let mut c = l0(2048, L0Mode::InvalidateFirst);
        // Build a hot working set with repeated gets + admits.
        for round in 0..10u64 {
            for k in 0..10u64 {
                if c.get(&k, round).is_none() {
                    c.admit(k, k, 1, 64, round);
                }
            }
        }
        // A cold scan must mostly bounce off the admission gate.
        let before = c.stats().rejected;
        for k in 1_000..1_200u64 {
            c.admit(k, k, 1, 64, 100);
        }
        let rejected = c.stats().rejected - before;
        assert!(rejected >= 150, "scan keys admitted too easily: {rejected}");
        // The head survives.
        let mut resident = 0;
        for k in 0..10u64 {
            if c.get(&k, 200).is_some() {
                resident += 1;
            }
        }
        assert!(resident >= 8, "hot head washed out: {resident}/10");
    }
}
