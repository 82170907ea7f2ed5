//! Eviction-order oracle: `Cache` against reference models, under a byte
//! cap small enough that nearly every insert evicts.
//!
//! Each case is one splitmix64-seeded stream of `insert`,
//! `insert_with_ttl`, `get`, `peek`, `contains`, `charge_of`, `remove`,
//! `take`, `set_capacity`, `expire_sweep` and `clear` over 40 byte-string
//! keys. Every policy runs 64 streams, 16 for each of TTLs on or off times
//! TinyLFU on or off.
//!
//! - **LRU and FIFO** run beside an exact recency-ordered reference: a
//!   `Vec` front-to-back from most recent to the eviction end, with its own
//!   stats and, when admission is on, its own `TinyLfu` fed the same
//!   sketch hashes. Every op's result must match: `InsertOutcome` with its
//!   eviction count, values, charges, sweep and eviction counts, and after
//!   the op `len`, `used_bytes` and every stats counter.
//! - **Every policy** is checked after each op against a shadow of what
//!   was stored: `keys()` and `len()` agree, every resident key is found
//!   by `peek`, `charge_of` and (unexpired) `contains` with the value and
//!   charge it was stored with, `used_bytes` is the sum of those charges,
//!   keys not resident miss, and every key that left the cache without an
//!   explicit remove is matched by an eviction or expiry count.

use cachekit::cache::ENTRY_OVERHEAD_BYTES;
use cachekit::ring::splitmix64;
use cachekit::{Cache, CacheKeyHash, CacheStats, InsertOutcome, PolicyKind, TinyLfu};
use std::collections::BTreeMap;

const KEYS: u64 = 40;
const STREAMS_PER_VARIANT: u64 = 16;
const OPS: u64 = 800;
/// Fits about eight entries of the mean charge, so inserts evict.
const CAPACITY: u64 = 2_000;
const DEFAULT_TTL: u64 = 400;

struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = splitmix64(self.0);
        self.0 % n
    }
}

/// Key `k`'s bytes; lengths vary so the index hashes strings of several
/// sizes, and lookups go through `Borrow<[u8]>`.
fn key(k: u64) -> Vec<u8> {
    let mut bytes = format!("key-{k}").into_bytes();
    bytes.resize(bytes.len() + (k % 7) as usize, b'.');
    bytes
}

#[derive(Clone, Copy, Debug)]
struct Stored {
    value: u64,
    charge: u64,
    expires_at: u64,
}

/// The exact LRU/FIFO reference.
struct Reference {
    lru: bool,
    /// Most recent first; the last entry is the eviction victim.
    order: Vec<(Vec<u8>, Stored)>,
    capacity: u64,
    used: u64,
    admission: Option<TinyLfu>,
    stats: CacheStats,
}

impl Reference {
    fn position(&self, key: &[u8]) -> Option<usize> {
        self.order.iter().position(|(k, _)| k == key)
    }

    fn drop_at(&mut self, i: usize) -> Stored {
        let (_, stored) = self.order.remove(i);
        self.used -= stored.charge;
        stored
    }

    fn evict(&mut self) {
        self.drop_at(self.order.len() - 1);
        self.stats.evictions += 1;
    }

    fn insert(&mut self, key: Vec<u8>, value: u64, bytes: u64, expires_at: u64) -> InsertOutcome {
        let charge = bytes + ENTRY_OVERHEAD_BYTES;
        if charge > self.capacity {
            self.stats.rejected += 1;
            return InsertOutcome::TooLarge;
        }
        let sketch = key.sketch_hash();
        if let Some(adm) = &mut self.admission {
            adm.record(sketch);
        }
        let replaced = match self.position(&key) {
            Some(i) => {
                self.drop_at(i);
                true
            }
            None => false,
        };
        if !replaced && self.used + charge > self.capacity {
            if let (Some(adm), Some((victim, _))) = (&self.admission, self.order.last()) {
                if !adm.admit(sketch, victim.sketch_hash()) {
                    self.stats.rejected += 1;
                    return InsertOutcome::NotAdmitted;
                }
            }
        }
        let mut evicted = 0;
        while self.used + charge > self.capacity {
            self.evict();
            evicted += 1;
        }
        let stored = Stored {
            value,
            charge,
            expires_at,
        };
        self.order.insert(0, (key, stored));
        self.used += charge;
        self.stats.inserts += 1;
        if replaced {
            InsertOutcome::Replaced { evicted }
        } else {
            InsertOutcome::Inserted { evicted }
        }
    }

    fn get(&mut self, key: &[u8], now: u64) -> Option<u64> {
        if let Some(adm) = &mut self.admission {
            adm.record(key.sketch_hash());
        }
        let Some(i) = self.position(key) else {
            self.stats.misses += 1;
            return None;
        };
        if self.order[i].1.expires_at <= now {
            self.drop_at(i);
            self.stats.expired += 1;
            self.stats.misses += 1;
            return None;
        }
        self.stats.hits += 1;
        if self.lru {
            let entry = self.order.remove(i);
            self.order.insert(0, entry);
            Some(self.order[0].1.value)
        } else {
            Some(self.order[i].1.value)
        }
    }

    fn stored(&self, key: &[u8]) -> Option<Stored> {
        self.position(key).map(|i| self.order[i].1)
    }

    fn take(&mut self, key: &[u8]) -> Option<Stored> {
        let i = self.position(key)?;
        Some(self.drop_at(i))
    }

    fn set_capacity(&mut self, capacity: u64) -> usize {
        self.capacity = capacity;
        let mut evicted = 0;
        while self.used > self.capacity && !self.order.is_empty() {
            self.evict();
            evicted += 1;
        }
        evicted
    }

    fn expire_sweep(&mut self, now: u64) -> usize {
        let before = self.order.len();
        self.order.retain(|(_, s)| s.expires_at > now);
        let n = before - self.order.len();
        self.used = self.order.iter().map(|(_, s)| s.charge).sum();
        self.stats.expired += n as u64;
        n
    }
}

/// What the stream stored, whatever the policy evicted since.
type Shadow = BTreeMap<u64, Stored>;

/// The shape of one case.
#[derive(Clone, Copy, Debug)]
struct Variant {
    kind: PolicyKind,
    ttl: bool,
    tinylfu: bool,
}

/// Where a check failed: the case and the op.
#[derive(Clone, Copy, Debug)]
#[allow(dead_code)] // read through `Debug` in failure messages
struct At {
    variant: Variant,
    seed: u64,
    op: u64,
}

/// Checks the cache against the shadow after an op. `implicit` keys left
/// the cache without an explicit remove, take or clear; each must be
/// matched by an eviction or expiry the op counted.
fn check_shadow(
    cache: &Cache<Vec<u8>, u64>,
    keys: &[Vec<u8>],
    shadow: &mut Shadow,
    now: u64,
    implicit: u64,
    at: At,
) {
    let resident: BTreeMap<&[u8], ()> = cache.keys().map(|k| (k.as_slice(), ())).collect();
    assert_eq!(cache.len(), cache.keys().count(), "{at:?}: len vs keys()");
    assert_eq!(resident.len(), cache.len(), "{at:?}: keys() repeats a key");
    let vanished: Vec<u64> = shadow
        .keys()
        .copied()
        .filter(|&k| !resident.contains_key(keys[k as usize].as_slice()))
        .collect();
    assert_eq!(
        vanished.len() as u64,
        implicit,
        "{at:?}: keys {vanished:?} left unaccounted"
    );
    for k in &vanished {
        shadow.remove(k);
    }
    assert_eq!(
        shadow.len(),
        cache.len(),
        "{at:?}: a key appeared from nowhere"
    );
    let mut used = 0;
    for (k, bytes) in (0..KEYS).zip(keys) {
        match shadow.get(&k) {
            Some(s) => {
                assert_eq!(
                    cache.peek(bytes.as_slice()),
                    Some(&s.value),
                    "{at:?}: peek {k}"
                );
                assert_eq!(
                    cache.charge_of(bytes.as_slice()),
                    Some(s.charge),
                    "{at:?}: charge {k}"
                );
                assert_eq!(
                    cache.contains(bytes.as_slice(), now),
                    s.expires_at > now,
                    "{at:?}: {k}"
                );
                used += s.charge;
            }
            None => assert_eq!(
                cache.peek(bytes.as_slice()),
                None,
                "{at:?}: absent {k} found"
            ),
        }
    }
    assert_eq!(
        cache.used_bytes(),
        used,
        "{at:?}: used_bytes vs resident charges"
    );
}

fn check_reference(cache: &Cache<Vec<u8>, u64>, reference: &Reference, at: At) {
    assert_eq!(cache.len(), reference.order.len(), "{at:?}: len");
    assert_eq!(cache.used_bytes(), reference.used, "{at:?}: used_bytes");
    assert_eq!(*cache.stats(), reference.stats, "{at:?}: stats");
    assert_eq!(
        cache.capacity_bytes(),
        reference.capacity,
        "{at:?}: capacity"
    );
}

/// Runs one stream; returns the evictions it caused.
fn run_case(variant: Variant, seed: u64) -> u64 {
    let mut rng = Rng(seed);
    let mut cache: Cache<Vec<u8>, u64> = Cache::new(CAPACITY, variant.kind);
    let mut reference =
        matches!(variant.kind, PolicyKind::Lru | PolicyKind::Fifo).then(|| Reference {
            lru: variant.kind == PolicyKind::Lru,
            order: Vec::new(),
            capacity: CAPACITY,
            used: 0,
            admission: None,
            stats: CacheStats::default(),
        });
    if variant.tinylfu {
        cache = cache.with_tinylfu(16);
        if let Some(r) = &mut reference {
            r.admission = Some(TinyLfu::new(16));
        }
    }
    if variant.ttl {
        cache = cache.with_default_ttl(DEFAULT_TTL);
    }
    let keys: Vec<Vec<u8>> = (0..KEYS).map(key).collect();
    let mut shadow = Shadow::new();
    let mut now = 0u64;
    for op in 0..OPS {
        now += rng.below(8);
        let k = rng.below(KEYS);
        let bytes = &keys[k as usize];
        let at = At { variant, seed, op };
        let before = *cache.stats();
        let roll = rng.below(100);
        match roll {
            // insert / insert_with_ttl
            0..=39 => {
                let value = rng.below(1 << 20);
                let value_bytes = 16 + rng.below(400);
                let explicit_ttl =
                    (variant.ttl && roll >= 30).then(|| 1 + rng.below(2 * DEFAULT_TTL));
                let out = match explicit_ttl {
                    Some(ttl) => cache.insert_with_ttl(bytes.clone(), value, value_bytes, now, ttl),
                    None => cache.insert(bytes.clone(), value, value_bytes, now),
                };
                let expires_at = match explicit_ttl.or(variant.ttl.then_some(DEFAULT_TTL)) {
                    Some(ttl) => now + ttl,
                    None => u64::MAX,
                };
                if let Some(r) = &mut reference {
                    assert_eq!(
                        out,
                        r.insert(bytes.clone(), value, value_bytes, expires_at),
                        "{at:?}"
                    );
                }
                if matches!(
                    out,
                    InsertOutcome::Inserted { .. } | InsertOutcome::Replaced { .. }
                ) {
                    shadow.insert(
                        k,
                        Stored {
                            value,
                            charge: value_bytes + ENTRY_OVERHEAD_BYTES,
                            expires_at,
                        },
                    );
                }
                if let InsertOutcome::Inserted { evicted } | InsertOutcome::Replaced { evicted } =
                    out
                {
                    assert_eq!(
                        cache.stats().evictions - before.evictions,
                        evicted as u64,
                        "{at:?}"
                    );
                }
            }
            40..=64 => {
                let got = cache.get(bytes.as_slice(), now).copied();
                if let Some(r) = &mut reference {
                    assert_eq!(got, r.get(bytes, now), "{at:?}: get");
                }
                if let Some(v) = got {
                    assert_eq!(
                        shadow.get(&k).map(|s| s.value),
                        Some(v),
                        "{at:?}: get served"
                    );
                }
            }
            65..=69 => {
                let got = cache.peek(bytes.as_slice()).copied();
                if let Some(r) = &reference {
                    assert_eq!(got, r.stored(bytes).map(|s| s.value), "{at:?}: peek");
                }
            }
            70..=74 => {
                let got = cache.contains(bytes.as_slice(), now);
                if let Some(r) = &reference {
                    assert_eq!(
                        got,
                        r.stored(bytes).is_some_and(|s| s.expires_at > now),
                        "{at:?}"
                    );
                }
            }
            75..=77 => {
                let got = cache.charge_of(bytes.as_slice());
                if let Some(r) = &reference {
                    assert_eq!(got, r.stored(bytes).map(|s| s.charge), "{at:?}: charge_of");
                }
            }
            78..=85 => {
                let got = cache.remove(bytes.as_slice());
                assert_eq!(got, shadow.remove(&k).map(|s| s.value), "{at:?}: remove");
                if let Some(r) = &mut reference {
                    if r.take(bytes).is_some() {
                        r.stats.invalidations += 1;
                    }
                }
            }
            86..=89 => {
                let got = cache.take(bytes.as_slice());
                assert_eq!(
                    got,
                    shadow.remove(&k).map(|s| (s.value, s.charge)),
                    "{at:?}: take"
                );
                if let Some(r) = &mut reference {
                    r.take(bytes);
                }
            }
            90..=93 => {
                // Now and then below one entry's charge, so inserts are
                // refused as too large and the cache drains.
                let capacity = rng.below(CAPACITY + CAPACITY / 2);
                let evicted = cache.set_capacity(capacity);
                if let Some(r) = &mut reference {
                    assert_eq!(evicted, r.set_capacity(capacity), "{at:?}: set_capacity");
                }
            }
            94..=98 => {
                let swept = cache.expire_sweep(now);
                if let Some(r) = &mut reference {
                    assert_eq!(swept, r.expire_sweep(now), "{at:?}: expire_sweep");
                }
            }
            _ => {
                cache.clear();
                shadow.clear();
                if let Some(r) = &mut reference {
                    r.order.clear();
                    r.used = 0;
                }
            }
        }
        let after = cache.stats();
        let implicit = (after.evictions - before.evictions) + (after.expired - before.expired);
        check_shadow(&cache, &keys, &mut shadow, now, implicit, at);
        if let Some(r) = &reference {
            check_reference(&cache, r, at);
        }
    }
    cache.stats().evictions
}

#[test]
fn every_policy_agrees_with_its_references() {
    let mut cases = 0u64;
    let mut exact = 0u64;
    for kind in PolicyKind::ALL {
        for (ttl, tinylfu) in [(false, false), (true, false), (false, true), (true, true)] {
            let variant = Variant { kind, ttl, tinylfu };
            let mut evictions = 0;
            for stream in 0..STREAMS_PER_VARIANT {
                let seed =
                    splitmix64(0xE71C_7104 ^ (stream << 8) ^ ((ttl as u64) << 4) ^ tinylfu as u64);
                evictions += run_case(variant, seed);
                cases += 1;
                exact += matches!(kind, PolicyKind::Lru | PolicyKind::Fifo) as u64;
            }
            assert!(
                evictions > STREAMS_PER_VARIANT * 10,
                "{variant:?}: only {evictions} evictions"
            );
        }
    }
    println!("eviction_oracle: {cases} op streams of {OPS} ops ({exact} against the exact LRU/FIFO reference)");
    assert!(cases > 0, "no case ran");
    assert_eq!(
        cases,
        PolicyKind::ALL.len() as u64 * 4 * STREAMS_PER_VARIANT
    );
}
