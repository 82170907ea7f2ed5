//! Allocation gate for `Cache`.
//!
//! A counting `#[global_allocator]` pins the cache's layout. Keys are
//! `Vec<u8>`, the netrpc server's key type, built before counting starts
//! and moved into the cache, so any allocation counted is the cache's own:
//!
//! - once the cache has reached its working size, hits, misses, same-key
//!   replaces, removes and inserts that evict allocate nothing under the
//!   list-based policies (LRU, FIFO, SLRU), with and without TinyLFU. The
//!   cache keeps no second copy of a key, so an insert clones nothing;
//! - N first-sight inserts into a cache that never evicts allocate only
//!   when the slab, the index or the policy's link array grows: each
//!   doubles, so about log2(N) times apiece.
//!
//! Only allocations made on the test's own thread are counted, so the test
//! harness's threads cannot move the counter; the binary holds this one
//! test.

mod alloc_gate;

use alloc_gate::allocations;
use cachekit::{Cache, InsertOutcome, PolicyKind};

/// A `table/<8-byte key>` cache key.
fn key(k: u64) -> Vec<u8> {
    let mut bytes = b"kv/".to_vec();
    bytes.extend_from_slice(&k.to_be_bytes());
    bytes
}

const VALUE_BYTES: u64 = 100;
/// Entries the steady-state cache holds.
const RESIDENT: u64 = 1_000;

/// What one round did.
#[derive(Debug, Default)]
struct Tally {
    hits: u64,
    misses: u64,
    replaces: u64,
    removes: u64,
    evicting_inserts: u64,
}

/// One round of traffic over a full cache that mostly holds keys
/// `base..base + RESIDENT`: a get of each of those and of the next
/// `RESIDENT` keys, a re-insert of every second old key, a remove of every
/// fourth, then an insert of each new key. `keys` yields the owned keys
/// the round inserts, in order.
fn round(
    cache: &mut Cache<Vec<u8>, u64>,
    base: u64,
    keys: &mut impl Iterator<Item = Vec<u8>>,
) -> Tally {
    let now = 0;
    let mut tally = Tally::default();
    let (old, new) = (base..base + RESIDENT, base + RESIDENT..base + 2 * RESIDENT);
    for k in old.clone().chain(new.clone()) {
        match cache.get(key_ref(k).as_slice(), now) {
            Some(&v) => {
                assert_eq!(v, k);
                tally.hits += 1;
            }
            None => tally.misses += 1,
        }
    }
    for k in old.clone().step_by(2) {
        let out = cache.insert(keys.next().expect("key"), k, VALUE_BYTES, now);
        tally.replaces += matches!(out, InsertOutcome::Replaced { .. }) as u64;
    }
    for k in old.skip(1).step_by(4) {
        tally.removes += cache.remove(key_ref(k).as_slice()).is_some() as u64;
    }
    for k in new {
        let out = cache.insert(keys.next().expect("key"), k, VALUE_BYTES, now);
        tally.evicting_inserts +=
            matches!(out, InsertOutcome::Inserted { evicted } if evicted > 0) as u64;
    }
    tally
}

/// `key(k)` on the stack, so lookups allocate nothing.
fn key_ref(k: u64) -> [u8; 11] {
    let mut bytes = [0; 11];
    bytes[..3].copy_from_slice(b"kv/");
    bytes[3..].copy_from_slice(&k.to_be_bytes());
    bytes
}

/// The owned keys `round(base)` inserts, built up front.
fn round_keys(base: u64) -> Vec<Vec<u8>> {
    (base..base + RESIDENT)
        .step_by(2)
        .chain(base + RESIDENT..base + 2 * RESIDENT)
        .map(key)
        .collect()
}

#[test]
fn steady_state_ops_allocate_nothing_and_growth_is_logarithmic() {
    let charge = VALUE_BYTES + cachekit::cache::ENTRY_OVERHEAD_BYTES;
    for kind in [PolicyKind::Lru, PolicyKind::Fifo, PolicyKind::Slru] {
        for tinylfu in [false, true] {
            let mut cache: Cache<Vec<u8>, u64> = Cache::new(RESIDENT * charge, kind);
            if tinylfu {
                cache = cache.with_tinylfu(RESIDENT as usize);
            }
            for k in 0..RESIDENT {
                cache.insert(key(k), k, VALUE_BYTES, 0);
            }
            // Warm-up rounds take the slab, index, free list and links to
            // their working size; the last round is counted.
            let rounds = 4;
            for r in 0..rounds {
                let base = r * RESIDENT;
                let mut keys = round_keys(base).into_iter();
                let mut tally = Tally::default();
                let made = allocations(|| tally = round(&mut cache, base, &mut keys));
                if r + 1 == rounds {
                    println!("cache_alloc: {kind:?} tinylfu={tinylfu}: {made} allocations over {tally:?}");
                    assert_eq!(
                        made, 0,
                        "{kind:?} tinylfu={tinylfu}: steady state allocated"
                    );
                    let Tally {
                        hits,
                        misses,
                        replaces,
                        removes,
                        evicting_inserts,
                    } = tally;
                    assert!(
                        hits > 0
                            && misses > 0
                            && replaces > 0
                            && removes > 0
                            && evicting_inserts > 0,
                        "{kind:?} tinylfu={tinylfu}: a kind of op never happened: {tally:?}"
                    );
                }
            }
        }
    }

    const N: u64 = 100_000;
    let keys: Vec<Vec<u8>> = (0..N).map(key).collect();
    let mut cache: Cache<Vec<u8>, u64> = Cache::lru(u64::MAX);
    let made = allocations(|| {
        for (k, bytes) in (0..N).zip(keys) {
            cache.insert(bytes, k, VALUE_BYTES, 0);
        }
    });
    assert_eq!(cache.len(), N as usize);
    // The slab, the index and the link array each double at most
    // log2(N) + 1 times.
    let bound = 3 * u64::from(u64::BITS - N.leading_zeros()) + 3;
    println!("cache_alloc: {N} first-sight inserts made {made} allocations (bound {bound})");
    assert!(
        made <= bound,
        "{made} allocations for {N} first-sight keys; bound {bound}"
    );
}
