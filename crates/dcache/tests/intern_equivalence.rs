//! Interning must be invisible: serving behavior is a function of cache-key
//! *bytes*, never of the dense `u32` ids the interner hands out.
//!
//! The serve path threads `InternedKey` (an identity plus precomputed route
//! and sketch hashes) through every layer instead of re-hashing byte keys
//! per request. A key of at most 23 bytes is its own identity; a longer one
//! gets an id in first-sight order, so two runs that intern long keys in
//! different orders hold completely different id spaces. This test drives
//! two deployments through an identical splitmix64-derived operation
//! sequence — one fresh, one whose interner was pre-warmed with thousands
//! of unrelated long keys so every real long key's id is shifted — and
//! asserts every `ServeOutcome` (latencies, hits, versions, bytes: the full
//! debug form) and every app server's and cache node's CPU meter is
//! identical. It does so on a table with short cache keys and on one whose
//! cache keys exceed 23 bytes, where the ids reach the serve path. Any
//! dependence on id values, id ordering, or id-keyed iteration order would
//! diverge here.

use dcache::deployment::{kv_catalog, Deployment};
use dcache::{ArchKind, DeploymentConfig};
use simnet::{SimDuration, SimTime};
use storekit::value::Datum;

const KEYS: i64 = 64;

/// `kv/<8-byte key>`: 11-byte cache keys, their own identity.
const SHORT_TABLE: &str = "kv";
/// `a_table_with_a_long_name/<8-byte key>`: 33-byte cache keys, which the
/// interner numbers.
const LONG_TABLE: &str = "a_table_with_a_long_name";

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn deployment(arch: ArchKind, table: &str) -> Deployment {
    let mut d = Deployment::new(DeploymentConfig::test_small(arch), kv_catalog(table));
    d.cluster
        .bulk_load(
            table,
            (0..KEYS).map(|k| vec![Datum::Int(k), Datum::Payload { len: 128, seed: 7 }]),
        )
        .unwrap();
    d
}

/// Run one deterministic op sequence, returning the outcome transcript
/// and the per-node CPU meters.
fn transcript(d: &mut Deployment, table: &str, seed: u64, ops: usize) -> Vec<String> {
    let mut rng = seed;
    let mut log = Vec::with_capacity(ops);
    let mut now = SimTime::ZERO;
    for _ in 0..ops {
        now += SimDuration::from_micros(100);
        let key = (splitmix64(&mut rng) % KEYS as u64) as i64;
        let out = match splitmix64(&mut rng) % 10 {
            0..=6 => d.serve_kv_read(table, key, now),
            7..=8 => d.serve_kv_write(
                table,
                key,
                Datum::Payload {
                    len: 128,
                    seed: splitmix64(&mut rng),
                },
                now,
            ),
            _ => d.serve_kv_delete(table, key, now),
        };
        log.push(format!("{out:?}"));
    }
    // Which app server and cache node each request reached shows in no
    // outcome while nothing evicts, but it does in the per-node meters.
    log.push(format!("app {:?} cache {:?}", d.app_cpu, d.cache_cpu));
    log
}

#[test]
fn shifted_interner_ids_leave_serving_byte_identical() {
    for table in [SHORT_TABLE, LONG_TABLE] {
        for arch in ArchKind::PAPER {
            let mut fresh = deployment(arch, table);
            let mut shifted = deployment(arch, table);
            // Shift every real long key's dense id by thousands of
            // positions (and scatter the interner's table layout) before
            // any traffic.
            shifted.prewarm_interner(
                (0..5_000u64).map(|i| format!("unrelated/{i}/padding/past/the/limit").into_bytes()),
            );

            let a = transcript(&mut fresh, table, 42, 4_000);
            let b = transcript(&mut shifted, table, 42, 4_000);
            assert_eq!(
                a, b,
                "outcome transcripts diverged under shifted interner ids ({arch:?}, {table})"
            );
        }
    }
}

#[test]
fn interleaved_interning_order_is_invisible() {
    // Same traffic, but one deployment has the real keyspace pre-interned
    // in *reverse*, so id order is the exact opposite of first-touch order.
    // The transcripts must still match.
    for table in [SHORT_TABLE, LONG_TABLE] {
        for arch in [ArchKind::Remote, ArchKind::Linked] {
            let mut forward = deployment(arch, table);
            let mut reverse = deployment(arch, table);
            reverse.prewarm_interner((0..KEYS).rev().map(|k| {
                let mut v = format!("{table}/").into_bytes();
                v.extend_from_slice(&k.to_be_bytes());
                v
            }));

            let a = transcript(&mut forward, table, 99, 2_000);
            let b = transcript(&mut reverse, table, 99, 2_000);
            assert_eq!(
                a, b,
                "id assignment order leaked into serving ({arch:?}, {table})"
            );
        }
    }
}
