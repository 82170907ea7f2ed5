//! Differential test: one receipt reused through
//! `SqlCluster::execute_cached_into` vs a fresh receipt per statement.
//!
//! Two clusters are loaded identically with a `kv` table and a `people`
//! table (text columns, a secondary index on `org`). A splitmix64 stream of
//! statements drives both: point SELECTs with in-place and reordered
//! projections, version probes, index lookups returning several rows,
//! REPLACE, INSERT (duplicate keys fail), UPDATE and DELETE by primary key,
//! on present, missing and deleted keys. One cluster runs each statement
//! through `execute_cached`, which fills a fresh receipt; the other keeps
//! one receipt for the whole stream. After every statement the receipts
//! must be equal field by field, and so must every pod's CPU meter and
//! block-cache counts. A reused receipt that kept any part of an earlier
//! result (say the rows and versions of a hit followed by a miss) fails.
//!
//! Run with `cargo test -p storekit --test receipt_reuse_oracle -- --nocapture`
//! to see the executed case count.

use simnet::{CpuCategory, SimTime};
use storekit::cluster::CachedStatement;
use storekit::schema::{Catalog, ColumnDef, ColumnType, TableSchema};
use storekit::value::Datum;
use storekit::{ClusterConfig, QueryReceipt, SqlCluster};

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        splitmix64(&mut self.0) % n
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

/// Loaded keys are `0..KEYS`; statements draw from `0..KEYS + 8`, so some
/// reads miss.
const KEYS: i64 = 48;
const STATEMENTS: usize = 3_000;

const SQL: [&str; 14] = [
    "SELECT v, _version FROM kv WHERE k = ?",
    "SELECT _version FROM kv WHERE k = ?",
    "REPLACE INTO kv VALUES (?, ?)",
    "UPDATE kv SET v = ? WHERE k = ?",
    "DELETE FROM kv WHERE k = ?",
    "SELECT * FROM people WHERE id = ?",
    "SELECT _version FROM people WHERE id = ?",
    "SELECT bio, name, _version FROM people WHERE id = ?",
    "SELECT id, name FROM people WHERE org = ?",
    "REPLACE INTO people VALUES (?, ?, ?, ?)",
    "INSERT INTO people VALUES (?, ?, ?, ?)",
    "UPDATE people SET org = ?, name = ? WHERE id = ?",
    "DELETE FROM people WHERE id = ?",
    "SELECT COUNT(*) FROM people WHERE org = ?",
];

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add(
        TableSchema::new(
            "kv",
            vec![
                ColumnDef::new("k", ColumnType::Int),
                ColumnDef::new("v", ColumnType::Bytes),
            ],
            "k",
            &[],
        )
        .unwrap(),
    );
    c.add(
        TableSchema::new(
            "people",
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("name", ColumnType::Text),
                ColumnDef::new("bio", ColumnType::Text),
                ColumnDef::new("org", ColumnType::Int),
            ],
            "id",
            &["org"],
        )
        .unwrap(),
    );
    c
}

fn value(rng: &mut Rng) -> Datum {
    match rng.below(3) {
        0 => Datum::Bytes(vec![rng.below(256) as u8; rng.below(64) as usize]),
        _ => Datum::Payload {
            len: rng.below(4096),
            seed: rng.below(1 << 20),
        },
    }
}

fn text(rng: &mut Rng) -> Datum {
    match rng.below(6) {
        0 => Datum::Null,
        _ => Datum::Text(
            rng.pick(&["ada", "bob", "", "a much longer text value"])
                .to_string(),
        ),
    }
}

fn person(rng: &mut Rng, id: i64) -> Vec<Datum> {
    vec![
        Datum::Int(id),
        text(rng),
        text(rng),
        Datum::Int(rng.below(6) as i64),
    ]
}

/// A cluster with a block cache small enough to evict, loaded from `seed`.
fn cluster(seed: u64) -> (SqlCluster, Vec<CachedStatement>) {
    let config = ClusterConfig {
        block_cache_bytes: 200_000,
        ..ClusterConfig::default()
    };
    let mut c = SqlCluster::new(catalog(), config);
    let mut rng = Rng(seed);
    c.bulk_load(
        "kv",
        (0..KEYS).map(|k| vec![Datum::Int(k), value(&mut rng)]),
    )
    .unwrap();
    c.bulk_load("people", (0..KEYS).map(|id| person(&mut rng, id)))
        .unwrap();
    let stmts = SQL
        .iter()
        .map(|sql| c.prepare_cached(sql).unwrap())
        .collect();
    (c, stmts)
}

/// Parameters for statement `which`.
fn params(rng: &mut Rng, which: usize) -> Vec<Datum> {
    let key = Datum::Int(rng.below(KEYS as u64 + 8) as i64);
    let org = Datum::Int(rng.below(6) as i64);
    match SQL[which] {
        s if s.starts_with("REPLACE INTO kv") => vec![key, value(rng)],
        s if s.starts_with("UPDATE kv") => vec![value(rng), key],
        s if s.starts_with("REPLACE INTO people") || s.starts_with("INSERT") => {
            person(rng, key.as_int().unwrap())
        }
        s if s.starts_with("UPDATE people") => vec![org, text(rng), key],
        s if s.contains("WHERE org") => vec![org],
        _ => vec![key],
    }
}

fn assert_pods_equal(a: &SqlCluster, b: &SqlCluster, case: usize) {
    let meters = |c: &SqlCluster| -> Vec<Vec<u64>> {
        let frontends = c.frontends.iter().map(|p| &p.cpu);
        let storages = c.storages.iter().map(|p| &p.cpu);
        frontends
            .chain(storages)
            .map(|m| {
                CpuCategory::ALL
                    .iter()
                    .map(|&cat| m.category(cat).as_nanos())
                    .collect()
            })
            .collect()
    };
    assert_eq!(
        meters(a),
        meters(b),
        "pod CPU meters differ after case {case}"
    );
    let blocks = |c: &SqlCluster| -> Vec<(u64, u64)> {
        c.storages.iter().map(|p| p.block_cache.counts()).collect()
    };
    assert_eq!(
        blocks(a),
        blocks(b),
        "block-cache counts differ after case {case}"
    );
}

#[test]
fn reused_receipts_match_fresh_ones() {
    let (mut fresh, stmts_a) = cluster(7);
    let (mut reused, stmts_b) = cluster(7);
    let mut receipt = QueryReceipt::default();
    let mut rng = Rng(0x5eed_2026);
    let (mut hits, mut misses, mut writes, mut errors, mut hit_then_miss) = (0, 0, 0, 0, 0);
    let mut last_had_rows = false;
    for case in 0..STATEMENTS {
        let which = rng.below(SQL.len() as u64) as usize;
        let params = params(&mut rng, which);
        let now = SimTime::from_nanos(case as u64 * 50_000);
        let a = fresh.execute_cached(&stmts_a[which], &params, now);
        let b = reused.execute_cached_into(&stmts_b[which], &params, now, &mut receipt);
        match (a, b) {
            (Ok(a), Ok(())) => {
                assert_eq!(a, receipt, "receipts differ at case {case}: {}", SQL[which]);
                if a.write_version.is_some() {
                    writes += 1;
                } else if a.rows.is_empty() {
                    misses += 1;
                    hit_then_miss += last_had_rows as u64;
                } else {
                    hits += 1;
                }
                last_had_rows = !a.rows.is_empty();
            }
            (Err(a), Err(b)) => {
                assert_eq!(a.to_string(), b.to_string(), "errors differ at case {case}");
                errors += 1;
            }
            (a, b) => panic!("case {case} ({}): fresh {a:?}, reused {b:?}", SQL[which]),
        }
        assert_pods_equal(&fresh, &reused, case);
    }
    println!(
        "receipt_reuse_oracle: {STATEMENTS} statements ({hits} with rows, {misses} empty reads \
         of which {hit_then_miss} follow a read with rows, {writes} writes, {errors} errors)"
    );
    assert!(hits > 0 && misses > 0 && writes > 0 && errors > 0 && hit_then_miss > 0);
}
