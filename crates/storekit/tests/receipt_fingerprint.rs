//! Exact-charge test: every receipt, meter and block-cache count of a
//! statement stream, folded into one pinned `u64` per cost configuration.
//!
//! The figures in `results/` pin every charge only through the full
//! `repro_all` run, which takes a release build and half a minute. This
//! test pins them in a moment: a splitmix64 stream of statements runs
//! against a loaded cluster (point and version SELECTs, point SELECTs with
//! a join by primary key, with an ORDER BY and with a residual, index
//! lookups, a primary-key range, REPLACE, INSERT, UPDATE and DELETE, on
//! present, missing and deleted keys). Most statements run through `execute_cached_into` with
//! one reused receipt; every fourth runs from its SQL text through
//! `execute`, and some UPDATEs run as delayed writes. Every `QueryReceipt`
//! field is folded after each statement, and every pod meter per
//! `CpuCategory` and each pod's block-cache counts at the end.
//!
//! The stream runs under two cost configurations: the defaults, and one
//! where every `StorageCostConfig` field has a distinct non-round value
//! (with a non-round link and durability on, so the WAL charges count
//! too). A charge priced from the wrong field, or off by one nanosecond,
//! changes a fingerprint.
//!
//! A change that means to move a charge re-pins the values and says why;
//! any other change must leave them as they are. Run with
//! `cargo test --release -p storekit --test receipt_fingerprint -- --nocapture`
//! to see the case counts and the fingerprints' parts.

use simnet::net::LinkSpec;
use simnet::{CpuCategory, SimDuration, SimTime};
use storekit::cluster::CachedStatement;
use storekit::schema::{Catalog, ColumnDef, ColumnType, TableSchema};
use storekit::value::Datum;
use storekit::{
    ClusterConfig, DurabilityConfig, FsyncPolicy, QueryReceipt, SqlCluster, StorageCostConfig,
    StoreResult,
};

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

/// An order-sensitive fold of `u64`s.
#[derive(Default)]
struct Fold(u64);

impl Fold {
    fn add(&mut self, x: u64) {
        let mut state = self.0.rotate_left(7) ^ x;
        self.0 = splitmix64(&mut state);
    }

    fn bytes(&mut self, bytes: &[u8]) {
        self.add(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn duration(&mut self, d: SimDuration) {
        self.add(d.as_nanos());
    }
}

/// Loaded keys are `0..KEYS`; statements draw from `0..KEYS + 8`, so some
/// reads miss.
const KEYS: i64 = 48;
const STATEMENTS: usize = 4_000;

const SQL: [&str; 18] = [
    "SELECT v, _version FROM kv WHERE k = ?",
    "SELECT _version FROM kv WHERE k = ?",
    "REPLACE INTO kv VALUES (?, ?)",
    "INSERT INTO kv VALUES (?, ?)",
    "UPDATE kv SET v = ? WHERE k = ?",
    "DELETE FROM kv WHERE k = ?",
    "SELECT * FROM people WHERE id = ?",
    "SELECT _version FROM people WHERE id = ?",
    "SELECT bio, name, _version FROM people WHERE id = ? AND org <= ?",
    "SELECT id, name FROM people WHERE org = ?",
    "SELECT COUNT(*) FROM people WHERE org = ?",
    "REPLACE INTO people VALUES (?, ?, ?, ?)",
    "INSERT INTO people VALUES (?, ?, ?, ?)",
    "UPDATE people SET org = ?, name = ? WHERE id = ?",
    "DELETE FROM people WHERE id = ?",
    "SELECT name, v, _version FROM people JOIN kv ON people.org = kv.k WHERE people.id = ?",
    "SELECT id, name FROM people WHERE id = ? ORDER BY name LIMIT 1",
    "SELECT k, _version FROM kv WHERE k >= ? AND k < ?",
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

/// Every `StorageCostConfig` field distinct and non-round.
fn odd_costs() -> StorageCostConfig {
    StorageCostConfig {
        conn_handling_us: 87.31,
        sql_parse_us: 113.07,
        sql_parse_per_byte_ns: 41.3,
        sql_plan_us: 137.9,
        frontend_per_row_us: 7.77,
        txn_lease_check_us: 23.19,
        kv_point_lookup_us: 44.11,
        kv_scan_per_row_us: 3.71,
        kv_write_us: 58.63,
        kv_per_byte_ns: 0.217,
        block_miss_us: 14.29,
        disk_read_latency_us: 61.73,
        raft_leader_append_us: 57.41,
        raft_follower_apply_us: 31.37,
        raft_per_byte_ns: 0.533,
        rpc_fixed_us: 29.17,
        rpc_per_byte_ns: 0.877,
        wal_append_us: 6.13,
        wal_append_per_byte_ns: 0.311,
        wal_fsync_us: 109.3,
        snapshot_per_byte_ns: 0.157,
        snapshot_load_per_byte_ns: 0.127,
        wal_replay_us: 12.7,
        wal_replay_per_byte_ns: 0.413,
        ssd_read_latency_us: 79.9,
    }
}

/// A cluster with a block cache small enough to evict, loaded from `seed`.
fn cluster(config: ClusterConfig, seed: u64) -> (SqlCluster, Vec<CachedStatement>) {
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
        s if s.starts_with("REPLACE INTO kv") || s.starts_with("INSERT INTO kv") => {
            vec![key, value(rng)]
        }
        s if s.starts_with("UPDATE kv") => vec![value(rng), key],
        s if s.starts_with("REPLACE INTO people") || s.starts_with("INSERT") => {
            person(rng, key.as_int().unwrap())
        }
        s if s.starts_with("UPDATE people") => vec![org, text(rng), key],
        s if s.contains("WHERE org") => vec![org],
        s if s.contains("AND org") => vec![key, org],
        s if s.contains("k >= ?") => {
            let lo = key.as_int().unwrap();
            vec![key, Datum::Int(lo + rng.below(6) as i64)]
        }
        _ => vec![key],
    }
}

fn fold_receipt(f: &mut Fold, r: &QueryReceipt) {
    f.add(r.rows.len() as u64);
    for row in &r.rows {
        f.bytes(&row.encode());
    }
    f.add(r.versions.len() as u64);
    for &v in &r.versions {
        f.add(v);
    }
    f.add(r.write_version.map_or(u64::MAX, |v| v));
    f.duration(r.frontend_cpu);
    f.duration(r.storage_cpu);
    f.duration(r.latency);
    f.add(r.request_bytes);
    f.add(r.response_bytes);
    f.add(r.storage_rpcs);
    f.add(r.block_hits);
    f.add(r.block_misses);
    f.add(r.stats.rows_visited);
    f.add(r.stats.rows_returned);
    f.add(r.stats.bytes_read);
    f.add(r.stats.used_index as u64);
    f.add(r.stats.full_scans);
}

/// The folded receipts, meters and block-cache counts of the stream.
struct Fingerprint {
    receipts: u64,
    meters: u64,
    blocks: u64,
    all: u64,
}

/// Run the statement stream on a cluster built from `config`.
fn fingerprint(config: ClusterConfig, label: &str) -> Fingerprint {
    let (mut c, stmts) = cluster(config, 7);
    let mut receipt = QueryReceipt::default();
    let mut rng = Rng(0xF14E_2026);
    let mut receipts = Fold::default();
    let (mut with_rows, mut empty, mut writes, mut delayed, mut texts, mut errors) =
        (0, 0, 0, 0, 0, 0);
    for case in 0..STATEMENTS {
        let which = rng.below(SQL.len() as u64) as usize;
        let params = params(&mut rng, which);
        let now = SimTime::from_nanos(case as u64 * 50_000);
        let result: StoreResult<()> = if SQL[which].starts_with("UPDATE") && case % 3 == 0 {
            delayed += 1;
            c.begin_delayed_write(SQL[which], &params, now)
                .and_then(|write| c.commit_delayed(write, now + SimDuration::from_micros(7)))
                .map(|r| receipt = r)
        } else if case % 4 == 3 {
            texts += 1;
            c.execute(SQL[which], &params, now).map(|r| receipt = r)
        } else {
            c.execute_cached_into(&stmts[which], &params, now, &mut receipt)
        };
        match result {
            Ok(()) => {
                fold_receipt(&mut receipts, &receipt);
                if receipt.write_version.is_some() {
                    writes += 1;
                } else if receipt.rows.is_empty() {
                    empty += 1;
                } else {
                    with_rows += 1;
                }
            }
            Err(e) => {
                receipts.add(u64::MAX);
                receipts.bytes(e.to_string().as_bytes());
                errors += 1;
            }
        }
    }
    let mut meters = Fold::default();
    let pods = c.frontends.iter().map(|p| &p.cpu);
    for meter in pods.chain(c.storages.iter().map(|p| &p.cpu)) {
        for &cat in CpuCategory::ALL.iter() {
            meters.duration(meter.category(cat));
        }
    }
    let mut blocks = Fold::default();
    let (mut block_hits, mut block_misses) = (0, 0);
    for pod in &c.storages {
        let (hits, misses) = pod.block_cache.counts();
        blocks.add(hits);
        blocks.add(misses);
        block_hits += hits;
        block_misses += misses;
    }
    let mut all = Fold::default();
    all.add(receipts.0);
    all.add(meters.0);
    all.add(blocks.0);
    println!(
        "receipt_fingerprint[{label}]: {STATEMENTS} statements ({with_rows} with rows, {empty} \
         empty reads, {writes} writes, {delayed} delayed, {texts} from text, {errors} errors; {block_hits} block hits, \
         {block_misses} misses); receipts {:#018x}, meters {:#018x}, blocks {:#018x}, all {:#018x}",
        receipts.0, meters.0, blocks.0, all.0
    );
    assert!(with_rows > 0 && empty > 0 && writes > 0 && delayed > 0 && errors > 0);
    assert!(block_hits > 0 && block_misses > 0);
    Fingerprint {
        receipts: receipts.0,
        meters: meters.0,
        blocks: blocks.0,
        all: all.0,
    }
}

fn check(got: Fingerprint, want: u64, label: &str) {
    assert_eq!(
        got.all, want,
        "{label}: fingerprint {:#018x}, pinned {want:#018x} (receipts {:#018x}, meters {:#018x}, \
         blocks {:#018x})",
        got.all, got.receipts, got.meters, got.blocks
    );
}

#[test]
fn default_costs_charge_exactly_as_pinned() {
    let config = ClusterConfig {
        block_cache_bytes: 200_000,
        ..ClusterConfig::default()
    };
    check(
        fingerprint(config, "default"),
        0xa11d_11f3_83ff_9449,
        "default costs",
    );
}

#[test]
fn distinct_costs_charge_exactly_as_pinned() {
    let config = ClusterConfig {
        block_cache_bytes: 200_000,
        link: LinkSpec {
            base_latency: SimDuration::from_nanos(23_417),
            bandwidth_bytes_per_sec: 987_654_321,
        },
        cost: odd_costs(),
        durability: DurabilityConfig {
            enabled: true,
            fsync: FsyncPolicy::Group(3),
            snapshot_every_entries: 250,
        },
        ..ClusterConfig::default()
    };
    check(
        fingerprint(config, "distinct"),
        0xab22_efbc_e5e7_531c,
        "distinct costs",
    );
}
