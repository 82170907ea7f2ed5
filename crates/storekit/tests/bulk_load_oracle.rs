//! Bulk-load equivalence oracle.
//!
//! `SqlCluster::bulk_load` gathers one sorted run per replica set, builds
//! one tree per set and clones it into the set's other pods that were new
//! before the load. Pods that already held data merge the run instead.
//! This oracle pins the end state against the plainest possible model:
//! every pod's engine must equal a reference engine that received each of
//! its writes through `put_at`, one at a time, in version order.
//!
//! Engines are compared by a full scan of every key's latest value and
//! version, and by their live key count, live bytes, bytes written and
//! next version. The cases cover the paper's 3 pods / 3 replicas (one
//! shared set), 5 pods / 3 replicas (no two pods alike), a single pod, a
//! second load onto loaded pods, a pod wiped between two loads, an invalid
//! row mid-stream and durable pods, whose load snapshots are checked by
//! crashing and recovering each pod.

use cachekit::ring::stable_hash;
use simnet::SimTime;
use storekit::cluster::{ClusterConfig, SqlCluster};
use storekit::durability::{DurabilityConfig, FsyncPolicy};
use storekit::kv::{index_key, record_key, KvEngine};
use storekit::row::Row;
use storekit::schema::{Catalog, ColumnDef, ColumnType, TableSchema};
use storekit::value::Datum;
use storekit::StoreError;

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
        .expect("static schema"),
    );
    c.add(
        TableSchema::new(
            "users",
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("name", ColumnType::Text),
                ColumnDef::new("org", ColumnType::Int),
            ],
            "id",
            &["org"],
        )
        .expect("static schema"),
    );
    c
}

fn cluster(storage_nodes: usize, replicas: usize) -> SqlCluster {
    let cfg = ClusterConfig {
        storage_nodes,
        replicas,
        ..ClusterConfig::default()
    };
    SqlCluster::new(catalog(), cfg)
}

/// `kv` rows for keys `keys`, tagged so reloads change the value. Lengths
/// straddle the 30-byte inline boundary of keys and values.
fn kv_rows(keys: std::ops::Range<i64>, tag: u8) -> Vec<Vec<Datum>> {
    keys.map(|k| {
        vec![
            Datum::Int(k),
            Datum::Bytes(vec![tag; (k as usize * 7) % 45]),
        ]
    })
    .collect()
}

/// Indexed `users` rows: the index entries hash to other regions than
/// their rows.
fn user_rows(ids: std::ops::Range<i64>) -> Vec<Vec<Datum>> {
    ids.map(|id| {
        vec![
            Datum::Int(id),
            Datum::Text(format!("user-{id}-{}", "x".repeat((id as usize) % 40))),
            Datum::Int(id % 7),
        ]
    })
    .collect()
}

/// Every pod's engine as one `put_at` at a time would build it.
struct Reference {
    pods: Vec<KvEngine>,
    /// The last version assigned: the cluster's TSO after the same loads.
    tso: u64,
}

impl Reference {
    fn new(c: &SqlCluster) -> Self {
        Reference {
            pods: c.storages.iter().map(|_| KvEngine::new()).collect(),
            tso: 0,
        }
    }

    /// Apply `rows` up to the first invalid one, as the cluster's load
    /// does; returns the rows applied.
    fn load(&mut self, c: &SqlCluster, table: &str, rows: &[Vec<Datum>]) -> usize {
        let schema = c.catalog.get(table).expect("known table");
        let mut loaded = 0;
        for values in rows {
            let row = Row(values.clone());
            if schema.validate(&row).is_err() {
                break;
            }
            self.tso += 1;
            let pk = schema.pk_of(&row);
            let record = record_key(table, pk);
            for &col in &schema.indexes {
                let value = row.get(col).unwrap_or(&Datum::Null);
                self.put(c, &index_key(table, col, value, pk), &record);
            }
            self.put(c, &record, &row.encode());
            loaded += 1;
        }
        loaded
    }

    /// `put_at` the write on every replica of the key's region.
    fn put(&mut self, c: &SqlCluster, key: &[u8], value: &[u8]) {
        let region = (stable_hash(key) % c.region_count() as u64) as usize;
        for &pod in &c.region(region).replicas {
            self.pods[pod].put_at(key, Some(value), self.tso);
        }
    }
}

/// Every live `(key, value, version)`, in key order.
fn scan(kv: &KvEngine) -> Vec<(Vec<u8>, Vec<u8>, u64)> {
    kv.scan_prefix(b"")
        .map(|(k, v)| (k.to_vec(), v.value.to_vec(), v.version))
        .collect()
}

fn assert_engine_matches(got: &KvEngine, want: &KvEngine, what: &str) {
    let (got_rows, want_rows) = (scan(got), scan(want));
    let first_difference = got_rows.iter().zip(&want_rows).position(|(g, w)| g != w);
    assert!(
        got_rows == want_rows,
        "{what}: scan holds {} entries, reference {}; \
         first difference at entry {first_difference:?}",
        got_rows.len(),
        want_rows.len()
    );
    assert_eq!(got.live_keys(), want.live_keys(), "{what}: live keys");
    assert_eq!(got.live_bytes(), want.live_bytes(), "{what}: live bytes");
    assert_eq!(
        got.bytes_written(),
        want.bytes_written(),
        "{what}: bytes written"
    );
    assert_eq!(
        got.next_version(),
        want.next_version(),
        "{what}: next version"
    );
}

fn assert_pods_match(c: &SqlCluster, reference: &Reference, case: &str) {
    assert_eq!(c.storages.len(), reference.pods.len());
    for (pod, (storage, want)) in c.storages.iter().zip(&reference.pods).enumerate() {
        assert_engine_matches(&storage.kv, want, &format!("{case}, pod {pod}"));
    }
}

/// Load `rows` into both the cluster and the reference and compare.
fn load_and_check(
    c: &mut SqlCluster,
    reference: &mut Reference,
    table: &str,
    rows: Vec<Vec<Datum>>,
    case: &str,
) {
    let expected = reference.load(c, table, &rows);
    let loaded = c.bulk_load(table, rows).expect("valid rows");
    assert_eq!(loaded, expected, "{case}: rows loaded");
    assert_pods_match(c, reference, case);
}

#[test]
fn three_pods_three_replicas_share_one_run() {
    let mut c = cluster(3, 3);
    let mut reference = Reference::new(&c);
    load_and_check(
        &mut c,
        &mut reference,
        "kv",
        kv_rows(0..400, 1),
        "3 pods / 3 replicas",
    );
    // Every pod hosts every region: all three hold the whole dataset.
    assert_eq!(c.storages[0].kv.live_keys(), 400);
}

#[test]
fn five_pods_three_replicas_load_every_pod_alone() {
    let mut c = cluster(5, 3);
    let mut reference = Reference::new(&c);
    load_and_check(
        &mut c,
        &mut reference,
        "users",
        user_rows(0..300),
        "5 pods / 3 replicas",
    );
    load_and_check(
        &mut c,
        &mut reference,
        "kv",
        kv_rows(0..300, 1),
        "5 pods / 3 replicas, second table",
    );
}

#[test]
fn single_pod_loads_everything() {
    let mut c = cluster(1, 1);
    let mut reference = Reference::new(&c);
    load_and_check(&mut c, &mut reference, "users", user_rows(0..200), "1 pod");
}

#[test]
fn second_load_merges_into_loaded_pods() {
    let mut c = cluster(3, 3);
    let mut reference = Reference::new(&c);
    load_and_check(
        &mut c,
        &mut reference,
        "kv",
        kv_rows(0..300, 1),
        "first load",
    );
    // Reload half the keys (one of them twice) beside new ones, then load a
    // second table.
    let mut rows = kv_rows(150..450, 2);
    rows.extend(kv_rows(200..201, 3));
    load_and_check(&mut c, &mut reference, "kv", rows, "second load");
    load_and_check(
        &mut c,
        &mut reference,
        "users",
        user_rows(0..100),
        "second table",
    );
}

#[test]
fn wiped_pod_loads_only_the_new_rows() {
    for (nodes, replicas) in [(3, 3), (5, 3)] {
        let case = format!("{nodes} pods / {replicas} replicas");
        let mut c = cluster(nodes, replicas);
        let mut reference = Reference::new(&c);
        load_and_check(&mut c, &mut reference, "kv", kv_rows(0..300, 1), &case);
        // A wiped pod is new again; its peers are not. It must end with
        // the second load only, not a copy of a peer's merged engine.
        c.storages[1].kv = KvEngine::new();
        reference.pods[1] = KvEngine::new();
        load_and_check(
            &mut c,
            &mut reference,
            "kv",
            kv_rows(100..400, 2),
            &format!("{case}, wiped pod 1"),
        );
        assert!(c.storages[1]
            .kv
            .get_latest(&record_key("kv", &Datum::Int(50)))
            .is_none());
    }
}

#[test]
fn invalid_row_stops_the_load_after_earlier_rows() {
    for (nodes, replicas) in [(3, 3), (5, 3)] {
        let case = format!("{nodes} pods / {replicas} replicas, invalid row");
        let mut c = cluster(nodes, replicas);
        let mut reference = Reference::new(&c);
        let mut rows = kv_rows(0..100, 1);
        rows.push(vec![Datum::Int(100)]);
        rows.extend(kv_rows(101..150, 1));
        assert_eq!(reference.load(&c, "kv", &rows), 100);
        let err = c.bulk_load("kv", rows).expect_err("arity mismatch");
        assert!(
            matches!(err, StoreError::ArityMismatch { .. }),
            "{case}: {err:?}"
        );
        assert_pods_match(&c, &reference, &case);
        // The next load's versions follow the rows that did load.
        load_and_check(
            &mut c,
            &mut reference,
            "kv",
            kv_rows(100..120, 2),
            &format!("{case}, reload"),
        );
    }
}

#[test]
fn durable_pods_snapshot_the_loaded_engine() {
    for (nodes, replicas) in [(3, 3), (5, 3)] {
        let case = format!("{nodes} pods / {replicas} replicas, durable");
        let cfg = ClusterConfig {
            storage_nodes: nodes,
            replicas,
            durability: DurabilityConfig {
                enabled: true,
                fsync: FsyncPolicy::Group(8),
                snapshot_every_entries: 1_000_000,
            },
            ..ClusterConfig::default()
        };
        let mut c = SqlCluster::new(catalog(), cfg);
        let mut reference = Reference::new(&c);
        load_and_check(&mut c, &mut reference, "users", user_rows(0..200), &case);
        let stats = c.durability_stats();
        assert_eq!(
            stats.snapshots, nodes as u64,
            "{case}: one snapshot per pod"
        );
        let live: u64 = reference.pods.iter().map(KvEngine::live_bytes).sum();
        assert_eq!(stats.snapshot_bytes, live, "{case}: snapshot bytes");
        // A recovered pod is exactly its snapshot: the WAL is empty.
        for pod in 0..nodes {
            c.crash_pod(pod);
            c.recover_pod(pod, SimTime::ZERO);
            assert_engine_matches(
                &c.storages[pod].kv,
                &reference.pods[pod],
                &format!("{case}, pod {pod} recovered from its snapshot"),
            );
        }
    }
}
