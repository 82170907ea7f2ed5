//! Bulk-load and replica-divergence oracle.
//!
//! `SqlCluster` keeps one engine per group of pods that host the same
//! regions and have applied the same log. `bulk_load` builds one run per
//! replica set and loads it once into each distinct engine the set's pods
//! hold. A commit puts each entry once into each distinct engine
//! of the replicas applying it, and a pod takes its own copy when its
//! batch differs from that of a pod it shares an engine with. This oracle
//! pins the end state against the plainest possible model: every pod's
//! engine must equal a reference engine of its own that received each of
//! its writes through `put_at`, one at a time, in log order.
//!
//! Engines are compared by a full scan of every key's latest value and
//! version, and by their live key count, live bytes, bytes written and
//! next version. The load cases cover the paper's 3 pods / 3 replicas (one
//! shared set), 5 pods / 3 replicas (no two pods alike), a single pod, a
//! second load onto loaded pods, a pod wiped between two loads, an invalid
//! row mid-stream and durable pods, whose load snapshots are checked by
//! crashing and recovering each pod. Rows arrive ascending (the order an
//! empty engine adopts as built), and on both multi-pod shapes also
//! descending, shuffled, with a key repeated, and ascending but for the
//! last row (the orders the load sorts).
//!
//! The divergence case drives SQL `REPLACE` and `DELETE`, Raft replicas
//! that crash, miss writes and catch up several entries in one tick,
//! durable pod crashes and recoveries whose catch-ups fire the snapshot
//! cadence, and a second load onto shared and split pods. Its reference
//! also keeps a Raft log per region and a durable store per pod, so the
//! WAL and snapshot counters must match too. After every step, every pod
//! that is not wiped is compared.

use cachekit::ring::stable_hash;
use simnet::SimTime;
use std::collections::{BTreeMap, BTreeSet};
use storekit::cluster::{ClusterConfig, EngineSharing, SqlCluster};
use storekit::durability::{DurabilityConfig, DurabilityStats, DurableStore, FsyncPolicy};
use storekit::kv::{index_key, record_key, KvEngine};
use storekit::row::Row;
use storekit::schema::{Catalog, ColumnDef, ColumnType, TableSchema};
use storekit::sql::exec::Mutation;
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

/// One committed Raft log entry, as the reference replays it.
struct Entry {
    version: u64,
    writes: Vec<Mutation>,
    /// The entry's replicated bytes: header plus the values' bytes.
    bytes: u64,
}

/// Every pod's engine as one `put_at` at a time would build it.
struct Reference {
    pods: Vec<KvEngine>,
    /// Each pod's WAL and snapshot; inert when durability is off.
    durable: Vec<DurableStore>,
    /// The last version assigned: the cluster's TSO after the same writes.
    tso: u64,
    /// Every committed entry, per region.
    logs: Vec<Vec<Entry>>,
    /// Entries of its region's log each `(region, pod)` replica applied.
    applied: BTreeMap<(usize, usize), usize>,
    /// Replicas that are down: they apply nothing until they rejoin.
    down: BTreeSet<(usize, usize)>,
    /// Pods whose engine a crash wiped, until they recover.
    wiped: BTreeSet<usize>,
}

impl Reference {
    fn new(c: &SqlCluster) -> Self {
        let regions = c.region_count();
        let members = (0..regions).flat_map(|r| c.region(r).replicas.iter().map(move |&p| (r, p)));
        Reference {
            pods: c.storages.iter().map(|_| KvEngine::new()).collect(),
            durable: c
                .storages
                .iter()
                .map(|_| DurableStore::new(c.config().durability, regions))
                .collect(),
            tso: 0,
            logs: (0..regions).map(|_| Vec::new()).collect(),
            applied: members.map(|replica| (replica, 0)).collect(),
            down: BTreeSet::new(),
            wiped: BTreeSet::new(),
        }
    }

    /// Apply `rows` up to the first invalid one, as the cluster's load
    /// does, and snapshot every durable pod after a load without an
    /// invalid row; returns the rows applied.
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
        if loaded == rows.len() && c.durability_enabled() {
            for (kv, durable) in self.pods.iter().zip(&mut self.durable) {
                durable.snapshot_now(kv, &c.config().cost);
            }
        }
        loaded
    }

    /// `put_at` the load's write on every replica of the key's region.
    fn put(&mut self, c: &SqlCluster, key: &[u8], value: &[u8]) {
        for &pod in &c.region(region_of(c, key)).replicas {
            self.pods[pod].put_at(key, Some(value), self.tso);
        }
    }

    /// Commit one write statement at `version`: its writes, grouped by
    /// region in ascending order, become one log entry per region, which
    /// every live replica applies. A statement with no write only takes a
    /// version.
    fn commit(&mut self, c: &SqlCluster, version: u64, writes: Vec<(Vec<u8>, Option<Vec<u8>>)>) {
        self.tso = version;
        let mut by_region: BTreeMap<usize, Vec<Mutation>> = BTreeMap::new();
        for (key, value) in writes {
            by_region.entry(region_of(c, &key)).or_default().push(Mutation {
                key: key.into(),
                value: value.map(Into::into),
            });
        }
        for (r, writes) in by_region {
            let values = writes.iter().map(|m| m.value.as_ref().map_or(0, |v| v.len() as u64));
            let bytes = 64 + values.sum::<u64>();
            self.logs[r].push(Entry {
                version,
                writes,
                bytes,
            });
            self.catch_up(c, r);
        }
    }

    /// Every live replica of region `r` applies the entries it lacks, in
    /// log order, logging each to its pod's durable store.
    fn catch_up(&mut self, c: &SqlCluster, r: usize) {
        for &pod in &c.region(r).replicas {
            if self.down.contains(&(r, pod)) {
                continue;
            }
            let applied = self.applied.get_mut(&(r, pod)).expect("a member");
            for entry in &self.logs[r][*applied..] {
                let kv = &mut self.pods[pod];
                for m in &entry.writes {
                    kv.put_at(&m.key, m.value.as_deref(), entry.version);
                }
                if c.durability_enabled() {
                    let durable = &mut self.durable[pod];
                    durable.on_apply(r, entry.version, &entry.writes, entry.bytes, &c.config().cost);
                    durable.maybe_snapshot(kv, &c.config().cost);
                }
            }
            *applied = self.logs[r].len();
        }
    }

    /// A heartbeat: every region's live replicas catch up.
    fn tick(&mut self, c: &SqlCluster) {
        for r in 0..self.logs.len() {
            self.catch_up(c, r);
        }
    }

    /// The regions `pod` hosts.
    fn regions_of(&self, pod: usize) -> Vec<usize> {
        self.applied.keys().filter(|&&(_, p)| p == pod).map(|&(r, _)| r).collect()
    }

    /// A durable pod's crash: its replicas go down and its engine is lost.
    fn crash_pod(&mut self, pod: usize) {
        for r in self.regions_of(pod) {
            self.down.insert((r, pod));
        }
        self.wiped.insert(pod);
    }

    /// Rebuild `pod` from its snapshot and synced WAL, rejoin each region
    /// at the durable prefix, and catch up every region.
    fn recover_pod(&mut self, c: &SqlCluster, pod: usize) {
        let outcome = self.durable[pod].crash_and_recover(&c.config().cost);
        self.pods[pod] = outcome.kv;
        for r in self.regions_of(pod) {
            self.down.remove(&(r, pod));
            let applied = self.applied.get_mut(&(r, pod)).expect("a member");
            *applied = (*applied).min(outcome.durable_applied[r]);
        }
        self.wiped.remove(&pod);
        self.tick(c);
    }

    /// Whether kv key `k` is live, as its region's leader holds it.
    fn is_live(&self, c: &SqlCluster, k: i64) -> bool {
        let key = record_key("kv", &Datum::Int(k));
        let leader = c.region(region_of(c, &key)).leader().expect("a leader");
        self.pods[leader].get_latest(&key).is_some()
    }

    /// Every pod's durability counters, merged; a crash's block-cache
    /// refill estimate is not modelled.
    fn durability_stats(&self) -> DurabilityStats {
        let mut stats = DurabilityStats::default();
        for d in &self.durable {
            stats.merge(&d.stats);
        }
        stats
    }
}

/// The region of raw key `key`.
fn region_of(c: &SqlCluster, key: &[u8]) -> usize {
    (stable_hash(key) % c.region_count() as u64) as usize
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

/// Compare every pod that is not wiped, and the durability counters.
fn assert_pods_match(c: &SqlCluster, reference: &Reference, case: &str) {
    assert_eq!(c.storages.len(), reference.pods.len());
    for (pod, want) in reference.pods.iter().enumerate() {
        if !reference.wiped.contains(&pod) {
            assert_engine_matches(c.engine(pod), want, &format!("{case}, pod {pod}"));
        }
    }
    let got = c.durability_stats();
    let want = DurabilityStats {
        cold_refill_cpu_us: got.cold_refill_cpu_us,
        ..reference.durability_stats()
    };
    assert_eq!(got, want, "{case}: durability counters");
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
    assert_eq!(c.engine(0).live_keys(), 400);
    assert_eq!(c.engine_sharing().engines, 1, "one engine for the set");
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

/// `rows` in a splitmix64-driven Fisher-Yates order.
fn shuffled(mut rows: Vec<Vec<Datum>>, mut seed: u64) -> Vec<Vec<Datum>> {
    for i in (1..rows.len()).rev() {
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        rows.swap(i, ((z ^ (z >> 31)) % (i as u64 + 1)) as usize);
    }
    rows
}

#[test]
fn row_orders_take_both_branches_of_the_load() {
    // Ascending rows into empty engines become the engines' pages as
    // built; every other order is sorted, and a key loaded twice keeps its
    // later row while both rows count in bytes written.
    let ascending = kv_rows(0..300, 1);
    let mut descending = ascending.clone();
    descending.reverse();
    let mut duplicate = ascending.clone();
    duplicate.insert(200, vec![Datum::Int(150), Datum::Bytes(vec![2; 40])]);
    let mut last_out_of_order = kv_rows(1..300, 1);
    last_out_of_order.extend(kv_rows(0..1, 1));
    let orders = [
        ("descending", descending),
        ("shuffled", shuffled(ascending, 7919)),
        ("duplicate key", duplicate),
        ("last row out of order", last_out_of_order),
    ];
    for (nodes, replicas) in [(3, 3), (5, 3)] {
        for (order, rows) in &orders {
            let case = format!("{nodes} pods / {replicas} replicas, {order} rows");
            let mut c = cluster(nodes, replicas);
            let mut reference = Reference::new(&c);
            load_and_check(&mut c, &mut reference, "kv", rows.clone(), &case);
            let key = record_key("kv", &Datum::Int(150));
            let leader = c.region(region_of(&c, &key)).leader().expect("a leader");
            let want = rows.iter().rev().find(|row| row[0] == Datum::Int(150));
            let got = c.engine(leader).get_latest(&key).expect("key 150 loaded");
            assert_eq!(
                Some(got.value),
                want.map(|row| Row(row.clone()).encode()).as_deref(),
                "{case}: key 150 holds its last row"
            );
        }
    }
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
        c.replace_engine(1, KvEngine::new());
        reference.pods[1] = KvEngine::new();
        load_and_check(
            &mut c,
            &mut reference,
            "kv",
            kv_rows(100..400, 2),
            &format!("{case}, wiped pod 1"),
        );
        assert!(c
            .engine(1)
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
                c.engine(pod),
                &reference.pods[pod],
                &format!("{case}, pod {pod} recovered from its snapshot"),
            );
        }
    }
}

/// A cluster and its reference, driven step by step and compared after
/// each step.
struct Divergence {
    c: SqlCluster,
    reference: Reference,
    clock: u64,
    case: String,
}

impl Divergence {
    fn new(nodes: usize, replicas: usize, durable: bool) -> Self {
        let durability = if durable {
            // Snapshots every few entries, so they fire inside catch-ups.
            DurabilityConfig {
                enabled: true,
                fsync: FsyncPolicy::Group(3),
                snapshot_every_entries: 4,
            }
        } else {
            DurabilityConfig::default()
        };
        let cfg = ClusterConfig {
            storage_nodes: nodes,
            replicas,
            durability,
            ..ClusterConfig::default()
        };
        let c = SqlCluster::new(catalog(), cfg);
        let reference = Reference::new(&c);
        let durability = if durable { "durable" } else { "volatile" };
        Divergence {
            c,
            reference,
            clock: 0,
            case: format!("{nodes} pods / {replicas} replicas, {durability}"),
        }
    }

    fn now(&mut self) -> SimTime {
        self.clock += 1;
        SimTime::from_nanos(self.clock * 1_000_000)
    }

    fn check(&self, step: &str) {
        assert_pods_match(&self.c, &self.reference, &format!("{}, {step}", self.case));
    }

    fn load(&mut self, rows: Vec<Vec<Datum>>) {
        let expected = self.reference.load(&self.c, "kv", &rows);
        assert_eq!(self.c.bulk_load("kv", rows).expect("valid rows"), expected);
    }

    /// `REPLACE` kv key `k` with a value whose length varies with `tag`.
    fn replace(&mut self, k: i64, tag: u8) {
        let row = vec![
            Datum::Int(k),
            Datum::Bytes(vec![tag; (k as usize * 3 + tag as usize * 11) % 50]),
        ];
        let now = self.now();
        let receipt = self
            .c
            .execute("REPLACE INTO kv VALUES (?, ?)", &row, now)
            .expect("replace");
        let write = (record_key("kv", &Datum::Int(k)), Some(Row(row).encode()));
        let version = receipt.write_version.expect("a write");
        self.reference.commit(&self.c, version, vec![write]);
    }

    /// `DELETE` the kv keys in `[lo, hi)`: one log entry per region with a
    /// live key there, all at one version.
    fn delete(&mut self, lo: i64, hi: i64) {
        let writes = (lo..hi)
            .filter(|&k| self.reference.is_live(&self.c, k))
            .map(|k| (record_key("kv", &Datum::Int(k)), None))
            .collect();
        let now = self.now();
        let receipt = if hi == lo + 1 {
            self.c.execute("DELETE FROM kv WHERE k = ?", &[lo.into()], now)
        } else {
            self.c
                .execute("DELETE FROM kv WHERE k >= ? AND k < ?", &[lo.into(), hi.into()], now)
        }
        .expect("delete");
        let version = receipt.write_version.expect("a write");
        self.reference.commit(&self.c, version, writes);
    }

    /// The region's follower slots after its leader, `count` of them.
    fn followers(&self, r: usize, count: usize) -> Vec<usize> {
        let g = self.c.region(r);
        let leader = g.leader_slot().expect("a leader");
        (1..=count).map(|i| (leader + i) % g.replicas.len()).collect()
    }

    fn crash_replicas(&mut self, r: usize, slots: &[usize]) {
        for &slot in slots {
            let pod = self.c.region(r).replicas[slot];
            self.c.region_mut(r).crash(slot);
            self.reference.down.insert((r, pod));
        }
    }

    /// Restart crashed replicas; the next heartbeat catches them up.
    fn restart_replicas(&mut self, r: usize, slots: &[usize]) {
        for &slot in slots {
            let pod = self.c.region(r).replicas[slot];
            self.c.region_mut(r).restart(slot);
            self.reference.down.remove(&(r, pod));
        }
        let now = self.now();
        self.c.tick(now);
        self.reference.tick(&self.c);
    }

    /// Crash a durable pod, and elect new leaders where it led.
    fn crash_pod(&mut self, pod: usize) {
        self.c.crash_pod(pod);
        self.reference.crash_pod(pod);
        let now = self.now();
        for r in 0..self.c.region_count() {
            if self.c.region(r).leader().is_err() {
                self.c.region_mut(r).elect(now).expect("a live quorum");
            }
        }
    }

    fn recover_pod(&mut self, pod: usize) {
        let now = self.now();
        self.c.recover_pod(pod, now);
        self.reference.recover_pod(&self.c, pod);
    }

    /// kv keys from `from` on whose record lives in region `r`.
    fn keys_in(&self, r: usize, from: i64, count: usize) -> Vec<i64> {
        (from..)
            .filter(|&k| region_of(&self.c, &record_key("kv", &Datum::Int(k))) == r)
            .take(count)
            .collect()
    }
}

/// Drive one cluster shape through every step that makes replicas diverge,
/// comparing after each, and return how its pods shared engines.
fn diverge(nodes: usize, replicas: usize, durable: bool) -> EngineSharing {
    let mut d = Divergence::new(nodes, replicas, durable);
    d.load(kv_rows(0..240, 1));
    d.check("load");

    // SQL writes: rewrites, new keys, point and range deletes, and deletes
    // of keys that are gone.
    for k in (0..260).step_by(9) {
        d.replace(k, 2);
    }
    for k in (5..260).step_by(13) {
        d.delete(k, k + 1);
    }
    d.delete(100, 130);
    d.delete(100, 101);
    d.check("REPLACE and DELETE");

    // Raft replicas of one region go down (two when the quorum allows it)
    // and miss writes there; other regions keep applying.
    let r = 0;
    let slots = d.followers(r, if replicas >= 5 { 2 } else { 1 });
    d.crash_replicas(r, &slots);
    for (i, k) in d.keys_in(r, 0, 6).into_iter().chain(d.keys_in(r, 400, 4)).enumerate() {
        d.replace(k, 3 + i as u8);
    }
    d.delete(0, 40);
    for k in d.keys_in(r + 1, 0, 3) {
        d.replace(k, 3);
    }
    d.check("replicas down");
    // One heartbeat catches them up on every entry they missed.
    d.restart_replicas(r, &slots);
    d.check("replicas caught up");

    if durable {
        // Recover each caught-up replica's pod from the snapshot and WAL its
        // catch-up left.
        for &slot in &slots {
            let pod = d.c.region(r).replicas[slot];
            d.crash_pod(pod);
            d.recover_pod(pod);
            d.check(&format!("pod {pod} recovered after its catch-up"));
        }
        // A pod misses writes while down, then catches up on recovery with
        // the snapshot cadence firing on the way.
        let pod = 1;
        d.crash_pod(pod);
        for k in (0..300).step_by(11) {
            d.replace(k, 5);
        }
        d.check(&format!("pod {pod} down"));
        d.recover_pod(pod);
        d.check(&format!("pod {pod} recovered"));
        d.replace(7, 6);
        d.crash_pod(pod);
        d.recover_pod(pod);
        d.check(&format!("pod {pod} recovered again"));
    }

    // A second load onto shared and split pods.
    d.load(kv_rows(200..320, 7));
    d.check("second load");
    for k in (0..320).step_by(17) {
        d.replace(k, 8);
    }
    d.delete(0, 20);
    d.check("writes after the second load");

    if durable {
        for pod in 0..nodes {
            d.crash_pod(pod);
            d.recover_pod(pod);
            d.check(&format!("pod {pod} recovered at the end"));
        }
    }
    d.c.engine_sharing()
}

#[test]
fn replica_divergence_oracle() {
    let mut total = EngineSharing::default();
    // 5 pods / 5 replicas is the one shape where two replicas sharing an
    // engine can miss writes together (its quorum allows two down), so a
    // catch-up applies several entries to a shared engine.
    for (nodes, replicas, durable) in [(3, 3, false), (3, 3, true), (5, 3, true), (5, 5, true)] {
        let sharing = diverge(nodes, replicas, durable);
        println!(
            "{nodes} pods / {replicas} replicas, durable {durable}: {} engines, {} splits, \
             {} shared applies",
            sharing.engines, sharing.splits, sharing.shared_applies
        );
        if replicas == 3 && nodes == 5 {
            // No two pods host the same regions: nothing is shared.
            assert_eq!(sharing, EngineSharing { engines: 5, ..Default::default() });
        }
        total.splits += sharing.splits;
        total.shared_applies += sharing.shared_applies;
    }
    println!(
        "replica divergence: {} splits, {} shared applies",
        total.splits, total.shared_applies
    );
    assert!(total.splits > 0, "no pod ever split from a shared engine");
    assert!(total.shared_applies > 0, "no entry was ever applied once for two replicas");
}
