//! Allocation gate for the hash-indexed engine.
//!
//! A counting `#[global_allocator]` pins four properties of `KvEngine`'s
//! layout:
//!
//! - a bulk-loaded `kv` row (14-byte record key, 28-byte encoded row) owns
//!   no heap allocation: the engine's only live allocations are entry and
//!   index pages, a small fraction of the row count. A layout that boxes
//!   keys, values or version lists costs at least one allocation per row
//!   each;
//! - `get_latest` and `get_latest_hinted` allocate nothing;
//! - rewriting a stored row with `put_at` overwrites it in place: no
//!   allocation, where keeping superseded versions would spill them to the
//!   heap;
//! - no allocation made by building and loading a `LoadRun`, `clone` or a
//!   `put_at` of a new key (tail merges and index growth included) is
//!   larger than 64 KiB. Once glibc frees a multi-megabyte buffer it moves
//!   later large ones onto its brk heap, whose freed memory is not
//!   returned, so one flat buffer per engine raises the process's peak RSS.
//!
//! Through a 3-pod / 3-replica cluster it pins that the replicas share one
//! engine: a bulk load holds what one engine of the same rows holds, plus
//! at most [`CLUSTER_SLACK`] allocations, and a pod that diverges (a Raft
//! replica that misses a write) adds exactly one engine copy. The cluster's
//! load of ascending rows builds its engine in place: no allocation of the
//! load reaches 64 KiB, and its peak live bytes exceed the bytes its engine
//! holds afterwards by at most [`LOAD_PEAK_SLACK`], so it keeps no
//! dataset-sized copy of the rows beside the engine.
//!
//! The test binary holds this one test, so no sibling thread can move the
//! counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use simnet::SimTime;
use storekit::cluster::{ClusterConfig, QueryReceipt, SqlCluster};
use storekit::kv::{record_key, KvEngine};
use storekit::row::Row;
use storekit::schema::{Catalog, ColumnDef, ColumnType, TableSchema};
use storekit::value::Datum;

struct CountingAlloc;

/// Allocations made, allocations made less those freed, and the largest
/// allocation since the last [`largest_in`] reset.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);
/// Bytes allocated less those freed, and their highest value since the
/// last [`peak_bytes_in`] reset.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static PEAK_BYTES: AtomicI64 = AtomicI64::new(0);

/// Count `delta` more live bytes, and raise the peak to the new total.
fn add_bytes(delta: i64) {
    let now = LIVE_BYTES.fetch_add(delta, Ordering::Relaxed) + delta;
    PEAK_BYTES.fetch_max(now, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(1, Ordering::Relaxed);
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        add_bytes(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(1, Ordering::Relaxed);
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        add_bytes(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        add_bytes(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const ROWS: i64 = 20_000;

/// The allocation-size ceiling for the engine's own buffers.
const MAX_ALLOCATION: usize = 64 << 10;

/// Allocations a cluster's bulk load may hold beyond its one engine's.
const CLUSTER_SLACK: i64 = 4;

/// Bytes a cluster's load of ascending rows may hold at its peak beyond
/// what its engine holds after it: the row the iterator yields, the load's
/// small buffers and one growth of the page table (24 bytes per 512 rows).
/// A run gathered beside the engine would hold about `ROWS` x 72 bytes
/// (1.4 MB here); the load measured 1.2 KB.
const LOAD_PEAK_SLACK: i64 = 64 << 10;

fn live() -> i64 {
    LIVE.load(Ordering::SeqCst)
}

fn live_bytes() -> i64 {
    LIVE_BYTES.load(Ordering::SeqCst)
}

/// The largest allocation `f` makes, and its result.
fn largest_in<T>(f: impl FnOnce() -> T) -> (usize, T) {
    LARGEST.store(0, Ordering::SeqCst);
    let out = f();
    (LARGEST.load(Ordering::SeqCst), out)
}

/// The peak of live bytes while `f` runs, above those live when it starts,
/// and its result.
fn peak_bytes_in<T>(f: impl FnOnce() -> T) -> (i64, T) {
    let base = live_bytes();
    PEAK_BYTES.store(base, Ordering::SeqCst);
    let out = f();
    (PEAK_BYTES.load(Ordering::SeqCst) - base, out)
}

fn kv_row(k: i64) -> Vec<Datum> {
    vec![
        Datum::Int(k),
        Datum::Payload {
            len: 1_024,
            seed: 0,
        },
    ]
}

fn kv_catalog() -> Catalog {
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
    c
}

#[test]
fn bulk_loaded_rows_live_in_pages_of_at_most_64_kib() {
    // One engine, loaded directly: building the run and loading it.
    let rows: Vec<(Vec<u8>, Vec<u8>)> = (0..ROWS)
        .map(|k| {
            let key = record_key("kv", &Datum::Int(k));
            let row = Row(kv_row(k)).encode();
            assert_eq!((key.len(), row.len()), (14, 28), "the kv table's row shape");
            (key, row)
        })
        .collect();
    let base = live();
    let mut kv = KvEngine::new();
    let (largest, ()) = largest_in(|| {
        kv.bulk_load(
            (1..)
                .zip(&rows)
                .map(|(version, (key, row))| (key, Some(row), version))
                .collect(),
        )
    });
    let held = live() - base;
    drop(rows);
    let engine_held = held;
    println!("engine: largest run-and-load allocation {largest} bytes");
    assert!(
        largest < MAX_ALLOCATION,
        "building and loading a run made a {largest}-byte allocation"
    );
    println!("engine: {held} live allocations for {ROWS} rows");
    assert!(
        held > 0 && held < ROWS / 8,
        "engine holds {held} allocations for {ROWS} rows"
    );

    // Point reads borrow: not one allocation.
    let keys: Vec<Vec<u8>> = (0..ROWS)
        .map(|k| record_key("kv", &Datum::Int(k)))
        .collect();
    let before = ALLOCS.load(Ordering::SeqCst);
    for key in &keys {
        assert!(std::hint::black_box(kv.get_latest(key)).is_some());
    }
    let allocs = ALLOCS.load(Ordering::SeqCst) - before;
    assert_eq!(
        allocs, 0,
        "get_latest allocated {allocs} times over {ROWS} reads"
    );
    // Hinted reads too: in key order the hint hits, in reverse it misses.
    let before = ALLOCS.load(Ordering::SeqCst);
    let mut hint = 0;
    for key in keys.iter().chain(keys.iter().rev()) {
        assert!(std::hint::black_box(kv.get_latest_hinted(key, &mut hint)).is_some());
    }
    let allocs = ALLOCS.load(Ordering::SeqCst) - before;
    assert_eq!(
        allocs,
        0,
        "get_latest_hinted allocated {allocs} times over {} reads",
        2 * ROWS
    );

    // Rewrites overwrite in place: every row, three times over.
    const REWRITES: u64 = 3;
    let rewrites: Vec<Vec<Vec<u8>>> = (1..=REWRITES)
        .map(|pass| {
            (0..ROWS)
                .map(|k| {
                    let mut row = kv_row(k);
                    row[1] = Datum::Payload {
                        len: 1_024,
                        seed: pass,
                    };
                    Row(row).encode()
                })
                .collect()
        })
        .collect();
    let version = |pass: u64, k: usize| ROWS as u64 * (pass + 1) + k as u64 + 1;
    let (base, before) = (live(), ALLOCS.load(Ordering::SeqCst));
    for (pass, rows) in (0..).zip(&rewrites) {
        for (k, (key, row)) in keys.iter().zip(rows).enumerate() {
            kv.put_at(key, Some(row), version(pass, k));
        }
    }
    let allocs = ALLOCS.load(Ordering::SeqCst) - before;
    let held = live() - base;
    println!("rewrites: {allocs} allocations, {held} new live, over {REWRITES} x {ROWS} put_at");
    assert_eq!(
        held, 0,
        "{REWRITES} x {ROWS} rewrites left {held} new live allocations"
    );
    assert_eq!(
        allocs, 0,
        "{REWRITES} x {ROWS} rewrites allocated {allocs} times"
    );
    let last = REWRITES - 1;
    for (k, (key, row)) in keys.iter().zip(&rewrites[last as usize]).enumerate() {
        let got = kv.get_latest(key).expect("rewritten row");
        assert_eq!((got.value, got.version), (row.as_slice(), version(last, k)));
    }

    // Clones and new keys stay in small pages too: the new keys fill the
    // tail past its merge point and grow the index.
    let (largest, copy) = largest_in(|| kv.clone());
    println!("clone: largest allocation {largest} bytes");
    assert!(
        largest < MAX_ALLOCATION,
        "clone made a {largest}-byte allocation"
    );
    drop(copy);
    let before = kv.layout();
    let fresh: Vec<Vec<u8>> = (ROWS..3 * ROWS)
        .map(|k| record_key("kv", &Datum::Int(k)))
        .collect();
    let row = Row(kv_row(0)).encode();
    let next = version(REWRITES, 0);
    let (largest, ()) = largest_in(|| {
        for (v, key) in (next..).zip(&fresh) {
            kv.put_at(key, Some(&row), v);
        }
    });
    let after = kv.layout();
    println!("new keys: largest allocation {largest} bytes, layout {before:?} -> {after:?}");
    assert!(
        after.run > before.run && after.index_slots > before.index_slots,
        "{} new keys neither merged the tail nor grew the index",
        fresh.len()
    );
    assert!(
        largest < MAX_ALLOCATION,
        "a new-key put_at made a {largest}-byte allocation"
    );
    drop((kv, keys, rewrites, fresh));

    // Through the cluster: three replicas of every row, still pages only,
    // and the replicas share one engine.
    let mut cluster = SqlCluster::new(kv_catalog(), ClusterConfig::default());
    let (base, base_bytes) = (live(), live_bytes());
    let (peak_bytes, (largest, loaded)) =
        peak_bytes_in(|| largest_in(|| cluster.bulk_load("kv", (0..ROWS).map(kv_row))));
    assert_eq!(loaded.expect("valid rows"), ROWS as usize);
    let held = live() - base;
    let held_bytes = live_bytes() - base_bytes;
    println!("cluster: largest bulk_load allocation {largest} bytes");
    assert!(
        largest < MAX_ALLOCATION,
        "the cluster's bulk_load made a {largest}-byte allocation"
    );
    println!(
        "cluster: load peaked at {peak_bytes} live bytes, {:.3}x the {held_bytes} \
         its engine holds after it",
        peak_bytes as f64 / held_bytes as f64
    );
    assert!(
        peak_bytes <= held_bytes + LOAD_PEAK_SLACK,
        "the load peaked at {peak_bytes} live bytes, {} above the {held_bytes} its engine \
         holds (slack {LOAD_PEAK_SLACK})",
        peak_bytes - held_bytes
    );
    println!(
        "cluster: {held} live allocations for {ROWS} rows x 3 replicas \
         (one engine of them: {engine_held})"
    );
    assert!(
        held < ROWS / 2,
        "cluster holds {held} allocations for {ROWS} rows x 3 replicas"
    );
    assert!(
        held <= engine_held + CLUSTER_SLACK,
        "cluster holds {held} allocations, one engine {engine_held}"
    );
    assert_eq!(cluster.engine_sharing().engines, 1);

    // A follower that misses a write diverges: its peers take one copy of
    // the engine. The write's own buffers are warmed first, and the
    // follower catches up so its log entry is compacted away.
    let stmt = cluster
        .prepare_cached("REPLACE INTO kv VALUES (?, ?)")
        .expect("valid statement");
    let mut receipt = QueryReceipt::default();
    let mut write = |cluster: &mut SqlCluster, ms: u64| {
        let now = SimTime::from_nanos(ms * 1_000_000);
        cluster
            .execute_cached_into(&stmt, &kv_row(7), now, &mut receipt)
            .expect("replace");
    };
    write(&mut cluster, 1);
    let base = live();
    let copy = cluster.engine(0).clone();
    let engine_copy = live() - base;
    drop(copy);
    let key = record_key("kv", &Datum::Int(7));
    let r = (cachekit::ring::stable_hash(&key) % cluster.region_count() as u64) as usize;
    let follower = (cluster.region(r).leader_slot().expect("a leader") + 1) % 3;
    let base = live();
    cluster.region_mut(r).crash(follower);
    write(&mut cluster, 2);
    cluster.region_mut(r).restart(follower);
    cluster.tick(SimTime::from_nanos(3_000_000));
    let held = live() - base;
    println!("divergence: {held} new live allocations, one engine copy {engine_copy}");
    assert_eq!(cluster.engine_sharing().engines, 2);
    assert_eq!(
        held, engine_copy,
        "a diverged pod holds {held} new allocations, one engine copy {engine_copy}"
    );
}
