//! Allocation gate for the flat memtable.
//!
//! A counting `#[global_allocator]` pins three properties of `KvEngine`'s
//! layout:
//!
//! - a bulk-loaded `kv` row (14-byte record key, 28-byte encoded row) owns
//!   no heap allocation: the engine's only live allocations are B-tree
//!   nodes, a small fraction of the row count. A layout that boxes keys,
//!   values or version lists costs at least one allocation per row each;
//! - `get_latest` allocates nothing;
//! - rewriting a stored row with `put_at` overwrites it in place: no
//!   allocation, where keeping superseded versions would spill them to the
//!   heap.
//!
//! The test binary holds this one test, so no sibling thread can move the
//! counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use storekit::cluster::{ClusterConfig, SqlCluster};
use storekit::kv::{record_key, InlineBytes, KvEngine};
use storekit::row::Row;
use storekit::schema::{Catalog, ColumnDef, ColumnType, TableSchema};
use storekit::value::Datum;

struct CountingAlloc;

/// Allocations made, and allocations made less those freed.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(1, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const ROWS: i64 = 20_000;

fn live() -> i64 {
    LIVE.load(Ordering::SeqCst)
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
fn bulk_loaded_rows_live_in_btree_nodes_only() {
    // One engine, loaded directly.
    let base = live();
    let writes: Vec<_> = (0..ROWS)
        .map(|k| {
            let key = record_key("kv", &Datum::Int(k));
            let row = Row(kv_row(k)).encode();
            assert_eq!((key.len(), row.len()), (14, 28), "the kv table's row shape");
            (
                InlineBytes::from(key),
                Some(InlineBytes::from(row)),
                k as u64 + 1,
            )
        })
        .collect();
    let mut kv = KvEngine::new();
    kv.bulk_load(writes);
    let held = live() - base;
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
    drop((kv, keys, rewrites));

    // Through the cluster: three replicas of every row, still nodes only.
    let mut cluster = SqlCluster::new(kv_catalog(), ClusterConfig::default());
    let base = live();
    cluster
        .bulk_load("kv", (0..ROWS).map(kv_row))
        .expect("valid rows");
    let held = live() - base;
    println!("cluster: {held} live allocations for {ROWS} rows x 3 replicas");
    assert!(
        held < ROWS / 2,
        "cluster holds {held} allocations for {ROWS} rows x 3 replicas"
    );
}
