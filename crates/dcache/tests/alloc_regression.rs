//! Allocation regression gate for the zero-alloc serve path.
//!
//! The PR-8 overhaul removed every steady-state heap allocation from the
//! cache-hit serve path: keys are interned once (scratch-buffer reuse +
//! dense-id equality), cache lookups are FxHash map hits, and outcomes are
//! plain structs. This test pins that property with a counting
//! `#[global_allocator]`: after warmup, N cache-hit reads must perform
//! exactly **zero** allocations. Any future change that sneaks a `Vec`,
//! `format!`, or boxed closure back into the hit path fails here with the
//! allocation count, not as a silent throughput regression.
//!
//! LinkedVersion's hit also runs the §5.5 version check, a prepared
//! `SELECT _version ... WHERE k = ?` through the SQL executor and the MVCC
//! store. Its budget is three allocations per hit: the decoded row (which
//! the projection reuses) and the result's row and version vectors.
//!
//! The gate counts *allocations* (not frees), is enabled only around the
//! measured window, and the test binary contains this test alone so no
//! sibling thread can pollute the counter.

use dcache::deployment::{kv_catalog, Deployment};
use dcache::{ArchKind, DeploymentConfig};
use simnet::{SimDuration, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use storekit::value::Datum;

struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const KEYS: i64 = 32;

fn warmed_deployment(arch: ArchKind) -> Deployment {
    let mut d = Deployment::new(DeploymentConfig::test_small(arch), kv_catalog("kv"));
    d.cluster
        .bulk_load(
            "kv",
            (0..KEYS).map(|k| vec![Datum::Int(k), Datum::Payload { len: 256, seed: 3 }]),
        )
        .unwrap();
    // Two passes: the first faults every key into cache (interning it and
    // growing every map to steady-state size), the second confirms hits.
    let mut now = SimTime::ZERO;
    for pass in 0..2 {
        for k in 0..KEYS {
            now += SimDuration::from_micros(50);
            let out = d.serve_kv_read("kv", k, now).expect("warm read");
            if pass == 1 {
                assert!(out.cache_hit, "warmup pass 2 must hit ({arch:?}, key {k})");
            }
        }
    }
    d
}

/// Count allocations across `rounds` full sweeps of cache-hit reads.
fn count_hit_path_allocs(d: &mut Deployment, rounds: usize) -> u64 {
    let mut now = SimTime::from_nanos(1_000_000_000);
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    for _ in 0..rounds {
        for k in 0..KEYS {
            now += SimDuration::from_micros(50);
            let out = d.serve_kv_read("kv", k, now).expect("hit read");
            assert!(out.cache_hit, "measured read must be a cache hit");
        }
    }
    COUNTING.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

/// Version-checked hits may allocate this many times each.
const VERSION_CHECK_ALLOCS: u64 = 3;

#[test]
fn steady_state_cache_hit_reads_stay_within_allocation_budget() {
    // Linked: the paper's cheapest path (in-process cache hit) and the one
    // fig_scale hammers hardest. Remote: hit served by a cache-tier node.
    for arch in [ArchKind::Linked, ArchKind::Remote] {
        let mut d = warmed_deployment(arch);
        let requests = 50 * KEYS as u64;
        let allocs = count_hit_path_allocs(&mut d, 50);
        assert_eq!(
            allocs, 0,
            "{arch:?} hit path allocated {allocs} times over {requests} requests \
             (expected 0 steady-state allocations per request)"
        );
    }
    // LinkedVersion: every hit pays a version-check statement.
    let mut d = warmed_deployment(ArchKind::LinkedVersion);
    let requests = 50 * KEYS as u64;
    let allocs = count_hit_path_allocs(&mut d, 50);
    println!(
        "alloc_regression: LinkedVersion made {allocs} allocations over {requests} \
         version-checked hits"
    );
    assert!(
        allocs <= VERSION_CHECK_ALLOCS * requests,
        "LinkedVersion hit path allocated {allocs} times over {requests} requests \
         (budget {VERSION_CHECK_ALLOCS} per version-checked hit)"
    );
}
