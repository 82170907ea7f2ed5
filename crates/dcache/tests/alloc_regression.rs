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
//! store. Its budget is zero allocations per hit too: the deployment keeps
//! one `QueryReceipt` for all its statements, and the executor decodes the
//! row into that receipt's reused row buffer and fills its reused row and
//! version vectors. A Remote fill (a write invalidates the key, the next
//! read misses and refills the cache from storage) runs the same point
//! SELECT through the same receipt, and its budget is zero as well.
//!
//! A Linked or Remote write runs a REPLACE through the executor, Raft and
//! the MVCC store of every replica. Its budget is two allocations per
//! write: the new row and the write batch's mutation vector, which moves
//! into the Raft log. The duplicate check decodes the old row into the
//! reused row buffer, and keys, rows and apply work travel inline or in
//! reused buffers. The regions' Raft logs grow by doubling, which the
//! averaged budget absorbs with a quarter allocation per write to spare.
//!
//! A batched Remote hit joins a coalescing frame and bumps the batch
//! counters; its budget is zero too.
//!
//! The gate counts *allocations* (not frees) made on the test's own thread,
//! only around the measured window, so the test harness's threads cannot
//! move the counter; the deployment spawns none.

// The counting allocator cachekit's allocation gates use.
#[path = "../../cachekit/tests/alloc_gate/mod.rs"]
mod alloc_gate;

use alloc_gate::allocations;
use dcache::deployment::{kv_catalog, Deployment};
use dcache::{ArchKind, BatchingConfig, DeploymentConfig};
use simnet::{SimDuration, SimTime};
use storekit::value::Datum;

const KEYS: i64 = 32;

fn warmed(config: DeploymentConfig) -> Deployment {
    let arch = config.arch;
    let mut d = Deployment::new(config, kv_catalog("kv"));
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
    allocations(|| {
        for _ in 0..rounds {
            for k in 0..KEYS {
                now += SimDuration::from_micros(50);
                let out = d.serve_kv_read("kv", k, now).expect("hit read");
                assert!(out.cache_hit, "measured read must be a cache hit");
            }
        }
    })
}

/// Version-checked hits may allocate this many times each.
const VERSION_CHECK_ALLOCS: u64 = 0;

/// Batched Remote hits may allocate this many times each.
const BATCHED_HIT_ALLOCS: u64 = 0;

/// Remote fills may allocate this many times each.
const FILL_ALLOCS: u64 = 0;

/// Average allocations a warmed write may make: two per write plus
/// amortized Raft-log growth.
const WRITE_ALLOCS: f64 = 2.25;

fn write(d: &mut Deployment, k: i64, seed: u64, now: SimTime) {
    let value = Datum::Payload { len: 256, seed };
    d.serve_kv_write("kv", k, value, now).expect("write");
}

/// Average allocations per write over `rounds` sweeps of writes, after one
/// uncounted warm-up write per key.
fn count_write_path_allocs(d: &mut Deployment, rounds: u64) -> f64 {
    let mut now = SimTime::from_nanos(2_000_000_000);
    for k in 0..KEYS {
        now += SimDuration::from_micros(50);
        write(d, k, 4, now);
    }
    let allocs = allocations(|| {
        for round in 0..rounds {
            for k in 0..KEYS {
                now += SimDuration::from_micros(50);
                write(d, k, 5 + round, now);
            }
        }
    });
    allocs as f64 / (rounds * KEYS as u64) as f64
}

/// Allocations across `rounds` sweeps of Remote fills: each key is written
/// (uncounted), which invalidates its cache entry, and then read back
/// (counted), which misses and refills the cache from storage.
fn count_fill_allocs(d: &mut Deployment, rounds: u64) -> u64 {
    let mut now = SimTime::from_nanos(3_000_000_000);
    let mut allocs = 0;
    for round in 0..rounds {
        for k in 0..KEYS {
            now += SimDuration::from_micros(50);
            write(d, k, 100 + round, now);
            now += SimDuration::from_micros(50);
            allocs += allocations(|| {
                let out = d.serve_kv_read("kv", k, now).expect("fill read");
                assert!(!out.cache_hit, "a read after a write must refill");
            });
        }
    }
    allocs
}

#[test]
fn steady_state_serve_paths_stay_within_allocation_budget() {
    // Linked: the paper's cheapest path (in-process cache hit). Remote: hit
    // served by a cache-tier node.
    for arch in [ArchKind::Linked, ArchKind::Remote] {
        let mut d = warmed(DeploymentConfig::test_small(arch));
        let requests = 50 * KEYS as u64;
        let allocs = count_hit_path_allocs(&mut d, 50);
        assert_eq!(
            allocs, 0,
            "{arch:?} hit path allocated {allocs} times over {requests} requests \
             (expected 0 steady-state allocations per request)"
        );
        let per_write = count_write_path_allocs(&mut d, 2);
        println!("alloc_regression: {arch:?} writes made {per_write:.2} allocations each");
        assert!(
            per_write <= WRITE_ALLOCS,
            "{arch:?} write path made {per_write:.2} allocations per write \
             (budget {WRITE_ALLOCS})"
        );
        if arch == ArchKind::Remote {
            let fills = 10 * KEYS as u64;
            let allocs = count_fill_allocs(&mut d, 10);
            println!("alloc_regression: Remote made {allocs} allocations over {fills} fills");
            assert!(
                allocs <= FILL_ALLOCS * fills,
                "Remote fill path allocated {allocs} times over {fills} fills \
                 (budget {FILL_ALLOCS} per fill)"
            );
        }
    }
    // Remote with windowed batching: every hit rides a coalescing frame.
    let mut config = DeploymentConfig::test_small(ArchKind::Remote);
    config.batching = BatchingConfig {
        batch_window_us: 20.0,
        max_batch: 8,
    };
    let mut d = warmed(config);
    let hits = 10 * KEYS as u64;
    let allocs = count_hit_path_allocs(&mut d, 10);
    println!("alloc_regression: Remote made {allocs} allocations over {hits} batched hits");
    assert!(
        allocs <= BATCHED_HIT_ALLOCS * hits,
        "batched Remote hit path allocated {allocs} times over {hits} hits \
         (budget {BATCHED_HIT_ALLOCS} per hit)"
    );
    // LinkedVersion: every hit pays a version-check statement.
    let mut d = warmed(DeploymentConfig::test_small(ArchKind::LinkedVersion));
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
