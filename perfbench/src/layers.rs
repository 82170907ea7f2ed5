//! Isolated replays: the calls the deployment made into `cachekit` and
//! `storekit` for each request of a traced replay, issued again on fresh
//! instances of those layers and timed one by one.
//!
//! Each recorded [`Step`] says what the deployment did (cache hit or miss,
//! version checks, storage fills), so the isolated replay issues the same
//! number of calls of each kind with the deployment's own statement texts.
//! The fresh instances start in the state prewarm leaves behind: every key
//! interned, cached and read once from storage.

use crate::ledger::{timed, Ledger, Site};
use crate::replay::Step;
use crate::workload::dataset;
use cachekit::{Cache, KeyInterner};
use dcache::deployment::{kv_catalog, CachedVal};
use dcache::experiment::KvExperimentConfig;
use dcache::ArchKind;
use simnet::SimTime;
use std::hint::black_box;
use storekit::kv::{record_key_into, KvEngine};
use storekit::{Datum, Row, SqlCluster, StoreResult};
use workloads::KvOp;

/// The statement texts `Deployment` prepares for the `kv` table.
const SELECT_SQL: &str = "SELECT v, _version FROM kv WHERE k = ?";
const VERSION_SQL: &str = "SELECT _version FROM kv WHERE k = ?";
const REPLACE_SQL: &str = "REPLACE INTO kv VALUES (?, ?)";

/// `Deployment`'s cache key for `key` in the `kv` table.
fn cache_key_into(buf: &mut Vec<u8>, key: u64) {
    buf.clear();
    buf.extend_from_slice(b"kv/");
    buf.extend_from_slice(&(key as i64).to_be_bytes());
}

/// Replay `steps` against fresh layer instances, timing each call into
/// `ledger`.
pub fn isolated(
    cfg: &KvExperimentConfig,
    steps: &[Step],
    ledger: &mut Option<Ledger>,
) -> StoreResult<()> {
    let dep = &cfg.deployment;
    let data = dataset(cfg);
    let row =
        |k: u64, len: u64, seed: u64| Row(vec![Datum::Int(k as i64), Datum::Payload { len, seed }]);

    let mut interner = KeyInterner::new();
    let capacity = dep.total_linked_bytes().max(dep.total_remote_bytes());
    let mut cache: Cache<cachekit::InternedKey, CachedVal> = Cache::new(capacity, dep.cache_policy);
    let mut cluster = SqlCluster::new(kv_catalog("kv"), dep.cluster.clone());
    cluster.bulk_load("kv", data.iter().map(|&(k, len)| row(k, len, 0).0))?;
    let select = cluster.prepare_cached(SELECT_SQL)?;
    let version = cluster.prepare_cached(VERSION_SQL)?;
    let replace = cluster.prepare_cached(REPLACE_SQL)?;
    let mut kv = KvEngine::new();
    let mut key = Vec::new();
    let mut record = Vec::new();
    for &(k, len) in &data {
        cache_key_into(&mut key, k);
        let ik = interner.intern(&key);
        let v = CachedVal {
            version: 0,
            bytes: len,
            seed: 0,
        };
        cache.insert(ik, v, len, 0);
        let pk = Datum::Int(k as i64);
        cluster.execute_cached(&select, std::slice::from_ref(&pk), SimTime::ZERO)?;
        record_key_into(&mut record, "kv", &pk);
        kv.put(record.clone(), row(k, len, 0).encode());
    }

    let heartbeat_every = (cfg.qps as u64).max(1) as usize;
    let remote = dep.arch == ArchKind::Remote;
    for (i, s) in steps.iter().enumerate() {
        if i % heartbeat_every == 0 {
            cluster.tick(s.now);
        }
        let now_ns = s.now.as_nanos();
        cache_key_into(&mut key, s.key);
        let ik = timed(ledger, Site::Intern, || interner.intern(black_box(&key)));
        let pk = Datum::Int(s.key as i64);
        record_key_into(&mut record, "kv", &pk);
        match s.op {
            KvOp::Read => {
                timed(ledger, Site::CacheGet, || {
                    black_box(cache.get(&ik, now_ns).copied())
                });
                if s.version_checks > 0 {
                    timed(ledger, Site::VersionSelect, || {
                        cluster.execute_cached(&version, std::slice::from_ref(&pk), s.now)
                    })?;
                    point_get(ledger, &kv, &record)?;
                }
                if s.sql_statements > s.version_checks {
                    let receipt = timed(ledger, Site::SelectPk, || {
                        cluster.execute_cached(&select, std::slice::from_ref(&pk), s.now)
                    })?;
                    point_get(ledger, &kv, &record)?;
                    let v = CachedVal {
                        version: receipt.versions.first().copied().unwrap_or(0),
                        bytes: s.value_bytes,
                        seed: 0,
                    };
                    timed(ledger, Site::CacheInsert, || {
                        cache.insert(ik, v, v.bytes, now_ns)
                    });
                }
            }
            KvOp::Write => {
                let value = Datum::Payload {
                    len: s.value_bytes,
                    seed: s.generation,
                };
                let params = [pk.clone(), value];
                let receipt = timed(ledger, Site::Replace, || {
                    cluster.execute_cached(&replace, &params, s.now)
                })?;
                kv.put(record.clone(), Row(params.to_vec()).encode());
                if remote {
                    cache.remove(&ik);
                } else {
                    let v = CachedVal {
                        version: receipt.write_version.unwrap_or(0),
                        bytes: s.value_bytes,
                        seed: s.generation,
                    };
                    timed(ledger, Site::CacheInsert, || {
                        cache.insert(ik, v, v.bytes, now_ns)
                    });
                }
            }
        }
    }
    Ok(())
}

/// The MVCC lookup and row decode a storage point read performs.
fn point_get(ledger: &mut Option<Ledger>, kv: &KvEngine, record: &[u8]) -> StoreResult<()> {
    let found = timed(ledger, Site::MvccGetLatest, || {
        kv.get_latest(black_box(record))
    });
    if let Some(v) = found {
        timed(ledger, Site::RowDecode, || {
            Row::decode(v.value).map(black_box)
        })?;
    }
    Ok(())
}
