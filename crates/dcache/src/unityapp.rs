//! The Unity Catalog applications — rich objects (§5.4).
//!
//! Two flavors of the same service, matching the paper's comparison:
//!
//! * **Unity Catalog-Object** ([`run_unity_object_experiment`]) — how the
//!   production service works: a `getTable` read issues the 8 dependent SQL
//!   statements, the app assembles the rich object from the results, and —
//!   under the caching architectures — caches the *assembled object*.
//!   A cached hit saves all 8 statements plus assembly: the "query
//!   amplification" elimination of §5.4.
//! * **Unity Catalog-KV** ([`run_unity_kv_experiment`]) — the denormalized
//!   strawman: the entire object pre-joined into a single row, so a read is
//!   one point lookup. Cheaper than Object at the storage, but caching
//!   saves proportionally less — which is exactly the paper's contrast.
//!
//! Writes rewrite the table's property blob; cached objects are invalidated
//! (a rich object cannot be incrementally patched — one of §6's open
//! challenges) and reassembled on the next read.

use crate::config::{ArchKind, DeploymentConfig};
use crate::deployment::{CachedVal, Deployment, ServeOutcome};
use crate::experiment::{build_report, ExperimentReport, RunMetrics};
use costmodel::Pricing;
use simnet::{CpuCategory, SimDuration, SimTime};
use storekit::error::StoreResult;
use storekit::value::Datum;
use workloads::unity::{unity_kv_schema, unity_schema, UnityDataset, UnityOp, UnityScale, UnityWorkload};

/// Configuration of one Unity Catalog cost run.
#[derive(Debug, Clone)]
pub struct UnityExperimentConfig {
    pub deployment: DeploymentConfig,
    pub scale: UnityScale,
    pub qps: f64,
    pub warmup_requests: u64,
    pub requests: u64,
    /// Serve every table once before warmup so caches start resident
    /// (approximates the paper's long steady state).
    pub prewarm: bool,
    pub pricing: Pricing,
    pub stream_seed: u64,
}

impl UnityExperimentConfig {
    pub fn paper(arch: ArchKind, scale: UnityScale) -> Self {
        UnityExperimentConfig {
            deployment: DeploymentConfig::paper(arch),
            scale,
            qps: 40_000.0, // §5.2: ~40K QPS
            warmup_requests: 100_000,
            requests: 100_000,
            prewarm: true,
            pricing: Pricing::default(),
            stream_seed: 1,
        }
    }

    /// A tiny configuration for tests.
    pub fn test_small(arch: ArchKind) -> Self {
        UnityExperimentConfig {
            deployment: DeploymentConfig::test_small(arch),
            scale: UnityScale::tiny(5),
            qps: 20_000.0,
            warmup_requests: 1_500,
            requests: 3_000,
            prewarm: false,
            pricing: Pricing::default(),
            stream_seed: 2,
        }
    }
}

fn object_cache_key(t: u64) -> Vec<u8> {
    let mut k = b"obj/".to_vec();
    k.extend_from_slice(&t.to_be_bytes());
    k
}

/// Serve one `getTable` under the configured architecture.
fn serve_get_table(
    dep: &mut Deployment,
    dataset: &UnityDataset,
    t: u64,
    generation: u64,
    now: SimTime,
) -> StoreResult<ServeOutcome> {
    let ckey = dep.intern_bytes(&object_cache_key(t));
    let app = dep.route_app(ckey);
    let node = dep.remote_node_for(ckey);
    let mut out = ServeOutcome::default();

    let arch = dep.config().arch;
    // 1. Try the object cache (if the architecture has one).
    let cached: Option<CachedVal> = match arch {
        ArchKind::Base => None,
        ArchKind::Remote => {
            let (hit, lat) = dep.remote_lookup(app, node, ckey, now, now);
            out.latency += lat;
            hit
        }
        ArchKind::Linked | ArchKind::LinkedVersion | ArchKind::LeaseOwned | ArchKind::LinkedTtl => {
            out.latency += dep.charge_linked_op(app);
            dep.linked[app].get(&ckey, now.as_nanos()).copied()
        }
    };

    // 2. Decide whether the cached object may be served.
    let mut serve_cached: Option<CachedVal> = None;
    if let Some(v) = cached {
        match arch {
            ArchKind::Remote | ArchKind::Linked | ArchKind::LinkedTtl => serve_cached = Some(v),
            ArchKind::LinkedVersion => {
                // Consistent read: verify the `tables` row version.
                let (latest, lat) = dep.version_check(app, "tables", t as i64, now)?;
                out.version_checks += 1;
                out.sql_statements += 1;
                out.latency += lat;
                if latest == Some(v.version) {
                    serve_cached = Some(v);
                } else {
                    dep.linked[app].remove(&ckey);
                }
            }
            ArchKind::LeaseOwned => {
                let shard = dep.sharder.owner_hashed(ckey.route_hash());
                let lease_cost =
                    SimDuration::from_micros_f64(dep.config().app_cost.lease_validate_us);
                dep.charge_app(app, CpuCategory::TxnLease, lease_cost);
                out.latency += lease_cost;
                if dep.sharder.lease_valid(shard, now) {
                    serve_cached = Some(v);
                } else {
                    let (latest, lat) = dep.version_check(app, "tables", t as i64, now)?;
                    out.version_checks += 1;
                    out.sql_statements += 1;
                    out.latency += lat;
                    dep.sharder.renew(shard, now);
                    if latest == Some(v.version) {
                        serve_cached = Some(v);
                    } else {
                        dep.linked[app].remove(&ckey);
                    }
                }
            }
            ArchKind::Base => unreachable!("Base never caches"),
        }
    }

    if let Some(v) = serve_cached {
        out.cache_hit = true;
        out.bytes = v.bytes;
        out.seed = Some(v.seed);
        out.version = Some(v.version);
        out.latency += dep.charge_client_reply(app, v.bytes);
        return Ok(out);
    }

    // 3. Cache miss (or Base): issue the 8 statements and assemble.
    let statements = dataset.get_table_statements(t);
    let mut total_bytes = 0u64;
    let mut parts = 0u64;
    let mut object_version = 0u64;
    for (i, (sql, params)) in statements.iter().enumerate() {
        let receipt = dep.cluster.execute(sql, params, now)?;
        out.sql_statements += 1;
        total_bytes += receipt.response_bytes;
        parts += receipt.rows.len() as u64;
        if i == 0 {
            // The `tables` row's MVCC version identifies the object version.
            object_version = receipt.versions.first().copied().unwrap_or(0);
        }
        out.latency += dep.charge_app_db_rpc(app, &receipt);
    }
    // Application logic: fold the result rows into the rich object.
    let assemble = SimDuration::from_micros_f64(
        dep.config().app_cost.object_assemble_per_part_us * parts.max(1) as f64
            + dep.config().app_cost.object_assemble_per_byte_ns * total_bytes as f64 / 1e3,
    );
    dep.charge_app(app, CpuCategory::AppLogic, assemble);
    out.latency += assemble;

    let object = CachedVal {
        version: object_version,
        bytes: dataset.object_logical_bytes(t),
        seed: generation,
    };

    // 4. Fill the object cache.
    match arch {
        ArchKind::Base => {}
        ArchKind::Remote => {
            out.latency += dep.remote_update(app, node, ckey, Some(object), now, now);
        }
        ArchKind::Linked | ArchKind::LinkedVersion | ArchKind::LeaseOwned => {
            out.latency += dep.charge_linked_op(app);
            dep.linked[app].insert(ckey, object, object.bytes, now.as_nanos());
        }
        ArchKind::LinkedTtl => {
            out.latency += dep.charge_linked_op(app);
            let ttl = dep.config().linked_ttl.as_nanos();
            dep.linked[app].insert_with_ttl(ckey, object, object.bytes, now.as_nanos(), ttl);
        }
    }

    out.bytes = object.bytes;
    out.seed = Some(object.seed);
    out.version = Some(object.version);
    out.latency += dep.charge_client_reply(app, object.bytes);
    Ok(out)
}

/// Serve one property update: write the `tables` row, invalidate the object.
fn serve_update_table(
    dep: &mut Deployment,
    dataset: &UnityDataset,
    t: u64,
    generation: u64,
    now: SimTime,
) -> StoreResult<ServeOutcome> {
    let ckey = dep.intern_bytes(&object_cache_key(t));
    let app = dep.route_app(ckey);
    let mut out = ServeOutcome::default();

    let (sql, params) = dataset.update_table_statement(t, generation);
    let payload_bytes = params
        .first()
        .map(|d| d.encoded_size().saturating_sub(5))
        .unwrap_or(0);
    let ser = dep.config().app_cost.serialize_cost(payload_bytes);
    dep.charge_app(app, CpuCategory::Serialization, ser);
    out.latency += ser;
    let receipt = dep.cluster.execute(sql, &params, now)?;
    out.sql_statements += 1;
    out.version = receipt.write_version;
    out.latency += dep.charge_app_db_rpc(app, &receipt);

    match dep.config().arch {
        ArchKind::Base => {}
        ArchKind::Remote => {
            let node = dep.remote_node_for(ckey);
            out.latency += dep.remote_update(app, node, ckey, None, now, now);
        }
        ArchKind::Linked | ArchKind::LinkedVersion | ArchKind::LeaseOwned | ArchKind::LinkedTtl => {
            // Rich objects can't be patched in place: invalidate, and let
            // the next read reassemble (§6 discusses exactly this cost).
            // (For LinkedTtl this only clears the *writing* server's copy;
            // other servers age out via TTL.)
            out.latency += dep.charge_linked_op(app);
            dep.linked[app].remove(&ckey);
        }
    }
    out.latency += dep.charge_client_reply(app, 16);
    Ok(out)
}

/// Run the **Unity Catalog-Object** cost experiment.
pub fn run_unity_object_experiment(cfg: &UnityExperimentConfig) -> StoreResult<ExperimentReport> {
    let dataset = UnityDataset::new(cfg.scale);
    let mut dep = Deployment::new(cfg.deployment.clone(), unity_schema());
    // Load the relational universe, grouped by entity table.
    let mut grouped: std::collections::HashMap<&'static str, Vec<Vec<Datum>>> =
        std::collections::HashMap::new();
    for (table, row) in dataset.seed_rows() {
        grouped.entry(table).or_default().push(row);
    }
    for (table, rows) in grouped {
        dep.cluster.bulk_load(table, rows)?;
    }
    run_unity_loop(cfg, dep, &dataset, UnityFlavor::Object)
}

/// Run the **Unity Catalog-KV** cost experiment (denormalized single-row).
pub fn run_unity_kv_experiment(cfg: &UnityExperimentConfig) -> StoreResult<ExperimentReport> {
    let dataset = UnityDataset::new(cfg.scale);
    let mut dep = Deployment::new(cfg.deployment.clone(), unity_kv_schema());
    dep.cluster.bulk_load("objects", dataset.denorm_rows())?;
    run_unity_loop(cfg, dep, &dataset, UnityFlavor::Kv)
}

#[derive(Clone, Copy, PartialEq)]
enum UnityFlavor {
    Object,
    Kv,
}

fn run_unity_loop(
    cfg: &UnityExperimentConfig,
    mut dep: Deployment,
    dataset: &UnityDataset,
    flavor: UnityFlavor,
) -> StoreResult<ExperimentReport> {
    if cfg.prewarm {
        match flavor {
            // A rich-object miss runs eight statements and assembles the
            // object from their rows; `prewarm_kv` models one point read,
            // so the Object flavor serves each read.
            UnityFlavor::Object => {
                for t in 0..cfg.scale.tables {
                    serve_get_table(&mut dep, dataset, t, 0, SimTime::ZERO)?;
                }
            }
            UnityFlavor::Kv => dep.prewarm_kv("objects", (0..cfg.scale.tables).map(|t| t as i64))?,
        }
    }

    let mut workload = UnityWorkload::new(&cfg.scale, cfg.stream_seed);
    let mut generation: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    let mut last_version: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    let dt = SimDuration::from_secs_f64(1.0 / cfg.qps.max(1.0));
    let mut now = SimTime::ZERO;
    let mut metrics = RunMetrics::new();
    let total = cfg.warmup_requests + cfg.requests;
    let heartbeat_every = (cfg.qps as u64).max(1);
    let mut measuring = false;
    let mut measure_start = SimTime::ZERO;

    for i in 0..total {
        if i == cfg.warmup_requests {
            dep.reset_metrics();
            metrics = RunMetrics::new();
            measuring = true;
            measure_start = now;
        }
        if i % heartbeat_every == 0 {
            dep.cluster.tick(now);
            dep.sharder.renew_all(now);
        }
        let req = workload.next().expect("workload is infinite");
        match req.op {
            UnityOp::GetTable => {
                let gen = generation.get(&req.table).copied().unwrap_or(0);
                let out = match flavor {
                    UnityFlavor::Object => {
                        serve_get_table(&mut dep, dataset, req.table, gen, now)?
                    }
                    UnityFlavor::Kv => dep.serve_kv_read("objects", req.table as i64, now)?,
                };
                if measuring {
                    let stale = matches!(
                        (out.version, last_version.get(&req.table)),
                        (Some(v), Some(&expect)) if v < expect
                    );
                    metrics.record_read(&out, out.latency.as_nanos(), stale, None);
                }
            }
            UnityOp::UpdateTable => {
                let gen = generation.entry(req.table).or_insert(0);
                *gen += 1;
                let gen = *gen;
                let out = match flavor {
                    UnityFlavor::Object => {
                        serve_update_table(&mut dep, dataset, req.table, gen, now)?
                    }
                    UnityFlavor::Kv => {
                        let value = Datum::Payload {
                            len: dataset.object_logical_bytes(req.table),
                            seed: gen,
                        };
                        dep.serve_kv_write("objects", req.table as i64, value, now)?
                    }
                };
                if let Some(v) = out.version {
                    last_version.insert(req.table, v);
                }
                if measuring {
                    metrics.record_write(&out, out.latency.as_nanos(), None);
                }
            }
        }
        now += dt;
    }

    let duration = now.since(measure_start);
    Ok(build_report(
        &dep,
        &metrics,
        cfg.qps,
        cfg.requests,
        duration,
        &cfg.pricing,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_flavor_runs_all_architectures() {
        for arch in ArchKind::PAPER {
            let r = run_unity_object_experiment(&UnityExperimentConfig::test_small(arch)).unwrap();
            assert!(r.total_cost.total() > 0.0, "{arch}");
            assert_eq!(r.stale_reads, 0, "{arch}");
            if arch != ArchKind::Base {
                assert!(r.cache_hit_ratio > 0.3, "{arch}: {}", r.cache_hit_ratio);
            }
        }
    }

    #[test]
    fn object_caching_eliminates_query_amplification() {
        let base = run_unity_object_experiment(&UnityExperimentConfig::test_small(ArchKind::Base))
            .unwrap();
        let linked =
            run_unity_object_experiment(&UnityExperimentConfig::test_small(ArchKind::Linked))
                .unwrap();
        // Base issues ~8 statements per read; linked amortizes to ~8×missratio.
        let base_per_read = base.sql_statements as f64 / base.requests as f64;
        let linked_per_read = linked.sql_statements as f64 / linked.requests as f64;
        assert!(base_per_read > 6.0, "base amplification: {base_per_read}");
        assert!(
            linked_per_read < base_per_read / 2.0,
            "caching must slash statement count: {linked_per_read} vs {base_per_read}"
        );
        assert!(linked.saving_vs(&base) > 2.0);
    }

    #[test]
    fn object_saving_exceeds_kv_saving() {
        // §5.4's headline: caching rich objects saves *more* than caching
        // the denormalized KV variant of the same service.
        let obj_base =
            run_unity_object_experiment(&UnityExperimentConfig::test_small(ArchKind::Base))
                .unwrap();
        let obj_linked =
            run_unity_object_experiment(&UnityExperimentConfig::test_small(ArchKind::Linked))
                .unwrap();
        let kv_base =
            run_unity_kv_experiment(&UnityExperimentConfig::test_small(ArchKind::Base)).unwrap();
        let kv_linked =
            run_unity_kv_experiment(&UnityExperimentConfig::test_small(ArchKind::Linked)).unwrap();
        let obj_saving = obj_linked.saving_vs(&obj_base);
        let kv_saving = kv_linked.saving_vs(&kv_base);
        assert!(
            obj_saving > kv_saving,
            "object saving {obj_saving:.2}x must exceed kv saving {kv_saving:.2}x"
        );
    }

    #[test]
    fn updates_invalidate_cached_objects() {
        let r = run_unity_object_experiment(&UnityExperimentConfig::test_small(ArchKind::Linked))
            .unwrap();
        // With 7% updates, hit ratio is below the pure-read ceiling but the
        // run stays consistent.
        assert_eq!(r.stale_reads, 0);
        assert!(r.cache_hit_ratio < 1.0);
    }

    #[test]
    fn version_checked_objects_stay_fresh_but_cost_more() {
        let linked =
            run_unity_object_experiment(&UnityExperimentConfig::test_small(ArchKind::Linked))
                .unwrap();
        let checked = run_unity_object_experiment(&UnityExperimentConfig::test_small(
            ArchKind::LinkedVersion,
        ))
        .unwrap();
        assert!(checked.version_checks > 0);
        assert_eq!(checked.stale_reads, 0);
        assert!(checked.total_cost.total() > linked.total_cost.total());
    }
}
