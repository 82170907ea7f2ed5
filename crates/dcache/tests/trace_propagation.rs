//! Trace-context propagation through the fault-tolerant request path.
//!
//! The invariant under test: a request is ONE trace, whatever the fabric
//! does to it. A retried cache RPC shows up as N `cache.rpc_attempt` spans
//! (attempt 0..N-1) under a single trace id; a degraded read adds a
//! `read.degraded` span to the same trace; and arming the tracer never
//! changes what the simulator computes. Each architecture's hops on a
//! miss, a hit and a stale refresh are pinned by span name.

use dcache::deployment::{kv_catalog, Deployment};
use dcache::experiment::{run_kv_experiment, run_kv_experiment_with_telemetry, KvExperimentConfig};
use dcache::{ArchKind, DeploymentConfig};
use simnet::{FaultSchedule, NodeId, SimDuration, SimTime};
use std::collections::BTreeMap;
use storekit::value::Datum;
use telemetry::{SpanRecord, SpanStatus, Tracer};
use workloads::{KvWorkloadConfig, SizeDist};

const SEED: u64 = 7;
const WARMUP: u64 = 800;
const MEASURED: u64 = 1_200;

fn traced_cfg(arch: ArchKind) -> KvExperimentConfig {
    KvExperimentConfig {
        deployment: DeploymentConfig::test_small(arch),
        workload: KvWorkloadConfig {
            keys: 500,
            alpha: 1.2,
            read_ratio: 0.9,
            sizes: SizeDist::Fixed(1_000),
            seed: SEED,
            churn_period: None,
        },
        qps: 50_000.0,
        warmup_requests: WARMUP,
        requests: MEASURED,
        prewarm: false,
        crash_leaders_at_request: None,
        cache_fault_schedule: None,
        trace_sample_every: Some(1),
        diurnal: None,
        observability: None,
        tenants: None,
        pricing: Default::default(),
    }
}

/// Crash every remote cache shard for a window inside the measured phase.
fn crashed_cfg() -> KvExperimentConfig {
    let mut cfg = traced_cfg(ArchKind::Remote);
    let dt = SimDuration::from_secs_f64(1.0 / cfg.qps);
    let crash_at = SimTime::ZERO + dt.saturating_mul(cfg.warmup_requests + 300);
    let downtime = dt.saturating_mul(400);
    let mut schedule = FaultSchedule::new();
    for shard in 0..cfg.deployment.remote_cache_nodes {
        schedule.crash_for(crash_at, NodeId(shard as u32), downtime);
    }
    cfg.cache_fault_schedule = Some(schedule);
    cfg
}

fn by_trace(spans: &[SpanRecord]) -> BTreeMap<u64, Vec<&SpanRecord>> {
    let mut map: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
    for s in spans {
        map.entry(s.trace_id).or_default().push(s);
    }
    map
}

#[test]
fn healthy_requests_trace_cleanly() {
    let (_, bundle) = run_kv_experiment_with_telemetry(&traced_cfg(ArchKind::Remote)).unwrap();
    assert!(!bundle.spans.is_empty());
    assert!(
        bundle
            .spans
            .iter()
            .all(|s| s.status != SpanStatus::Failed && s.attempt == 0),
        "a healthy fabric must produce no failed or retried attempts"
    );

    let traces = by_trace(&bundle.spans);
    // Every measured request is sampled, and its id comes from the seed.
    let expected: Vec<u64> = (0..MEASURED)
        .map(|k| telemetry::trace_id(SEED, k))
        .collect();
    let mut expected_sorted = expected.clone();
    expected_sorted.sort_unstable();
    assert_eq!(
        traces.keys().copied().collect::<Vec<_>>(),
        expected_sorted,
        "one trace per measured request, ids derived from the workload seed"
    );

    for (id, spans) in &traces {
        let roots: Vec<_> = spans.iter().filter(|s| s.tier == "client").collect();
        assert_eq!(
            roots.len(),
            1,
            "trace {id:x} must have exactly one root span"
        );
        let root = roots[0];
        assert!(root.name == "request.read" || root.name == "request.write");
        for s in spans {
            assert!(
                s.start_ns >= root.start_ns && s.end_ns <= root.end_ns,
                "trace {id:x}: hop {} [{}, {}] escapes its root [{}, {}]",
                s.name,
                s.start_ns,
                s.end_ns,
                root.start_ns,
                root.end_ns
            );
        }
    }
}

#[test]
fn retried_request_is_one_trace_with_attempt_spans() {
    let cfg = crashed_cfg();
    let (report, bundle) = run_kv_experiment_with_telemetry(&cfg).unwrap();
    assert!(
        report.degraded_reads > 0,
        "the outage must force degraded reads"
    );
    assert!(report.cache_retries > 0);

    let max_attempts = cfg.deployment.fault_tolerance.retry.max_retries + 1;
    let traces = by_trace(&bundle.spans);
    let mut saw_full_retry_budget = false;
    for (id, spans) in &traces {
        let mut attempts: Vec<&&SpanRecord> = spans
            .iter()
            .filter(|s| s.name == "cache.rpc_attempt")
            .collect();
        attempts.sort_by_key(|s| s.attempt);
        // Attempts of one logical hop are contiguous from 0 — a retry never
        // starts a new trace.
        for (i, s) in attempts.iter().enumerate() {
            assert_eq!(
                s.attempt, i as u32,
                "trace {id:x}: attempt numbers must be contiguous from 0"
            );
        }
        // Only the last attempt may succeed; earlier ones are failures.
        for s in attempts.iter().rev().skip(1) {
            assert_eq!(s.status, SpanStatus::Failed, "trace {id:x}");
        }

        if let Some(degraded) = spans.iter().find(|s| s.name == "read.degraded") {
            assert_eq!(degraded.status, SpanStatus::Degraded);
            // The degraded path only engages once every attempt failed.
            assert!(
                attempts.iter().all(|s| s.status == SpanStatus::Failed),
                "trace {id:x}: degraded read after a successful cache RPC"
            );
            assert!(
                !attempts.is_empty(),
                "trace {id:x}: degraded with no attempts"
            );
            if attempts.len() == max_attempts as usize {
                saw_full_retry_budget = true;
            }
        }
    }
    assert!(
        saw_full_retry_budget,
        "some degraded read must exhaust the full retry budget ({max_attempts} attempts)"
    );
}

#[test]
fn crashed_run_traces_are_deterministic() {
    let (_, a) = run_kv_experiment_with_telemetry(&crashed_cfg()).unwrap();
    let (_, b) = run_kv_experiment_with_telemetry(&crashed_cfg()).unwrap();
    assert_eq!(a.traces_jsonl, b.traces_jsonl);
    assert_eq!(a.profile.to_collapsed(), b.profile.to_collapsed());
    assert_eq!(
        a.registry.to_prometheus_text(),
        b.registry.to_prometheus_text()
    );
}

#[test]
fn elastic_run_exports_provisioning_series() {
    // An elastic-enabled run must surface the whole provisioning story in
    // its Prometheus export — live capacity, the current plan, decision and
    // migration counters, profiler state — and a default run must export
    // none of it (the gauges are gated, keeping default registries stable).
    let mut cfg = traced_cfg(ArchKind::Remote);
    cfg.trace_sample_every = None;
    cfg.qps = 2_000.0;
    cfg.warmup_requests = 4_000;
    cfg.requests = 6_000;
    cfg.diurnal = Some(workloads::DiurnalSchedule::sinusoid(8.0, 0.25));
    cfg.deployment.elastic = elastic::ElasticConfig::with_interval(2.0);
    let (report, bundle) = run_kv_experiment_with_telemetry(&cfg).unwrap();
    assert!(report.elastic_decisions > 0, "controller never decided");

    let text = bundle.registry.to_prometheus_text();
    for name in [
        "dcache_elastic_cache_capacity_bytes",
        "dcache_elastic_mean_cache_bytes",
        "dcache_elastic_peak_cache_bytes",
        "dcache_peak_window_cores",
        "dcache_elastic_plan_cache_bytes",
        "dcache_elastic_plan_shards",
        "dcache_elastic_plan_monthly_dollars",
        "dcache_elastic_decisions_total",
        "dcache_elastic_resizes_total",
        "dcache_elastic_migrated_entries_total",
        "dcache_elastic_migrated_bytes_total",
        "dcache_elastic_profiler_sampling_rate",
        "dcache_elastic_profiler_tracked_keys",
    ] {
        assert!(text.contains(name), "export is missing {name}:\n{text}");
    }

    let (_, base) = run_kv_experiment_with_telemetry(&traced_cfg(ArchKind::Remote)).unwrap();
    assert!(
        !base
            .registry
            .to_prometheus_text()
            .contains("dcache_elastic"),
        "default run leaked elastic series into its registry"
    );
}

#[test]
fn tracing_does_not_perturb_the_run() {
    let mut untraced = traced_cfg(ArchKind::Remote);
    untraced.trace_sample_every = None;
    let baseline = run_kv_experiment(&untraced).unwrap();
    let (traced, bundle) = run_kv_experiment_with_telemetry(&traced_cfg(ArchKind::Remote)).unwrap();
    assert!(!bundle.spans.is_empty());
    assert_eq!(baseline.total_cost.total(), traced.total_cost.total());
    assert_eq!(baseline.total_cores, traced.total_cores);
    assert_eq!(baseline.read_latency_p50_us, traced.read_latency_p50_us);
    assert_eq!(baseline.read_latency_p99_us, traced.read_latency_p99_us);
    assert_eq!(baseline.cache_hit_ratio, traced.cache_hit_ratio);
    assert_eq!(baseline.stale_reads, traced.stale_reads);
    assert_eq!(baseline.sql_statements, traced.sql_statements);
}

/// The span names one read records, in order, on `d` at `now`.
fn read_spans(d: &mut Deployment, key: i64, now: SimTime) -> Vec<&'static str> {
    d.tracer = Tracer::with_capacity(64);
    d.tracer.start_request(1);
    d.serve_kv_read("kv", key, now).unwrap();
    d.tracer.end_request();
    let names = d.tracer.sink().iter().map(|s| s.name).collect();
    d.tracer = Tracer::disabled();
    names
}

fn loaded(arch: ArchKind) -> Deployment {
    let mut d = Deployment::new(DeploymentConfig::test_small(arch), kv_catalog("kv"));
    d.cluster
        .bulk_load(
            "kv",
            (0..16i64).map(|k| vec![Datum::Int(k), Datum::Payload { len: 1_000, seed: 0 }]),
        )
        .unwrap();
    d
}

/// Each architecture's hops, pinned by name: a cold miss, a hit (after
/// every app server has read the key, so LinkedTtl's round-robin replicas
/// all hold it) and, for the version-checked archs, a hit whose row
/// changed behind the cache.
#[test]
fn every_arch_records_its_serving_path() {
    const LOOKUP: &str = "cache.lookup";
    const FILL: &str = "storage.fill";
    const CHECK: &str = "storage.version_check";
    const REPLY: &str = "client.reply";
    const ATTEMPT: &str = "cache.rpc_attempt";
    let us = |n: u64| SimTime::from_nanos(n * 1_000);
    for arch in ArchKind::ALL {
        let (miss, hit): (&[&str], &[&str]) = match arch {
            ArchKind::Base => (&[REPLY], &[REPLY]),
            ArchKind::Remote => (&[ATTEMPT, LOOKUP, FILL, REPLY], &[ATTEMPT, LOOKUP, REPLY]),
            ArchKind::Linked | ArchKind::LinkedTtl | ArchKind::LeaseOwned => {
                (&[LOOKUP, FILL, REPLY], &[LOOKUP, REPLY])
            }
            ArchKind::LinkedVersion => (&[LOOKUP, FILL, REPLY], &[LOOKUP, CHECK, REPLY]),
        };
        let mut d = loaded(arch);
        assert_eq!(read_spans(&mut d, 1, us(1)), miss, "{arch}: cold miss");
        for i in 0..d.config().app_servers as u64 {
            d.serve_kv_read("kv", 1, us(2 + i)).unwrap();
        }
        assert_eq!(read_spans(&mut d, 1, us(10)), hit, "{arch}: hit");

        // A version-checked hit whose row changed: LeaseOwned checks only
        // once its lease has lapsed (leases last 10 s).
        if !matches!(arch, ArchKind::LinkedVersion | ArchKind::LeaseOwned) {
            continue;
        }
        d.cluster
            .execute(
                "UPDATE kv SET v = ? WHERE k = 1",
                &[Datum::Payload { len: 1_000, seed: 9 }],
                us(20),
            )
            .unwrap();
        let late = SimTime::from_nanos(20_000_000_000);
        let stale = [LOOKUP, CHECK, FILL, REPLY];
        assert_eq!(read_spans(&mut d, 1, late), stale, "{arch}: stale refresh");
    }
}
