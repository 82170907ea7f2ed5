//! The runner loop of `run_kv_experiment`, replayed through `Deployment`'s
//! public API so each layer call can be timed from outside.
//!
//! The replay issues the same calls in the same order as the library's
//! runner for configurations without faults, diurnal load, elastic sizing
//! or observability (none of the workloads use them). Calls the runner
//! makes into a TTL plane that is off return at once and change nothing;
//! the replay skips them, so the ledger shows no TTL work on workloads
//! without the plane. [`Replay::check_against`] is the correctness gate:
//! the replay must land on exactly the run's counts and latencies.

use crate::ledger::{timed, Ledger, Site};
use crate::workload::dataset;
use dcache::deployment::{kv_catalog, ttl_counters};
use dcache::experiment::{ExperimentReport, KvExperimentConfig};
use dcache::Deployment;
use simnet::{Histogram, SimDuration, SimTime};
use std::collections::HashMap;
use std::time::{Duration, Instant};
use storekit::{Datum, StoreError, StoreResult};
use workloads::tenants::namespaced_key;
use workloads::KvOp;

/// Measured-window counts of one tenant (or of the whole run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub reads: u64,
    pub writes: u64,
    pub cache_hits: u64,
    pub sql_statements: u64,
    pub version_checks: u64,
    pub stale_reads: u64,
    pub deadline_exceeded: u64,
    pub serve_errors: u64,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        self.reads += o.reads;
        self.writes += o.writes;
        self.cache_hits += o.cache_hits;
        self.sql_statements += o.sql_statements;
        self.version_checks += o.version_checks;
        self.stale_reads += o.stale_reads;
        self.deadline_exceeded += o.deadline_exceeded;
        self.serve_errors += o.serve_errors;
    }

    /// Requests attempted in the measured window.
    pub fn attempted(&self) -> u64 {
        self.reads + self.writes
    }

    /// Serve errors plus requests over their deadline.
    pub fn failed(&self) -> u64 {
        self.serve_errors + self.deadline_exceeded
    }
}

/// One served request after prewarm, with what the deployment did for it:
/// the input of the isolated layer replays.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    pub key: u64,
    pub op: KvOp,
    pub value_bytes: u64,
    /// Write generation (the value's content identity) of a write.
    pub generation: u64,
    pub now: SimTime,
    pub version_checks: u64,
    pub sql_statements: u64,
}

/// What a replay produced.
pub struct Replay {
    /// Per-tenant counts (one entry for single-workload runs).
    pub tenants: Vec<Counts>,
    pub read_latency: Histogram,
    pub write_latency: Histogram,
    /// TTL-plane counters at the end of the run.
    pub expired_entries: u64,
    pub ttl_decisions: u64,
    /// External-cache evictions in the measured window.
    pub cache_evictions: u64,
    /// Every request after prewarm (recorded on traced replays only).
    pub steps: Vec<Step>,
    /// Per-call timings (traced replays only).
    pub ledger: Option<Ledger>,
    /// Wall time from deployment construction to the last request.
    pub wall: Duration,
}

impl Replay {
    pub fn counts(&self) -> Counts {
        let mut total = Counts::default();
        for t in &self.tenants {
            total.add(t);
        }
        total
    }

    /// Compare with the library runner's report of the same config. Every
    /// count and latency quantile must match exactly; returns the first
    /// mismatch.
    pub fn check_against(&self, report: &ExperimentReport) -> Result<(), String> {
        let c = self.counts();
        let us = |h: &Histogram, q: f64| h.quantile(q) / 1_000;
        let hit_ratio = if c.reads == 0 {
            0.0
        } else {
            c.cache_hits as f64 / c.reads as f64
        };
        let mut pairs: Vec<(&str, u64, u64)> = vec![
            ("requests", c.attempted(), report.requests),
            (
                "cache_hit_ratio_bits",
                hit_ratio.to_bits(),
                report.cache_hit_ratio.to_bits(),
            ),
            ("sql_statements", c.sql_statements, report.sql_statements),
            ("version_checks", c.version_checks, report.version_checks),
            ("stale_reads", c.stale_reads, report.stale_reads),
            (
                "deadline_exceeded",
                c.deadline_exceeded,
                report.deadline_exceeded,
            ),
            ("serve_errors", c.serve_errors, 0),
            (
                "read_p50_us",
                us(&self.read_latency, 0.5),
                report.read_latency_p50_us,
            ),
            (
                "read_p99_us",
                us(&self.read_latency, 0.99),
                report.read_latency_p99_us,
            ),
            (
                "read_p999_us",
                us(&self.read_latency, 0.999),
                report.read_latency_p999_us,
            ),
            (
                "write_p50_us",
                us(&self.write_latency, 0.5),
                report.write_latency_p50_us,
            ),
            (
                "write_p99_us",
                us(&self.write_latency, 0.99),
                report.write_latency_p99_us,
            ),
            (
                "write_p999_us",
                us(&self.write_latency, 0.999),
                report.write_latency_p999_us,
            ),
            (
                "expired_entries",
                self.expired_entries,
                report.expired_entries,
            ),
            ("ttl_decisions", self.ttl_decisions, report.ttl_decisions),
        ];
        if !report.tenants.is_empty() {
            pairs.push((
                "tenants",
                self.tenants.len() as u64,
                report.tenants.len() as u64,
            ));
        }
        for (t, tr) in self.tenants.iter().zip(&report.tenants) {
            pairs.extend([
                ("tenant_reads", t.reads, tr.reads),
                ("tenant_writes", t.writes, tr.writes),
                ("tenant_cache_hits", t.cache_hits, tr.cache_hits),
                ("tenant_stale_reads", t.stale_reads, tr.stale_reads),
            ]);
        }
        match pairs.into_iter().find(|&(_, replay, run)| replay != run) {
            None => Ok(()),
            Some((name, replay, run)) => Err(format!("{name}: replay {replay} != run {run}")),
        }
    }
}

/// Per-tenant request stream state, as the runner keeps it.
struct TenantStream {
    wl: workloads::KvWorkload,
    churn: Option<workloads::ChurnSchedule>,
    storm: Option<workloads::StormSchedule>,
    base_read_ratio: f64,
}

/// Refuse configurations whose runner paths the replay does not mirror.
fn check_supported(cfg: &KvExperimentConfig) -> StoreResult<()> {
    let unsupported = cfg.crash_leaders_at_request.is_some()
        || cfg.cache_fault_schedule.is_some()
        || cfg.diurnal.is_some()
        || cfg.observability.is_some()
        || cfg.trace_sample_every.is_some()
        || cfg.deployment.elastic.enabled();
    if unsupported {
        return Err(StoreError::Unsupported(
            "replay mirrors the runner without faults, diurnal load, elastic sizing, \
             observability or request tracing"
                .to_string(),
        ));
    }
    Ok(())
}

/// Serve `cfg`'s whole run (set-up, prewarm, warmup, measured) through the
/// deployment's public API. With `traced`, every layer call is timed and
/// every post-prewarm request is recorded.
pub fn replay(cfg: &KvExperimentConfig, traced: bool) -> StoreResult<Replay> {
    check_supported(cfg)?;
    let data = dataset(cfg);
    let mut ledger = traced.then(Ledger::default);
    let start = Instant::now();

    let mut dep = timed(&mut ledger, Site::DeploymentNew, || {
        Deployment::new(cfg.deployment.clone(), kv_catalog("kv"))
    });
    timed(&mut ledger, Site::BulkLoad, || {
        dep.cluster.bulk_load(
            "kv",
            data.iter()
                .map(|&(k, len)| vec![Datum::Int(k as i64), Datum::Payload { len, seed: 0 }]),
        )
    })?;
    if cfg.prewarm {
        timed(&mut ledger, Site::Prewarm, || {
            data.iter().try_for_each(|&(k, _)| {
                dep.serve_kv_read("kv", k as i64, SimTime::ZERO).map(|_| ())
            })
        })?;
    }

    let mut streams: Vec<TenantStream> = match &cfg.tenants {
        None => vec![TenantStream {
            wl: cfg.workload.build(),
            churn: None,
            storm: None,
            base_read_ratio: cfg.workload.read_ratio,
        }],
        Some(mix) => mix
            .tenants
            .iter()
            .map(|s| TenantStream {
                wl: s.workload.build(),
                churn: s.churn,
                storm: s.storm,
                base_read_ratio: s.workload.read_ratio,
            })
            .collect(),
    };
    let mut picker = cfg.tenants.as_ref().map(|m| m.picker());
    dep.set_ttl_tenants(streams.len());
    let ttl_on = dep.ttl_enabled();

    let mut tenants = vec![Counts::default(); streams.len()];
    let mut read_latency = Histogram::new();
    let mut write_latency = Histogram::new();
    let mut steps = Vec::with_capacity(if traced {
        (cfg.warmup_requests + cfg.requests) as usize
    } else {
        0
    });
    let mut generation: HashMap<u64, u64> = HashMap::new();
    let base_dt = SimDuration::from_secs_f64(1.0 / cfg.qps.max(1.0));
    let heartbeat_every = (cfg.qps as u64).max(1);
    let deadline = cfg.deployment.fault_tolerance.request_deadline;
    let mut now = SimTime::ZERO;
    let mut measuring = false;

    for i in 0..cfg.warmup_requests + cfg.requests {
        if i == cfg.warmup_requests {
            dep.reset_metrics();
            measuring = true;
        }
        if i % heartbeat_every == 0 {
            timed(&mut ledger, Site::StorageTick, || dep.cluster.tick(now));
            dep.sharder.renew_all(now);
            if ttl_on {
                timed(&mut ledger, Site::ExpireSweep, || {
                    dep.expire_sweep_tick(now)
                });
                timed(&mut ledger, Site::TtlDecide, || {
                    dep.ttl_maybe_decide(now.as_secs_f64(), &cfg.pricing)
                });
            }
        }
        let tenant = match picker.as_mut() {
            None => 0,
            Some(p) => timed(&mut ledger, Site::TenantPick, || p.pick()),
        };
        let stream = &mut streams[tenant];
        let mut req = timed(&mut ledger, Site::NextRequest, || {
            let t = now.as_secs_f64();
            if let Some(churn) = stream.churn {
                stream.wl.set_epoch(churn.epoch(t));
            }
            if let Some(storm) = stream.storm {
                stream
                    .wl
                    .set_read_ratio(storm.read_ratio_at(t).unwrap_or(stream.base_read_ratio));
            }
            stream.wl.next_request()
        });
        if picker.is_some() {
            req.key = namespaced_key(tenant, req.key);
        }
        if ttl_on {
            dep.ttl_begin_request(tenant);
        }
        let counts = &mut tenants[tenant];
        let mut gen = 0;
        let served = match req.op {
            KvOp::Read => {
                if ttl_on {
                    timed(&mut ledger, Site::TtlObserve, || {
                        dep.ttl_observe(tenant, req.key, req.value_bytes, now)
                    });
                }
                timed(&mut ledger, Site::ServeRead, || {
                    dep.serve_kv_read("kv", req.key as i64, now)
                })
            }
            KvOp::Write => {
                let g = generation.entry(req.key).or_insert(0);
                *g += 1;
                gen = *g;
                let value = Datum::Payload {
                    len: req.value_bytes,
                    seed: gen,
                };
                timed(&mut ledger, Site::ServeWrite, || {
                    dep.serve_kv_write("kv", req.key as i64, value, now)
                })
            }
        };
        match served {
            Err(_) => {
                if measuring {
                    counts.serve_errors += 1;
                }
            }
            Ok(out) => {
                if measuring {
                    counts.sql_statements += out.sql_statements;
                    counts.deadline_exceeded += (out.latency > deadline) as u64;
                    match req.op {
                        KvOp::Read => {
                            counts.reads += 1;
                            counts.cache_hits += out.cache_hit as u64;
                            counts.version_checks += out.version_checks;
                            let expect = generation.get(&req.key).copied().unwrap_or(0);
                            counts.stale_reads += (out.seed != Some(expect)) as u64;
                            read_latency.record(out.latency.as_nanos());
                        }
                        KvOp::Write => {
                            counts.writes += 1;
                            write_latency.record(out.latency.as_nanos());
                        }
                    }
                }
                if traced {
                    steps.push(Step {
                        key: req.key,
                        op: req.op,
                        value_bytes: req.value_bytes,
                        generation: gen,
                        now,
                        version_checks: out.version_checks,
                        sql_statements: out.sql_statements,
                    });
                }
            }
        }
        now += base_dt;
    }
    let cache_evictions = dep.linked_stats().evictions + dep.remote_stats().evictions;
    let expired_entries = dep.metrics.counter_value(ttl_counters::EXPIRED_ENTRIES);
    let ttl_decisions = dep.metrics.counter_value(ttl_counters::DECISIONS);
    // The library runner drops its deployment before returning, so its wall
    // time includes the teardown; so does the replay's.
    timed(&mut ledger, Site::Teardown, || drop(dep));
    Ok(Replay {
        tenants,
        read_latency,
        write_latency,
        expired_entries,
        ttl_decisions,
        cache_evictions,
        steps,
        ledger,
        wall: start.elapsed(),
    })
}
