//! Shared builder for the observability report (`obs_report`).
//!
//! One scenario definition, two consumers: the `obs_report` bin
//! ([`BUDGET`], artifacts under `results/obs/`) and the determinism tests
//! (double-run and jobs=1-vs-N byte-equality at a smaller budget). Keeping
//! the config construction here guarantees they measure the same thing.
//!
//! The scenario is the project's "everything at once" day: the
//! [`crate::small_kv`] workload on the compressed diurnal cycle with the
//! elastic controller live, durable storage (group-commit WAL + snapshots),
//! single-flight coalescing, trace sampling — plus two scheduled
//! incidents inside the measured window:
//!
//! 1. a full cache-tier outage (every shard crashes, restarts an eighth
//!    of the measured window later) — reads degrade to storage and the p99-budget SLO
//!    burns through its threshold, and
//! 2. a durable storage-pod crash — requests trip over the dead leader,
//!    pay failover + recovery, and the tail gets charged to WAL/recovery.
//!
//! Everything is keyed off fixed seeds and the virtual clock, so the
//! timeline JSONL, alert log and tail attribution are byte-reproducible.

use crate::elastic::ElasticSpec;
use crate::sweep::SweepRunner;
use dcache::experiment::{
    run_kv_experiment_with_telemetry, ExperimentReport, KvExperimentConfig, TelemetryBundle,
    STORAGE_FAULT_NODE_BASE,
};
use dcache::obs::ObsConfig;
use dcache::ArchKind;
use simnet::{FaultSchedule, NodeId, SimDuration, SimTime};
use storekit::{DurabilityConfig, FsyncPolicy};

/// Architectures in the report: the paper's two cache designs.
pub const ARCHS: &[ArchKind] = &[ArchKind::Remote, ArchKind::Linked];

/// Trace every 7th measured request — dense enough that most slowest-1%
/// requests carry a span tree for critical-path reconstruction.
pub const SAMPLE_EVERY: u64 = 7;

/// Latency SLO budget: at most 1% of requests may exceed this. Sits above
/// every steady-state path (remote misses land ~1.4 ms, linked misses and
/// group-commit writes ~1 ms) so quiet windows never burn, and below the
/// remote architecture's degraded-read + retry path (~9 ms) so the cache
/// outage does. Linked reads barely move when its cache dies — that is
/// exactly why the `degraded_reads` SLO rule exists alongside this one.
pub const P99_BUDGET_US: u64 = 2_500;

/// The observability layer every cell runs with.
pub fn obs_config() -> ObsConfig {
    ObsConfig {
        p99_budget_us: P99_BUDGET_US,
        ..ObsConfig::default()
    }
}

/// Reproduce the runner's virtual clock: arrival time of request `index`
/// under the scenario's diurnal schedule. Used to aim scheduled faults at
/// request counts (budget-proportional) while `FaultSchedule` wants
/// absolute virtual time.
fn arrival_time(cfg: &KvExperimentConfig, index: u64) -> SimTime {
    let base_dt = SimDuration::from_secs_f64(1.0 / cfg.qps.max(1.0));
    let schedule = cfg.diurnal.as_ref().expect("scenario is diurnal");
    let mut now = SimTime::ZERO;
    for _ in 0..index {
        now += SimDuration::from_secs_f64(
            base_dt.as_secs_f64() / schedule.multiplier(now.as_secs_f64()).max(1e-6),
        );
    }
    now
}

/// The experiment for one architecture. `warmup`/`measured` follow the
/// usual budget convention; faults are scheduled at fixed *fractions* of
/// the measured window so every budget sees both incidents.
pub fn experiment(arch: ArchKind, warmup: u64, measured: u64) -> KvExperimentConfig {
    let mut cfg = crate::elastic::experiment(
        &ElasticSpec {
            arch,
            elastic: true,
        },
        warmup,
        measured,
    );
    cfg.deployment.fault_tolerance.single_flight = true;
    cfg.deployment.cluster.durability = DurabilityConfig {
        enabled: true,
        fsync: FsyncPolicy::Group(8),
        snapshot_every_entries: 256,
    };
    cfg.trace_sample_every = Some(SAMPLE_EVERY);
    cfg.observability = Some(obs_config());

    // Incident 1: the whole cache tier goes down a quarter into the
    // measured window, for an eighth of it.
    let cache_down_at = warmup + measured / 4;
    let cache_down_for = (measured / 8).max(2);
    // Incident 2: region 0's durable storage pod crashes at five eighths,
    // for a sixteenth of the window.
    let storage_down_at = warmup + measured * 5 / 8;
    let storage_down_for = (measured / 16).max(2);

    let mut schedule = FaultSchedule::new();
    let at = arrival_time(&cfg, cache_down_at);
    let downtime = arrival_time(&cfg, cache_down_at + cache_down_for).since(at);
    let shards = match arch {
        ArchKind::Remote => cfg.deployment.remote_cache_nodes,
        _ => cfg.deployment.app_servers,
    };
    for shard in 0..shards {
        schedule.crash_for(at, NodeId(shard as u32), downtime);
    }
    let at = arrival_time(&cfg, storage_down_at);
    let downtime = arrival_time(&cfg, storage_down_at + storage_down_for).since(at);
    schedule.crash_for(at, NodeId(STORAGE_FAULT_NODE_BASE), downtime);
    cfg.cache_fault_schedule = Some(schedule);
    cfg
}

/// Run every architecture through `runner` (results in [`ARCHS`] order).
pub fn run_sweep(
    runner: &SweepRunner,
    warmup: u64,
    measured: u64,
) -> Vec<(ExperimentReport, TelemetryBundle)> {
    runner.run_map(ARCHS, |_, &arch| {
        run_kv_experiment_with_telemetry(&experiment(arch, warmup, measured))
            .expect("obs sweep run")
    })
}

/// The report's (warmup, measured) request budget: about six compressed
/// diurnal days measured after a warmup spanning a dozen elastic decision
/// intervals.
pub const BUDGET: (u64, u64) = (32_000, 64_000);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_schedules_both_incidents_inside_the_measured_window() {
        let (warmup, measured) = BUDGET;
        let cfg = experiment(ArchKind::Remote, warmup, measured);
        assert!(cfg.deployment.elastic.enabled());
        assert!(cfg.deployment.cluster.durability.enabled);
        assert!(cfg.observability.is_some());
        let schedule = cfg.cache_fault_schedule.as_ref().unwrap();
        let measure_start = arrival_time(&cfg, warmup);
        let measure_end = arrival_time(&cfg, warmup + measured);
        let events = schedule.events();
        // 2 cache shards + 1 storage pod, each crash+restart.
        assert_eq!(events.len(), 6);
        for ev in events {
            assert!(
                ev.at > measure_start && ev.at < measure_end,
                "event at {:?} outside measured [{:?}, {:?}]",
                ev.at,
                measure_start,
                measure_end
            );
        }
    }

    #[test]
    fn arrival_time_is_monotone_and_stretched() {
        let cfg = experiment(ArchKind::Linked, 1_000, 1_000);
        let a = arrival_time(&cfg, 500);
        let b = arrival_time(&cfg, 1_000);
        assert!(b > a);
        // Sub-peak multipliers stretch gaps beyond the peak-rate spacing.
        let peak_spacing = SimDuration::from_secs_f64(1_000.0 / cfg.qps);
        assert!(b.since(SimTime::ZERO) > peak_spacing);
    }
}
