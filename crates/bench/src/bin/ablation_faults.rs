//! Ablation — fault tolerance: what cache-shard crashes cost.
//!
//! Sweeps a schedule of periodic cache-shard crashes (rotating through the
//! shards) over crash interval × recovery time, for the two cache-bearing
//! architectures with degraded fallback and single-flight coalescing
//! enabled. The question the steady-state methodology abstracts away: when
//! the cache tier is *unreliable*, how much of the paper's saving survives?
//!
//! Expected shape:
//!
//! * steady-state cost barely moves — outages are latency/availability
//!   events, not sustained CPU;
//! * p99 and degraded reads grow as crashes come faster or recovery takes
//!   longer, and single-flight keeps the post-restart refill from turning
//!   into a storage stampede;
//! * Remote degrades more gracefully per-shard (1/N of the ring per crash)
//!   but pays retries on the wire; Linked loses a whole app server's shard.

use bench::sweep::SweepRunner;
use bench::{print_table, usd, write_json};
use dcache::experiment::{run_kv_experiment, KvExperimentConfig};
use dcache::ArchKind;
use simnet::{FaultSchedule, NodeId, SimDuration, SimTime};
use telemetry::json_fields;
use workloads::KvWorkloadConfig;

struct Point {
    arch: String,
    crash_interval_ms: u64,
    recovery_ms: u64,
    total_cost: f64,
    availability: f64,
    degraded_reads: u64,
    cache_retries: u64,
    stampede_suppressed: u64,
    cache_crashes: u64,
    read_p99_us: u64,
    net_dropped: u64,
}
json_fields! { Point {
    arch, crash_interval_ms, recovery_ms, total_cost, availability, degraded_reads, cache_retries,
    stampede_suppressed, cache_crashes, read_p99_us, net_dropped,
} }

fn main() {
    println!("Ablation: periodic cache-shard crashes (rotating shards; 20K keys, 1KB)");
    let (warmup, measured) = (60_000, 60_000);

    let run = |arch: ArchKind, interval: Option<SimDuration>, recovery: SimDuration| {
        let mut workload = KvWorkloadConfig::paper_synthetic(0.95, 1_024, 42);
        workload.keys = 20_000;
        let mut cfg = KvExperimentConfig::paper(arch, workload);
        cfg.qps = 100_000.0;
        cfg.warmup_requests = warmup;
        cfg.requests = measured;
        cfg.deployment.fault_tolerance.single_flight = true;

        if let Some(interval) = interval {
            let shards = match arch {
                ArchKind::Remote => cfg.deployment.remote_cache_nodes,
                _ => cfg.deployment.app_servers,
            };
            let dt = SimDuration::from_secs_f64(1.0 / cfg.qps);
            let t_warm = SimTime::ZERO + dt.saturating_mul(warmup);
            let t_end = SimTime::ZERO + dt.saturating_mul(warmup + measured);
            let mut schedule = FaultSchedule::new();
            let mut at = t_warm + interval;
            let mut k = 0usize;
            while at < t_end {
                schedule.crash_for(at, NodeId((k % shards) as u32), recovery);
                at += interval;
                k += 1;
            }
            cfg.cache_fault_schedule = Some(schedule);
        }
        run_kv_experiment(&cfg).expect("run")
    };

    // (crash interval, recovery) sweep; the measured window is
    // `measured / qps` seconds long (0.6 s at the default budget).
    let sweep: &[(Option<u64>, u64)] = &[
        (None, 0),        // healthy baseline
        (Some(200), 5),   // rare crashes, fast recovery
        (Some(200), 50),  // rare crashes, slow recovery
        (Some(50), 5),    // frequent crashes, fast recovery
        (Some(50), 50),   // frequent crashes, slow recovery
    ];

    let specs: Vec<(ArchKind, Option<u64>, u64)> = [ArchKind::Remote, ArchKind::Linked]
        .iter()
        .flat_map(|&a| sweep.iter().map(move |&(i, rec)| (a, i, rec)))
        .collect();
    let reports = SweepRunner::from_env().run_map(&specs, |_, &(arch, interval_ms, recovery_ms)| {
        run(
            arch,
            interval_ms.map(SimDuration::from_millis),
            SimDuration::from_millis(recovery_ms),
        )
    });

    let mut rows = Vec::new();
    let mut points = Vec::new();
    for (&(arch, interval_ms, recovery_ms), r) in specs.iter().zip(&reports) {
        {
            let condition = match interval_ms {
                None => "healthy".to_string(),
                Some(i) => format!("every {i}ms, {recovery_ms}ms down"),
            };
            rows.push(vec![
                arch.label().to_string(),
                condition,
                usd(r.total_cost.total()),
                format!("{:.4}", r.availability()),
                format!("{}", r.degraded_reads),
                format!("{}", r.stampede_suppressed),
                format!("{}", r.read_latency_p99_us),
            ]);
            points.push(Point {
                arch: arch.label().to_string(),
                crash_interval_ms: interval_ms.unwrap_or(0),
                recovery_ms,
                total_cost: r.total_cost.total(),
                availability: r.availability(),
                degraded_reads: r.degraded_reads,
                cache_retries: r.cache_retries,
                stampede_suppressed: r.stampede_suppressed,
                cache_crashes: r.cache_crashes,
                read_p99_us: r.read_latency_p99_us,
                net_dropped: r.net_dropped,
            });
        }
    }
    print_table(
        "Cache-shard crash ablation",
        &[
            "arch",
            "condition",
            "total/mo",
            "availability",
            "degraded",
            "coalesced",
            "p99_us",
        ],
        &rows,
    );
    write_json("ablation_faults", &points);

    println!(
        "\nCrashes are availability events, not cost events: the bill barely\n\
         moves while degraded reads and tail latency track the fraction of\n\
         the run spent with a shard down. Degraded fallback keeps every\n\
         request answered; single-flight keeps the post-restart refill from\n\
         stampeding the database."
    );
}
