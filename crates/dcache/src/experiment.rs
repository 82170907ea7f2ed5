//! Drive a workload through a deployment and report what it cost.
//!
//! The runner is an open-loop generator: requests arrive at a fixed QPS on
//! the virtual clock, each is served synchronously (the simulation charges
//! CPU and computes per-request latency), and at the end the accumulated
//! busy-time per tier divided by the run duration gives steady-state cores —
//! the paper's measured quantity (§5.1). Costs come from
//! [`costmodel::Pricing`].
//!
//! Every run has a warmup phase (caches fill, block caches heat) after which
//! all meters reset; only the measurement phase is billed, matching how the
//! paper measures steady state.

use crate::config::{ArchKind, DeploymentConfig};
use crate::deployment::{
    batch_counters, elastic_counters, fault_counters, kv_catalog, l0_counters, ttl_counters,
    Deployment, ServeOutcome,
};
use costmodel::{CostBreakdown, Pricing, ResourceUsage};
use simnet::{
    CpuMeter, FaultDriver, FaultEvent, FaultKind, FaultSchedule, Histogram, SimDuration, SimTime,
};
use storekit::error::{StoreError, StoreResult};
use storekit::value::Datum;
use workloads::tenants::namespaced_key;
use workloads::{KvOp, KvWorkload, KvWorkloadConfig};

/// vCPUs per VM used when translating steady-state cores into concrete
/// machine counts (§5.1 notes platforms provision to peak CPU; GCP's
/// common shape for this class of service is 8 vCPU).
pub const VCPUS_PER_NODE: f64 = 8.0;

/// Target peak utilization when sizing VMs (provisioning headroom).
pub const TARGET_UTILIZATION: f64 = 0.7;

/// One tier's resources and dollars.
#[derive(Debug, Clone, PartialEq)]
pub struct TierReport {
    pub name: String,
    pub nodes: usize,
    pub cores: f64,
    pub mem_gb: f64,
    pub disk_gb: f64,
    pub cost: CostBreakdown,
    /// 8-vCPU VMs needed to serve `cores` at 70% peak utilization — what an
    /// autoscaler would actually provision (§5.1's "smaller VM shapes or
    /// fewer replicas" translation).
    pub vms_at_target_util: u64,
    /// Expected M/M/c queueing wait at that provisioning, as a multiple of
    /// the mean service time (Erlang C) — the latency headroom the 70%
    /// utilization target buys. ~0.02–0.1 is healthy; near 1.0 means the
    /// tier is under-provisioned.
    pub expected_queue_wait: f64,
    /// CPU fraction by category, largest first (only non-zero entries).
    pub cpu_fractions: Vec<(String, f64)>,
}

impl TierReport {
    fn from_meter(
        name: &str,
        nodes: usize,
        meter: &CpuMeter,
        duration: SimDuration,
        mem_bytes: u64,
        disk_bytes: u64,
        pricing: &Pricing,
    ) -> TierReport {
        let cores = meter.cores_used(duration);
        let mem_gb = mem_bytes as f64 / 1e9;
        let disk_gb = disk_bytes as f64 / 1e9;
        let cost = pricing.monthly(&ResourceUsage::new(cores, mem_gb, disk_gb));
        let mut cpu_fractions: Vec<(String, f64)> = meter
            .breakdown()
            .map(|(c, _)| (c.label().to_string(), meter.fraction(c)))
            .collect();
        cpu_fractions.sort_by(|a, b| b.1.total_cmp(&a.1));
        let vms_at_target_util = (cores / TARGET_UTILIZATION / VCPUS_PER_NODE)
            .ceil()
            .max(0.0) as u64;
        let provisioned_cores = (vms_at_target_util as f64 * VCPUS_PER_NODE) as u32;
        let expected_queue_wait = if provisioned_cores == 0 {
            0.0
        } else {
            simnet::queueing::mmc_wait_time(provisioned_cores, cores)
        };
        TierReport {
            name: name.to_string(),
            nodes,
            cores,
            mem_gb,
            disk_gb,
            cost,
            vms_at_target_util,
            expected_queue_wait,
            cpu_fractions,
        }
    }
}

/// Per-tenant slice of a multi-tenant run's accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReport {
    pub label: String,
    /// Measured requests attributed to this tenant.
    pub requests: u64,
    pub reads: u64,
    pub writes: u64,
    pub cache_hits: u64,
    /// External-cache hit ratio over this tenant's measured reads.
    pub hit_ratio: f64,
    pub stale_reads: u64,
    /// Adopted TTL at run end, seconds (0.0 = no decision yet / plane off).
    pub ttl_secs: f64,
    /// TTL planning rounds this tenant's controller ran.
    pub ttl_decisions: u64,
    /// Decisions that changed this tenant's adopted TTL.
    pub ttl_changes: u64,
    /// This tenant's share of the monthly bill, apportioned by request
    /// share — a simple deterministic showback split.
    pub monthly_dollars: f64,
}

/// Everything a run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentReport {
    pub arch: ArchKind,
    pub qps: f64,
    pub requests: u64,
    pub duration_secs: f64,
    pub tiers: Vec<TierReport>,
    pub total_cost: CostBreakdown,
    pub total_cores: f64,
    pub total_mem_gb: f64,
    /// External-cache hit ratio over reads (0 for Base).
    pub cache_hit_ratio: f64,
    pub block_cache_hit_ratio: f64,
    pub read_latency_p50_us: u64,
    pub read_latency_p99_us: u64,
    /// Extreme-tail read latency (99.9th percentile).
    pub read_latency_p999_us: u64,
    pub write_latency_p50_us: u64,
    pub write_latency_p99_us: u64,
    pub write_latency_p999_us: u64,
    /// Reads that returned a value older than the latest committed write.
    pub stale_reads: u64,
    pub version_checks: u64,
    pub sql_statements: u64,
    /// Raft leader elections triggered by requests hitting dead leaders.
    pub failovers: u64,
    /// Reads served from storage because the owning cache shard was down.
    pub degraded_reads: u64,
    /// Cache-RPC retries performed against unresponsive shards.
    pub cache_retries: u64,
    /// Storage fills elided by single-flight coalescing.
    pub stampede_suppressed: u64,
    /// Measured requests whose end-to-end latency blew the request deadline.
    pub deadline_exceeded: u64,
    /// Cache shards crashed / restarted during the measured window.
    pub cache_crashes: u64,
    pub cache_restarts: u64,
    /// Fault-fabric messages delivered / dropped during the measured window.
    pub net_delivered: u64,
    pub net_dropped: u64,
    /// Remote-RPC frames issued while batching was enabled (0 otherwise).
    pub rpc_batches: u64,
    /// Keys that traveled in those frames (openers + followers).
    pub batched_rpc_keys: u64,
    /// Mean keys per frame; 0.0 when no frames were issued.
    pub mean_batch_size: f64,
    /// Frame-size histogram: `(size, frames)`, sorted by size ascending.
    pub batch_size_counts: Vec<(u32, u64)>,
    /// Elastic-provisioning activity (all zero when the controller is off).
    pub elastic_decisions: u64,
    pub elastic_plan_changes: u64,
    pub elastic_resizes: u64,
    pub elastic_shards_drained: u64,
    pub elastic_shards_restored: u64,
    pub elastic_migrated_entries: u64,
    pub elastic_migrated_bytes: u64,
    /// Peak ~1-virtual-second-window cores over the measured run. 0.0 unless
    /// the run tracked load windows (diurnal load or elastic enabled) — it's
    /// what static provisioning must pay for all day.
    pub peak_window_cores: f64,
    /// Time-averaged configured cache capacity over the measured run (0.0
    /// unless windows were tracked) — what elastic billing charges for.
    pub elastic_mean_cache_bytes: f64,
    /// Largest configured cache capacity seen during the measured run.
    pub elastic_peak_cache_bytes: u64,
    /// Durability/recovery activity (all zero when durability is off).
    pub wal_appends: u64,
    pub wal_fsync_batches: u64,
    /// Bytes written by snapshots during the measured window.
    pub snapshot_bytes: u64,
    /// Pod recoveries (snapshot load + WAL replay) in the measured window.
    pub recoveries: u64,
    /// Summed simulated recovery wall time across those recoveries.
    pub recovery_time_us: u64,
    /// WAL records replayed during recoveries.
    pub replayed_entries: u64,
    /// Un-fsynced WAL records discarded by crashes (re-replicated from the
    /// quorum, never acked-and-lost).
    pub lost_tail_entries: u64,
    /// Estimated CPU to re-heat block-cache blocks lost to crashes.
    pub cold_refill_cpu_us: u64,
    /// Bytes resident on the storage SSD tier (snapshots + WALs) at run
    /// end — the $/GB billing basis.
    pub ssd_resident_bytes: u64,
    /// SLO burn-rate alerts fired during the measured run (0 unless
    /// `observability` is enabled).
    pub slo_alerts_fired: u64,
    /// Exact nearest-rank p99 over every measured latency, microseconds
    /// (0 unless `observability` is enabled) — the tail-attribution cut.
    pub tail_p99_threshold_us: u64,
    /// Per-cause tail attribution `(cause, requests, excess_µs)` for the
    /// slowest-1% requests; empty unless `observability` is enabled. Every
    /// tail request carries exactly one cause, so the excess columns sum to
    /// the total measured tail excess.
    pub tail_causes: Vec<(String, u64, u64)>,
    /// In-process L0 hot-key tier activity (all zero unless
    /// [`crate::config::L0Config`] is enabled on the deployment).
    pub l0_hits: u64,
    pub l0_misses: u64,
    /// Fraction of measured reads served straight from the L0 tier.
    pub l0_hit_ratio: f64,
    /// Values accepted / refused by the L0's TinyLFU admission gate.
    pub l0_admitted: u64,
    pub l0_rejected: u64,
    /// Write-path invalidations that removed an older resident entry.
    pub l0_invalidations: u64,
    /// Refills dropped because the resident entry was already newer.
    pub l0_stale_admits_dropped: u64,
    /// L0-served reads whose value was older than the latest committed
    /// write. Invalidate-first keeps this at zero by construction;
    /// serve-stale trades these for invalidation CPU.
    pub l0_stale_serves: u64,
    /// Age of L0-served entries at serve time, microseconds. Under
    /// serve-stale the p99 is (within expiry granularity) the measured
    /// staleness bound.
    pub l0_age_p50_us: u64,
    pub l0_age_p99_us: u64,
    /// TTL control-plane activity (all zero while the plane is off).
    pub ttl_decisions: u64,
    /// Decisions that changed some tenant's adopted TTL.
    pub ttl_changes: u64,
    /// Entries reclaimed by heartbeat expiry sweeps.
    pub expired_entries: u64,
    /// CPU charged for those sweeps, microseconds.
    pub expiry_sweep_cpu_us: u64,
    /// Adopted TTL per tenant at run end, seconds (0.0 = no decision yet);
    /// empty while the plane is off.
    pub ttl_current_secs: Vec<f64>,
    /// Time-averaged TTL-aware resident cache bytes over the measured run
    /// (0.0 unless the plane tracked windows) — the memory basis TTL
    /// billing charges for.
    pub ttl_mean_resident_bytes: f64,
    /// Per-tenant accounting (empty unless the run had a
    /// [`workloads::TenantMix`]).
    pub tenants: Vec<TenantReport>,
}

impl ExperimentReport {
    /// Total 8-vCPU VMs the deployment needs at 70% peak utilization.
    pub fn total_vms(&self) -> u64 {
        self.tiers.iter().map(|t| t.vms_at_target_util).sum()
    }

    /// Dollars per million requests (normalizes across QPS).
    pub fn cost_per_million_requests(&self) -> f64 {
        let monthly_requests = self.qps * 30.0 * 24.0 * 3600.0;
        if monthly_requests == 0.0 {
            return 0.0;
        }
        self.total_cost.total() / monthly_requests * 1e6
    }

    /// `other.total / self.total` — how many times cheaper `self` is.
    pub fn saving_vs(&self, other: &ExperimentReport) -> f64 {
        other.total_cost.total() / self.total_cost.total()
    }

    pub fn tier(&self, name: &str) -> Option<&TierReport> {
        self.tiers.iter().find(|t| t.name == name)
    }

    /// Memory's share of total cost (§5.3 reports 6–22% for Linked).
    pub fn memory_cost_fraction(&self) -> f64 {
        self.total_cost.memory_fraction()
    }

    /// Fraction of measured requests that met their deadline — the
    /// availability figure the fault ablation sweeps. 1.0 when no deadline
    /// pressure was observed.
    pub fn availability(&self) -> f64 {
        if self.requests == 0 {
            return 1.0;
        }
        1.0 - self.deadline_exceeded as f64 / self.requests as f64
    }
}

/// Configuration of one KV cost run.
#[derive(Debug, Clone)]
pub struct KvExperimentConfig {
    pub deployment: DeploymentConfig,
    pub workload: KvWorkloadConfig,
    /// Request arrival rate (drives the virtual clock).
    pub qps: f64,
    /// Requests served before meters reset.
    pub warmup_requests: u64,
    /// Requests measured.
    pub requests: u64,
    /// Serve one read per key before warmup so caches start resident —
    /// approximating the long steady state the paper measures without
    /// simulating millions of warmup requests.
    pub prewarm: bool,
    /// Fault injection: crash every region's Raft leader after this many
    /// measured requests. The runner recovers via elections (each failed
    /// request pays a detection+election latency penalty), modeling the
    /// availability blip of a storage-node failure.
    pub crash_leaders_at_request: Option<u64>,
    /// Time-scheduled fault injection, in absolute virtual time from run
    /// start (warmup included; requests arrive every `1/qps` seconds).
    /// Node ids below [`STORAGE_FAULT_NODE_BASE`] are cache shards; ids at
    /// or above it select storage region `id - STORAGE_FAULT_NODE_BASE`
    /// (crash = kill its Raft leader, restart = re-elect).
    pub cache_fault_schedule: Option<FaultSchedule>,
    /// Trace every Nth measured request (`Some(1)` = every request). Each
    /// sampled request gets a deterministic trace id derived from the
    /// workload seed and its measured index, and every hop it takes records
    /// a span. `None` disables tracing entirely (the default everywhere),
    /// leaving the serve paths byte-identical to an uninstrumented run.
    pub trace_sample_every: Option<u64>,
    /// Diurnal load modulation: scales the instantaneous arrival rate by
    /// `schedule.multiplier(t)` (requests arrive every `1/(qps·m)` seconds),
    /// so `cfg.qps` becomes the *peak* rate. `None` (the default) keeps the
    /// classic fixed-interval clock byte-for-byte.
    pub diurnal: Option<workloads::DiurnalSchedule>,
    /// Run-time observability (heartbeat time series, SLO burn-rate alerts,
    /// slowest-1% cause attribution). `None` (the default everywhere) keeps
    /// the runner and every artifact byte-identical to an uninstrumented
    /// run; `Some` additionally captures per-bucket latency exemplars for
    /// traced requests and fills the report's `slo_*`/`tail_*` fields.
    pub observability: Option<crate::obs::ObsConfig>,
    /// Multi-tenant request mix: each tenant drives its own workload over a
    /// namespaced slice of the key space, with optional churn/storm stress
    /// schedules, and the TTL plane (when on) tunes each tenant separately.
    /// `None` (the default everywhere) keeps the classic single-workload
    /// request stream byte-for-byte; `cfg.workload` is ignored when set.
    pub tenants: Option<workloads::TenantMix>,
    pub pricing: Pricing,
}

/// Detection + election latency a request observes when it trips over a
/// dead leader (lease expiry + campaign; TiKV-like deployments see hundreds
/// of milliseconds).
pub const FAILOVER_PENALTY: SimDuration = SimDuration::from_millis(300);

impl KvExperimentConfig {
    /// A paper-shaped configuration with a sensible default request budget.
    pub fn paper(arch: ArchKind, workload: KvWorkloadConfig) -> Self {
        KvExperimentConfig {
            deployment: DeploymentConfig::paper(arch),
            workload,
            qps: 100_000.0,
            warmup_requests: 150_000,
            requests: 150_000,
            prewarm: true,
            crash_leaders_at_request: None,
            cache_fault_schedule: None,
            trace_sample_every: None,
            diurnal: None,
            observability: None,
            tenants: None,
            pricing: Pricing::default(),
        }
    }
}

/// `FaultSchedule` node ids at or above this base address storage regions
/// (`id - base` = region index); below it they address cache shards.
pub const STORAGE_FAULT_NODE_BASE: u32 = 1 << 16;

/// Apply one scheduled fault event to the deployment: cache-shard ids are
/// handled by the deployment (crash wipes the shard), storage ids crash the
/// region's Raft leader (recovery happens through the runner's failover
/// path or an explicit `Restart` event), and everything else (partitions,
/// latency spikes, loss windows) acts on the app↔cache fault fabric.
pub(crate) fn apply_fault(dep: &mut Deployment, ev: &FaultEvent, now: SimTime) {
    match ev.kind {
        FaultKind::Crash { node } if node.0 < STORAGE_FAULT_NODE_BASE => {
            dep.crash_cache_shard(node.0 as usize);
        }
        FaultKind::Restart { node } if node.0 < STORAGE_FAULT_NODE_BASE => {
            dep.restart_cache_shard(node.0 as usize);
        }
        FaultKind::Crash { node } => {
            let r = (node.0 - STORAGE_FAULT_NODE_BASE) as usize;
            if r < dep.cluster.region_count() {
                if let Some(slot) = dep.cluster.region(r).leader_slot() {
                    if dep.cluster.durability_enabled() {
                        // With durable storage the crash takes down the whole
                        // pod hosting the leader: memtables, block cache and
                        // the un-fsynced WAL tail are lost, and every region
                        // replica on that pod goes down with it. The paired
                        // Restart event replays snapshot+WAL and rejoins.
                        let pod = dep.cluster.region(r).replicas[slot];
                        dep.cluster.crash_pod(pod);
                        dep.crashed_storage_pods.insert(r, pod);
                    } else {
                        dep.cluster.region_mut(r).crash(slot);
                    }
                }
            }
        }
        FaultKind::Restart { node } => {
            let r = (node.0 - STORAGE_FAULT_NODE_BASE) as usize;
            if r < dep.cluster.region_count() {
                if let Some(pod) = dep.crashed_storage_pods.remove(&r) {
                    dep.cluster.recover_pod(pod, now);
                } else {
                    let _ = dep.cluster.region_mut(r).elect(now);
                }
            }
        }
        _ => ev.apply_to(&mut dep.net),
    }
}

/// Shared state of a run in progress (also used by the Unity runner).
#[derive(Debug)]
pub(crate) struct RunMetrics {
    pub read_latency: Histogram,
    pub write_latency: Histogram,
    pub reads: u64,
    pub writes: u64,
    pub cache_hits: u64,
    pub stale_reads: u64,
    pub version_checks: u64,
    pub sql_statements: u64,
    pub failovers: u64,
    pub deadline_exceeded: u64,
    /// Measured reads served by the L0 tier (0 unless the tier is on).
    pub l0_hits: u64,
    /// L0-served reads that returned a stale value (serve-stale mode).
    pub l0_stale_serves: u64,
    /// Age of L0-served entries at serve time, nanoseconds.
    pub l0_age: Histogram,
}

impl RunMetrics {
    pub fn new() -> Self {
        RunMetrics {
            read_latency: Histogram::new(),
            write_latency: Histogram::new(),
            reads: 0,
            writes: 0,
            cache_hits: 0,
            stale_reads: 0,
            version_checks: 0,
            sql_statements: 0,
            failovers: 0,
            deadline_exceeded: 0,
            l0_hits: 0,
            l0_stale_serves: 0,
            l0_age: Histogram::new(),
        }
    }

    /// Count one measured read: its latency (with `exemplar`'s trace id,
    /// when given), cache hit, version checks and statements, whether the
    /// caller judged its value `stale`, and, when the L0 tier served it,
    /// the L0 counters.
    pub fn record_read(
        &mut self,
        out: &ServeOutcome,
        latency_ns: u64,
        stale: bool,
        exemplar: Option<u64>,
    ) {
        self.reads += 1;
        record_latency(&mut self.read_latency, latency_ns, exemplar);
        self.cache_hits += out.cache_hit as u64;
        self.version_checks += out.version_checks;
        self.sql_statements += out.sql_statements;
        self.stale_reads += stale as u64;
        if out.l0_hit {
            self.l0_hits += 1;
            self.l0_age.record(out.l0_age_nanos);
            self.l0_stale_serves += stale as u64;
        }
    }

    /// Count one measured write or delete.
    pub fn record_write(&mut self, out: &ServeOutcome, latency_ns: u64, exemplar: Option<u64>) {
        self.writes += 1;
        record_latency(&mut self.write_latency, latency_ns, exemplar);
        self.sql_statements += out.sql_statements;
    }

    /// Count `latency` against the per-request deadline budget.
    pub fn check_deadline(&mut self, latency: SimDuration, deadline: SimDuration) {
        if latency > deadline {
            self.deadline_exceeded += 1;
        }
    }
}

fn record_latency(h: &mut Histogram, latency_ns: u64, exemplar: Option<u64>) {
    match exemplar {
        Some(trace_id) => h.record_with_exemplar(latency_ns, trace_id),
        None => h.record(latency_ns),
    }
}

/// Assemble the report from a finished deployment + metrics.
pub(crate) fn build_report(
    dep: &Deployment,
    metrics: &RunMetrics,
    qps: f64,
    requests: u64,
    duration: SimDuration,
    pricing: &Pricing,
) -> ExperimentReport {
    let cfg = dep.config();
    let mut tiers = Vec::new();

    let app_mem = cfg.app_servers as u64
        * (cfg.app_base_mem_bytes
            + if cfg.arch.has_linked_cache() {
                cfg.linked_cache_bytes_per_server
            } else {
                0
            }
            // The L0 duplicates its few MB in every app server; bill them.
            + if cfg.arch.supports_l0() {
                cfg.l0.as_ref().map_or(0, |c| c.bytes_per_server)
            } else {
                0
            });
    tiers.push(TierReport::from_meter(
        "app",
        cfg.app_servers,
        &dep.app_cpu_total(),
        duration,
        app_mem,
        0,
        pricing,
    ));

    if cfg.arch == ArchKind::Remote {
        let mem = cfg.remote_cache_nodes as u64 * (cfg.remote_cache_bytes_per_node + (1 << 30));
        tiers.push(TierReport::from_meter(
            "remote_cache",
            cfg.remote_cache_nodes,
            &dep.cache_cpu_total(),
            duration,
            mem,
            0,
            pricing,
        ));
    }

    tiers.push(TierReport::from_meter(
        "sql_frontend",
        cfg.cluster.frontends,
        &dep.cluster.frontend_cpu_total(),
        duration,
        cfg.cluster.frontends as u64 * cfg.cluster.frontend_mem_bytes,
        0,
        pricing,
    ));

    let storage_disk = dep.cluster.primary_data_bytes() * cfg.cluster.replicas as u64;
    let mut storage_tier = TierReport::from_meter(
        "storage",
        cfg.cluster.storage_nodes,
        &dep.cluster.storage_cpu_total(),
        duration,
        cfg.cluster.storage_nodes as u64 * dep.cluster.storage_mem_bytes_per_node(),
        storage_disk,
        pricing,
    );
    if dep.cluster.durability_enabled() {
        // The WAL + snapshots live on a log-structured SSD tier billed at
        // $/GB between DRAM and cold disk.
        let ssd_gb = dep.cluster.ssd_resident_bytes() as f64 / 1e9;
        storage_tier.cost = pricing.monthly(
            &ResourceUsage::new(
                storage_tier.cores,
                storage_tier.mem_gb,
                storage_tier.disk_gb,
            )
            .with_ssd(ssd_gb),
        );
    }
    tiers.push(storage_tier);

    let total_cost: CostBreakdown = tiers.iter().map(|t| t.cost).sum();
    let total_cores: f64 = tiers.iter().map(|t| t.cores).sum();
    let total_mem_gb: f64 = tiers.iter().map(|t| t.mem_gb).sum();

    let durability = dep.cluster.durability_stats();
    let l0 = dep.l0_stats_total();
    let rpc_batches = dep.metrics.counter_value(batch_counters::RPC_BATCHES);
    let batched_rpc_keys = dep.metrics.counter_value(batch_counters::BATCHED_RPC_KEYS);
    let mut batch_size_counts: Vec<(u32, u64)> = dep
        .batch_size_counts
        .iter()
        .map(|(&s, &c)| (s, c))
        .collect();
    batch_size_counts.sort_unstable();

    ExperimentReport {
        arch: cfg.arch,
        qps,
        requests,
        duration_secs: duration.as_secs_f64(),
        tiers,
        total_cost,
        total_cores,
        total_mem_gb,
        cache_hit_ratio: if metrics.reads == 0 {
            0.0
        } else {
            metrics.cache_hits as f64 / metrics.reads as f64
        },
        block_cache_hit_ratio: dep.cluster.block_cache_hit_ratio(),
        read_latency_p50_us: metrics.read_latency.p50() / 1_000,
        read_latency_p99_us: metrics.read_latency.p99() / 1_000,
        read_latency_p999_us: metrics.read_latency.p999() / 1_000,
        write_latency_p50_us: metrics.write_latency.p50() / 1_000,
        write_latency_p99_us: metrics.write_latency.p99() / 1_000,
        write_latency_p999_us: metrics.write_latency.p999() / 1_000,
        stale_reads: metrics.stale_reads,
        version_checks: metrics.version_checks,
        sql_statements: metrics.sql_statements,
        failovers: metrics.failovers,
        degraded_reads: dep.metrics.counter_value(fault_counters::DEGRADED_READS),
        cache_retries: dep.metrics.counter_value(fault_counters::RETRIES),
        stampede_suppressed: dep
            .metrics
            .counter_value(fault_counters::STAMPEDE_SUPPRESSED),
        deadline_exceeded: metrics.deadline_exceeded,
        cache_crashes: dep.metrics.counter_value(fault_counters::CACHE_CRASHES),
        cache_restarts: dep.metrics.counter_value(fault_counters::CACHE_RESTARTS),
        net_delivered: dep.net.delivered,
        net_dropped: dep.net.dropped,
        rpc_batches,
        batched_rpc_keys,
        mean_batch_size: if rpc_batches == 0 {
            0.0
        } else {
            batched_rpc_keys as f64 / rpc_batches as f64
        },
        batch_size_counts,
        elastic_decisions: dep.elastic.decisions(),
        elastic_plan_changes: dep.elastic.plan_changes(),
        elastic_resizes: dep.metrics.counter_value(elastic_counters::RESIZES),
        elastic_shards_drained: dep.metrics.counter_value(elastic_counters::SHARDS_DRAINED),
        elastic_shards_restored: dep.metrics.counter_value(elastic_counters::SHARDS_RESTORED),
        elastic_migrated_entries: dep
            .metrics
            .counter_value(elastic_counters::MIGRATED_ENTRIES),
        elastic_migrated_bytes: dep.metrics.counter_value(elastic_counters::MIGRATED_BYTES),
        // Window-derived figures are filled post-hoc by the KV runner; other
        // runners (Unity/session/trace) don't track load windows.
        peak_window_cores: 0.0,
        elastic_mean_cache_bytes: 0.0,
        elastic_peak_cache_bytes: 0,
        wal_appends: durability.wal_appends,
        wal_fsync_batches: durability.fsync_batches,
        snapshot_bytes: durability.snapshot_bytes,
        recoveries: durability.recoveries,
        recovery_time_us: durability.recovery_time_us,
        replayed_entries: durability.replayed_entries,
        lost_tail_entries: durability.lost_tail_entries,
        cold_refill_cpu_us: durability.cold_refill_cpu_us,
        ssd_resident_bytes: dep.cluster.ssd_resident_bytes(),
        // Observability figures are filled post-hoc by the KV runner when
        // `cfg.observability` is enabled.
        slo_alerts_fired: 0,
        tail_p99_threshold_us: 0,
        tail_causes: Vec::new(),
        l0_hits: l0.hits,
        l0_misses: l0.misses,
        l0_hit_ratio: if l0.hits + l0.misses == 0 {
            0.0
        } else {
            l0.hits as f64 / (l0.hits + l0.misses) as f64
        },
        l0_admitted: l0.admitted,
        l0_rejected: l0.rejected,
        l0_invalidations: l0.invalidations,
        l0_stale_admits_dropped: l0.stale_admits_dropped,
        l0_stale_serves: metrics.l0_stale_serves,
        l0_age_p50_us: metrics.l0_age.p50() / 1_000,
        l0_age_p99_us: metrics.l0_age.p99() / 1_000,
        ttl_decisions: dep.metrics.counter_value(ttl_counters::DECISIONS),
        ttl_changes: dep.metrics.counter_value(ttl_counters::TTL_CHANGES),
        expired_entries: dep.metrics.counter_value(ttl_counters::EXPIRED_ENTRIES),
        expiry_sweep_cpu_us: dep.metrics.counter_value(ttl_counters::SWEEP_CPU_NANOS) / 1_000,
        ttl_current_secs: if dep.ttl_enabled() {
            dep.ttl
                .iter()
                .map(|c| c.current_plan().map_or(0.0, |p| p.ttl_secs))
                .collect()
        } else {
            Vec::new()
        },
        // Window-derived; filled post-hoc by the KV runner, like the
        // elastic figures above.
        ttl_mean_resident_bytes: 0.0,
        // Filled post-hoc by the KV runner when the run had a tenant mix.
        tenants: Vec::new(),
    }
}

/// Re-bill the cache tier's memory at `mean_cache_bytes`, a time average,
/// instead of the static configured maximum. Compute costs already track
/// the measured busy time, so only the memory line moves. An elastic
/// deployment pays for its time-averaged configured capacity; a TTL-governed
/// cache for its time-averaged *resident* bytes, since expired entries hold
/// no value and sweeps return their bytes.
fn apply_memory_billing(
    report: &mut ExperimentReport,
    dep: &Deployment,
    mean_cache_bytes: f64,
    pricing: &Pricing,
) {
    let cfg = dep.config();
    let (tier_name, base_mem) = match cfg.arch {
        ArchKind::Remote => ("remote_cache", cfg.remote_cache_nodes as u64 * (1 << 30)),
        _ if cfg.arch.has_linked_cache() => {
            ("app", cfg.app_servers as u64 * cfg.app_base_mem_bytes)
        }
        _ => return,
    };
    if let Some(t) = report.tiers.iter_mut().find(|t| t.name == tier_name) {
        t.mem_gb = (base_mem as f64 + mean_cache_bytes) / 1e9;
        t.cost = pricing.monthly(&ResourceUsage::new(t.cores, t.mem_gb, t.disk_gb));
    }
    report.total_cost = report.tiers.iter().map(|t| t.cost).sum();
    report.total_mem_gb = report.tiers.iter().map(|t| t.mem_gb).sum();
}

/// Run `f`, recovering from a dead Raft leader by electing a replacement
/// and retrying once. The retried request carries the detection+election
/// penalty in its latency.
pub(crate) fn with_failover<T>(
    dep: &mut Deployment,
    now: SimTime,
    metrics: &mut RunMetrics,
    measuring: bool,
    mut f: impl FnMut(&mut Deployment, SimTime) -> StoreResult<T>,
) -> StoreResult<(T, SimDuration)> {
    match f(dep, now) {
        Ok(v) => Ok((v, SimDuration::ZERO)),
        Err(StoreError::NoLeader { region }) => {
            dep.cluster
                .region_mut(region as usize)
                .elect(now + FAILOVER_PENALTY)?;
            if measuring {
                metrics.failovers += 1;
            }
            let v = f(dep, now + FAILOVER_PENALTY)?;
            Ok((v, FAILOVER_PENALTY))
        }
        Err(e) => Err(e),
    }
}

/// Ring-buffer capacity of the per-run trace sink when tracing is on:
/// enough for the tail of any run at full sampling, bounded regardless of
/// request count.
pub const TRACE_SINK_CAPACITY: usize = 8_192;

/// What a traced run hands back next to its [`ExperimentReport`].
#[derive(Debug, Clone)]
pub struct TelemetryBundle {
    /// Every report field, fault counter, and latency distribution as
    /// named, labeled instruments (Prometheus-text / JSONL exportable).
    pub registry: telemetry::Registry,
    /// The retained trace spans, in recording order (ring-bounded tail).
    pub spans: Vec<telemetry::SpanRecord>,
    /// JSONL dump of the retained trace spans (one span per line).
    pub traces_jsonl: String,
    /// Collapsed-stack CPU attribution (`arch;tier;category nanos`),
    /// folded from the same meters the report's cost accounting uses.
    pub profile: telemetry::CpuProfile,
    /// Time series, SLO alerts and tail attribution — `None` unless
    /// `cfg.observability` was enabled.
    pub obs: Option<crate::obs::ObsArtifacts>,
}

/// Map a request outcome to the status of its root span.
fn outcome_status(out: &crate::deployment::ServeOutcome) -> telemetry::SpanStatus {
    if out.degraded {
        telemetry::SpanStatus::Degraded
    } else if out.coalesced {
        telemetry::SpanStatus::Coalesced
    } else {
        telemetry::SpanStatus::Ok
    }
}

/// Fold every tier's CPU meter into one collapsed-stack profile. Totals per
/// stack equal the meters' busy nanoseconds exactly, so per-tier cores in
/// the report equal `total_matching("{arch};{tier}") / duration_ns`.
pub fn cpu_profile(dep: &Deployment) -> telemetry::CpuProfile {
    let arch = dep.config().arch.label();
    let mut profile = telemetry::CpuProfile::new();
    dep.app_cpu_total().fold_into(&mut profile, &[arch, "app"]);
    if dep.config().arch == ArchKind::Remote {
        dep.cache_cpu_total()
            .fold_into(&mut profile, &[arch, "remote_cache"]);
    }
    dep.cluster
        .frontend_cpu_total()
        .fold_into(&mut profile, &[arch, "sql_frontend"]);
    dep.cluster
        .storage_cpu_total()
        .fold_into(&mut profile, &[arch, "storage"]);
    profile
}

/// Export a finished run into a metrics registry: report-level gauges and
/// counters, the deployment's fault counters, cache statistics, and the
/// measured latency distributions.
fn export_registry(
    report: &ExperimentReport,
    dep: &Deployment,
    metrics: &RunMetrics,
    obs: Option<&crate::obs::ObsArtifacts>,
) -> telemetry::Registry {
    use telemetry::InstrumentKind::{Counter, Gauge, Summary};
    let mut reg = telemetry::Registry::new();
    let arch = dep.config().arch.label();
    let labels: &[(&str, &str)] = &[("arch", arch)];

    reg.describe(
        "dcache_requests_total",
        Counter,
        "Measured requests served.",
    );
    reg.set_counter("dcache_requests_total", labels, report.requests);
    reg.set_counter("dcache_reads_total", labels, metrics.reads);
    reg.set_counter("dcache_writes_total", labels, metrics.writes);
    reg.set_counter("dcache_stale_reads_total", labels, report.stale_reads);
    reg.set_counter("dcache_version_checks_total", labels, report.version_checks);
    reg.set_counter("dcache_sql_statements_total", labels, report.sql_statements);
    reg.set_counter("dcache_failovers_total", labels, report.failovers);
    reg.set_counter(
        "dcache_deadline_exceeded_total",
        labels,
        report.deadline_exceeded,
    );
    reg.set_counter("dcache_net_delivered_total", labels, report.net_delivered);
    reg.set_counter("dcache_net_dropped_total", labels, report.net_dropped);
    reg.describe(
        "dcache_rpc_batches_total",
        Counter,
        "Coalesced remote-RPC frames issued (batching enabled only).",
    );
    reg.set_counter("dcache_rpc_batches_total", labels, report.rpc_batches);
    reg.set_counter(
        "dcache_batched_rpc_keys_total",
        labels,
        report.batched_rpc_keys,
    );
    reg.set_gauge("dcache_mean_batch_size", labels, report.mean_batch_size);

    reg.describe(
        "dcache_monthly_cost_dollars",
        Gauge,
        "Total monthly cost of the deployment.",
    );
    reg.set_gauge(
        "dcache_monthly_cost_dollars",
        labels,
        report.total_cost.total(),
    );
    reg.set_gauge("dcache_cache_hit_ratio", labels, report.cache_hit_ratio);
    reg.set_gauge(
        "dcache_block_cache_hit_ratio",
        labels,
        report.block_cache_hit_ratio,
    );
    reg.set_gauge("dcache_total_cores", labels, report.total_cores);
    reg.set_gauge("dcache_total_mem_gb", labels, report.total_mem_gb);
    for tier in &report.tiers {
        let tier_labels: &[(&str, &str)] = &[("arch", arch), ("tier", &tier.name)];
        reg.set_gauge("dcache_tier_cores", tier_labels, tier.cores);
        reg.set_gauge("dcache_tier_cost_dollars", tier_labels, tier.cost.total());
        reg.set_gauge(
            "dcache_tier_vms_at_target_util",
            tier_labels,
            tier.vms_at_target_util as f64,
        );
    }

    reg.describe(
        "dcache_read_latency_ns",
        Summary,
        "End-to-end read latency (virtual nanoseconds).",
    );
    if !metrics.read_latency.is_empty() {
        reg.set_summary(
            "dcache_read_latency_ns",
            labels,
            metrics.read_latency.summary(),
        );
    }
    if !metrics.write_latency.is_empty() {
        reg.set_summary(
            "dcache_write_latency_ns",
            labels,
            metrics.write_latency.summary(),
        );
    }

    // Elastic-provisioning telemetry, only when the controller is on (so
    // default runs export byte-identical registries).
    if dep.elastic.enabled() {
        reg.describe(
            "dcache_elastic_cache_capacity_bytes",
            Gauge,
            "Configured capacity of the elastic-managed cache tier at run end.",
        );
        reg.set_gauge(
            "dcache_elastic_cache_capacity_bytes",
            labels,
            dep.elastic_cache_capacity_bytes() as f64,
        );
        reg.set_gauge(
            "dcache_elastic_mean_cache_bytes",
            labels,
            report.elastic_mean_cache_bytes,
        );
        reg.set_gauge(
            "dcache_elastic_peak_cache_bytes",
            labels,
            report.elastic_peak_cache_bytes as f64,
        );
        reg.set_gauge("dcache_peak_window_cores", labels, report.peak_window_cores);
        if let Some(p) = dep.elastic.current_plan() {
            reg.describe(
                "dcache_elastic_plan_cache_bytes",
                Gauge,
                "Capacity target of the most recent provisioning plan.",
            );
            reg.set_gauge(
                "dcache_elastic_plan_cache_bytes",
                labels,
                p.cache_bytes as f64,
            );
            reg.set_gauge("dcache_elastic_plan_shards", labels, p.shards as f64);
            reg.set_gauge(
                "dcache_elastic_plan_monthly_dollars",
                labels,
                p.monthly_dollars,
            );
        }
        reg.set_counter(
            "dcache_elastic_decisions_total",
            labels,
            report.elastic_decisions,
        );
        reg.set_counter(
            "dcache_elastic_resizes_total",
            labels,
            report.elastic_resizes,
        );
        reg.set_counter(
            "dcache_elastic_migrated_entries_total",
            labels,
            report.elastic_migrated_entries,
        );
        reg.set_counter(
            "dcache_elastic_migrated_bytes_total",
            labels,
            report.elastic_migrated_bytes,
        );
        reg.set_gauge(
            "dcache_elastic_profiler_sampling_rate",
            labels,
            dep.elastic.profiler().rate(),
        );
        reg.set_gauge(
            "dcache_elastic_profiler_tracked_keys",
            labels,
            dep.elastic.profiler().tracked_keys() as f64,
        );
    }

    // Durability/recovery telemetry, only when the WAL layer is on (so
    // default runs export byte-identical registries).
    if dep.cluster.durability_enabled() {
        reg.describe(
            "dcache_durability_wal_appends_total",
            Counter,
            "WAL records appended across storage pods.",
        );
        reg.set_counter(
            "dcache_durability_wal_appends_total",
            labels,
            report.wal_appends,
        );
        reg.set_counter(
            "dcache_durability_fsync_batches_total",
            labels,
            report.wal_fsync_batches,
        );
        reg.set_counter(
            "dcache_durability_snapshot_bytes_total",
            labels,
            report.snapshot_bytes,
        );
        reg.describe(
            "dcache_durability_recoveries_total",
            Counter,
            "Storage-pod recoveries (snapshot load + WAL replay).",
        );
        reg.set_counter(
            "dcache_durability_recoveries_total",
            labels,
            report.recoveries,
        );
        reg.set_counter(
            "dcache_durability_replayed_entries_total",
            labels,
            report.replayed_entries,
        );
        reg.set_counter(
            "dcache_durability_lost_tail_entries_total",
            labels,
            report.lost_tail_entries,
        );
        reg.set_gauge(
            "dcache_durability_recovery_time_us",
            labels,
            report.recovery_time_us as f64,
        );
        reg.set_gauge(
            "dcache_durability_cold_refill_cpu_us",
            labels,
            report.cold_refill_cpu_us as f64,
        );
        reg.set_gauge(
            "dcache_durability_ssd_resident_bytes",
            labels,
            report.ssd_resident_bytes as f64,
        );
    }

    // Observability telemetry, only when the layer is on (so default runs
    // export byte-identical registries).
    if let Some(art) = obs {
        reg.describe(
            "dcache_latency_p999_us",
            Gauge,
            "99.9th-percentile end-to-end latency (microseconds).",
        );
        let read_labels: &[(&str, &str)] = &[("arch", arch), ("op", "read")];
        let write_labels: &[(&str, &str)] = &[("arch", arch), ("op", "write")];
        reg.set_gauge(
            "dcache_latency_p999_us",
            read_labels,
            report.read_latency_p999_us as f64,
        );
        reg.set_gauge(
            "dcache_latency_p999_us",
            write_labels,
            report.write_latency_p999_us as f64,
        );
        reg.describe(
            "dcache_slo_alerts_total",
            Counter,
            "SLO burn-rate alerts fired during the measured run.",
        );
        for rule in ["availability", "latency_p99_budget"] {
            let rule_labels: &[(&str, &str)] = &[("arch", arch), ("rule", rule)];
            reg.set_counter(
                "dcache_slo_alerts_total",
                rule_labels,
                art.alerts.iter().filter(|a| a.rule == rule).count() as u64,
            );
        }
        reg.describe(
            "dcache_tail_excess_us_total",
            Counter,
            "Latency excess above the p99 threshold, attributed per cause.",
        );
        for c in &art.tail.causes {
            let cause_labels: &[(&str, &str)] = &[("arch", arch), ("cause", c.cause.label())];
            reg.set_counter("dcache_tail_requests_total", cause_labels, c.count);
            reg.set_counter("dcache_tail_excess_us_total", cause_labels, c.excess_us);
        }
        reg.set_gauge(
            "dcache_tail_p99_threshold_us",
            labels,
            art.tail.threshold_us as f64,
        );
        reg.set_gauge(
            "dcache_obs_timeseries_samples",
            labels,
            art.timeseries.len() as f64,
        );
        reg.set_counter(
            "dcache_obs_timeseries_dropped_total",
            labels,
            art.timeseries.dropped(),
        );
    }

    // L0 hot-key-tier telemetry, only when the tier is on (so default runs
    // export byte-identical registries).
    if dep.l0_enabled() {
        let l0 = dep.l0_stats_total();
        reg.describe(
            l0_counters::HITS,
            Counter,
            "Reads served straight from the in-process L0 hot-key tier.",
        );
        reg.set_counter(l0_counters::HITS, labels, l0.hits);
        reg.set_counter(l0_counters::MISSES, labels, l0.misses);
        reg.set_counter(l0_counters::ADMITTED, labels, l0.admitted);
        reg.set_counter(l0_counters::REJECTED, labels, l0.rejected);
        reg.set_counter(
            l0_counters::STALE_ADMITS_DROPPED,
            labels,
            l0.stale_admits_dropped,
        );
        reg.set_counter(l0_counters::INVALIDATIONS, labels, l0.invalidations);
        reg.set_counter(
            l0_counters::INVALIDATION_MISSES,
            labels,
            l0.invalidation_misses,
        );
        reg.set_gauge("dcache_l0_hit_ratio", labels, report.l0_hit_ratio);
        reg.describe(
            "dcache_l0_stale_serves_total",
            Counter,
            "L0-served reads older than the latest committed write.",
        );
        reg.set_counter(
            "dcache_l0_stale_serves_total",
            labels,
            report.l0_stale_serves,
        );
        reg.set_gauge("dcache_l0_age_p50_us", labels, report.l0_age_p50_us as f64);
        reg.set_gauge("dcache_l0_age_p99_us", labels, report.l0_age_p99_us as f64);
        if !metrics.l0_age.is_empty() {
            reg.describe(
                "dcache_l0_age_ns",
                Summary,
                "Age of L0-served entries at serve time (nanoseconds).",
            );
            reg.set_summary("dcache_l0_age_ns", labels, metrics.l0_age.summary());
        }
    }

    // TTL-control-plane telemetry, only when the plane is on (so default
    // runs export byte-identical registries).
    if dep.ttl_enabled() {
        reg.describe(
            "dcache_ttl_decisions_total",
            Counter,
            "TTL planning rounds run across all tenant controllers.",
        );
        reg.set_counter("dcache_ttl_decisions_total", labels, report.ttl_decisions);
        reg.set_counter("dcache_ttl_changes_total", labels, report.ttl_changes);
        reg.describe(
            "dcache_ttl_expired_entries_total",
            Counter,
            "Entries reclaimed by heartbeat expiry sweeps.",
        );
        reg.set_counter(
            "dcache_ttl_expired_entries_total",
            labels,
            report.expired_entries,
        );
        reg.set_counter(
            "dcache_ttl_expiry_sweep_cpu_us_total",
            labels,
            report.expiry_sweep_cpu_us,
        );
        reg.set_gauge(
            "dcache_ttl_mean_resident_bytes",
            labels,
            report.ttl_mean_resident_bytes,
        );
        reg.describe(
            "dcache_ttl_current_secs",
            Gauge,
            "Adopted TTL per tenant at run end (0 = no decision yet).",
        );
        for (t, ctl) in dep.ttl.iter().enumerate() {
            let tenant_label = report
                .tenants
                .get(t)
                .map_or_else(|| t.to_string(), |tr| tr.label.clone());
            let tl: &[(&str, &str)] = &[("arch", arch), ("tenant", &tenant_label)];
            reg.set_gauge(
                "dcache_ttl_current_secs",
                tl,
                ctl.current_plan().map_or(0.0, |p| p.ttl_secs),
            );
            reg.set_gauge(
                "dcache_ttl_tracked_keys",
                tl,
                ctl.histogram().tracked_keys() as f64,
            );
        }
    }

    // Per-tenant accounting, only when the run had a tenant mix (so
    // single-workload runs export byte-identical registries).
    if !report.tenants.is_empty() {
        reg.describe(
            "dcache_tenant_requests_total",
            Counter,
            "Measured requests attributed to each tenant.",
        );
        for tr in &report.tenants {
            let tl: &[(&str, &str)] = &[("arch", arch), ("tenant", &tr.label)];
            reg.set_counter("dcache_tenant_requests_total", tl, tr.requests);
            reg.set_counter("dcache_tenant_cache_hits_total", tl, tr.cache_hits);
            reg.set_counter("dcache_tenant_stale_reads_total", tl, tr.stale_reads);
            reg.set_gauge("dcache_tenant_hit_ratio", tl, tr.hit_ratio);
            reg.set_gauge("dcache_tenant_monthly_dollars", tl, tr.monthly_dollars);
            reg.set_gauge("dcache_tenant_ttl_secs", tl, tr.ttl_secs);
        }
    }

    // Fault/degraded-path counters straight off the deployment.
    dep.metrics.export(&mut reg, "dcache_fault_", labels);
    // External-cache statistics (hits/misses/evictions/...).
    dep.linked_stats()
        .export(&mut reg, "dcache_linked_cache_", labels);
    dep.remote_stats()
        .export(&mut reg, "dcache_remote_cache_", labels);
    reg
}

/// A finished run plus everything needed to build its telemetry.
struct RunState {
    dep: Deployment,
    metrics: RunMetrics,
    obs: Option<crate::obs::ObsArtifacts>,
}

/// Run one KV cost experiment end to end.
pub fn run_kv_experiment(cfg: &KvExperimentConfig) -> StoreResult<ExperimentReport> {
    run_kv_experiment_core(cfg).map(|(report, _)| report)
}

/// Like [`run_kv_experiment`], but also returns the run's telemetry: the
/// metrics registry, the JSONL trace sample (empty unless
/// `cfg.trace_sample_every` is set), and the collapsed-stack CPU profile.
pub fn run_kv_experiment_with_telemetry(
    cfg: &KvExperimentConfig,
) -> StoreResult<(ExperimentReport, TelemetryBundle)> {
    let (report, state) = run_kv_experiment_core(cfg)?;
    let bundle = TelemetryBundle {
        registry: export_registry(&report, &state.dep, &state.metrics, state.obs.as_ref()),
        spans: state.dep.tracer.sink().iter().cloned().collect(),
        traces_jsonl: state.dep.tracer.sink().to_jsonl(),
        profile: cpu_profile(&state.dep),
        obs: state.obs,
    };
    Ok((report, bundle))
}

fn run_kv_experiment_core(cfg: &KvExperimentConfig) -> StoreResult<(ExperimentReport, RunState)> {
    let mut dep = Deployment::new(cfg.deployment.clone(), kv_catalog("kv"));
    if cfg.trace_sample_every.is_some() {
        dep.tracer = telemetry::Tracer::with_capacity(TRACE_SINK_CAPACITY);
    }

    // Seed the dataset: every key at generation 0. Multi-tenant runs load
    // each tenant's namespaced slice of the key space, tenant by tenant in
    // one call, so the storage pods load once; the classic single-workload
    // path is byte-for-byte untouched.
    let wl_cfg = &cfg.workload;
    match &cfg.tenants {
        None => {
            dep.cluster.bulk_load(
                "kv",
                (0..wl_cfg.keys).map(|k| {
                    vec![
                        Datum::Int(k as i64),
                        Datum::Payload {
                            len: wl_cfg.size_of(k),
                            seed: 0,
                        },
                    ]
                }),
            )?;
        }
        Some(mix) => {
            dep.cluster.bulk_load(
                "kv",
                mix.tenants.iter().enumerate().flat_map(|(t, spec)| {
                    let w = &spec.workload;
                    (0..w.keys).map(move |k| {
                        vec![
                            Datum::Int(namespaced_key(t, k) as i64),
                            Datum::Payload {
                                len: w.size_of(k),
                                seed: 0,
                            },
                        ]
                    })
                }),
            )?;
        }
    }

    if cfg.prewarm {
        // One pass over the keyspace fills the external caches and heats
        // the storage block caches. `prewarm_kv` loads that state without
        // billing it (single-flight and batching runs serve each read, and
        // the meters reset at the measurement boundary below).
        match &cfg.tenants {
            None => dep.prewarm_kv("kv", (0..wl_cfg.keys).map(|k| k as i64))?,
            Some(mix) => {
                for (t, spec) in mix.tenants.iter().enumerate() {
                    let keys = (0..spec.workload.keys).map(|k| namespaced_key(t, k) as i64);
                    dep.prewarm_kv("kv", keys)?;
                }
            }
        }
    }

    // One request-stream driver per tenant. Single-workload runs get one
    // driver, no picker, and no schedules, so their request sequence (and
    // RNG state) is exactly the classic path's.
    struct TenantRt {
        wl: KvWorkload,
        churn: Option<workloads::ChurnSchedule>,
        storm: Option<workloads::StormSchedule>,
        base_read_ratio: f64,
        requests: u64,
        reads: u64,
        writes: u64,
        cache_hits: u64,
        stale_reads: u64,
    }
    impl TenantRt {
        fn new(
            wl: KvWorkload,
            base_read_ratio: f64,
            churn: Option<workloads::ChurnSchedule>,
            storm: Option<workloads::StormSchedule>,
        ) -> Self {
            TenantRt {
                wl,
                churn,
                storm,
                base_read_ratio,
                requests: 0,
                reads: 0,
                writes: 0,
                cache_hits: 0,
                stale_reads: 0,
            }
        }
    }
    let mut tenants_rt: Vec<TenantRt> = match &cfg.tenants {
        None => vec![TenantRt::new(wl_cfg.build(), wl_cfg.read_ratio, None, None)],
        Some(mix) => mix
            .tenants
            .iter()
            .map(|s| TenantRt::new(s.workload.build(), s.workload.read_ratio, s.churn, s.storm))
            .collect(),
    };
    let mut picker = cfg.tenants.as_ref().map(|m| m.picker());
    let multi_tenant = cfg.tenants.is_some();
    dep.set_ttl_tenants(tenants_rt.len());
    // Per-key write generation; reads expect the latest generation.
    let mut generation: cachekit::fxhash::FxHashMap<u64, u64> = Default::default();
    let base_dt = SimDuration::from_secs_f64(1.0 / cfg.qps.max(1.0));
    let mut now = SimTime::ZERO;
    let mut metrics = RunMetrics::new();

    let total = cfg.warmup_requests + cfg.requests;
    let heartbeat_every = (cfg.qps as u64).max(1); // ~1 virtual second
    let mut measuring = false;
    let mut measure_start = SimTime::ZERO;
    let mut fault_driver = cfg.cache_fault_schedule.as_ref().map(FaultDriver::new);
    let deadline = cfg.deployment.fault_tolerance.request_deadline;
    let mut obs = cfg.observability.clone().map(|oc| {
        crate::obs::ObsState::new(
            oc,
            cfg.deployment.arch.label(),
            dep.cluster.durability_enabled(),
        )
    });

    // Load-window tracking: per-heartbeat cores (the peak of which is what
    // static provisioning pays for) and the capacity-over-time integral
    // (what elastic provisioning pays for). Only tracked when a run can
    // actually vary — diurnal load or an enabled controller — so the
    // default fixed-rate path stays untouched.
    let track_windows =
        cfg.diurnal.is_some() || dep.elastic.enabled() || dep.ttl_enabled() || obs.is_some();
    let mut peak_window_cores = 0.0f64;
    let mut window_busy_anchor = 0u64; // busy nanos at window start
    let mut window_start = SimTime::ZERO;
    let mut cap_integral = 0.0f64; // bytes · seconds
    let mut cap_peak = 0u64;
    let mut ttl_res_integral = 0.0f64; // TTL-aware resident bytes · seconds
    let total_busy = |dep: &Deployment| -> u64 {
        (dep.app_cpu_total().total()
            + dep.cache_cpu_total().total()
            + dep.cluster.frontend_cpu_total().total()
            + dep.cluster.storage_cpu_total().total())
        .as_nanos()
    };

    for i in 0..total {
        if i == cfg.warmup_requests {
            dep.reset_metrics();
            metrics = RunMetrics::new();
            measuring = true;
            measure_start = now;
            window_busy_anchor = 0;
            window_start = now;
            if let Some(o) = obs.as_mut() {
                o.on_measure_start();
            }
        }
        if i % heartbeat_every == 0 {
            dep.cluster.tick(now);
            dep.sharder.renew_all(now);
            // TTL plane housekeeping rides the same heartbeat: reclaim
            // expired entries (billing the sweeping tier per entry), then
            // give each tenant controller its decision check. Both are
            // no-ops while the plane is off.
            if dep.ttl_enabled() {
                dep.expire_sweep_tick(now);
                dep.ttl_maybe_decide(now.as_secs_f64(), &cfg.pricing);
            }
            if track_windows {
                if measuring && now > window_start {
                    let busy = total_busy(&dep);
                    let window = now.since(window_start);
                    let cores = (busy - window_busy_anchor) as f64 / window.as_nanos() as f64;
                    peak_window_cores = peak_window_cores.max(cores);
                    let cap = dep.elastic_cache_capacity_bytes();
                    cap_integral += cap as f64 * window.as_secs_f64();
                    cap_peak = cap_peak.max(cap);
                    if dep.ttl_enabled() {
                        ttl_res_integral +=
                            dep.cache_resident_bytes_at(now) as f64 * window.as_secs_f64();
                    }
                    window_busy_anchor = busy;
                    window_start = now;
                    if let Some(o) = obs.as_mut() {
                        o.heartbeat(now.as_nanos(), cores, cap, &metrics.read_latency);
                    }
                }
                if let Some(plan) = dep.elastic.maybe_decide(now.as_secs_f64(), &cfg.pricing) {
                    let before = dep.elastic_cache_capacity_bytes();
                    dep.apply_elastic_plan(plan, now);
                    let after = dep.elastic_cache_capacity_bytes();
                    if before != after {
                        if let Some(o) = obs.as_mut() {
                            o.on_resize(now.as_nanos(), before, after);
                        }
                    }
                }
            }
        }
        if let Some(at) = cfg.crash_leaders_at_request {
            if measuring && i == cfg.warmup_requests + at {
                for r in 0..dep.cluster.region_count() {
                    if let Some(slot) = dep.cluster.region(r).leader_slot() {
                        dep.cluster.region_mut(r).crash(slot);
                    }
                }
            }
        }
        if let Some(driver) = fault_driver.as_mut() {
            for ev in driver.due(now) {
                apply_fault(&mut dep, ev, now);
                if let Some(o) = obs.as_mut() {
                    o.on_fault(ev);
                }
            }
        }
        // Arm the tracer for sampled measured requests: the trace id is a
        // pure function of (workload seed, measured index), so two runs of
        // the same config produce byte-identical trace output.
        let measured_index = i.saturating_sub(cfg.warmup_requests);
        let sampled = measuring
            && cfg
                .trace_sample_every
                .is_some_and(|k| measured_index % k.max(1) == 0);
        // The trace id is the request's identity everywhere: tracer, latency
        // exemplars, and tail attribution all derive it the same way.
        let tid = telemetry::trace_id(cfg.workload.seed, measured_index);
        if sampled {
            dep.tracer.start_request(tid);
        }
        // Exemplar capture only runs with observability on, so plain runs
        // keep byte-identical latency state; counts and sums are identical
        // either way.
        let exemplar = (obs.is_some() && sampled).then_some(tid);
        // Pick the tenant (a dedicated RNG stream; single-workload runs
        // skip the draw), apply its stress schedules, and stamp its adopted
        // TTL onto the caches before serving.
        let tenant = picker.as_mut().map_or(0, |p| p.pick());
        let rt = &mut tenants_rt[tenant];
        if let Some(churn) = rt.churn {
            rt.wl.set_epoch(churn.epoch(now.as_secs_f64()));
        }
        if let Some(storm) = rt.storm {
            rt.wl
                .set_read_ratio(storm.read_ratio_at(now.as_secs_f64()).unwrap_or(rt.base_read_ratio));
        }
        let mut req = rt.wl.next_request();
        if multi_tenant {
            req.key = namespaced_key(tenant, req.key);
        }
        dep.ttl_begin_request(tenant);
        if measuring {
            rt.requests += 1;
        }
        match req.op {
            KvOp::Read => {
                // Feed the tenant's age histogram (no-op while the TTL
                // plane is off).
                dep.ttl_observe(tenant, req.key, req.value_bytes, now);
                let (out, penalty) =
                    with_failover(&mut dep, now, &mut metrics, measuring, |d, t| {
                        d.serve_kv_read("kv", req.key as i64, t)
                    })?;
                dep.tracer.span(
                    "request.read",
                    "client",
                    now.as_nanos(),
                    now.as_nanos() + (out.latency + penalty).as_nanos(),
                    0,
                    outcome_status(&out),
                );
                if measuring {
                    let latency_ns = (out.latency + penalty).as_nanos();
                    let stale = out.seed != Some(generation.get(&req.key).copied().unwrap_or(0));
                    metrics.record_read(&out, latency_ns, stale, exemplar);
                    metrics.check_deadline(out.latency + penalty, deadline);
                    rt.reads += 1;
                    rt.cache_hits += out.cache_hit as u64;
                    rt.stale_reads += stale as u64;
                    if let Some(o) = obs.as_mut() {
                        o.observe(crate::obs::RequestSample {
                            trace_id: tid,
                            t_ns: now.as_nanos(),
                            latency_ns,
                            is_read: true,
                            cache_hit: out.cache_hit,
                            degraded: out.degraded,
                            coalesced: out.coalesced,
                            retries: out.retries,
                            failover: penalty > SimDuration::ZERO,
                            over_deadline: out.latency + penalty > deadline,
                            in_fault_window: false,
                            in_resize_window: false,
                            traced: sampled,
                        });
                    }
                }
            }
            KvOp::Write => {
                let g = generation.entry(req.key).or_insert(0);
                *g += 1;
                let value = Datum::Payload {
                    len: req.value_bytes,
                    seed: *g,
                };
                let (out, penalty) =
                    with_failover(&mut dep, now, &mut metrics, measuring, |d, t| {
                        d.serve_kv_write("kv", req.key as i64, value.clone(), t)
                    })?;
                dep.tracer.span(
                    "request.write",
                    "client",
                    now.as_nanos(),
                    now.as_nanos() + (out.latency + penalty).as_nanos(),
                    0,
                    outcome_status(&out),
                );
                if measuring {
                    let latency_ns = (out.latency + penalty).as_nanos();
                    metrics.record_write(&out, latency_ns, exemplar);
                    rt.writes += 1;
                    metrics.check_deadline(out.latency + penalty, deadline);
                    if let Some(o) = obs.as_mut() {
                        o.observe(crate::obs::RequestSample {
                            trace_id: tid,
                            t_ns: now.as_nanos(),
                            latency_ns,
                            is_read: false,
                            cache_hit: false,
                            degraded: out.degraded,
                            coalesced: out.coalesced,
                            retries: out.retries,
                            failover: penalty > SimDuration::ZERO,
                            over_deadline: out.latency + penalty > deadline,
                            in_fault_window: false,
                            in_resize_window: false,
                            traced: sampled,
                        });
                    }
                }
            }
        }
        if sampled {
            dep.tracer.end_request();
        }
        now += match &cfg.diurnal {
            None => base_dt,
            Some(d) => SimDuration::from_secs_f64(
                base_dt.as_secs_f64() / d.multiplier(now.as_secs_f64()).max(1e-6),
            ),
        };
    }

    let duration = now.since(measure_start);
    let mut report = build_report(
        &dep,
        &metrics,
        cfg.qps,
        cfg.requests,
        duration,
        &cfg.pricing,
    );
    if track_windows {
        // Close the final partial window, then fill the window-derived
        // figures and re-bill elastic memory at its time-averaged capacity.
        if now > window_start {
            let busy = total_busy(&dep);
            let window = now.since(window_start);
            let cores = (busy - window_busy_anchor) as f64 / window.as_nanos() as f64;
            peak_window_cores = peak_window_cores.max(cores);
            let cap = dep.elastic_cache_capacity_bytes();
            cap_integral += cap as f64 * window.as_secs_f64();
            cap_peak = cap_peak.max(cap);
            if dep.ttl_enabled() {
                ttl_res_integral += dep.cache_resident_bytes_at(now) as f64 * window.as_secs_f64();
            }
        }
        report.peak_window_cores = peak_window_cores;
        report.elastic_mean_cache_bytes = cap_integral / duration.as_secs_f64().max(1e-9);
        report.elastic_peak_cache_bytes = cap_peak;
        if dep.elastic.enabled() {
            let mean = report.elastic_mean_cache_bytes;
            apply_memory_billing(&mut report, &dep, mean, &cfg.pricing);
        }
        if dep.ttl_enabled() {
            // TTL billing refines elastic billing when both are on: the
            // time-averaged *resident* footprint is never more than the
            // configured capacity, and it is what expiry actually frees.
            report.ttl_mean_resident_bytes =
                ttl_res_integral / duration.as_secs_f64().max(1e-9);
            let mean = report.ttl_mean_resident_bytes;
            apply_memory_billing(&mut report, &dep, mean, &cfg.pricing);
        }
    }
    if let Some(mix) = &cfg.tenants {
        let total_requests: u64 = tenants_rt.iter().map(|t| t.requests).sum();
        let total_dollars = report.total_cost.total();
        report.tenants = mix
            .tenants
            .iter()
            .zip(&tenants_rt)
            .enumerate()
            .map(|(t, (spec, rt))| {
                let ctl = dep.ttl.get(t).filter(|_| dep.ttl_enabled());
                TenantReport {
                    label: spec.label.clone(),
                    requests: rt.requests,
                    reads: rt.reads,
                    writes: rt.writes,
                    cache_hits: rt.cache_hits,
                    hit_ratio: if rt.reads == 0 {
                        0.0
                    } else {
                        rt.cache_hits as f64 / rt.reads as f64
                    },
                    stale_reads: rt.stale_reads,
                    ttl_secs: ctl
                        .and_then(|c| c.current_plan())
                        .map_or(0.0, |p| p.ttl_secs),
                    ttl_decisions: ctl.map_or(0, |c| c.decisions()),
                    ttl_changes: ctl.map_or(0, |c| c.ttl_changes()),
                    monthly_dollars: if total_requests == 0 {
                        0.0
                    } else {
                        total_dollars * rt.requests as f64 / total_requests as f64
                    },
                }
            })
            .collect();
    }
    let obs_artifacts = obs.map(|o| {
        let spans: Vec<telemetry::SpanRecord> = dep.tracer.sink().iter().cloned().collect();
        let art = o.finish(now.as_nanos(), &spans);
        report.slo_alerts_fired = art.alerts.len() as u64;
        report.tail_p99_threshold_us = art.tail.threshold_us;
        report.tail_causes = art
            .tail
            .causes
            .iter()
            .filter(|c| c.count > 0)
            .map(|c| (c.cause.label().to_string(), c.count, c.excess_us))
            .collect();
        art
    });
    Ok((
        report,
        RunState {
            dep,
            metrics,
            obs: obs_artifacts,
        },
    ))
}

/// Run a cost experiment from a captured/imported trace instead of a
/// generator (see `workloads::trace`). The dataset is seeded from the
/// trace's distinct keys at generation 0; the first `warmup_fraction` of
/// the trace warms caches unbilled, the rest is measured.
pub fn run_trace_experiment(
    deployment_cfg: &DeploymentConfig,
    trace: &[workloads::TraceRecord],
    qps: f64,
    warmup_fraction: f64,
    pricing: &Pricing,
) -> StoreResult<ExperimentReport> {
    let mut dep = Deployment::new(deployment_cfg.clone(), kv_catalog("kv"));

    // Seed every key at its first-seen size.
    let mut first_size: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for r in trace {
        first_size.entry(r.k).or_insert(r.b);
    }
    dep.cluster.bulk_load(
        "kv",
        first_size
            .iter()
            .map(|(&k, &b)| vec![Datum::Int(k as i64), Datum::Payload { len: b, seed: 0 }]),
    )?;

    let warmup = ((trace.len() as f64) * warmup_fraction.clamp(0.0, 1.0)) as usize;
    let dt = SimDuration::from_secs_f64(1.0 / qps.max(1.0));
    let mut now = SimTime::ZERO;
    let mut metrics = RunMetrics::new();
    let mut generation: cachekit::fxhash::FxHashMap<u64, u64> = Default::default();
    let heartbeat_every = (qps as u64).max(1);
    let mut measuring = false;
    let mut measure_start = SimTime::ZERO;

    for (i, record) in trace.iter().enumerate() {
        if i == warmup {
            dep.reset_metrics();
            metrics = RunMetrics::new();
            measuring = true;
            measure_start = now;
        }
        if (i as u64).is_multiple_of(heartbeat_every) {
            dep.cluster.tick(now);
            dep.sharder.renew_all(now);
        }
        let req = record
            .to_request()
            .map_err(|e| storekit::error::StoreError::Unsupported(e.to_string()))?;
        match req.op {
            KvOp::Read => {
                let out = dep.serve_kv_read("kv", req.key as i64, now)?;
                if measuring {
                    let stale = out.seed != Some(generation.get(&req.key).copied().unwrap_or(0));
                    metrics.record_read(&out, out.latency.as_nanos(), stale, None);
                }
            }
            KvOp::Write => {
                let g = generation.entry(req.key).or_insert(0);
                *g += 1;
                let value = Datum::Payload {
                    len: req.value_bytes,
                    seed: *g,
                };
                let out = dep.serve_kv_write("kv", req.key as i64, value, now)?;
                if measuring {
                    metrics.record_write(&out, out.latency.as_nanos(), None);
                }
            }
        }
        now += dt;
    }

    let measured = (trace.len() - warmup) as u64;
    let duration = now.since(measure_start);
    Ok(build_report(
        &dep, &metrics, qps, measured, duration, pricing,
    ))
}

/// Convenience: run the same workload across several architectures.
pub fn compare_architectures(
    archs: &[ArchKind],
    mut base_cfg: KvExperimentConfig,
) -> StoreResult<Vec<ExperimentReport>> {
    let mut out = Vec::new();
    for &arch in archs {
        base_cfg.deployment.arch = arch;
        out.push(run_kv_experiment(&base_cfg)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{SizeDist, TenantSpec};

    fn tiny_cfg(arch: ArchKind) -> KvExperimentConfig {
        KvExperimentConfig {
            deployment: DeploymentConfig::test_small(arch),
            workload: KvWorkloadConfig {
                keys: 500,
                alpha: 1.2,
                read_ratio: 0.9,
                sizes: SizeDist::Fixed(1_000),
                seed: 7,
                churn_period: None,
            },
            qps: 50_000.0,
            warmup_requests: 2_000,
            requests: 4_000,
            prewarm: false,
            crash_leaders_at_request: None,
            cache_fault_schedule: None,
            trace_sample_every: None,
            diurnal: None,
            observability: None,
            tenants: None,
            pricing: Pricing::default(),
        }
    }

    /// tiny_cfg compressed onto a fast virtual day: ~1 heartbeat (and so
    /// ~1 load window) per virtual second at peak rate, a full diurnal
    /// cycle every 8 virtual seconds, and a provisioning decision every 2.
    fn elastic_cfg(arch: ArchKind) -> KvExperimentConfig {
        let mut cfg = tiny_cfg(arch);
        cfg.qps = 2_000.0;
        // Warmup spans several decision intervals so the controller's big
        // first convergence step (and its refill churn) lands pre-measurement.
        cfg.warmup_requests = 8_000;
        cfg.requests = 12_000;
        cfg.diurnal = Some(workloads::DiurnalSchedule::sinusoid(8.0, 0.25));
        cfg.deployment.elastic = elastic::ElasticConfig {
            decision_interval_secs: 2.0,
            profiler: elastic::ShardsConfig::default(),
            planner: elastic::PlannerConfig {
                min_cache_bytes: 64 << 10,
                max_cache_bytes: cfg
                    .deployment
                    .total_linked_bytes()
                    .max(cfg.deployment.total_remote_bytes())
                    .max(1 << 20),
                mean_entry_bytes: 1_064,
                // Half the acceptance budget on *predicted* misses, leaving
                // the other half for refill churn after resizes.
                max_miss_ratio_delta: 0.01,
                ..elastic::PlannerConfig::default()
            },
        };
        cfg
    }

    #[test]
    fn experiment_types_are_send() {
        // The parallel sweep runner moves configs to worker threads and
        // results back; each worker builds its own deployment (simnet
        // engine, caches, telemetry sink), so everything involved must be
        // `Send`. Compile-time check.
        fn assert_send<T: Send>() {}
        assert_send::<KvExperimentConfig>();
        assert_send::<crate::unityapp::UnityExperimentConfig>();
        assert_send::<crate::sessionapp::SessionExperimentConfig>();
        assert_send::<ExperimentReport>();
        assert_send::<crate::deployment::Deployment>();
        assert_send::<TelemetryBundle>();
    }

    #[test]
    fn linked_beats_base_on_cost() {
        let base = run_kv_experiment(&tiny_cfg(ArchKind::Base)).unwrap();
        let linked = run_kv_experiment(&tiny_cfg(ArchKind::Linked)).unwrap();
        assert!(
            linked.saving_vs(&base) > 1.5,
            "linked {:.2}$ must be well below base {:.2}$",
            linked.total_cost.total(),
            base.total_cost.total()
        );
        assert!(linked.cache_hit_ratio > 0.7, "{}", linked.cache_hit_ratio);
        assert_eq!(base.cache_hit_ratio, 0.0);
    }

    #[test]
    fn remote_lands_between_base_and_linked() {
        let base = run_kv_experiment(&tiny_cfg(ArchKind::Base)).unwrap();
        let remote = run_kv_experiment(&tiny_cfg(ArchKind::Remote)).unwrap();
        let linked = run_kv_experiment(&tiny_cfg(ArchKind::Linked)).unwrap();
        let (b, r, l) = (
            base.total_cost.total(),
            remote.total_cost.total(),
            linked.total_cost.total(),
        );
        assert!(
            l < r && r < b,
            "expected linked {l} < remote {r} < base {b}"
        );
    }

    #[test]
    fn version_checks_erase_most_of_the_saving() {
        let base = run_kv_experiment(&tiny_cfg(ArchKind::Base)).unwrap();
        let linked = run_kv_experiment(&tiny_cfg(ArchKind::Linked)).unwrap();
        let checked = run_kv_experiment(&tiny_cfg(ArchKind::LinkedVersion)).unwrap();
        let linked_saving = linked.saving_vs(&base);
        let checked_saving = checked.saving_vs(&base);
        assert!(
            checked_saving < 0.5 * linked_saving,
            "version checks should erase most of the benefit: linked {linked_saving:.2}x vs checked {checked_saving:.2}x"
        );
        assert!(checked.version_checks > 0);
    }

    #[test]
    fn lease_owned_recovers_the_loss() {
        let checked = run_kv_experiment(&tiny_cfg(ArchKind::LinkedVersion)).unwrap();
        let leased = run_kv_experiment(&tiny_cfg(ArchKind::LeaseOwned)).unwrap();
        assert!(
            leased.total_cost.total() < checked.total_cost.total() * 0.6,
            "leases must undercut per-read checks: {} vs {}",
            leased.total_cost.total(),
            checked.total_cost.total()
        );
        assert_eq!(leased.stale_reads, 0, "lease-owned reads stay consistent");
    }

    #[test]
    fn no_stale_reads_in_steady_state() {
        for arch in ArchKind::ALL {
            let report = run_kv_experiment(&tiny_cfg(arch)).unwrap();
            if arch == ArchKind::LinkedTtl {
                // TTL freshness trades staleness for cost — the runner
                // must *observe* stale reads here (that's the measurement
                // the TTL ablation sweeps).
                assert!(
                    report.stale_reads > 0,
                    "{arch}: unsharded TTL replicas must show staleness"
                );
            } else {
                assert_eq!(
                    report.stale_reads, 0,
                    "{arch}: write-through ownership keeps caches coherent in-run"
                );
            }
        }
    }

    #[test]
    fn default_runs_report_no_l0_activity() {
        // With `l0: None` (every default config) the tier must be
        // structurally absent: no hits, no misses, no admissions, no
        // invalidations, no age distribution.
        for arch in [ArchKind::Remote, ArchKind::Linked] {
            let r = run_kv_experiment(&tiny_cfg(arch)).unwrap();
            assert_eq!(r.l0_hits, 0, "{arch}");
            assert_eq!(r.l0_misses, 0, "{arch}");
            assert_eq!(r.l0_hit_ratio, 0.0, "{arch}");
            assert_eq!(r.l0_admitted, 0, "{arch}");
            assert_eq!(r.l0_rejected, 0, "{arch}");
            assert_eq!(r.l0_invalidations, 0, "{arch}");
            assert_eq!(r.l0_stale_admits_dropped, 0, "{arch}");
            assert_eq!(r.l0_stale_serves, 0, "{arch}");
            assert_eq!(r.l0_age_p50_us, 0, "{arch}");
            assert_eq!(r.l0_age_p99_us, 0, "{arch}");
        }
    }

    #[test]
    fn remote_l0_serves_the_head_coherently() {
        let mut cfg = tiny_cfg(ArchKind::Remote);
        cfg.deployment.l0 = Some(crate::config::L0Config::default());
        let with = run_kv_experiment(&cfg).unwrap();
        let without = run_kv_experiment(&tiny_cfg(ArchKind::Remote)).unwrap();
        assert!(with.l0_hits > 0, "the Zipf head must land in the L0");
        assert!(with.l0_hit_ratio > 0.5, "{}", with.l0_hit_ratio);
        assert_eq!(
            with.stale_reads, 0,
            "invalidate-first L0 hits are always fresh"
        );
        assert_eq!(with.l0_stale_serves, 0);
        assert!(
            with.l0_invalidations > 0,
            "writes to resident hot keys must invalidate"
        );
        // The head is served in-process, so the remote tier's RPC CPU (and
        // the bill) drops; the few MB of duplicated L0 DRAM can't offset it.
        assert!(
            with.total_cost.total() < without.total_cost.total(),
            "L0 {:.2}$ must undercut plain Remote {:.2}$",
            with.total_cost.total(),
            without.total_cost.total()
        );
        assert!(
            with.read_latency_p50_us < without.read_latency_p50_us,
            "an in-process hit beats a cache-node RPC on latency"
        );
    }

    #[test]
    fn linked_l0_composes_and_stays_coherent() {
        let mut cfg = tiny_cfg(ArchKind::Linked);
        cfg.deployment.l0 = Some(crate::config::L0Config::default());
        let r = run_kv_experiment(&cfg).unwrap();
        assert!(r.l0_hits > 0);
        assert!(r.l0_admitted > 0);
        assert_eq!(r.stale_reads, 0, "invalidate-first keeps Linked+L0 coherent");
        assert_eq!(r.l0_stale_serves, 0);
    }

    #[test]
    fn serve_stale_l0_bounds_staleness() {
        let mut cfg = tiny_cfg(ArchKind::Remote);
        // Write-heavy to surface staleness within the run.
        cfg.workload.read_ratio = 0.5;
        let bound_us = 5_000.0;
        cfg.deployment.l0 = Some(crate::config::L0Config {
            consistency: crate::config::L0Consistency::ServeStale,
            stale_after_us: bound_us,
            ..crate::config::L0Config::default()
        });
        let r = run_kv_experiment(&cfg).unwrap();
        assert!(r.l0_hits > 0);
        assert!(
            r.l0_stale_serves > 0,
            "serve-stale under writes must be *observed* as stale serves"
        );
        assert!(
            r.stale_reads >= r.l0_stale_serves,
            "every stale L0 serve is a stale read"
        );
        assert_eq!(
            r.l0_invalidations, 0,
            "serve-stale writers leave the tier alone"
        );
        // Entries expire at the declared bound, so the measured age
        // distribution sits at or below it (histogram-bucket slack: 2x).
        assert!(r.l0_age_p99_us > 0);
        assert!(
            (r.l0_age_p99_us as f64) <= 2.0 * bound_us,
            "p99 age {}us must respect the {}us bound",
            r.l0_age_p99_us,
            bound_us
        );
    }

    #[test]
    fn latency_orders_match_architecture() {
        let base = run_kv_experiment(&tiny_cfg(ArchKind::Base)).unwrap();
        let linked = run_kv_experiment(&tiny_cfg(ArchKind::Linked)).unwrap();
        assert!(
            linked.read_latency_p50_us < base.read_latency_p50_us,
            "linked p50 {} must beat base p50 {}",
            linked.read_latency_p50_us,
            base.read_latency_p50_us
        );
    }

    #[test]
    fn report_accounting_is_self_consistent() {
        let r = run_kv_experiment(&tiny_cfg(ArchKind::Linked)).unwrap();
        let tier_total: f64 = r.tiers.iter().map(|t| t.cost.total()).sum();
        assert!((tier_total - r.total_cost.total()).abs() < 1e-9);
        let tier_cores: f64 = r.tiers.iter().map(|t| t.cores).sum();
        assert!((tier_cores - r.total_cores).abs() < 1e-12);
        for t in &r.tiers {
            let frac_sum: f64 = t.cpu_fractions.iter().map(|(_, f)| f).sum();
            assert!(frac_sum <= 1.0 + 1e-9);
        }
        assert!(r.cost_per_million_requests() > 0.0);
        // VM sizing: ceil(cores / 0.7 / 8) per tier, summed.
        for t in &r.tiers {
            let expect = (t.cores / 0.7 / 8.0).ceil() as u64;
            assert_eq!(t.vms_at_target_util, expect);
            // 70% headroom keeps queueing modest on every busy tier.
            if t.cores > 0.1 {
                assert!(
                    t.expected_queue_wait.is_finite() && t.expected_queue_wait < 1.0,
                    "tier {} queue wait {}",
                    t.name,
                    t.expected_queue_wait
                );
            }
        }
        assert!(r.total_vms() >= 1);
    }

    #[test]
    fn leader_crash_mid_run_recovers_with_visible_blip() {
        let mut cfg = tiny_cfg(ArchKind::Base);
        cfg.crash_leaders_at_request = Some(2_000);
        let crashed = run_kv_experiment(&cfg).unwrap();
        assert!(
            crashed.failovers > 0,
            "crashed leaders must trigger elections"
        );
        assert_eq!(crashed.stale_reads, 0, "failover must not corrupt data");

        let clean = run_kv_experiment(&tiny_cfg(ArchKind::Base)).unwrap();
        assert_eq!(clean.failovers, 0);
        assert!(
            crashed.read_latency_p99_us > clean.read_latency_p99_us,
            "the availability blip must show in tail latency: {} vs {}",
            crashed.read_latency_p99_us,
            clean.read_latency_p99_us
        );
        // Steady-state cost is essentially unchanged (the blip is latency,
        // not sustained CPU).
        let ratio = crashed.total_cost.total() / clean.total_cost.total();
        assert!((0.9..1.1).contains(&ratio), "cost ratio {ratio}");
    }

    #[test]
    fn trace_replay_matches_generator_run() {
        // Capture the generator's stream and replay it: the replayed run
        // must produce the identical report (same requests, same order).
        let cfg = tiny_cfg(ArchKind::Linked);
        let generated = run_kv_experiment(&cfg).unwrap();

        let mut wl = cfg.workload.build();
        let total = (cfg.warmup_requests + cfg.requests) as usize;
        let trace = workloads::trace::capture(&mut wl, total);
        let replayed = run_trace_experiment(
            &cfg.deployment,
            &trace,
            cfg.qps,
            cfg.warmup_requests as f64 / total as f64,
            &cfg.pricing,
        )
        .unwrap();
        // Compute and memory are bit-identical (same requests, same order);
        // disk differs slightly because the trace run seeds only the keys
        // the trace actually touches, not the whole configured keyspace.
        assert_eq!(generated.total_cost.compute, replayed.total_cost.compute);
        assert_eq!(generated.total_cost.memory, replayed.total_cost.memory);
        assert_eq!(generated.cache_hit_ratio, replayed.cache_hit_ratio);
        assert_eq!(generated.stale_reads, replayed.stale_reads);
    }

    #[test]
    fn scheduled_cache_crash_degrades_and_recovers() {
        use simnet::NodeId;
        // Crash every cache shard mid-measurement, restart shortly after.
        let mut cfg = tiny_cfg(ArchKind::Remote);
        cfg.deployment.fault_tolerance.single_flight = true;
        let dt = SimDuration::from_secs_f64(1.0 / cfg.qps);
        let crash_at = SimTime::ZERO + dt.saturating_mul(cfg.warmup_requests + 1_000);
        let downtime = dt.saturating_mul(1_000);
        let mut schedule = FaultSchedule::new();
        for shard in 0..cfg.deployment.remote_cache_nodes {
            schedule.crash_for(crash_at, NodeId(shard as u32), downtime);
        }
        cfg.cache_fault_schedule = Some(schedule);

        let faulty = run_kv_experiment(&cfg).unwrap();
        let mut clean_cfg = tiny_cfg(ArchKind::Remote);
        clean_cfg.deployment.fault_tolerance.single_flight = true;
        let clean = run_kv_experiment(&clean_cfg).unwrap();

        assert_eq!(
            faulty.cache_crashes,
            cfg.deployment.remote_cache_nodes as u64
        );
        assert_eq!(
            faulty.cache_restarts,
            cfg.deployment.remote_cache_nodes as u64
        );
        assert!(
            faulty.degraded_reads > 0,
            "outage window must degrade reads"
        );
        assert!(faulty.cache_retries > 0);
        assert!(faulty.net_dropped > 0);
        assert_eq!(clean.degraded_reads, 0);
        assert_eq!(clean.net_dropped, 0);
        assert!(
            faulty.read_latency_p99_us > clean.read_latency_p99_us,
            "outage must show in tail latency: {} vs {}",
            faulty.read_latency_p99_us,
            clean.read_latency_p99_us
        );
        assert!(
            faulty.cache_hit_ratio < clean.cache_hit_ratio,
            "cold restart costs hits: {} vs {}",
            faulty.cache_hit_ratio,
            clean.cache_hit_ratio
        );
        assert!(faulty.availability() <= 1.0);
    }

    #[test]
    fn scheduled_faults_are_deterministic() {
        use simnet::NodeId;
        let build = || {
            let mut cfg = tiny_cfg(ArchKind::Linked);
            cfg.deployment.fault_tolerance.single_flight = true;
            let dt = SimDuration::from_secs_f64(1.0 / cfg.qps);
            let crash_at = SimTime::ZERO + dt.saturating_mul(cfg.warmup_requests + 500);
            let mut schedule = FaultSchedule::new();
            schedule.crash_for(crash_at, NodeId(0), dt.saturating_mul(800));
            cfg.cache_fault_schedule = Some(schedule);
            cfg
        };
        let a = run_kv_experiment(&build()).unwrap();
        let b = run_kv_experiment(&build()).unwrap();
        assert_eq!(a, b, "same seed + same schedule must be byte-identical");
        assert!(a.degraded_reads > 0);
    }

    #[test]
    fn scheduled_storage_crash_uses_failover_path() {
        use simnet::NodeId;
        let mut cfg = tiny_cfg(ArchKind::Base);
        let dt = SimDuration::from_secs_f64(1.0 / cfg.qps);
        let crash_at = SimTime::ZERO + dt.saturating_mul(cfg.warmup_requests + 1_000);
        let mut schedule = FaultSchedule::new();
        for r in 0..cfg.deployment.cluster.regions {
            schedule.crash(crash_at, NodeId(STORAGE_FAULT_NODE_BASE + r as u32));
        }
        cfg.cache_fault_schedule = Some(schedule);
        let report = run_kv_experiment(&cfg).unwrap();
        assert!(report.failovers > 0, "dead leaders must trigger elections");
        assert_eq!(report.stale_reads, 0);
    }

    #[test]
    fn default_runs_report_no_durability_activity() {
        let r = run_kv_experiment(&tiny_cfg(ArchKind::Remote)).unwrap();
        assert_eq!(r.wal_appends, 0);
        assert_eq!(r.wal_fsync_batches, 0);
        assert_eq!(r.snapshot_bytes, 0);
        assert_eq!(r.recoveries, 0);
        assert_eq!(r.recovery_time_us, 0);
        assert_eq!(r.replayed_entries, 0);
        assert_eq!(r.lost_tail_entries, 0);
        assert_eq!(r.cold_refill_cpu_us, 0);
        assert_eq!(r.ssd_resident_bytes, 0);
        assert_eq!(r.total_cost.ssd, 0.0, "no SSD line without durability");
    }

    fn durable_cfg(arch: ArchKind) -> KvExperimentConfig {
        let mut cfg = tiny_cfg(arch);
        cfg.deployment.cluster.durability = storekit::DurabilityConfig {
            enabled: true,
            fsync: storekit::FsyncPolicy::Group(8),
            snapshot_every_entries: 256,
        };
        cfg
    }

    #[test]
    fn scheduled_storage_crash_recovers_through_wal_replay() {
        use simnet::NodeId;
        let mut cfg = durable_cfg(ArchKind::Base);
        let dt = SimDuration::from_secs_f64(1.0 / cfg.qps);
        let crash_at = SimTime::ZERO + dt.saturating_mul(cfg.warmup_requests + 1_000);
        let mut schedule = FaultSchedule::new();
        // Crash the pod hosting region 0's leader; bring it back after a
        // 500-request outage.
        schedule.crash_for(
            crash_at,
            NodeId(STORAGE_FAULT_NODE_BASE),
            dt.saturating_mul(500),
        );
        cfg.cache_fault_schedule = Some(schedule);
        let r = run_kv_experiment(&cfg).unwrap();
        assert!(r.wal_appends > 0, "writes must be WAL'd");
        assert_eq!(r.recoveries, 1, "one pod recovery");
        assert!(r.recovery_time_us > 0);
        assert!(r.cold_refill_cpu_us > 0, "block cache lost residency");
        assert!(r.ssd_resident_bytes > 0);
        assert!(r.total_cost.ssd > 0.0, "SSD residency is billed");
        assert!(r.failovers > 0, "requests tripped over dead leaders");
        assert_eq!(r.stale_reads, 0, "no acked write is ever lost");
    }

    #[test]
    fn durable_runs_are_deterministic() {
        use simnet::NodeId;
        let build = || {
            let mut cfg = durable_cfg(ArchKind::Base);
            let dt = SimDuration::from_secs_f64(1.0 / cfg.qps);
            let mut schedule = FaultSchedule::new();
            schedule.crash_for(
                SimTime::ZERO + dt.saturating_mul(cfg.warmup_requests + 800),
                NodeId(STORAGE_FAULT_NODE_BASE + 1),
                dt.saturating_mul(400),
            );
            cfg.cache_fault_schedule = Some(schedule);
            cfg
        };
        let a = run_kv_experiment(&build()).unwrap();
        let b = run_kv_experiment(&build()).unwrap();
        assert_eq!(a, b, "crash-replay must be fully deterministic");
        assert_eq!(a.recoveries, b.recoveries);
        assert_eq!(a.replayed_entries, b.replayed_entries);
    }

    #[test]
    fn memory_fraction_higher_for_linked_than_base() {
        let base = run_kv_experiment(&tiny_cfg(ArchKind::Base)).unwrap();
        let linked = run_kv_experiment(&tiny_cfg(ArchKind::Linked)).unwrap();
        assert!(
            linked.memory_cost_fraction() > base.memory_cost_fraction(),
            "linked {} vs base {}",
            linked.memory_cost_fraction(),
            base.memory_cost_fraction()
        );
    }

    #[test]
    fn default_runs_report_no_elastic_activity() {
        let r = run_kv_experiment(&tiny_cfg(ArchKind::Remote)).unwrap();
        assert_eq!(r.elastic_decisions, 0);
        assert_eq!(r.elastic_resizes, 0);
        assert_eq!(r.elastic_migrated_entries, 0);
        assert_eq!(r.peak_window_cores, 0.0);
        assert_eq!(r.elastic_mean_cache_bytes, 0.0);
        assert_eq!(r.elastic_peak_cache_bytes, 0);
    }

    #[test]
    fn diurnal_schedule_stretches_the_virtual_day() {
        let mut flat_cfg = elastic_cfg(ArchKind::Linked);
        flat_cfg.deployment.elastic = elastic::ElasticConfig::default();
        flat_cfg.diurnal = None;
        let flat = run_kv_experiment(&flat_cfg).unwrap();
        let mut cfg = elastic_cfg(ArchKind::Linked);
        cfg.deployment.elastic = elastic::ElasticConfig::default();
        let wavy = run_kv_experiment(&cfg).unwrap();
        assert_eq!(flat.requests, wavy.requests);
        // Sub-peak arrival rates stretch inter-arrival gaps, so the same
        // request count spans more virtual time than the flat-rate run.
        assert!(
            wavy.duration_secs > flat.duration_secs * 1.2,
            "diurnal {} vs flat {}",
            wavy.duration_secs,
            flat.duration_secs
        );
        // Windows were tracked, and the peak window runs hotter than the
        // run-average cores (that gap is the static-provisioning waste).
        assert!(wavy.peak_window_cores > wavy.total_cores, "{wavy:?}");
        assert_eq!(wavy.elastic_resizes, 0, "controller still off");
    }

    #[test]
    fn elastic_run_is_deterministic_and_actually_resizes() {
        let a = run_kv_experiment(&elastic_cfg(ArchKind::Remote)).unwrap();
        let b = run_kv_experiment(&elastic_cfg(ArchKind::Remote)).unwrap();
        assert_eq!(a, b, "elastic control loop must be fully deterministic");
        assert!(a.elastic_decisions > 0, "{a:?}");
        assert!(
            a.elastic_resizes > 0,
            "plan must differ from the static size"
        );
        assert!(a.elastic_peak_cache_bytes > 0);
        assert!(a.elastic_mean_cache_bytes > 0.0);
    }

    #[test]
    fn elastic_trims_the_memory_bill_and_keeps_hits() {
        // Same diurnal day, controller off vs on.
        let mut static_cfg = elastic_cfg(ArchKind::Linked);
        static_cfg.deployment.elastic = elastic::ElasticConfig::default();
        let fixed = run_kv_experiment(&static_cfg).unwrap();
        let flexed = run_kv_experiment(&elastic_cfg(ArchKind::Linked)).unwrap();

        assert!(
            flexed.elastic_mean_cache_bytes < static_cfg.deployment.total_linked_bytes() as f64,
            "mean capacity {} must undercut the static {} bytes",
            flexed.elastic_mean_cache_bytes,
            static_cfg.deployment.total_linked_bytes()
        );
        assert!(
            flexed.total_cost.memory < fixed.total_cost.memory,
            "elastic memory bill {} must beat static {}",
            flexed.total_cost.memory,
            fixed.total_cost.memory
        );
        assert!(
            (fixed.cache_hit_ratio - flexed.cache_hit_ratio).abs() <= 0.02,
            "hit ratio must stay within 2 points: static {} vs elastic {}",
            fixed.cache_hit_ratio,
            flexed.cache_hit_ratio
        );
    }

    /// tiny_cfg slowed to ~1 heartbeat per virtual second with the TTL
    /// control plane deciding every 2 virtual seconds. The candidate grid
    /// is capped well below the 7-day default so the adopted TTL is short
    /// enough for entries to lapse (and the sweeper to reclaim them)
    /// within the few virtual seconds the test simulates.
    fn ttl_cfg(arch: ArchKind) -> KvExperimentConfig {
        let mut cfg = tiny_cfg(arch);
        cfg.qps = 2_000.0;
        // Warmup spans several decision intervals so the first adopted TTL
        // (and the expiry churn it causes) lands pre-measurement.
        cfg.warmup_requests = 8_000;
        cfg.requests = 12_000;
        cfg.deployment.ttl = elastic::TtlConfig {
            decision_interval_secs: 2.0,
            max_ttl_secs: 8.0,
            ..elastic::TtlConfig::default()
        };
        cfg
    }

    #[test]
    fn default_runs_report_no_ttl_activity() {
        for arch in [ArchKind::Remote, ArchKind::Linked] {
            let r = run_kv_experiment(&tiny_cfg(arch)).unwrap();
            assert_eq!(r.ttl_decisions, 0);
            assert_eq!(r.ttl_changes, 0);
            assert_eq!(r.expired_entries, 0);
            assert_eq!(r.expiry_sweep_cpu_us, 0);
            assert!(r.ttl_current_secs.is_empty());
            assert_eq!(r.ttl_mean_resident_bytes, 0.0);
            assert!(r.tenants.is_empty());
        }
    }

    #[test]
    fn ttl_plane_is_gated_to_plain_cache_archs() {
        // LinkedTtl's fixed TTL *is* its consistency contract; the adaptive
        // plane must refuse to fight it even when configured on.
        let mut cfg = ttl_cfg(ArchKind::LinkedTtl);
        let with_plane = run_kv_experiment(&cfg).unwrap();
        assert_eq!(with_plane.ttl_decisions, 0);
        assert_eq!(with_plane.expired_entries, 0);
        cfg.deployment.ttl = elastic::TtlConfig::default();
        let without = run_kv_experiment(&cfg).unwrap();
        assert_eq!(
            with_plane, without,
            "an unsupported arch must ignore the TTL config entirely"
        );
    }

    #[test]
    fn ttl_run_is_deterministic_and_decides() {
        let a = run_kv_experiment(&ttl_cfg(ArchKind::Remote)).unwrap();
        let b = run_kv_experiment(&ttl_cfg(ArchKind::Remote)).unwrap();
        assert_eq!(a, b, "TTL control loop must be fully deterministic");
        assert!(a.ttl_decisions > 0, "{a:?}");
        assert!(a.ttl_changes > 0, "the first adoption counts as a change");
        assert_eq!(a.ttl_current_secs.len(), 1, "one controller, no tenants");
        let ttl = a.ttl_current_secs[0];
        assert!(
            (0.004..=8.0).contains(&ttl),
            "adopted TTL {ttl}s must respect the configured bounds"
        );
        assert!(a.expired_entries > 0, "short TTLs must lapse entries");
        assert!(a.expiry_sweep_cpu_us > 0, "reclaim work must be billed");
        assert!(a.ttl_mean_resident_bytes > 0.0);
    }

    #[test]
    fn ttl_plane_trims_the_memory_bill_and_keeps_hits() {
        let mut static_cfg = ttl_cfg(ArchKind::Remote);
        static_cfg.deployment.ttl = elastic::TtlConfig::default();
        let fixed = run_kv_experiment(&static_cfg).unwrap();
        let flexed = run_kv_experiment(&ttl_cfg(ArchKind::Remote)).unwrap();
        assert!(
            flexed.ttl_mean_resident_bytes
                < static_cfg.deployment.total_remote_bytes() as f64,
            "mean resident {} must undercut the configured {} bytes",
            flexed.ttl_mean_resident_bytes,
            static_cfg.deployment.total_remote_bytes()
        );
        assert!(
            flexed.total_cost.memory < fixed.total_cost.memory,
            "resident-byte billing {} must beat capacity billing {}",
            flexed.total_cost.memory,
            fixed.total_cost.memory
        );
        assert!(
            (fixed.cache_hit_ratio - flexed.cache_hit_ratio).abs() <= 0.02,
            "hit ratio must stay within 2 points: static {} vs ttl {}",
            fixed.cache_hit_ratio,
            flexed.cache_hit_ratio
        );
    }

    fn tenant_cfg(arch: ArchKind) -> KvExperimentConfig {
        let mut cfg = ttl_cfg(arch);
        let quiet = TenantSpec::new(
            "quiet",
            3.0,
            KvWorkloadConfig {
                keys: 400,
                alpha: 1.2,
                read_ratio: 0.95,
                sizes: SizeDist::Fixed(1_000),
                seed: 11,
                churn_period: None,
            },
        );
        let stormy = TenantSpec::new(
            "stormy",
            1.0,
            KvWorkloadConfig {
                keys: 400,
                alpha: 1.1,
                read_ratio: 0.9,
                sizes: SizeDist::Fixed(1_000),
                seed: 13,
                churn_period: None,
            },
        )
        .with_storm(3.0, 1.0, 0.2);
        cfg.tenants = Some(workloads::TenantMix::new(vec![quiet, stormy], 99));
        cfg
    }

    #[test]
    fn tenant_mix_reports_per_tenant_accounting() {
        let a = run_kv_experiment(&tenant_cfg(ArchKind::Remote)).unwrap();
        let b = run_kv_experiment(&tenant_cfg(ArchKind::Remote)).unwrap();
        assert_eq!(a, b, "tenant mixes must be fully deterministic");
        assert_eq!(a.tenants.len(), 2);
        assert_eq!(a.tenants[0].label, "quiet");
        assert_eq!(a.tenants[1].label, "stormy");
        // Per-tenant tallies partition the run-level totals exactly.
        assert_eq!(
            a.tenants.iter().map(|t| t.requests).sum::<u64>(),
            a.requests
        );
        let reads: u64 = a.tenants.iter().map(|t| t.reads).sum();
        let hits: u64 = a.tenants.iter().map(|t| t.cache_hits).sum();
        assert!(
            (hits as f64 / reads as f64 - a.cache_hit_ratio).abs() < 1e-12,
            "tenant hit tallies must re-derive the run-level hit ratio"
        );
        let dollars: f64 = a.tenants.iter().map(|t| t.monthly_dollars).sum();
        assert!(
            (dollars - a.total_cost.total()).abs() < 1e-6 * a.total_cost.total(),
            "showback split {dollars} must re-sum to the bill {}",
            a.total_cost.total()
        );
        for t in &a.tenants {
            assert_eq!(t.reads + t.writes, t.requests, "{}", t.label);
            assert!((0.0..=1.0).contains(&t.hit_ratio), "{}", t.label);
            assert!(t.ttl_decisions > 0, "{} controller never decided", t.label);
            assert!(t.ttl_secs > 0.0, "{} has no adopted TTL", t.label);
        }
        // The storm really happened: the write-heavy tenant writes a far
        // larger share of its traffic than the quiet one.
        let write_share = |t: &TenantReport| t.writes as f64 / t.requests as f64;
        assert!(
            write_share(&a.tenants[1]) > write_share(&a.tenants[0]) + 0.05,
            "storm tenant write share {} vs quiet {}",
            write_share(&a.tenants[1]),
            write_share(&a.tenants[0])
        );
        // Per-tenant controllers ⇒ per-tenant TTLs exported.
        assert_eq!(a.ttl_current_secs.len(), 2);
    }

    #[test]
    fn default_runs_report_no_obs_activity() {
        let r = run_kv_experiment(&tiny_cfg(ArchKind::Remote)).unwrap();
        assert_eq!(r.slo_alerts_fired, 0);
        assert_eq!(r.tail_p99_threshold_us, 0);
        assert!(r.tail_causes.is_empty());
        // p999 is always reported, observability or not.
        assert!(r.read_latency_p999_us >= r.read_latency_p99_us);
        assert!(r.write_latency_p999_us >= r.write_latency_p99_us);
    }

    #[test]
    fn observability_leaves_the_report_unchanged() {
        // The obs layer only *observes*: the cost/latency report of an
        // instrumented run must be byte-identical to the plain run. Lower
        // qps so the measured window spans several heartbeats (~1 virtual
        // second each).
        let slow = |arch| {
            let mut cfg = tiny_cfg(arch);
            cfg.qps = 2_000.0;
            cfg.warmup_requests = 4_000;
            cfg.requests = 8_000;
            cfg
        };
        let plain = run_kv_experiment(&slow(ArchKind::Linked)).unwrap();
        let mut cfg = slow(ArchKind::Linked);
        cfg.trace_sample_every = Some(20);
        cfg.observability = Some(crate::obs::ObsConfig::default());
        let (observed, bundle) = run_kv_experiment_with_telemetry(&cfg).unwrap();
        assert_eq!(plain.total_cost.total(), observed.total_cost.total());
        assert_eq!(plain.read_latency_p99_us, observed.read_latency_p99_us);
        assert_eq!(plain.read_latency_p999_us, observed.read_latency_p999_us);
        assert_eq!(plain.cache_hit_ratio, observed.cache_hit_ratio);
        let obs = bundle.obs.expect("artifacts present when enabled");
        assert!(!obs.timeseries.is_empty(), "heartbeats must be recorded");
        // Attribution covers the measured run and each tail request has
        // exactly one cause.
        assert_eq!(obs.tail.measured_requests, cfg.requests);
        let count: u64 = obs.tail.causes.iter().map(|c| c.count).sum();
        assert_eq!(count, obs.tail.tail_requests.len() as u64);
        assert!(observed.tail_p99_threshold_us > 0);
    }

    #[test]
    fn observed_fault_run_is_deterministic_and_attributes_the_tail() {
        use simnet::NodeId;
        let build = || {
            let mut cfg = tiny_cfg(ArchKind::Remote);
            cfg.deployment.fault_tolerance.single_flight = true;
            cfg.trace_sample_every = Some(10);
            cfg.observability = Some(crate::obs::ObsConfig {
                p99_budget_us: 400,
                ..crate::obs::ObsConfig::default()
            });
            let dt = SimDuration::from_secs_f64(1.0 / cfg.qps);
            let crash_at = SimTime::ZERO + dt.saturating_mul(cfg.warmup_requests + 1_000);
            let mut schedule = FaultSchedule::new();
            for shard in 0..cfg.deployment.remote_cache_nodes {
                schedule.crash_for(crash_at, NodeId(shard as u32), dt.saturating_mul(1_000));
            }
            cfg.cache_fault_schedule = Some(schedule);
            cfg
        };
        let (ra, ba) = run_kv_experiment_with_telemetry(&build()).unwrap();
        let (rb, bb) = run_kv_experiment_with_telemetry(&build()).unwrap();
        let (oa, ob) = (ba.obs.unwrap(), bb.obs.unwrap());
        assert_eq!(oa.timeseries.to_jsonl(), ob.timeseries.to_jsonl());
        assert_eq!(oa.alerts_json(), ob.alerts_json());
        assert_eq!(oa.tail.to_json(), ob.tail.to_json());
        assert_eq!(ra.slo_alerts_fired, rb.slo_alerts_fired);
        // The outage window must be annotated and charged to the tail.
        assert!(!oa.timeseries.annotations().is_empty(), "fault annotations");
        let fault_excess: u64 = oa
            .tail
            .causes
            .iter()
            .filter(|c| {
                matches!(
                    c.cause,
                    crate::obs::TailCause::FaultWindow | crate::obs::TailCause::RetryBackoff
                )
            })
            .map(|c| c.excess_us)
            .sum();
        assert!(
            fault_excess > 0,
            "outage must dominate the tail: {:?}",
            oa.tail.causes
        );
        assert!(ra.requests > 0);
    }
}
