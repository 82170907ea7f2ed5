//! The four benchmark workloads and how their inputs derive from the seed.
//!
//! Each workload is one `KvExperimentConfig`. The command-line seed is the
//! only source of randomness: the key streams, the tenant workloads, the
//! tenant picker and the deployment's internal RNG all derive from it, so
//! the same seed always yields the same simulated run. README.md gives the
//! reason for each workload and its working-set and cache sizes.

use cachekit::ring::splitmix64;
use dcache::experiment::KvExperimentConfig;
use dcache::ArchKind;
use workloads::tenants::namespaced_key;
use workloads::{KvWorkloadConfig, SizeDist, TenantMix, TenantSpec};

/// Seed the recorded baseline uses when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 42;

/// Keyspace of `meta-writes`: a quarter of the Meta-style 1M keys, so a
/// round takes about a second and a run holds several rounds.
pub const META_KEYS: u64 = 250_000;

/// Linked cache per app server on `meta-writes`: about 3% of the ~225 MB
/// working set (the same ratio as 8 MB per server at 1M keys), so
/// evictions and storage fills stay on the hot path.
pub const META_LINKED_CACHE_BYTES: u64 = 2 << 20;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    RemoteHit,
    LinkedVersion,
    MetaWrites,
    TtlTenants,
}

/// Full size (what the command measures) or a tiny variant for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::RemoteHit,
        Workload::LinkedVersion,
        Workload::MetaWrites,
        Workload::TtlTenants,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RemoteHit => "remote-hit",
            Workload::LinkedVersion => "linked-version",
            Workload::MetaWrites => "meta-writes",
            Workload::TtlTenants => "ttl-tenants",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Architectures whose reads must never be stale on this workload.
    pub fn requires_fresh_reads(self) -> bool {
        matches!(self, Workload::LinkedVersion | Workload::MetaWrites)
    }

    /// The experiment this workload runs for `seed`.
    pub fn config(self, seed: u64, scale: Scale) -> KvExperimentConfig {
        let tiny = scale == Scale::Tiny;
        let mut cfg = match self {
            Workload::RemoteHit | Workload::LinkedVersion => {
                let arch = if self == Workload::RemoteHit {
                    ArchKind::Remote
                } else {
                    ArchKind::LinkedVersion
                };
                let mut wl = KvWorkloadConfig::paper_synthetic(0.95, 1_024, seed);
                if tiny {
                    wl.keys = 2_000;
                }
                KvExperimentConfig::paper(arch, wl)
            }
            Workload::MetaWrites => {
                let mut wl = workloads::meta::meta_workload(seed);
                wl.keys = if tiny { 5_000 } else { META_KEYS };
                let mut cfg = KvExperimentConfig::paper(ArchKind::Linked, wl);
                cfg.deployment.linked_cache_bytes_per_server = if tiny {
                    64 << 10
                } else {
                    META_LINKED_CACHE_BYTES
                };
                cfg.warmup_requests = 100_000;
                cfg.requests = 100_000;
                cfg
            }
            Workload::TtlTenants => ttl_tenants(seed, tiny),
        };
        cfg.deployment.seed = derive(seed, 0xde91);
        if tiny {
            cfg.warmup_requests = cfg.warmup_requests.min(2_000);
            cfg.requests = cfg.requests.min(4_000);
        }
        cfg
    }
}

/// An independent stream seed for one input of a seeded run.
pub fn derive(seed: u64, salt: u64) -> u64 {
    splitmix64(seed ^ splitmix64(salt))
}

/// Two tenants on one Remote tier with the TTL plane on: the quiet victim
/// and the storm-prone aggressor of `bench::ttl`'s isolation pair, scaled
/// to `bench::ttl`'s DRAM-heavy footprint (20K keys of 4 KB between them,
/// memory at 8× list price) and its 2,000 QPS heartbeat cadence.
fn ttl_tenants(seed: u64, tiny: bool) -> KvExperimentConfig {
    use bench::ttl;
    let keys = if tiny { 500 } else { ttl::KEYS / 2 };
    let tenant = |alpha, read_ratio, salt| KvWorkloadConfig {
        keys,
        alpha,
        read_ratio,
        sizes: SizeDist::Fixed(ttl::VALUE_BYTES),
        seed: derive(seed, salt),
        churn_period: None,
    };
    let victim = TenantSpec::new("victim", 2.0, tenant(1.2, 0.95, 1));
    let aggressor = TenantSpec::new("aggressor", 1.0, tenant(1.1, 0.9, 2)).with_storm(
        ttl::STORM_PERIOD_SECS,
        ttl::STORM_BURST_SECS,
        ttl::STORM_READ_RATIO,
    );
    // `cfg.workload` is ignored once tenants are set, except that its seed
    // names the run's trace ids.
    let mut cfg = KvExperimentConfig::paper(ArchKind::Remote, victim.workload.clone());
    cfg.deployment.remote_cache_bytes_per_node = ttl::CACHE_BYTES;
    cfg.deployment.ttl = ttl::ttl_plane_config();
    cfg.pricing = costmodel::Pricing::default().with_memory_multiplier(ttl::MEM_PRICE_MULT);
    cfg.qps = ttl::PEAK_QPS;
    cfg.warmup_requests = 40_000;
    cfg.requests = 120_000;
    cfg.tenants = Some(TenantMix::new(vec![victim, aggressor], derive(seed, 3)));
    cfg
}

/// Keys the run loads and prewarms, in load order (namespaced per tenant
/// for multi-tenant runs), with each key's value size.
pub fn dataset(cfg: &KvExperimentConfig) -> Vec<(u64, u64)> {
    match &cfg.tenants {
        None => (0..cfg.workload.keys)
            .map(|k| (k, cfg.workload.size_of(k)))
            .collect(),
        Some(mix) => mix
            .tenants
            .iter()
            .enumerate()
            .flat_map(|(t, spec)| {
                let w = &spec.workload;
                (0..w.keys).map(move |k| (namespaced_key(t, k), w.size_of(k)))
            })
            .collect(),
    }
}

/// Simulated requests one run serves: prewarm reads, warmup and measured.
pub fn simulated_requests(cfg: &KvExperimentConfig) -> u64 {
    let keys = match &cfg.tenants {
        None => cfg.workload.keys,
        Some(mix) => mix.tenants.iter().map(|t| t.workload.keys).sum(),
    };
    let prewarm = if cfg.prewarm { keys } else { 0 };
    prewarm + cfg.warmup_requests + cfg.requests
}
