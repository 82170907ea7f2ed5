//! A deployed service: app servers + (maybe) a cache tier + the database.
//!
//! [`Deployment::serve_kv_read`] / [`serve_kv_write`](Deployment::serve_kv_write)
//! implement the §2.4 serving paths, charging CPU to the tier that does each
//! piece of work:
//!
//! ```text
//! Base:           client → app ───────────────→ SQL frontend → storage
//! Remote:         client → app → cache server ↘ (miss) ──────→ …
//! Linked:         client → app(owner shard) cache hit | miss → …
//! Linked+Version: client → app cache hit + version check ────→ …
//! LeaseOwned:     client → app cache hit + local lease check
//! ```
//!
//! Every path ends with the app serializing the response to the client —
//! that cost is common to all architectures; what differs is the storage-
//! and cache-side work, which is exactly the paper's point.
//!
//! The read path is written once. The linked family shares one branch:
//! shard-up check, L0 front check, LeaseOwned's lease charge, the probe,
//! and a version check for LinkedVersion (and for LeaseOwned once its
//! lease has lapsed). Its tail — serve the hit, or fill from storage,
//! insert and offer the value to L0 — is the one Remote and the batched
//! MGET path use too. [`Deployment::prewarm_kv`] runs that same path with
//! billing off: storage reads become unbilled loads and the billing
//! helpers return before computing a cost, so a prewarm leaves the state
//! serving leaves without paying for what `reset_metrics` discards.

use crate::config::{ArchKind, DeploymentConfig};
use crate::lease::AutoSharder;
use cachekit::{Cache, InternedKey, KeyInterner};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::{CpuCategory, CpuMeter, MetricSet, Network, NodeId, SimDuration, SimTime};
use std::collections::HashMap;
use storekit::cluster::{CachedStatement, QueryReceipt, SqlCluster, WarmTable};
use storekit::error::{StoreError, StoreResult};
use storekit::row::Row;
use storekit::schema::Catalog;
use storekit::value::Datum;
use telemetry::{SpanStatus, Tracer};

/// Names of the fault/degraded-path counters a deployment maintains in its
/// [`MetricSet`]; the experiment runner lifts them into `ExperimentReport`.
pub mod fault_counters {
    /// Reads served straight from storage because the cache shard was down.
    pub const DEGRADED_READS: &str = "degraded_reads";
    /// Retry attempts against an unresponsive cache shard.
    pub const RETRIES: &str = "cache_retries";
    /// Storage fills elided by single-flight request coalescing.
    pub const STAMPEDE_SUPPRESSED: &str = "stampede_suppressed";
    /// Cache shards crashed (contents wiped).
    pub const CACHE_CRASHES: &str = "cache_crashes";
    /// Cache shards restarted (cold).
    pub const CACHE_RESTARTS: &str = "cache_restarts";
    /// Remote-cache invalidations skipped because the shard was unreachable.
    pub const INVALIDATIONS_SKIPPED: &str = "invalidations_skipped";
    /// Linked-cache updates skipped because the shard was down.
    pub const CACHE_UPDATES_SKIPPED: &str = "cache_updates_skipped";
}

/// Names of the batched-RPC counters a deployment maintains in its
/// [`MetricSet`] when [`crate::config::BatchingConfig`] is enabled; the
/// experiment runner lifts them into `ExperimentReport`. Both stay absent
/// (zero) while batching is off, so default runs export identical metrics.
pub mod batch_counters {
    /// App→remote-cache RPC frames opened (each pays the fixed per-RPC cost
    /// once).
    pub const RPC_BATCHES: &str = "rpc_batches";
    /// Keys/operations carried by those frames (openers and followers).
    pub const BATCHED_RPC_KEYS: &str = "batched_rpc_keys";
}

/// Names of the elastic-provisioning counters a deployment maintains in its
/// [`MetricSet`] when [`elastic::ElasticConfig`] is enabled; the experiment
/// runner lifts them into `ExperimentReport`. All stay absent (zero) while
/// the controller is off, so default runs export identical metrics.
pub mod elastic_counters {
    /// Plan applications that changed at least one cache's capacity.
    pub const RESIZES: &str = "elastic_resizes";
    /// Entries evicted by capacity shrinks (not by normal cache pressure).
    pub const RESIZE_EVICTIONS: &str = "elastic_resize_evictions";
    /// Remote cache nodes drained out of the ring by a scale-down.
    pub const SHARDS_DRAINED: &str = "elastic_shards_drained";
    /// Remote cache nodes restored into the ring by a scale-up.
    pub const SHARDS_RESTORED: &str = "elastic_shards_restored";
    /// Entries moved between remote nodes by drain/restore migration.
    pub const MIGRATED_ENTRIES: &str = "elastic_migrated_entries";
    /// Bytes moved between remote nodes by drain/restore migration.
    pub const MIGRATED_BYTES: &str = "elastic_migrated_bytes";

    /// Every elastic counter, for bulk snapshot/carry-over.
    pub const ALL: &[&str] = &[
        RESIZES,
        RESIZE_EVICTIONS,
        SHARDS_DRAINED,
        SHARDS_RESTORED,
        MIGRATED_ENTRIES,
        MIGRATED_BYTES,
    ];
}

/// Registry names under which the L0 tier's aggregated
/// [`cachekit::L0Stats`] are exported when [`crate::config::L0Config`] is
/// enabled. The whole family is absent from default runs, so their
/// registries stay byte-identical.
pub mod l0_counters {
    /// Reads served straight from the in-process L0 tier.
    pub const HITS: &str = "dcache_l0_hits_total";
    /// L0 probes that fell through to the authoritative path.
    pub const MISSES: &str = "dcache_l0_misses_total";
    /// Values accepted by the TinyLFU admission gate.
    pub const ADMITTED: &str = "dcache_l0_admitted_total";
    /// Values the gate judged colder than the resident victim.
    pub const REJECTED: &str = "dcache_l0_rejected_total";
    /// Admits dropped because the resident entry was already newer.
    pub const STALE_ADMITS_DROPPED: &str = "dcache_l0_stale_admits_dropped_total";
    /// Entries removed by write-path versioned invalidations.
    pub const INVALIDATIONS: &str = "dcache_l0_invalidations_total";
    /// Invalidations that found nothing older to remove.
    pub const INVALIDATION_MISSES: &str = "dcache_l0_invalidation_misses_total";
}

/// Names of the TTL-control-plane counters a deployment maintains in its
/// [`MetricSet`] when [`elastic::TtlConfig`] is enabled; the experiment
/// runner lifts them into `ExperimentReport`. All stay absent (zero) while
/// the plane is off, so default runs export identical metrics.
pub mod ttl_counters {
    /// TTL planning rounds run, summed over every tenant controller.
    pub const DECISIONS: &str = "ttl_decisions";
    /// Decisions that changed some tenant's adopted TTL.
    pub const TTL_CHANGES: &str = "ttl_changes";
    /// Entries reclaimed by heartbeat expiry sweeps.
    pub const EXPIRED_ENTRIES: &str = "ttl_expired_entries";
    /// CPU charged for those sweeps, in nanoseconds (integer so it can
    /// live in the counter set; reports convert to µs).
    pub const SWEEP_CPU_NANOS: &str = "ttl_expiry_sweep_cpu_nanos";

    /// Every TTL counter, for bulk snapshot/carry-over.
    pub const ALL: &[&str] = &[DECISIONS, TTL_CHANGES, EXPIRED_ENTRIES, SWEEP_CPU_NANOS];
}

/// One open coalescing frame on an (app server, cache node) pair: requests
/// admitted within `[opened_at, departs_at)` ride the same wire frame, up
/// to `max_batch` occupants. The lower bound matters: admission times are
/// per-request virtual times (arrival + accumulated latency), so an op can
/// be admitted at a sim time *earlier* than a frame another request already
/// opened — in wall-clock terms that op was sent before the frame existed,
/// and letting it join would ratchet waits unboundedly (each high-latency
/// op opens a later frame that captures earlier-stamped ops with huge
/// waits, whose fills open frames later still).
#[derive(Debug, Clone, Copy)]
struct BatchWindow {
    opened_at: SimTime,
    departs_at: SimTime,
    occupancy: u32,
}

/// What the cache stores per key: enough to serve (and verify) a value
/// without materializing payload bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CachedVal {
    /// MVCC version of the row this value came from.
    pub version: u64,
    /// Logical value size (drives serving costs and cache charge).
    pub bytes: u64,
    /// Content identity (Payload seed), used by staleness checks.
    pub seed: u64,
}

/// Per-request outcome, consumed by the experiment runner.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeOutcome {
    pub latency: SimDuration,
    /// Whether an external cache (remote or linked) served the value.
    pub cache_hit: bool,
    /// Logical bytes returned to the client.
    pub bytes: u64,
    /// Content identity of the served value (None for writes/missing keys).
    pub seed: Option<u64>,
    /// MVCC version served or written.
    pub version: Option<u64>,
    /// Version-check round trips performed.
    pub version_checks: u64,
    /// SQL statements executed against the database.
    pub sql_statements: u64,
    /// True when the key was not found anywhere.
    pub not_found: bool,
    /// True when the read bypassed a down cache shard and served from
    /// storage (degraded mode).
    pub degraded: bool,
    /// True when the storage fill was coalesced onto an identical in-flight
    /// fill (single-flight).
    pub coalesced: bool,
    /// Cache-RPC retries this request performed.
    pub retries: u64,
    /// True when the in-process L0 hot-key tier served the value (implies
    /// `cache_hit`).
    pub l0_hit: bool,
    /// Age of the L0 entry at serve time, nanoseconds (0 unless `l0_hit`).
    /// Under serve-stale this is the request's staleness upper bound.
    pub l0_age_nanos: u64,
}

/// In-flight storage fills keyed by cache key: while a fill is outstanding
/// (its completion time is still in the future), identical misses ride on it
/// instead of issuing their own SQL statement.
#[derive(Debug, Default)]
struct SingleFlight {
    inflight: cachekit::FxHashMap<InternedKey, (SimTime, Option<CachedVal>)>,
}

impl SingleFlight {
    /// If an identical fill completes after `now`, return its completion
    /// time and result; expired entries are dropped lazily.
    fn check(&mut self, key: InternedKey, now: SimTime) -> Option<(SimTime, Option<CachedVal>)> {
        match self.inflight.get(&key) {
            Some(&(done_at, val)) if done_at > now => Some((done_at, val)),
            Some(_) => {
                self.inflight.remove(&key);
                None
            }
            None => None,
        }
    }

    fn record(&mut self, key: InternedKey, done_at: SimTime, val: Option<CachedVal>) {
        self.inflight.insert(key, (done_at, val));
    }

    /// A write or delete makes any in-flight result unsafe to share.
    fn invalidate(&mut self, key: InternedKey) {
        self.inflight.remove(&key);
    }
}

/// One deployed architecture.
pub struct Deployment {
    /// Fixed at construction: charges priced from it once ([`AppCharges`])
    /// must agree with those priced from it per call. Read it through
    /// [`Deployment::config`].
    config: DeploymentConfig,
    pub cluster: SqlCluster,
    /// CPU meters, one per app server.
    pub app_cpu: Vec<CpuMeter>,
    /// CPU meters, one per remote cache node (empty unless Remote).
    pub cache_cpu: Vec<CpuMeter>,
    /// Linked cache shards, one per app server (linked-family archs).
    /// Keyed by interned keys — see [`Deployment::intern_bytes`].
    pub(crate) linked: Vec<Cache<InternedKey, CachedVal>>,
    /// Remote cache nodes (Remote only).
    pub(crate) remote: Vec<Cache<InternedKey, CachedVal>>,
    /// In-process L0 hot-key tiers, one per app server. Empty unless
    /// `config.l0` is set *and* the architecture supports the tier
    /// ([`ArchKind::supports_l0`]), so default runs never touch it.
    pub(crate) l0: Vec<cachekit::L0Cache<InternedKey, CachedVal>>,
    /// Key → shard routing for both cache families, plus lease state.
    pub sharder: AutoSharder,
    remote_ring: cachekit::HashRing,
    /// Round-robin app-server pointer for unsharded request routing.
    rr: usize,
    /// Liveness per linked shard (same index as `linked`).
    linked_up: Vec<bool>,
    /// Liveness per remote cache node (same index as `remote`).
    remote_up: Vec<bool>,
    /// Fabric between app servers (node id = server index) and remote cache
    /// nodes (node id = `CACHE_NODE_BASE` + node index). Adjudicates message
    /// fate under crashes/partitions and tracks delivery counters; latency
    /// cost stays with `cluster.link` as before.
    pub net: Network,
    /// Seeded RNG for fault adjudication and retry jitter. Drawn from only
    /// on faulty paths, so healthy runs stay byte-identical.
    net_rng: StdRng,
    /// Fault/degraded-path counters (see [`fault_counters`]).
    pub metrics: MetricSet,
    single_flight: SingleFlight,
    /// Open coalescing frames keyed by (app server, remote cache node).
    /// Never populated unless `config.batching` is enabled, so default
    /// runs do no hashing here. Keyed by (app server, cache node, update?):
    /// lookups coalesce into MGET frames and fills/invalidations into MSET
    /// frames, mirroring the wire protocol's separate batch ops — and
    /// keeping the two populations' very different admission times (a fill
    /// is admitted a storage read's latency later than a lookup) from
    /// starving each other's frames.
    batch_windows: HashMap<(usize, usize, bool), BatchWindow>,
    /// Frames by their current size: `batch_size_counts[s]` frames carry
    /// exactly `s` keys. Maintained incrementally as frames open and grow
    /// (open: size 1 appears; join: one frame moves from `n-1` to `n`), so
    /// no end-of-run flush is needed.
    pub batch_size_counts: HashMap<u32, u64>,
    /// Span recorder for sampled requests. Disabled by default; the
    /// experiment runner arms it per sampled request, so untraced runs pay
    /// nothing and stay byte-identical. Span clocks are virtual nanos:
    /// request arrival plus latency accumulated so far.
    pub tracer: Tracer,
    /// Storage pods taken down by scheduled crash faults while durability
    /// is on, keyed by the region id the fault addressed (so the paired
    /// `Restart` event recovers the same pod). Empty unless the fault
    /// engine actually crashes durable pods.
    pub(crate) crashed_storage_pods: std::collections::BTreeMap<usize, usize>,
    /// Online MRC profiler + cost planner (see [`elastic`]). Disabled by
    /// default: `observe`/`maybe_decide` are no-ops, so baseline runs stay
    /// byte-identical. The experiment runner drives decisions from its
    /// heartbeat and applies them via [`Deployment::apply_elastic_plan`].
    pub elastic: elastic::ElasticController,
    /// Per-tenant TTL controllers (see [`elastic::TtlController`]); index =
    /// tenant id, and single-tenant runs use entry 0. Disabled by default:
    /// every entry point checks [`Deployment::ttl_enabled`] first, so
    /// baseline runs stay byte-identical. The experiment runner feeds
    /// accesses via [`Deployment::ttl_observe`], drives decisions from its
    /// heartbeat, and the adopted TTLs reach the caches through
    /// [`Deployment::ttl_begin_request`].
    pub ttl: Vec<elastic::TtlController>,
    /// Per-table KV statements parsed + planned once (first use) and reused
    /// on every serve — a wall-clock-only optimization: cached executions
    /// charge exactly what `SqlCluster::execute` would for the same text.
    /// A deployment serves a handful of tables, so a scan by name beats
    /// hashing the name on every statement.
    sql_stmts: Vec<(String, TableSql)>,
    /// Ids for cache keys longer than 23 bytes; shorter keys are their own
    /// identity and never touch it. An interned key carries the same hashes
    /// the byte key produced, so interning changes wall-clock only — never
    /// simulated behaviour.
    pub(crate) interner: KeyInterner,
    /// Reusable buffer for building `table/key` bytes before interning;
    /// keeps the steady-state serve path allocation-free.
    key_scratch: Vec<u8>,
    /// The receipt every KV statement fills (reads, version checks, writes
    /// and deletes), so its row and version buffers are reused and a
    /// steady-state statement allocates nothing for its result.
    receipt: QueryReceipt,
    /// Set only for the length of [`Deployment::prewarm_kv`]'s loop: reads
    /// change state exactly as served, but storage reads are unbilled
    /// loads ([`SqlCluster::warm_point_read`]) and the billing helpers
    /// return before computing a cost.
    warming: bool,
    /// The row buffer warm storage reads decode into, the prewarmed table
    /// (resolved once per prewarm) and the position of its `v` column.
    warm_row: Row,
    warm_table: Option<WarmTable>,
    warm_value_col: usize,
    /// The app-side charges that depend on `config` alone, priced once;
    /// `config` is private, so it cannot change after construction.
    fixed: AppCharges,
    /// The byte-priced charges of the last database round trip.
    db_rpc: DbRpcMemo,
}

/// The charges of one database round trip that depend on its request and
/// response bytes, kept for the next round trip of the same sizes. Every
/// version probe of a present key repeats them. In perfbench at seed 42,
/// 91% of round trips reuse the last one's charges on `linked-version`,
/// 60% on `ttl-tenants`, 52% on `remote-hit` and 15% on `meta-writes`.
#[derive(Debug, Clone, Copy, Default)]
struct DbRpcMemo {
    /// `(request, response)` bytes these charges were priced for.
    bytes: Option<(u64, u64)>,
    /// Both RPC sides.
    rpc: SimDuration,
    /// Deserializing the response.
    deser: SimDuration,
    /// The link's delivery of the request and of the response.
    wire: SimDuration,
}

/// App-side charges of a serve that depend on the deployment's cost
/// configuration alone, priced once in [`Deployment::new`]. Each is exactly
/// the duration its per-request pricing gave.
#[derive(Debug, Clone, Copy)]
struct AppCharges {
    /// Preparing one database request.
    request_prep: SimDuration,
    /// One linked-cache operation.
    linked_op: SimDuration,
}

/// The four statement shapes the KV serve paths issue, pre-planned per
/// table (see [`storekit::cluster::CachedStatement`]). Each statement is
/// prepared on first use: the KV-shaped trio (`... WHERE k = ?`) only
/// validates against KV tables, while the version probe works for any
/// table — rich-object paths only ever need the latter.
#[derive(Default)]
struct TableSql {
    select: Option<CachedStatement>,
    replace: Option<CachedStatement>,
    delete: Option<CachedStatement>,
    version: Option<CachedStatement>,
}

/// Selector into a [`TableSql`] entry.
#[derive(Clone, Copy)]
enum KvStmt {
    Select,
    Replace,
    Delete,
    Version,
}

/// Remote cache node `i` appears on the fault fabric as `CACHE_NODE_BASE+i`;
/// ids below the base are app servers.
pub const CACHE_NODE_BASE: u32 = 64;

/// Fault-fabric id of remote cache node `i`.
pub fn cache_node_id(i: usize) -> NodeId {
    NodeId(CACHE_NODE_BASE + i as u32)
}

impl Deployment {
    /// Build a deployment serving data described by `catalog`.
    pub fn new(config: DeploymentConfig, catalog: Catalog) -> Self {
        let cluster = SqlCluster::new(catalog, config.cluster.clone());
        let build_cache = |capacity: u64| {
            let cache = Cache::new(capacity, config.cache_policy);
            if config.cache_admission {
                // Sketch sized for entries of ~1 KB and up; smaller entries
                // just share counters a little more.
                cache.with_tinylfu((capacity / 1024).clamp(1_024, 4 << 20) as usize)
            } else {
                cache
            }
        };
        let linked = if config.arch.has_linked_cache() {
            (0..config.app_servers)
                .map(|_| build_cache(config.linked_cache_bytes_per_server))
                .collect()
        } else {
            Vec::new()
        };
        let remote = if config.arch == ArchKind::Remote {
            (0..config.remote_cache_nodes)
                .map(|_| build_cache(config.remote_cache_bytes_per_node))
                .collect()
        } else {
            Vec::new()
        };
        let l0 = match &config.l0 {
            Some(c) if config.arch.supports_l0() => (0..config.app_servers)
                .map(|_| cachekit::L0Cache::new(c.params()))
                .collect(),
            _ => Vec::new(),
        };
        let sharder = AutoSharder::new(
            config.app_servers as u32,
            SimDuration::from_secs(10),
            SimTime::ZERO,
        );
        let remote_ring =
            cachekit::HashRing::with_shards(config.remote_cache_nodes.max(1) as u32, 128);
        let linked_up = vec![true; linked.len()];
        let remote_up = vec![true; remote.len()];
        let net_rng = StdRng::seed_from_u64(config.seed ^ 0x5f41_7c5b_9e1d_3a77);
        Deployment {
            app_cpu: (0..config.app_servers).map(|_| CpuMeter::new()).collect(),
            cache_cpu: (0..config.remote_cache_nodes)
                .map(|_| CpuMeter::new())
                .collect(),
            linked,
            remote,
            l0,
            sharder,
            remote_ring,
            rr: 0,
            linked_up,
            remote_up,
            net: Network::new(),
            net_rng,
            metrics: MetricSet::new(),
            single_flight: SingleFlight::default(),
            batch_windows: HashMap::new(),
            batch_size_counts: HashMap::new(),
            crashed_storage_pods: std::collections::BTreeMap::new(),
            tracer: Tracer::disabled(),
            elastic: elastic::ElasticController::new(config.elastic),
            ttl: vec![elastic::TtlController::new(config.ttl)],
            sql_stmts: Vec::new(),
            interner: KeyInterner::new(),
            key_scratch: Vec::new(),
            receipt: QueryReceipt::default(),
            warming: false,
            warm_row: Row::default(),
            warm_table: None,
            warm_value_col: 0,
            fixed: AppCharges {
                request_prep: SimDuration::from_micros_f64(config.app_cost.request_prep_us),
                linked_op: SimDuration::from_micros_f64(config.app_cost.local_cache_op_us),
            },
            db_rpc: DbRpcMemo::default(),
            cluster,
            config,
        }
    }

    /// The configuration this deployment was built with.
    pub fn config(&self) -> &DeploymentConfig {
        &self.config
    }

    /// Intern an arbitrary cache-key byte string (rich-object paths build
    /// their own key shapes).
    pub(crate) fn intern_bytes(&mut self, bytes: &[u8]) -> InternedKey {
        self.interner.intern(bytes)
    }

    /// Pre-populate the key interner with arbitrary byte keys, shifting the
    /// dense ids later long keys (over 23 bytes) receive; short keys get no
    /// id. Ids are an internal detail — serving behavior must be a function
    /// of key *bytes* only; the interning equivalence test uses this to
    /// prove it.
    pub fn prewarm_interner(&mut self, keys: impl IntoIterator<Item = Vec<u8>>) {
        for k in keys {
            self.intern_bytes(&k);
        }
    }

    /// Intern the `table/key` cache key for one KV request without
    /// allocating: the bytes are built in a reusable scratch buffer, and
    /// only a long key's are copied out, on first sight.
    pub(crate) fn intern_kv_key(&mut self, table: &str, key: i64) -> InternedKey {
        self.key_scratch.clear();
        self.key_scratch.extend_from_slice(table.as_bytes());
        self.key_scratch.push(b'/');
        self.key_scratch.extend_from_slice(&key.to_be_bytes());
        self.interner.intern(&self.key_scratch)
    }

    /// The pre-planned statement for `table`, built on first use. An
    /// associated function over disjoint fields so callers can keep
    /// borrowing `self.cluster` mutably while holding the result.
    fn table_sql<'a>(
        stmts: &'a mut Vec<(String, TableSql)>,
        cluster: &SqlCluster,
        table: &str,
        which: KvStmt,
    ) -> StoreResult<&'a CachedStatement> {
        let idx = match stmts.iter().position(|(name, _)| name == table) {
            Some(idx) => idx,
            None => {
                stmts.push((table.to_string(), TableSql::default()));
                stmts.len() - 1
            }
        };
        let entry = &mut stmts[idx].1;
        let slot = match which {
            KvStmt::Select => &mut entry.select,
            KvStmt::Replace => &mut entry.replace,
            KvStmt::Delete => &mut entry.delete,
            KvStmt::Version => &mut entry.version,
        };
        if slot.is_none() {
            let sql = match which {
                KvStmt::Select => format!("SELECT v, _version FROM {table} WHERE k = ?"),
                KvStmt::Replace => format!("REPLACE INTO {table} VALUES (?, ?)"),
                KvStmt::Delete => format!("DELETE FROM {table} WHERE k = ?"),
                KvStmt::Version => {
                    let schema = cluster.catalog.get(table)?;
                    let pk_col = &schema.columns[schema.primary_key].name;
                    format!("SELECT _version FROM {table} WHERE {pk_col} = ?")
                }
            };
            *slot = Some(cluster.prepare_cached(&sql)?);
        }
        Ok(slot.as_ref().unwrap())
    }

    /// Reset all CPU meters and cache statistics (between warmup and
    /// measurement); cached data stays resident.
    pub fn reset_metrics(&mut self) {
        for m in &mut self.app_cpu {
            m.reset();
        }
        for m in &mut self.cache_cpu {
            m.reset();
        }
        for c in &mut self.linked {
            c.reset_stats();
        }
        for c in &mut self.remote {
            c.reset_stats();
        }
        for c in &mut self.l0 {
            c.reset_stats();
        }
        self.cluster.reset_metrics();
        // Provisioning lifecycle counters survive the warmup reset: a shard
        // drained or a cache resized during convergence is still a
        // control-plane action the report must account for, and the
        // controller's own decisions()/plan_changes() are cumulative too.
        let mut carried: Vec<(&'static str, u64)> = if self.elastic.enabled() {
            elastic_counters::ALL
                .iter()
                .map(|&n| (n, self.metrics.counter_value(n)))
                .filter(|&(_, v)| v > 0)
                .collect()
        } else {
            Vec::new()
        };
        if self.ttl_enabled() {
            carried.extend(
                ttl_counters::ALL
                    .iter()
                    .map(|&n| (n, self.metrics.counter_value(n)))
                    .filter(|&(_, v)| v > 0),
            );
        }
        self.metrics = MetricSet::new();
        for (n, v) in carried {
            self.metrics.counter(n).add(v);
        }
        self.net.reset_counters();
        self.batch_windows.clear();
        self.batch_size_counts.clear();
    }

    /// How many cache shards this architecture deploys (0 for Base).
    pub fn cache_shard_count(&self) -> usize {
        match self.config.arch {
            ArchKind::Remote => self.remote.len(),
            _ if self.config.arch.has_linked_cache() => self.linked.len(),
            _ => 0,
        }
    }

    /// Whether cache shard `i` is currently up.
    pub fn cache_shard_up(&self, i: usize) -> bool {
        match self.config.arch {
            ArchKind::Remote => self.remote_up.get(i).copied().unwrap_or(false),
            _ if self.config.arch.has_linked_cache() => {
                self.linked_up.get(i).copied().unwrap_or(false)
            }
            _ => false,
        }
    }

    /// Crash cache shard `i`: its contents are wiped (a restarted shard
    /// comes back cold) and requests routed at it degrade until
    /// [`Deployment::restart_cache_shard`]. No-op for Base or out-of-range.
    pub fn crash_cache_shard(&mut self, i: usize) {
        if self.config.arch == ArchKind::Remote {
            if i < self.remote.len() && self.remote_up[i] {
                self.remote_up[i] = false;
                self.remote[i].clear();
                self.net.set_node_down(cache_node_id(i), true);
                self.metrics.counter(fault_counters::CACHE_CRASHES).inc();
            }
        } else if self.config.arch.has_linked_cache()
            && i < self.linked.len()
            && self.linked_up[i]
        {
            self.linked_up[i] = false;
            self.linked[i].clear();
            // The L0 lives in the same process: a crashed server loses it.
            if let Some(l0) = self.l0.get_mut(i) {
                l0.clear();
            }
            self.metrics.counter(fault_counters::CACHE_CRASHES).inc();
        }
    }

    /// Bring cache shard `i` back (cold — it was wiped at crash time).
    pub fn restart_cache_shard(&mut self, i: usize) {
        if self.config.arch == ArchKind::Remote {
            if i < self.remote.len() && !self.remote_up[i] {
                self.remote_up[i] = true;
                self.net.set_node_down(cache_node_id(i), false);
                self.metrics.counter(fault_counters::CACHE_RESTARTS).inc();
            }
        } else if self.config.arch.has_linked_cache()
            && i < self.linked.len()
            && !self.linked_up[i]
        {
            self.linked_up[i] = true;
            self.metrics.counter(fault_counters::CACHE_RESTARTS).inc();
        }
    }

    fn linked_shard_up(&self, app: usize) -> bool {
        self.linked_up.get(app).copied().unwrap_or(true)
    }

    /// The remote cache node owning `cache_key` on the hash ring.
    pub(crate) fn remote_node_for(&self, cache_key: InternedKey) -> usize {
        self.remote_ring
            .shard_for_hashed(cache_key.route_hash())
            .unwrap_or(0) as usize
            % self.remote.len().max(1)
    }

    /// One attempted app→cache-node message on the fault fabric; `true` if
    /// it got through. Only consumes randomness when loss is configured.
    fn cache_rpc_attempt(&mut self, app: usize, node: usize) -> bool {
        let from = NodeId(app as u32);
        let to = cache_node_id(node);
        self.net.deliver(&mut self.net_rng, from, to)
    }

    /// A failed attempt still burned its RPC stack CPU and waited out the
    /// per-attempt timeout before declaring the shard unreachable. The
    /// latency is added while warming too: `reach_cache_node`'s deadline
    /// check reads it to decide whether to retry.
    fn charge_failed_attempt(&mut self, app: usize, out: &mut ServeOutcome) {
        let rpc = self.config.app_cost.rpc_side_cost(32);
        self.charge_app(app, CpuCategory::RpcStack, rpc);
        out.latency += rpc + self.config.fault_tolerance.attempt_timeout;
    }

    /// Try to reach remote cache `node`, retrying with jittered exponential
    /// backoff while the retry budget and the request deadline allow. Each
    /// attempt — the first and every retry — is one `cache.rpc_attempt`
    /// span on the active trace, so a retried request shows up as a single
    /// trace with N attempt spans.
    #[inline]
    fn reach_cache_node(
        &mut self,
        app: usize,
        node: usize,
        now: SimTime,
        out: &mut ServeOutcome,
    ) -> bool {
        let start = now.as_nanos() + out.latency.as_nanos();
        if self.cache_rpc_attempt(app, node) {
            self.tracer
                .span("cache.rpc_attempt", "app", start, start, 0, SpanStatus::Ok);
            return true;
        }
        self.retry_cache_node(app, node, now, out, start)
    }

    /// [`Deployment::reach_cache_node`] after a failed first attempt. The
    /// healthy path stays inline in the serve paths; retries are rare.
    #[cold]
    fn retry_cache_node(
        &mut self,
        app: usize,
        node: usize,
        now: SimTime,
        out: &mut ServeOutcome,
        start: u64,
    ) -> bool {
        let ft = self.config.fault_tolerance;
        self.charge_failed_attempt(app, out);
        self.tracer.span(
            "cache.rpc_attempt",
            "app",
            start,
            now.as_nanos() + out.latency.as_nanos(),
            0,
            SpanStatus::Failed,
        );
        let mut attempt = 0;
        while attempt < ft.retry.max_retries && out.latency < ft.request_deadline {
            let unit = self.net_rng.gen::<f64>();
            out.latency += ft.retry.backoff(attempt, unit);
            out.retries += 1;
            self.metrics.counter(fault_counters::RETRIES).inc();
            let start = now.as_nanos() + out.latency.as_nanos();
            if self.cache_rpc_attempt(app, node) {
                self.tracer
                    .span("cache.rpc_attempt", "app", start, start, attempt + 1, SpanStatus::Ok);
                return true;
            }
            self.charge_failed_attempt(app, out);
            self.tracer.span(
                "cache.rpc_attempt",
                "app",
                start,
                now.as_nanos() + out.latency.as_nanos(),
                attempt + 1,
                SpanStatus::Failed,
            );
            attempt += 1;
        }
        false
    }

    /// Storage fill with optional single-flight coalescing: if an identical
    /// fill is still in flight, ride on it instead of issuing another SQL
    /// statement (the thundering-herd guard after a cold shard restart).
    fn storage_fill(
        &mut self,
        app: usize,
        table: &str,
        key: i64,
        cache_key: InternedKey,
        now: SimTime,
        out: &mut ServeOutcome,
    ) -> StoreResult<Option<CachedVal>> {
        let start = now.as_nanos() + out.latency.as_nanos();
        if self.config.fault_tolerance.single_flight {
            if let Some((done_at, val)) = self.single_flight.check(cache_key, now) {
                self.metrics
                    .counter(fault_counters::STAMPEDE_SUPPRESSED)
                    .inc();
                out.coalesced = true;
                // Park until the leader's fill lands, plus the wakeup work.
                out.latency += done_at.since(now);
                let op = self.fixed.linked_op;
                self.charge_app(app, CpuCategory::AppLogic, op);
                out.latency += op;
                self.tracer.span(
                    "storage.fill",
                    "storage",
                    start,
                    now.as_nanos() + out.latency.as_nanos(),
                    0,
                    SpanStatus::Coalesced,
                );
                return Ok(val);
            }
        }
        let (val, lat) = self.storage_read(app, table, key, now)?;
        out.sql_statements += 1;
        out.latency += lat;
        if self.config.fault_tolerance.single_flight {
            self.single_flight.record(cache_key, now + lat, val);
        }
        self.tracer.span(
            "storage.fill",
            "storage",
            start,
            now.as_nanos() + out.latency.as_nanos(),
            0,
            SpanStatus::Ok,
        );
        Ok(val)
    }

    /// Serve a read from storage because the owning cache shard is down.
    fn degraded_read(
        &mut self,
        app: usize,
        table: &str,
        key: i64,
        cache_key: InternedKey,
        now: SimTime,
        out: &mut ServeOutcome,
    ) -> StoreResult<()> {
        if !self.config.fault_tolerance.degraded_fallback {
            return Err(StoreError::Unavailable {
                what: format!("cache shard for {table}/{key} is down"),
            });
        }
        self.metrics.counter(fault_counters::DEGRADED_READS).inc();
        out.degraded = true;
        let start = now.as_nanos() + out.latency.as_nanos();
        let val = self.storage_fill(app, table, key, cache_key, now, out)?;
        self.finish_read(app, val, now, out);
        self.tracer.span(
            "read.degraded",
            "app",
            start,
            now.as_nanos() + out.latency.as_nanos(),
            0,
            SpanStatus::Degraded,
        );
        Ok(())
    }

    /// Aggregate linked-cache statistics.
    pub fn linked_stats(&self) -> cachekit::CacheStats {
        let mut s = cachekit::CacheStats::default();
        for c in &self.linked {
            s += *c.stats();
        }
        s
    }

    /// Aggregate remote-cache statistics.
    pub fn remote_stats(&self) -> cachekit::CacheStats {
        let mut s = cachekit::CacheStats::default();
        for c in &self.remote {
            s += *c.stats();
        }
        s
    }

    /// Bytes currently resident in the external caches.
    pub fn cache_resident_bytes(&self) -> u64 {
        self.linked.iter().map(|c| c.used_bytes()).sum::<u64>()
            + self.remote.iter().map(|c| c.used_bytes()).sum::<u64>()
    }

    /// Bytes resident in the external caches *at* `now`: like
    /// [`Self::cache_resident_bytes`], but entries whose TTL has lapsed and
    /// that no sweep has reclaimed yet are excluded — they hold no live
    /// value. TTL billing integrates this over time.
    pub fn cache_resident_bytes_at(&self, now: SimTime) -> u64 {
        let nanos = now.as_nanos();
        self.linked.iter().map(|c| c.resident_bytes(nanos)).sum::<u64>()
            + self.remote.iter().map(|c| c.resident_bytes(nanos)).sum::<u64>()
    }

    /// Whether the adaptive TTL control plane is live: configured on, the
    /// architecture supports runtime default-TTL adjustment, and a cache
    /// tier exists to expire.
    pub fn ttl_enabled(&self) -> bool {
        self.config.ttl.enabled()
            && self.config.arch.supports_ttl_plane()
            && (!self.linked.is_empty() || !self.remote.is_empty())
    }

    /// Size the per-tenant controller set (tenant 0 always exists). Called
    /// by the experiment runner before traffic starts; never shrinks.
    pub fn set_ttl_tenants(&mut self, tenants: usize) {
        while self.ttl.len() < tenants.max(1) {
            self.ttl.push(elastic::TtlController::new(self.config.ttl));
        }
    }

    /// Apply `tenant`'s adopted TTL as every cache's default before serving
    /// one of its requests — the whole push-down mechanism: inserts on the
    /// fill path pick the default up, so the serve paths need no changes.
    /// A handful of `Option` stores per request when the plane is on; a
    /// no-op (and no RNG, no metrics) when off.
    pub fn ttl_begin_request(&mut self, tenant: usize) {
        if !self.ttl_enabled() {
            return;
        }
        let ttl = self.ttl.get(tenant).and_then(|c| c.current_ttl_nanos());
        for c in &mut self.linked {
            c.set_default_ttl(ttl);
        }
        for c in &mut self.remote {
            c.set_default_ttl(ttl);
        }
    }

    /// Feed one access to `tenant`'s age histogram. `key` is the workload's
    /// (namespaced) key id; hashing happens here so callers never worry
    /// about distribution quality.
    pub fn ttl_observe(&mut self, tenant: usize, key: u64, bytes: u64, now: SimTime) {
        if !self.ttl_enabled() {
            return;
        }
        if let Some(ctl) = self.ttl.get_mut(tenant) {
            ctl.observe_hashed(cachekit::ring::splitmix64(key), bytes, now.as_nanos());
        }
    }

    /// Run every tenant controller's decision check (each no-ops until its
    /// interval elapses) and mirror the outcomes into the metric set.
    pub fn ttl_maybe_decide(&mut self, now_secs: f64, pricing: &costmodel::Pricing) {
        if !self.ttl_enabled() {
            return;
        }
        let mut decisions = 0;
        let mut changes = 0;
        for ctl in &mut self.ttl {
            let before = (ctl.decisions(), ctl.ttl_changes());
            ctl.maybe_decide(now_secs, pricing);
            decisions += ctl.decisions() - before.0;
            changes += ctl.ttl_changes() - before.1;
        }
        if decisions > 0 {
            self.metrics.counter(ttl_counters::DECISIONS).add(decisions);
        }
        if changes > 0 {
            self.metrics.counter(ttl_counters::TTL_CHANGES).add(changes);
        }
    }

    /// Reclaim expired entries from every cache shard, charging the owning
    /// tier per entry scanned ([`crate::config::AppCostConfig::expiry_sweep_entry_us`]).
    /// Linked shards bill their app server; remote shards bill the cache
    /// node. Returns entries reclaimed. Driven from the experiment
    /// heartbeat, like elastic decisions.
    pub fn expire_sweep_tick(&mut self, now: SimTime) -> u64 {
        if !self.ttl_enabled() {
            return 0;
        }
        let per_entry_us = self.config.app_cost.expiry_sweep_entry_us;
        let nanos = now.as_nanos();
        let mut reclaimed = 0u64;
        let mut cpu_nanos = 0u64;
        for i in 0..self.linked.len() {
            let n = self.linked[i].expire_sweep(nanos) as u64;
            if n > 0 {
                let cost = SimDuration::from_micros_f64(per_entry_us * n as f64);
                self.charge_app(i, CpuCategory::CacheOp, cost);
                reclaimed += n;
                cpu_nanos += cost.as_nanos();
            }
        }
        for i in 0..self.remote.len() {
            let n = self.remote[i].expire_sweep(nanos) as u64;
            if n > 0 {
                let cost = SimDuration::from_micros_f64(per_entry_us * n as f64);
                self.charge_cache(i, CpuCategory::CacheOp, cost);
                reclaimed += n;
                cpu_nanos += cost.as_nanos();
            }
        }
        if reclaimed > 0 {
            self.metrics.counter(ttl_counters::EXPIRED_ENTRIES).add(reclaimed);
            self.metrics.counter(ttl_counters::SWEEP_CPU_NANOS).add(cpu_nanos);
        }
        reclaimed
    }

    /// The app server handling this request: the shard owner for sharded
    /// linked architectures (Slicer-style client routing), round-robin
    /// otherwise — including LinkedTtl, where every server caches its own
    /// replica of whatever it serves.
    pub(crate) fn route_app(&mut self, cache_key: InternedKey) -> usize {
        if self.config.arch.has_linked_cache() && self.config.arch.linked_cache_is_sharded() {
            self.sharder.owner_hashed(cache_key.route_hash()) as usize % self.config.app_servers
        } else {
            self.route_app_rr()
        }
    }

    /// Round-robin routing for requests with no key affinity (multi-key
    /// batch requests, unsharded architectures).
    pub(crate) fn route_app_rr(&mut self) -> usize {
        self.rr = self.rr.wrapping_add(1);
        self.rr % self.config.app_servers
    }

    pub(crate) fn charge_app(&mut self, app: usize, cat: CpuCategory, cost: SimDuration) {
        if !self.warming {
            self.app_cpu[app].charge(cat, cost);
        }
    }

    fn charge_cache(&mut self, node: usize, cat: CpuCategory, cost: SimDuration) {
        if !self.warming {
            self.cache_cpu[node].charge(cat, cost);
        }
    }

    /// App-side costs of one database statement round trip.
    pub(crate) fn charge_app_db_rpc(&mut self, app: usize, receipt: &QueryReceipt) -> SimDuration {
        let (req, resp) = (receipt.request_bytes, receipt.response_bytes);
        if self.db_rpc.bytes != Some((req, resp)) {
            let cost = &self.config.app_cost;
            let link = &self.config.cluster.link;
            self.db_rpc = DbRpcMemo {
                bytes: Some((req, resp)),
                rpc: cost.rpc_side_cost(req) + cost.rpc_side_cost(resp),
                deser: cost.serialize_cost(resp),
                wire: link.delivery_time(req) + link.delivery_time(resp),
            };
        }
        let DbRpcMemo { rpc, deser, wire, .. } = self.db_rpc;
        let prep = self.fixed.request_prep;
        self.charge_app(app, CpuCategory::AppLogic, prep);
        self.charge_app(app, CpuCategory::RpcStack, rpc);
        self.charge_app(app, CpuCategory::Serialization, deser);
        prep + rpc + deser + wire + receipt.latency
    }

    /// The common tail: serve `bytes` back to the client. Framing and copy
    /// costs are folded into `client_rpc_per_byte_ns`; no proto re-encode is
    /// charged because responses stream the stored representation.
    pub(crate) fn charge_client_reply(&mut self, app: usize, bytes: u64) -> SimDuration {
        if self.warming {
            return SimDuration::ZERO;
        }
        let comm = self.config.app_cost.client_reply_cost(bytes);
        self.charge_app(app, CpuCategory::ClientComm, comm);
        comm + self.config.cluster.link.delivery_time(bytes)
    }

    /// Run one KV statement on `table` into the deployment's receipt and
    /// charge the app side of its round trip; returns the round trip's
    /// latency.
    fn kv_statement(
        &mut self,
        app: usize,
        table: &str,
        which: KvStmt,
        params: &[Datum],
        now: SimTime,
    ) -> StoreResult<SimDuration> {
        let stmt = Self::table_sql(&mut self.sql_stmts, &self.cluster, table, which)?;
        self.cluster
            .execute_cached_into(stmt, params, now, &mut self.receipt)?;
        // Lend the receipt out for the app-side charge; moving it keeps its
        // buffers.
        let receipt = std::mem::take(&mut self.receipt);
        let latency = self.charge_app_db_rpc(app, &receipt);
        self.receipt = receipt;
        Ok(latency)
    }

    /// A warm storage read of the prewarmed table's row `key` into
    /// `warm_row` ([`SqlCluster::warm_point_read`]).
    fn warm_read(&mut self, key: i64) -> StoreResult<Option<u64>> {
        let table = self.warm_table.as_ref().expect("warming has a resolved table");
        self.cluster.warm_point_read(table, &Datum::Int(key), &mut self.warm_row)
    }

    /// Fetch `(value, version)` from the database through the SQL path.
    pub(crate) fn storage_read(
        &mut self,
        app: usize,
        table: &str,
        key: i64,
        now: SimTime,
    ) -> StoreResult<(Option<CachedVal>, SimDuration)> {
        if self.warming {
            let version = self.warm_read(key)?;
            let val = version.map(|version| {
                let datum = self.warm_row.get(self.warm_value_col).unwrap_or(&Datum::Null);
                let (bytes, seed) = payload_identity(datum);
                CachedVal {
                    version,
                    bytes,
                    seed,
                }
            });
            return Ok((val, SimDuration::ZERO));
        }
        let latency = self.kv_statement(app, table, KvStmt::Select, &[Datum::Int(key)], now)?;
        let val = self.receipt.rows.first().map(|row| {
            let (bytes, seed) = payload_identity(row.get(0).unwrap_or(&Datum::Null));
            let version = row.get(1).and_then(|d| d.as_int()).unwrap_or(0) as u64;
            CachedVal {
                version,
                bytes,
                seed,
            }
        });
        Ok((val, latency))
    }

    /// Write `value` under `key` through the SQL path.
    pub(crate) fn storage_write(
        &mut self,
        app: usize,
        table: &str,
        key: i64,
        value: Datum,
        now: SimTime,
    ) -> StoreResult<(CachedVal, SimDuration)> {
        let (bytes, seed) = payload_identity(&value);
        // The app serializes the value into the write request.
        let ser = self.config.app_cost.serialize_cost(bytes);
        self.charge_app(app, CpuCategory::Serialization, ser);
        let params = [Datum::Int(key), value];
        let latency = ser + self.kv_statement(app, table, KvStmt::Replace, &params, now)?;
        let version = self.receipt.write_version.unwrap_or(0);
        Ok((
            CachedVal {
                version,
                bytes,
                seed,
            },
            latency,
        ))
    }

    /// Move one frame from size `n-1` to size `n` in the size histogram.
    fn bump_batch_size(&mut self, n: u32) {
        if n > 1 {
            if let Some(c) = self.batch_size_counts.get_mut(&(n - 1)) {
                *c = c.saturating_sub(1);
                if *c == 0 {
                    self.batch_size_counts.remove(&(n - 1));
                }
            }
        }
        *self.batch_size_counts.entry(n).or_insert(0) += 1;
    }

    /// Admit one app→cache-node operation into a coalescing frame at time
    /// `at` (request arrival plus latency accumulated so far); `update`
    /// selects the MSET frame class over MGET. Returns `(follower, wait)`:
    /// a *follower* rides an already-open frame and is charged the
    /// amortized per-key RPC cost; the opener pays the full fixed cost and
    /// `wait` covers sitting out the coalescing window until the frame
    /// departs. A no-op (opener, zero wait) unless batching is enabled, so
    /// default runs never touch the window map.
    #[inline]
    fn batch_admit(
        &mut self,
        app: usize,
        node: usize,
        at: SimTime,
        update: bool,
    ) -> (bool, SimDuration) {
        if !self.config.batching.enabled() {
            return (false, SimDuration::ZERO);
        }
        self.batch_join(app, node, at, update)
    }

    /// [`Deployment::batch_admit`] with batching on, out of line so the
    /// default path is one inline check.
    fn batch_join(
        &mut self,
        app: usize,
        node: usize,
        at: SimTime,
        update: bool,
    ) -> (bool, SimDuration) {
        let b = self.config.batching;
        self.metrics.counter(batch_counters::BATCHED_RPC_KEYS).inc();
        let slot = (app, node, update);
        if let Some(w) = self.batch_windows.get_mut(&slot) {
            if at >= w.opened_at && at < w.departs_at && w.occupancy < b.max_batch {
                w.occupancy += 1;
                let n = w.occupancy;
                let wait = w.departs_at.since(at);
                self.bump_batch_size(n);
                self.tracer.span(
                    "cache.rpc_batch",
                    "app",
                    at.as_nanos(),
                    at.as_nanos() + wait.as_nanos(),
                    n,
                    SpanStatus::Ok,
                );
                return (true, wait);
            }
            if at < w.opened_at {
                // Sent before the stored frame opened (see [`BatchWindow`]):
                // an unbatched one-off send that leaves the frame in place
                // for the joiners it was opened for.
                self.metrics.counter(batch_counters::RPC_BATCHES).inc();
                self.bump_batch_size(1);
                return (false, SimDuration::ZERO);
            }
        }
        let wait = b.window();
        if b.windowed() {
            // A zero-length window departs instantly — never store it, or a
            // later request whose admission time lands *earlier* on the sim
            // clock (ops are admitted at arrival + accumulated latency)
            // would ride a frame that no longer exists.
            self.batch_windows.insert(
                slot,
                BatchWindow {
                    opened_at: at,
                    departs_at: at + wait,
                    occupancy: 1,
                },
            );
        }
        self.metrics.counter(batch_counters::RPC_BATCHES).inc();
        self.bump_batch_size(1);
        self.tracer.span(
            "cache.rpc_batch",
            "app",
            at.as_nanos(),
            at.as_nanos() + wait.as_nanos(),
            1,
            SpanStatus::Ok,
        );
        (false, wait)
    }

    /// Remote-cache lookup on `node`, the key's ring owner: returns the
    /// value if cached, charging both the app side and the cache node. The
    /// RPC joins a coalescing frame at `at` (arrival plus latency
    /// accumulated so far, so an op issued late in a request doesn't ride a
    /// frame that already departed).
    pub(crate) fn remote_lookup(
        &mut self,
        app: usize,
        node: usize,
        cache_key: InternedKey,
        now: SimTime,
        at: SimTime,
    ) -> (Option<CachedVal>, SimDuration) {
        let (follower, wait) = self.batch_admit(app, node, at, false);
        let (found, lat) = self.remote_lookup_role(app, node, cache_key, now, follower);
        (found, lat + wait)
    }

    /// The lookup body with an explicit batch role: followers pay the
    /// amortized per-key marginal on both RPC sides instead of the full
    /// fixed cost. `follower == false` charges exactly the pre-batching
    /// amounts, keeping default runs byte-identical. `resp_bytes` covers
    /// hit and miss sizes.
    fn remote_lookup_role(
        &mut self,
        app: usize,
        node: usize,
        cache_key: InternedKey,
        now: SimTime,
        follower: bool,
    ) -> (Option<CachedVal>, SimDuration) {
        let found = self.remote[node].get(&cache_key, now.as_nanos()).copied();
        if self.warming {
            return (found, SimDuration::ZERO);
        }
        let resp_bytes = found.map(|v| v.bytes).unwrap_or(8);
        let cost = self.config.app_cost;
        let app_rpc = if follower {
            cost.rpc_batched_side_cost(32) + cost.rpc_batched_side_cost(resp_bytes)
        } else {
            cost.rpc_side_cost(32) + cost.rpc_side_cost(resp_bytes)
        };
        let node_rpc = app_rpc;
        let op = SimDuration::from_micros_f64(cost.cache_server_op_us);
        let deser = if found.is_some() {
            cost.serialize_cost(resp_bytes)
        } else {
            SimDuration::ZERO
        };
        self.charge_app(app, CpuCategory::RpcStack, app_rpc);
        self.charge_app(app, CpuCategory::Serialization, deser);
        self.charge_cache(node, CpuCategory::RpcStack, node_rpc);
        self.charge_cache(node, CpuCategory::CacheOp, op);
        let link = &self.config.cluster.link;
        let latency = app_rpc
            + node_rpc
            + op
            + deser
            + link.delivery_time(32)
            + link.delivery_time(resp_bytes);
        (found, latency)
    }

    /// Remote-cache fill or invalidation (value = None ⇒ delete) on `node`,
    /// its RPC joining an MSET frame at `at` (see
    /// [`Deployment::remote_lookup`]); a follower of an open frame pays the
    /// amortized per-key cost.
    pub(crate) fn remote_update(
        &mut self,
        app: usize,
        node: usize,
        cache_key: InternedKey,
        value: Option<CachedVal>,
        now: SimTime,
        at: SimTime,
    ) -> SimDuration {
        let (follower, wait) = self.batch_admit(app, node, at, true);
        match value {
            Some(v) => {
                self.remote[node].insert(cache_key, v, v.bytes, now.as_nanos());
            }
            None => {
                self.remote[node].remove(&cache_key);
            }
        }
        if self.warming {
            return SimDuration::ZERO;
        }
        let bytes = value.map(|v| v.bytes).unwrap_or(0);
        let cost = self.config.app_cost;
        let app_rpc = if follower {
            cost.rpc_batched_side_cost(32 + bytes) + cost.rpc_batched_side_cost(8)
        } else {
            cost.rpc_side_cost(32 + bytes) + cost.rpc_side_cost(8)
        };
        let ser = if value.is_some() {
            cost.serialize_cost(bytes)
        } else {
            SimDuration::ZERO
        };
        let node_rpc = app_rpc;
        let op = SimDuration::from_micros_f64(cost.cache_server_op_us);
        self.charge_app(app, CpuCategory::RpcStack, app_rpc);
        self.charge_app(app, CpuCategory::Serialization, ser);
        self.charge_cache(node, CpuCategory::RpcStack, node_rpc);
        self.charge_cache(node, CpuCategory::CacheOp, op);
        let link = &self.config.cluster.link;
        wait + app_rpc
            + ser
            + node_rpc
            + op
            + link.delivery_time(32 + bytes)
            + link.delivery_time(8)
    }

    /// Linked-cache op on `shard` (lookup cost model; no serialization).
    pub(crate) fn charge_linked_op(&mut self, app: usize) -> SimDuration {
        if self.warming {
            return SimDuration::ZERO;
        }
        let op = self.fixed.linked_op;
        self.charge_app(app, CpuCategory::CacheOp, op);
        op
    }

    /// Whether this deployment runs an active L0 tier.
    pub fn l0_enabled(&self) -> bool {
        !self.l0.is_empty()
    }

    /// Aggregated L0 statistics across every app server's tier.
    pub fn l0_stats_total(&self) -> cachekit::L0Stats {
        let mut total = cachekit::L0Stats::default();
        for c in &self.l0 {
            let s = c.stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.admitted += s.admitted;
            total.rejected += s.rejected;
            total.stale_admits_dropped += s.stale_admits_dropped;
            total.invalidations += s.invalidations;
            total.invalidation_misses += s.invalidation_misses;
        }
        total
    }

    /// Probe app server `app`'s L0 for `ckey`. Every probe — hit or miss —
    /// charges the in-process lookup cost; the serve paths call this before
    /// any cache/storage work, so an L0 hit pays *only* this. A `None`
    /// falls open to the authoritative path. No-op (free) when the tier is
    /// off, keeping default runs byte-identical. The probe's latency is
    /// added while warming too, since a remote read's retry deadline
    /// counts it.
    #[inline]
    fn l0_lookup(
        &mut self,
        app: usize,
        ckey: InternedKey,
        now: SimTime,
        out: &mut ServeOutcome,
    ) -> Option<CachedVal> {
        if self.l0.is_empty() {
            return None;
        }
        self.l0_probe(app, ckey, now, out)
    }

    /// [`Deployment::l0_lookup`] with the tier on, out of line so a
    /// deployment without one pays one inline check.
    fn l0_probe(
        &mut self,
        app: usize,
        ckey: InternedKey,
        now: SimTime,
        out: &mut ServeOutcome,
    ) -> Option<CachedVal> {
        let probe =
            SimDuration::from_micros_f64(self.config.l0.as_ref().map_or(0.0, |c| c.hit_us));
        self.charge_app(app, CpuCategory::CacheOp, probe);
        let start = now.as_nanos() + out.latency.as_nanos();
        out.latency += probe;
        match self.l0[app].get(&ckey, now.as_nanos()) {
            Some(hit) => {
                out.l0_hit = true;
                out.l0_age_nanos = hit.age_nanos;
                let v = *hit.value;
                self.tracer.span(
                    "cache.l0_hit",
                    "app",
                    start,
                    now.as_nanos() + out.latency.as_nanos(),
                    0,
                    SpanStatus::Ok,
                );
                Some(v)
            }
            None => None,
        }
    }

    /// Offer a freshly-fetched value to `app`'s L0 (no-op when the tier is
    /// off). The TinyLFU gate decides residency; strict versioning drops
    /// offers older than the resident entry.
    #[inline]
    fn l0_admit(
        &mut self,
        app: usize,
        ckey: InternedKey,
        v: CachedVal,
        now: SimTime,
        out: &mut ServeOutcome,
    ) {
        if !self.l0.is_empty() {
            self.l0_offer(app, ckey, v, now, out);
        }
    }

    /// [`Deployment::l0_admit`] with the tier on (see
    /// [`Deployment::l0_probe`]).
    fn l0_offer(
        &mut self,
        app: usize,
        ckey: InternedKey,
        v: CachedVal,
        now: SimTime,
        out: &mut ServeOutcome,
    ) {
        let cost =
            SimDuration::from_micros_f64(self.config.l0.as_ref().map_or(0.0, |c| c.insert_us));
        self.charge_app(app, CpuCategory::CacheOp, cost);
        out.latency += cost;
        self.l0[app].admit(ckey, v, v.version, v.bytes, now.as_nanos());
    }

    /// Writer-side L0 maintenance. Under invalidate-first the new version
    /// is broadcast to every server's tier before the ack — the writer
    /// cannot know which servers cached the key, so each pays the
    /// invalidation CPU (that fan-out, proportional to servers × write
    /// rate, is the coherence cost the hot-key ablation measures). The ack
    /// waits one invalidation op: the fan-out itself is parallel. Under
    /// serve-stale writers leave the tier alone; entries age out at the
    /// declared bound.
    fn l0_on_write(&mut self, ckey: InternedKey, new_version: u64, out: &mut ServeOutcome) {
        if self.l0.is_empty() {
            return;
        }
        let c = self.config.l0.as_ref().expect("l0 vec implies config");
        if c.serve_stale() {
            return;
        }
        let cost = SimDuration::from_micros_f64(c.invalidate_us);
        for i in 0..self.l0.len() {
            self.charge_app(i, CpuCategory::CacheOp, cost);
            self.l0[i].invalidate(&ckey, new_version);
        }
        out.latency += cost;
    }

    /// Serve one read. See module docs for the per-architecture paths.
    pub fn serve_kv_read(
        &mut self,
        table: &str,
        key: i64,
        now: SimTime,
    ) -> StoreResult<ServeOutcome> {
        let ckey = self.intern_kv_key(table, key);
        let app = self.route_app(ckey);
        // Feed the MRC profiler (no-op unless elastic is enabled).
        self.elastic.observe_hashed(ckey.route_hash());
        let mut out = ServeOutcome::default();
        let arch = self.config.arch;
        if arch == ArchKind::Base {
            let (val, lat) = self.storage_read(app, table, key, now)?;
            out.sql_statements += 1;
            out.latency += lat;
            self.finish_read(app, val, now, &mut out);
            return Ok(out);
        }
        // A down linked shard serves from storage, which is trivially
        // consistent: there is no cached copy to verify or fence. (Remote
        // deploys no linked shards; its node is checked below.)
        if !self.linked_shard_up(app) {
            self.degraded_read(app, table, key, ckey, now, &mut out)?;
            return Ok(out);
        }
        // L0 front check: a hit skips the cache entirely (and doesn't care
        // whether a remote node is even up). No-op where the tier is off.
        if let Some(v) = self.l0_lookup(app, ckey, now, &mut out) {
            out.cache_hit = true;
            self.finish_read(app, Some(v), now, &mut out);
            return Ok(out);
        }
        if arch == ArchKind::Remote {
            let node = self.remote_node_for(ckey);
            if !self.reach_cache_node(app, node, now, &mut out) {
                self.degraded_read(app, table, key, ckey, now, &mut out)?;
                return Ok(out);
            }
            let lookup_start = now.as_nanos() + out.latency.as_nanos();
            let (hit, lat) = self.remote_lookup(app, node, ckey, now, now + out.latency);
            out.latency += lat;
            self.tracer.span(
                "cache.lookup",
                "cache",
                lookup_start,
                now.as_nanos() + out.latency.as_nanos(),
                0,
                SpanStatus::Ok,
            );
            self.hit_or_fill(app, Some(node), table, key, ckey, hit, now, &mut out)?;
            return Ok(out);
        }
        // The linked family. LinkedTtl's unsharded per-server replica may be
        // stale (another server wrote since): the TTL bounds the window, and
        // expiry shows up as a miss. A lease-owned shard's cached values are
        // linearizable without storage contact while its owner holds the
        // lease; a lapsed lease falls back to a version check and is renewed
        // after the read's first storage contact.
        let mut lapsed = None;
        if arch == ArchKind::LeaseOwned {
            let lease_cost = SimDuration::from_micros_f64(self.config.app_cost.lease_validate_us);
            self.charge_app(app, CpuCategory::TxnLease, lease_cost);
            out.latency += lease_cost;
            let shard = self.sharder.owner_hashed(ckey.route_hash());
            lapsed = Some(shard).filter(|&s| !self.sharder.lease_valid(s, now));
        }
        let lk_start = now.as_nanos() + out.latency.as_nanos();
        out.latency += self.charge_linked_op(app);
        let mut hit = self.linked[app].get(&ckey, now.as_nanos()).copied();
        self.tracer.span(
            "cache.lookup",
            "app",
            lk_start,
            now.as_nanos() + out.latency.as_nanos(),
            0,
            SpanStatus::Ok,
        );
        if let Some(v) = hit.filter(|_| arch == ArchKind::LinkedVersion || lapsed.is_some()) {
            // §5.5: a consistent read must verify the version in storage
            // before returning the cached value.
            let vc_start = now.as_nanos() + out.latency.as_nanos();
            let (latest, lat) = self.version_check(app, table, key, now)?;
            out.version_checks += 1;
            out.sql_statements += 1;
            out.latency += lat;
            self.tracer.span(
                "storage.version_check",
                "storage",
                vc_start,
                now.as_nanos() + out.latency.as_nanos(),
                0,
                SpanStatus::Ok,
            );
            if let Some(shard) = lapsed.take() {
                self.sharder.renew(shard, now);
            }
            if latest != Some(v.version) {
                // Stale (or deleted): refresh from storage.
                self.linked[app].remove(&ckey);
                hit = None;
            }
        }
        self.hit_or_fill(app, None, table, key, ckey, hit, now, &mut out)?;
        if let Some(shard) = lapsed {
            self.sharder.renew(shard, now);
        }
        Ok(out)
    }

    /// The tail of every cached read: serve `hit`, or fill a miss from
    /// storage and insert it into the request's cache (remote `node` when
    /// given, else `app`'s linked shard); then offer the value to the L0
    /// tier and reply.
    #[allow(clippy::too_many_arguments)]
    fn hit_or_fill(
        &mut self,
        app: usize,
        node: Option<usize>,
        table: &str,
        key: i64,
        ckey: InternedKey,
        hit: Option<CachedVal>,
        now: SimTime,
        out: &mut ServeOutcome,
    ) -> StoreResult<()> {
        let val = match hit {
            Some(v) => {
                out.cache_hit = true;
                Some(v)
            }
            None => self.storage_fill(app, table, key, ckey, now, out)?,
        };
        if let Some(v) = val.filter(|_| !out.coalesced) {
            if !out.cache_hit {
                let t = now.as_nanos();
                match node {
                    Some(node) => {
                        let _ = self.cache_rpc_attempt(app, node);
                        let at = now + out.latency;
                        out.latency += self.remote_update(app, node, ckey, Some(v), now, at);
                    }
                    None if self.config.arch == ArchKind::LinkedTtl => {
                        let ttl = self.config.linked_ttl.as_nanos();
                        self.linked[app].insert_with_ttl(ckey, v, v.bytes, t, ttl);
                    }
                    None => {
                        self.linked[app].insert(ckey, v, v.bytes, t);
                    }
                }
            }
            // A remote or linked hit is the L0's fill source for hot keys:
            // offer it (TinyLFU decides residency).
            self.l0_admit(app, ckey, v, now, out);
        }
        self.finish_read(app, val, now, out);
        Ok(())
    }

    /// Prewarm `table` with one read of each key at [`SimTime::ZERO`], as
    /// a load: each key runs [`Deployment::serve_kv_read`] itself, so the
    /// deployment ends in the state serving leaves (cache contents and
    /// policy order, TinyLFU sketches, L0 tiers, block caches, the
    /// front-end and app round-robin pointers, sharder leases, the elastic
    /// profiler and interned key ids, and the hit, miss and insert
    /// counters), except that nothing is billed: storage reads are
    /// [`SqlCluster::warm_point_read`] loads, and no CPU meter is charged.
    /// The meters differ from a served prewarm's until the next
    /// [`Deployment::reset_metrics`], so a prewarm belongs before one, as
    /// in the experiment runners. An unknown table fails before any key is
    /// read; a failing key stops the prewarm with the keys before it warm.
    ///
    /// With single-flight or batching on, a read's effects depend on its
    /// fill and admission latencies (a fill's completion time, a frame's
    /// admission time), which the unbilled pass does not compute, so those
    /// deployments prewarm by serving, billed.
    pub fn prewarm_kv(
        &mut self,
        table: &str,
        keys: impl IntoIterator<Item = i64>,
    ) -> StoreResult<()> {
        self.warm_value_col = self.cluster.catalog.get(table)?.column_index("v")?;
        self.warm_table = Some(self.cluster.warm_table(table)?);
        self.warming =
            !self.config.fault_tolerance.single_flight && !self.config.batching.enabled();
        let warmed = keys
            .into_iter()
            .try_for_each(|key| self.serve_kv_read(table, key, SimTime::ZERO).map(drop));
        self.warming = false;
        self.warm_table = None;
        warmed
    }

    /// Serve a multi-key read as one client request (the app-side analogue
    /// of netrpc's `MGET`). With the Remote architecture and batching
    /// enabled, keys are grouped per owning cache node into frames of at
    /// most `max_batch` keys: the first key of each frame pays the full
    /// fixed per-RPC cost, the rest pay only the amortized per-key
    /// marginal. Outcomes are position-matched to `keys` and semantically
    /// identical to serving each key alone — batching moves CPU, never
    /// hits, misses, or values. Other architectures (and batching off)
    /// serve each key independently.
    pub fn serve_kv_read_batch(
        &mut self,
        table: &str,
        keys: &[i64],
        now: SimTime,
    ) -> StoreResult<Vec<ServeOutcome>> {
        if self.config.arch != ArchKind::Remote || !self.config.batching.enabled() {
            return keys
                .iter()
                .map(|&k| self.serve_kv_read(table, k, now))
                .collect();
        }
        let max_batch = self.config.batching.max_batch.max(1) as usize;
        // One app server fields the whole multi-key request (round-robin).
        let app = self.route_app_rr();
        let ckeys: Vec<InternedKey> = keys
            .iter()
            .map(|&k| self.intern_kv_key(table, k))
            .collect();
        for ck in &ckeys {
            self.elastic.observe_hashed(ck.route_hash());
        }
        // L0 front check per key: hits serve locally and never enter a
        // frame; misses (everything, when the tier is off) proceed to the
        // batched remote path carrying their probe charge.
        let mut outcomes = vec![ServeOutcome::default(); keys.len()];
        // Group miss positions by owning cache node, preserving order
        // (vec-indexed, so grouping is deterministic).
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); self.remote.len().max(1)];
        for (i, &ck) in ckeys.iter().enumerate() {
            let mut out = ServeOutcome::default();
            if let Some(v) = self.l0_lookup(app, ck, now, &mut out) {
                out.cache_hit = true;
                self.finish_read(app, Some(v), now, &mut out);
            } else {
                groups[self.remote_node_for(ck)].push(i);
            }
            outcomes[i] = out;
        }
        for (node, members) in groups.iter().enumerate() {
            for frame in members.chunks(max_batch) {
                // Frame-level connectivity: one reachability check (with
                // retries) covers every key in the frame.
                let mut probe = ServeOutcome::default();
                let up = self.reach_cache_node(app, node, now, &mut probe);
                if up {
                    self.metrics.counter(batch_counters::RPC_BATCHES).inc();
                    self.metrics
                        .counter(batch_counters::BATCHED_RPC_KEYS)
                        .add(frame.len() as u64);
                    *self
                        .batch_size_counts
                        .entry(frame.len() as u32)
                        .or_insert(0) += 1;
                    self.tracer.span(
                        "cache.rpc_batch",
                        "app",
                        now.as_nanos() + probe.latency.as_nanos(),
                        now.as_nanos() + probe.latency.as_nanos(),
                        frame.len() as u32,
                        SpanStatus::Ok,
                    );
                }
                for (pos, &i) in frame.iter().enumerate() {
                    // Start from the (possibly L0-probe-charged) outcome
                    // recorded at grouping time, plus the frame's
                    // reachability latency.
                    let mut out = outcomes[i];
                    out.latency += probe.latency;
                    if pos == 0 {
                        // Retry accounting belongs to the frame, not to
                        // every rider: charge it once.
                        out.retries = probe.retries;
                    }
                    if up {
                        let (hit, lat) =
                            self.remote_lookup_role(app, node, ckeys[i], now, pos > 0);
                        out.latency += lat;
                        let (key, ckey) = (keys[i], ckeys[i]);
                        self.hit_or_fill(app, Some(node), table, key, ckey, hit, now, &mut out)?;
                    } else {
                        self.degraded_read(app, table, keys[i], ckeys[i], now, &mut out)?;
                    }
                    outcomes[i] = out;
                }
            }
        }
        Ok(outcomes)
    }

    /// The §5.5 version check plus the app-side RPC around it.
    pub(crate) fn version_check(
        &mut self,
        app: usize,
        table: &str,
        key: i64,
        now: SimTime,
    ) -> StoreResult<(Option<u64>, SimDuration)> {
        if self.warming {
            return Ok((self.warm_read(key)?, SimDuration::ZERO));
        }
        let latency = self.kv_statement(app, table, KvStmt::Version, &[Datum::Int(key)], now)?;
        let version = self
            .receipt
            .rows
            .first()
            .and_then(|r| r.get(0))
            .and_then(|d| d.as_int())
            .map(|v| v as u64);
        Ok((version, latency))
    }

    pub(crate) fn finish_read(
        &mut self,
        app: usize,
        val: Option<CachedVal>,
        now: SimTime,
        out: &mut ServeOutcome,
    ) {
        let start = now.as_nanos() + out.latency.as_nanos();
        match val {
            Some(v) => {
                out.bytes = v.bytes;
                out.seed = Some(v.seed);
                out.version = Some(v.version);
                out.latency += self.charge_client_reply(app, v.bytes);
            }
            None => {
                out.not_found = true;
                out.latency += self.charge_client_reply(app, 0);
            }
        }
        self.tracer.span(
            "client.reply",
            "app",
            start,
            now.as_nanos() + out.latency.as_nanos(),
            0,
            SpanStatus::Ok,
        );
    }

    /// Serve one write: write-through to storage, then per-architecture
    /// cache maintenance (update linked shards, invalidate remote entries).
    pub fn serve_kv_write(
        &mut self,
        table: &str,
        key: i64,
        value: Datum,
        now: SimTime,
    ) -> StoreResult<ServeOutcome> {
        let ckey = self.intern_kv_key(table, key);
        let app = self.route_app(ckey);
        let mut out = ServeOutcome::default();

        if self.config.arch == ArchKind::LeaseOwned {
            // The owner validates its own lease/epoch before accepting the
            // write (fencing is enforced at commit; see `consistency`).
            let lease_cost = SimDuration::from_micros_f64(self.config.app_cost.lease_validate_us);
            self.charge_app(app, CpuCategory::TxnLease, lease_cost);
            out.latency += lease_cost;
        }

        let w_start = now.as_nanos() + out.latency.as_nanos();
        let (written, lat) = self.storage_write(app, table, key, value, now)?;
        out.sql_statements += 1;
        out.latency += lat;
        self.tracer.span(
            "storage.write",
            "storage",
            w_start,
            now.as_nanos() + out.latency.as_nanos(),
            0,
            SpanStatus::Ok,
        );
        out.version = Some(written.version);
        out.bytes = written.bytes;
        // The row changed: any in-flight fill result is no longer shareable.
        self.single_flight.invalidate(ckey);

        match self.config.arch {
            ArchKind::Base => {}
            ArchKind::Remote => {
                // Classic lookaside: invalidate after write; the next read
                // misses and refills.
                let node = self.remote_node_for(ckey);
                if self.cache_rpc_attempt(app, node) {
                    let at = now + out.latency;
                    out.latency += self.remote_update(app, node, ckey, None, now, at);
                } else {
                    // A crashed shard lost the entry anyway (restart is
                    // cold), so skipping the invalidation is safe; record
                    // it because partition windows are *not* safe this way.
                    self.metrics
                        .counter(fault_counters::INVALIDATIONS_SKIPPED)
                        .inc();
                    self.charge_failed_attempt(app, &mut out);
                }
            }
            ArchKind::Linked | ArchKind::LinkedVersion | ArchKind::LeaseOwned => {
                if self.linked_shard_up(app) {
                    // The owner shard updates its copy in place.
                    out.latency += self.charge_linked_op(app);
                    self.linked[app].insert(ckey, written, written.bytes, now.as_nanos());
                } else {
                    self.metrics
                        .counter(fault_counters::CACHE_UPDATES_SKIPPED)
                        .inc();
                }
            }
            ArchKind::LinkedTtl => {
                // Only the server that handled the write refreshes its
                // replica; other servers keep serving their cached copy
                // until the TTL expires — the staleness the TTL bounds.
                if self.linked_shard_up(app) {
                    out.latency += self.charge_linked_op(app);
                    let ttl = self.config.linked_ttl.as_nanos();
                    self.linked[app].insert_with_ttl(
                        ckey,
                        written,
                        written.bytes,
                        now.as_nanos(),
                        ttl,
                    );
                } else {
                    self.metrics
                        .counter(fault_counters::CACHE_UPDATES_SKIPPED)
                        .inc();
                }
            }
        }
        // Invalidate-first L0 coherence: broadcast before the ack (no-op
        // when the tier is off or in serve-stale mode).
        self.l0_on_write(ckey, written.version, &mut out);
        // Ack to the client.
        out.latency += self.charge_client_reply(app, 16);
        Ok(out)
    }

    /// Serve one delete: remove from storage, then per-architecture cache
    /// maintenance (sessions and other lifecycle-heavy services need this).
    pub fn serve_kv_delete(
        &mut self,
        table: &str,
        key: i64,
        now: SimTime,
    ) -> StoreResult<ServeOutcome> {
        let ckey = self.intern_kv_key(table, key);
        let app = self.route_app(ckey);
        let mut out = ServeOutcome::default();

        if self.config.arch == ArchKind::LeaseOwned {
            let lease_cost = SimDuration::from_micros_f64(self.config.app_cost.lease_validate_us);
            self.charge_app(app, CpuCategory::TxnLease, lease_cost);
            out.latency += lease_cost;
        }

        out.latency += self.kv_statement(app, table, KvStmt::Delete, &[Datum::Int(key)], now)?;
        out.sql_statements += 1;
        out.version = self.receipt.write_version;
        self.single_flight.invalidate(ckey);

        match self.config.arch {
            ArchKind::Base => {}
            ArchKind::Remote => {
                let node = self.remote_node_for(ckey);
                if self.cache_rpc_attempt(app, node) {
                    let at = now + out.latency;
                    out.latency += self.remote_update(app, node, ckey, None, now, at);
                } else {
                    self.metrics
                        .counter(fault_counters::INVALIDATIONS_SKIPPED)
                        .inc();
                    self.charge_failed_attempt(app, &mut out);
                }
            }
            ArchKind::Linked
            | ArchKind::LinkedVersion
            | ArchKind::LeaseOwned
            | ArchKind::LinkedTtl => {
                if self.linked_shard_up(app) {
                    out.latency += self.charge_linked_op(app);
                    self.linked[app].remove(&ckey);
                } else {
                    self.metrics
                        .counter(fault_counters::CACHE_UPDATES_SKIPPED)
                        .inc();
                }
            }
        }
        // A delete removes the row outright: every resident L0 entry is
        // older than "gone", so invalidate unconditionally.
        self.l0_on_write(ckey, u64::MAX, &mut out);
        out.latency += self.charge_client_reply(app, 16);
        Ok(out)
    }

    /// Total app-tier CPU.
    pub fn app_cpu_total(&self) -> CpuMeter {
        let mut m = CpuMeter::new();
        for a in &self.app_cpu {
            m.merge(a);
        }
        m
    }

    /// Total remote-cache-tier CPU.
    pub fn cache_cpu_total(&self) -> CpuMeter {
        let mut m = CpuMeter::new();
        for c in &self.cache_cpu {
            m.merge(c);
        }
        m
    }

    /// Total *configured* capacity of the elastic-managed cache tier right
    /// now (drained remote nodes count as 0). This is what elastic billing
    /// integrates over time; `cache_resident_bytes` is what's in use.
    pub fn elastic_cache_capacity_bytes(&self) -> u64 {
        match self.config.arch {
            ArchKind::Remote => self.remote.iter().map(|c| c.capacity_bytes()).sum(),
            _ if self.config.arch.has_linked_cache() => {
                self.linked.iter().map(|c| c.capacity_bytes()).sum()
            }
            _ => 0,
        }
    }

    /// Remote cache nodes currently serving ring traffic.
    pub fn active_remote_nodes(&self) -> usize {
        if self.config.arch == ArchKind::Remote {
            self.remote_ring.shard_count()
        } else {
            0
        }
    }

    /// Apply one provisioning decision to the live cache tier.
    ///
    /// * Linked-family: the cache rides inside the fixed app-server fleet,
    ///   so the plan's total capacity is split evenly across servers and
    ///   each shard resized in place (`Cache::set_capacity`); shrinks evict
    ///   in LRU order and the evicted keys refill through normal misses,
    ///   which is where the re-fill CPU gets charged.
    /// * Remote: the node count follows `plan.shards` (clamped to the
    ///   deployed fleet). Scale-downs drain the highest-index nodes —
    ///   removed from the ring first, then their residents migrate to the
    ///   surviving owners with per-entry CPU charged to both cache nodes.
    ///   Scale-ups restore nodes in index order and migrate the keys they
    ///   now own. Placement equals a fresh ring of the same membership
    ///   (`HashRing` add/remove round-trip is exact), so routing stays
    ///   deterministic across resizes.
    /// * Base: nothing to resize.
    pub fn apply_elastic_plan(&mut self, plan: elastic::Plan, now: SimTime) {
        match self.config.arch {
            ArchKind::Remote => self.apply_remote_plan(plan, now),
            _ if self.config.arch.has_linked_cache() => {
                let per_server = (plan.cache_bytes / self.linked.len().max(1) as u64).max(1);
                let mut evicted = 0u64;
                let mut changed = false;
                for c in &mut self.linked {
                    if c.capacity_bytes() != per_server {
                        evicted += c.set_capacity(per_server) as u64;
                        changed = true;
                    }
                }
                if changed {
                    self.metrics.counter(elastic_counters::RESIZES).inc();
                    self.metrics
                        .counter(elastic_counters::RESIZE_EVICTIONS)
                        .add(evicted);
                }
            }
            _ => {}
        }
    }

    fn apply_remote_plan(&mut self, plan: elastic::Plan, now: SimTime) {
        let nodes = self.remote.len();
        if nodes == 0 {
            return;
        }
        let target = (plan.shards as usize).clamp(1, nodes);
        let current = self.remote_ring.shard_count();
        let per_node = plan.cache_bytes.div_ceil(target as u64).max(1);
        let mut evicted = 0u64;
        let mut changed = false;
        if target > current {
            for j in current..target {
                self.remote_ring.add_shard(j as u32);
                self.metrics.counter(elastic_counters::SHARDS_RESTORED).inc();
            }
            changed = true;
        } else if target < current {
            // Take every leaving shard off the ring before migrating, so
            // each resident maps straight to its final owner (no double
            // hops when several nodes drain at once).
            for j in target..current {
                self.remote_ring.remove_shard(j as u32);
                self.metrics.counter(elastic_counters::SHARDS_DRAINED).inc();
            }
            changed = true;
        }
        for j in 0..target {
            if self.remote[j].capacity_bytes() != per_node {
                evicted += self.remote[j].set_capacity(per_node) as u64;
                changed = true;
            }
        }
        if target != current {
            self.rebalance_remote(now);
            for j in target..nodes {
                self.remote[j].set_capacity(0);
            }
        }
        if changed {
            self.metrics.counter(elastic_counters::RESIZES).inc();
            self.metrics
                .counter(elastic_counters::RESIZE_EVICTIONS)
                .add(evicted);
        }
    }

    /// Move every remote resident to its current ring owner, charging the
    /// migration CPU (one cache op per side plus the wire bytes) to both
    /// cache nodes. Keys move in sorted order per source node, so the whole
    /// migration is deterministic.
    fn rebalance_remote(&mut self, now: SimTime) {
        for src in 0..self.remote.len() {
            let mut keys: Vec<InternedKey> = self.remote[src].keys().copied().collect();
            // Sorted by the keys' original *bytes* — the order the
            // pre-interning implementation migrated in (long keys' ids are
            // assigned in first-access order, which is not byte order).
            let interner = &self.interner;
            keys.sort_unstable_by(|a, b| interner.resolve(a).cmp(interner.resolve(b)));
            for k in keys {
                let owner = self.remote_node_for(k);
                if owner == src {
                    continue;
                }
                if let Some((v, _charge)) = self.remote[src].take(&k) {
                    let vb = v.bytes;
                    self.charge_migration(src, owner, vb);
                    self.remote[owner].insert(k, v, vb, now.as_nanos());
                }
            }
        }
    }

    fn charge_migration(&mut self, src: usize, dst: usize, bytes: u64) {
        let cost = self.config.app_cost;
        let op = SimDuration::from_micros_f64(cost.cache_server_op_us);
        let wire = SimDuration::from_micros_f64(cost.rpc_per_byte_ns * bytes as f64 / 1e3);
        self.charge_cache(src, CpuCategory::CacheOp, op);
        self.charge_cache(src, CpuCategory::RpcStack, wire);
        self.charge_cache(dst, CpuCategory::CacheOp, op);
        self.charge_cache(dst, CpuCategory::RpcStack, wire);
        self.metrics
            .counter(elastic_counters::MIGRATED_ENTRIES)
            .inc();
        self.metrics
            .counter(elastic_counters::MIGRATED_BYTES)
            .add(bytes);
    }
}

/// `(logical bytes, content identity)` of a stored value datum.
fn payload_identity(d: &Datum) -> (u64, u64) {
    match d {
        Datum::Payload { len, seed } => (*len, *seed),
        other => {
            let bytes = other.encoded_size().saturating_sub(1);
            (bytes, cachekit::ring::stable_hash(format!("{other}").as_bytes()))
        }
    }
}

/// Build the `kv`-style catalog used by the KV experiments: one table with
/// an integer key and a bytes value.
pub fn kv_catalog(table: &str) -> Catalog {
    use storekit::schema::{ColumnDef, ColumnType, TableSchema};
    let mut c = Catalog::new();
    c.add(
        TableSchema::new(
            table,
            vec![
                ColumnDef::new("k", ColumnType::Int),
                ColumnDef::new("v", ColumnType::Bytes),
            ],
            "k",
            &[],
        )
        .expect("static schema"),
    );
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeploymentConfig;

    fn t(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1_000)
    }

    fn deployment(arch: ArchKind) -> Deployment {
        let mut d = Deployment::new(DeploymentConfig::test_small(arch), kv_catalog("kv"));
        d.cluster
            .bulk_load(
                "kv",
                (0..100i64).map(|k| {
                    vec![
                        Datum::Int(k),
                        Datum::Payload { len: 1000, seed: 0 },
                    ]
                }),
            )
            .unwrap();
        d
    }

    #[test]
    fn every_arch_serves_reads_and_writes() {
        for arch in ArchKind::ALL {
            let mut d = deployment(arch);
            let r = d.serve_kv_read("kv", 5, t(1)).unwrap();
            assert_eq!(r.bytes, 1000, "{arch}");
            assert_eq!(r.seed, Some(0), "{arch}");
            assert!(!r.not_found);
            assert!(r.latency > SimDuration::ZERO);
            let w = d
                .serve_kv_write("kv", 5, Datum::Payload { len: 1000, seed: 7 }, t(2))
                .unwrap();
            assert!(w.version.is_some(), "{arch}");
            let r2 = d.serve_kv_read("kv", 5, t(3)).unwrap();
            if arch == ArchKind::LinkedTtl {
                // Unsharded TTL replicas: a different server may serve the
                // old value until its TTL lapses — bounded staleness.
                assert!(r2.seed == Some(7) || r2.seed == Some(0), "{arch}");
            } else {
                assert_eq!(r2.seed, Some(7), "{arch}: read after write sees new value");
            }
        }
    }

    #[test]
    fn linked_ttl_staleness_is_bounded_by_the_ttl() {
        let mut d = deployment(ArchKind::LinkedTtl);
        let ttl = d.config.linked_ttl;
        // Warm every server's replica of key 5 (round-robin routing).
        for i in 0..d.config.app_servers as u64 {
            d.serve_kv_read("kv", 5, t(i)).unwrap();
        }
        // A write through one server leaves the others' replicas stale.
        let at = t(100);
        d.serve_kv_write("kv", 5, Datum::Payload { len: 1000, seed: 7 }, at)
            .unwrap();
        let mut saw_stale = false;
        for i in 0..d.config.app_servers as u64 {
            let r = d.serve_kv_read("kv", 5, at + SimDuration::from_micros(i)).unwrap();
            saw_stale |= r.seed == Some(0);
        }
        assert!(saw_stale, "some replica must still serve the old value");
        // But strictly after the TTL, every server serves fresh data.
        let late = at + ttl + SimDuration::from_millis(1);
        for i in 0..2 * d.config.app_servers as u64 {
            let r = d.serve_kv_read("kv", 5, late + SimDuration::from_micros(i)).unwrap();
            assert_eq!(r.seed, Some(7), "staleness must not outlive the TTL");
        }
    }

    #[test]
    fn linked_hits_after_first_read() {
        let mut d = deployment(ArchKind::Linked);
        let r1 = d.serve_kv_read("kv", 1, t(1)).unwrap();
        assert!(!r1.cache_hit);
        let r2 = d.serve_kv_read("kv", 1, t(2)).unwrap();
        assert!(r2.cache_hit);
        assert!(r2.latency < r1.latency, "hits are much faster");
        assert_eq!(r2.sql_statements, 0, "hit touches no SQL");
    }

    #[test]
    fn remote_hits_after_first_read_and_costs_more_than_linked() {
        let mut dr = deployment(ArchKind::Remote);
        dr.serve_kv_read("kv", 1, t(1)).unwrap();
        let remote_hit = dr.serve_kv_read("kv", 1, t(2)).unwrap();
        assert!(remote_hit.cache_hit);

        let mut dl = deployment(ArchKind::Linked);
        dl.serve_kv_read("kv", 1, t(1)).unwrap();
        dl.reset_metrics();
        dl.serve_kv_read("kv", 1, t(2)).unwrap();
        let linked_cpu = dl.app_cpu_total().total();

        dr.reset_metrics();
        dr.serve_kv_read("kv", 1, t(3)).unwrap();
        let remote_cpu = dr.app_cpu_total().total() + dr.cache_cpu_total().total();
        assert!(
            remote_cpu > linked_cpu,
            "remote hit ({remote_cpu}) must cost more CPU than linked hit ({linked_cpu})"
        );
    }

    #[test]
    fn base_always_touches_sql() {
        let mut d = deployment(ArchKind::Base);
        for i in 0..5 {
            let r = d.serve_kv_read("kv", 1, t(i)).unwrap();
            assert!(!r.cache_hit);
            assert_eq!(r.sql_statements, 1);
        }
    }

    #[test]
    fn version_check_detects_external_update() {
        let mut d = deployment(ArchKind::LinkedVersion);
        d.serve_kv_read("kv", 9, t(1)).unwrap(); // fill cache
        // Update storage *behind the cache's back* (bypassing serve paths):
        d.cluster
            .execute(
                "UPDATE kv SET v = ? WHERE k = 9",
                &[Datum::Payload { len: 1000, seed: 99 }],
                t(2),
            )
            .unwrap();
        let r = d.serve_kv_read("kv", 9, t(3)).unwrap();
        assert_eq!(r.seed, Some(99), "version check must catch staleness");
        assert!(r.version_checks >= 1);
        assert!(!r.cache_hit, "stale hit is a miss after verification");
    }

    #[test]
    fn plain_linked_serves_stale_after_external_update() {
        // The contrast case: without version checks the linked cache
        // happily serves the old value — this is the consistency gap the
        // paper's §5.5 is about.
        let mut d = deployment(ArchKind::Linked);
        d.serve_kv_read("kv", 9, t(1)).unwrap();
        d.cluster
            .execute(
                "UPDATE kv SET v = ? WHERE k = 9",
                &[Datum::Payload { len: 1000, seed: 99 }],
                t(2),
            )
            .unwrap();
        let r = d.serve_kv_read("kv", 9, t(3)).unwrap();
        assert_eq!(r.seed, Some(0), "eventual consistency serves stale data");
        assert!(r.cache_hit);
    }

    #[test]
    fn version_checked_hit_costs_more_than_plain_hit() {
        let mut dv = deployment(ArchKind::LinkedVersion);
        dv.serve_kv_read("kv", 3, t(1)).unwrap();
        dv.reset_metrics();
        let rv = dv.serve_kv_read("kv", 3, t(2)).unwrap();
        assert!(rv.cache_hit);
        assert_eq!(rv.version_checks, 1);
        let checked_cpu = dv.app_cpu_total().total()
            + dv.cluster.frontend_cpu_total().total()
            + dv.cluster.storage_cpu_total().total();

        let mut dl = deployment(ArchKind::Linked);
        dl.serve_kv_read("kv", 3, t(1)).unwrap();
        dl.reset_metrics();
        dl.serve_kv_read("kv", 3, t(2)).unwrap();
        let plain_cpu = dl.app_cpu_total().total()
            + dl.cluster.frontend_cpu_total().total()
            + dl.cluster.storage_cpu_total().total();
        assert!(
            checked_cpu > plain_cpu * 3,
            "version check must dominate hit cost: {checked_cpu} vs {plain_cpu}"
        );
    }

    #[test]
    fn lease_owned_hit_skips_storage_entirely() {
        let mut d = deployment(ArchKind::LeaseOwned);
        d.sharder.renew_all(t(1));
        d.serve_kv_read("kv", 3, t(1)).unwrap();
        d.reset_metrics();
        let r = d.serve_kv_read("kv", 3, t(2)).unwrap();
        assert!(r.cache_hit);
        assert_eq!(r.version_checks, 0, "valid lease elides the check");
        assert_eq!(r.sql_statements, 0);
        assert_eq!(d.cluster.storage_cpu_total().total(), SimDuration::ZERO);
    }

    #[test]
    fn lease_expiry_falls_back_to_version_check() {
        let mut d = deployment(ArchKind::LeaseOwned);
        d.serve_kv_read("kv", 3, t(1)).unwrap();
        // Let every lease lapse (leases are 10s).
        let late = SimTime::from_nanos(20_000_000_000);
        let r = d.serve_kv_read("kv", 3, late).unwrap();
        assert_eq!(r.version_checks, 1, "expired lease must verify");
        assert!(r.cache_hit, "value was still fresh");
        // Lease renewed: next read is check-free again.
        let r2 = d
            .serve_kv_read("kv", 3, late + SimDuration::from_millis(1))
            .unwrap();
        assert_eq!(r2.version_checks, 0);
    }

    #[test]
    fn remote_write_invalidates() {
        let mut d = deployment(ArchKind::Remote);
        d.serve_kv_read("kv", 4, t(1)).unwrap();
        assert!(d.serve_kv_read("kv", 4, t(2)).unwrap().cache_hit);
        d.serve_kv_write("kv", 4, Datum::Payload { len: 1000, seed: 5 }, t(3))
            .unwrap();
        let r = d.serve_kv_read("kv", 4, t(4)).unwrap();
        assert!(!r.cache_hit, "lookaside write invalidates");
        assert_eq!(r.seed, Some(5));
        assert!(d.serve_kv_read("kv", 4, t(5)).unwrap().cache_hit, "refilled");
    }

    #[test]
    fn deletes_remove_from_storage_and_caches() {
        for arch in ArchKind::ALL {
            let mut d = deployment(arch);
            d.serve_kv_read("kv", 3, t(1)).unwrap(); // maybe fill cache
            let del = d.serve_kv_delete("kv", 3, t(2)).unwrap();
            assert!(del.version.is_some(), "{arch}");
            if arch == ArchKind::LinkedTtl {
                // Other servers' replicas may serve the tombstoned key
                // until their TTL lapses — after it, the key is gone
                // everywhere.
                let late = t(2) + d.config.linked_ttl + SimDuration::from_millis(1);
                for i in 0..2 * d.config.app_servers as u64 {
                    let r = d
                        .serve_kv_read("kv", 3, late + SimDuration::from_micros(i))
                        .unwrap();
                    assert!(r.not_found, "{arch}: delete must stick after TTL");
                }
            } else {
                let r = d.serve_kv_read("kv", 3, t(3)).unwrap();
                assert!(r.not_found, "{arch}: deleted key must be gone");
            }
            // Deleting again is a no-op write.
            d.serve_kv_delete("kv", 3, t(4 + 10_000)).unwrap();
        }
    }

    #[test]
    fn missing_keys_are_not_found_everywhere() {
        for arch in ArchKind::ALL {
            let mut d = deployment(arch);
            let r = d.serve_kv_read("kv", 4040, t(1)).unwrap();
            assert!(r.not_found, "{arch}");
            assert_eq!(r.seed, None);
        }
    }

    #[test]
    fn remote_crash_degrades_then_recovers_cold() {
        let mut d = deployment(ArchKind::Remote);
        d.serve_kv_read("kv", 1, t(1)).unwrap();
        assert!(d.serve_kv_read("kv", 1, t(2)).unwrap().cache_hit);

        for i in 0..d.cache_shard_count() {
            d.crash_cache_shard(i);
            assert!(!d.cache_shard_up(i));
        }
        let r = d.serve_kv_read("kv", 1, t(3)).unwrap();
        assert!(r.degraded, "down shard must degrade to storage");
        assert!(!r.cache_hit);
        assert_eq!(r.seed, Some(0), "value still served");
        assert_eq!(
            r.retries,
            d.config.fault_tolerance.retry.max_retries as u64,
            "retry budget exhausted before degrading"
        );
        assert!(
            d.metrics.counter_value(fault_counters::DEGRADED_READS) >= 1
        );
        assert!(d.net.dropped > 0, "failed attempts hit the fabric");

        for i in 0..d.cache_shard_count() {
            d.restart_cache_shard(i);
            assert!(d.cache_shard_up(i));
        }
        let r = d.serve_kv_read("kv", 1, t(4)).unwrap();
        assert!(!r.cache_hit, "restart is cold — entry was wiped");
        assert!(!r.degraded);
        assert!(d.serve_kv_read("kv", 1, t(5)).unwrap().cache_hit, "refilled");
        assert_eq!(
            d.metrics.counter_value(fault_counters::CACHE_CRASHES),
            d.cache_shard_count() as u64
        );
        assert_eq!(
            d.metrics.counter_value(fault_counters::CACHE_RESTARTS),
            d.cache_shard_count() as u64
        );
    }

    #[test]
    fn degraded_read_costs_latency_but_serves() {
        let mut d = deployment(ArchKind::Remote);
        let healthy = d.serve_kv_read("kv", 2, t(1)).unwrap(); // miss + fill
        for i in 0..d.cache_shard_count() {
            d.crash_cache_shard(i);
        }
        let degraded = d.serve_kv_read("kv", 2, t(2)).unwrap();
        assert!(
            degraded.latency > healthy.latency,
            "timeouts + backoff must show up in latency: {:?} vs {:?}",
            degraded.latency,
            healthy.latency
        );
    }

    #[test]
    fn no_fallback_means_unavailable_error() {
        let mut cfg = DeploymentConfig::test_small(ArchKind::Remote);
        cfg.fault_tolerance.degraded_fallback = false;
        let mut d = Deployment::new(cfg, kv_catalog("kv"));
        d.cluster
            .bulk_load("kv", (0..10i64).map(|k| {
                vec![Datum::Int(k), Datum::Payload { len: 100, seed: 0 }]
            }))
            .unwrap();
        for i in 0..d.cache_shard_count() {
            d.crash_cache_shard(i);
        }
        let err = d.serve_kv_read("kv", 1, t(1)).unwrap_err();
        assert!(matches!(err, StoreError::Unavailable { .. }), "{err}");
    }

    #[test]
    fn linked_family_survives_shard_crashes() {
        for arch in [
            ArchKind::Linked,
            ArchKind::LinkedVersion,
            ArchKind::LeaseOwned,
            ArchKind::LinkedTtl,
        ] {
            let mut d = deployment(arch);
            d.serve_kv_read("kv", 7, t(1)).unwrap();
            for i in 0..d.cache_shard_count() {
                d.crash_cache_shard(i);
            }
            let r = d.serve_kv_read("kv", 7, t(2)).unwrap();
            assert!(r.degraded, "{arch}");
            assert_eq!(r.seed, Some(0), "{arch}");
            // Writes keep working (cache maintenance skipped).
            let w = d
                .serve_kv_write("kv", 7, Datum::Payload { len: 1000, seed: 9 }, t(3))
                .unwrap();
            assert!(w.version.is_some(), "{arch}");
            assert_eq!(d.serve_kv_read("kv", 7, t(4)).unwrap().seed, Some(9), "{arch}");
            for i in 0..d.cache_shard_count() {
                d.restart_cache_shard(i);
            }
            let r = d.serve_kv_read("kv", 7, t(5)).unwrap();
            assert!(!r.degraded, "{arch}: healthy again after restart");
            assert_eq!(r.seed, Some(9), "{arch}: no stale resurrection");
        }
    }

    #[test]
    fn single_flight_coalesces_concurrent_fills() {
        let mut cfg = DeploymentConfig::test_small(ArchKind::Linked);
        cfg.fault_tolerance.single_flight = true;
        let mut d = Deployment::new(cfg, kv_catalog("kv"));
        d.cluster
            .bulk_load("kv", (0..10i64).map(|k| {
                vec![Datum::Int(k), Datum::Payload { len: 1000, seed: 0 }]
            }))
            .unwrap();
        let leader = d.serve_kv_read("kv", 1, t(1)).unwrap();
        assert_eq!(leader.sql_statements, 1);
        assert!(!leader.coalesced);
        // A second identical miss "arrives" while the first fill is still in
        // flight (the cache insert only lands at fill completion; here the
        // entry IS cached, so force the miss by clearing the shard).
        for c in &mut d.linked {
            c.clear();
        }
        let follower = d.serve_kv_read("kv", 1, t(1)).unwrap();
        assert!(follower.coalesced, "identical in-flight fill must coalesce");
        assert_eq!(follower.sql_statements, 0, "no duplicate SQL");
        assert_eq!(follower.seed, Some(0));
        assert_eq!(
            d.metrics.counter_value(fault_counters::STAMPEDE_SUPPRESSED),
            1
        );
        // After a write, the stale in-flight result must not be served.
        d.serve_kv_write("kv", 1, Datum::Payload { len: 1000, seed: 3 }, t(2))
            .unwrap();
        for c in &mut d.linked {
            c.clear();
        }
        let fresh = d.serve_kv_read("kv", 1, t(3)).unwrap();
        assert!(!fresh.coalesced, "write invalidates the in-flight fill");
        assert_eq!(fresh.seed, Some(3));
    }

    #[test]
    fn healthy_path_is_unchanged_by_fault_machinery() {
        // With defaults (no single-flight, nothing crashed) the serve paths
        // must charge exactly what they did before the fault layer existed:
        // counters stay zero and no randomness is consumed.
        for arch in ArchKind::ALL {
            let mut d = deployment(arch);
            for i in 0..20u64 {
                d.serve_kv_read("kv", (i % 7) as i64, t(i + 1)).unwrap();
            }
            assert_eq!(d.metrics.counter_value(fault_counters::DEGRADED_READS), 0);
            assert_eq!(d.metrics.counter_value(fault_counters::RETRIES), 0);
            assert_eq!(d.net.dropped, 0, "{arch}");
        }
    }

    fn batching_deployment(window_us: f64, max_batch: u32) -> Deployment {
        let mut cfg = DeploymentConfig::test_small(ArchKind::Remote);
        cfg.batching = crate::config::BatchingConfig {
            batch_window_us: window_us,
            max_batch,
        };
        let mut d = Deployment::new(cfg, kv_catalog("kv"));
        d.cluster
            .bulk_load(
                "kv",
                (0..100i64).map(|k| {
                    vec![
                        Datum::Int(k),
                        Datum::Payload { len: 1000, seed: 0 },
                    ]
                }),
            )
            .unwrap();
        d
    }

    /// Total CPU the remote path burns: app tier + cache tier.
    fn remote_path_cpu(d: &Deployment) -> SimDuration {
        d.app_cpu_total().total() + d.cache_cpu_total().total()
    }

    #[test]
    fn unwindowed_batching_charges_exactly_like_disabled() {
        // max_batch > 1 but a zero-length window: every per-request RPC
        // opens (and closes) its own frame, so CPU must be bit-identical
        // to batching-off — the knob only moves costs when frames coalesce.
        let mut off = deployment(ArchKind::Remote);
        let mut on = batching_deployment(0.0, 8);
        for i in 0..30u64 {
            let a = off.serve_kv_read("kv", (i % 7) as i64, t(i + 1)).unwrap();
            let b = on.serve_kv_read("kv", (i % 7) as i64, t(i + 1)).unwrap();
            assert_eq!(a, b, "identical outcomes, latency included");
        }
        assert_eq!(remote_path_cpu(&off), remote_path_cpu(&on));
        let frames = on.metrics.counter_value(batch_counters::RPC_BATCHES);
        let keys = on.metrics.counter_value(batch_counters::BATCHED_RPC_KEYS);
        assert!(frames > 0, "enabled batching still counts frames");
        assert_eq!(frames, keys, "zero window ⇒ every frame has one key");
        assert_eq!(
            on.batch_size_counts.iter().collect::<Vec<_>>(),
            vec![(&1u32, &frames)]
        );
        assert_eq!(off.metrics.counter_value(batch_counters::RPC_BATCHES), 0);
    }

    #[test]
    fn windowed_batching_coalesces_and_trades_latency_for_cpu() {
        let mut off = deployment(ArchKind::Remote);
        let mut on = batching_deployment(10_000.0, 4);
        // Warm one key in both, then read it 16 times in a tight burst that
        // fits inside one coalescing window.
        off.serve_kv_read("kv", 1, t(1)).unwrap();
        on.serve_kv_read("kv", 1, t(1)).unwrap();
        off.reset_metrics();
        on.reset_metrics();
        let mut off_lat = SimDuration::ZERO;
        let mut on_lat = SimDuration::ZERO;
        for i in 0..16u64 {
            let at = t(100_000) + SimDuration::from_micros(i);
            let a = off.serve_kv_read("kv", 1, at).unwrap();
            let b = on.serve_kv_read("kv", 1, at).unwrap();
            assert!(a.cache_hit && b.cache_hit);
            assert_eq!(a.seed, b.seed);
            off_lat += a.latency;
            on_lat += b.latency;
        }
        let frames = on.metrics.counter_value(batch_counters::RPC_BATCHES);
        let keys = on.metrics.counter_value(batch_counters::BATCHED_RPC_KEYS);
        assert_eq!(keys, 16);
        assert!(
            frames < keys,
            "a burst inside the window must coalesce: {frames} frames for {keys} keys"
        );
        assert!(
            remote_path_cpu(&on) < remote_path_cpu(&off),
            "coalesced frames must burn less CPU: {:?} vs {:?}",
            remote_path_cpu(&on),
            remote_path_cpu(&off)
        );
        assert!(
            on_lat > off_lat,
            "waiting out the window must show up in latency: {on_lat:?} vs {off_lat:?}"
        );
        // Each follower elides the fixed per-RPC cost on both message sides
        // of both meters (app + cache node).
        let followers = keys - frames;
        let saved_per_follower = SimDuration::from_micros_f64(
            4.0 * (on.config.app_cost.rpc_fixed_us - on.config.app_cost.rpc_batched_key_us),
        );
        assert_eq!(
            remote_path_cpu(&off).as_nanos() - remote_path_cpu(&on).as_nanos(),
            saved_per_follower.saturating_mul(followers).as_nanos(),
            "CPU saving must be exactly followers × amortized constant"
        );
    }

    #[test]
    fn explicit_batch_read_matches_sequential_modulo_amortized_constant() {
        let keys: Vec<i64> = (0..20).collect();
        let mut seq = deployment(ArchKind::Remote);
        let mut bat = batching_deployment(0.0, 8);
        // Identical warmup fills in both; meters reset after.
        for (i, &k) in keys.iter().enumerate() {
            seq.serve_kv_read("kv", k, t(i as u64 + 1)).unwrap();
            bat.serve_kv_read("kv", k, t(i as u64 + 1)).unwrap();
        }
        seq.reset_metrics();
        bat.reset_metrics();

        let seq_outs: Vec<ServeOutcome> = keys
            .iter()
            .map(|&k| seq.serve_kv_read("kv", k, t(1000)).unwrap())
            .collect();
        let bat_outs = bat.serve_kv_read_batch("kv", &keys, t(1000)).unwrap();

        assert_eq!(bat_outs.len(), seq_outs.len());
        for (a, b) in seq_outs.iter().zip(&bat_outs) {
            // Same semantics: hit/miss, value identity, version. Latency is
            // *not* compared — followers' cheaper RPC legs shorten it.
            assert_eq!(a.cache_hit, b.cache_hit);
            assert_eq!(a.bytes, b.bytes);
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.version, b.version);
            assert_eq!(a.not_found, b.not_found);
            assert!(b.cache_hit, "warmed keys must hit");
        }
        let frames = bat.metrics.counter_value(batch_counters::RPC_BATCHES);
        let carried = bat.metrics.counter_value(batch_counters::BATCHED_RPC_KEYS);
        assert_eq!(carried, keys.len() as u64);
        assert!(frames < carried, "chunks of 8 must produce followers");
        let followers = carried - frames;
        let saved_per_follower = SimDuration::from_micros_f64(
            4.0 * (bat.config.app_cost.rpc_fixed_us - bat.config.app_cost.rpc_batched_key_us),
        );
        assert_eq!(
            remote_path_cpu(&seq).as_nanos() - remote_path_cpu(&bat).as_nanos(),
            saved_per_follower.saturating_mul(followers).as_nanos()
        );
        // The size histogram accounts for every key exactly once.
        let histo_keys: u64 = bat
            .batch_size_counts
            .iter()
            .map(|(&s, &c)| s as u64 * c)
            .sum();
        assert_eq!(histo_keys, carried);
    }

    #[test]
    fn batch_read_on_non_remote_archs_loops_the_scalar_path() {
        for arch in [ArchKind::Base, ArchKind::Linked] {
            let mut a = deployment(arch);
            let mut b = deployment(arch);
            let keys: Vec<i64> = (0..6).collect();
            let singles: Vec<ServeOutcome> = keys
                .iter()
                .map(|&k| a.serve_kv_read("kv", k, t(5)).unwrap())
                .collect();
            let batched = b.serve_kv_read_batch("kv", &keys, t(5)).unwrap();
            assert_eq!(singles, batched, "{arch}");
        }
    }

    #[test]
    fn linked_routing_is_deterministic_by_key() {
        let mut d = deployment(ArchKind::Linked);
        d.serve_kv_read("kv", 42, t(1)).unwrap();
        // All traffic for key 42 lands on one shard: exactly one shard has
        // a non-zero lookup count.
        let shards_touched = d
            .linked
            .iter()
            .filter(|c| c.stats().lookups() > 0)
            .count();
        assert_eq!(shards_touched, 1);
    }

    fn test_plan(cache_bytes: u64, shards: u32) -> elastic::Plan {
        elastic::Plan {
            cache_bytes,
            ssd_bytes: 0,
            shards,
            per_shard_bytes: cache_bytes.div_ceil(shards.max(1) as u64),
            vms: 1,
            predicted_miss_ratio: 0.1,
            monthly_dollars: 1.0,
        }
    }

    fn remote_deployment(nodes: usize) -> Deployment {
        let mut cfg = DeploymentConfig::test_small(ArchKind::Remote);
        cfg.remote_cache_nodes = nodes;
        let mut d = Deployment::new(cfg, kv_catalog("kv"));
        d.cluster
            .bulk_load(
                "kv",
                (0..100i64).map(|k| {
                    vec![Datum::Int(k), Datum::Payload { len: 1000, seed: 0 }]
                }),
            )
            .unwrap();
        d
    }

    #[test]
    fn elastic_is_inert_by_default() {
        let mut d = deployment(ArchKind::Remote);
        assert!(!d.elastic.enabled());
        for k in 0..20 {
            d.serve_kv_read("kv", k, t(k as u64)).unwrap();
        }
        assert_eq!(d.elastic.profiler().raw_accesses(), 0);
        assert_eq!(d.metrics.counter_value(elastic_counters::RESIZES), 0);
        assert_eq!(d.metrics.counter_value(elastic_counters::MIGRATED_ENTRIES), 0);
    }

    #[test]
    fn elastic_observe_feeds_the_profiler_when_enabled() {
        let mut cfg = DeploymentConfig::test_small(ArchKind::Remote);
        cfg.elastic = elastic::ElasticConfig::with_interval(10.0);
        let mut d = Deployment::new(cfg, kv_catalog("kv"));
        d.cluster
            .bulk_load(
                "kv",
                (0..20i64).map(|k| {
                    vec![Datum::Int(k), Datum::Payload { len: 1000, seed: 0 }]
                }),
            )
            .unwrap();
        for k in 0..20 {
            d.serve_kv_read("kv", k, t(k as u64)).unwrap();
        }
        assert_eq!(d.elastic.profiler().raw_accesses(), 20);
    }

    #[test]
    fn elastic_remote_drain_migrates_residents_to_survivors() {
        let mut d = remote_deployment(4);
        let keys: Vec<i64> = (0..60).collect();
        for &k in &keys {
            d.serve_kv_read("kv", k, t(k as u64)).unwrap();
        }
        let full_capacity = d.elastic_cache_capacity_bytes();
        assert_eq!(d.active_remote_nodes(), 4);
        let cpu_before = d.cache_cpu_total().total();

        d.apply_elastic_plan(test_plan(full_capacity, 2), t(1_000));
        assert_eq!(d.active_remote_nodes(), 2);
        assert_eq!(d.metrics.counter_value(elastic_counters::SHARDS_DRAINED), 2);
        let migrated = d.metrics.counter_value(elastic_counters::MIGRATED_ENTRIES);
        assert!(migrated > 0, "draining half the ring must move entries");
        assert!(d.metrics.counter_value(elastic_counters::MIGRATED_BYTES) >= 1000 * migrated);
        assert!(
            d.cache_cpu_total().total() > cpu_before,
            "migration CPU must be charged to the cache tier"
        );
        // Drained nodes hold nothing and bill nothing.
        assert_eq!(d.remote[2].capacity_bytes(), 0);
        assert_eq!(d.remote[3].capacity_bytes(), 0);
        assert_eq!(d.remote[2].used_bytes() + d.remote[3].used_bytes(), 0);
        // Every warmed key survived the drain: all reads still hit.
        for &k in &keys {
            let r = d.serve_kv_read("kv", k, t(2_000 + k as u64)).unwrap();
            assert!(r.cache_hit, "key {k} lost during drain");
        }
    }

    #[test]
    fn elastic_remote_restore_round_trips_placement() {
        let mut d = remote_deployment(4);
        let fresh_ids: Vec<u32> = d.remote_ring.shard_ids().collect();
        for k in 0..60 {
            d.serve_kv_read("kv", k, t(k as u64)).unwrap();
        }
        let capacity = d.elastic_cache_capacity_bytes();
        d.apply_elastic_plan(test_plan(capacity / 4, 1), t(1_000));
        assert_eq!(d.active_remote_nodes(), 1);
        d.apply_elastic_plan(test_plan(capacity, 4), t(2_000));
        assert_eq!(d.active_remote_nodes(), 4);
        assert_eq!(
            d.remote_ring.shard_ids().collect::<Vec<u32>>(),
            fresh_ids,
            "drain + restore must reproduce the original ring membership"
        );
        assert_eq!(d.metrics.counter_value(elastic_counters::SHARDS_RESTORED), 3);
        // Residents sit where a fresh ring would place them.
        for node in 0..4 {
            let misplaced = d.remote[node]
                .keys()
                .filter(|&&k| d.remote_node_for(k) != node)
                .count();
            assert_eq!(misplaced, 0, "node {node} holds keys it does not own");
        }
        for k in 0..60 {
            let r = d.serve_kv_read("kv", k, t(3_000 + k as u64)).unwrap();
            assert!(r.cache_hit, "key {k} lost across drain/restore");
        }
    }

    #[test]
    fn elastic_linked_shrink_resizes_every_server_and_counts_evictions() {
        let mut d = deployment(ArchKind::Linked);
        for k in 0..100 {
            d.serve_kv_read("kv", k, t(k as u64)).unwrap();
        }
        let resident = d.cache_resident_bytes();
        assert!(resident > 0);
        // Shrink to roughly a third of what's resident: must evict.
        let target = resident / 3;
        d.apply_elastic_plan(test_plan(target, 1), t(1_000));
        let per_server = (target / d.linked.len() as u64).max(1);
        for c in &d.linked {
            assert_eq!(c.capacity_bytes(), per_server);
            assert!(c.used_bytes() <= per_server);
        }
        assert_eq!(d.elastic_cache_capacity_bytes(), per_server * d.linked.len() as u64);
        assert_eq!(d.metrics.counter_value(elastic_counters::RESIZES), 1);
        assert!(d.metrics.counter_value(elastic_counters::RESIZE_EVICTIONS) > 0);
        // Re-applying the same plan is a no-op.
        d.apply_elastic_plan(test_plan(target, 1), t(2_000));
        assert_eq!(d.metrics.counter_value(elastic_counters::RESIZES), 1);
    }

    #[test]
    fn elastic_plan_on_base_arch_is_a_noop() {
        let mut d = deployment(ArchKind::Base);
        assert_eq!(d.elastic_cache_capacity_bytes(), 0);
        d.apply_elastic_plan(test_plan(1 << 20, 2), t(1));
        assert_eq!(d.metrics.counter_value(elastic_counters::RESIZES), 0);
    }

    #[test]
    fn app_charges_are_priced_from_their_fields() {
        // Distinct, non-round app costs: a charge priced from the wrong
        // field, or off by one nanosecond, moves a meter.
        let mut config = DeploymentConfig::test_small(ArchKind::LinkedVersion);
        config.app_cost = crate::config::AppCostConfig {
            client_rpc_fixed_us: 101.3,
            client_rpc_per_byte_ns: 0.137,
            serialize_per_byte_ns: 0.417,
            serialize_fixed_us: 2.19,
            request_prep_us: 43.7,
            rpc_fixed_us: 33.1,
            rpc_per_byte_ns: 0.913,
            local_cache_op_us: 1.37,
            cache_server_op_us: 6.23,
            rpc_batched_key_us: 2.71,
            object_assemble_per_part_us: 5.93,
            object_assemble_per_byte_ns: 0.319,
            lease_validate_us: 0.43,
            expiry_sweep_entry_us: 0.31,
        };
        let cost = config.app_cost;
        let mut d = Deployment::new(config, kv_catalog("kv"));
        let value = |len: u64| Datum::Payload { len, seed: 1 };
        d.cluster
            .bulk_load("kv", (0..20i64).map(|k| vec![Datum::Int(k), value(300 + 70 * k as u64)]))
            .unwrap();
        // Fills, version-checked hits, fills of missing keys and writes,
        // so consecutive round trips repeat one size and change the other.
        let serves = [(3, false), (3, false), (25, false), (3, true), (7, false), (26, false)];
        let serves = serves.iter().chain(&[(3, false), (7, true), (7, false), (7, false)]);
        let mut want = CpuMeter::new();
        for (i, &(key, write)) in serves.enumerate() {
            let now = t(100 * (i as u64 + 1));
            let out = if write {
                let len = 500 + i as u64;
                want.charge(CpuCategory::Serialization, cost.serialize_cost(len));
                d.serve_kv_write("kv", key, value(len), now).unwrap()
            } else {
                d.serve_kv_read("kv", key, now).unwrap()
            };
            assert_eq!(out.sql_statements, 1, "serve {i}");
            let (req, resp) = (d.receipt.request_bytes, d.receipt.response_bytes);
            let rpc = cost.rpc_side_cost(req) + cost.rpc_side_cost(resp);
            want.charge(CpuCategory::AppLogic, SimDuration::from_micros_f64(cost.request_prep_us));
            want.charge(CpuCategory::RpcStack, rpc);
            want.charge(CpuCategory::Serialization, cost.serialize_cost(resp));
            want.charge(CpuCategory::CacheOp, SimDuration::from_micros_f64(cost.local_cache_op_us));
        }
        let mut got = CpuMeter::new();
        for meter in &d.app_cpu {
            got.merge(meter);
        }
        for cat in [
            CpuCategory::AppLogic,
            CpuCategory::RpcStack,
            CpuCategory::Serialization,
            CpuCategory::CacheOp,
        ] {
            assert_eq!(got.category(cat), want.category(cat), "{cat}");
        }
    }
}
