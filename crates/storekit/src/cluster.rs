//! The deployed database: SQL front-ends + replicated storage pods.
//!
//! [`SqlCluster`] mirrors the paper's TiDB deployment (§5.1): stateless SQL
//! front-end pods that parse/plan/drive queries and storage pods that hold
//! Raft-replicated regions of MVCC data behind per-pod block caches. Every
//! query charges CPU to the pods that did the work, with categories mapping
//! onto the paper's §5.3 breakdown, and returns a [`QueryReceipt`] carrying
//! rows, MVCC versions, bytes, latency and counters.
//!
//! The read path (and therefore the §5.5 version-check path) is:
//! front-end parse+plan → transaction-layer lease validation → RPC to the
//! region leader → block-cache/KV row fetch → full row shipped back →
//! front-end projection. A version check runs the *whole* path and returns
//! 8 bytes — which is exactly why it erases the cache's savings.
//!
//! The cluster owns its [`KvEngine`]s, and each storage pod points at one.
//! Pods that host the same regions and have applied the same log share one
//! engine: in the paper's deployment (3 pods, replication 3) the host holds
//! the dataset once, and each committed entry is put into it once, while
//! every replica's meters and durable WAL are charged as if it had applied
//! the entry alone. A pod gets its own copy of the engine at the first
//! apply batch in which it would apply entries that a pod sharing its
//! engine does not (a crashed or lagging Raft replica), or when its engine
//! is replaced (a crash wipe or a recovery), and stays private from then on.
//! Sharing is a host-side representation only: versions, per-pod
//! `bytes_written`, charges and latencies are those of one engine per pod.

use crate::block::{BlockCache, BlockConfig};
use crate::cost::StorageCostConfig;
use crate::durability::{DurabilityConfig, DurabilityStats, DurableStore};
use crate::error::{StoreError, StoreResult};
use crate::kv::{
    encode_key_datum, index_prefix, record_key_into, record_prefix, KvEngine, LoadRun,
};
use crate::raft::{ApplyOp, LogEntry, RaftGroup};
use crate::row::Row;
use crate::schema::Catalog;
use crate::sql::exec::{execute, ExecOutcome, ExecStats, Mutation, RowStore, WriteBatch};
use crate::sql::parser::parse;
use crate::sql::plan::{plan, PhysicalPlan};
use crate::value::Datum;
use cachekit::ring::stable_hash;
use simnet::net::LinkSpec;
use simnet::{CpuCategory, CpuMeter, SimDuration, SimTime};

/// Deployment shape and cost knobs.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// SQL front-end pod count (TiDB pods; paper uses 3).
    pub frontends: usize,
    /// Storage pod count (TiKV pods; paper uses 3).
    pub storage_nodes: usize,
    /// Replication factor (3 in the paper's TiKV).
    pub replicas: usize,
    /// Region (raft group) count; more regions spread leadership.
    pub regions: u64,
    /// Block-cache DRAM per storage pod — the paper's `s_D` knob.
    pub block_cache_bytes: u64,
    /// Non-cache memory provisioned per storage pod (engine overheads); the
    /// paper provisions 15 GB/pod total.
    pub base_mem_bytes: u64,
    /// Memory provisioned per SQL front-end pod (TiDB pods are mostly
    /// stateless but carry session/plan caches).
    pub frontend_mem_bytes: u64,
    /// Leader lease duration.
    pub lease: SimDuration,
    /// Front-end ↔ storage link.
    pub link: LinkSpec,
    pub cost: StorageCostConfig,
    pub block: BlockConfig,
    /// WAL + snapshot durability for storage pods. Off by default — pods
    /// are implicitly stable and crashes only toggle raft liveness.
    pub durability: DurabilityConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            frontends: 3,
            storage_nodes: 3,
            replicas: 3,
            regions: 12,
            block_cache_bytes: 1 << 30, // 1 GiB per pod
            base_mem_bytes: 2 << 30,
            frontend_mem_bytes: 4 << 30,
            lease: SimDuration::from_secs(10),
            link: LinkSpec {
                base_latency: SimDuration::from_micros(25),
                bandwidth_bytes_per_sec: 1_250_000_000,
            },
            cost: StorageCostConfig::default(),
            block: BlockConfig::default(),
            durability: DurabilityConfig::default(),
        }
    }
}

/// One storage pod: CPU meter, block cache, and which of the cluster's
/// engines holds its replica data ([`SqlCluster::engine`]).
#[derive(Debug)]
pub struct StoragePod {
    pub cpu: CpuMeter,
    pub block_cache: BlockCache,
    /// Index into `SqlCluster::engines`.
    engine: usize,
}

/// Apply one committed raft entry to a KV engine.
fn apply(kv: &mut KvEngine, entry: &LogEntry) {
    for m in &entry.batch.mutations {
        kv.put_at(&m.key, m.value.as_deref(), entry.version);
    }
}

/// How the storage pods share engines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineSharing {
    /// Distinct engines the cluster holds.
    pub engines: usize,
    /// Engine copies made because pods sharing an engine diverged.
    pub splits: u64,
    /// Replica applies of an entry that an engine shared with another
    /// replica had already taken: puts saved by sharing.
    pub shared_applies: u64,
}

/// Which of `regions` regions a raw key belongs to.
fn region_index(key: &[u8], regions: usize) -> usize {
    region_of_hash(stable_hash(key), regions)
}

/// [`region_index`] of a key whose `stable_hash` is `key_hash`.
fn region_of_hash(key_hash: u64, regions: usize) -> usize {
    (key_hash % regions as u64) as usize
}

/// Storage pods grouped by the regions they host: `(regions, pods)` per
/// distinct set, both ascending.
fn replica_sets(regions: &[RaftGroup], pods: usize) -> Vec<(Vec<usize>, Vec<usize>)> {
    let mut hosted = vec![Vec::new(); pods];
    for (r, region) in regions.iter().enumerate() {
        for &pod in &region.replicas {
            hosted[pod].push(r);
        }
    }
    let mut sets: Vec<(Vec<usize>, Vec<usize>)> = Vec::new();
    for (pod, regions) in hosted.into_iter().enumerate() {
        match sets.iter_mut().find(|(r, _)| *r == regions) {
            Some((_, pods)) => pods.push(pod),
            None => sets.push((regions, vec![pod])),
        }
    }
    sets
}

/// Mirror one applied raft entry into the pod's durable store: WAL append
/// (+ group-commit fsync when due, + snapshot when the cadence fires).
/// Charges the pod's meter and returns the total CPU so write paths can also
/// bill it to the statement's receipt. No-op (and zero) with durability off.
/// `kv` is the pod's engine with `entry` applied; a snapshot copies it.
fn durable_apply(
    durable: &mut DurableStore,
    kv: &KvEngine,
    cpu: &mut CpuMeter,
    config: &ClusterConfig,
    region: usize,
    entry: &LogEntry,
) -> SimDuration {
    if !config.durability.enabled() {
        return SimDuration::ZERO;
    }
    let wal_cpu = durable.on_apply(
        region,
        entry.version,
        &entry.batch.mutations,
        entry.bytes,
        &config.cost,
    );
    cpu.charge(CpuCategory::Replication, wal_cpu);
    let mut total = wal_cpu;
    if let Some(snap_cpu) = durable.maybe_snapshot(kv, &config.cost) {
        cpu.charge(CpuCategory::KvExec, snap_cpu);
        total += snap_cpu;
    }
    total
}

/// What one point read touched in the storage tier: the leader pod that
/// served it, the row's logical bytes (0 when the key is absent), the
/// block-cache `(hits, misses)` of its access, and the row's MVCC version.
struct PointRead {
    pod: usize,
    logical: u64,
    blocks: (u64, u64),
    version: Option<u64>,
}

/// The storage-state effects of one point read by record key, billed or
/// not: the region leader's latest version is decoded into `row`, and that
/// pod's block cache is accessed for the row's bytes (one byte for a
/// negative lookup). The key is hashed once, for both the region and the
/// block cache. Nothing is charged.
///
/// With `hints` (one per engine), the engine read is
/// [`KvEngine::get_latest_hinted`] on the leader's engine's hint; the
/// answer is the same either way.
fn point_read(
    storages: &mut [StoragePod],
    engines: &[KvEngine],
    regions: &[RaftGroup],
    key: &[u8],
    row: &mut Row,
    hints: Option<&mut [usize]>,
) -> StoreResult<PointRead> {
    let key_hash = stable_hash(key);
    let pod = regions[region_of_hash(key_hash, regions.len())].leader()?;
    let storage = &mut storages[pod];
    let engine = &engines[storage.engine];
    let latest = match hints {
        Some(hints) => engine.get_latest_hinted(key, &mut hints[storage.engine]),
        None => engine.get_latest(key),
    };
    let version = match latest {
        Some(v) => {
            Row::decode_into(v.value, row)?;
            Some(v.version)
        }
        None => None,
    };
    let logical = version.map_or(0, |_| row.encoded_size());
    let blocks = storage.block_cache.access_hashed(key_hash, logical.max(1));
    Ok(PointRead {
        pod,
        logical,
        blocks,
        version,
    })
}

/// One SQL front-end pod.
#[derive(Debug, Default)]
pub struct FrontendPod {
    pub cpu: CpuMeter,
}

/// What one statement cost and returned. [`SqlCluster::execute_cached_into`]
/// refills one in place, reusing its buffers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryReceipt {
    pub rows: Vec<Row>,
    /// MVCC version per returned row.
    pub versions: Vec<u64>,
    /// Commit version if this was a write.
    pub write_version: Option<u64>,
    /// CPU charged to front-end pods by this statement.
    pub frontend_cpu: SimDuration,
    /// CPU charged to storage pods by this statement.
    pub storage_cpu: SimDuration,
    /// End-to-end latency inside the database (front-end arrival → response
    /// ready). The caller adds its own hop to the front-end.
    pub latency: SimDuration,
    /// Logical bytes of the SQL text + parameters.
    pub request_bytes: u64,
    /// Logical bytes of the returned rows.
    pub response_bytes: u64,
    /// Front-end ↔ storage messages.
    pub storage_rpcs: u64,
    pub block_hits: u64,
    pub block_misses: u64,
    pub stats: ExecStats,
}

/// A write that has been prepared (front-end work done, batches built) but
/// not yet committed — used by the Figure 8 delayed-writes scenario.
#[derive(Debug)]
pub struct DelayedWrite {
    batch: WriteBatch,
    receipt: QueryReceipt,
}

/// The deployed cluster.
pub struct SqlCluster {
    /// Fixed at construction: charges priced from it once
    /// ([`FixedCharges`], a [`CachedStatement`]'s parse and plan) must
    /// agree with those priced from it per call. Read it through
    /// [`SqlCluster::config`].
    config: ClusterConfig,
    pub catalog: Catalog,
    pub frontends: Vec<FrontendPod>,
    pub storages: Vec<StoragePod>,
    /// The distinct engines the pods point at; every one is some pod's.
    engines: Vec<KvEngine>,
    /// Splits and shared applies so far.
    sharing: EngineSharing,
    regions: Vec<RaftGroup>,
    /// Per-pod durable state (WAL + snapshot); inert when durability is off.
    durable: Vec<DurableStore>,
    next_frontend: usize,
    /// Cluster-wide commit version counter (the TSO analogue).
    tso: u64,
    /// Front-end plan cache: parsing and planning are pure functions of
    /// `(catalog, sql)`, and the catalog is fixed at construction (DDL is
    /// test-only), so repeated statement shapes skip the parser on the wall
    /// clock. Simulated CPU is untouched — cached executions still charge
    /// the full `parse_plan_cost` (priced once, when the statement is
    /// prepared), exactly like TiDB bills a plan-cache hit to its front-end
    /// in the paper's deployment.
    plan_cache: std::collections::HashMap<String, CachedStatement>,
    /// Scratch buffer for record keys and encoded rows, reused across
    /// statements.
    point_key: Vec<u8>,
    /// The executor's spare row buffer (see [`execute`]): it carries a
    /// decoded row's buffer across statements that return no row, such as
    /// a REPLACE, so the next point read into a reused receipt decodes
    /// without allocating.
    spare_row: Row,
    /// Per engine, one past the arena position of the last key a warm
    /// read found there: the position hint of
    /// [`SqlCluster::warm_point_read`]'s engine reads. Resized to the
    /// engine count on use.
    warm_hints: Vec<usize>,
    /// The statement charges that depend on `config` alone, priced once;
    /// `config` must not change after construction.
    fixed: FixedCharges,
    /// Scratch buffer for the apply work of one raft proposal or heartbeat.
    apply_ops: Vec<ApplyOp>,
    /// Scratch buffer for that work per pod: `(pod, first, end)` log indices.
    apply_ranges: Vec<(usize, usize, usize)>,
}

/// Distinct statement shapes worth remembering per cluster; beyond this the
/// cache stops filling (it never evicts — the workloads that matter reuse a
/// handful of shapes).
const PLAN_CACHE_CAP: usize = 256;

/// A statement parsed, planned and priced once against one cluster, for
/// [`SqlCluster::execute_cached`]. It carries its front-end connection,
/// parse and plan charge, priced from the preparing cluster's costs, so an
/// execution charges exactly what the original text would without redoing
/// the parser work or the float arithmetic. Run it on the cluster that
/// prepared it (or one with the same costs).
#[derive(Debug, Clone)]
pub struct CachedStatement {
    physical: PhysicalPlan,
    sql_bytes: usize,
    parse_plan: SimDuration,
}

/// A table resolved for warm reads ([`SqlCluster::warm_table`]): its
/// record-key prefix, which each warm read extends by the primary key.
#[derive(Debug, Clone)]
pub struct WarmTable {
    prefix: Vec<u8>,
}

/// Bytes of a storage fetch RPC's request: the encoded key and a header.
const FETCH_REQ_BYTES: u64 = 48;

/// The charges of a statement that depend on the cluster's cost and link
/// configuration alone, priced once in [`SqlCluster::new`]. Each is exactly
/// the duration its per-statement pricing gave.
#[derive(Debug, Clone, Copy)]
struct FixedCharges {
    /// Transaction-layer lease validation of one consistent read.
    lease_check: SimDuration,
    /// One side of a fetch RPC's request ([`FETCH_REQ_BYTES`]).
    fetch_req_side: SimDuration,
    /// The link's delivery time of that request.
    fetch_req_delivery: SimDuration,
    /// Front-end post-processing of a one-row result (a version probe's,
    /// a fill's).
    post_one_row: SimDuration,
}

impl FixedCharges {
    fn new(config: &ClusterConfig) -> Self {
        let cost = &config.cost;
        FixedCharges {
            lease_check: SimDuration::from_micros_f64(cost.txn_lease_check_us),
            fetch_req_side: cost.rpc_side_cost(FETCH_REQ_BYTES),
            fetch_req_delivery: config.link.delivery_time(FETCH_REQ_BYTES),
            post_one_row: SimDuration::from_micros_f64(cost.frontend_per_row_us),
        }
    }
}

impl SqlCluster {
    pub fn new(catalog: Catalog, config: ClusterConfig) -> Self {
        assert!(config.frontends > 0 && config.storage_nodes > 0);
        let replicas = config.replicas.min(config.storage_nodes).max(1);
        let regions: Vec<RaftGroup> = (0..config.regions.max(1))
            .map(|r| {
                // Spread replica sets and leadership round-robin over pods.
                let members: Vec<usize> = (0..replicas)
                    .map(|i| ((r as usize) + i) % config.storage_nodes)
                    .collect();
                RaftGroup::new(r, members, SimTime::ZERO, config.lease)
            })
            .collect();
        // The pods of one replica set receive the same writes: they start on
        // one engine.
        let mut engine_of = vec![0; config.storage_nodes];
        let sets = replica_sets(&regions, config.storage_nodes);
        for (engine, (_, pods)) in sets.iter().enumerate() {
            for &pod in pods {
                engine_of[pod] = engine;
            }
        }
        let storages = engine_of
            .into_iter()
            .map(|engine| StoragePod {
                cpu: CpuMeter::new(),
                block_cache: BlockCache::new(config.block_cache_bytes, config.block),
                engine,
            })
            .collect();
        let region_count = config.regions.max(1) as usize;
        let durable = (0..config.storage_nodes)
            .map(|_| DurableStore::new(config.durability, region_count))
            .collect();
        SqlCluster {
            catalog,
            frontends: (0..config.frontends).map(|_| FrontendPod::default()).collect(),
            storages,
            engines: sets.iter().map(|_| KvEngine::new()).collect(),
            sharing: EngineSharing::default(),
            regions,
            durable,
            next_frontend: 0,
            tso: 0,
            plan_cache: std::collections::HashMap::new(),
            point_key: Vec::new(),
            spare_row: Row::default(),
            warm_hints: Vec::new(),
            fixed: FixedCharges::new(&config),
            apply_ops: Vec::new(),
            apply_ranges: Vec::new(),
            config,
        }
    }

    /// The configuration this cluster was built with.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Which region a raw key belongs to.
    fn region_of(&self, key: &[u8]) -> usize {
        region_index(key, self.regions.len())
    }

    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    pub fn region(&self, idx: usize) -> &RaftGroup {
        &self.regions[idx]
    }

    pub fn region_mut(&mut self, idx: usize) -> &mut RaftGroup {
        &mut self.regions[idx]
    }

    /// The KV engine holding storage pod `pod`'s replica data. Pods that
    /// share an engine return the same one.
    pub fn engine(&self, pod: usize) -> &KvEngine {
        &self.engines[self.storages[pod].engine]
    }

    /// Give storage pod `pod` the engine `kv`. A pod that shares its engine
    /// leaves the others on it and holds `kv` alone from then on; a pod that
    /// holds its engine alone drops it.
    pub fn replace_engine(&mut self, pod: usize, kv: KvEngine) {
        let engine = self.storages[pod].engine;
        if self.storages.iter().filter(|s| s.engine == engine).count() == 1 {
            self.engines[engine] = kv;
        } else {
            self.storages[pod].engine = self.engines.len();
            self.engines.push(kv);
        }
    }

    /// How many engines the pods hold, and the splits and shared applies
    /// so far.
    pub fn engine_sharing(&self) -> EngineSharing {
        EngineSharing {
            engines: self.engines.len(),
            ..self.sharing
        }
    }

    /// Memory provisioned per storage pod (block cache + base).
    pub fn storage_mem_bytes_per_node(&self) -> u64 {
        self.config.block_cache_bytes + self.config.base_mem_bytes
    }

    /// Logical bytes ever written to one copy of the data: every pod's
    /// lifetime `bytes_written`, divided by the replica count. This is the
    /// disk billing basis. It counts every write, superseded ones included,
    /// so it grows with rewrites while the live dataset stays flat.
    pub fn primary_data_bytes(&self) -> u64 {
        // Every pod holds a replica subset; sum one pod set / replicas.
        let total: u64 = (0..self.storages.len())
            .map(|pod| self.engine(pod).bytes_written())
            .sum();
        total / self.config.replicas.max(1) as u64
    }

    /// Reset all CPU meters and cache statistics (between warmup and
    /// measurement).
    pub fn reset_metrics(&mut self) {
        for f in &mut self.frontends {
            f.cpu.reset();
        }
        for s in &mut self.storages {
            s.cpu.reset();
            s.block_cache.reset_stats();
        }
        for d in &mut self.durable {
            d.stats.reset();
        }
    }

    /// Renew leases / catch up stragglers on every region (heartbeat tick).
    pub fn tick(&mut self, now: SimTime) {
        for r in 0..self.regions.len() {
            self.regions[r].tick(now, &mut self.apply_ops);
            self.apply_batch(r, None);
            self.compact_log(r);
        }
    }

    /// Apply region `r`'s raft work in `apply_ops`, entry by entry in log
    /// order. First, pods that share an engine but apply different entries
    /// in this batch split: each group of them with a different batch takes
    /// one copy of the engine as it stands before the batch. Then each entry
    /// is put once into every distinct engine of the replicas applying it,
    /// and each of those replicas is charged and logs the entry to its
    /// durable WAL as if it had applied the entry alone; a snapshot taken
    /// there sees its engine with exactly the entries up to this one.
    ///
    /// A proposal passes its `receipt`: replicas are charged the KV write
    /// and replication, and the receipt collects the storage CPU. A
    /// heartbeat's catch-up passes `None` and charges replication only.
    /// Returns the largest follower replication cost.
    fn apply_batch(&mut self, r: usize, mut receipt: Option<&mut QueryReceipt>) -> SimDuration {
        if self.apply_ops.is_empty() {
            return SimDuration::ZERO;
        }
        // Apply straight from the log: `regions`, `engines` and `storages`
        // are disjoint fields, so no entry is cloned.
        let region = &self.regions[r];
        // Each slot's work is a run of consecutive indices.
        let ranges = &mut self.apply_ranges;
        ranges.clear();
        for op in &self.apply_ops {
            let pod = region.replicas[op.slot];
            match ranges.last_mut() {
                Some((last, _, end)) if *last == pod => {
                    debug_assert_eq!(*end, op.index, "a slot's work is consecutive");
                    *end = op.index + 1;
                }
                _ => ranges.push((pod, op.index, op.index + 1)),
            }
        }
        let ranges = &*ranges;
        let batch_of = |pod: usize| {
            ranges
                .iter()
                .find(|&&(p, ..)| p == pod)
                .map_or((0, 0), |&(_, first, end)| (first, end))
        };

        // The lowest pod on each engine keeps it; each other group of its
        // sharers with a different batch moves to one copy.
        let storages = &mut self.storages;
        for first in 0..storages.len() {
            let engine = storages[first].engine;
            if storages[..first].iter().any(|s| s.engine == engine) {
                continue;
            }
            let kept = batch_of(first);
            for pod in first + 1..storages.len() {
                let moved = batch_of(pod);
                if storages[pod].engine != engine || moved == kept {
                    continue;
                }
                let copy = self.engines.len();
                self.engines.push(self.engines[engine].clone());
                self.sharing.splits += 1;
                for (q, s) in storages.iter_mut().enumerate().skip(pod) {
                    if s.engine == engine && batch_of(q) == moved {
                        s.engine = copy;
                    }
                }
            }
        }

        let (lo, hi) = ranges
            .iter()
            .fold((usize::MAX, 0), |(lo, hi), &(_, first, end)| (lo.min(first), hi.max(end)));
        let cost = &self.config.cost;
        let mut max_follower = SimDuration::ZERO;
        for index in lo..hi {
            let entry = region.entry(index);
            let kv_cost =
                SimDuration::from_micros_f64(cost.kv_write_us * entry.batch.mutations.len() as f64);
            let repl_cost = cost.raft_follower_cost(entry.bytes);
            let applying =
                |&&(_, first, end): &&(usize, usize, usize)| (first..end).contains(&index);
            for (i, &(pod, ..)) in ranges.iter().enumerate().filter(|(_, range)| applying(range)) {
                let engine = storages[pod].engine;
                let earlier = &ranges[..i];
                if earlier.iter().filter(applying).any(|&(p, ..)| storages[p].engine == engine) {
                    self.sharing.shared_applies += 1;
                } else {
                    apply(&mut self.engines[engine], entry);
                }
                let cpu = &mut storages[pod].cpu;
                cpu.charge(CpuCategory::Replication, repl_cost);
                let durable_cpu = durable_apply(
                    &mut self.durable[pod],
                    &self.engines[engine],
                    cpu,
                    &self.config,
                    r,
                    entry,
                );
                if let Some(receipt) = receipt.as_deref_mut() {
                    cpu.charge(CpuCategory::KvExec, kv_cost);
                    receipt.storage_cpu += kv_cost + repl_cost + durable_cpu;
                }
                max_follower = max_follower.max(repl_cost);
            }
        }
        max_follower
    }

    /// Drop region `r`'s log prefix that every replica has applied and,
    /// with durability on, that every hosting pod's durable prefix covers:
    /// a recovering pod rejoins at its durable prefix and is re-replicated
    /// from there.
    fn compact_log(&mut self, r: usize) {
        let region = &mut self.regions[r];
        let upto = if self.config.durability.enabled() {
            region
                .replicas
                .iter()
                .map(|&pod| self.durable[pod].durable_applied(r))
                .min()
                .unwrap_or(0)
        } else {
            usize::MAX
        };
        region.compact(upto);
    }

    /// Simulated machine crash of one storage pod (durability on): all
    /// volatile state — memtables, block cache, un-fsynced WAL tail — is
    /// discarded and every region replica hosted on the pod goes down.
    /// Bring it back with [`SqlCluster::recover_pod`].
    pub fn crash_pod(&mut self, pod: usize) {
        assert!(
            self.config.durability.enabled(),
            "crash_pod models durable-storage crashes; enable durability"
        );
        let lost_blocks = self.storages[pod].block_cache.resident_blocks() as u64;
        self.durable[pod].stats.cold_refill_cpu_us +=
            (self.config.cost.block_miss_us * lost_blocks as f64) as u64;
        self.storages[pod].block_cache.wipe();
        self.replace_engine(pod, KvEngine::new());
        for region in self.regions.iter_mut() {
            if let Some(slot) = region.replicas.iter().position(|&p| p == pod) {
                region.crash(slot);
            }
        }
    }

    /// Recover a crashed pod: load its snapshot, replay the synced WAL
    /// prefix, rejoin each hosted region claiming exactly the durable
    /// prefix, re-elect leaders for regions the crash left leaderless, and
    /// let the quorum re-replicate the lost tail. Returns the simulated
    /// recovery wall time (SSD seek + snapshot load + WAL replay).
    pub fn recover_pod(&mut self, pod: usize, now: SimTime) -> SimDuration {
        assert!(
            self.config.durability.enabled(),
            "recover_pod models durable-storage recovery; enable durability"
        );
        let outcome = self.durable[pod].crash_and_recover(&self.config.cost);
        self.replace_engine(pod, outcome.kv);
        self.storages[pod].cpu.charge(CpuCategory::KvExec, outcome.replay_cpu);
        for (r, region) in self.regions.iter_mut().enumerate() {
            if let Some(slot) = region.replicas.iter().position(|&p| p == pod) {
                region.restart_recovered(slot, outcome.durable_applied[r]);
            }
        }
        for region in self.regions.iter_mut() {
            if region.leader().is_err() {
                let _ = region.elect(now);
            }
        }
        // Quorum catch-up re-applies (and re-WALs) everything beyond the
        // recovered prefix.
        self.tick(now);
        outcome.recovery_time
    }

    pub fn durability_enabled(&self) -> bool {
        self.config.durability.enabled()
    }

    /// Durability counters merged across pods.
    pub fn durability_stats(&self) -> DurabilityStats {
        let mut s = DurabilityStats::default();
        for d in &self.durable {
            s.merge(&d.stats);
        }
        s
    }

    /// Bytes resident on the SSD tier across pods (snapshots + WALs) — the
    /// basis for $/GB SSD billing.
    pub fn ssd_resident_bytes(&self) -> u64 {
        self.durable.iter().map(|d| d.ssd_resident_bytes()).sum()
    }

    /// Load rows directly into the storage tier, bypassing the SQL path and
    /// CPU accounting — the "restore from backup" primitive experiments use
    /// to seed datasets. Rows are validated, indexed and replicated exactly
    /// as SQL inserts would be. Returns the number of rows loaded.
    ///
    /// Pods that host the same regions receive the same writes, so the load
    /// builds one [`LoadRun`] per distinct replica set; in the paper's
    /// deployment (3 pods, replication 3) every pod hosts every region and
    /// there is one run. Each row is encoded once, into the cluster's
    /// scratch key buffer and a row buffer, and appended as an engine entry
    /// to the run of each set that hosts its region. The run goes once into
    /// each distinct engine the set's pods hold: pods that share an engine
    /// load it once and keep sharing it, and a pod that has split off or
    /// been wiped loads the run into its own engine. Rows in ascending key
    /// order into empty engines (every benchmark's set-up) leave each run's
    /// pages as its engine's arena, so the load holds no copy of the
    /// dataset beside the engines; a table with secondary indexes
    /// interleaves index and record keys, and its runs are sorted.
    pub fn bulk_load<I>(&mut self, table: &str, rows: I) -> StoreResult<usize>
    where
        I: IntoIterator<Item = Vec<Datum>>,
    {
        let schema = self.catalog.get(table)?.clone();
        let sets = replica_sets(&self.regions, self.storages.len());
        let region_count = self.regions.len();
        let mut hosts: Vec<Vec<usize>> = vec![Vec::new(); region_count];
        for (set, (regions, _)) in sets.iter().enumerate() {
            for &r in regions {
                hosts[r].push(set);
            }
        }
        let mut runs: Vec<LoadRun> = sets.iter().map(|_| LoadRun::new()).collect();
        let mut push = |key: &[u8], value: &[u8], version: u64| {
            for &set in &hosts[region_index(key, region_count)] {
                runs[set].push(key, Some(value), version);
            }
        };
        // Rows before an invalid one still load, as they would one by one.
        let mut record = std::mem::take(&mut self.point_key);
        let mut encoded = Vec::new();
        let mut count = 0usize;
        let mut outcome = Ok(());
        for values in rows {
            let row = Row(values);
            if let Err(e) = schema.validate(&row) {
                outcome = Err(e);
                break;
            }
            let pk = schema.pk_of(&row);
            self.tso += 1;
            let version = self.tso;
            record_key_into(&mut record, table, pk);
            encoded.clear();
            row.encode_into(&mut encoded);
            for &col in &schema.indexes {
                let ik = crate::kv::index_key(table, col, row.get(col).unwrap_or(&Datum::Null), pk);
                push(&ik, &record, version);
            }
            push(&record, &encoded, version);
            count += 1;
        }
        self.point_key = record;
        for ((_, pods), run) in sets.iter().zip(runs) {
            self.load_run(pods, run);
        }
        outcome?;
        // A restore-from-backup lands durable: snapshot each pod so the
        // loaded dataset survives crashes without replaying a giant WAL.
        // Like the load itself, this charges no CPU.
        if self.config.durability.enabled() {
            for pod in 0..self.storages.len() {
                let kv = &self.engines[self.storages[pod].engine];
                self.durable[pod].snapshot_now(kv, &self.config.cost);
            }
        }
        Ok(count)
    }

    /// Load one replica set's run into each distinct engine its `pods`
    /// hold. Only the pods of one set share an engine, so no other pod
    /// sees the run.
    fn load_run(&mut self, pods: &[usize], run: LoadRun) {
        let mut engines: Vec<usize> = pods.iter().map(|&pod| self.storages[pod].engine).collect();
        engines.sort_unstable();
        engines.dedup();
        if let Some((&last, rest)) = engines.split_last() {
            for &engine in rest {
                self.engines[engine].bulk_load(run.clone());
            }
            self.engines[last].bulk_load(run);
        }
    }

    /// Execute one SQL statement. `now` is the simulation time of arrival at
    /// the front-end.
    pub fn execute(
        &mut self,
        sql: &str,
        params: &[Datum],
        now: SimTime,
    ) -> StoreResult<QueryReceipt> {
        // Plan-cache hit: lift the entry out, run it, put it back — no
        // clone, no allocation, identical receipts (the plan is a pure
        // function of the immutable catalog and the SQL text).
        if let Some((sql_owned, stmt)) = self.plan_cache.remove_entry(sql) {
            let out = self.execute_cached(&stmt, params, now);
            self.plan_cache.insert(sql_owned, stmt);
            return out;
        }
        let stmt = self.prepare_cached(sql)?;
        let out = self.execute_cached(&stmt, params, now);
        if self.plan_cache.len() < PLAN_CACHE_CAP {
            self.plan_cache.insert(sql.to_string(), stmt);
        }
        out
    }

    /// Parse, plan and price a statement once for repeated
    /// [`execute_cached`] calls on this cluster. A cached statement is a
    /// pure wall-clock optimization: execution charges the full
    /// `parse_plan_cost` of the original text, byte-identical to
    /// [`execute`].
    ///
    /// [`execute_cached`]: SqlCluster::execute_cached
    /// [`execute`]: SqlCluster::execute
    pub fn prepare_cached(&self, sql: &str) -> StoreResult<CachedStatement> {
        Ok(CachedStatement {
            physical: plan(&self.catalog, &parse(sql)?)?,
            sql_bytes: sql.len(),
            parse_plan: self.config.cost.parse_plan_cost(sql.len()),
        })
    }

    /// Execute a [`prepare_cached`] statement into a fresh receipt — receipts
    /// and CPU charges are exactly those of `execute` on the original SQL
    /// text.
    ///
    /// [`prepare_cached`]: SqlCluster::prepare_cached
    pub fn execute_cached(
        &mut self,
        stmt: &CachedStatement,
        params: &[Datum],
        now: SimTime,
    ) -> StoreResult<QueryReceipt> {
        let mut receipt = QueryReceipt::default();
        self.execute_cached_into(stmt, params, now, &mut receipt)?;
        Ok(receipt)
    }

    /// The statement-execution core: run `stmt`, charging the pods that do
    /// the work, and fill `receipt` with what it cost and returned.
    ///
    /// The executor runs the prepared plan against the storage tier with
    /// static dispatch, and a point SELECT (a version probe, a fill) takes
    /// its straight-line branch. The statement's constant charges (its
    /// parse and plan, the lease check, a one-row result's
    /// post-processing, a fetch RPC's request side) were priced when the
    /// statement was prepared and the cluster built; charges that depend
    /// on what the statement reads or writes are priced per call.
    ///
    /// Every field of `receipt` is replaced, but its buffers are kept: the
    /// `rows` and `versions` vectors keep their capacity and the first
    /// row's datum buffer takes the next point read. A caller that keeps
    /// one receipt across statements therefore runs point SELECTs, version
    /// probes and REPLACEs on rows of fixed-width datums (the `kv` table's)
    /// without allocating for the result. The receipt, charges and
    /// round-robin state are bit-identical to [`execute_cached`]'s. On error
    /// the receipt's contents are unspecified.
    ///
    /// [`execute_cached`]: SqlCluster::execute_cached
    pub fn execute_cached_into(
        &mut self,
        stmt: &CachedStatement,
        params: &[Datum],
        now: SimTime,
        receipt: &mut QueryReceipt,
    ) -> StoreResult<()> {
        if let Some(batch) = self.run_statement(stmt, params, receipt)? {
            receipt.write_version = Some(self.commit_batch(batch, now, receipt)?);
        }
        Ok(())
    }

    /// Everything of [`SqlCluster::execute_cached_into`] but the commit:
    /// front-end admission, lease check, the executor and front-end
    /// post-processing. A write's batch is returned uncommitted.
    fn run_statement(
        &mut self,
        stmt: &CachedStatement,
        params: &[Datum],
        receipt: &mut QueryReceipt,
    ) -> StoreResult<Option<WriteBatch>> {
        // The executor refills the receipt's buffers.
        let mut out = ExecOutcome {
            rows: std::mem::take(&mut receipt.rows),
            versions: std::mem::take(&mut receipt.versions),
            ..ExecOutcome::default()
        };

        // Front-end admission: connection handling, parse and plan.
        let fe = self.next_frontend % self.frontends.len();
        self.next_frontend = self.next_frontend.wrapping_add(1);
        let cost = stmt.parse_plan;
        self.frontends[fe].cpu.charge(CpuCategory::SqlFrontend, cost);
        *receipt = QueryReceipt {
            frontend_cpu: cost,
            latency: cost,
            request_bytes: stmt.sql_bytes as u64
                + params.iter().map(|d| d.encoded_size()).sum::<u64>(),
            ..QueryReceipt::default()
        };

        // Transaction layer: consistent reads validate the leader lease.
        if stmt.physical.is_read() {
            let lease_cost = self.fixed.lease_check;
            self.frontends[fe].cpu.charge(CpuCategory::TxnLease, lease_cost);
            receipt.frontend_cpu += lease_cost;
            receipt.latency += lease_cost;
        }

        // Drive the executor with a store that charges pods as it fetches.
        {
            let mut store = ClusterRowStore {
                storages: &mut self.storages,
                engines: &self.engines,
                regions: &self.regions,
                cost: &self.config.cost,
                link: &self.config.link,
                fixed: self.fixed,
                receipt,
                point_key: &mut self.point_key,
                region_count: self.config.regions.max(1) as usize,
            };
            let spare = &mut self.spare_row;
            execute(&self.catalog, &stmt.physical, params, &mut store, &mut out, spare)?;
        }
        receipt.rows = out.rows;
        receipt.versions = out.versions;
        receipt.stats = out.stats;

        // Front-end post-processing per returned row.
        let post = match receipt.rows.len() {
            1 => self.fixed.post_one_row,
            n => SimDuration::from_micros_f64(self.config.cost.frontend_per_row_us * n as f64),
        };
        self.frontends[fe].cpu.charge(CpuCategory::SqlFrontend, post);
        receipt.frontend_cpu += post;
        receipt.latency += post;
        receipt.response_bytes = receipt.rows.iter().map(|r| r.encoded_size()).sum();
        Ok(out.write)
    }

    /// Route a write batch through the raft groups of the touched regions.
    /// A batch that touches one region, as every `kv` write does, is
    /// proposed as it is.
    fn commit_batch(
        &mut self,
        batch: WriteBatch,
        now: SimTime,
        receipt: &mut QueryReceipt,
    ) -> StoreResult<u64> {
        if batch.is_empty() {
            // e.g. UPDATE matching zero rows: still a valid write statement.
            self.tso += 1;
            return Ok(self.tso);
        }
        let WriteBatch {
            mutations,
            logical_bytes,
        } = batch;
        let bytes_per_mutation = logical_bytes / mutations.len() as u64;
        // One commit version for the statement (TSO-style).
        self.tso += 1;
        let version = self.tso;
        let home = self.region_of(&mutations[0].key);
        if mutations[1..]
            .iter()
            .all(|m| self.region_of(&m.key) == home)
        {
            self.commit_region(home, mutations, bytes_per_mutation, version, now, receipt)?;
            return Ok(version);
        }
        // Group mutations by region, regions in ascending order and each
        // region's mutations in statement order; they move, uncopied, into
        // the per-region log entries.
        let mut routed: Vec<(usize, Mutation)> =
            mutations.into_iter().map(|m| (self.region_of(&m.key), m)).collect();
        routed.sort_by_key(|&(r, _)| r);
        let mut routed = routed.into_iter().peekable();
        while let Some((region_idx, first)) = routed.next() {
            let mut mutations = vec![first];
            while let Some((_, m)) = routed.next_if(|&(r, _)| r == region_idx) {
                mutations.push(m);
            }
            self.commit_region(
                region_idx,
                mutations,
                bytes_per_mutation,
                version,
                now,
                receipt,
            )?;
        }
        Ok(version)
    }

    /// Propose one region's mutations at `version` and apply the entry on
    /// every replica that commits it ([`SqlCluster::apply_batch`]),
    /// charging the leader RPC, replication and KV work to the pods and the
    /// receipt.
    fn commit_region(
        &mut self,
        region_idx: usize,
        mutations: Vec<Mutation>,
        bytes_per_mutation: u64,
        version: u64,
        now: SimTime,
        receipt: &mut QueryReceipt,
    ) -> StoreResult<()> {
        // The log entry carries the encoded values' bytes, which drive the
        // follower and WAL charges; the leader RPC ships at least the
        // statement's logical bytes per mutation.
        let logical_bytes = mutations
            .iter()
            .map(|m| m.value.as_ref().map_or(0, |v| v.len() as u64))
            .sum();
        let sub = WriteBatch {
            mutations,
            logical_bytes,
        };

        let leader = self.regions[region_idx].leader()?;
        // RPC front-end → leader carrying the batch.
        let bytes = 64 + sub.logical_bytes.max(bytes_per_mutation);
        self.charge_rpc(leader, bytes, 16, receipt, now);

        let leader_cost = self.config.cost.raft_leader_cost(bytes);
        self.storages[leader].cpu.charge(CpuCategory::Replication, leader_cost);
        receipt.storage_cpu += leader_cost;

        self.regions[region_idx].propose(sub, version, now, &mut self.apply_ops)?;
        let max_follower = self.apply_batch(region_idx, Some(receipt));
        self.compact_log(region_idx);
        // Quorum round trip: leader → follower → ack.
        receipt.latency += self.config.link.delivery_time(bytes) * 2 + max_follower;
        Ok(())
    }

    /// Charge one front-end↔storage round trip (request `req_bytes` out,
    /// `resp_bytes` back) and add its latency to the receipt.
    fn charge_rpc(
        &mut self,
        pod: usize,
        resp_bytes: u64,
        req_bytes: u64,
        receipt: &mut QueryReceipt,
        _now: SimTime,
    ) {
        let fe = (self.next_frontend.wrapping_sub(1)) % self.frontends.len();
        let fe_cost =
            self.config.cost.rpc_side_cost(req_bytes) + self.config.cost.rpc_side_cost(resp_bytes);
        let pod_cost = fe_cost;
        self.frontends[fe].cpu.charge(CpuCategory::RpcStack, fe_cost);
        self.storages[pod].cpu.charge(CpuCategory::RpcStack, pod_cost);
        receipt.frontend_cpu += fe_cost;
        receipt.storage_cpu += pod_cost;
        receipt.storage_rpcs += 1;
        receipt.latency += self.config.link.delivery_time(req_bytes)
            + self.config.link.delivery_time(resp_bytes)
            + fe_cost
            + pod_cost;
    }

    /// Prepare a write but do not commit it — models the paper's Figure 8
    /// delayed write. Front-end and executor read costs are charged now;
    /// replication happens at [`SqlCluster::commit_delayed`].
    pub fn begin_delayed_write(
        &mut self,
        sql: &str,
        params: &[Datum],
        _now: SimTime,
    ) -> StoreResult<DelayedWrite> {
        let stmt = self.prepare_cached(sql)?;
        if stmt.physical.is_read() {
            return Err(StoreError::Unsupported("delayed read".to_string()));
        }
        let mut receipt = QueryReceipt::default();
        let batch = self.run_statement(&stmt, params, &mut receipt)?;
        Ok(DelayedWrite {
            batch: batch.unwrap_or_default(),
            receipt,
        })
    }

    /// Commit a previously prepared delayed write.
    pub fn commit_delayed(
        &mut self,
        mut delayed: DelayedWrite,
        now: SimTime,
    ) -> StoreResult<QueryReceipt> {
        let version = {
            let DelayedWrite { batch, receipt } = &mut delayed;
            self.commit_batch(std::mem::take(batch), now, receipt)?
        };
        delayed.receipt.write_version = Some(version);
        Ok(delayed.receipt)
    }

    /// Aggregate front-end CPU across pods.
    pub fn frontend_cpu_total(&self) -> CpuMeter {
        let mut m = CpuMeter::new();
        for f in &self.frontends {
            m.merge(&f.cpu);
        }
        m
    }

    /// Aggregate storage CPU across pods.
    pub fn storage_cpu_total(&self) -> CpuMeter {
        let mut m = CpuMeter::new();
        for s in &self.storages {
            m.merge(&s.cpu);
        }
        m
    }

    /// Resolve `table` once for a run of [`SqlCluster::warm_point_read`]s.
    /// An unknown table fails here, before any read changes state.
    pub fn warm_table(&self, table: &str) -> StoreResult<WarmTable> {
        self.catalog.get(table)?;
        Ok(WarmTable {
            prefix: record_prefix(table),
        })
    }

    /// A point read of `table`'s row with primary key `pk` into `row`, as
    /// a load rather than a statement: it leaves the state that a billed
    /// point SELECT of the row leaves (one front-end round-robin turn, the
    /// region leader's block-cache access) and returns the row's MVCC
    /// version, but charges no meter and builds no receipt. `row` holds
    /// the full stored row when the key exists. Cache prewarming uses it
    /// to heat storage without billing work that is discarded anyway.
    ///
    /// Each engine read starts at the entry after the one the last warm
    /// read found in that engine ([`KvEngine::get_latest_hinted`]), so
    /// reads in ascending key order walk a loaded engine's run instead of
    /// probing its hash index; any other order reads the same rows.
    pub fn warm_point_read(
        &mut self,
        table: &WarmTable,
        pk: &Datum,
        row: &mut Row,
    ) -> StoreResult<Option<u64>> {
        self.next_frontend = self.next_frontend.wrapping_add(1);
        let mut key = std::mem::take(&mut self.point_key);
        key.clear();
        key.extend_from_slice(&table.prefix);
        encode_key_datum(&mut key, pk);
        self.warm_hints.resize(self.engines.len(), 0);
        let read = point_read(
            &mut self.storages,
            &self.engines,
            &self.regions,
            &key,
            row,
            Some(&mut self.warm_hints),
        );
        self.point_key = key;
        Ok(read?.version)
    }

    /// Mean block-cache hit ratio over pods (0 when unused).
    pub fn block_cache_hit_ratio(&self) -> f64 {
        let n = self.storages.len().max(1) as f64;
        self.storages.iter().map(|s| s.block_cache.hit_ratio()).sum::<f64>() / n
    }

    /// Summed raw block-cache `(hits, misses)` across pods — the mergeable
    /// counterpart of [`SqlCluster::block_cache_hit_ratio`] used when a
    /// sharded experiment folds per-shard clusters into one report.
    pub fn block_cache_counts(&self) -> (u64, u64) {
        self.storages.iter().fold((0, 0), |(h, m), s| {
            let (sh, sm) = s.block_cache.counts();
            (h + sh, m + sm)
        })
    }
}

/// The executor's window into the storage tier: every fetch routes to the
/// region leader, pays RPC + block-cache + KV costs on the right pods, and
/// accumulates into the receipt. It reads the engines and never writes
/// them; writes reach them through raft.
struct ClusterRowStore<'a> {
    storages: &'a mut Vec<StoragePod>,
    engines: &'a [KvEngine],
    regions: &'a Vec<RaftGroup>,
    cost: &'a StorageCostConfig,
    link: &'a LinkSpec,
    fixed: FixedCharges,
    receipt: &'a mut QueryReceipt,
    /// The cluster's scratch buffer for record keys and encoded rows: the
    /// store is rebuilt per query, so a buffer of its own would allocate
    /// per request.
    point_key: &'a mut Vec<u8>,
    region_count: usize,
}

impl<'a> ClusterRowStore<'a> {
    /// The engine of storage pod `pod`.
    fn engine(&self, pod: usize) -> &'a KvEngine {
        &self.engines[self.storages[pod].engine]
    }

    /// Charge a storage-side row read (block cache + KV) on `pod` for the
    /// row whose key hashes to `key_hash`.
    fn charge_row_read(&mut self, pod: usize, key_hash: u64, bytes: u64, rows_scanned: u64) {
        let blocks = self.storages[pod]
            .block_cache
            .access_hashed(key_hash, bytes.max(1));
        self.bill_row_read(pod, bytes, rows_scanned, blocks);
    }

    /// Charge a storage-side row read whose block-cache access on `pod`
    /// came out as `(hits, misses)`.
    fn bill_row_read(
        &mut self,
        pod: usize,
        bytes: u64,
        rows_scanned: u64,
        (hits, misses): (u64, u64),
    ) {
        self.receipt.block_hits += hits;
        self.receipt.block_misses += misses;
        let kv = self.cost.kv_read_cost(bytes, rows_scanned);
        self.storages[pod].cpu.charge(CpuCategory::KvExec, kv);
        self.receipt.storage_cpu += kv;
        self.receipt.latency += kv;
        // Most reads hit the block cache: price the misses only if any.
        if misses > 0 {
            let miss_cpu = SimDuration::from_micros_f64(self.cost.block_miss_us * misses as f64);
            self.storages[pod].cpu.charge(CpuCategory::KvExec, miss_cpu);
            self.receipt.storage_cpu += miss_cpu;
            self.receipt.latency += miss_cpu
                + SimDuration::from_micros_f64(self.cost.disk_read_latency_us * misses as f64);
        }
    }

    /// Charge the front-end↔storage round trip for a fetch. Both sides'
    /// RPC CPU goes into the receipt and its latency, but only the storage
    /// side is charged to a meter: no front-end pod's meter is billed for
    /// the front-end side, so billed SQL-frontend CPU falls short of the
    /// receipts' `frontend_cpu` by exactly this amount per fetch (pinned by
    /// `fetch_rpc_frontend_side_is_unbilled`).
    fn charge_fetch_rpc(&mut self, pod: usize, resp_bytes: u64) {
        let fe_cost = self.fixed.fetch_req_side + self.cost.rpc_side_cost(resp_bytes);
        self.storages[pod].cpu.charge(CpuCategory::RpcStack, fe_cost);
        self.receipt.storage_cpu += fe_cost;
        self.receipt.frontend_cpu += fe_cost;
        self.receipt.storage_rpcs += 1;
        self.receipt.latency += self.fixed.fetch_req_delivery
            + self.link.delivery_time(resp_bytes)
            + fe_cost * 2;
    }

    /// The leader pod of the region of the key hashing to `key_hash`.
    fn leader_for_hash(&self, key_hash: u64) -> StoreResult<usize> {
        self.regions[region_of_hash(key_hash, self.region_count)].leader()
    }

    /// Fetch one row by record key from its home region into `row`: the
    /// [`point_read`] plus its charges.
    fn point_get_key(&mut self, key: &[u8], row: &mut Row) -> StoreResult<Option<u64>> {
        let read = point_read(self.storages, self.engines, self.regions, key, row, None)?;
        // Negative lookups still pay lookup + RPC.
        self.bill_row_read(read.pod, read.logical, 1, read.blocks);
        self.charge_fetch_rpc(read.pod, read.logical);
        Ok(read.version)
    }

    /// Point-fetch each record key from its home region, with charges.
    fn fetch_rows_by_record_keys(
        &mut self,
        record_keys: Vec<Vec<u8>>,
    ) -> StoreResult<Vec<(Row, u64)>> {
        let mut rows = Vec::new();
        for key in record_keys {
            let key_hash = stable_hash(&key);
            let pod = self.leader_for_hash(key_hash)?;
            let found = self
                .engine(pod)
                .get_latest(&key)
                .map(|v| Row::decode(v.value).map(|row| (row, v.version)))
                .transpose()?;
            if let Some((row, version)) = found {
                let logical = row.encoded_size();
                self.charge_row_read(pod, key_hash, logical, 1);
                self.charge_fetch_rpc(pod, logical);
                rows.push((row, version));
            }
        }
        Ok(rows)
    }

    /// Every live row of `[start, end)` in each region's slice, read from
    /// the region's leader and charged per row: the multi-region scan
    /// behind `pk_range` and `full_scan`.
    fn scan_rows(&mut self, start: &[u8], end: Option<&[u8]>) -> StoreResult<Vec<(Row, u64)>> {
        let mut rows = Vec::new();
        for region_idx in 0..self.region_count {
            let pod = self.regions[region_idx].leader()?;
            let region_count = self.region_count;
            let hits: Vec<(u64, Vec<u8>, u64)> = self
                .engine(pod)
                .scan_between(start, end)
                .filter_map(|(k, v)| {
                    let key_hash = stable_hash(k);
                    (region_of_hash(key_hash, region_count) == region_idx)
                        .then(|| (key_hash, v.value.to_vec(), v.version))
                })
                .collect();
            let mut region_bytes = 0u64;
            for (key_hash, bytes, version) in hits {
                let row = Row::decode(&bytes)?;
                let logical = row.encoded_size();
                region_bytes += logical;
                self.charge_row_read(pod, key_hash, logical, 1);
                rows.push((row, version));
            }
            self.charge_fetch_rpc(pod, region_bytes);
        }
        Ok(rows)
    }
}

impl RowStore for ClusterRowStore<'_> {
    fn point_get(&mut self, table: &str, pk: &Datum, row: &mut Row) -> StoreResult<Option<u64>> {
        // Build the key in the cluster's scratch buffer and decode straight
        // out of the MVCC store's borrowed bytes into the caller's row: the
        // hottest read in the simulator allocates nothing for fixed-width
        // datums.
        let mut key = std::mem::take(self.point_key);
        record_key_into(&mut key, table, pk);
        let out = self.point_get_key(&key, row);
        *self.point_key = key;
        out
    }

    fn index_lookup(
        &mut self,
        table: &str,
        column: usize,
        value: &Datum,
    ) -> StoreResult<Vec<(Row, u64)>> {
        let prefix = index_prefix(table, column, value);
        let prefix_hash = stable_hash(&prefix);
        let pod = self.leader_for_hash(prefix_hash)?;
        let record_keys: Vec<Vec<u8>> = self
            .engine(pod)
            .scan_prefix(&prefix)
            .map(|(_, v)| v.value.to_vec())
            .collect();
        // Index scan: one block access over the index range, rows = entries.
        self.charge_row_read(pod, prefix_hash, 32 * record_keys.len() as u64, record_keys.len().max(1) as u64);
        self.charge_fetch_rpc(pod, 40 * record_keys.len() as u64);
        self.fetch_rows_by_record_keys(record_keys)
    }

    fn index_range(
        &mut self,
        table: &str,
        column: usize,
        lo: Option<&Datum>,
        hi: Option<&Datum>,
    ) -> StoreResult<Vec<(Row, u64)>> {
        // Index entries for a value range are spread across regions (they
        // hash by full key), so every region leader scans its slice — the
        // multi-region coprocessor pattern of the real system.
        let (start, end) = crate::kv::index_range_bounds(table, column, lo, hi);
        let start_hash = stable_hash(&start);
        let mut record_keys = Vec::new();
        for region_idx in 0..self.region_count {
            let pod = self.regions[region_idx].leader()?;
            let hits: Vec<Vec<u8>> = self
                .engine(pod)
                .scan_between(&start, end.as_deref())
                .filter(|(k, _)| {
                    region_index(k, self.region_count) == region_idx
                })
                .map(|(_, v)| v.value.to_vec())
                .collect();
            self.charge_row_read(pod, start_hash, 32 * hits.len() as u64, hits.len().max(1) as u64);
            self.charge_fetch_rpc(pod, 40 * hits.len() as u64);
            record_keys.extend(hits);
        }
        record_keys.sort();
        record_keys.dedup();
        self.fetch_rows_by_record_keys(record_keys)
    }

    fn pk_range(
        &mut self,
        table: &str,
        lo: Option<&Datum>,
        hi: Option<&Datum>,
    ) -> StoreResult<Vec<(Row, u64)>> {
        let (start, end) = crate::kv::record_range_bounds(table, lo, hi);
        self.scan_rows(&start, end.as_deref())
    }

    fn full_scan(&mut self, table: &str) -> StoreResult<Vec<(Row, u64)>> {
        let prefix = record_prefix(table);
        let mut end = prefix.clone();
        *end.last_mut().expect("prefix non-empty") += 1;
        self.scan_rows(&prefix, Some(&end))
    }

    fn scratch(&mut self) -> &mut Vec<u8> {
        self.point_key
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::record_key;
    use crate::schema::{ColumnDef, ColumnType, TableSchema};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add(
            TableSchema::new(
                "kv",
                vec![
                    ColumnDef::new("k", ColumnType::Int),
                    ColumnDef::new("v", ColumnType::Bytes),
                ],
                "k",
                &[],
            )
            .unwrap(),
        );
        c
    }

    fn cluster() -> SqlCluster {
        SqlCluster::new(catalog(), ClusterConfig::default())
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    /// The §5.5 version probe of key `k`: its MVCC version, if the row
    /// exists, and the probe's receipt.
    fn version_probe(c: &mut SqlCluster, k: i64, now: SimTime) -> (Option<u64>, QueryReceipt) {
        let stmt = c.prepare_cached("SELECT _version FROM kv WHERE k = ?").unwrap();
        let receipt = c.execute_cached(&stmt, &[k.into()], now).unwrap();
        let version = receipt.rows.first().and_then(|r| r.get(0)).and_then(|d| d.as_int());
        (version.map(|v| v as u64), receipt)
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut c = cluster();
        let w = c
            .execute(
                "INSERT INTO kv VALUES (?, ?)",
                &[1.into(), Datum::Bytes(vec![7; 100])],
                t(0),
            )
            .unwrap();
        assert!(w.write_version.is_some());
        let r = c.execute("SELECT v FROM kv WHERE k = ?", &[1.into()], t(1)).unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0].get(0), Some(&Datum::Bytes(vec![7; 100])));
        assert!(r.frontend_cpu > SimDuration::ZERO);
        assert!(r.storage_cpu > SimDuration::ZERO);
        assert!(r.latency > SimDuration::ZERO);
        assert_eq!(r.storage_rpcs, 1);
    }

    #[test]
    fn writes_replicate_to_all_members() {
        let mut c = cluster();
        c.execute(
            "INSERT INTO kv VALUES (?, ?)",
            &[5.into(), Datum::Bytes(vec![1])],
            t(0),
        )
        .unwrap();
        // RF=3 over 3 pods: every pod holds the row.
        let key = record_key("kv", &Datum::Int(5));
        for i in 0..c.storages.len() {
            assert!(c.engine(i).get_latest(&key).is_some(), "pod {i} missing replica");
        }
    }

    #[test]
    fn versions_advance_with_updates() {
        let mut c = cluster();
        let w1 = c
            .execute("INSERT INTO kv VALUES (?, ?)", &[1.into(), Datum::Bytes(vec![1])], t(0))
            .unwrap();
        let w2 = c
            .execute("UPDATE kv SET v = ? WHERE k = ?", &[Datum::Bytes(vec![2]).clone(), 1.into()], t(1))
            .unwrap();
        assert!(w2.write_version.unwrap() > w1.write_version.unwrap());
        let (ver, _) = version_probe(&mut c, 1, t(2));
        assert_eq!(ver, Some(w2.write_version.unwrap()));
    }

    #[test]
    fn version_check_pays_full_read_path() {
        let mut c = cluster();
        let big = Datum::Payload { len: 100_000, seed: 1 };
        c.execute("INSERT INTO kv VALUES (?, ?)", &[1.into(), big], t(0))
            .unwrap();
        let (_, receipt) = version_probe(&mut c, 1, t(1));
        // The row ships to the front-end in full: storage RPC cost reflects
        // ~100 KB even though only 8 bytes return to the app.
        assert!(receipt.storage_rpcs >= 1);
        assert!(
            receipt.storage_cpu > SimDuration::from_micros(20),
            "storage CPU {} too small for full-row fetch",
            receipt.storage_cpu
        );
        assert!(receipt.response_bytes < 100, "app only gets the version");
    }

    #[test]
    fn block_cache_evicts_and_rewarns() {
        // One-block cache per pod: alternating keys thrash it.
        let cfg = ClusterConfig {
            block_cache_bytes: 33_000, // fits exactly one 32 KiB block
            storage_nodes: 1,          // single pod so both keys share the cache
            replicas: 1,
            ..ClusterConfig::default()
        };
        let mut c = SqlCluster::new(catalog(), cfg);
        c.execute("INSERT INTO kv VALUES (1, ?)", &[Datum::Bytes(vec![0; 100])], t(0))
            .unwrap();
        c.execute("INSERT INTO kv VALUES (2, ?)", &[Datum::Bytes(vec![0; 100])], t(0))
            .unwrap();
        // k=1's block was just warmed by the insert's dup-check, but k=2's
        // insert displaced it (single block slot, and the two keys hash to
        // different blocks with overwhelming probability).
        let r1 = c.execute("SELECT v FROM kv WHERE k = 1", &[], t(1)).unwrap();
        assert!(r1.block_misses > 0, "evicted block must miss");
        let r1b = c.execute("SELECT v FROM kv WHERE k = 1", &[], t(2)).unwrap();
        assert_eq!(r1b.block_misses, 0, "immediately-warm read hits");
        assert!(r1b.block_hits > 0);
        assert!(r1b.latency < r1.latency, "disk latency disappears when warm");
        // Touching k=2 evicts k=1 again.
        c.execute("SELECT v FROM kv WHERE k = 2", &[], t(3)).unwrap();
        let r1c = c.execute("SELECT v FROM kv WHERE k = 1", &[], t(4)).unwrap();
        assert!(r1c.block_misses > 0);
    }

    #[test]
    fn negative_lookup_still_charges() {
        let mut c = cluster();
        let r = c.execute("SELECT v FROM kv WHERE k = 404", &[], t(0)).unwrap();
        assert!(r.rows.is_empty());
        assert!(r.storage_cpu > SimDuration::ZERO);
    }

    #[test]
    fn fetch_rpc_frontend_side_is_unbilled() {
        // A point read's receipt carries the front-end side of its storage
        // fetch RPC, but no front-end meter is charged for it: billed
        // SQL-frontend CPU is short by exactly that side, and storage CPU
        // is billed in full.
        let mut c = cluster();
        let value = Datum::Payload { len: 1_000, seed: 1 };
        c.bulk_load("kv", [vec![Datum::Int(1), value.clone()]]).unwrap();
        let stmt = c.prepare_cached("SELECT v FROM kv WHERE k = ?").unwrap();
        let r = c.execute_cached(&stmt, &[1.into()], t(1)).unwrap();
        let row_bytes = 2 + Datum::Int(1).encoded_size() + value.encoded_size();
        let fetch_fe = c.config.cost.rpc_side_cost(48) + c.config.cost.rpc_side_cost(row_bytes);
        assert_eq!(r.storage_rpcs, 1);
        assert_eq!(c.frontend_cpu_total().total() + fetch_fe, r.frontend_cpu);
        assert_eq!(c.storage_cpu_total().total(), r.storage_cpu);
    }

    /// Every front-end and storage meter, by category.
    fn meters(c: &SqlCluster) -> Vec<Vec<(CpuCategory, SimDuration)>> {
        let fe = c.frontends.iter().map(|f| f.cpu.breakdown().collect());
        fe.chain(c.storages.iter().map(|s| s.cpu.breakdown().collect()))
            .collect()
    }

    #[test]
    fn warm_point_read_matches_point_select() {
        // Repeats, and 404 is missing. Ascending, the warm reads' position
        // hints walk the engine's run; descending, every hint misses.
        let ascending: Vec<i64> = (0..40).chain([3, 17, 404, 3, 39]).collect();
        let descending: Vec<i64> = [404, 39]
            .into_iter()
            .chain((0..40).rev())
            .chain([3, 17])
            .collect();
        warm_reads_match_billed(&ascending);
        warm_reads_match_billed(&descending);
    }

    /// Warm reads of `keys` return what billed point SELECTs return, charge
    /// nothing, and leave the state that they leave.
    fn warm_reads_match_billed(keys: &[i64]) {
        // Block caches of a few blocks, so some reads hit and some evict.
        let cfg = ClusterConfig {
            block_cache_bytes: 4 * 33_000,
            ..ClusterConfig::default()
        };
        let value = |i: i64| Datum::Payload { len: 500 + 700 * (i as u64 % 5), seed: i as u64 };
        let load = || {
            let mut c = SqlCluster::new(catalog(), cfg.clone());
            c.bulk_load("kv", (0..40i64).map(|i| vec![Datum::Int(i), value(i)]))
                .unwrap();
            c
        };
        let (mut billed, mut warmed) = (load(), load());
        let stmt = billed.prepare_cached("SELECT v, _version FROM kv WHERE k = ?").unwrap();
        let mut row = Row::default();
        let table = warmed.warm_table("kv").unwrap();
        for &k in keys {
            let r = billed.execute_cached(&stmt, &[k.into()], t(0)).unwrap();
            let version = warmed.warm_point_read(&table, &Datum::Int(k), &mut row).unwrap();
            match r.rows.first() {
                Some(got) => {
                    assert_eq!(version.map(|v| v as i64), got.get(1).and_then(|d| d.as_int()));
                    assert_eq!(row.get(1), got.get(0), "key {k}");
                }
                None => assert_eq!(version, None, "key {k}"),
            }
        }
        assert!(
            meters(&warmed).iter().flatten().all(|&(_, d)| d == SimDuration::ZERO),
            "warm_point_read charged a meter"
        );
        assert!(warmed.warm_table("ghost").is_err());
        // Both clusters now answer every key alike: block hits and misses,
        // latency, and which front-end pays.
        billed.reset_metrics();
        warmed.reset_metrics();
        for &k in keys {
            let a = billed.execute_cached(&stmt, &[k.into()], t(1)).unwrap();
            let b = warmed.execute_cached(&stmt, &[k.into()], t(1)).unwrap();
            assert_eq!(a, b, "key {k}");
            assert_eq!(meters(&billed), meters(&warmed), "key {k}");
        }
        let (hits, misses) = billed.block_cache_counts();
        assert!(hits > 0 && misses > 0, "blocks {hits} hit, {misses} missed");
        assert_eq!(billed.block_cache_counts(), warmed.block_cache_counts());
    }

    #[test]
    fn delayed_write_is_invisible_until_commit() {
        let mut c = cluster();
        c.execute("INSERT INTO kv VALUES (1, ?)", &[Datum::Bytes(vec![1])], t(0))
            .unwrap();
        let dw = c
            .begin_delayed_write(
                "UPDATE kv SET v = ? WHERE k = 1",
                &[Datum::Bytes(vec![9])],
                t(1),
            )
            .unwrap();
        let before = c.execute("SELECT v FROM kv WHERE k = 1", &[], t(2)).unwrap();
        assert_eq!(before.rows[0].get(0), Some(&Datum::Bytes(vec![1])));
        let receipt = c.commit_delayed(dw, t(3)).unwrap();
        assert!(receipt.write_version.is_some());
        let after = c.execute("SELECT v FROM kv WHERE k = 1", &[], t(4)).unwrap();
        assert_eq!(after.rows[0].get(0), Some(&Datum::Bytes(vec![9])));
    }

    #[test]
    fn leader_crash_fails_reads_until_election() {
        let mut c = cluster();
        c.execute("INSERT INTO kv VALUES (1, ?)", &[Datum::Bytes(vec![1])], t(0))
            .unwrap();
        let key = record_key("kv", &Datum::Int(1));
        let region = c.region_of(&key);
        // Crash the leader replica of that region.
        let leader_slot = c.regions[region].leader_slot().unwrap();
        c.region_mut(region).crash(leader_slot);
        let err = c.execute("SELECT v FROM kv WHERE k = 1", &[], t(1)).unwrap_err();
        assert!(matches!(err, StoreError::NoLeader { .. }));
        c.region_mut(region).elect(t(2)).unwrap();
        let r = c.execute("SELECT v FROM kv WHERE k = 1", &[], t(3)).unwrap();
        assert_eq!(r.rows.len(), 1, "data survives leader failover");
    }

    #[test]
    fn bulk_load_rows_are_readable_and_replicated() {
        let mut c = cluster();
        let n = c
            .bulk_load(
                "kv",
                (0..50i64).map(|i| vec![Datum::Int(i), Datum::Bytes(vec![i as u8])]),
            )
            .unwrap();
        assert_eq!(n, 50);
        assert_eq!(c.storage_cpu_total().total(), SimDuration::ZERO, "no CPU charged");
        for i in 0..50i64 {
            let r = c.execute("SELECT v FROM kv WHERE k = ?", &[i.into()], t(1)).unwrap();
            assert_eq!(r.rows[0].get(0), Some(&Datum::Bytes(vec![i as u8])));
        }
        // Subsequent SQL writes see later versions than bulk-loaded rows.
        let w = c
            .execute("UPDATE kv SET v = ? WHERE k = 0", &[Datum::Bytes(vec![99])], t(2))
            .unwrap();
        let (ver, _) = version_probe(&mut c, 0, t(3));
        assert_eq!(ver, w.write_version);
    }

    #[test]
    fn bulk_load_reload_replaces_values() {
        let mut c = cluster();
        let row = |i: i64, b: u8| vec![Datum::Int(i), Datum::Bytes(vec![b])];
        c.bulk_load("kv", (0..10i64).map(|i| row(i, 1))).unwrap();
        let key = record_key("kv", &Datum::Int(3));
        let first = c.engine(0).latest_version(&key).unwrap();
        // Re-load key 3 (twice in one load) beside new keys.
        c.bulk_load("kv", [row(3, 2), row(20, 2), row(3, 3)]).unwrap();
        for pod in 0..c.storages.len() {
            let kv = c.engine(pod);
            let latest = kv.get_latest(&key).unwrap();
            assert_eq!(latest.value, Row(row(3, 3)).encode());
            // Key 3's second reload is the load's last write.
            assert_eq!(latest.version, kv.next_version() - 1);
            assert!(latest.version > first);
            assert_eq!(kv.live_keys(), 11);
        }
    }

    #[test]
    fn primary_data_bytes_bills_every_rewrite() {
        let mut c = cluster();
        let row = |b: u8| vec![Datum::Int(7), Datum::Bytes(vec![b; 40])];
        c.bulk_load("kv", [row(0)]).unwrap();
        let row_bytes = Row(row(0)).encode().len() as u64;
        let live = |c: &SqlCluster| (0..3).map(|p| c.engine(p).live_bytes()).collect::<Vec<_>>();
        let (billed, resident) = (c.primary_data_bytes(), live(&c));
        assert_eq!(billed, row_bytes);
        const REWRITES: u64 = 5;
        for i in 1..=REWRITES {
            c.execute("UPDATE kv SET v = ? WHERE k = 7", &[Datum::Bytes(vec![i as u8; 40])], t(i))
                .unwrap();
        }
        // Disk bills every write; the stored dataset is one row per pod.
        assert_eq!(c.primary_data_bytes(), billed + REWRITES * row_bytes);
        assert_eq!(live(&c), resident);
    }

    #[test]
    fn bulk_load_validates_rows() {
        let mut c = cluster();
        let err = c
            .bulk_load("kv", vec![vec![Datum::Int(0), Datum::Bytes(vec![])], vec![Datum::Int(1)]])
            .unwrap_err();
        assert!(matches!(err, StoreError::ArityMismatch { .. }));
        // Rows ahead of the invalid one are loaded, as one by one.
        assert!(c.engine(0).get_latest(&record_key("kv", &Datum::Int(0))).is_some());
        assert!(c.bulk_load("ghost", vec![]).is_err());
    }

    #[test]
    fn range_queries_span_regions() {
        let mut c = cluster();
        c.bulk_load(
            "kv",
            (0..200i64).map(|i| vec![Datum::Int(i), Datum::Bytes(vec![i as u8])]),
        )
        .unwrap();
        let r = c
            .execute("SELECT COUNT(*) FROM kv WHERE k >= 50 AND k < 150", &[], t(1))
            .unwrap();
        assert_eq!(r.rows[0].get(0), Some(&Datum::Int(100)));
        assert!(r.stats.used_index, "pk range scan, not full scan");
        assert_eq!(r.stats.full_scans, 0);
        assert!(r.storage_rpcs >= 1);
    }

    #[test]
    fn cpu_meters_accumulate_by_tier() {
        let mut c = cluster();
        for i in 0..20i64 {
            c.execute(
                "INSERT INTO kv VALUES (?, ?)",
                &[i.into(), Datum::Bytes(vec![0; 64])],
                t(i as u64),
            )
            .unwrap();
        }
        for i in 0..20i64 {
            c.execute("SELECT v FROM kv WHERE k = ?", &[i.into()], t(100 + i as u64))
                .unwrap();
        }
        let fe = c.frontend_cpu_total();
        let st = c.storage_cpu_total();
        assert!(fe.category(CpuCategory::SqlFrontend) > SimDuration::ZERO);
        assert!(fe.category(CpuCategory::TxnLease) > SimDuration::ZERO);
        assert!(st.category(CpuCategory::KvExec) > SimDuration::ZERO);
        assert!(st.category(CpuCategory::Replication) > SimDuration::ZERO);
        assert!(st.category(CpuCategory::RpcStack) > SimDuration::ZERO);
    }

    #[test]
    fn durability_off_keeps_every_counter_at_zero() {
        let mut c = cluster();
        for i in 0..20i64 {
            c.execute(
                "INSERT INTO kv VALUES (?, ?)",
                &[i.into(), Datum::Bytes(vec![0; 64])],
                t(i as u64),
            )
            .unwrap();
        }
        c.tick(t(100));
        assert!(!c.durability_enabled());
        assert_eq!(c.durability_stats(), Default::default());
        assert_eq!(c.ssd_resident_bytes(), 0);
    }

    fn durable_cluster(fsync: crate::durability::FsyncPolicy, snap: u64) -> SqlCluster {
        let cfg = ClusterConfig {
            durability: DurabilityConfig {
                enabled: true,
                fsync,
                snapshot_every_entries: snap,
            },
            ..ClusterConfig::default()
        };
        SqlCluster::new(catalog(), cfg)
    }

    #[test]
    fn durable_writes_append_wal_and_snapshot_on_cadence() {
        use crate::durability::FsyncPolicy;
        let mut c = durable_cluster(FsyncPolicy::Group(4), 10);
        for i in 0..12i64 {
            c.execute(
                "INSERT INTO kv VALUES (?, ?)",
                &[i.into(), Datum::Bytes(vec![0; 64])],
                t(i as u64),
            )
            .unwrap();
        }
        let s = c.durability_stats();
        // RF=3: every insert is WAL'd on all three replicas.
        assert_eq!(s.wal_appends, 36);
        assert!(s.fsync_batches > 0);
        assert!(s.snapshots > 0, "cadence of 10 fires within 12 appends");
        assert!(c.ssd_resident_bytes() > 0);
        // Durable IO is billed to the replication/kv categories.
        assert!(c.storage_cpu_total().category(CpuCategory::Replication) > SimDuration::ZERO);
    }

    #[test]
    fn crashed_pod_recovers_committed_state_via_quorum() {
        use crate::durability::FsyncPolicy;
        // Group(64): most of the WAL tail is un-fsynced at crash time, so
        // recovery genuinely leans on quorum re-replication.
        let mut c = durable_cluster(FsyncPolicy::Group(64), 1_000_000);
        for i in 0..30i64 {
            c.execute(
                "INSERT INTO kv VALUES (?, ?)",
                &[i.into(), Datum::Bytes(vec![i as u8; 32])],
                t(i as u64),
            )
            .unwrap();
        }
        c.crash_pod(0);
        let dt = c.recover_pod(0, t(100));
        assert!(dt > SimDuration::ZERO);
        let s = c.durability_stats();
        assert_eq!(s.recoveries, 1);
        assert!(s.lost_tail_entries > 0, "un-fsynced tail was discarded");
        assert!(s.cold_refill_cpu_us > 0, "block cache residency was lost");
        // Every acked write survives the crash.
        for i in 0..30i64 {
            let r = c.execute("SELECT v FROM kv WHERE k = ?", &[i.into()], t(200)).unwrap();
            assert_eq!(r.rows[0].get(0), Some(&Datum::Bytes(vec![i as u8; 32])), "key {i}");
        }
        // And the recovered pod itself holds them again (not just the quorum).
        let key = record_key("kv", &Datum::Int(29));
        assert!(c.engine(0).get_latest(&key).is_some());
    }

    #[test]
    fn bulk_load_snapshots_when_durable() {
        use crate::durability::FsyncPolicy;
        let mut c = durable_cluster(FsyncPolicy::Group(8), 1_000_000);
        c.bulk_load(
            "kv",
            (0..50i64).map(|i| vec![Datum::Int(i), Datum::Bytes(vec![i as u8])]),
        )
        .unwrap();
        assert_eq!(c.durability_stats().snapshots, 3, "one per pod");
        assert_eq!(c.storage_cpu_total().total(), SimDuration::ZERO, "load stays free");
        // Crash+recover straight off the snapshot: no quorum help needed.
        c.crash_pod(1);
        c.recover_pod(1, t(1));
        let key = record_key("kv", &Datum::Int(42));
        assert!(c.engine(1).get_latest(&key).is_some());
    }

    /// Retained log entries per region.
    fn retained(c: &SqlCluster) -> Vec<usize> {
        c.regions.iter().map(|g| g.log_len() - g.log_start()).collect()
    }

    fn replace(c: &mut SqlCluster, k: i64, v: u8, now: SimTime) {
        c.execute("REPLACE INTO kv VALUES (?, ?)", &[k.into(), Datum::Bytes(vec![v])], now)
            .unwrap();
    }

    #[test]
    fn raft_log_holds_only_entries_a_replica_still_needs() {
        const WRITES: i64 = 10_000;
        let mut c = cluster();
        for i in 0..WRITES {
            replace(&mut c, i % 500, i as u8, t(i as u64));
        }
        let appended: usize = c.regions.iter().map(RaftGroup::log_len).sum();
        assert_eq!(appended, WRITES as usize, "indices stay absolute");
        assert!(
            retained(&c).iter().all(|&n| n == 0),
            "healthy writes leave {:?} entries",
            retained(&c)
        );

        // A crashed follower pins every entry past its applied prefix.
        let key = record_key("kv", &Datum::Int(7));
        let r = c.region_of(&key);
        let follower = (c.regions[r].leader_slot().unwrap() + 1) % c.regions[r].replicas.len();
        let pod = c.regions[r].replicas[follower];
        let applied = c.regions[r].log_len();
        c.region_mut(r).crash(follower);
        for i in 0..300 {
            replace(&mut c, 7, i as u8, t((WRITES + i) as u64));
        }
        let g = &c.regions[r];
        assert_eq!(g.log_start(), applied, "nothing past the follower's prefix dropped");
        assert_eq!(g.log_len() - applied, 300);
        let leader = g.leader().unwrap();
        assert!(c.engine(pod).latest_version(&key) < c.engine(leader).latest_version(&key));

        // Once it rejoins and catches up, the log compacts again.
        c.region_mut(r).restart(follower);
        c.tick(t(20_000));
        assert_eq!(retained(&c)[r], 0);
        let leader = c.regions[r].leader().unwrap();
        assert_eq!(
            c.engine(pod).get_latest(&key),
            c.engine(leader).get_latest(&key)
        );
    }

    #[test]
    fn replicas_share_one_engine_until_one_lags() {
        let mut c = cluster();
        c.bulk_load("kv", (0..50i64).map(|i| vec![Datum::Int(i), Datum::Bytes(vec![0])]))
            .unwrap();
        let sharing = |engines, splits, shared_applies| EngineSharing {
            engines,
            splits,
            shared_applies,
        };
        assert_eq!(c.engine_sharing(), sharing(1, 0, 0));
        // One put serves all three replicas.
        replace(&mut c, 7, 1, t(1));
        assert_eq!(c.engine_sharing(), sharing(1, 0, 2));

        // A crashed follower misses the next two writes: its peers take one
        // copy of the engine and keep sharing it.
        let key = record_key("kv", &Datum::Int(7));
        let r = c.region_of(&key);
        let follower = (c.regions[r].leader_slot().unwrap() + 1) % 3;
        let pod = c.regions[r].replicas[follower];
        let peers: Vec<usize> = (0..3).filter(|&p| p != pod).collect();
        c.region_mut(r).crash(follower);
        replace(&mut c, 7, 2, t(2));
        replace(&mut c, 7, 3, t(3));
        assert_eq!(c.engine_sharing(), sharing(2, 1, 4));
        assert!(std::ptr::eq(c.engine(peers[0]), c.engine(peers[1])));
        let stale = c.engine(pod).get_latest(&key).unwrap().value.to_vec();
        assert_eq!(stale, Row(vec![Datum::Int(7), Datum::Bytes(vec![1])]).encode());

        // It catches up both entries on its own engine and stays apart.
        c.region_mut(r).restart(follower);
        c.tick(t(4));
        assert_eq!(c.engine_sharing(), sharing(2, 1, 4));
        assert_eq!(c.engine(pod).get_latest(&key), c.engine(peers[0]).get_latest(&key));
        assert_eq!(c.engine(pod).bytes_written(), c.engine(peers[0]).bytes_written());
        assert_eq!(c.engine(pod).next_version(), c.engine(peers[0]).next_version());

        // A replaced engine leaves the others on theirs.
        c.replace_engine(peers[0], KvEngine::new());
        assert_eq!(c.engine_sharing().engines, 3);
        assert_eq!(c.engine(peers[0]).live_keys(), 0);
        assert_eq!(c.engine(peers[1]).live_keys(), 50);
        c.replace_engine(peers[0], KvEngine::new());
        assert_eq!(c.engine_sharing().engines, 3, "a private engine is replaced in place");
    }

    #[test]
    fn durable_log_compacts_only_below_every_durable_prefix() {
        use crate::durability::FsyncPolicy;
        // Group(64) with no snapshot: most applied entries are not durable.
        let mut c = durable_cluster(FsyncPolicy::Group(64), 1_000_000);
        for i in 0..100i64 {
            replace(&mut c, i, i as u8, t(i as u64));
        }
        for (r, g) in c.regions.iter().enumerate() {
            let durable = g.replicas.iter().map(|&p| c.durable[p].durable_applied(r)).min();
            assert_eq!(Some(g.log_start()), durable, "region {r}");
        }
        assert!(retained(&c).iter().sum::<usize>() > 0, "the un-fsynced tail stays");
    }

    #[test]
    fn reset_metrics_clears_cpu_but_not_data() {
        let mut c = cluster();
        c.execute("INSERT INTO kv VALUES (1, ?)", &[Datum::Bytes(vec![1])], t(0))
            .unwrap();
        c.reset_metrics();
        assert_eq!(c.storage_cpu_total().total(), SimDuration::ZERO);
        let r = c.execute("SELECT v FROM kv WHERE k = 1", &[], t(1)).unwrap();
        assert_eq!(r.rows.len(), 1);
    }
}
