//! Deployment configuration: architecture choice, tier sizing, and the
//! application-side CPU cost constants.

use simnet::SimDuration;
use storekit::cluster::ClusterConfig;

/// The §2.4 architectures plus the §6 extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArchKind {
    /// Storage-layer cache only (Figure 1a).
    Base,
    /// Remote lookaside cache tier (Figure 1b).
    Remote,
    /// Application-linked sharded cache (Figure 1c).
    Linked,
    /// Linked cache + per-read version check (Figure 1d).
    LinkedVersion,
    /// Linked cache + ownership leases + write fencing (§6 future work).
    LeaseOwned,
    /// TTL-freshness extension (paper §7 related work): every app server
    /// caches independently (no ownership routing — requests round-robin),
    /// and entries expire after a TTL that bounds staleness. Models the
    /// common deployment where invalidation is unavailable; costs more
    /// memory (duplication across servers) and serves boundedly-stale data.
    LinkedTtl,
}

impl ArchKind {
    pub const ALL: [ArchKind; 6] = [
        ArchKind::Base,
        ArchKind::Remote,
        ArchKind::Linked,
        ArchKind::LinkedVersion,
        ArchKind::LeaseOwned,
        ArchKind::LinkedTtl,
    ];

    /// The four the paper evaluates (Figures 4–7).
    pub const PAPER: [ArchKind; 4] = [
        ArchKind::Base,
        ArchKind::Remote,
        ArchKind::Linked,
        ArchKind::LinkedVersion,
    ];

    pub const fn label(self) -> &'static str {
        match self {
            ArchKind::Base => "base",
            ArchKind::Remote => "remote",
            ArchKind::Linked => "linked",
            ArchKind::LinkedVersion => "linked+version",
            ArchKind::LeaseOwned => "lease-owned",
            ArchKind::LinkedTtl => "linked+ttl",
        }
    }

    /// Whether this architecture deploys an app-side (linked) cache.
    pub const fn has_linked_cache(self) -> bool {
        matches!(
            self,
            ArchKind::Linked
                | ArchKind::LinkedVersion
                | ArchKind::LeaseOwned
                | ArchKind::LinkedTtl
        )
    }

    /// Whether the linked cache is sharded by key ownership (one copy
    /// cluster-wide) or replicated per server (TTL-freshness deployments).
    pub const fn linked_cache_is_sharded(self) -> bool {
        !matches!(self, ArchKind::LinkedTtl)
    }

    /// Whether reads are linearizable under this architecture.
    pub const fn is_consistent(self) -> bool {
        matches!(
            self,
            ArchKind::Base | ArchKind::LinkedVersion | ArchKind::LeaseOwned
        )
    }

    /// Whether the in-process L0 hot-key tier can front this architecture.
    /// Base has no cache to front; the version-checked/leased families
    /// derive their consistency from checks the L0 would bypass, so the
    /// tier composes only with plain Remote and sharded Linked.
    pub const fn supports_l0(self) -> bool {
        matches!(self, ArchKind::Remote | ArchKind::Linked)
    }

    /// Whether the adaptive TTL control plane can drive this architecture.
    /// The plane works by adjusting the caches' *default* TTL at runtime;
    /// Base has no cache to expire, LinkedTtl's TTL is its consistency
    /// contract (a controller shortening it silently changes the staleness
    /// bound), and the version-checked/leased families get freshness from
    /// checks, not expiry — so the plane composes with Remote and sharded
    /// Linked only, mirroring [`Self::supports_l0`].
    pub const fn supports_ttl_plane(self) -> bool {
        matches!(self, ArchKind::Remote | ArchKind::Linked)
    }
}

impl std::fmt::Display for ArchKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Application-server CPU cost constants (calibrated alongside
/// [`storekit::cost::StorageCostConfig`]; see DESIGN.md §5).
#[derive(Debug, Clone, Copy)]
pub struct AppCostConfig {
    /// Handling one client request/response pair (socket + framing).
    pub client_rpc_fixed_us: f64,
    /// Per byte of response streamed to the client.
    pub client_rpc_per_byte_ns: f64,
    /// Proto-style (de)serialization of *storage/cache responses* into
    /// application objects, per byte per direction. Responses to the end
    /// client are covered by `client_rpc_per_byte_ns` instead (they stream
    /// the already-encoded representation).
    pub serialize_per_byte_ns: f64,
    /// Fixed cost of one serialization/deserialization call.
    pub serialize_fixed_us: f64,
    /// Preparing and issuing a request to a remote tier (cache or storage).
    pub request_prep_us: f64,
    /// RPC stack cost per message side (app ↔ remote cache).
    pub rpc_fixed_us: f64,
    pub rpc_per_byte_ns: f64,
    /// A linked-cache lookup (hash + policy touch), no serialization.
    pub local_cache_op_us: f64,
    /// Remote cache server's per-operation cost (lookup/insert bookkeeping).
    pub cache_server_op_us: f64,
    /// Marginal cost of one additional key riding an already-open batched
    /// RPC frame (encoding/decoding its entry only — the syscall + framing
    /// fixed cost `rpc_fixed_us` is paid once per frame by the opener).
    /// Calibrated from the netrpc loopback MGET path: the per-key marginal
    /// is ~7% of the fixed per-RPC cost.
    pub rpc_batched_key_us: f64,
    /// Rich-object assembly: per constituent query result folded in.
    pub object_assemble_per_part_us: f64,
    /// Rich-object assembly: per byte of object material handled.
    pub object_assemble_per_byte_ns: f64,
    /// Validating a local ownership lease (LeaseOwned reads).
    pub lease_validate_us: f64,
    /// Reclaiming one expired entry during a TTL expiry sweep (ordered-index
    /// pop + hash removal + free-list push) — cheaper than a full cache op
    /// because there is no probe, policy touch, or admission decision.
    pub expiry_sweep_entry_us: f64,
}

impl Default for AppCostConfig {
    fn default() -> Self {
        AppCostConfig {
            client_rpc_fixed_us: 105.0,
            client_rpc_per_byte_ns: 0.13,
            serialize_per_byte_ns: 0.4,
            serialize_fixed_us: 2.0,
            request_prep_us: 45.0,
            rpc_fixed_us: 35.0,
            rpc_per_byte_ns: 0.9,
            local_cache_op_us: 1.2,
            cache_server_op_us: 6.0,
            rpc_batched_key_us: 2.5,
            object_assemble_per_part_us: 6.0,
            object_assemble_per_byte_ns: 0.3,
            lease_validate_us: 0.4,
            expiry_sweep_entry_us: 0.3,
        }
    }
}

impl AppCostConfig {
    /// (De)serialization of `bytes` in one direction.
    pub fn serialize_cost(&self, bytes: u64) -> SimDuration {
        SimDuration::from_micros_f64(
            self.serialize_fixed_us + self.serialize_per_byte_ns * bytes as f64 / 1e3,
        )
    }

    /// One RPC message side of `bytes` between app and a remote tier.
    pub fn rpc_side_cost(&self, bytes: u64) -> SimDuration {
        SimDuration::from_micros_f64(self.rpc_fixed_us + self.rpc_per_byte_ns * bytes as f64 / 1e3)
    }

    /// One message side of `bytes` for a key that joins an already-open
    /// batched frame: per-key marginal plus the byte-proportional term. The
    /// frame opener pays [`Self::rpc_side_cost`]; followers pay this.
    pub fn rpc_batched_side_cost(&self, bytes: u64) -> SimDuration {
        SimDuration::from_micros_f64(
            self.rpc_batched_key_us + self.rpc_per_byte_ns * bytes as f64 / 1e3,
        )
    }

    /// Serving `bytes` back to the end client.
    pub fn client_reply_cost(&self, bytes: u64) -> SimDuration {
        SimDuration::from_micros_f64(
            self.client_rpc_fixed_us + self.client_rpc_per_byte_ns * bytes as f64 / 1e3,
        )
    }
}

/// Bounded exponential backoff with deterministic jitter, used when a cache
/// shard stops answering.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Retries after the first failed attempt (0 = fail straight through).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub base_backoff: SimDuration,
    /// Ceiling on any single backoff.
    pub max_backoff: SimDuration,
    /// Jitter fraction: each backoff is scaled by `1 + jitter * u` with
    /// `u ∈ [0, 1)` drawn from the deployment's seeded RNG.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            base_backoff: SimDuration::from_micros(500),
            max_backoff: SimDuration::from_millis(20),
            jitter: 0.5,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (0-based), jittered by
    /// `unit ∈ [0, 1)`. `max_backoff` bounds the *jittered* delay: clamping
    /// before stretching let the result exceed the configured ceiling by up
    /// to `1 + jitter`×.
    pub fn backoff(&self, attempt: u32, unit: f64) -> SimDuration {
        let exp = self.base_backoff.saturating_mul(1u64 << attempt.min(20));
        let scale = 1.0 + self.jitter.clamp(0.0, 1.0) * unit.clamp(0.0, 1.0);
        let jittered = SimDuration::from_secs_f64(exp.as_secs_f64() * scale);
        jittered.min(self.max_backoff)
    }
}

/// App-side coalescing of remote-cache RPCs (the §4 answer to the per-RPC
/// tax): lookups and fills issued to the same cache node close together in
/// time share one MGET/MSET frame, so the fixed per-RPC CPU cost
/// (`rpc_fixed_us`, both message sides, both endpoints) is paid once per
/// frame instead of once per key. **Off by default** — the paper's
/// healthy-path figures assume one RPC per lookup, and the committed
/// `results/` files reproduce byte for byte only while this stays disabled.
#[derive(Debug, Clone, Copy)]
pub struct BatchingConfig {
    /// Coalescing window in microseconds: a frame opened at `t` departs at
    /// `t + window`, and every RPC for the same (app, node) pair arriving
    /// before departure rides it (members wait for departure, so batching
    /// trades latency for CPU). 0 disables cross-request coalescing;
    /// explicit multi-key serves still batch when `max_batch > 1`.
    pub batch_window_us: f64,
    /// Maximum keys per frame; a full frame departs immediately and the
    /// next request opens a new one. Values ≤ 1 disable batching entirely.
    pub max_batch: u32,
}

impl Default for BatchingConfig {
    fn default() -> Self {
        BatchingConfig {
            batch_window_us: 0.0,
            max_batch: 1,
        }
    }
}

impl BatchingConfig {
    /// Whether any batching (explicit multi-key or windowed) can happen.
    pub fn enabled(&self) -> bool {
        self.max_batch > 1
    }

    /// Whether RPCs from *different* requests may coalesce over time.
    pub fn windowed(&self) -> bool {
        self.enabled() && self.batch_window_us > 0.0
    }

    pub fn window(&self) -> SimDuration {
        SimDuration::from_micros_f64(self.batch_window_us.max(0.0))
    }
}

/// Consistency mode for the in-process L0 hot-key tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L0Consistency {
    /// Writers invalidate every app server's L0 before acknowledging, so
    /// L0 hits are always fresh — coherence paid for in invalidation CPU.
    InvalidateFirst,
    /// Writers skip the L0; entries expire `stale_after_us` after being
    /// filled, so hits may be stale but never beyond the declared bound.
    ServeStale,
}

/// The in-process L0 hot-key tier (HybridKV-style): a few MB of
/// TinyLFU-admitted, version-invalidated cache *inside* each app server,
/// consulted before the Remote or Linked lookup. The Zipf head is served
/// for one in-process hash probe instead of an RPC (Remote) or a sharded
/// local op (Linked) — the third point on the paper's CPU-tax vs
/// DRAM-duplication curve. **Off by default** (`None` on
/// [`DeploymentConfig::l0`]); the committed `results/` files reproduce
/// byte for byte only while it stays disabled.
#[derive(Debug, Clone, Copy)]
pub struct L0Config {
    /// Hard byte cap per app server (entry overhead included).
    pub bytes_per_server: u64,
    pub consistency: L0Consistency,
    /// Staleness bound in microseconds (serve-stale mode only).
    pub stale_after_us: f64,
    /// CPU for an L0 probe that hits: one in-process hash lookup, no RPC,
    /// no serialization, no shard routing.
    pub hit_us: f64,
    /// CPU to admit a fetched value into the L0 on the fill path.
    pub insert_us: f64,
    /// CPU per app server to apply one write-path invalidation.
    pub invalidate_us: f64,
    /// Mean hot-entry bytes — sizes the TinyLFU sketch.
    pub mean_entry_bytes: u64,
}

impl Default for L0Config {
    fn default() -> Self {
        L0Config {
            bytes_per_server: 4 << 20,
            consistency: L0Consistency::InvalidateFirst,
            stale_after_us: 10_000.0,
            hit_us: 0.15,
            insert_us: 0.3,
            invalidate_us: 0.2,
            mean_entry_bytes: 1_024,
        }
    }
}

impl L0Config {
    /// The `cachekit` parameters for one app server's tier.
    pub fn params(&self) -> cachekit::L0Params {
        cachekit::L0Params {
            capacity_bytes: self.bytes_per_server,
            expected_entries: (self.bytes_per_server / self.mean_entry_bytes.max(1))
                .clamp(64, 1 << 20) as usize,
            mode: match self.consistency {
                L0Consistency::InvalidateFirst => cachekit::L0Mode::InvalidateFirst,
                L0Consistency::ServeStale => cachekit::L0Mode::ServeStale {
                    stale_after_nanos: (self.stale_after_us.max(0.0) * 1_000.0) as u64,
                },
            },
        }
    }

    pub fn serve_stale(&self) -> bool {
        self.consistency == L0Consistency::ServeStale
    }
}

/// How the request path behaves when a cache shard is crashed, partitioned
/// away, or slow: detection timeouts, retries, degraded fallback to storage,
/// and single-flight coalescing of the resulting storage fills.
#[derive(Debug, Clone, Copy)]
pub struct FaultToleranceConfig {
    /// Latency charged for one RPC attempt against an unresponsive shard
    /// (the client's per-attempt timeout budget).
    pub attempt_timeout: SimDuration,
    pub retry: RetryPolicy,
    /// End-to-end latency budget per request. Requests that exceed it are
    /// counted as deadline violations, and retrying stops once the budget
    /// is spent.
    pub request_deadline: SimDuration,
    /// Serve reads from storage when the owning cache shard is down
    /// (availability over cache locality). When off, such reads error.
    pub degraded_fallback: bool,
    /// Coalesce concurrent identical storage fills so a cold shard does not
    /// trigger a thundering herd. Off by default: it changes steady-state
    /// SQL counts, and the paper's healthy-path figures assume no coalescing.
    pub single_flight: bool,
}

impl Default for FaultToleranceConfig {
    fn default() -> Self {
        FaultToleranceConfig {
            attempt_timeout: SimDuration::from_millis(2),
            retry: RetryPolicy::default(),
            request_deadline: SimDuration::from_millis(50),
            degraded_fallback: true,
            single_flight: false,
        }
    }
}

/// Full deployment shape.
#[derive(Debug, Clone)]
pub struct DeploymentConfig {
    pub arch: ArchKind,
    /// Application server count.
    pub app_servers: usize,
    /// Linked-cache capacity per app server, bytes (the paper provisions
    /// 6 GB per app server, §5.1). Ignored by Base/Remote.
    pub linked_cache_bytes_per_server: u64,
    /// Remote cache node count (Remote only).
    pub remote_cache_nodes: usize,
    /// Remote cache capacity per node, bytes.
    pub remote_cache_bytes_per_node: u64,
    /// Non-cache memory provisioned per app server (runtime heap).
    pub app_base_mem_bytes: u64,
    /// Eviction policy for the external caches (LRU in the paper; the
    /// eviction ablation sweeps the rest).
    pub cache_policy: cachekit::PolicyKind,
    /// Time-to-live for LinkedTtl cache entries (bounds staleness).
    pub linked_ttl: SimDuration,
    /// Enable TinyLFU admission on the external caches (scan resistance;
    /// off by default to match the paper's plain-LRU deployments).
    pub cache_admission: bool,
    pub app_cost: AppCostConfig,
    pub cluster: ClusterConfig,
    /// Behaviour under cache-shard faults (retries, deadlines, degraded mode).
    pub fault_tolerance: FaultToleranceConfig,
    /// App-side RPC coalescing for the remote-cache path (default off).
    pub batching: BatchingConfig,
    /// In-process L0 hot-key tier in front of the Remote/Linked lookup
    /// (default `None` = off; see [`L0Config`]).
    pub l0: Option<L0Config>,
    /// Online MRC profiling + cost-aware elastic provisioning (default
    /// off: `decision_interval_secs == 0`). When enabled, the deployment
    /// embeds an [`elastic::ElasticController`] that watches the read key
    /// stream and periodically resizes the external cache tier to the
    /// dollar-minimizing capacity.
    pub elastic: elastic::ElasticConfig,
    /// Cost-aware adaptive TTL control plane (default off:
    /// `decision_interval_secs == 0`). When enabled on an architecture with
    /// [`ArchKind::supports_ttl_plane`], the deployment embeds one
    /// [`elastic::TtlController`] per tenant that learns the hit-ratio-vs-TTL
    /// curve from reference ages and periodically pushes the
    /// dollar-minimizing default TTL into the live caches.
    pub ttl: elastic::TtlConfig,
    /// Deterministic seed for the deployment's internals.
    pub seed: u64,
}

impl DeploymentConfig {
    /// The paper's §5.1 shape: 3 app servers with 6 GB cache each, 3 TiDB +
    /// 3 TiKV pods (15 GB each), remote tier sized like the linked tier.
    pub fn paper(arch: ArchKind) -> Self {
        DeploymentConfig {
            arch,
            app_servers: 3,
            linked_cache_bytes_per_server: 6 << 30,
            remote_cache_nodes: 3,
            remote_cache_bytes_per_node: 6 << 30,
            app_base_mem_bytes: 2 << 30,
            cache_policy: cachekit::PolicyKind::Lru,
            linked_ttl: SimDuration::from_secs(1),
            cache_admission: false,
            app_cost: AppCostConfig::default(),
            cluster: ClusterConfig::default(),
            fault_tolerance: FaultToleranceConfig::default(),
            batching: BatchingConfig::default(),
            l0: None,
            elastic: elastic::ElasticConfig::default(),
            ttl: elastic::TtlConfig::default(),
            seed: 42,
        }
    }

    /// A small shape for unit tests: tiny caches force evictions, and the
    /// fixed memory footprint shrinks so that per-request compute (the
    /// quantity under test) dominates total cost as it does in the paper's
    /// high-QPS regime.
    pub fn test_small(arch: ArchKind) -> Self {
        let mut cfg = Self::paper(arch);
        cfg.app_servers = 2;
        cfg.linked_cache_bytes_per_server = 1 << 20;
        cfg.remote_cache_nodes = 2;
        cfg.remote_cache_bytes_per_node = 1 << 20;
        cfg.app_base_mem_bytes = 256 << 20;
        cfg.cluster.regions = 4;
        cfg.cluster.block_cache_bytes = 4 << 20;
        cfg.cluster.base_mem_bytes = 256 << 20;
        cfg.cluster.frontend_mem_bytes = 256 << 20;
        cfg
    }

    /// Total linked-cache capacity across the app tier.
    pub fn total_linked_bytes(&self) -> u64 {
        if self.arch.has_linked_cache() {
            self.linked_cache_bytes_per_server * self.app_servers as u64
        } else {
            0
        }
    }

    /// Total remote-cache capacity.
    pub fn total_remote_bytes(&self) -> u64 {
        if self.arch == ArchKind::Remote {
            self.remote_cache_bytes_per_node * self.remote_cache_nodes as u64
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arch_properties() {
        assert!(!ArchKind::Base.has_linked_cache());
        assert!(ArchKind::Linked.has_linked_cache());
        assert!(ArchKind::LinkedVersion.is_consistent());
        assert!(ArchKind::LeaseOwned.is_consistent());
        assert!(!ArchKind::Linked.is_consistent());
        assert!(ArchKind::Base.is_consistent(), "reading storage is linearizable");
        assert!(!ArchKind::LinkedTtl.is_consistent());
        assert!(ArchKind::LinkedTtl.has_linked_cache());
        assert!(!ArchKind::LinkedTtl.linked_cache_is_sharded());
        assert!(ArchKind::Linked.linked_cache_is_sharded());
        assert_eq!(ArchKind::PAPER.len(), 4);
    }

    #[test]
    fn cost_helpers_scale_with_bytes() {
        let c = AppCostConfig::default();
        assert!(c.serialize_cost(1 << 20) > c.serialize_cost(1 << 10));
        assert!(c.rpc_side_cost(0) >= SimDuration::from_micros(8));
        assert!(c.client_reply_cost(1_000_000) > c.client_reply_cost(0));
    }

    #[test]
    fn paper_shape_matches_section_5_1() {
        let d = DeploymentConfig::paper(ArchKind::Linked);
        assert_eq!(d.app_servers, 3);
        assert_eq!(d.linked_cache_bytes_per_server, 6 << 30);
        assert_eq!(d.cluster.frontends, 3);
        assert_eq!(d.cluster.storage_nodes, 3);
        assert_eq!(d.total_linked_bytes(), 18 << 30);
        assert_eq!(d.total_remote_bytes(), 0);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_retries: 5,
            base_backoff: SimDuration::from_millis(1),
            max_backoff: SimDuration::from_millis(4),
            jitter: 0.0,
        };
        assert_eq!(p.backoff(0, 0.0), SimDuration::from_millis(1));
        assert_eq!(p.backoff(1, 0.0), SimDuration::from_millis(2));
        assert_eq!(p.backoff(2, 0.0), SimDuration::from_millis(4));
        assert_eq!(p.backoff(3, 0.0), SimDuration::from_millis(4), "capped");
        // Jitter only ever lengthens the wait, bounded by the fraction.
        let j = RetryPolicy {
            jitter: 0.5,
            ..p
        };
        let b = j.backoff(0, 0.999);
        assert!(b >= SimDuration::from_millis(1));
        assert!(b < SimDuration::from_micros(1_500) + SimDuration::from_micros(1));
    }

    #[test]
    fn jittered_backoff_never_exceeds_max() {
        // Regression: jitter used to be applied after the clamp, so a retry
        // at the cap could wait up to (1 + jitter)× the configured maximum.
        let p = RetryPolicy {
            max_retries: 8,
            base_backoff: SimDuration::from_millis(1),
            max_backoff: SimDuration::from_millis(4),
            jitter: 0.5,
        };
        for attempt in 0..12 {
            for unit in [0.0, 0.25, 0.5, 0.75, 0.999] {
                let b = p.backoff(attempt, unit);
                assert!(
                    b <= p.max_backoff,
                    "attempt {attempt} unit {unit}: {b:?} exceeds max {:?}",
                    p.max_backoff
                );
            }
        }
        // At the cap, jitter has nothing left to stretch; below it, jitter
        // still applies in full.
        assert_eq!(p.backoff(2, 0.999), p.max_backoff);
        assert_eq!(
            p.backoff(0, 0.5),
            SimDuration::from_secs_f64(0.001 * 1.25)
        );
    }

    #[test]
    fn fault_tolerance_defaults_preserve_healthy_path() {
        let ft = FaultToleranceConfig::default();
        assert!(ft.degraded_fallback);
        assert!(!ft.single_flight, "coalescing must be opt-in");
        assert!(ft.request_deadline > ft.attempt_timeout);
    }

    #[test]
    fn batching_defaults_off_and_amortizes_when_on() {
        let b = BatchingConfig::default();
        assert!(!b.enabled(), "batching must be opt-in: the figures assume one RPC per lookup");
        assert!(!b.windowed());
        let on = BatchingConfig {
            batch_window_us: 200.0,
            max_batch: 16,
        };
        assert!(on.enabled() && on.windowed());
        assert_eq!(on.window(), SimDuration::from_micros(200));
        // Explicit multi-key batching without a window is still batching.
        let explicit = BatchingConfig {
            batch_window_us: 0.0,
            max_batch: 8,
        };
        assert!(explicit.enabled() && !explicit.windowed());
        // The per-key marginal must undercut the fixed per-RPC cost, or
        // batching would amortize nothing.
        let c = AppCostConfig::default();
        assert!(c.rpc_batched_side_cost(1024) < c.rpc_side_cost(1024));
    }

    #[test]
    fn l0_defaults_off_and_maps_to_cachekit_params() {
        // Off by default everywhere: the committed results/ files reproduce
        // only while the L0 tier stays disabled.
        assert!(DeploymentConfig::paper(ArchKind::Remote).l0.is_none());
        assert!(DeploymentConfig::test_small(ArchKind::Linked).l0.is_none());

        let cfg = L0Config::default();
        assert!(!cfg.serve_stale());
        let p = cfg.params();
        assert_eq!(p.capacity_bytes, 4 << 20);
        assert!(matches!(p.mode, cachekit::L0Mode::InvalidateFirst));
        // Sketch sized to capacity / mean entry.
        assert_eq!(p.expected_entries, (4 << 20) / 1_024);

        let stale = L0Config {
            consistency: L0Consistency::ServeStale,
            stale_after_us: 1_000.0,
            ..L0Config::default()
        };
        assert!(stale.serve_stale());
        assert!(matches!(
            stale.params().mode,
            cachekit::L0Mode::ServeStale {
                stale_after_nanos: 1_000_000
            }
        ));
        // An L0 probe must be far cheaper than the ops it short-circuits.
        assert!(cfg.hit_us < AppCostConfig::default().local_cache_op_us);
    }

    #[test]
    fn elastic_defaults_off() {
        // The committed results/ files reproduce only while the elastic
        // control plane stays disabled by default.
        let d = DeploymentConfig::paper(ArchKind::Linked);
        assert!(!d.elastic.enabled());
        let t = DeploymentConfig::test_small(ArchKind::Remote);
        assert!(!t.elastic.enabled());
    }

    #[test]
    fn ttl_defaults_off() {
        // Same contract as elastic/L0: the committed results/ files
        // reproduce only while the TTL control plane stays disabled.
        let d = DeploymentConfig::paper(ArchKind::Remote);
        assert!(!d.ttl.enabled());
        let t = DeploymentConfig::test_small(ArchKind::Linked);
        assert!(!t.ttl.enabled());
        // Plane gating mirrors supports_l0.
        assert!(ArchKind::Remote.supports_ttl_plane());
        assert!(ArchKind::Linked.supports_ttl_plane());
        assert!(!ArchKind::Base.supports_ttl_plane());
        assert!(!ArchKind::LinkedTtl.supports_ttl_plane());
        assert!(!ArchKind::LinkedVersion.supports_ttl_plane());
        // Sweep reclamation must be cheaper than a policy-touching cache op.
        let c = AppCostConfig::default();
        assert!(c.expiry_sweep_entry_us < c.local_cache_op_us);
    }

    #[test]
    fn capacity_accessors_respect_arch() {
        let base = DeploymentConfig::paper(ArchKind::Base);
        assert_eq!(base.total_linked_bytes(), 0);
        let remote = DeploymentConfig::paper(ArchKind::Remote);
        assert_eq!(remote.total_remote_bytes(), 18 << 30);
        assert_eq!(remote.total_linked_bytes(), 0);
    }
}
