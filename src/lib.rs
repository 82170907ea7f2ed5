//! # dcache-cost — the cost of distributed caches, reproduced
//!
//! This crate is the facade over a from-scratch Rust reproduction of
//! *Rethinking the Cost of Distributed Caches for Datacenter Services*
//! (HotNets '25): do distributed in-memory caches add cost (DRAM is
//! expensive) or save it (CPU is more expensive)? The paper's answer —
//! they cut total operating cost by multiples — is reproduced here on a
//! deterministic simulated substrate.
//!
//! ## The pieces (re-exported from the workspace crates)
//!
//! | module | crate | what it is |
//! |---|---|---|
//! | [`sim`] | `simnet` | virtual time, CPU meters, network + faults, metrics |
//! | [`cache`] | `cachekit` | eviction policies, bounded caches, sharding, MRC estimation |
//! | [`store`] | `storekit` | SQL subset engine, MVCC KV + block cache, Raft regions |
//! | [`net`] | `netrpc` | a *real* tokio TCP remote-cache (protocol + server + client) |
//! | [`workload`] | `workloads` | Zipf/Meta/sessions/Unity-Catalog trace generators |
//! | [`cost`] | `costmodel` | GCP pricing + the §4 analytical model |
//! | [`study`] | `dcache` | the architectures, experiment runner, consistency machinery |
//! | [`obs`] | `telemetry` | request tracing, metrics registry, CPU-attribution profiler |
//!
//! ## Quickstart
//!
//! ```
//! use dcache_cost::study::{
//!     experiment::{run_kv_experiment, KvExperimentConfig},
//!     ArchKind, DeploymentConfig,
//! };
//! use dcache_cost::workload::{KvWorkloadConfig, SizeDist};
//! use dcache_cost::cost::Pricing;
//!
//! let cfg = KvExperimentConfig {
//!     deployment: DeploymentConfig::test_small(ArchKind::Linked),
//!     workload: KvWorkloadConfig {
//!         keys: 1_000,
//!         alpha: 1.2,
//!         read_ratio: 0.95,
//!         sizes: SizeDist::Fixed(1_024),
//!         seed: 42,
//!         churn_period: None,
//!     },
//!     qps: 50_000.0,
//!     warmup_requests: 2_000,
//!     requests: 2_000,
//!     prewarm: false,
//!     crash_leaders_at_request: None,
//!     cache_fault_schedule: None,
//!     trace_sample_every: None,
//!     diurnal: None,
//!     observability: None,
//!     tenants: None,
//!     pricing: Pricing::default(),
//! };
//! let report = run_kv_experiment(&cfg).unwrap();
//! assert!(report.total_cost.total() > 0.0);
//! println!("linked cache costs ${:.2}/month", report.total_cost.total());
//! ```
//!
//! See `examples/` for the full tour and `crates/bench` for the binaries
//! that regenerate every figure in the paper.

pub use cachekit as cache;
pub use costmodel as cost;
pub use dcache as study;
pub use netrpc as net;
pub use simnet as sim;
pub use storekit as store;
pub use telemetry as obs;
pub use workloads as workload;
