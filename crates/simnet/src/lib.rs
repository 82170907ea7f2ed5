//! # simnet — virtual time, CPU accounting and the network/fault model
//!
//! `simnet` is the substrate every experiment in this repository runs on.
//! Experiments are straight-line request loops: each request carries a
//! virtual timestamp, and every tier it touches charges modelled CPU time to
//! a meter. The crate provides:
//!
//! * virtual time ([`SimTime`], [`SimDuration`]) — integer nanoseconds, so
//!   runs never read the wall clock,
//! * per-node CPU meters ([`cpu::CpuMeter`]) that attribute busy time to
//!   semantic categories (serialization, SQL front-end work, replication, …),
//!   which is exactly the quantity the paper's cost model consumes,
//! * a network model ([`net::Network`]) with per-hop latency, per-byte wire
//!   cost, and fault injection (drops, extra delay, partitions, node
//!   crashes),
//! * a time-scheduled fault engine ([`fault::FaultSchedule`]) that scripts
//!   crash/restart, partition and latency-spike windows deterministically,
//! * lightweight metrics ([`metrics`]) — counters and log-bucketed histograms,
//! * analytic M/M/c queueing ([`queueing`]) for sanity-checking VM sizing.
//!
//! Nothing here uses wall-clock time or ambient randomness: the only
//! randomness is the seeded RNG a caller passes to [`Network::send`], so two
//! runs with the same seed produce byte-identical results.
//!
//! ```
//! use simnet::{CpuCategory, CpuMeter, SimDuration, SimTime};
//!
//! // Serve 1,000 requests over one virtual second; each costs 30 µs of
//! // RPC-stack work and 20 µs of cache work.
//! let mut meter = CpuMeter::new();
//! let mut now = SimTime::ZERO;
//! for _ in 0..1_000 {
//!     meter.charge(CpuCategory::RpcStack, SimDuration::from_micros(30));
//!     meter.charge(CpuCategory::CacheOp, SimDuration::from_micros(20));
//!     now += SimDuration::from_millis(1);
//! }
//! let window = now.since(SimTime::ZERO);
//! assert_eq!(window, SimDuration::from_secs(1));
//! assert_eq!(meter.total(), SimDuration::from_millis(50));
//! assert!((meter.cores_used(window) - 0.05).abs() < 1e-12);
//! assert!((meter.fraction(CpuCategory::RpcStack) - 0.6).abs() < 1e-12);
//! ```

pub mod cpu;
pub mod fault;
pub mod metrics;
pub mod net;
pub mod node;
pub mod queueing;
pub mod time;

pub use cpu::{CpuCategory, CpuMeter};
pub use fault::{FaultDriver, FaultEvent, FaultKind, FaultSchedule};
pub use metrics::{Counter, Histogram, MetricSet};
pub use net::{Delivery, FaultPlan, LinkClass, Network};
pub use queueing::{erlang_c, mmc_wait_time};
pub use node::NodeId;
pub use time::{SimDuration, SimTime};
