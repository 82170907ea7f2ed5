//! # cachekit — the cache toolkit underlying every architecture in this repo
//!
//! The paper compares storage-layer caches, remote lookaside caches, and
//! application-linked caches. All three are, underneath, a byte-bounded
//! key-value cache with an eviction policy; they differ in *where* they sit
//! and what CPU their access path burns. `cachekit` provides that shared
//! machinery:
//!
//! * [`Cache`] — a byte-capacity-bounded cache with per-entry charges,
//!   optional TTL, and hit/miss/eviction statistics,
//! * [`PolicyKind`] — pluggable eviction: LRU, FIFO, LFU, SLRU, CLOCK
//!   (the eviction ablation bench sweeps these),
//! * [`admission`] — optional TinyLFU admission (count-min sketch +
//!   doorkeeper) gating what may enter a full cache,
//! * [`l0::L0Cache`] — the in-process hot-key tier: a few MB of
//!   TinyLFU-admitted, version-invalidated cache inside each app server
//!   that absorbs the Zipf head at near-zero CPU,
//! * [`ring::HashRing`] — consistent hashing used to shard linked caches
//!   across application servers (§2.4: "linked caches are typically
//!   sharded"),
//! * [`mrc`] — miss-ratio-curve estimation, both analytic (Zipfian) and
//!   trace-driven (Mattson stack distances), feeding the §4 theoretical
//!   model.
//!
//! Time is expressed as plain `u64` nanoseconds so the crate stays
//! independent of the simulator; `simnet::SimTime::as_nanos` bridges them.

pub mod admission;
pub mod cache;
pub mod fxhash;
mod index;
pub mod intern;
pub mod l0;
pub mod list;
pub mod mrc;
pub mod policy;
pub mod ring;
pub mod stats;

pub use admission::TinyLfu;
pub use cache::{Cache, CacheKeyHash, InsertOutcome};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHasher};
pub use intern::{InternedKey, KeyInterner};
pub use l0::{L0Cache, L0Hit, L0Mode, L0Params, L0Stats};
pub use mrc::{zipf_hit_ratio, MissRatioCurve, StackDistance};
pub use policy::PolicyKind;
pub use ring::HashRing;
pub use stats::CacheStats;
