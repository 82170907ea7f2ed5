//! Per-node CPU accounting.
//!
//! The paper's cost methodology (§5.1) measures the steady-state vCPU cores
//! each component consumes and multiplies by cloud unit prices. A
//! [`CpuMeter`] is the simulator's equivalent: every simulated operation
//! charges busy-time to the meter of the node it runs on, tagged with a
//! semantic [`CpuCategory`]. At the end of a run,
//! `cores = total_busy_time / sim_duration`, and the per-category split
//! reproduces the breakdowns the paper reports in §5.3 (e.g. "40–65% of
//! database CPU is connection management, query processing and planning").

use crate::time::SimDuration;
use std::fmt;

/// Semantic attribution for CPU time, mirroring the cost components the paper
/// discusses. Categories are deliberately coarse: they must survive being
/// summed across heterogeneous nodes and still mean something in a figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpuCategory {
    /// Receiving requests from / sending responses to end clients.
    ClientComm,
    /// Marshalling and unmarshalling values (proto-style per-byte work).
    Serialization,
    /// RPC stack overhead between internal tiers (app ↔ cache ↔ storage).
    RpcStack,
    /// SQL front-end: connection handling, parsing, planning.
    SqlFrontend,
    /// Query execution inside the storage engine (row visits, filters, joins).
    QueryExec,
    /// Transaction-layer work: lease validation, version checks, MVCC reads.
    TxnLease,
    /// Key-value engine work: point lookups, block-cache accesses, writes.
    KvExec,
    /// Raft replication: log append, commit, follower apply.
    Replication,
    /// Cache server / cache library operation (hash, eviction, bookkeeping).
    CacheOp,
    /// Application business logic (rich-object assembly, permission checks).
    AppLogic,
    /// Anything else (timers, background jobs).
    Other,
}

impl CpuCategory {
    /// All categories, in display order.
    pub const ALL: [CpuCategory; 11] = [
        CpuCategory::ClientComm,
        CpuCategory::Serialization,
        CpuCategory::RpcStack,
        CpuCategory::SqlFrontend,
        CpuCategory::QueryExec,
        CpuCategory::TxnLease,
        CpuCategory::KvExec,
        CpuCategory::Replication,
        CpuCategory::CacheOp,
        CpuCategory::AppLogic,
        CpuCategory::Other,
    ];

    const fn index(self) -> usize {
        match self {
            CpuCategory::ClientComm => 0,
            CpuCategory::Serialization => 1,
            CpuCategory::RpcStack => 2,
            CpuCategory::SqlFrontend => 3,
            CpuCategory::QueryExec => 4,
            CpuCategory::TxnLease => 5,
            CpuCategory::KvExec => 6,
            CpuCategory::Replication => 7,
            CpuCategory::CacheOp => 8,
            CpuCategory::AppLogic => 9,
            CpuCategory::Other => 10,
        }
    }

    /// Short stable label used in figure output.
    pub const fn label(self) -> &'static str {
        match self {
            CpuCategory::ClientComm => "client_comm",
            CpuCategory::Serialization => "serialization",
            CpuCategory::RpcStack => "rpc_stack",
            CpuCategory::SqlFrontend => "sql_frontend",
            CpuCategory::QueryExec => "query_exec",
            CpuCategory::TxnLease => "txn_lease",
            CpuCategory::KvExec => "kv_exec",
            CpuCategory::Replication => "replication",
            CpuCategory::CacheOp => "cache_op",
            CpuCategory::AppLogic => "app_logic",
            CpuCategory::Other => "other",
        }
    }
}

impl fmt::Display for CpuCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Accumulates CPU busy-time per category for one node.
#[derive(Debug, Clone, Default)]
pub struct CpuMeter {
    busy_nanos: [u64; CpuCategory::ALL.len()],
}

impl CpuMeter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Charge `amount` of CPU time to `category`.
    pub fn charge(&mut self, category: CpuCategory, amount: SimDuration) {
        let slot = &mut self.busy_nanos[category.index()];
        *slot = slot.saturating_add(amount.as_nanos());
    }

    /// Total busy time across all categories.
    pub fn total(&self) -> SimDuration {
        SimDuration::from_nanos(self.busy_nanos.iter().fold(0u64, |a, &b| a.saturating_add(b)))
    }

    /// Busy time in one category.
    pub fn category(&self, category: CpuCategory) -> SimDuration {
        SimDuration::from_nanos(self.busy_nanos[category.index()])
    }

    /// Iterate `(category, busy)` pairs with non-zero busy time.
    pub fn breakdown(&self) -> impl Iterator<Item = (CpuCategory, SimDuration)> + '_ {
        CpuCategory::ALL
            .iter()
            .copied()
            .map(move |c| (c, self.category(c)))
            .filter(|(_, d)| *d > SimDuration::ZERO)
    }

    /// Steady-state cores implied by this meter over a run of `window`
    /// duration: `busy / window`. This is the paper's measured quantity.
    pub fn cores_used(&self, window: SimDuration) -> f64 {
        if window == SimDuration::ZERO {
            return 0.0;
        }
        self.total().as_nanos() as f64 / window.as_nanos() as f64
    }

    /// Fraction of busy time spent in `category` (0 if idle).
    pub fn fraction(&self, category: CpuCategory) -> f64 {
        let total = self.total().as_nanos();
        if total == 0 {
            return 0.0;
        }
        self.category(category).as_nanos() as f64 / total as f64
    }

    /// Merge another meter into this one (used to aggregate a tier of nodes).
    pub fn merge(&mut self, other: &CpuMeter) {
        for (slot, add) in self.busy_nanos.iter_mut().zip(other.busy_nanos.iter()) {
            *slot = slot.saturating_add(*add);
        }
    }

    /// Reset all counters to zero (used between warmup and measurement).
    pub fn reset(&mut self) {
        self.busy_nanos = Default::default();
    }

    /// Fold this meter into a collapsed-stack CPU profile: each non-zero
    /// category becomes one stack `frames[0];…;frames[n];{category}` with
    /// its busy nanoseconds as the weight. `frames` typically carries the
    /// architecture and tier, e.g. `["linked", "app"]`.
    pub fn fold_into(&self, profile: &mut telemetry::CpuProfile, frames: &[&str]) {
        for (category, busy) in self.breakdown() {
            let mut stack: Vec<&str> = Vec::with_capacity(frames.len() + 1);
            stack.extend_from_slice(frames);
            stack.push(category.label());
            profile.add(&stack, busy.as_nanos());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_per_category() {
        let mut m = CpuMeter::new();
        m.charge(CpuCategory::SqlFrontend, SimDuration::from_micros(45));
        m.charge(CpuCategory::SqlFrontend, SimDuration::from_micros(45));
        m.charge(CpuCategory::KvExec, SimDuration::from_micros(10));
        assert_eq!(
            m.category(CpuCategory::SqlFrontend),
            SimDuration::from_micros(90)
        );
        assert_eq!(m.total(), SimDuration::from_micros(100));
    }

    #[test]
    fn cores_used_matches_busy_over_window() {
        let mut m = CpuMeter::new();
        // 2 seconds of busy time over a 1 second window = 2 cores.
        m.charge(CpuCategory::AppLogic, SimDuration::from_secs(2));
        assert!((m.cores_used(SimDuration::from_secs(1)) - 2.0).abs() < 1e-12);
        assert_eq!(m.cores_used(SimDuration::ZERO), 0.0);
    }

    #[test]
    fn fraction_sums_to_one_when_busy() {
        let mut m = CpuMeter::new();
        m.charge(CpuCategory::ClientComm, SimDuration::from_micros(30));
        m.charge(CpuCategory::Serialization, SimDuration::from_micros(70));
        let sum: f64 = CpuCategory::ALL.iter().map(|&c| m.fraction(c)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((m.fraction(CpuCategory::Serialization) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn idle_meter_reports_zero_fractions() {
        let m = CpuMeter::new();
        assert_eq!(m.fraction(CpuCategory::Other), 0.0);
        assert_eq!(m.breakdown().count(), 0);
    }

    #[test]
    fn merge_adds_componentwise() {
        let mut a = CpuMeter::new();
        let mut b = CpuMeter::new();
        a.charge(CpuCategory::KvExec, SimDuration::from_micros(5));
        b.charge(CpuCategory::KvExec, SimDuration::from_micros(7));
        b.charge(CpuCategory::Replication, SimDuration::from_micros(3));
        a.merge(&b);
        assert_eq!(a.category(CpuCategory::KvExec), SimDuration::from_micros(12));
        assert_eq!(
            a.category(CpuCategory::Replication),
            SimDuration::from_micros(3)
        );
    }

    #[test]
    fn reset_zeroes_everything() {
        let mut m = CpuMeter::new();
        m.charge(CpuCategory::Other, SimDuration::from_secs(1));
        m.reset();
        assert_eq!(m.total(), SimDuration::ZERO);
    }

    #[test]
    fn charge_saturates_at_max() {
        let mut m = CpuMeter::new();
        m.charge(CpuCategory::Other, SimDuration::from_nanos(u64::MAX));
        m.charge(CpuCategory::Other, SimDuration::from_nanos(u64::MAX));
        assert_eq!(m.category(CpuCategory::Other).as_nanos(), u64::MAX);
    }

    #[test]
    fn fold_into_profile_preserves_totals() {
        let mut m = CpuMeter::new();
        m.charge(CpuCategory::CacheOp, SimDuration::from_micros(40));
        m.charge(CpuCategory::KvExec, SimDuration::from_micros(60));
        let mut p = telemetry::CpuProfile::new();
        m.fold_into(&mut p, &["linked", "cache"]);
        assert_eq!(p.total(), m.total().as_nanos());
        assert_eq!(p.total_matching("linked;cache;cache_op"), 40_000);
        assert_eq!(
            p.to_collapsed(),
            "linked;cache;cache_op 40000\nlinked;cache;kv_exec 60000\n"
        );
    }
}
