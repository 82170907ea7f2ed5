//! Multi-tenant request mixes and the TTL study's two stress schedules.
//!
//! A shared cache serves many services at once; the paper prices the cache
//! as one tier, but *tuning* it per tenant is where TTL control earns its
//! keep — one tenant's churn or write storm shouldn't cost another tenant
//! its hit ratio. This module supplies the workload side of that story:
//!
//! * [`TenantMix`] — a weighted set of [`TenantSpec`]s, each with its own
//!   key space (namespaced ids), Zipf skew, read mix, and optionally a
//!   churn or storm schedule. A [`TenantPicker`] chooses the tenant of
//!   each request deterministically from a dedicated xorshift stream, so
//!   adding a tenant dimension never perturbs the per-tenant request
//!   sequences themselves.
//! * [`ChurnSchedule`] — daily working-set rotation: a pure function of
//!   simulated time to a churn epoch; the workload re-scrambles its
//!   rank→key mapping each epoch ("dashboards over the last T minutes").
//! * [`StormSchedule`] — write-heavy invalidation storms: periodic bursts
//!   during which the tenant's read ratio drops to a configured value,
//!   invalidating its working set at high rate.
//!
//! Like [`crate::diurnal`], schedules are pure functions of
//! `(config, time)` — no RNG — so every run is byte-stable across workers.

use crate::kv::KvWorkloadConfig;

/// Bits reserved for the per-tenant key id; tenant ids live above them.
/// Key spaces up to 2^40 keys per tenant — far beyond any experiment.
const TENANT_KEY_BITS: u32 = 40;

/// Namespace a tenant-local key id into the shared key space.
pub fn namespaced_key(tenant: usize, key: u64) -> u64 {
    debug_assert!(key < 1u64 << TENANT_KEY_BITS);
    ((tenant as u64) << TENANT_KEY_BITS) | key
}

/// Recover the tenant id from a namespaced key.
pub fn tenant_of_key(key: u64) -> usize {
    (key >> TENANT_KEY_BITS) as usize
}

/// Daily working-set rotation: every `period_secs` the tenant's hot set
/// moves to a fresh region of its key space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnSchedule {
    /// Seconds between hot-set rotations.
    pub period_secs: f64,
}

impl ChurnSchedule {
    /// The churn epoch at `t_secs`: a pure, monotone function of time.
    pub fn epoch(&self, t_secs: f64) -> u64 {
        if self.period_secs <= 0.0 {
            0
        } else {
            (t_secs / self.period_secs).floor().max(0.0) as u64
        }
    }
}

/// Periodic write-heavy invalidation storms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StormSchedule {
    /// Seconds between storm onsets.
    pub period_secs: f64,
    /// Storm duration from each onset (must be < `period_secs`).
    pub burst_secs: f64,
    /// Read ratio *during* the storm (e.g. 0.2 = 80% writes); outside the
    /// storm the tenant's configured read ratio applies.
    pub storm_read_ratio: f64,
}

impl StormSchedule {
    /// The read-ratio override at `t_secs`, if a storm is in progress.
    pub fn read_ratio_at(&self, t_secs: f64) -> Option<f64> {
        if self.period_secs <= 0.0 || self.burst_secs <= 0.0 {
            return None;
        }
        let phase = t_secs.rem_euclid(self.period_secs);
        (phase < self.burst_secs).then_some(self.storm_read_ratio.clamp(0.0, 1.0))
    }
}

/// One tenant: a weight in the shared request stream, its own workload
/// parameters, and optional churn/storm stress schedules.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Short name for reports and metric labels.
    pub label: String,
    /// Relative share of the shared request stream.
    pub weight: f64,
    /// The tenant's private workload (its `keys` are tenant-local ids).
    pub workload: KvWorkloadConfig,
    pub churn: Option<ChurnSchedule>,
    pub storm: Option<StormSchedule>,
}

impl TenantSpec {
    pub fn new(label: &str, weight: f64, workload: KvWorkloadConfig) -> Self {
        TenantSpec {
            label: label.to_string(),
            weight,
            workload,
            churn: None,
            storm: None,
        }
    }

    pub fn with_churn(mut self, period_secs: f64) -> Self {
        self.churn = Some(ChurnSchedule { period_secs });
        self
    }

    pub fn with_storm(mut self, period_secs: f64, burst_secs: f64, storm_read_ratio: f64) -> Self {
        self.storm = Some(StormSchedule { period_secs, burst_secs, storm_read_ratio });
        self
    }
}

/// A weighted set of tenants sharing one cache deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantMix {
    pub tenants: Vec<TenantSpec>,
    /// Seed for the tenant-of-request picker (independent of each
    /// tenant's own workload seed).
    pub select_seed: u64,
}

impl TenantMix {
    pub fn new(tenants: Vec<TenantSpec>, select_seed: u64) -> Self {
        TenantMix { tenants, select_seed }
    }

    pub fn picker(&self) -> TenantPicker {
        let total: f64 = self.tenants.iter().map(|t| t.weight.max(0.0)).sum();
        let mut cumulative = Vec::with_capacity(self.tenants.len());
        let mut acc = 0.0;
        for t in &self.tenants {
            acc += t.weight.max(0.0) / total.max(1e-12);
            cumulative.push(acc);
        }
        TenantPicker { cumulative, state: self.select_seed | 1 }
    }
}

/// Deterministic weighted tenant selection (xorshift64*, its own stream).
#[derive(Debug, Clone)]
pub struct TenantPicker {
    cumulative: Vec<f64>,
    state: u64,
}

impl TenantPicker {
    /// The tenant index of the next request.
    pub fn pick(&mut self) -> usize {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        let u = (x.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64;
        self.cumulative
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.cumulative.len().saturating_sub(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(label: &str, weight: f64) -> TenantSpec {
        TenantSpec::new(label, weight, KvWorkloadConfig::paper_synthetic(0.9, 1_024, 7))
    }

    #[test]
    fn namespacing_round_trips_and_separates_tenants() {
        for tenant in [0usize, 1, 5, 200] {
            for key in [0u64, 1, 99_999, (1 << 40) - 1] {
                let ns = namespaced_key(tenant, key);
                assert_eq!(tenant_of_key(ns), tenant);
                assert_eq!(ns & ((1 << 40) - 1), key);
            }
        }
        assert_ne!(namespaced_key(0, 42), namespaced_key(1, 42));
    }

    #[test]
    fn churn_epochs_advance_daily() {
        let c = ChurnSchedule { period_secs: 86_400.0 };
        assert_eq!(c.epoch(0.0), 0);
        assert_eq!(c.epoch(86_399.0), 0);
        assert_eq!(c.epoch(86_400.0), 1);
        assert_eq!(c.epoch(10.0 * 86_400.0 + 1.0), 10);
        let degenerate = ChurnSchedule { period_secs: 0.0 };
        assert_eq!(degenerate.epoch(1e9), 0, "zero period never rotates");
    }

    #[test]
    fn storms_are_periodic_bursts() {
        let s = StormSchedule { period_secs: 100.0, burst_secs: 10.0, storm_read_ratio: 0.2 };
        assert_eq!(s.read_ratio_at(0.0), Some(0.2), "storm at each onset");
        assert_eq!(s.read_ratio_at(9.9), Some(0.2));
        assert_eq!(s.read_ratio_at(10.0), None, "quiet after the burst");
        assert_eq!(s.read_ratio_at(99.0), None);
        assert_eq!(s.read_ratio_at(205.0), Some(0.2), "every period");
        let off = StormSchedule { period_secs: 0.0, burst_secs: 10.0, storm_read_ratio: 0.2 };
        assert_eq!(off.read_ratio_at(5.0), None);
    }

    #[test]
    fn picker_respects_weights_and_is_deterministic() {
        let mix = TenantMix::new(vec![spec("a", 3.0), spec("b", 1.0)], 42);
        let draw = |mix: &TenantMix, n: usize| -> Vec<usize> {
            let mut p = mix.picker();
            (0..n).map(|_| p.pick()).collect()
        };
        let picks = draw(&mix, 40_000);
        assert_eq!(picks, draw(&mix, 40_000), "picker must be deterministic");
        let a = picks.iter().filter(|&&t| t == 0).count() as f64 / picks.len() as f64;
        assert!((a - 0.75).abs() < 0.01, "tenant a share {a}, want 0.75");
    }

    #[test]
    fn picker_handles_single_tenant_and_zero_weights() {
        let mut solo = TenantMix::new(vec![spec("only", 1.0)], 1).picker();
        assert!((0..100).all(|_| solo.pick() == 0));
        let mut skewed = TenantMix::new(vec![spec("z", 0.0), spec("all", 2.0)], 1).picker();
        assert!((0..1_000).all(|_| skewed.pick() == 1), "zero-weight tenant never picked");
    }
}
