//! The periodic decision loop gluing profiler to planner.
//!
//! A deployment embeds one [`ElasticController`] per cache tier, feeds it
//! every request key ([`ElasticController::observe`]) and calls
//! [`ElasticController::maybe_decide`] from its heartbeat. On each elapsed
//! decision interval the controller measures the window's request rate,
//! asks the planner for a (hysteresis-damped) plan, and returns it for the
//! caller to apply — the controller itself never touches a cache, which
//! keeps it trivially testable and the deployment in charge of migration
//! accounting.
//!
//! Disabled by default: `ElasticConfig::default().enabled()` is false and
//! a disabled controller's methods are no-ops, so embedding it in every
//! deployment costs nothing and perturbs no baseline experiment.

use crate::planner::{plan, Plan, PlannerConfig};
use crate::shards::{ShardsConfig, ShardsProfiler};
use costmodel::Pricing;

/// Elastic provisioning configuration; `decision_interval_secs == 0`
/// (the default) disables the whole control plane.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ElasticConfig {
    /// Simulated seconds between provisioning decisions. 0 = disabled.
    pub decision_interval_secs: f64,
    pub profiler: ShardsConfig,
    pub planner: PlannerConfig,
}

impl ElasticConfig {
    pub fn enabled(&self) -> bool {
        self.decision_interval_secs > 0.0
    }

    /// An enabled config with the given cadence and size bounds, other
    /// knobs at their defaults.
    pub fn with_interval(decision_interval_secs: f64) -> Self {
        ElasticConfig {
            decision_interval_secs,
            ..ElasticConfig::default()
        }
    }
}

/// Streaming profiler + periodic planner. See module docs.
#[derive(Debug, Clone)]
pub struct ElasticController {
    cfg: ElasticConfig,
    profiler: ShardsProfiler,
    current: Option<Plan>,
    window_start_secs: Option<f64>,
    window_requests: u64,
    decisions: u64,
    plan_changes: u64,
}

impl ElasticController {
    pub fn new(cfg: ElasticConfig) -> Self {
        ElasticController {
            profiler: ShardsProfiler::new(cfg.profiler),
            cfg,
            current: None,
            window_start_secs: None,
            window_requests: 0,
            decisions: 0,
            plan_changes: 0,
        }
    }

    pub fn config(&self) -> &ElasticConfig {
        &self.cfg
    }

    pub fn enabled(&self) -> bool {
        self.cfg.enabled()
    }

    /// The profiler, for telemetry (rate, tracked keys, curve).
    pub fn profiler(&self) -> &ShardsProfiler {
        &self.profiler
    }

    /// The most recent plan, if any decision has fired yet.
    pub fn current_plan(&self) -> Option<&Plan> {
        self.current.as_ref()
    }

    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Decisions that changed the target capacity.
    pub fn plan_changes(&self) -> u64 {
        self.plan_changes
    }

    /// Feed one request key. No-op when disabled.
    pub fn observe(&mut self, key: &[u8]) {
        if !self.cfg.enabled() {
            return;
        }
        self.profiler.observe(key);
        self.window_requests += 1;
    }

    /// [`ElasticController::observe`] by precomputed `stable_hash(key)` —
    /// callers that route by interned keys already hold the hash.
    pub fn observe_hashed(&mut self, hash: u64) {
        if !self.cfg.enabled() {
            return;
        }
        self.profiler.observe_hashed(hash);
        self.window_requests += 1;
    }

    /// Run a decision if a full interval has elapsed since the last one.
    /// Returns the (possibly unchanged) plan when a decision fires.
    pub fn maybe_decide(&mut self, now_secs: f64, pricing: &Pricing) -> Option<Plan> {
        if !self.cfg.enabled() {
            return None;
        }
        let start = match self.window_start_secs {
            None => {
                // First tick opens the measurement window; no decision yet.
                self.window_start_secs = Some(now_secs);
                return None;
            }
            Some(s) => s,
        };
        let elapsed = now_secs - start;
        if elapsed < self.cfg.decision_interval_secs {
            return None;
        }
        let rps = self.window_requests as f64 / elapsed.max(1e-9);
        let next = plan(
            &self.profiler.curve(),
            rps,
            &self.cfg.planner,
            pricing,
            self.current.as_ref(),
        );
        self.decisions += 1;
        if self.current.map(|p| p.cache_bytes) != Some(next.cache_bytes) {
            self.plan_changes += 1;
        }
        self.current = Some(next);
        self.window_start_secs = Some(now_secs);
        self.window_requests = 0;
        Some(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hot_cold_key(i: u64) -> Vec<u8> {
        // 90% of traffic over 32 hot keys, the rest over 4096 cold ones.
        let r = cachekit::ring::splitmix64(i);
        let k = if r % 10 < 9 { r % 32 } else { 32 + (r / 16) % 4_096 };
        format!("key-{k}").into_bytes()
    }

    fn enabled_cfg() -> ElasticConfig {
        ElasticConfig {
            decision_interval_secs: 10.0,
            profiler: ShardsConfig::default(),
            planner: PlannerConfig {
                min_cache_bytes: 16 << 10,
                max_cache_bytes: 64 << 20,
                mean_entry_bytes: 1_024,
                ..PlannerConfig::default()
            },
        }
    }

    #[test]
    fn default_config_is_disabled_and_inert() {
        let cfg = ElasticConfig::default();
        assert!(!cfg.enabled());
        let mut c = ElasticController::new(cfg);
        c.observe(b"k");
        assert_eq!(c.profiler().raw_accesses(), 0, "disabled observe is a no-op");
        assert_eq!(c.maybe_decide(1_000.0, &Pricing::default()), None);
        assert_eq!(c.decisions(), 0);
    }

    #[test]
    fn decisions_fire_on_the_interval_and_track_load() {
        let mut c = ElasticController::new(enabled_cfg());
        let pricing = Pricing::default();
        assert_eq!(c.maybe_decide(0.0, &pricing), None, "first tick only opens window");
        for i in 0..20_000u64 {
            c.observe(&hot_cold_key(i));
        }
        assert_eq!(c.maybe_decide(5.0, &pricing), None, "interval not elapsed");
        let first = c.maybe_decide(10.0, &pricing).expect("decision fires");
        assert!(first.cache_bytes > 0);
        assert_eq!(c.decisions(), 1);
        // A much quieter second window should cost less.
        for i in 0..2_000u64 {
            c.observe(&hot_cold_key(i));
        }
        let second = c.maybe_decide(20.0, &pricing).expect("second decision");
        assert!(second.monthly_dollars < first.monthly_dollars);
    }

    #[test]
    fn steady_load_does_not_flap_the_plan() {
        let mut c = ElasticController::new(enabled_cfg());
        let pricing = Pricing::default();
        c.maybe_decide(0.0, &pricing);
        let mut i = 0u64;
        let mut sizes = Vec::new();
        for round in 1..=8 {
            for _ in 0..10_000 {
                c.observe(&hot_cold_key(i));
                i += 1;
            }
            let p = c.maybe_decide(round as f64 * 10.0, &pricing).expect("decision");
            sizes.push(p.cache_bytes);
        }
        // Early rounds may step as the curve's cold tail fills in, but the
        // hysteresis must hold the size still once converged — and never
        // oscillate back and forth between two sizes.
        let tail: Vec<u64> = sizes[sizes.len() - 4..].to_vec();
        assert!(
            tail.windows(2).all(|w| w[0] == w[1]),
            "plan flapped under steady load: {sizes:?}"
        );
        assert!(c.plan_changes() <= 3, "{} changes: {sizes:?}", c.plan_changes());
        // Collapse runs; a size reappearing after a different one is an
        // A→B→A oscillation the hysteresis exists to prevent.
        let mut runs = sizes.clone();
        runs.dedup();
        let mut uniq = runs.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(runs.len(), uniq.len(), "oscillation: {sizes:?}");
    }

    #[test]
    fn controller_is_deterministic() {
        let run = || {
            let mut c = ElasticController::new(enabled_cfg());
            let pricing = Pricing::default();
            c.maybe_decide(0.0, &pricing);
            let mut out = Vec::new();
            for round in 1..=4 {
                for i in 0..5_000u64 {
                    c.observe(&hot_cold_key(round * 100_000 + i));
                }
                out.push(c.maybe_decide(round as f64 * 10.0, &pricing));
            }
            format!("{out:?}")
        };
        assert_eq!(run(), run());
    }
}
