//! Shared builder for the elastic-provisioning ablation.
//!
//! One sweep definition, two consumers: the `ablation_elastic` bin (full
//! budget, table + JSON + the headline elastic-vs-static-peak dollar
//! comparison) and the determinism tests (jobs=1 vs jobs=N byte-equality).
//! Keeping the config construction here guarantees they measure the same
//! thing.
//!
//! Every cell runs the same diurnal day — a sinusoidal swing between peak
//! and a 25% trough, compressed onto the virtual clock — once with the
//! cache tier statically provisioned for peak and once with the elastic
//! controller live (online SHARDS MRC profiling + cost planner + actual
//! cache resizing and shard draining). Static provisioning pays for its
//! *peak* window all day; elastic pays the time-integral. The figure is
//! the dollar gap between the two, per architecture, next to the hit-ratio
//! cost of running leaner.

use crate::small_kv;
use crate::sweep::SweepRunner;
use dcache::experiment::{run_kv_experiment, KvExperimentConfig};
use dcache::{ArchKind, ExperimentReport};
use workloads::DiurnalSchedule;

/// Architectures with an elastic-manageable cache tier (Base has none).
pub const ARCHS: &[ArchKind] = &[ArchKind::Remote, ArchKind::Linked, ArchKind::LinkedVersion];

/// Peak request rate. Low enough that heartbeats (one per `qps` requests ≈
/// one virtual second) land many times per diurnal cycle.
pub const PEAK_QPS: f64 = 2_000.0;

/// One compressed "day" of simulated load.
pub const DAY_SECS: f64 = 8.0;

/// Demand at the quietest point, as a fraction of peak (Meta/Twitter cache
/// traces both show daily swings in the 2–4x range).
pub const TROUGH: f64 = 0.25;

/// Virtual seconds between provisioning decisions: 4 per cycle.
pub const DECISION_INTERVAL_SECS: f64 = DAY_SECS / 4.0;

/// One cell of the elastic sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElasticSpec {
    pub arch: ArchKind,
    /// false = static provisioning (controller off), the baseline.
    pub elastic: bool,
}

impl ElasticSpec {
    pub fn label(&self) -> String {
        format!(
            "{}/{}",
            self.arch.label(),
            if self.elastic { "elastic" } else { "static" }
        )
    }
}

/// The full grid in deterministic (arch major, static-then-elastic) order.
pub fn sweep_specs() -> Vec<ElasticSpec> {
    ARCHS
        .iter()
        .flat_map(|&arch| {
            [false, true]
                .iter()
                .map(move |&elastic| ElasticSpec { arch, elastic })
        })
        .collect()
}

/// The experiment for one sweep cell: the [`small_kv`] base on a
/// diurnal day, with the controller on or off. Warmup should span several
/// decision intervals (`warmup / PEAK_QPS > 2 · DECISION_INTERVAL_SECS`)
/// so the controller's first convergence step — and its refill churn —
/// lands before the measured window.
pub fn experiment(spec: &ElasticSpec, warmup: u64, measured: u64) -> KvExperimentConfig {
    let mut cfg = small_kv(spec.arch, 0.95, 1_024);
    cfg.qps = PEAK_QPS;
    cfg.warmup_requests = warmup;
    cfg.requests = measured;
    cfg.diurnal = Some(DiurnalSchedule::sinusoid(DAY_SECS, TROUGH));
    if spec.elastic {
        cfg.deployment.elastic = elastic::ElasticConfig {
            decision_interval_secs: DECISION_INTERVAL_SECS,
            profiler: elastic::ShardsConfig::default(),
            planner: elastic::PlannerConfig {
                min_cache_bytes: 64 << 10,
                max_cache_bytes: cfg
                    .deployment
                    .total_linked_bytes()
                    .max(cfg.deployment.total_remote_bytes())
                    .max(1 << 20),
                mean_entry_bytes: 1_024 + 64,
                // Half the hit budget on predicted misses, half on churn.
                max_miss_ratio_delta: 0.01,
                ..elastic::PlannerConfig::default()
            },
        };
    }
    cfg
}

/// Run every spec through `runner` (results in spec order).
pub fn run_sweep(
    runner: &SweepRunner,
    specs: &[ElasticSpec],
    warmup: u64,
    measured: u64,
) -> Vec<ExperimentReport> {
    runner.run_map(specs, |_, spec| {
        run_kv_experiment(&experiment(spec, warmup, measured)).expect("elastic sweep run")
    })
}

/// Monthly dollars under static-peak provisioning: the fleet is sized for
/// the hottest ~1-second load window and the full configured cache, all
/// day. Compute scales from the measured average up to the peak window;
/// memory is already billed at full configured capacity.
pub fn static_peak_dollars(r: &ExperimentReport) -> f64 {
    let scale = if r.total_cores > 0.0 && r.peak_window_cores > r.total_cores {
        r.peak_window_cores / r.total_cores
    } else {
        1.0
    };
    r.total_cost.total() - r.total_cost.compute + r.total_cost.compute * scale
}

/// Monthly dollars under elastic provisioning: the report's total is
/// already integral-billed (average cores; time-averaged cache capacity).
pub fn elastic_dollars(r: &ExperimentReport) -> f64 {
    r.total_cost.total()
}

/// Fractional saving of the elastic run against the static-peak baseline.
pub fn saving(static_run: &ExperimentReport, elastic_run: &ExperimentReport) -> f64 {
    1.0 - elastic_dollars(elastic_run) / static_peak_dollars(static_run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_cover_the_grid_in_order() {
        let specs = sweep_specs();
        assert_eq!(specs.len(), 2 * ARCHS.len());
        assert_eq!(
            specs[0],
            ElasticSpec {
                arch: ArchKind::Remote,
                elastic: false
            }
        );
        // Each arch's static cell immediately precedes its elastic cell —
        // the pairing the bin relies on.
        for pair in specs.chunks(2) {
            assert_eq!(pair[0].arch, pair[1].arch);
            assert!(!pair[0].elastic && pair[1].elastic);
        }
        assert_eq!(specs, sweep_specs());
    }

    #[test]
    fn static_cell_keeps_the_controller_off() {
        let spec = ElasticSpec {
            arch: ArchKind::Linked,
            elastic: false,
        };
        let cfg = experiment(&spec, 100, 100);
        assert!(!cfg.deployment.elastic.enabled());
        assert!(cfg.diurnal.is_some(), "static still rides the diurnal day");
    }

    #[test]
    fn elastic_cell_enables_the_controller_with_bounded_sizes() {
        let spec = ElasticSpec {
            arch: ArchKind::Remote,
            elastic: true,
        };
        let cfg = experiment(&spec, 100, 100);
        assert!(cfg.deployment.elastic.enabled());
        let p = &cfg.deployment.elastic.planner;
        assert!(p.min_cache_bytes < p.max_cache_bytes);
        assert_eq!(p.max_cache_bytes, cfg.deployment.total_remote_bytes());
    }

    #[test]
    fn static_peak_billing_never_undercuts_the_report() {
        // With no window tracked (peak = 0), billing falls back to the
        // plain report total instead of crediting a bogus discount.
        let spec = ElasticSpec {
            arch: ArchKind::Linked,
            elastic: false,
        };
        let mut cfg = experiment(&spec, 200, 400);
        cfg.diurnal = None;
        let r = run_kv_experiment(&cfg).expect("run");
        assert_eq!(r.peak_window_cores, 0.0);
        assert_eq!(static_peak_dollars(&r), r.total_cost.total());
    }
}
