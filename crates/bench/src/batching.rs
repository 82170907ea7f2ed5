//! Shared builder for the batched-RPC ablation.
//!
//! One sweep definition, two consumers: the `ablation_batching` bin (full
//! budget, table + JSON + §4 crossover narrative) and the determinism tests
//! (jobs=1 vs jobs=N byte-equality). Keeping the config construction here
//! guarantees they measure the same thing.
//!
//! The sweep holds the workload fixed (Remote architecture, 95% reads) and
//! varies `max_batch` × value size. `max_batch = 1` disables batching — the
//! baseline every other cell is compared against. The coalescing window
//! scales with the target batch size (see [`window_us`]) so frames actually
//! fill at the configured arrival rate; what the sweep shows is the
//! latency-for-CPU trade the paper's §4 batching analysis prices out.

use crate::small_kv;
use crate::sweep::SweepRunner;
use dcache::experiment::{run_kv_experiment, KvExperimentConfig};
use dcache::{ArchKind, BatchingConfig, ExperimentReport};

/// Batch-size axis; 1 = batching off (the baseline).
pub const BATCH_SIZES: &[u32] = &[1, 2, 4, 8, 16, 32];

/// Value-size axis: ~10 B is the median Meta value size the paper cites;
/// 1 KB is the synthetic default the fig4 grid uses.
pub const VALUE_SIZES: &[u64] = &[10, 1024];

/// One cell of the batching sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchSpec {
    pub max_batch: u32,
    pub value_bytes: u64,
}

/// The full grid in deterministic (value size major, batch size minor) order.
pub fn sweep_specs() -> Vec<BatchSpec> {
    VALUE_SIZES
        .iter()
        .flat_map(|&value_bytes| {
            BATCH_SIZES.iter().map(move |&max_batch| BatchSpec {
                max_batch,
                value_bytes,
            })
        })
        .collect()
}

/// A coalescing window long enough for a frame to reach `max_batch` keys.
///
/// Frames are keyed by (app server, cache node), so a deployment spreads
/// arrivals over `app_servers × remote_cache_nodes` slots; at `qps` the
/// per-slot inter-arrival is `slots / qps`. Doubling `max_batch` arrivals'
/// worth of that gap gives frames comfortable headroom to fill before they
/// depart.
pub fn window_us(cfg: &KvExperimentConfig, max_batch: u32) -> f64 {
    if max_batch <= 1 {
        return 0.0;
    }
    let d = &cfg.deployment;
    let slots = (d.app_servers * d.remote_cache_nodes.max(1)) as f64;
    2.0 * slots * (1e6 / cfg.qps) * max_batch as f64
}

/// The experiment for one sweep cell at the given request budget, built on
/// the fixed-seed [`small_kv`] base.
pub fn experiment(spec: &BatchSpec, warmup: u64, measured: u64) -> KvExperimentConfig {
    let mut cfg = small_kv(ArchKind::Remote, 0.95, spec.value_bytes);
    cfg.warmup_requests = warmup;
    cfg.requests = measured;
    cfg.deployment.batching = BatchingConfig {
        batch_window_us: window_us(&cfg, spec.max_batch),
        max_batch: spec.max_batch,
    };
    cfg
}

/// Run every spec through `runner` (results in spec order).
pub fn run_sweep(
    runner: &SweepRunner,
    specs: &[BatchSpec],
    warmup: u64,
    measured: u64,
) -> Vec<ExperimentReport> {
    runner.run_map(specs, |_, spec| {
        run_kv_experiment(&experiment(spec, warmup, measured)).expect("batching sweep run")
    })
}

/// Core·µs of app + remote-cache CPU per request — the per-request "RPC
/// tax plus cache work" figure the ablation tracks against batch size.
pub fn cpu_us_per_request(r: &ExperimentReport) -> f64 {
    let cores: f64 = ["app", "remote_cache"]
        .iter()
        .filter_map(|t| r.tier(t))
        .map(|t| t.cores)
        .sum();
    cores / r.qps * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_cover_the_grid_in_order() {
        let specs = sweep_specs();
        assert_eq!(specs.len(), BATCH_SIZES.len() * VALUE_SIZES.len());
        assert_eq!(
            specs[0],
            BatchSpec {
                max_batch: 1,
                value_bytes: VALUE_SIZES[0]
            }
        );
        // Deterministic order is what the results files and determinism suite key on.
        assert_eq!(specs, sweep_specs());
    }

    #[test]
    fn baseline_cell_disables_batching() {
        let cfg = experiment(
            &BatchSpec {
                max_batch: 1,
                value_bytes: 1024,
            },
            100,
            100,
        );
        assert!(!cfg.deployment.batching.enabled());
        assert_eq!(cfg.deployment.batching.batch_window_us, 0.0);
    }

    #[test]
    fn window_scales_with_batch_size_and_slots() {
        let b8 = experiment(
            &BatchSpec {
                max_batch: 8,
                value_bytes: 1024,
            },
            100,
            100,
        );
        let b32 = experiment(
            &BatchSpec {
                max_batch: 32,
                value_bytes: 1024,
            },
            100,
            100,
        );
        assert!(b8.deployment.batching.windowed());
        let w8 = b8.deployment.batching.batch_window_us;
        let w32 = b32.deployment.batching.batch_window_us;
        assert!((w32 / w8 - 4.0).abs() < 1e-12, "window ∝ max_batch");
        // Long enough for a slot to see max_batch arrivals.
        let slots = (b8.deployment.app_servers * b8.deployment.remote_cache_nodes) as f64;
        assert!(w8 >= slots * (1e6 / b8.qps) * 8.0);
    }
}
