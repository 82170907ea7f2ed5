//! Shared builder for the hot-key L0-tier ablation.
//!
//! One sweep definition, two consumers: the `ablation_hotkey` bin (full
//! budget, table + JSON + L0-vs-batching crossover narrative) and the
//! determinism tests (jobs=1 vs jobs=N byte-equality). Keeping the config
//! construction here guarantees they measure the same thing.
//!
//! The sweep layers the in-process L0 tier in front of the two
//! architectures that support it (Remote and Linked) and varies L0 bytes ×
//! Zipf skew × value size. `l0_bytes = 0` disables the tier — the baseline
//! every other cell is compared against, and the cell that pins the
//! defaults-off invariant: with the L0 off, every `l0_*` counter must stay
//! exactly zero. A pair of serve-stale cells at the production corner
//! measures what relaxing coherence to a bounded-staleness window buys and
//! what staleness it actually serves.

use crate::small_kv;
use crate::sweep::SweepRunner;
use dcache::experiment::{run_kv_experiment, KvExperimentConfig};
use dcache::{ArchKind, ExperimentReport, L0Config, L0Consistency};

/// Architectures that can host an in-process L0 (see
/// `ArchKind::supports_l0`).
pub const ARCHS: &[ArchKind] = &[ArchKind::Remote, ArchKind::Linked];

/// L0 byte budget per app server; 0 = tier off (the baseline).
pub const L0_BYTES: &[u64] = &[0, 1 << 20, 4 << 20, 16 << 20];

/// Zipf skew axis: a flat-ish tail and the production head the paper
/// measures.
pub const ALPHAS: &[f64] = &[0.8, 1.2];

/// Value-size axis: small values where the per-op tax dominates, and the
/// 1 KB synthetic default the fig4 grid uses.
pub const VALUE_SIZES: &[u64] = &[128, 1024];

/// The (alpha, value size, l0 bytes) corner the serve-stale cells probe.
pub const STALE_CORNER: (f64, u64, u64) = (1.2, 1024, 4 << 20);

/// One cell of the hot-key sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HotkeySpec {
    pub arch: ArchKind,
    pub l0_bytes: u64,
    pub alpha: f64,
    pub value_bytes: u64,
    pub serve_stale: bool,
}

impl HotkeySpec {
    pub fn label(&self) -> String {
        let mode = if self.serve_stale { "_stale" } else { "" };
        format!(
            "{}/a{}_v{}_l0_{}kb{}",
            self.arch.label(),
            self.alpha,
            self.value_bytes,
            self.l0_bytes >> 10,
            mode
        )
    }
}

/// The full grid in deterministic (arch major, alpha, value size, L0 bytes
/// minor) order, followed by one serve-stale cell per arch at the
/// production corner.
pub fn sweep_specs() -> Vec<HotkeySpec> {
    let mut specs: Vec<HotkeySpec> = ARCHS
        .iter()
        .flat_map(|&arch| {
            ALPHAS.iter().flat_map(move |&alpha| {
                VALUE_SIZES.iter().flat_map(move |&value_bytes| {
                    L0_BYTES.iter().map(move |&l0_bytes| HotkeySpec {
                        arch,
                        l0_bytes,
                        alpha,
                        value_bytes,
                        serve_stale: false,
                    })
                })
            })
        })
        .collect();
    let (alpha, value_bytes, l0_bytes) = STALE_CORNER;
    specs.extend(ARCHS.iter().map(|&arch| HotkeySpec {
        arch,
        l0_bytes,
        alpha,
        value_bytes,
        serve_stale: true,
    }));
    specs
}

/// The experiment for one sweep cell at the given request budget, built on
/// the fixed-seed [`small_kv`] base.
pub fn experiment(spec: &HotkeySpec, warmup: u64, measured: u64) -> KvExperimentConfig {
    let mut cfg = small_kv(spec.arch, 0.95, spec.value_bytes);
    cfg.workload.alpha = spec.alpha;
    cfg.warmup_requests = warmup;
    cfg.requests = measured;
    if spec.l0_bytes > 0 {
        cfg.deployment.l0 = Some(L0Config {
            bytes_per_server: spec.l0_bytes,
            consistency: if spec.serve_stale {
                L0Consistency::ServeStale
            } else {
                L0Consistency::InvalidateFirst
            },
            mean_entry_bytes: spec.value_bytes.max(64),
            ..L0Config::default()
        });
    }
    cfg
}

/// Run every spec through `runner` (results in spec order).
pub fn run_sweep(
    runner: &SweepRunner,
    specs: &[HotkeySpec],
    warmup: u64,
    measured: u64,
) -> Vec<ExperimentReport> {
    runner.run_map(specs, |_, spec| {
        run_kv_experiment(&experiment(spec, warmup, measured)).expect("hotkey sweep run")
    })
}

/// Core·µs of app + remote-cache CPU per request — the lookup-path figure
/// the ablation tracks against L0 size (the storage tier is identical
/// across cells at a fixed hit ratio).
pub fn cpu_us_per_request(r: &ExperimentReport) -> f64 {
    let cores: f64 = ["app", "remote_cache"]
        .iter()
        .filter_map(|t| r.tier(t))
        .map(|t| t.cores)
        .sum();
    cores / r.qps * 1e6
}

/// Fraction of measured requests the L0 absorbed.
pub fn l0_absorption(r: &ExperimentReport) -> f64 {
    r.l0_hits as f64 / r.requests.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_cover_the_grid_in_order() {
        let specs = sweep_specs();
        assert_eq!(
            specs.len(),
            ARCHS.len() * ALPHAS.len() * VALUE_SIZES.len() * L0_BYTES.len() + ARCHS.len()
        );
        assert_eq!(
            specs[0],
            HotkeySpec {
                arch: ArchKind::Remote,
                l0_bytes: 0,
                alpha: ALPHAS[0],
                value_bytes: VALUE_SIZES[0],
                serve_stale: false,
            }
        );
        // Deterministic order is what the results files and determinism suite key on.
        assert_eq!(specs, sweep_specs());
        // Exactly one serve-stale cell per arch, at the production corner.
        let stale: Vec<&HotkeySpec> = specs.iter().filter(|s| s.serve_stale).collect();
        assert_eq!(stale.len(), ARCHS.len());
        for s in stale {
            assert_eq!((s.alpha, s.value_bytes, s.l0_bytes), STALE_CORNER);
        }
    }

    #[test]
    fn baseline_cell_disables_the_tier() {
        let cfg = experiment(
            &HotkeySpec {
                arch: ArchKind::Remote,
                l0_bytes: 0,
                alpha: 1.2,
                value_bytes: 1024,
                serve_stale: false,
            },
            100,
            100,
        );
        assert!(cfg.deployment.l0.is_none());
    }

    #[test]
    fn cells_carry_their_knobs() {
        let cfg = experiment(
            &HotkeySpec {
                arch: ArchKind::Linked,
                l0_bytes: 4 << 20,
                alpha: 0.8,
                value_bytes: 128,
                serve_stale: true,
            },
            100,
            100,
        );
        let l0 = cfg.deployment.l0.expect("tier on");
        assert_eq!(l0.bytes_per_server, 4 << 20);
        assert!(l0.serve_stale());
        assert_eq!(l0.mean_entry_bytes, 128);
        assert_eq!(cfg.workload.alpha, 0.8);
    }

    #[test]
    fn labels_are_unique() {
        let specs = sweep_specs();
        let mut labels: Vec<String> = specs.iter().map(|s| s.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), specs.len());
    }
}
