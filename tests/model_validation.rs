//! Theory-vs-simulation cross-validation.
//!
//! The §4 model says compute cost is affine in the cache miss ratio:
//! `cores(s_A) = A + MR(s_A) · B`, with `MR` an analytic Zipf/LRU estimate.
//! The simulator computes cost from actual code paths and an actual LRU
//! cache. If both are right, calibrating `(A, B)` from two simulated cache
//! sizes must *predict* the simulated cost at other sizes, using the
//! analytic miss ratio alone. That closes the loop between
//! `costmodel::theory`, `cachekit`'s MRC machinery, and the `dcache`
//! experiment pipeline.
//!
//! Last revalidated 2026-08-08 against the checked-in calibration bands,
//! after the durability layer (WAL + snapshots + SSD tier) merged — the
//! layer defaults off, and these crash-free runs stay inside the same
//! tolerance bands with no recalibration.

use dcache_cost::cache::mrc::che_lru_hit_ratio;
use dcache_cost::cache::mrc::zipf_popularities;
use dcache_cost::cost::Pricing;
use dcache_cost::obs::json;
use dcache_cost::study::experiment::{run_kv_experiment, KvExperimentConfig};
use dcache_cost::study::{ArchKind, DeploymentConfig};
use dcache_cost::workload::{KvWorkloadConfig, SizeDist};

/// The checked-in calibration: tolerance bands these tests must hold, kept
/// next to a recalibration procedure so drift is a measured event, not a
/// reason to `#[ignore]`.
const CALIBRATION: &str = include_str!("../calibration/model_validation.json");

/// Read one numeric field out of the calibration JSON; a malformed edit
/// fails the suite loudly.
fn calibrated(key: &str) -> f64 {
    let doc = json::parse(CALIBRATION).unwrap_or_else(|e| panic!("calibration JSON: {e}"));
    doc.get(key)
        .and_then(json::Value::as_f64)
        .unwrap_or_else(|| panic!("calibration key {key} missing or not a number"))
}

#[test]
fn calibration_file_matches_compiled_constants() {
    assert_eq!(calibrated("workload_keys") as u64, KEYS);
    assert_eq!(calibrated("workload_value_bytes") as u64, VALUE_BYTES);
    assert!(calibrated("che_hit_tolerance") > 0.0);
    assert!(calibrated("per_miss_min_us") < calibrated("per_miss_max_us"));
}

const KEYS: u64 = 20_000;
const VALUE_BYTES: u64 = 4_096;
const ENTRY_BYTES: u64 = VALUE_BYTES + 64; // cachekit's per-entry overhead

fn run_linked(per_server_cache_bytes: u64) -> dcache_cost::study::ExperimentReport {
    let mut deployment = DeploymentConfig::paper(ArchKind::Linked);
    deployment.linked_cache_bytes_per_server = per_server_cache_bytes;
    let cfg = KvExperimentConfig {
        deployment,
        workload: KvWorkloadConfig {
            keys: KEYS,
            alpha: 1.2,
            read_ratio: 1.0, // pure reads: the regime §4 models
            sizes: SizeDist::Fixed(VALUE_BYTES),
            seed: 17,
            churn_period: None,
        },
        qps: 100_000.0,
        warmup_requests: 60_000,
        requests: 60_000,
        prewarm: true,
        crash_leaders_at_request: None,
        cache_fault_schedule: None,
        trace_sample_every: None,
        diurnal: None,
        observability: None,
        tenants: None,
        pricing: Pricing::default(),
    };
    run_kv_experiment(&cfg).unwrap()
}

/// Analytic LRU hit ratio for a total cache of `entries` slots over the
/// workload's Zipf(1.2) popularity (Che's approximation).
fn analytic_hit(entries: u64) -> f64 {
    let pops = zipf_popularities(KEYS as usize, 1.2);
    che_lru_hit_ratio(&pops, entries as usize)
}

#[test]
fn simulated_hit_ratios_track_che_approximation() {
    let tolerance = calibrated("che_hit_tolerance");
    // Cache fractions from ~3% to 120% of the keyspace (3 servers).
    for key in [
        "cache_fraction_small",
        "cache_fraction_mid",
        "cache_fraction_large",
    ] {
        let fraction = calibrated(key);
        let per_server = ((KEYS as f64 * fraction / 3.0) * ENTRY_BYTES as f64) as u64;
        let report = run_linked(per_server);
        let entries = (per_server * 3) / ENTRY_BYTES;
        let predicted = analytic_hit(entries.min(KEYS));
        let measured = report.cache_hit_ratio;
        assert!(
            (measured - predicted).abs() < tolerance,
            "fraction {fraction}: measured hit {measured:.3} vs Che {predicted:.3} (band ±{tolerance})"
        );
    }
}

#[test]
fn affine_miss_ratio_model_predicts_simulated_cost() {
    let err_budget = calibrated("affine_rel_err_budget");
    // Calibrate cores(s) = A + MR(s)·B at two sizes…
    let small =
        ((KEYS as f64 * calibrated("cache_fraction_small") / 3.0) * ENTRY_BYTES as f64) as u64;
    let large =
        ((KEYS as f64 * calibrated("cache_fraction_large") / 3.0) * ENTRY_BYTES as f64) as u64;
    let r_small = run_linked(small);
    let r_large = run_linked(large);
    let mr_small = 1.0 - r_small.cache_hit_ratio;
    let mr_large = 1.0 - r_large.cache_hit_ratio;
    assert!(
        mr_small - mr_large > 0.1,
        "sizes must separate miss ratios: small {mr_small:.3} vs large {mr_large:.3}"
    );
    let b = (r_small.total_cores - r_large.total_cores) / (mr_small - mr_large);
    let a = r_large.total_cores - mr_large * b;
    assert!(b > 0.0, "misses must cost compute");

    // …and predict a third size from its *analytic* miss ratio only.
    let mid = ((KEYS as f64 * calibrated("cache_fraction_mid") / 3.0) * ENTRY_BYTES as f64) as u64;
    let r_mid = run_linked(mid);
    let entries = (mid * 3) / ENTRY_BYTES;
    let mr_analytic = 1.0 - analytic_hit(entries);
    let predicted_cores = a + mr_analytic * b;
    let err = (predicted_cores - r_mid.total_cores).abs() / r_mid.total_cores;
    assert!(
        err < err_budget,
        "model predicted {predicted_cores:.2} cores, simulator measured {:.2} ({:.1}% off, budget {:.0}%)",
        r_mid.total_cores,
        err * 100.0,
        err_budget * 100.0
    );
}

#[test]
fn per_miss_cost_is_in_the_calibrated_band() {
    // The implied c_A (core-seconds per miss) must sit near the DESIGN.md §5
    // estimate used by TheoryParams::default (180 µs, for 23 KB entries —
    // at 4 KB values somewhat less). The band lives in the calibration file.
    let band = calibrated("per_miss_min_us")..calibrated("per_miss_max_us");
    let qps = calibrated("workload_qps");
    let small =
        ((KEYS as f64 * calibrated("cache_fraction_small") / 3.0) * ENTRY_BYTES as f64) as u64;
    let large =
        ((KEYS as f64 * calibrated("cache_fraction_large") / 3.0) * ENTRY_BYTES as f64) as u64;
    let r_small = run_linked(small);
    let r_large = run_linked(large);
    let d_mr = r_large.cache_hit_ratio - r_small.cache_hit_ratio;
    let c_a = (r_small.total_cores - r_large.total_cores) / (qps * d_mr);
    let c_a_us = c_a * 1e6;
    assert!(
        band.contains(&c_a_us),
        "implied per-miss cost {c_a_us:.0} µs outside the calibrated band {band:?}"
    );
}
