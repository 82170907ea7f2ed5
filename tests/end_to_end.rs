//! Cross-crate integration tests: whole-system runs through the public API.

use dcache_cost::cost::Pricing;
use dcache_cost::study::experiment::{
    compare_architectures, run_kv_experiment, KvExperimentConfig,
};
use dcache_cost::study::{ArchKind, DeploymentConfig};
use dcache_cost::workload::{KvWorkloadConfig, SizeDist};

fn mid_cfg(arch: ArchKind) -> KvExperimentConfig {
    KvExperimentConfig {
        deployment: DeploymentConfig::paper(arch),
        workload: KvWorkloadConfig {
            keys: 10_000,
            alpha: 1.2,
            read_ratio: 0.95,
            sizes: SizeDist::Fixed(4_096),
            seed: 99,
            churn_period: None,
        },
        qps: 100_000.0,
        warmup_requests: 15_000,
        requests: 15_000,
        prewarm: true,
        crash_leaders_at_request: None,
        cache_fault_schedule: None,
        trace_sample_every: None,
        diurnal: None,
        observability: None,
        tenants: None,
        pricing: Pricing::default(),
    }
}

#[test]
fn identical_seeds_give_identical_reports() {
    let a = run_kv_experiment(&mid_cfg(ArchKind::Linked)).unwrap();
    let b = run_kv_experiment(&mid_cfg(ArchKind::Linked)).unwrap();
    assert_eq!(a, b, "the whole pipeline must be deterministic");
}

#[test]
fn different_seeds_change_details_not_conclusions() {
    let mut cfg = mid_cfg(ArchKind::Linked);
    let a = run_kv_experiment(&cfg).unwrap();
    cfg.workload.seed = 100;
    let b = run_kv_experiment(&cfg).unwrap();
    assert_ne!(a.total_cost.total(), b.total_cost.total());
    // But the cost is in the same ballpark (within 20%).
    let ratio = a.total_cost.total() / b.total_cost.total();
    assert!(
        (0.8..1.25).contains(&ratio),
        "seed sensitivity too high: {ratio}"
    );
}

#[test]
fn paper_ordering_holds_end_to_end() {
    // The paper's central comparative claim, on a mid-size run:
    // linked < remote < base ≈ linked+version.
    let reports = compare_architectures(&ArchKind::PAPER, mid_cfg(ArchKind::Base)).unwrap();
    let cost = |arch: ArchKind| {
        reports
            .iter()
            .find(|r| r.arch == arch)
            .unwrap()
            .total_cost
            .total()
    };
    let base = cost(ArchKind::Base);
    let remote = cost(ArchKind::Remote);
    let linked = cost(ArchKind::Linked);
    let checked = cost(ArchKind::LinkedVersion);
    assert!(linked < remote, "linked {linked} < remote {remote}");
    assert!(remote < base, "remote {remote} < base {base}");
    assert!(
        checked > base * 0.85,
        "version checks erase most of the benefit: {checked} vs base {base}"
    );
    // Headline band: linked saves 3-4x (abstract).
    let saving = base / linked;
    assert!(
        (2.5..6.0).contains(&saving),
        "linked saving {saving} outside the paper's plausible band"
    );
}

#[test]
fn latency_benefit_accompanies_cost_benefit() {
    let base = run_kv_experiment(&mid_cfg(ArchKind::Base)).unwrap();
    let linked = run_kv_experiment(&mid_cfg(ArchKind::Linked)).unwrap();
    assert!(linked.read_latency_p50_us * 3 < base.read_latency_p50_us);
    assert!(linked.read_latency_p99_us <= base.read_latency_p99_us);
}

#[test]
fn memory_fractions_match_section_5_3_bands() {
    let base = run_kv_experiment(&mid_cfg(ArchKind::Base)).unwrap();
    let linked = run_kv_experiment(&mid_cfg(ArchKind::Linked)).unwrap();
    // §5.3: memory is 6-22% of total for Linked, 1-5% for Base.
    let b = base.memory_cost_fraction();
    let l = linked.memory_cost_fraction();
    assert!((0.005..=0.10).contains(&b), "base memory fraction {b}");
    assert!((0.05..=0.40).contains(&l), "linked memory fraction {l}");
    assert!(l > b);
}

#[test]
fn value_size_widen_the_gap() {
    // Figure 4b's trend on a reduced sweep.
    let saving_at = |bytes: u64| {
        let mut cfg = mid_cfg(ArchKind::Base);
        cfg.workload.sizes = SizeDist::Fixed(bytes);
        let base = run_kv_experiment(&cfg).unwrap();
        cfg.deployment.arch = ArchKind::Linked;
        let linked = run_kv_experiment(&cfg).unwrap();
        base.total_cost.total() / linked.total_cost.total()
    };
    let small = saving_at(1 << 10);
    let large = saving_at(512 << 10);
    assert!(
        large > small,
        "saving must grow with value size: {small:.2} -> {large:.2}"
    );
}

#[test]
fn write_heavy_workloads_shrink_the_benefit() {
    // Figure 4a's trend: more writes, less saving.
    let saving_at = |read_ratio: f64| {
        let mut cfg = mid_cfg(ArchKind::Base);
        cfg.workload.read_ratio = read_ratio;
        let base = run_kv_experiment(&cfg).unwrap();
        cfg.deployment.arch = ArchKind::Linked;
        let linked = run_kv_experiment(&cfg).unwrap();
        base.total_cost.total() / linked.total_cost.total()
    };
    let write_heavy = saving_at(0.5);
    let read_heavy = saving_at(0.99);
    assert!(
        read_heavy > write_heavy,
        "saving must grow with read ratio: {write_heavy:.2} vs {read_heavy:.2}"
    );
    assert!(
        write_heavy > 1.0,
        "even at 50% writes the cache must not lose"
    );
}

#[test]
fn storage_tier_cpu_collapses_under_linked() {
    let base = run_kv_experiment(&mid_cfg(ArchKind::Base)).unwrap();
    let linked = run_kv_experiment(&mid_cfg(ArchKind::Linked)).unwrap();
    let storage_cores = |r: &dcache_cost::study::ExperimentReport| {
        r.tier("storage").unwrap().cores + r.tier("sql_frontend").unwrap().cores
    };
    assert!(
        storage_cores(&linked) < storage_cores(&base) / 4.0,
        "database tiers must shed most load: {} vs {}",
        storage_cores(&linked),
        storage_cores(&base)
    );
}
