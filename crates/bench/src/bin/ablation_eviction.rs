//! Ablation — eviction policy.
//!
//! The paper's deployments use LRU throughout. This ablation sweeps the
//! policies in `cachekit` (LRU, FIFO, LFU, SLRU, CLOCK) on the Linked
//! architecture with a cache deliberately smaller than the working set, to
//! show how much of the cost conclusion depends on the eviction choice
//! (answer: little — hit-ratio differences of a few points move cost by a
//! few percent, nowhere near the architecture gaps).

use bench::sweep::SweepRunner;
use bench::{print_table, ratio, usd, write_json};
use cachekit::PolicyKind;
use dcache::experiment::{run_kv_experiment, KvExperimentConfig};
use dcache::ArchKind;
use telemetry::json_fields;
use workloads::KvWorkloadConfig;

struct Point {
    policy: String,
    cache_hit_ratio: f64,
    total_cost: f64,
    saving_vs_base: f64,
}
json_fields! { Point { policy, cache_hit_ratio, total_cost, saving_vs_base } }

fn main() {
    println!("Ablation: eviction policy on the Linked architecture");
    println!("(cache sized to ~10% of the 100KB-value working set to force eviction)");
    let (warmup, measured) = (120_000, 120_000);

    let make_cfg = |arch: ArchKind, policy: PolicyKind, admission: bool| {
        // Milder skew than the headline runs (alpha = 1.0) so eviction
        // decisions actually matter; cache ~7% of the 10 GB working set.
        let mut workload = KvWorkloadConfig::paper_synthetic(0.95, 100 << 10, 42);
        workload.alpha = 1.0;
        let mut cfg = KvExperimentConfig::paper(arch, workload);
        cfg.qps = 100_000.0;
        cfg.warmup_requests = warmup;
        cfg.requests = measured;
        cfg.deployment.linked_cache_bytes_per_server = 240 << 20;
        cfg.deployment.cache_policy = policy;
        cfg.deployment.cache_admission = admission;
        cfg
    };

    // Spec 0 is the Base reference; the rest are Linked policy variants.
    let mut specs: Vec<(String, ArchKind, PolicyKind, bool)> =
        vec![("base".to_string(), ArchKind::Base, PolicyKind::Lru, false)];
    specs.extend(
        PolicyKind::ALL
            .iter()
            .map(|&p| (p.label().to_string(), ArchKind::Linked, p, false)),
    );
    specs.push(("lru+tinylfu".to_string(), ArchKind::Linked, PolicyKind::Lru, true));
    let reports = SweepRunner::from_env().run_map(&specs, |_, (_, arch, policy, admission)| {
        run_kv_experiment(&make_cfg(*arch, *policy, *admission)).expect("run")
    });
    let base_cost = reports[0].total_cost.total();

    let mut rows = Vec::new();
    let mut points = Vec::new();
    for ((label, _, _, _), r) in specs.iter().zip(&reports).skip(1) {
        let total = r.total_cost.total();
        rows.push(vec![
            label.clone(),
            format!("{:.3}", r.cache_hit_ratio),
            usd(total),
            ratio(base_cost / total),
        ]);
        points.push(Point {
            policy: label.clone(),
            cache_hit_ratio: r.cache_hit_ratio,
            total_cost: total,
            saving_vs_base: base_cost / total,
        });
    }
    print_table(
        &format!("Eviction ablation (Base costs {})", usd(base_cost)),
        &["policy", "hit", "total/mo", "saving"],
        &rows,
    );
    write_json("ablation_eviction", &points);

    let best = points.iter().map(|p| p.saving_vs_base).fold(0.0f64, f64::max);
    let worst = points
        .iter()
        .map(|p| p.saving_vs_base)
        .fold(f64::INFINITY, f64::min);
    println!(
        "\nPolicy choice moves the saving between {} and {} — the architecture choice dominates.",
        ratio(worst),
        ratio(best)
    );
}
