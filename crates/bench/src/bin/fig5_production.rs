//! Figure 5 — cost comparison on production-shaped workloads.
//!
//! (a) Unity Catalog-KV: the denormalized single-row flavor of the
//!     governance service (≈93% reads, ≈23 KB median values, 40K QPS);
//! (b) Meta: the CacheLib-style trace (70% reads, ~10 B median values).
//!
//! Both show Remote and Linked saving substantially over Base, with Linked
//! ahead of Remote (gRPC + (de)serialization CPU), cf. §5.3.

use bench::sweep::SweepRunner;
use bench::{print_table, ratio, usd, write_json};
use dcache::experiment::{run_kv_experiment, KvExperimentConfig};
use dcache::unityapp::{run_unity_kv_experiment, UnityExperimentConfig};
use dcache::{ArchKind, ExperimentReport};
use telemetry::json_fields;
use workloads::meta::meta_workload;
use workloads::unity::UnityScale;

struct Point {
    workload: &'static str,
    arch: String,
    total_cost: f64,
    compute_cost: f64,
    memory_cost: f64,
    cores: f64,
    cache_hit_ratio: f64,
    saving_vs_base: f64,
    memory_fraction: f64,
}
json_fields! { Point {
    workload, arch, total_cost, compute_cost, memory_cost, cores, cache_hit_ratio, saving_vs_base,
    memory_fraction,
} }

fn record(
    points: &mut Vec<Point>,
    rows: &mut Vec<Vec<String>>,
    workload: &'static str,
    arch: ArchKind,
    r: &ExperimentReport,
    base_cost: &mut Option<f64>,
) {
    let total = r.total_cost.total();
    let saving = match base_cost {
        None => {
            *base_cost = Some(total);
            1.0
        }
        Some(b) => *b / total,
    };
    rows.push(vec![
        arch.label().to_string(),
        usd(total),
        usd(r.total_cost.compute),
        usd(r.total_cost.memory),
        format!("{:.2}", r.total_cores),
        format!("{:.3}", r.cache_hit_ratio),
        ratio(saving),
        format!("{:.1}%", r.memory_cost_fraction() * 100.0),
    ]);
    points.push(Point {
        workload,
        arch: arch.label().to_string(),
        total_cost: total,
        compute_cost: r.total_cost.compute,
        memory_cost: r.total_cost.memory,
        cores: r.total_cores,
        cache_hit_ratio: r.cache_hit_ratio,
        saving_vs_base: saving,
        memory_fraction: r.memory_cost_fraction(),
    });
}

const HEADER: [&str; 8] = [
    "arch", "total/mo", "compute", "memory", "cores", "hit", "saving", "mem%",
];

fn main() {
    println!("Reproducing Figure 5: production workloads");
    let (warmup, measured) = (120_000, 120_000);
    let mut points = Vec::new();

    let runner = SweepRunner::from_env();
    let archs: Vec<ArchKind> = ArchKind::PAPER.to_vec();

    // (a) Unity Catalog-KV at 40K QPS.
    let unity_reports = runner.run_map(&archs, |_, &arch| {
        let mut cfg = UnityExperimentConfig::paper(arch, UnityScale::default());
        cfg.warmup_requests = warmup;
        cfg.requests = measured;
        run_unity_kv_experiment(&cfg).expect("unity-kv run")
    });
    let mut rows = Vec::new();
    let mut base = None;
    for (&arch, r) in archs.iter().zip(&unity_reports) {
        record(&mut points, &mut rows, "unity_kv", arch, r, &mut base);
    }
    print_table("Figure 5a: Unity Catalog-KV (40K QPS)", &HEADER, &rows);

    // (b) Meta-style trace at 100K QPS (tiny values, 30% writes).
    let meta_reports = runner.run_map(&archs, |_, &arch| {
        let mut cfg = KvExperimentConfig::paper(arch, meta_workload(11));
        cfg.warmup_requests = warmup;
        cfg.requests = measured;
        cfg.prewarm = true; // seed the tiny-value working set (74 MB total)
        run_kv_experiment(&cfg).expect("meta run")
    });
    let mut rows = Vec::new();
    let mut base = None;
    for (&arch, r) in archs.iter().zip(&meta_reports) {
        record(&mut points, &mut rows, "meta", arch, r, &mut base);
    }
    print_table("Figure 5b: Meta-style trace (100K QPS)", &HEADER, &rows);

    write_json("fig5_production", &points);

    let best = |w: &str| {
        points
            .iter()
            .filter(|p| p.workload == w)
            .map(|p| p.saving_vs_base)
            .fold(0.0f64, f64::max)
    };
    println!(
        "\nBest saving vs Base — Unity Catalog-KV: {}, Meta: {} (paper: 3-4x range)",
        ratio(best("unity_kv")),
        ratio(best("meta"))
    );
}
