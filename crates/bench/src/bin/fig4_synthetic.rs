//! Figure 4 — total cost across architectures on the synthetic workload.
//!
//! (a) cost vs read ratio r ∈ {50%..99%} at 1 KB values;
//! (b) cost vs value size 1 KB–1 MB at the default read ratio.
//!
//! §5.3's headline numbers come from this experiment: Linked saves ~3.9× at
//! 1 KB and ~7.3× at 1 MB versus Base, with Remote in between.

use bench::sweep::SweepRunner;
use bench::{print_table, ratio, usd, write_json};
use dcache::experiment::{run_kv_experiment, KvExperimentConfig};
use dcache::ArchKind;
use telemetry::json_fields;
use workloads::KvWorkloadConfig;

struct Point {
    sweep: &'static str,
    x: f64,
    arch: String,
    total_cost: f64,
    compute_cost: f64,
    memory_cost: f64,
    cores: f64,
    cache_hit_ratio: f64,
    saving_vs_base: f64,
    read_p50_us: u64,
    read_p99_us: u64,
}
json_fields! { Point {
    sweep, x, arch, total_cost, compute_cost, memory_cost, cores, cache_hit_ratio, saving_vs_base,
    read_p50_us, read_p99_us,
} }

fn run_point(
    arch: ArchKind,
    read_ratio: f64,
    value_bytes: u64,
    warmup: u64,
    measured: u64,
) -> dcache::ExperimentReport {
    let workload = KvWorkloadConfig::paper_synthetic(read_ratio, value_bytes, 42);
    let mut cfg = KvExperimentConfig::paper(arch, workload);
    cfg.qps = 100_000.0;
    cfg.warmup_requests = warmup;
    cfg.requests = measured;
    run_kv_experiment(&cfg).expect("experiment must run")
}

fn sweep(
    name: &'static str,
    xs: &[(f64, f64, u64)], // (x display value, read_ratio, value_bytes)
    points: &mut Vec<Point>,
) {
    let (warmup, measured) = (120_000, 120_000);
    let specs: Vec<(f64, f64, u64, ArchKind)> = xs
        .iter()
        .flat_map(|&(x, r, v)| ArchKind::PAPER.iter().map(move |&a| (x, r, v, a)))
        .collect();
    let reports = SweepRunner::from_env().run_map(&specs, |_, &(_, read_ratio, value_bytes, arch)| {
        run_point(arch, read_ratio, value_bytes, warmup, measured)
    });

    let mut rows = Vec::new();
    let mut base_cost = None;
    for (&(x, _, _, arch), r) in specs.iter().zip(&reports) {
        if arch == ArchKind::PAPER[0] {
            base_cost = None; // new x cell: next Base report re-anchors savings
        }
        {
            let total = r.total_cost.total();
            let saving = match base_cost {
                None => {
                    base_cost = Some(total);
                    1.0
                }
                Some(b) => b / total,
            };
            rows.push(vec![
                format!("{x}"),
                arch.label().to_string(),
                usd(total),
                usd(r.total_cost.compute),
                usd(r.total_cost.memory),
                format!("{:.2}", r.total_cores),
                format!("{:.3}", r.cache_hit_ratio),
                ratio(saving),
                format!("{}", r.read_latency_p50_us),
            ]);
            points.push(Point {
                sweep: name,
                x,
                arch: arch.label().to_string(),
                total_cost: total,
                compute_cost: r.total_cost.compute,
                memory_cost: r.total_cost.memory,
                cores: r.total_cores,
                cache_hit_ratio: r.cache_hit_ratio,
                saving_vs_base: saving,
                read_p50_us: r.read_latency_p50_us,
                read_p99_us: r.read_latency_p99_us,
            });
        }
    }
    print_table(
        &format!("Figure 4{name}"),
        &[
            "x", "arch", "total/mo", "compute", "memory", "cores", "hit", "saving", "p50_us",
        ],
        &rows,
    );
}

fn main() {
    println!("Reproducing Figure 4: synthetic workload, 100K keys, Zipf(1.2), 100K QPS");
    let mut points = Vec::new();

    // (a) read-ratio sweep at 1 KB values.
    let ratios: Vec<(f64, f64, u64)> = [0.50, 0.75, 0.90, 0.95, 0.99]
        .iter()
        .map(|&r| (r, r, 1_024))
        .collect();
    sweep("a (read ratio, 1KB values)", &ratios, &mut points);

    // (b) value-size sweep at a read-heavy ratio (95%, within the paper's
    // swept range; the exact ratio the paper used is not stated).
    let sizes: Vec<(f64, f64, u64)> = [1u64 << 10, 10 << 10, 100 << 10, 1 << 20]
        .iter()
        .map(|&s| (s as f64 / 1024.0, 0.95, s))
        .collect();
    sweep("b (value KB, r=95%)", &sizes, &mut points);

    write_json("fig4_synthetic", &points);

    // Paper-shape summary: savings at the 1KB and 1MB endpoints.
    let saving_at = |x: f64, arch: &str| {
        points
            .iter()
            .find(|p| p.sweep.starts_with('b') && p.x == x && p.arch == arch)
            .map(|p| p.saving_vs_base)
            .unwrap_or(0.0)
    };
    println!(
        "\nLinked saving vs Base: {} at 1KB (paper: ~3.9x), {} at 1MB (paper: ~7.3x)",
        ratio(saving_at(1.0, "linked")),
        ratio(saving_at(1024.0, "linked")),
    );
}
