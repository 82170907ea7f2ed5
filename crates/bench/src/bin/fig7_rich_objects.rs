//! Figure 7 — Unity Catalog-Object: the cost of rich-object reads.
//!
//! The production read path (`getTable` → 8 SQL statements + app-side
//! assembly) across architectures, contrasted with the denormalized KV
//! flavor. §5.4's claims: caching the assembled object saves up to ~8×
//! versus reading from storage, and the *saving multiple* is larger for
//! objects than for the KV flavor (by up to ~2×) because a hit elides all
//! eight statements.

use bench::sweep::SweepRunner;
use bench::{print_table, ratio, usd, write_json};
use dcache::unityapp::{
    run_unity_kv_experiment, run_unity_object_experiment, UnityExperimentConfig,
};
use dcache::ArchKind;
use telemetry::json_fields;
use workloads::unity::UnityScale;

struct Point {
    flavor: &'static str,
    arch: String,
    total_cost: f64,
    cores: f64,
    cache_hit_ratio: f64,
    sql_per_read: f64,
    saving_vs_base: f64,
}
json_fields! { Point {
    flavor, arch, total_cost, cores, cache_hit_ratio, sql_per_read, saving_vs_base,
} }

fn main() {
    println!("Reproducing Figure 7: Unity Catalog-Object vs -KV");
    let (warmup, measured) = (100_000, 100_000);
    let mut points = Vec::new();

    type Runner =
        fn(&UnityExperimentConfig) -> storekit::error::StoreResult<dcache::ExperimentReport>;
    const FLAVORS: [(&str, Runner); 2] = [
        ("object", run_unity_object_experiment as Runner),
        ("kv", run_unity_kv_experiment as Runner),
    ];
    let specs: Vec<(usize, ArchKind)> = (0..FLAVORS.len())
        .flat_map(|f| ArchKind::PAPER.iter().map(move |&a| (f, a)))
        .collect();
    let reports = SweepRunner::from_env().run_map(&specs, |_, &(f, arch)| {
        let mut cfg = UnityExperimentConfig::paper(arch, UnityScale::default());
        cfg.warmup_requests = warmup;
        cfg.requests = measured;
        FLAVORS[f].1(&cfg).expect("unity run")
    });
    let mut report_iter = reports.iter();

    for (flavor, _) in FLAVORS {
        let mut rows = Vec::new();
        let mut base_cost = None;
        for arch in ArchKind::PAPER {
            let r = report_iter.next().expect("one report per spec");
            let total = r.total_cost.total();
            let saving = match base_cost {
                None => {
                    base_cost = Some(total);
                    1.0
                }
                Some(b) => b / total,
            };
            let sql_per_read = r.sql_statements as f64 / r.requests as f64;
            rows.push(vec![
                arch.label().to_string(),
                usd(total),
                format!("{:.2}", r.total_cores),
                format!("{:.3}", r.cache_hit_ratio),
                format!("{sql_per_read:.2}"),
                ratio(saving),
            ]);
            points.push(Point {
                flavor,
                arch: arch.label().to_string(),
                total_cost: total,
                cores: r.total_cores,
                cache_hit_ratio: r.cache_hit_ratio,
                sql_per_read,
                saving_vs_base: saving,
            });
        }
        print_table(
            &format!("Figure 7: Unity Catalog-{flavor} (40K QPS)"),
            &["arch", "total/mo", "cores", "hit", "sql/req", "saving"],
            &rows,
        );
    }

    write_json("fig7_rich_objects", &points);

    let saving = |flavor: &str, arch: &str| {
        points
            .iter()
            .find(|p| p.flavor == flavor && p.arch == arch)
            .map(|p| p.saving_vs_base)
            .unwrap_or(0.0)
    };
    let obj = saving("object", "linked");
    let kv = saving("kv", "linked");
    println!(
        "\nLinked saving — Object: {} (paper: up to ~8x), KV: {} => object/kv advantage {} (paper: up to ~2x)",
        ratio(obj),
        ratio(kv),
        ratio(obj / kv.max(1e-9)),
    );
}
